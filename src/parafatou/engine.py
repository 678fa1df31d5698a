"""Iteration limits that realize the conjugating coordinates numerically.

Every quantity this module computes is the limit of an explicit sequence
built from orbits: corrected partial sums along forward orbits for the
incoming coordinates, inversion of those limits for the outgoing ones,
and freshly recomposed finite-stage chains for the two mixed coordinates
whose defining sequences do not nest.  Every inversion, of a germ, a
fiber map, a log shear or a limit, runs the one solver `germs.newton`.

The workhorse is an asymptotic correction: for a one-variable germ
g(w) = w + 1 + a1/w + ... the partial sums of the defining limit decay
like 1/n, far too slowly to iterate.  Subtracting the jet-derived tail

    phi_K(w) = w - alpha log w + c1/w + ... + cK/w^K

turns the per-step defect into O(w^-(K+2)), so a few dozen iterations
reach full precision.  The coefficients c_k solve a triangular linear
system read off from the germ's jet; see `abel_corrections`.

Two-variable evaluators keep the first coordinate exact whenever the
base germ is an exact unit translation (the sums telescope), and the
assembled general pipeline reduces the base to that situation through
the one-variable coordinates, so its first components are never
iterated at all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    ChartMismatch,
    NewtonDiverged,
    NonFiniteValue,
    WrongForm,
)
from .expressions import as_rational_poly2, poly_eq
from .germs import (
    Germ1D,
    Point2,
    SkewGerm2D,
    fiber_limit_map,
    newton,
    to_infinity,
)
from .normal_form import (
    BranchedLog,
    CallableStep,
    ConjugacyChain,
    Inversion,
    LogShear,
    LogShearParams,
    compose_chains,
    extract_alpha,
    invert_log_shift,
    normalize_quadratic,
    raise_order,
    solve_log_shear,
    DEFAULT_M,
)
from .regions import choose_radius, make_regions
from .series import INFINITY, TruncatedSeries1, infinity_inverse1

CONVERGED = "converged"
MAX_ITER = "max_iter"
ESCAPED = "escaped"

_SECTOR_HALF_OPENING = 0.75 * np.pi


@dataclass(frozen=True)
class ConvergenceConfig:
    """Stopping and safety parameters shared by every engine.

    tol is the successive-difference threshold; an engine reports
    convergence only after three consecutive differences fall below it.
    radius is the sector scale of the domain the orbit must stay in:
    an iterate whose modulus drops below radius/2, grows beyond
    divergence_guard, or leaves the 3pi/4 half-opening counts as an
    escape, not a failure.
    """

    tol: float = 1e-10
    n_max: int = 10 ** 6
    divergence_guard: float = 1e15
    radius: float = 10.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


DEFAULT_CONFIG = ConvergenceConfig()


@dataclass(frozen=True)
class FatouValue:
    """Result of one limit evaluation.

    value is a complex number (one-variable engines) or a pair
    (two-variable engines).  verdict is one of "converged", "max_iter",
    "escaped"; a converged verdict guarantees last_delta < tol.
    """

    value: object
    iterations: int
    last_delta: float
    verdict: str


# ------------------------------------------------------------ corrections


@dataclass(frozen=True)
class Corrections:
    """The truncated asymptotic coordinate phi_K and its derivative."""

    alpha: complex
    coeffs: tuple

    def tail(self, w):
        x = 1.0 / w
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x

    def phi(self, w, log):
        out = w + self.tail(w)
        if self.alpha != 0:
            out = out - self.alpha * log(w)
        return out

    def dphi(self, w):
        x = 1.0 / w
        d = 0j
        for k, c in enumerate(self.coeffs, start=1):
            d += k * c * x ** (k + 1)
        return 1.0 - self.alpha * x - d


_correction_cache: dict = {}


def abel_corrections(jet: TruncatedSeries1, alpha: complex,
                     K: int | None = None) -> Corrections:
    """Solve for the tail coefficients of phi_K from the germ's jet.

    Writing x = 1/w, the one-step defect phi(g(w)) - phi(w) - 1 is a
    power series in x whose x^1 coefficient is killed by the log term
    and whose x^(k+1) coefficient is affine in c_k with slope -k, so the
    system is triangular.  K defaults to min(8, order-1); the defect of
    the returned coordinate is O(w^-(K+2)).
    """
    if jet.chart != INFINITY:
        raise ChartMismatch("corrections are built from a jet at infinity")
    n_ord = jet.order
    if K is None:
        K = max(0, min(8, n_ord - 1))
    if K > n_ord - 1:
        raise WrongForm(f"jet order {n_ord} supports at most K={n_ord - 1}")
    alpha = complex(alpha)
    key = (tuple(jet.coeffs), alpha, K)
    hit = _correction_cache.get(key)
    if hit is not None:
        return hit
    a = [complex(jet.coeff(k)) for k in range(n_ord + 1)]
    if abs(a[0] - 1) > 1e-9:
        raise WrongForm("the germ must translate by exactly 1 at infinity")

    top = K + 1
    # g(w)/w = 1 + a0 x + a1 x^2 + ...;  g(w)-w-1 = sum_{j>=1} a_j x^j
    m = [1.0 + 0j] + [a[j - 1] for j in range(1, top + 1)]
    A = [0j] + [a[j] if j <= n_ord else 0j for j in range(1, top + 1)]
    logm = [0j] * (top + 1)
    for k in range(1, top + 1):
        s = sum(j * logm[j] * m[k - j] for j in range(1, k))
        logm[k] = m[k] - s / k
    h = [1.0 + 0j] + [0j] * top
    for k in range(1, top + 1):
        h[k] = -sum(m[j] * h[k - j] for j in range(1, k + 1))

    cur = [A[j] - alpha * logm[j] for j in range(top + 1)]
    hpow = list(h)
    coeffs = []
    for k in range(1, K + 1):
        ck = -cur[k + 1] / hpow[1]
        for j in range(k + 1, top + 1):
            cur[j] += ck * hpow[j - k]
        coeffs.append(ck)
        if k < K:
            hpow = [sum(hpow[i] * h[j - i] for i in range(j + 1))
                    for j in range(top + 1)]
    out = Corrections(alpha, tuple(coeffs))
    _correction_cache[key] = out
    return out


# ----------------------------------------------------------- small helpers


def _outside_sector(x, cfg: ConvergenceConfig, center: float) -> bool:
    ax = abs(x)
    scalar = isinstance(x, (complex, float))
    if not (math.isfinite(ax) if scalar else np.isfinite(ax)):
        return True
    if ax < 0.5 * cfg.radius or ax > cfg.divergence_guard:
        return True
    if scalar:
        rel = cmath.phase(x * _rotation(center))
    else:
        rel = np.angle(x * np.exp(-1j * center))
    return abs(rel) > _SECTOR_HALF_OPENING


@lru_cache(maxsize=64)
def _rotation(center: float) -> complex:
    """np.exp(-1j * center) as a Python complex, the array path's value."""
    return complex(np.exp(-1j * center))


def _translation_jet(jet: TruncatedSeries1) -> bool:
    if jet.chart != INFINITY or jet.coeff(0) != 1:
        return False
    return all(jet.coeff(k) == 0 for k in range(1, jet.order + 1))


def _poly_mul2(a: dict, b: dict) -> dict:
    out: dict = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _fiber_translation(G: SkewGerm2D) -> bool:
    """True when the fiber map is exactly v -> v + 1 as a rational map."""
    num, den = as_rational_poly2(G.fiber_expr)
    return poly_eq(num, _poly_mul2(den, {(0, 1): 1.0, (0, 0): 1.0}))


def eta_point(p: Point2) -> Point2:
    """The sign involution (u, v) -> (-u, -v)."""
    return Point2(-p.z, -p.w, p.chart)


# -------------------------------------------------------------- one variable


def incoming_1d(g: Germ1D, alpha: complex, w, cfg: ConvergenceConfig = None,
                log: BranchedLog = None) -> FatouValue:
    """Limit of phi_K(g^n(w)) - n along the forward orbit.

    The raw sequence is the log-corrected iterate count; the correction
    tail only accelerates it, so the limit is the same coordinate the
    plain sequence defines.  Exact unit translations short-circuit to
    the input at n=1.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("incoming coordinate lives at infinity")
    cfg = cfg or DEFAULT_CONFIG
    log = log or BranchedLog(0.0)
    w = complex(w)
    if _outside_sector(w, cfg, log.center):
        return FatouValue(w, 0, float("inf"), ESCAPED)
    if alpha == 0 and _translation_jet(g.jet) and g(w) - w == 1:
        return FatouValue(w, 1, 0.0, CONVERGED)
    cors = abel_corrections(g.jet, alpha)
    prev = cors.phi(w, log)
    x = w
    delta = float("inf")
    streak = 0
    for n in range(1, cfg.n_max + 1):
        try:
            x = g(x)
        except NonFiniteValue:
            return FatouValue(prev, n, delta, ESCAPED)
        if _outside_sector(x, cfg, log.center):
            return FatouValue(prev, n, delta, ESCAPED)
        cur = cors.phi(x, log) - n
        delta = abs(cur - prev)
        prev = cur
        streak = streak + 1 if delta < cfg.tol else 0
        if streak >= 3:
            return FatouValue(cur, n, delta, CONVERGED)
    return FatouValue(prev, cfg.n_max, delta, MAX_ITER)


def incoming_1d_trace(g: Germ1D, alpha: complex, w, n_steps: int,
                      cfg: ConvergenceConfig = None,
                      log: BranchedLog = None,
                      corrected: bool = False) -> list:
    """First n_steps estimates of the incoming limit, for decay studies.

    With corrected=False the estimates are the uncorrected log-adjusted
    iterates, whose successive differences exhibit the germ's own decay
    exponent rather than the accelerated one.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("incoming coordinate lives at infinity")
    cfg = cfg or DEFAULT_CONFIG
    log = log or BranchedLog(0.0)
    cors = (abel_corrections(g.jet, alpha) if corrected
            else Corrections(complex(alpha), ()))
    x = complex(w)
    out = [cors.phi(x, log)]
    for n in range(1, n_steps + 1):
        x = g(x)
        if _outside_sector(x, cfg, log.center):
            break
        out.append(cors.phi(x, log) - n)
    return out


def dual_germ_1d(g: Germ1D) -> Germ1D:
    """The sign-reversed inverse germ, again translating by +1."""
    if g.chart != INFINITY:
        raise ChartMismatch("duality is an infinity-chart construction")
    jet = infinity_inverse1(g.jet)

    def ev(w):
        return -g.local_inverse(-w, guess=-w - 1)

    return Germ1D(jet, evaluator=ev, chart=INFINITY, check=False)


def _invert_limit(limit, cors: Corrections, target) -> FatouValue:
    """Newton solve limit(x).value = target from x = target.

    limit(x) is a FatouValue of a limit that cors.phi approximates up to a
    constant, so cors.dphi is the derivative.  The result holds the last
    iterate and, unless the limit itself ended unconverged, the verdict
    escaped (flat derivative, bound left), max_iter (steps) or converged.
    """
    last = None

    def value(x):
        nonlocal last
        last = limit(x)
        if last.verdict != CONVERGED:
            raise NewtonDiverged(f"limit ended {last.verdict}",
                                 last_value=x)
        return last.value

    try:
        x = newton(value, cors.dphi, target, complex(target),
                   1e-12 * max(1.0, abs(target)))
    except NewtonDiverged as err:
        x = err.last_value
        if last.verdict != CONVERGED:
            return FatouValue(x, last.iterations, last.last_delta,
                              last.verdict)
        if err.reason == "steps":
            return FatouValue(x, last.iterations, abs(last.value - target),
                              MAX_ITER)
        return FatouValue(x, last.iterations, float("inf"), ESCAPED)
    return FatouValue(x, last.iterations, last.last_delta, CONVERGED)


def _invert_incoming(g: Germ1D, alpha: complex, target: complex,
                     cfg: ConvergenceConfig, log: BranchedLog) -> complex:
    """The point x with incoming_1d(g, alpha, x) = target."""
    fv = _invert_limit(lambda x: incoming_1d(g, alpha, x, cfg, log),
                       abel_corrections(g.jet, alpha), target)
    if fv.verdict != CONVERGED:
        raise NewtonDiverged(f"incoming inversion ended {fv.verdict}",
                             last_value=fv.value)
    return fv.value


def outgoing_1d(g: Germ1D, alpha: complex, w,
                cfg: ConvergenceConfig = None) -> FatouValue:
    """Outgoing coordinate, evaluated through the sign-reversed inverse.

    The returned map satisfies g(out(w)) = out(w+1) by construction: it
    is the conjugate, by the sign involution, of the inverse of the
    incoming coordinate of the dual germ.  It differs from the direct
    limit definition by an additive branch constant; see
    `outgoing_1d_direct` for the uncorrected comparison object.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("outgoing coordinate lives at infinity")
    cfg = cfg or DEFAULT_CONFIG
    w = complex(w)
    if alpha == 0 and _translation_jet(g.jet) and g(w) - w == 1:
        return FatouValue(w, 1, 0.0, CONVERGED)
    dual = dual_germ_1d(g)
    log = BranchedLog(0.0)
    fv = _invert_limit(lambda x: incoming_1d(dual, -alpha, x, cfg, log),
                       abel_corrections(dual.jet, -alpha), -w)
    if fv.verdict != CONVERGED:
        return FatouValue(-fv.value, 0, float("inf"), ESCAPED)
    return FatouValue(-fv.value, fv.iterations, fv.last_delta, CONVERGED)


def outgoing_1d_direct(g: Germ1D, alpha: complex, w, n: int,
                       log: BranchedLog = None):
    """Plain n-stage estimate g^n(w - n + alpha log(w - n)).

    Converges like 1/n, so it is only useful as an independent check
    against `outgoing_1d`; the two limits agree up to a w-independent
    constant fixed by the log branches.
    """
    log = log or BranchedLog(np.pi)
    x = complex(w) - n
    if alpha != 0:
        x = x + alpha * log(x)
    for _ in range(n):
        x = g(x)
    return x


# --------------------------------------------------------- finite stages


def _as_step(G):
    return G.evaluate if isinstance(G, SkewGerm2D) else G


def dual_step(G: SkewGerm2D):
    """Pointwise evaluation of the sign-reversed inverse skew product."""
    return lambda p: eta_point(G.local_inverse(eta_point(p)))


def incoming_2d_finite(G, p: Point2, n: int) -> Point2:
    step = _as_step(G)
    q = p
    for _ in range(n):
        q = step(q)
    return Point2(q.z - n, q.w - n, q.chart)


def outgoing_2d_finite(G, p: Point2, n: int) -> Point2:
    step = _as_step(G)
    q = Point2(p.z - n, p.w - n, p.chart)
    for _ in range(n):
        q = step(q)
    return q


def psi_a_finite(G, p: Point2, n: int) -> Point2:
    step = _as_step(G)
    q = Point2(p.z - 2 * n, p.w, p.chart)
    for _ in range(n):
        q = step(q)
    return Point2(q.z + n, q.w - n, q.chart)


def psi_b_finite(G, p: Point2, n: int) -> Point2:
    step = _as_step(G)
    q = Point2(p.z + n, p.w - n, p.chart)
    for _ in range(n):
        q = step(q)
    return Point2(q.z - 2 * n, q.w, q.chart)


# ------------------------------------------------------------ two variables


def _require_special(G: SkewGerm2D) -> Germ1D:
    """Validate the translation-base skew form; return the fiber limit."""
    if G.chart != INFINITY:
        raise ChartMismatch("special-form engines run at infinity")
    if not _translation_jet(G.first.jet):
        raise WrongForm("first coordinate must be the exact unit translation")
    ginf = fiber_limit_map(G)
    if abs(ginf.jet.coeff(0) - 1) > 1e-9:
        raise WrongForm("fiber limit must translate by exactly 1")
    if abs(ginf.jet.coeff(1)) > 1e-9:
        raise WrongForm(
            "fiber carries a 1/v tail; conjugate by the log shear first")
    if G.jet2 is not None:
        params = solve_log_shear(G)
        if abs(params.alpha) > 1e-9:
            raise WrongForm(
                "fiber carries a 1/u tail; conjugate by the log shear first")
    return ginf


class _Escaped(Exception):
    def __init__(self, partial, steps):
        self.partial = partial
        self.steps = steps


def _check_point(x, cfg, center, partial, steps):
    if _outside_sector(x, cfg, center):
        raise _Escaped(partial, steps)


def _corrected_fiber_limit(fiber_step, u0, v0, cors: Corrections,
                           cfg: ConvergenceConfig, center: float):
    """lim phi_K(v_n) - n along v_{k+1} = fiber_step(u0 + k, v_k)."""
    log = BranchedLog(center)
    if _outside_sector(v0, cfg, center):
        return FatouValue(v0, 0, float("inf"), ESCAPED)
    prev = cors.phi(v0, log)
    v = v0
    delta = float("inf")
    streak = 0
    for n in range(1, cfg.n_max + 1):
        try:
            v = fiber_step(u0 + (n - 1), v)
        except (NonFiniteValue, NewtonDiverged):
            return FatouValue(prev, n, delta, ESCAPED)
        if _outside_sector(v, cfg, center):
            return FatouValue(prev, n, delta, ESCAPED)
        cur = cors.phi(v, log) - n
        delta = abs(cur - prev)
        prev = cur
        streak = streak + 1 if delta < cfg.tol else 0
        if streak >= 3:
            return FatouValue(cur, n, delta, CONVERGED)
    return FatouValue(prev, cfg.n_max, delta, MAX_ITER)


def incoming_2d_special(G: SkewGerm2D, p: Point2,
                        cfg: ConvergenceConfig = None) -> FatouValue:
    """Componentwise limit of the orbit minus the stage count.

    The first coordinate telescopes to the input exactly because the
    base is the unit translation; only the fiber is iterated, with the
    corrections of the fiber's limit germ.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.chart != G.chart:
        raise ChartMismatch("point and germ chart differ")
    if _translation_jet(G.first.jet) and _fiber_translation(G):
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    ginf = _require_special(G)
    cors = abel_corrections(ginf.jet, ginf.jet.coeff(1))
    fv = _corrected_fiber_limit(G.fiber, p.z, p.w, cors, cfg, 0.0)
    return FatouValue((p.z, fv.value), fv.iterations, fv.last_delta,
                      fv.verdict)


def outgoing_2d_special(G: SkewGerm2D, p: Point2,
                        cfg: ConvergenceConfig = None) -> FatouValue:
    """Outgoing limit via the sign involution of the dual incoming map.

    The dual skew product has fiber steps -g^{-1}_{-t-1}(-y); its
    incoming coordinate is inverted in the fiber by Newton, and the two
    sign involutions around it give the outgoing coordinate of G, which
    then satisfies the forward diagram by construction.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.chart != G.chart:
        raise ChartMismatch("point and germ chart differ")
    if _translation_jet(G.first.jet) and _fiber_translation(G):
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    ginf = _require_special(G)
    dual_jet = infinity_inverse1(ginf.jet)
    cors = abel_corrections(dual_jet, dual_jet.coeff(1))

    def h_fiber(t, y):
        return -G.fiber_inverse(-t - 1, -y, complex(-y - 1))

    fv = _invert_limit(
        lambda y: _corrected_fiber_limit(h_fiber, -p.z, y, cors, cfg, 0.0),
        cors, -p.w)
    return FatouValue((p.z, -fv.value), fv.iterations, fv.last_delta,
                      fv.verdict)


def _checkpoint_limit(stage_value, cfg: ConvergenceConfig, fallback,
                      start_n: int = 8) -> FatouValue:
    """Limit of a non-nesting stage sequence, probed at doubling blocks.

    Each block recomputes four consecutive stages from scratch and
    applies the three-difference rule to them; the stage index doubles
    until the budget runs out.  Recomposition costs about eight times
    the final stage in total.
    """
    n = start_n
    best = fallback
    delta = float("inf")
    reached = 0
    while n + 3 <= max(cfg.n_max, start_n + 3):
        try:
            vals = [stage_value(m) for m in (n, n + 1, n + 2, n + 3)]
        except _Escaped as esc:
            return FatouValue(esc.partial, esc.steps, delta, ESCAPED)
        diffs = [abs(vals[i + 1] - vals[i]) for i in range(3)]
        if max(diffs) < cfg.tol:
            return FatouValue(vals[3], n + 3, diffs[2], CONVERGED)
        best = vals[3]
        delta = diffs[2]
        reached = n + 3
        n *= 2
    return FatouValue(best, reached, delta, MAX_ITER)


def psi_a(G: SkewGerm2D, p: Point2,
          cfg: ConvergenceConfig = None) -> FatouValue:
    """Mixed limit sweeping the base from depth -2n back to -n.

    Stage n applies the fiber maps at base points u-2n, ..., u-n-1 to v
    and recenters by n; the first coordinate telescopes to u exactly.
    Stages do not nest, so convergence is checked on doubling blocks.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.chart != G.chart:
        raise ChartMismatch("point and germ chart differ")
    if _translation_jet(G.first.jet) and _fiber_translation(G):
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    ginf = _require_special(G)
    cors = abel_corrections(ginf.jet, ginf.jet.coeff(1))
    log = BranchedLog(0.0)
    u0, v0 = p.z, p.w
    if _outside_sector(v0, cfg, 0.0):
        return FatouValue((u0, v0), 0, float("inf"), ESCAPED)

    def stage(n):
        w = v0
        for k in range(n):
            w = G.fiber(u0 - 2 * n + k, w)
            _check_point(w, cfg, 0.0, (u0, w), k + 1)
        return cors.phi(w, log) - n

    fv = _checkpoint_limit(stage, cfg, (u0, v0))
    value = fv.value if fv.verdict == ESCAPED else (u0, fv.value)
    return FatouValue(value, fv.iterations, fv.last_delta, fv.verdict)


def psi_b(G: SkewGerm2D, p: Point2,
          cfg: ConvergenceConfig = None) -> FatouValue:
    """Mixed limit with the unraveled fiber chain at base depth +n.

    Stage n is g_{u+2n-1} o ... o g_{u+n} applied to v - n; the first
    coordinate passes through unchanged.  No asymptotic correction
    applies (the chain ends at bounded arguments), so the practical
    floor for tol is set by recomposition noise, about n^2 ulps.
    """
    cfg = cfg or DEFAULT_CONFIG
    if p.chart != G.chart:
        raise ChartMismatch("point and germ chart differ")
    if _translation_jet(G.first.jet) and _fiber_translation(G):
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    _require_special(G)
    u0, v0 = p.z, p.w
    if _outside_sector(v0, cfg, np.pi):
        return FatouValue((u0, v0), 0, float("inf"), ESCAPED)

    def stage(n):
        w = v0 - n
        for k in range(n):
            w = G.fiber(u0 + n + k, w)
            _check_point(w, cfg, np.pi, (u0, w), k + 1)
        return w

    fv = _checkpoint_limit(stage, cfg, (u0, v0))
    value = fv.value if fv.verdict == ESCAPED else (u0, fv.value)
    return FatouValue(value, fv.iterations, fv.last_delta, fv.verdict)


# -------------------------------------------------------- general pipeline


_BRANCH_CENTERS = {
    "i": (0.0, 0.0),
    "o": (np.pi, np.pi),
    "a": (np.pi, 0.0),
    "b": (0.0, np.pi),
}


class _PsiCoordinate:
    """Straightens the base germ to the unit translation on one sector.

    forward maps the straightened model coordinate into the germ's
    coordinate; backward is the corresponding one-variable coordinate
    itself.  side=+1 builds the forward-orbit version on the right
    sector, side=-1 the dual version on the left sector.
    """

    __slots__ = ("rho", "alpha", "cfg", "side", "trivial", "_dual")

    def __init__(self, rho: Germ1D, alpha: complex,
                 cfg: ConvergenceConfig, side: int):
        self.rho = rho
        self.alpha = complex(alpha)
        self.cfg = cfg
        self.side = side
        self.trivial = self.alpha == 0 and _translation_jet(rho.jet)
        self._dual = None if self.trivial else dual_germ_1d(rho)

    def backward(self, u):
        if self.trivial:
            return complex(u)
        if self.side > 0:
            fv = incoming_1d(self.rho, self.alpha, u, self.cfg)
        else:
            fv = incoming_1d(self._dual, -self.alpha, -u, self.cfg)
        if fv.verdict != CONVERGED:
            raise NewtonDiverged(
                f"base coordinate ended {fv.verdict}", last_value=u)
        return fv.value if self.side > 0 else -fv.value

    def forward(self, m):
        if self.trivial:
            return complex(m)
        if self.side > 0:
            return _invert_incoming(self.rho, self.alpha, m, self.cfg,
                                    BranchedLog(0.0))
        return -_invert_incoming(self._dual, -self.alpha, -m, self.cfg,
                                 BranchedLog(0.0))


@dataclass(frozen=True, eq=False)
class GeneralConjugacy:
    """Everything a general skew product needs to evaluate coordinates.

    The pipeline normalizes, raises the order, moves to infinity, and
    straightens the base on each side; theta holds the log-shear
    parameters read from the fiber's weight-one tail, shared by all four
    regions, and theta_steps[tag] is that shear on the region's log
    branches.  chains[tag] maps that region's model
    coordinates into the infinity chart of the transported germ, and
    origin_chain continues back to the original input coordinates.
    """

    M: int
    psi1: _PsiCoordinate
    psi2: _PsiCoordinate
    theta: LogShearParams
    regions: dict
    chains: dict
    germ: SkewGerm2D
    origin_chain: ConjugacyChain
    radius: float
    alpha_rho: complex
    theta_steps: dict = field(repr=False, default=None)
    trivial: bool = False


def build_general_pipeline(F: SkewGerm2D, M: int = DEFAULT_M,
                           cfg: ConvergenceConfig = None) -> GeneralConjugacy:
    """Assemble the conjugating data for a germ given in the origin chart."""
    cfg = cfg or DEFAULT_CONFIG
    F1, ch_norm = normalize_quadratic(F)
    F2, ch_raise = raise_order(F1, M)
    G = to_infinity(F2)
    origin_chain = compose_chains(
        ConjugacyChain((Inversion(),)), compose_chains(ch_raise, ch_norm))
    rho = G.first
    alpha_rho = extract_alpha(rho)
    params = solve_log_shear(G)
    radius = float(choose_radius(G))
    run_cfg = replace(cfg, radius=radius)
    regions = make_regions(radius, chart=INFINITY, power_cap=M + 1)
    psi1 = _PsiCoordinate(rho, alpha_rho, run_cfg, +1)
    psi2 = _PsiCoordinate(rho, alpha_rho, run_cfg, -1)

    theta_steps = {}
    chains = {}
    for tag, (cu, cv) in _BRANCH_CENTERS.items():
        step = LogShear(params.alpha, params.beta,
                        BranchedLog(cu), BranchedLog(cv))
        theta_steps[tag] = step
        psi = psi1 if tag in ("i", "b") else psi2
        name = "psi1" if psi is psi1 else "psi2"
        chains[tag] = ConjugacyChain(
            (step, CallableStep(psi.forward, psi.backward, "z", name)))

    trivial = (psi1.trivial and params.alpha == 0 and params.beta == 0
               and _fiber_translation(G))
    return GeneralConjugacy(
        M=M, psi1=psi1, psi2=psi2,
        theta=params,
        regions=regions, chains=chains, germ=G, origin_chain=origin_chain,
        radius=radius, alpha_rho=alpha_rho, theta_steps=theta_steps,
        trivial=trivial)


def _general_incoming(pipe: GeneralConjugacy, p: Point2,
                      cfg: ConvergenceConfig) -> FatouValue:
    G = pipe.germ
    theta = pipe.theta_steps["i"]
    try:
        phi1 = pipe.psi1.backward(p.z)
        prev = theta.inverse(Point2(phi1, p.w, INFINITY)).w
    except NewtonDiverged:
        return FatouValue((p.z, p.w), 0, float("inf"), ESCAPED)
    q = p
    delta = float("inf")
    streak = 0
    for n in range(1, cfg.n_max + 1):
        try:
            q = G.evaluate(q)
        except NonFiniteValue:
            return FatouValue((phi1, prev), n, delta, ESCAPED)
        if (_outside_sector(q.z, cfg, 0.0)
                or _outside_sector(q.w, cfg, 0.0)):
            return FatouValue((phi1, prev), n, delta, ESCAPED)
        try:
            vhat = theta.inverse(Point2(phi1 + n, q.w, INFINITY)).w
        except NewtonDiverged:
            return FatouValue((phi1, prev), n, delta, ESCAPED)
        cur = vhat - n
        delta = abs(cur - prev)
        prev = cur
        streak = streak + 1 if delta < cfg.tol else 0
        if streak >= 3:
            return FatouValue((phi1, cur), n, delta, CONVERGED)
    return FatouValue((phi1, prev), cfg.n_max, delta, MAX_ITER)


def _general_outgoing(pipe: GeneralConjugacy, p: Point2,
                      cfg: ConvergenceConfig) -> FatouValue:
    G = pipe.germ
    theta = pipe.theta_steps["o"]
    try:
        phi1 = pipe.psi2.forward(p.z)
    except NewtonDiverged:
        return FatouValue((p.z, p.w), 0, float("inf"), ESCAPED)

    def stage(n):
        b = pipe.psi2.forward(p.z - n)
        w = theta.forward(Point2(p.z - n, p.w - n, INFINITY)).w
        q = Point2(b, w, INFINITY)
        for k in range(n):
            q = G.evaluate(q)
            if (_outside_sector(q.z, cfg, np.pi)
                    or _outside_sector(q.w, cfg, np.pi)):
                raise _Escaped((q.z, q.w), k + 1)
        return q.w

    try:
        fv = _checkpoint_limit(stage, cfg, (p.z, p.w))
    except NewtonDiverged:
        return FatouValue((phi1, p.w), 0, float("inf"), ESCAPED)
    value = fv.value if fv.verdict == ESCAPED else (phi1, fv.value)
    return FatouValue(value, fv.iterations, fv.last_delta, fv.verdict)


def _general_mixed(pipe: GeneralConjugacy, tag: str, p: Point2,
                   cfg: ConvergenceConfig) -> FatouValue:
    G = pipe.germ
    theta = pipe.theta_steps[tag]
    cu, cv = _BRANCH_CENTERS[tag]
    if tag == "a":
        psi = pipe.psi2

        def stage(n):
            m0 = p.z - 2 * n
            b = psi.forward(m0)
            w = theta.forward(Point2(m0, p.w, INFINITY)).w
            q = Point2(b, w, INFINITY)
            for k in range(n):
                q = G.evaluate(q)
                if (_outside_sector(q.z, cfg, cu)
                        or _outside_sector(q.w, cfg, cv)):
                    raise _Escaped((q.z, q.w), k + 1)
            vhat = theta.inverse(Point2(p.z - n, q.w, INFINITY)).w
            return vhat - n
    else:
        psi = pipe.psi1

        def stage(n):
            m0 = p.z + n
            b = psi.forward(m0)
            w = theta.forward(Point2(m0, p.w - n, INFINITY)).w
            q = Point2(b, w, INFINITY)
            for k in range(n):
                q = G.evaluate(q)
                if (_outside_sector(q.z, cfg, cu)
                        or _outside_sector(q.w, cfg, cv)):
                    raise _Escaped((q.z, q.w), k + 1)
            return theta.inverse(Point2(p.z + 2 * n, q.w, INFINITY)).w

    try:
        fv = _checkpoint_limit(stage, cfg, (p.z, p.w))
    except NewtonDiverged:
        return FatouValue((p.z, p.w), 0, float("inf"), ESCAPED)
    value = fv.value if fv.verdict == ESCAPED else (p.z, fv.value)
    return FatouValue(value, fv.iterations, fv.last_delta, fv.verdict)


def conjugated_fiber_limit(pipe, tag):
    """Pointwise limit of the sheared fiber maps, as a closed form.

    In the sheared model coordinates the fiber maps over base t converge,
    at fixed y, to ``L^{-1} o m o L`` with ``L(y) = y + beta*log(y)``: the
    shear's own v-log absorbs the matching log in the orbit sums, so only
    the conjugation by L survives.  Without a base-log part (alpha == 0)
    the middle map m is the full fiber limit.  A nonzero alpha pushes the
    inner argument to infinity with t, every tail of the fiber limit dies,
    and m degenerates to the unit translation; that limit is approached at
    1/log(t) speed only, so matched residuals stay coarse no matter how
    small the stopping tolerance is.

    The a/b conjugacy diagrams of ``general_fatou`` translate by this map.
    It uses the v-branch of the shear attached to ``tag``; feed it values
    on the side of the plane the tag lives on.
    """
    alpha = pipe.theta.alpha
    beta = pipe.theta.beta
    if alpha == 0:
        ginf = fiber_limit_map(pipe.germ)
        inner = lambda big: ginf(big)
    else:
        inner = lambda big: big + 1
    if beta == 0:
        return lambda y: inner(complex(y))
    log_v = pipe.theta_steps[tag].log_v

    def gmod(y):
        big = complex(y) + beta * log_v(complex(y))
        return invert_log_shift(inner(big), beta, log_v, complex(y) + 1.0)

    return gmod


def general_fatou(pipe: GeneralConjugacy, tag: str, p: Point2,
                  cfg: ConvergenceConfig = None) -> FatouValue:
    """Evaluate the region's coordinate for the assembled pipeline.

    The first coordinate is never iterated: it telescopes through the
    straightened base exactly, which is what keeps long orbits from
    accumulating base error.  ChainDomainError propagates when an orbit
    drags a log argument across its pinned branch.
    """
    if tag not in _BRANCH_CENTERS:
        raise ValueError(f"unknown region tag {tag!r}")
    if p.chart != INFINITY:
        raise ChartMismatch("general coordinates are evaluated at infinity")
    cfg = replace(cfg or DEFAULT_CONFIG, radius=pipe.radius)
    if pipe.trivial:
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    if tag == "i":
        return _general_incoming(pipe, p, cfg)
    if tag == "o":
        return _general_outgoing(pipe, p, cfg)
    return _general_mixed(pipe, tag, p, cfg)
