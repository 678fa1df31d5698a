"""Iteration limits that realize the conjugating coordinates numerically.

Every quantity this module computes is the limit of an explicit sequence
built from orbits: corrected partial sums along forward orbits for the
incoming coordinates, and freshly recomposed finite-stage chains for the
outgoing and the two mixed ones, whose defining sequences do not nest.
The one-variable outgoing coordinate inverts the dual germ's incoming
limit instead.  Every inversion, of a germ, a fiber map, a log shear or
a limit, runs the one solver `germs.newton`.

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

When the transported germ already has the special form (exact unit
translation base, no log shear, fiber limit v + 1 + O(1/v^2)), the
general pipeline runs the special engines' corrected limits,
`_special_fatou`: tag i's nested limit, and one stage method for tags
o, a and b, `_special_stages`.  Both read each end of a stage that lies
out at infinity in the fiber in the fiber limit's corrected coordinate,
so they converge in a few steps, where the uncorrected recomposed stages
stop about 1/n short of the limit.  With Phi the fiber limit's phi_K,
tags o and b start stage n at Phi^-1(v - n) and tag a ends it at
Phi(w) - n, where `_STAGES` places their nonzero fiber offsets.  The
pipeline decides the form once, when it is built, by the test the public
special engines run, and the limits check every base point of an orbit
in its sector, as the recomposed stages do.
Log-sheared pipelines, or ones whose base needs straightening, recompose
every stage anew.

Each engine decision is written once.  `_STAGES` holds each region's
stage formula, the pair of translations around F^n; the finite stages,
the special stages and the general pipeline all read it, and the
sector centers come from `regions.TAG_SIGNS`.  `_nested_limit` holds the
stopping rule of every limit along one forward orbit (the incoming
coordinates, whose one-variable inverse is the outgoing one);
`_checkpoint_limit` holds it for the recomposed stages.
`_incoming_inverse` is the one inverse of the incoming coordinate, behind
psi's forward map, `outgoing_1d` and `verify.duality_check`.
`_outside_sector` is the one sector test: it builds a center's predicate,
which a limit builds once and calls at every step, on a number or on a
numpy array of them.  `_orbit` and `_fiber_orbit` walk a recomposed stage
with it and raise `_Escaped` where an iterate leaves its sector; the
general tag-i limit, whose every step is one stage, steps the germ itself
in blocks of iterates (`_block_stages`), tests each block with the same
predicates in one array call per coordinate, and solves the block's
stages in one array call of the shear's inverse.  `_special_form` is the
one test of the special form, for the public special engines and for the
pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ChainDomainError,
    ChartMismatch,
    NewtonDiverged,
    NonFiniteValue,
    WrongForm,
)
from .germs import (
    Germ1D,
    Point2,
    SkewGerm2D,
    _is_exact_translation,
    fiber_limit_map,
    newton,
    to_infinity,
)
from .normal_form import (
    BranchedLog,
    ConjugacyChain,
    Inversion,
    LogShear,
    LogShearParams,
    angle_past,
    compose_chains,
    extract_alpha,
    invert_log_shift,
    normalize_quadratic,
    raise_order,
    rotation,
    solve_log_shear,
    turned,
    DEFAULT_M,
)
from .regions import (
    DEFAULT_OPENING,
    TAG_SIGNS,
    choose_radius,
    direction_center,
    make_regions,
)
from .series import INFINITY, TruncatedSeries1, infinity_inverse1

CONVERGED = "converged"
MAX_ITER = "max_iter"
ESCAPED = "escaped"

_DIVERGENCE_GUARD = 1e15

# Stage n of region t's coordinate is T_end^n o F^n o T_start^n in model
# coordinates, T^n translating by n times the (base, fiber) offsets below:
# (start, end) per tag.  Only this pair depends on the tag.  A zero start
# begins in the germ's coordinates (the incoming coordinate maps germ
# points to the model) and a zero end stays in them (the outgoing one maps
# back); either way the base telescopes to start + n in the model.
_STAGES = {
    "i": ((0, 0), (-1, -1)),
    "o": ((-1, -1), (0, 0)),
    "a": ((-2, 0), (1, -1)),
    "b": ((1, -1), (-2, 0)),
}


@dataclass(frozen=True)
class ConvergenceConfig:
    """Stopping and safety parameters shared by every engine.

    tol is the successive-difference threshold; an engine reports
    convergence only after three consecutive differences fall below it
    (`_nested_limit` and `_checkpoint_limit` apply that rule).  radius
    is the sector scale of the domain the orbit must stay in: an iterate
    whose modulus drops below radius/2, grows beyond 1e15, or leaves
    the 3pi/4 half-opening counts as an escape, not a failure.
    """

    tol: float = 1e-10
    n_max: int = 10 ** 6
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


def _outside_sector(cfg: ConvergenceConfig, center: float):
    """The sector test of center: a predicate, true where a number leaves
    the sector by radius (below cfg.radius/2), divergence or angle.

    The turn and the radius bound are computed once here, so a limit builds
    its tests once and calls them at every step.  On a numpy array the
    predicate gives each element's scalar verdict as a boolean array: the
    modulus is the scalar's hypot, the turn `turned` and the angle test
    `angle_past`.
    """
    turn = rotation(center)
    inner = 0.5 * cfg.radius

    def outside(x) -> bool:
        if type(x) is np.ndarray:
            with np.errstate(invalid="ignore"):
                ax = np.hypot(x.real, x.imag)
                out = ((ax < inner) | (ax > _DIVERGENCE_GUARD)
                       | ~np.isfinite(ax))
                return out | angle_past(turned(x, turn), DEFAULT_OPENING)
        ax = abs(x)
        if not math.isfinite(ax) or ax < inner or ax > _DIVERGENCE_GUARD:
            return True
        return abs(cmath.phase(x * turn)) > DEFAULT_OPENING

    return outside


def _centers(tag: str) -> tuple[float, float]:
    """Sector centers of a region's base and fiber."""
    su, sv = TAG_SIGNS[tag]
    return direction_center(su), direction_center(sv)


def _moved(x, d: int):
    """x + d as x + d, x - |d| or x, which keep x's signed zeros."""
    if d > 0:
        return x + d
    if d < 0:
        return x - (-d)
    return x


def _translation_jet(jet: TruncatedSeries1) -> bool:
    if jet.chart != INFINITY or jet.coeff(0) != 1:
        return False
    return all(jet.coeff(k) == 0 for k in range(1, jet.order + 1))


def eta_point(p: Point2) -> Point2:
    """The sign involution (u, v) -> (-u, -v)."""
    return Point2(-p.z, -p.w, p.chart)


# ------------------------------------------------------------ limit drivers


class _Escaped(Exception):
    """An orbit left its sector: the iterate that left, after `steps`."""

    def __init__(self, partial, steps):
        self.partial = partial
        self.steps = steps


def _nested_limit(estimate, first, cfg: ConvergenceConfig) -> FatouValue:
    """Limit of the nested sequence first, estimate(1), estimate(2), ...

    The one stopping rule of the orbit limits: converged once three
    consecutive differences fall below cfg.tol.  An estimate that raises
    _Escaped, NonFiniteValue or NewtonDiverged ends the limit as escaped
    at that step, holding the previous estimate; ChainDomainError
    propagates.
    """
    prev = first
    delta = float("inf")
    streak = 0
    for n in range(1, cfg.n_max + 1):
        try:
            cur = estimate(n)
        except (_Escaped, NonFiniteValue, NewtonDiverged):
            return FatouValue(prev, n, delta, ESCAPED)
        delta = abs(cur - prev)
        prev = cur
        streak = streak + 1 if delta < cfg.tol else 0
        if streak >= 3:
            return FatouValue(cur, n, delta, CONVERGED)
    return FatouValue(prev, cfg.n_max, delta, MAX_ITER)


def _corrected_fiber_limit(fiber_step, u0, v0, cors: Corrections,
                           cfg: ConvergenceConfig, log: BranchedLog,
                           base_center: float | None = None):
    """lim phi_K(v_n) - n along v_{k+1} = fiber_step(u0 + k, v_k).

    Each v_n is checked in the sector of log.center; with base_center, each
    base point u0 + n is checked in that sector too, from n = 0.
    """
    outside_v = _outside_sector(cfg, log.center)
    outside_u = (_outside_sector(cfg, base_center)
                 if base_center is not None else None)

    def outside(u, v):
        return outside_v(v) or (outside_u is not None and outside_u(u))

    if outside(u0, v0):
        return FatouValue(v0, 0, float("inf"), ESCAPED)
    v = v0

    def estimate(n):
        nonlocal v
        v = fiber_step(u0 + (n - 1), v)
        if outside(u0 + n, v):
            raise _Escaped(v, n)
        return cors.phi(v, log) - n

    return _nested_limit(estimate, cors.phi(v0, log), cfg)


def _checkpoint_limit(stage_value, cfg: ConvergenceConfig) -> FatouValue:
    """Limit of a non-nesting stage sequence, probed at doubling blocks.

    Each block recomputes four consecutive stages from scratch and
    applies the three-difference rule to them; the stage index doubles
    from 8 until the budget runs out.  Recomposition costs about eight
    times the final stage in total.  No block passes cfg.n_max: below 11
    the first block starts at n_max - 3 (at 1 when that is smaller) and
    ends at n_max.  A stage that raises _Escaped ends the limit as
    escaped with the iterate that left.
    """
    n = min(8, max(1, cfg.n_max - 3))
    delta = float("inf")
    while True:
        stages = range(n, min(n + 3, cfg.n_max) + 1)
        try:
            vals = [stage_value(m) for m in stages]
        except _Escaped as esc:
            return FatouValue(esc.partial, esc.steps, delta, ESCAPED)
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        delta = diffs[-1] if diffs else delta
        if len(diffs) == 3 and max(diffs) < cfg.tol:
            return FatouValue(vals[-1], stages[-1], delta, CONVERGED)
        if 2 * n + 3 > cfg.n_max:
            return FatouValue(vals[-1], stages[-1], delta, MAX_ITER)
        n *= 2


def _orbit(G: SkewGerm2D, q: Point2, n: int, cfg: ConvergenceConfig,
           cu: float, cv: float) -> Point2:
    """n steps of G from q, each coordinate checked in its sector."""
    outside_u, outside_v = _outside_sector(cfg, cu), _outside_sector(cfg, cv)
    for k in range(n):
        q = G.evaluate(q)
        if outside_u(q.z) or outside_v(q.w):
            raise _Escaped((q.z, q.w), k + 1)
    return q


def _fiber_orbit(G: SkewGerm2D, t0, w, n: int, cfg: ConvergenceConfig,
                 center: float, base_center: float):
    """n fiber steps from w over the base points t0, t0 + 1, ...

    Each fiber iterate is checked in the sector of center, and each base
    point reached, t0 + 1, ..., t0 + n, in the sector of base_center; the
    walk stops at the first step where either leaves.
    """
    outside_v = _outside_sector(cfg, center)
    outside_u = _outside_sector(cfg, base_center)
    for k in range(1, n + 1):
        w = G.fiber(t0 + (k - 1), w)
        if outside_v(w) or outside_u(t0 + k):
            raise _Escaped(w, k)
    return w


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
    if _outside_sector(cfg, log.center)(w):
        return FatouValue(w, 0, float("inf"), ESCAPED)
    if alpha == 0 and _translation_jet(g.jet) and g(w) - w == 1:
        return FatouValue(w, 1, 0.0, CONVERGED)
    return _corrected_fiber_limit(lambda t, x: g(x), 0, w,
                                  abel_corrections(g.jet, alpha), cfg, log)


def incoming_1d_trace(g: Germ1D, alpha: complex, w, n_steps: int,
                      cfg: ConvergenceConfig = None,
                      log: BranchedLog = None) -> list:
    """First n_steps estimates of the incoming limit, for decay studies.

    The estimates are the uncorrected log-adjusted iterates, whose
    successive differences exhibit the germ's own decay exponent rather
    than the accelerated one.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("incoming coordinate lives at infinity")
    cfg = cfg or DEFAULT_CONFIG
    log = log or BranchedLog(0.0)
    cors = Corrections(complex(alpha), ())
    outside = _outside_sector(cfg, log.center)
    x = complex(w)
    out = [cors.phi(x, log)]
    for n in range(1, n_steps + 1):
        x = g(x)
        if outside(x):
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


def _incoming_inverse(g: Germ1D, alpha: complex, m, cfg: ConvergenceConfig,
                      log: BranchedLog = None) -> FatouValue:
    """The w with incoming_1d(g, alpha, w) = m, by `_invert_limit`."""
    log = log or BranchedLog(0.0)
    return _invert_limit(lambda x: incoming_1d(g, alpha, x, cfg, log),
                         abel_corrections(g.jet, alpha), m)


def outgoing_1d(g: Germ1D, alpha: complex, w,
                cfg: ConvergenceConfig = None) -> FatouValue:
    """Outgoing coordinate, evaluated through the sign-reversed inverse.

    The returned map satisfies g(out(w)) = out(w+1) by construction: it
    is the conjugate, by the sign involution, of the inverse of the
    incoming coordinate of the dual germ.  It differs from the direct
    limit definition by an additive branch constant; see
    `outgoing_1d_direct` for the uncorrected comparison object.  An
    unconverged inversion keeps the inner limit's iterations, last_delta
    and verdict.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("outgoing coordinate lives at infinity")
    cfg = cfg or DEFAULT_CONFIG
    w = complex(w)
    if alpha == 0 and _translation_jet(g.jet) and g(w) - w == 1:
        return FatouValue(w, 1, 0.0, CONVERGED)
    fv = _incoming_inverse(dual_germ_1d(g), -alpha, -w, cfg)
    return FatouValue(-fv.value, fv.iterations, fv.last_delta, fv.verdict)


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


def dual_step(G: SkewGerm2D):
    """Pointwise evaluation of the sign-reversed inverse skew product."""
    return lambda p: eta_point(G.local_inverse(eta_point(p)))


def _finite_stage(G, p: Point2, n: int, tag: str) -> Point2:
    """Stage n of the tag's coordinate; G may be any step, as `dual_step`."""
    (su, sv), (eu, ev) = _STAGES[tag]
    q = Point2(_moved(p.z, su * n), _moved(p.w, sv * n), p.chart)
    for _ in range(n):
        q = G(q)
    return Point2(_moved(q.z, eu * n), _moved(q.w, ev * n), q.chart)


def incoming_2d_finite(G, p: Point2, n: int) -> Point2:
    return _finite_stage(G, p, n, "i")


def outgoing_2d_finite(G, p: Point2, n: int) -> Point2:
    return _finite_stage(G, p, n, "o")


def psi_a_finite(G, p: Point2, n: int) -> Point2:
    return _finite_stage(G, p, n, "a")


def psi_b_finite(G, p: Point2, n: int) -> Point2:
    return _finite_stage(G, p, n, "b")


# ------------------------------------------------------------ two variables


def _special_form(G: SkewGerm2D) -> Germ1D | None:
    """The one test of the special form; returns G's fiber limit.

    The special form is an exact unit translation base, no log shear
    (alpha = beta = 0) and a fiber limit v + 1 + O(1/v^2); on it every
    region's coordinate is a limit of the fiber alone.  None means G is the
    unit translation in both coordinates, on which every coordinate is the
    identity.  Raises WrongForm otherwise, and ChartMismatch off the
    infinity chart.  The tests run cheapest first.
    """
    if G.chart != INFINITY:
        raise ChartMismatch("special-form engines run at infinity")
    if not _translation_jet(G.first.jet):
        raise WrongForm("first coordinate must be the exact unit translation")
    if _is_exact_translation(G.fiber_expr, "w"):
        return None
    params = solve_log_shear(G)
    if params.alpha != 0 or params.beta != 0:
        raise WrongForm("fiber carries a log shear; conjugate by it first")
    ginf = fiber_limit_map(G)
    if abs(ginf.jet.coeff(0) - 1) > 1e-9:
        raise WrongForm("fiber limit must translate by exactly 1")
    if abs(ginf.jet.coeff(1)) > 1e-9:
        raise WrongForm(
            "fiber carries a 1/v tail; conjugate by the log shear first")
    return ginf


def _special_fatou(G: SkewGerm2D, ginf: Germ1D, tag: str, p: Point2,
                   cfg: ConvergenceConfig) -> FatouValue:
    """Region tag's coordinate of a special-form G with fiber limit ginf.

    The corrected limits behind the special engines and, for pipelines of
    that form, `general_fatou`: tag i's nested limit along the forward
    orbit, and `_special_stages` for tags o, a and b.  The base is the
    unit translation, so u telescopes exactly and only the fiber is
    iterated; every base point of an orbit is checked in the region's base
    sector, as the general pipeline's orbit walks check it.
    """
    if tag == "i":
        cu, cv = _centers(tag)
        cors = abel_corrections(ginf.jet, ginf.jet.coeff(1))
        fv = _corrected_fiber_limit(G.fiber, p.z, p.w, cors, cfg,
                                    BranchedLog(cv), cu)
    else:
        fv = _special_stages(G, ginf, p, cfg, tag)
    return FatouValue((p.z, fv.value), fv.iterations, fv.last_delta,
                      fv.verdict)


def _special_stages(G: SkewGerm2D, ginf: Germ1D, p: Point2,
                    cfg: ConvergenceConfig, tag: str) -> FatouValue:
    """Recomposed fiber stages of tags o, a and b, corrected at their ends.

    Stage n runs only the fiber.  Its ends that lie out at infinity in the
    fiber, those with a nonzero fiber offset in `_STAGES`, are read in the
    fiber limit's corrected coordinate Phi = cors.phi: a nonzero start
    offset (o, b) begins the fiber at Phi^-1(v + offset n), a nonzero end
    offset (a) ends it at Phi(w) + offset n, and a zero one (o) ends at the
    fiber iterate itself.  Where the fiber maps equal their limit,
    stage n then differs from the limit only by Phi's truncation error far
    out in the fiber, so the stages converge in a few doublings instead of
    like 1/n.  A start that Newton cannot invert ends the limit as escaped
    with v + offset n, at 0 steps: the same shape as a start outside its
    sector, though it can happen at any stage.
    """
    (su, sv), (_, ev) = _STAGES[tag]
    cu, cv = _centers(tag)
    cors = abel_corrections(ginf.jet, ginf.jet.coeff(1))
    log = BranchedLog(cv)
    u0, v0 = p.z, p.w
    if _outside_sector(cfg, cv)(v0):
        return FatouValue(v0, 0, float("inf"), ESCAPED)

    def phi(x):
        return cors.phi(x, log)

    def start(n):
        x = _moved(v0, sv * n)
        if not sv:
            return x
        try:
            return newton(phi, cors.dphi, x, x, 1e-12 * max(1.0, abs(x)))
        except NewtonDiverged:
            raise _Escaped(x, 0) from None

    def stage(n):
        w = _fiber_orbit(G, _moved(u0, su * n), start(n), n, cfg, cv, cu)
        return _moved(phi(w), ev * n) if ev else w

    return _checkpoint_limit(stage, cfg)


def _checked_special(G: SkewGerm2D, p: Point2, cfg: ConvergenceConfig,
                     tag: str) -> FatouValue:
    """A special engine: test G's form, then take the tag's limit."""
    if p.chart != G.chart:
        raise ChartMismatch("point and germ chart differ")
    ginf = _special_form(G)
    if ginf is None:
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    return _special_fatou(G, ginf, tag, p, cfg or DEFAULT_CONFIG)


def incoming_2d_special(G: SkewGerm2D, p: Point2,
                        cfg: ConvergenceConfig = None) -> FatouValue:
    """Componentwise limit of the orbit minus the stage count.

    The first coordinate telescopes to the input exactly because the
    base is the unit translation; only the fiber is iterated, with the
    corrections of the fiber's limit germ.
    """
    return _checked_special(G, p, cfg, "i")


def outgoing_2d_special(G: SkewGerm2D, p: Point2,
                        cfg: ConvergenceConfig = None) -> FatouValue:
    """Limit of the fiber stages g_{u-1} o ... o g_{u-n} (Phi^-1(v - n)).

    Phi is the fiber limit's corrected coordinate, so the stages reach the
    limit in a few doublings of n, where the plain start v - n leaves each
    one about 1/n short; psi_b runs the same stages from base depth +n.
    """
    return _checked_special(G, p, cfg, "o")


def psi_a(G: SkewGerm2D, p: Point2,
          cfg: ConvergenceConfig = None) -> FatouValue:
    """Mixed limit sweeping the base from depth -2n back to -n.

    Stage n applies the fiber maps at base points u-2n, ..., u-n-1 to v
    and recenters by n, in the fiber limit's corrected coordinate.
    """
    return _checked_special(G, p, cfg, "a")


def psi_b(G: SkewGerm2D, p: Point2,
          cfg: ConvergenceConfig = None) -> FatouValue:
    """Mixed limit with the unraveled fiber chain at base depth +n.

    Stage n is g_{u+2n-1} o ... o g_{u+n} applied to Phi^-1(v - n), where
    Phi is the fiber limit's corrected coordinate: the plain start v - n
    leaves each stage about 1/n short of the limit, the corrected one
    reaches it in a few doublings of n.
    """
    return _checked_special(G, p, cfg, "b")


# -------------------------------------------------------- general pipeline


class _PsiCoordinate:
    """Straightens the base germ to the unit translation on one sector.

    backward is the one-variable incoming coordinate of the base germ
    (side=+1, right sector) or, conjugated by the sign involution, of its
    dual germ (side=-1, left sector); forward is its Newton inverse,
    mapping the straightened model coordinate into the germ's coordinate.
    """

    __slots__ = ("cfg", "side", "trivial", "_limit")

    def __init__(self, rho: Germ1D, alpha: complex,
                 cfg: ConvergenceConfig, side: int):
        alpha = complex(alpha)
        self.cfg = cfg
        self.side = side
        self.trivial = alpha == 0 and _translation_jet(rho.jet)
        self._limit = ((rho, alpha) if side > 0 or self.trivial
                       else (dual_germ_1d(rho), -alpha))

    def _signed(self, x):
        return x if self.side > 0 else -x

    def backward(self, u):
        if self.trivial:
            return complex(u)
        g, alpha = self._limit
        fv = incoming_1d(g, alpha, self._signed(u), self.cfg)
        if fv.verdict != CONVERGED:
            raise NewtonDiverged(
                f"base coordinate ended {fv.verdict}", last_value=u)
        return self._signed(fv.value)

    def forward(self, m):
        if self.trivial:
            return complex(m)
        fv = _incoming_inverse(*self._limit, self._signed(m), self.cfg)
        if fv.verdict != CONVERGED:
            raise NewtonDiverged(f"incoming inversion ended {fv.verdict}",
                                 last_value=fv.value)
        return self._signed(fv.value)


@dataclass(frozen=True, eq=False)
class GeneralConjugacy:
    """Everything a general skew product needs to evaluate coordinates.

    The pipeline normalizes, raises the order, moves to infinity, and
    straightens the base on each side; theta holds the log-shear
    parameters read from the fiber's weight-one tail, shared by all four
    regions.  shears[tag] is that shear on the region's log branches; with
    the region's psi (psi1 on the right, psi2 on the left) it maps the
    region's model coordinates into the infinity chart of the transported
    germ.  origin_chain continues back to the original input coordinates.

    fiber_limit is set when `_special_form` finds the transported germ in
    the special form: the base is the exact unit translation (psi1 is
    trivial), alpha = beta = 0 (no shear) and the fiber limit is
    v + 1 + O(1/v^2); trivial is set when it finds the exact unit
    translation in both coordinates.  On the special form every region's
    coordinate is a limit of the fiber alone, and `general_fatou` runs the
    special engines' corrected limits on it: tag i's nested limit and the
    one stage method of tags o, a and b.  Both subtract the fiber limit's
    jet-derived tail at whichever end of a stage lies out at infinity in
    the fiber, and so reach the limit in a few steps where the recomposed
    stages stop about 1/n short of it, as long as the fiber maps equal
    their limit there; a fiber that depends on the base keeps a 1/n bias.
    """

    M: int
    psi1: _PsiCoordinate
    psi2: _PsiCoordinate
    theta: LogShearParams
    regions: dict
    shears: dict
    germ: SkewGerm2D
    origin_chain: ConjugacyChain
    radius: float
    alpha_rho: complex
    trivial: bool = False
    fiber_limit: Germ1D | None = None


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

    shears = {tag: LogShear(params.alpha, params.beta,
                            *map(BranchedLog, _centers(tag)))
              for tag in _STAGES}
    try:
        fiber_limit = _special_form(G)
        trivial = fiber_limit is None
    except WrongForm:
        fiber_limit, trivial = None, False
    return GeneralConjugacy(
        M=M, psi1=psi1, psi2=psi2,
        theta=params,
        regions=regions, shears=shears, germ=G, origin_chain=origin_chain,
        radius=radius, alpha_rho=alpha_rho, trivial=trivial,
        fiber_limit=fiber_limit)


def _off_branch(log: BranchedLog, x) -> bool:
    try:
        log(x)
    except ChainDomainError:
        return True
    return False


def _stage_end(shear: LogShear, tag: str, z0, w, n: int):
    """Stage n's model fiber value from germ fiber w and model base z0."""
    (su, _), (_, ev) = _STAGES[tag]
    base = _moved(z0, (su + 1) * n)
    return _moved(shear.inverse(Point2(base, w, INFINITY)).w, ev * n)


# Tag i's general limit steps its orbit this many points ahead of the
# stages it has read, and solves their shears in one numpy call.
_STAGE_BLOCK = 256


def _block_stages(evaluate, inverse, outside_u, outside_v, q: Point2, phi1,
                  k: int, count: int):
    """Tag i's stage values k + 1, ..., k + count along the orbit of q.

    Stage n is inverse(phi1 + n, w_n).w - n, with w_n the fiber of the
    orbit's n-th point (q is its k-th).  The orbit is stepped by evaluate
    in blocks of up to _STAGE_BLOCK points, never past stage k + count; an
    evaluation that raises NonFiniteValue ends its block there.  Each block
    is tested against both sectors in one array call per coordinate, and
    the stages before its first point outside them are solved in one array
    call of inverse, each from its germ fiber.  The values are yielded one
    stage at a time, and each failure is raised at its own stage: _Escaped
    at the first point outside, the evaluation's error after the last stage
    before it.  When the array solve raises ChainDomainError,
    NewtonDiverged or NonFiniteValue, the block's stages are solved one at
    a time by the scalar path as they are read: a stage then fails at the
    step and in the way it fails when solved alone, and a failure past the
    limit's stop is never reached.
    """
    n, end = k, k + count
    while n < end:
        zs, ws, failure = [], [], None
        for _ in range(min(_STAGE_BLOCK, end - n)):
            try:
                q = evaluate(q)
            except NonFiniteValue as exc:
                failure = exc
                break
            zs.append(q.z)
            ws.append(q.w)
        w = np.array(ws, complex)
        left = np.flatnonzero(outside_u(np.array(zs, complex))
                              | outside_v(w))
        inside = int(left[0]) if left.size else len(ws)
        values = None
        if inside:
            ns = np.arange(n + 1, n + 1 + inside)
            try:
                roots = inverse(Point2(phi1 + ns, w[:inside], INFINITY)).w
                values = (roots - ns).tolist()
            except (ChainDomainError, NewtonDiverged, NonFiniteValue):
                pass
        for j in range(inside):
            n += 1
            if values is None:
                yield inverse(Point2(phi1 + n, ws[j], INFINITY)).w - n
            else:
                yield values[j]
        if inside < len(ws):
            raise _Escaped((zs[inside], ws[inside]), 1)
        if failure is not None:
            raise failure


def _general_incoming(pipe: GeneralConjugacy, p: Point2,
                      cfg: ConvergenceConfig) -> FatouValue:
    """The nested limit of tag i's stages along the forward orbit of p.

    phi(F^k p) = phi(p) + (k, k), so the limit may begin k steps down the
    orbit of p: while phi1 + k lies off the shear's base log branch, and
    while the first stage's shear solve leaves its fiber log branch from
    an orbit point inside both of tag i's sectors (up to cfg.n_max steps).
    A start outside its sectors whose solve leaves the branch raises
    ChainDomainError.

    The first stage is solved alone; the later ones come from
    `_block_stages`, which solves them by blocks along the orbit, each
    stage's shear from its germ fiber.  `_nested_limit` reads them one at
    a time, so the stopping rule, the verdicts and the iteration counts
    are those of solving each stage alone; the orbit runs at most
    _STAGE_BLOCK - 1 evaluations past the stop.
    """
    G = pipe.germ
    shear = pipe.shears["i"]
    cu, cv = _centers("i")
    outside_u, outside_v = _outside_sector(cfg, cu), _outside_sector(cfg, cv)
    q, k = p, 0
    try:
        phi1 = pipe.psi1.backward(p.z)
        while shear.alpha != 0 and _off_branch(shear.log_u, _moved(phi1, k)):
            q = _orbit(G, q, 1, cfg, cu, cv)
            k += 1
        while True:
            try:
                first = _stage_end(shear, "i", phi1, q.w, k)
                break
            except ChainDomainError:
                if k >= cfg.n_max or outside_u(q.z) or outside_v(q.w):
                    raise
            q = _orbit(G, q, 1, cfg, cu, cv)
            k += 1
    except NewtonDiverged:
        return FatouValue((p.z, p.w), 0, float("inf"), ESCAPED)
    except _Escaped:
        return FatouValue((p.z, p.w), k + 1, float("inf"), ESCAPED)

    # looked up once per limit call, not when the pipeline is built, so a
    # wrapper set on SkewGerm2D or LogShear still sees every call
    stages = _block_stages(G.evaluate, shear.inverse, outside_u, outside_v,
                           q, phi1, k, cfg.n_max)
    fv = _nested_limit(lambda m: next(stages), first, cfg)
    return FatouValue((phi1, fv.value), fv.iterations + k, fv.last_delta,
                      fv.verdict)


def _general_recomposed(pipe: GeneralConjugacy, tag: str, p: Point2,
                        cfg: ConvergenceConfig) -> FatouValue:
    """Tags o, a, b: each stage recomposed from scratch, from _STAGES."""
    G = pipe.germ
    shear = pipe.shears[tag]
    (su, sv), end = _STAGES[tag]
    cu, cv = _centers(tag)
    psi = pipe.psi1 if TAG_SIGNS[tag][0] > 0 else pipe.psi2
    base = p.z
    if end == (0, 0):
        try:
            base = psi.forward(p.z)
        except NewtonDiverged:
            return FatouValue((p.z, p.w), 0, float("inf"), ESCAPED)

    def stage(n):
        m0 = _moved(p.z, su * n)
        b = psi.forward(m0)
        w = shear.forward(Point2(m0, _moved(p.w, sv * n), INFINITY)).w
        q = _orbit(G, Point2(b, w, INFINITY), n, cfg, cu, cv)
        return q.w if end == (0, 0) else _stage_end(shear, tag, p.z, q.w, n)

    try:
        fv = _checkpoint_limit(stage, cfg)
    except NewtonDiverged:
        return FatouValue((base, p.w), 0, float("inf"), ESCAPED)
    value = fv.value if fv.verdict == ESCAPED else (base, fv.value)
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
        ginf = pipe.fiber_limit or fiber_limit_map(pipe.germ)
        inner = lambda big: ginf(big)
    else:
        inner = lambda big: big + 1
    if beta == 0:
        return lambda y: inner(complex(y))
    log_v = pipe.shears[tag].log_v

    def gmod(y):
        big = complex(y) + beta * log_v(complex(y))
        return invert_log_shift(inner(big), beta, log_v, complex(y) + 1.0)

    return gmod


def general_fatou(pipe: GeneralConjugacy, tag: str, p: Point2,
                  cfg: ConvergenceConfig = None) -> FatouValue:
    """Evaluate the region's coordinate for the assembled pipeline.

    The first coordinate is never iterated: it telescopes through the
    straightened base exactly, which is what keeps long orbits from
    accumulating base error.  A pipeline with a fiber_limit runs the
    special engines' corrected limits, with every base point of an orbit
    checked in its sector as the recomposed stages check it; the others
    run `_general_incoming` (tag i) and `_general_recomposed`.
    ChainDomainError propagates when an orbit drags a log argument across
    its pinned branch.
    """
    if tag not in _STAGES:
        raise ValueError(f"unknown region tag {tag!r}")
    if p.chart != INFINITY:
        raise ChartMismatch("general coordinates are evaluated at infinity")
    cfg = replace(cfg or DEFAULT_CONFIG, radius=pipe.radius)
    if pipe.trivial:
        return FatouValue((p.z, p.w), 1, 0.0, CONVERGED)
    if pipe.fiber_limit is not None:
        return _special_fatou(pipe.germ, pipe.fiber_limit, tag, p, cfg)
    if tag == "i":
        return _general_incoming(pipe, p, cfg)
    return _general_recomposed(pipe, tag, p, cfg)
