"""Reduction of a parabolic skew product to its working normal form.

Three stages, each returning a new germ plus the conjugacy chain that links
it to the input: rescale so both quadratic coefficients are -1, kill the low
pure-z and z^k w fiber coefficients with polynomial shears and fiber
scalings, and (after transport to infinity) read off the two log-shear
parameters that cancel the 1/u and 1/v tails.

The zw and z^2 coefficients are genuinely different: no fiber-preserving
polynomial change removes them independently (the one shear that reaches
them has a single parameter for the pair), so they are required to vanish
up front and rejected otherwise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ChainDomainError,
    ChartMismatch,
    DegenerateQuadratic,
    NewtonDiverged,
    NotNormalized,
    OrderTooLargeForJet,
    WrongForm,
)
from .expressions import Const, Expr, Pow, W, Z, fold_deep, subst, to_series2
from .germs import Germ1D, Point2, SkewGerm2D, make_germ1d, newton
from .series import INFINITY, ORIGIN, TruncatedSeries2

DEFAULT_M = 4
MAX_M = 10


@lru_cache(maxsize=64)
def rotation(center: float) -> complex:
    """np.exp(-1j * center) as a Python complex: the one turn that brings
    a center's direction to the positive real axis."""
    return complex(np.exp(-1j * center))


def turned(x: np.ndarray, turn: complex) -> np.ndarray:
    """x * turn elementwise, rounded as Python's complex product rounds.

    numpy's complex product may fuse its multiply-adds, which moves last
    bits; the four real products and two sums here are the ones Python
    computes, so a turned array holds the bits of the turned scalars.
    """
    y = np.empty(x.shape, complex)
    y.real = x.real * turn.real - x.imag * turn.imag
    y.imag = x.real * turn.imag + x.imag * turn.real
    return y


def angle_past(y: np.ndarray, edge: float) -> np.ndarray:
    """abs(cmath.phase(y)) > edge, elementwise on an array y.

    numpy's arctan2 decides every element but those within 1e-12 of the
    edge, where it may differ from cmath's in the last bit; cmath decides
    those, so each verdict is the scalar one.
    """
    ang = np.abs(np.arctan2(y.imag, y.real))
    past = ang > edge
    near = np.flatnonzero(np.abs(ang - edge) <= 1e-12)
    if near.size:
        past[near] = [abs(cmath.phase(v)) > edge for v in y[near].tolist()]
    return past


class BranchedLog:
    """log with the branch cut rotated to point away from a given center.

    Values have imaginary part within pi of the center angle, so sectors
    around that direction see a single-valued, continuous branch.  The
    branch is pinned when the object is built; evaluation refuses points
    more than 3pi/4 away from the center, which is how a long orbit that
    silently drifts across the cut gets caught instead of producing a
    2*pi*i jump.  It refuses 0 as well, which lies on no branch.

    The argument is a Python or numpy scalar, or a numpy array.  A scalar
    is turned by the cached ``rotation(center)``, its angle and log are
    taken by ``cmath``, and the value is a Python complex; the shift
    1j * center is computed once.  An array is turned with the scalar
    product's rounding (`turned`), each element's angle is decided as the
    scalar's (`angle_past`), and the whole array is refused, with the
    scalar's message, when one element is off the branch or, after that
    test, when one is 0; its values come from numpy's complex log, within
    2 ulp of the scalar ones.
    """

    __slots__ = ("center", "_turn", "_shift")

    _DOMAIN = 0.75 * np.pi + 1e-9

    def __init__(self, center: float = 0.0):
        self.center = float(center)
        self._turn = rotation(self.center)
        self._shift = 1j * self.center

    def __call__(self, xi):
        if type(xi) is np.ndarray:
            return self._array(xi)
        y = xi * self._turn
        if abs(cmath.phase(y)) > self._DOMAIN:
            raise ChainDomainError(self._off())
        if y == 0:
            raise ChainDomainError("0 lies on no log branch")
        return cmath.log(y) + self._shift

    def _array(self, xi: np.ndarray) -> np.ndarray:
        y = turned(xi, self._turn)
        if angle_past(y, self._DOMAIN).any():
            raise ChainDomainError(self._off())
        if (y == 0).any():
            raise ChainDomainError("0 lies on no log branch")
        return np.log(y) + self._shift

    def _off(self) -> str:
        return f"argument left the log branch centered at {self.center:g}"

    def __repr__(self):
        return f"BranchedLog(center={self.center})"


# ----------------------------------------------------------------- steps


@dataclass(frozen=True)
class Scaling:
    """(z, w) -> (s z, t w)."""

    s: complex
    t: complex

    def forward(self, p: Point2) -> Point2:
        return Point2(self.s * p.z, self.t * p.w, p.chart)

    def inverse(self, p: Point2) -> Point2:
        return Point2(p.z / self.s, p.w / self.t, p.chart)

    def describe(self) -> str:
        return f"scale(s={self.s}, t={self.t})"


@dataclass(frozen=True)
class Shear:
    """(z, w) -> (z, w + c z^k)."""

    c: complex
    k: int

    def forward(self, p: Point2) -> Point2:
        return Point2(p.z, p.w + self.c * p.z**self.k, p.chart)

    def inverse(self, p: Point2) -> Point2:
        return Point2(p.z, p.w - self.c * p.z**self.k, p.chart)

    def describe(self) -> str:
        return f"shear(w -> w + {self.c} z^{self.k})"


@dataclass(frozen=True)
class FiberScale:
    """(z, w) -> (z, w (1 + c z^k))."""

    c: complex
    k: int

    def forward(self, p: Point2) -> Point2:
        return Point2(p.z, p.w * (1 + self.c * p.z**self.k), p.chart)

    def inverse(self, p: Point2) -> Point2:
        return Point2(p.z, p.w / (1 + self.c * p.z**self.k), p.chart)

    def describe(self) -> str:
        return f"fiber_scale(w -> w (1 + {self.c} z^{self.k}))"


@dataclass(frozen=True)
class Inversion:
    """(z, w) -> (1/z, 1/w), flipping the chart tag."""

    def _flip(self, p: Point2) -> Point2:
        chart = INFINITY if p.chart == ORIGIN else ORIGIN
        return Point2(1 / p.z, 1 / p.w, chart)

    forward = _flip
    inverse = _flip

    def describe(self) -> str:
        return "inversion"


def invert_log_shift(target, alpha, log, guess):
    """Solve x + alpha log(x) = target by `newton` from guess.

    The derivative 1 + alpha/x is infinite at 0, where log is refused,
    so a zero guess fails as a flat derivative before any residual.  An
    array guess is solved element by element, with targets of its shape;
    one zero among its elements fails the whole array.
    """
    if type(guess) is np.ndarray:
        flat = (guess == 0).any()
        tol = 1e-12 * np.maximum(1.0, np.abs(target))
    else:
        flat = guess == 0
        tol = 1e-12 * max(1.0, abs(target))
    if flat:
        raise NewtonDiverged("flat derivative", last_value=guess,
                             reason="flat")
    return newton(lambda x: x + alpha * log(x), lambda x: 1 + alpha / x,
                  target, guess, tol)


@dataclass(frozen=True)
class LogShear:
    """(u, v) -> (u, v + alpha log u + beta log v)."""

    alpha: complex
    beta: complex
    log_u: BranchedLog = field(default_factory=BranchedLog)
    log_v: BranchedLog = field(default_factory=BranchedLog)

    def forward(self, p: Point2) -> Point2:
        v = p.w
        if self.alpha != 0:
            v = v + self.alpha * self.log_u(p.z)
        if self.beta != 0:
            v = v + self.beta * self.log_v(p.w)
        return Point2(p.z, v, p.chart)

    def inverse(self, p: Point2) -> Point2:
        """Solve forward(q) = p for q, whose fiber x solves
        x + beta log_v(x) = p.w - alpha log_u(p.z) by `invert_log_shift`
        from p.w.

        With numpy arrays of one shape for p.z and p.w, every element is
        solved at once: the logs and the solve take the arrays whole, and
        any element's refusal or failure raises for the whole array.
        """
        target = p.w
        if self.alpha != 0:
            target = target - self.alpha * self.log_u(p.z)
        if self.beta == 0:
            return Point2(p.z, target, p.chart)
        w = invert_log_shift(target, self.beta, self.log_v, p.w)
        return Point2(p.z, w, p.chart)

    def describe(self) -> str:
        return f"log_shear(alpha={self.alpha}, beta={self.beta})"


# ----------------------------------------------------------------- chains


@dataclass(frozen=True)
class ConjugacyChain:
    """Composite coordinate change, stored in application order.

    forward maps a point in the final (most-conjugated) coordinates back to
    the original ones: steps[0] is applied first. A germ pair (F, F') with
    chain C satisfies F'(p) = C^{-1}(F(C(p))) on the chain's domain.
    """

    steps: tuple = ()

    def forward(self, p: Point2) -> Point2:
        for s in self.steps:
            p = s.forward(p)
        return p

    def inverse(self, p: Point2) -> Point2:
        for s in reversed(self.steps):
            p = s.inverse(p)
        return p

    def prepend(self, step) -> "ConjugacyChain":
        """Record one more conjugation applied after the existing ones."""
        return ConjugacyChain((step,) + self.steps)

    def describe(self) -> str:
        if not self.steps:
            return "identity"
        return " ; ".join(s.describe() for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def compose_chains(later: ConjugacyChain,
                   earlier: ConjugacyChain) -> ConjugacyChain:
    """Chain for conjugations applied in two rounds.

    `earlier` links the intermediate germ to the original, `later` links the
    final germ to the intermediate one.
    """
    return ConjugacyChain(later.steps + earlier.steps)


@dataclass(frozen=True)
class LogShearParams:
    alpha: complex
    beta: complex


# ------------------------------------------------------- quadratic rescale


def normalize_quadratic(
        F: SkewGerm2D) -> tuple[SkewGerm2D, ConjugacyChain]:
    """Rescale coordinates so both quadratic coefficients become -1."""
    if F.chart != ORIGIN:
        raise ChartMismatch("normalization happens in the origin chart")
    a2, b2 = F.a2, F.b2
    if abs(a2) < 1e-13 or abs(b2) < 1e-13:
        raise DegenerateQuadratic(
            f"quadratic coefficients a2={a2}, b2={b2} must be nonzero")
    if abs(a2 + 1) <= 1e-12 and abs(b2 + 1) <= 1e-12:
        return F, ConjugacyChain()
    s = -1 / a2
    t = -1 / b2
    lam_e = fold_deep(
        subst(F.first.expr, {"z": Const(s) * Z}) * Const(1 / s))
    fib_e = fold_deep(
        subst(F.fiber_expr, {"z": Const(s) * Z, "w": Const(t) * W})
        * Const(1 / t))
    first = make_germ1d(lam_e, F.first.jet.order, chart=ORIGIN)
    jet2 = to_series2(fib_e, F.jet2.order)
    out = SkewGerm2D(first, fib_e, jet2, chart=ORIGIN)
    return out, ConjugacyChain((Scaling(s, t),))


# --------------------------------------------------------- order raising


def _elimination_targets(M: int) -> list[tuple[int, int]]:
    """Fiber-jet indices to kill, ascending degree, pure before cross."""
    out = []
    for d in range(3, M + 1):
        if d <= M - 1:
            out.append((d, 0))
        if 2 <= d - 1 <= M - 1:
            out.append((d - 1, 1))
    return out


def min_jet_order(M: int) -> int:
    """The jet order raise_order needs to reach the degree-M pattern."""
    return 2 * M + 4


def _apply_fiber_step(lam_e: Expr, fib: Expr, order: int,
                      step) -> tuple[Expr, TruncatedSeries2]:
    """Conjugate the fiber of a product with base lam_e by a shear or fiber
    scaling: the new fiber expression and its jet to `order`."""
    if isinstance(step, Shear):
        mono = Const(step.c) * Pow(Z, step.k)
        fib = subst(fib, {"w": W + mono})
        fib = fib - Const(step.c) * Pow(lam_e, step.k)
    else:
        factor = Const(1) + Const(step.c) * Pow(Z, step.k)
        lam_factor = Const(1) + Const(step.c) * Pow(lam_e, step.k)
        fib = subst(fib, {"w": W * factor}) / lam_factor
    fib = fold_deep(fib)
    return fib, to_series2(fib, order)


def _zeroed(jet2: TruncatedSeries2, j: int, k: int) -> TruncatedSeries2:
    arr = np.array(jet2.coeffs)
    arr[j, k] = 0
    return TruncatedSeries2(arr, jet2.order)


def raise_order(F: SkewGerm2D, M: int = DEFAULT_M
                ) -> tuple[SkewGerm2D, ConjugacyChain]:
    """Remove fiber-jet terms below the degree-M pattern.

    Targets the pure z^k for 2 <= k < M and the z^k w for 1 <= k < M of
    the second-coordinate jet. Each target z^j or z^j w costs one shear
    (pure terms) or one fiber scaling (cross terms) of degree k = j - 1.
    With the base z - z^2 + ... and no z w term in the fiber, its
    parameter c moves the target by c*k and no other term of that degree:
    the shear through -c*lambda(z)^k, the scaling through the division by
    1 + c*lambda(z)^k. So c = -g/(j - 1) in closed form. That slope is
    exact only up to the 1e-12 input gates on a2 + 1 and on the z w
    coefficient, so up to three Newton steps with it refine c when the
    target misses 1e-12.

    Each target is snapped to zero once its residual clears 1e-12, but the
    next step re-expands the whole fiber, which undoes earlier snaps: a
    solved target comes back at the rounding level, and one only snapped
    (below 1e-13) at its input size.

    The steps rewrite the fiber expression and its jet only; the result is
    the one germ built from them, and as an origin-chart product it checks
    that the rewritten fiber agrees with the snapped jet.
    """
    if F.chart != ORIGIN:
        raise ChartMismatch("raise_order works in the origin chart")
    if not 2 <= M <= MAX_M:
        raise ValueError(f"M must be in [2, {MAX_M}]")
    if abs(F.a2 + 1) > 1e-12 or abs(F.b2 + 1) > 1e-12:
        raise NotNormalized("normalize_quadratic must run first")
    need = min_jet_order(M)
    if F.jet2.order < need:
        raise OrderTooLargeForJet(
            f"need jet order >= {need}, have {F.jet2.order}")
    for (j, k), name in (((1, 1), "z w"), ((2, 0), "z^2")):
        if abs(F.jet2.coeff(j, k)) > 1e-12:
            raise WrongForm(
                f"the {name} coefficient ({F.jet2.coeff(j, k)}) is not "
                "removable by fiber-preserving polynomial changes and "
                "must vanish in the input")

    targets = _elimination_targets(M)
    if all(abs(F.jet2.coeff(j, k)) <= 1e-12 for j, k in targets):
        return F, ConjugacyChain()

    lam_e, fib, jet2 = F.first.expr, F.fiber_expr, F.jet2
    order = jet2.order
    chain = ConjugacyChain()
    for j, k in targets:
        g0 = jet2.coeff(j, k)
        scale = max(1.0, abs(g0))
        if abs(g0) <= 1e-13:
            if g0 != 0:
                jet2 = _zeroed(jet2, j, k)
            continue
        make = Shear if k == 0 else FiberScale
        slope = j - 1
        c_star = -g0 / slope
        nxt_fib, nxt_jet = _apply_fiber_step(lam_e, fib, order,
                                             make(c_star, j - 1))
        for _ in range(3):
            g = nxt_jet.coeff(j, k)
            if abs(g) <= 1e-12 * scale:
                break
            c_star = c_star - g / slope
            nxt_fib, nxt_jet = _apply_fiber_step(lam_e, fib, order,
                                                 make(c_star, j - 1))
        if abs(nxt_jet.coeff(j, k)) > 1e-12 * scale:
            raise WrongForm(
                f"elimination of z^{j} w^{k} did not converge")
        fib, jet2 = nxt_fib, _zeroed(nxt_jet, j, k)
        chain = chain.prepend(make(c_star, j - 1))

    return SkewGerm2D(F.first, fib, jet2, chart=ORIGIN), chain


# ------------------------------------------------------ parameter readout


def extract_alpha(g: Germ1D) -> complex:
    """The 1/w coefficient of an infinity-chart germ w + 1 + alpha/w + ..."""
    if g.chart != INFINITY:
        raise ChartMismatch("extract_alpha reads infinity-chart jets")
    if abs(g.jet.coeff(0) - 1) > 1e-12:
        raise WrongForm(
            f"translation part is {g.jet.coeff(0)}, expected 1")
    return g.jet.coeff(1)


def _laurent_of_fiber(jet2: TruncatedSeries2, wmax: int) -> dict:
    """Weight-truncated expansion of 1/f(1/u, 1/v) at infinity.

    Keys (j, m) stand for u^-j v^-m (m < 0 meaning positive powers of v);
    the weight is j + m. Writing f = y (1 + E) with x = 1/u, y = 1/v and E
    collecting every jet term but the leading y (pure-x terms enter as
    x^j v), the reciprocal is v times a finite geometric series in E, since
    tangency makes every E entry carry weight >= 1.
    """
    E: dict = {}
    n = jet2.order
    for j in range(n + 1):
        for k in range(n + 1 - j):
            c = jet2.coeff(j, k)
            if c == 0 or (j, k) == (0, 1):
                continue
            key = (j, k - 1)
            if key[0] + key[1] > wmax:
                continue
            E[key] = E.get(key, 0j) + c

    def mul(A: dict, B: dict) -> dict:
        out: dict = {}
        for (j1, m1), c1 in A.items():
            for (j2, m2), c2 in B.items():
                if j1 + j2 + m1 + m2 > wmax:
                    continue
                key = (j1 + j2, m1 + m2)
                out[key] = out.get(key, 0j) + c1 * c2
        return out

    neg = {k: -c for k, c in E.items()}
    total = {(0, 0): 1 + 0j}
    term = {(0, 0): 1 + 0j}
    for _ in range(wmax + 3):
        term = mul(term, neg)
        if not term:
            break
        for key, c in term.items():
            total[key] = total.get(key, 0j) + c
    return {(j, m - 1): c for (j, m), c in total.items()}


def solve_log_shear(Gj: SkewGerm2D) -> LogShearParams:
    """Read the two linear tail coefficients of the fiber at infinity.

    The fiber must look like v + 1 + alpha/u + beta/v + (weight >= 2): the
    returned parameters are exactly the coefficients a log shear needs to
    cancel. Any other monomial of weight <= 1 in the expansion (v/u from a
    zw term, v/u^2 from z^2 w, and so on) means the product is not in the
    required shape.
    """
    if Gj.chart != INFINITY:
        raise ChartMismatch("solve_log_shear works at infinity")
    if Gj.jet2 is None:
        raise WrongForm("needs origin-chart jet data for the fiber")
    lau = _laurent_of_fiber(Gj.jet2, wmax=2)
    lead = lau.get((0, -1), 0j)
    const = lau.get((0, 0), 0j)
    if abs(lead - 1) > 1e-12 or abs(const - 1) > 1e-12:
        raise WrongForm(
            f"fiber at infinity starts {lead} v + {const}, expected v + 1")
    for (j, m), c in lau.items():
        if (j, m) in ((0, -1), (0, 0), (1, 0), (0, 1)):
            continue
        if j + m <= 1 and abs(c) > 1e-12:
            raise WrongForm(
                f"unexpected weight-{j + m} term u^{-j} v^{-m} "
                f"(coefficient {c}) in the fiber expansion")
    return LogShearParams(lau.get((1, 0), 0j), lau.get((0, 1), 0j))
