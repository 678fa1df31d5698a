"""Parabolic germs in one and two variables.

A germ pairs a closed-form evaluator (an expression tree, evaluated exactly)
with a truncated jet. The evaluator drives orbits; the jet drives everything
algebraic (normalization, correction coefficients, residue extraction). Both
must describe the same map, and the constructor spot-checks that they do.

Charts: origin germs fix 0 with derivative the identity. Infinity germs live
in the reciprocal coordinate and look like a translation plus decaying terms.
A skew product keeps its base map as a Germ1D in z and its fiber as an
expression in (z, w); the second-coordinate jet is stored as origin-chart
data in all charts, since that is where coefficients are extracted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartMismatch,
    NewtonDiverged,
    NonFiniteValue,
    NonvanishingConstant,
    NotNormalized,
    NotTangentToIdentity,
    WrongForm,
)
from .expressions import (
    CompiledExpr,
    Const,
    Expr,
    Var,
    Z,
    as_rational_poly2,
    diff,
    ev,
    fold_deep,
    parse_expr,
    poly2_to_expr,
    poly_eq,
    subst,
    to_series1,
    to_series2,
)
from .series import (
    INFINITY,
    ORIGIN,
    TruncatedSeries1,
    TruncatedSeries2,
    infinity_chart1,
)

_CHECK_ANGLES = (0.37, 1.91, 3.43, 5.08)


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in C^2 tagged with the chart its coordinates refer to."""

    z: complex
    w: complex
    chart: str = ORIGIN

    @property
    def u(self) -> complex:
        return self.z

    @property
    def v(self) -> complex:
        return self.w

    def as_tuple(self) -> tuple[complex, complex]:
        return (self.z, self.w)


def _as_expr(e) -> Expr:
    return parse_expr(e) if isinstance(e, str) else e


def _finite(x) -> bool:
    if isinstance(x, complex):
        return cmath.isfinite(x)
    if isinstance(x, float):
        return math.isfinite(x)
    return bool(np.all(np.isfinite(x)))


NEWTON_STEPS = 50
NEWTON_BOUND = 1e8
_NEWTON_FAILURES = {
    "flat": "flat derivative",
    "bound": "left the local region",
    "steps": f"no convergence to {{}} in {NEWTON_STEPS} steps",
}


def _diverged(reason: str, x, target) -> NewtonDiverged:
    return NewtonDiverged(_NEWTON_FAILURES[reason].format(target),
                          last_value=x, reason=reason)


def newton(f, df, target, guess, tol):
    """Solve f(x) = target by steps x - r/d, r = f(x) - target, from guess.

    Returns the first x with |r| <= tol, the guess object itself when the
    guess passes. Raises NewtonDiverged with the last iterate and a
    reason: "flat" for a zero, infinite or nan derivative, "bound" for an
    iterate beyond NEWTON_BOUND * max(1, |guess|), "steps" after
    NEWTON_STEPS steps.

    A numpy-array guess is solved element by element, with target and tol
    scalars or arrays of its shape: an element is done at its first
    iterate with |r| <= tol and is never stepped again, and each rule
    above applies to each element not yet done, with its own guess's
    bound. If any element fails, NewtonDiverged carries the whole array
    of iterates. f and df get the whole array at every step.
    """
    if type(guess) is np.ndarray:
        return _newton_elementwise(f, df, target, guess, tol)
    x = guess
    bound = NEWTON_BOUND * max(1.0, abs(x))
    for _ in range(NEWTON_STEPS):
        r = f(x) - target
        if abs(r) <= tol:
            return x
        try:
            d = df(x)
        except ZeroDivisionError:
            d = math.inf
        if not 0 < abs(d) < math.inf:
            raise _diverged("flat", x, target)
        x = x - r / d
        if abs(x) > bound:
            raise _diverged("bound", x, target)
    raise _diverged("steps", x, target)


def _newton_elementwise(f, df, target, guess, tol):
    """newton's rules, applied to each element of an array guess."""
    x = guess
    bound = NEWTON_BOUND * np.maximum(1.0, np.abs(x))
    live = np.ones(x.shape, dtype=bool)
    what = f"{x.size} targets"
    # a zero derivative or a pole gives inf or nan here, which the flat
    # rule refuses; steps of done elements are computed and dropped
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            r = f(x) - target
            live &= ~(np.abs(r) <= tol)
            if not live.any():
                return x
            d = df(x)
            ad = np.abs(d)
            if np.any(live & ~((0 < ad) & (ad < math.inf))):
                raise _diverged("flat", x, what)
            x = np.where(live, x - r / d, x)
            if np.any(live & (np.abs(x) > bound)):
                raise _diverged("bound", x, what)
    raise _diverged("steps", x, what)


_INVERSE_EPS = 4 * np.finfo(float).eps


def _inverse_tol(target):
    """Newton tol of the local inverses: 4 ulp of |target|, at least 1e-12,
    elementwise on an array target."""
    if type(target) is np.ndarray:
        return np.maximum(1e-12, _INVERSE_EPS * np.abs(target))
    return max(1e-12, _INVERSE_EPS * abs(target))


def _compiled(expr: Expr | None) -> CompiledExpr | None:
    return CompiledExpr(expr) if expr is not None else None


def _num_eval(expr: CompiledExpr, env: dict):
    """ev with scalar-division blowups mapped to NonFiniteValue."""
    try:
        return ev(expr, env)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteValue(str(exc)) from exc


class Germ1D:
    """Germ in z: evaluator plus jet in a common chart.

    `expr` is the closed form used for evaluation and differentiation. An
    evaluator callable may be supplied instead when no closed form exists
    (numerically inverted maps); such germs cannot be differentiated.
    check=False skips the evaluator-against-jet spot check.
    """

    def __init__(self, jet: TruncatedSeries1, expr: Expr | None = None,
                 chart: str = ORIGIN, evaluator=None, check: bool = True):
        if expr is None and evaluator is None:
            raise ValueError("need expr or evaluator")
        if jet.chart != chart:
            raise ChartMismatch(f"jet chart {jet.chart!r} vs germ {chart!r}")
        self.jet = jet
        self.expr = fold_deep(_as_expr(expr)) if expr is not None else None
        self.chart = chart
        self._evaluator = evaluator
        self._dexpr = diff(self.expr, "z") if self.expr is not None else None
        self._code = _compiled(self.expr)
        self._dcode = _compiled(self._dexpr)
        if chart == ORIGIN:
            if abs(jet.coeff(0)) > 1e-12:
                raise NonvanishingConstant(
                    f"germ does not fix 0: constant {jet.coeff(0)}")
            if abs(jet.coeff(1) - 1) > 1e-12:
                raise NotTangentToIdentity(
                    f"derivative at 0 is {jet.coeff(1)}")
        if check:
            self._check_agreement()

    def _check_agreement(self) -> None:
        r = 1e-3 if self.chart == ORIGIN else 1e3
        for t in _CHECK_ANGLES:
            x = r * np.exp(1j * t)
            a = self(x)
            b = self.jet.eval(x)
            if abs(a - b) > 1e-6 * max(abs(a), 1e-30):
                raise WrongForm(
                    f"evaluator and jet disagree at {x}: {a} vs {b}")

    def __call__(self, x):
        if self._evaluator is not None:
            y = self._evaluator(x)
        else:
            y = _num_eval(self._code, {"z": x})
        if not _finite(y):
            raise NonFiniteValue(f"germ evaluation at {x}")
        return y

    def derivative(self, x):
        if self._dexpr is None:
            raise WrongForm("no closed form to differentiate")
        return _num_eval(self._dcode, {"z": x})

    def local_inverse(self, target, guess=None):
        """Newton solve self(x) = target near guess (default: target)."""
        x = target if guess is None else guess
        return newton(self, self.derivative, target, x, _inverse_tol(target))


def _strip_common_powers(p: dict, q: dict) -> tuple[dict, dict]:
    """Cancel z^m w^n factors shared by two polynomial dicts."""
    for i in (0, 1):
        m = min(min(k[i] for k in p), min(k[i] for k in q))
        if m:
            p = {(k[0] - m * (i == 0), k[1] - m * (i == 1)): c
                 for k, c in p.items()}
            q = {(k[0] - m * (i == 0), k[1] - m * (i == 1)): c
                 for k, c in q.items()}
    return p, q


def reciprocal_transport(e: Expr) -> Expr:
    """Closed form of 1 / e(1/z), reduced so it is analytic at the origin.

    This moves an infinity-chart map back to the origin chart (and vice
    versa, the operation is an involution). Denominators are cleared first;
    a bare substitution would leave 1/z subtrees that poison series
    expansion even when the composite is regular.
    """
    body = subst(_as_expr(e), {"z": Const(1) / Z})
    p, q = as_rational_poly2(body)
    if not p:
        raise WrongForm("reciprocal of the zero map")
    p, q = _strip_common_powers(p, q)
    return fold_deep(poly2_to_expr(q) / poly2_to_expr(p))


def make_germ1d(expr, order: int, chart: str = ORIGIN) -> Germ1D:
    """Build a germ in z from a closed form, expanding the jet to `order`."""
    e = fold_deep(_as_expr(expr))
    if chart == ORIGIN:
        jet = to_series1(e, order)
    else:
        jet = infinity_chart1(to_series1(reciprocal_transport(e), order + 2))
    return Germ1D(jet, expr=e, chart=chart)


class SkewGerm2D:
    """Skew product (z, w) -> (first(z), fiber(z, w)).

    `jet2` is always origin-chart coefficient data, even for a germ whose
    evaluator works at infinity; coefficient extraction happens there. An
    origin-chart product spot-checks its fiber against jet2; an
    infinity-chart one checks nothing, and may have no jet2.
    """

    def __init__(self, first: Germ1D, fiber_expr,
                 jet2: TruncatedSeries2 | None, chart: str = ORIGIN):
        self.first = first
        self.fiber_expr = fold_deep(_as_expr(fiber_expr))
        self.jet2 = jet2
        self.chart = chart
        self._dfdw = diff(self.fiber_expr, "w")
        self._fiber_code = CompiledExpr(self.fiber_expr)
        self._dfdw_code = CompiledExpr(self._dfdw)
        if first.chart != chart:
            raise ChartMismatch(
                f"base chart {first.chart!r} vs product {chart!r}")
        if chart == ORIGIN:
            if jet2 is None:
                raise WrongForm("origin-chart product needs its jet2")
            if abs(jet2.coeff(0, 0)) > 1e-12:
                raise NonvanishingConstant(
                    f"fiber does not fix 0: constant {jet2.coeff(0, 0)}")
            c01 = jet2.coeff(0, 1)
            c10 = jet2.coeff(1, 0)
            if abs(c01 - 1) > 1e-12 or abs(c10) > 1e-12:
                raise NotTangentToIdentity(
                    f"fiber derivative at 0 is {c10} dz + {c01} dw")
            self._check_agreement()

    def _check_agreement(self) -> None:
        for t in _CHECK_ANGLES:
            zz = 1e-3 * np.exp(1j * t)
            ww = 1e-3 * np.exp(1j * (t + 0.83))
            a = self.fiber(zz, ww)
            b = self.jet2.eval(zz, ww)
            if abs(a - b) > 1e-6 * max(abs(a), 1e-30):
                raise WrongForm(
                    f"fiber and jet disagree at ({zz}, {ww}): {a} vs {b}")

    # Scalar or numpy-array arguments both work here.
    def fiber(self, z, w):
        return _num_eval(self._fiber_code, {"z": z, "w": w})

    def fiber_dw(self, z, w):
        return _num_eval(self._dfdw_code, {"z": z, "w": w})

    @property
    def a2(self) -> complex:
        return self.first.jet.coeff(2)

    @property
    def b2(self) -> complex:
        return self.jet2.coeff(0, 2)

    def evaluate(self, p: Point2) -> Point2:
        if p.chart != self.chart:
            raise ChartMismatch(
                f"point in chart {p.chart!r}, germ in {self.chart!r}")
        z1 = self.first(p.z)  # Germ1D refuses a non-finite value itself
        w1 = self.fiber(p.z, p.w)
        if not _finite(w1):
            raise NonFiniteValue(f"evaluation at {p.as_tuple()}")
        return Point2(z1, w1, self.chart)

    def __call__(self, p: Point2) -> Point2:
        return self.evaluate(p)

    def local_inverse(self, p: Point2, guess: Point2 | None = None) -> Point2:
        """Solve evaluate(q) = p, base coordinate first, then the fiber."""
        if p.chart != self.chart:
            raise ChartMismatch(
                f"point in chart {p.chart!r}, germ in {self.chart!r}")
        if guess is None:
            if self.chart == ORIGIN:
                guess = p
            else:
                guess = Point2(p.z - 1, p.w - 1, self.chart)
        z0 = self.first.local_inverse(p.z, guess.z)
        return Point2(z0, self.fiber_inverse(z0, p.w, guess.w), self.chart)

    def fiber_inverse(self, t, target, guess):
        """Newton solve fiber(t, x) = target for x near guess."""
        return newton(lambda x: self.fiber(t, x),
                      lambda x: self.fiber_dw(t, x), target, guess,
                      _inverse_tol(target))


def make_skew_germ(lam, fiber, order: int) -> SkewGerm2D:
    """Origin-chart skew product from closed forms for base and fiber."""
    lam_e = fold_deep(_as_expr(lam))
    fib_e = fold_deep(_as_expr(fiber))
    first = make_germ1d(lam_e, order, chart=ORIGIN)
    jet2 = to_series2(fib_e, order)
    return SkewGerm2D(first, fib_e, jet2, chart=ORIGIN)


def _is_exact_translation(expr: Expr, var: str) -> bool:
    """Whether expr is var + 1 as a rational map in z and w."""
    p, q = as_rational_poly2(expr)
    dj, dk = (1, 0) if var == "z" else (0, 1)
    shifted = dict(q)
    for (j, k), c in q.items():
        key = (j + dj, k + dk)
        shifted[key] = shifted.get(key, 0j) + c
    return poly_eq(p, shifted, tol=1e-14)


def to_infinity(germ: SkewGerm2D) -> SkewGerm2D:
    """Transport an origin skew product to the chart at infinity.

    Requires the quadratic coefficients of base and fiber to already be -1;
    the result's base then looks like u + 1 + O(1/u) and its fiber like
    v + 1 + O(1/u, 1/v). The origin-chart jet2 is carried along unchanged.
    """
    if germ.chart != ORIGIN:
        raise ChartMismatch("already at infinity")
    if abs(germ.a2 + 1) > 1e-12 or abs(germ.b2 + 1) > 1e-12:
        raise NotNormalized(
            f"need quadratic coefficients -1, got a2={germ.a2}, "
            f"b2={germ.b2}")
    inv = Const(1)
    base_e = fold_deep(
        inv / subst(germ.first.expr, {"z": inv / Z}))
    base_jet = infinity_chart1(germ.first.jet)
    if _is_exact_translation(base_e, "z"):
        # The transported base is u + 1 on the nose; keep the jet exact
        # so downstream consumers can recognize that and iterate exactly.
        base_e = fold_deep(Z + Const(1))
        base_jet = TruncatedSeries1(
            [1] + [0] * base_jet.order, INFINITY)
    base = Germ1D(base_jet, expr=base_e, chart=INFINITY)
    fib_e = fold_deep(
        inv / subst(germ.fiber_expr, {"z": inv / Z, "w": inv / Var("w")}))
    return SkewGerm2D(base, fib_e, germ.jet2, chart=INFINITY)


def fiber_limit_map(germ: SkewGerm2D, order: int | None = None) -> Germ1D:
    """Limit of the fiber maps as the base coordinate runs to infinity.

    Works chart-side: the fiber expression is put in rational normal form
    P(u, v)/Q(u, v) and the limit is the ratio of the top u-degree slices.
    Equal top degrees are required; anything else means the fiber does not
    settle and the product is of the wrong shape.
    """
    if germ.chart != INFINITY:
        raise ChartMismatch("fiber limit is taken at infinity")
    p, q = as_rational_poly2(germ.fiber_expr)
    if not p or not q:
        raise WrongForm("degenerate fiber expression")
    dp = max(j for (j, _) in p)
    dq = max(j for (j, _) in q)
    if dp != dq:
        raise WrongForm(
            f"fiber has no finite limit (degrees {dp} over {dq})")
    top_p = {(0, k): c for (j, k), c in p.items() if j == dp}
    top_q = {(0, k): c for (j, k), c in q.items() if j == dq}
    expr = fold_deep(
        poly2_to_expr(top_p) / poly2_to_expr(top_q))
    expr = fold_deep(subst(expr, {"w": Z}))
    if order is None:
        if germ.jet2 is not None:
            order = germ.jet2.order
        else:
            order = germ.first.jet.order + 2
    return make_germ1d(expr, order, chart=INFINITY)
