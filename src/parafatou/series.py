"""Truncated power series in one and two complex variables.

One-variable series come in two charts. An origin-chart series is an
ordinary jet c_0 + c_1 z + ... + c_N z^N. An infinity-chart series
represents a translation-like map near infinity,

    w + c_0 + c_1/w + ... + c_N/w^N,

with the leading w implicit. Two-variable series are dense jets over the
simplex j + k <= N.

Everything here is immutable and pure; coefficients are complex doubles.
Operations truncate to the minimum order of their operands instead of
erroring, because conjugation chains naturally mix orders.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ChartMismatch,
    NonvanishingConstant,
    NotNormalized,
    NotTangentToIdentity,
)

ORIGIN = "origin"
INFINITY = "infinity"


def _aslist(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(complex(c) for c in coeffs)


class TruncatedSeries1:
    """A jet c_0..c_N in one variable, tagged with its chart."""

    __slots__ = ("coeffs", "order", "chart")

    def __init__(self, coeffs: Iterable[complex], chart: str = ORIGIN):
        if chart not in (ORIGIN, INFINITY):
            raise ValueError(f"unknown chart {chart!r}")
        object.__setattr__(self, "coeffs", _aslist(coeffs))
        object.__setattr__(self, "order", len(self.coeffs) - 1)
        object.__setattr__(self, "chart", chart)
        if self.order < 0:
            raise ValueError("series needs at least one coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries1 is immutable")

    def __repr__(self):
        return f"TruncatedSeries1({list(self.coeffs)!r}, chart={self.chart!r})"

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries1)
            and self.chart == other.chart
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.chart, self.coeffs))

    def coeff(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k <= self.order else 0j

    def truncated(self, order: int) -> "TruncatedSeries1":
        if order >= self.order:
            return self
        return TruncatedSeries1(self.coeffs[: order + 1], self.chart)

    def eval(self, x: complex) -> complex:
        """Value of the series at x (Horner). Infinity chart includes the
        leading w term."""
        acc = 0j
        if self.chart == ORIGIN:
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        for c in reversed(self.coeffs):
            acc = acc / x + c
        return x + acc

    # -- arithmetic on origin-chart jets ------------------------------------

    def _binop_order(self, other: "TruncatedSeries1") -> int:
        if self.chart != other.chart:
            raise ChartMismatch(
                f"cannot combine {self.chart} and {other.chart} series"
            )
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries1):
            n = self._binop_order(other)
            return TruncatedSeries1(
                [self.coeff(k) + other.coeff(k) for k in range(n + 1)], self.chart
            )
        c = list(self.coeffs)
        c[0] += complex(other)
        return TruncatedSeries1(c, self.chart)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries1([-c for c in self.coeffs], self.chart)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries1):
            n = self._binop_order(other)
            return TruncatedSeries1(
                [self.coeff(k) - other.coeff(k) for k in range(n + 1)], self.chart
            )
        c = list(self.coeffs)
        c[0] -= complex(other)
        return TruncatedSeries1(c, self.chart)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries1):
            n = self._binop_order(other)
            if self.chart != ORIGIN:
                raise ChartMismatch("series product only defined in origin chart")
            out = _mul1(self.coeffs, other.coeffs, n)
            return TruncatedSeries1(out, ORIGIN)
        z = complex(other)
        return TruncatedSeries1([c * z for c in self.coeffs], self.chart)

    __rmul__ = __mul__


def _mul1(a: Sequence[complex], b: Sequence[complex], n: int) -> list[complex]:
    """Coefficients of a*b through degree n."""
    out = [0j] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _inv1(a: Sequence[complex], n: int) -> list[complex]:
    """Coefficients of 1/a through degree n; a[0] must be nonzero."""
    if a[0] == 0:
        raise NonvanishingConstant("cannot invert a series vanishing at 0")
    inv = [0j] * (n + 1)
    inv[0] = 1.0 / a[0]
    for k in range(1, n + 1):
        s = 0j
        for j in range(1, k + 1):
            aj = a[j] if j < len(a) else 0j
            s += aj * inv[k - j]
        inv[k] = -s / a[0]
    return inv


def _div1(a: Sequence[complex], b: Sequence[complex], n: int) -> list[complex]:
    return _mul1(a, _inv1(b, n), n)


def compose1(outer: TruncatedSeries1, inner: TruncatedSeries1) -> TruncatedSeries1:
    """Jet of outer(inner(z)) to the common truncation order.

    Both series must be origin-chart and inner must vanish at the origin,
    otherwise the composition is not a well-defined jet operation.
    """
    if outer.chart != ORIGIN or inner.chart != ORIGIN:
        raise ChartMismatch("compose1 requires origin-chart series")
    if inner.coeffs[0] != 0:
        raise NonvanishingConstant("inner series must vanish at the origin")
    n = min(outer.order, inner.order)
    acc = [0j] * (n + 1)
    for c in reversed(outer.coeffs[: n + 1]):
        acc = _mul1(acc, inner.coeffs, n)
        acc[0] += c
    return TruncatedSeries1(acc, ORIGIN)


def reverse1(a: TruncatedSeries1) -> TruncatedSeries1:
    """Compositional inverse of a tangent-to-identity origin jet.

    Solves compose1(a, b) = id coefficient by coefficient; degree k of the
    composition is affine in b_k with unit slope once b_1..b_{k-1} are fixed.
    """
    if a.chart != ORIGIN:
        raise ChartMismatch("reverse1 requires an origin-chart series")
    if a.coeffs[0] != 0:
        raise NonvanishingConstant("reverse1 input must vanish at the origin")
    if a.coeff(1) != 1:
        raise NotTangentToIdentity(
            f"reverse1 needs linear coefficient 1, got {a.coeff(1)}"
        )
    n = a.order
    b = [0j] * (n + 1)
    if n >= 1:
        b[1] = 1.0 + 0j
    for k in range(2, n + 1):
        comp = compose1(a.truncated(k), TruncatedSeries1(b[: k + 1]))
        b[k] = -comp.coeff(k)
    return TruncatedSeries1(b, ORIGIN)


def infinity_chart1(a: TruncatedSeries1) -> TruncatedSeries1:
    """Transport a normalized parabolic jet to the chart at infinity.

    For a = z - z^2 + ... (quadratic coefficient exactly -1), returns the
    jet of 1/a(1/w) in the form w + c_0 + c_1/w + ..., with c_0 = 1. The
    result order is a.order - 2: the 1/w^k coefficient needs the origin jet
    through degree k + 2.
    """
    if a.chart != ORIGIN:
        raise ChartMismatch("infinity_chart1 requires an origin-chart series")
    if a.coeffs[0] != 0:
        raise NonvanishingConstant("germ must fix the origin")
    if a.coeff(1) != 1:
        raise NotTangentToIdentity("germ must be tangent to the identity")
    if abs(a.coeff(2) + 1) > 1e-12:
        raise NotNormalized(
            f"quadratic coefficient must be -1, got {a.coeff(2)} (normalize first)"
        )
    n = a.order
    if n < 2:
        raise NotNormalized("need at least a quadratic jet")
    u = [a.coeff(k + 1) for k in range(n)]  # a(z)/z, degree n-1
    e = _inv1(u, n - 1)
    return TruncatedSeries1(e[1:], INFINITY)


def origin_chart1(g: TruncatedSeries1) -> TruncatedSeries1:
    """Inverse transport: infinity-chart jet back to an origin jet.

    Returns the jet of 1/g(1/z) of order g.order + 2.
    """
    if g.chart != INFINITY:
        raise ChartMismatch("origin_chart1 requires an infinity-chart series")
    n = g.order + 2
    den = [1.0 + 0j] + list(g.coeffs)  # 1 + c_0 z + c_1 z^2 + ...
    e = _inv1(den, n - 1)
    return TruncatedSeries1([0j] + e, ORIGIN)


def conjugate_by_neg1(a: TruncatedSeries1) -> TruncatedSeries1:
    """Jet of -a(-z) (origin) or -g(-w) with the implicit w kept (infinity).

    Both charts flip the sign of the even-index coefficients: at infinity
    -(g(-w)) = -(-w + c0 + c1/(-w) + ...) = w - c0 + c1/w - c2/w^2 + ...
    """
    return TruncatedSeries1(
        [-c if k % 2 == 0 else c for k, c in enumerate(a.coeffs)], a.chart
    )


def infinity_inverse1(g: TruncatedSeries1) -> TruncatedSeries1:
    """Jet of the compositional inverse of an infinity-chart germ.

    Goes through the origin chart, where reverse1 applies, and standardizes
    with the sign conjugation so the quadratic coefficient stays -1.
    The returned jet is sigma g^{-1} sigma with sigma = -id, which is again
    of the form w + 1 + ... when g is.
    """
    f = origin_chart1(g)
    finv = reverse1(f)
    fstd = conjugate_by_neg1(finv)
    return infinity_chart1(fstd)


class TruncatedSeries2:
    """A dense bivariate jet over the simplex j + k <= N.

    coeffs[j, k] is the coefficient of z^j w^k; entries outside the simplex
    are kept at exact zero.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        arr = np.array(coeffs, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("coeffs must be a square matrix")
        n = arr.shape[0] - 1 if order is None else order
        if arr.shape[0] != n + 1:
            raise ValueError("matrix size must be order+1")
        j, k = np.indices(arr.shape)
        arr[j + k > n] = 0
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "order", n)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries2 is immutable")

    def __repr__(self):
        nz = {
            (j, k): self.coeffs[j, k]
            for j in range(self.order + 1)
            for k in range(self.order + 1 - j)
            if self.coeffs[j, k] != 0
        }
        return f"TruncatedSeries2(order={self.order}, terms={nz!r})"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries2":
        return cls(np.zeros((order + 1, order + 1), dtype=complex))

    @classmethod
    def from_terms(cls, order: int, terms: dict) -> "TruncatedSeries2":
        arr = np.zeros((order + 1, order + 1), dtype=complex)
        for (j, k), c in terms.items():
            if j + k <= order:
                arr[j, k] = c
        return cls(arr)

    @classmethod
    def variable(cls, order: int, which: str) -> "TruncatedSeries2":
        if which == "z":
            return cls.from_terms(order, {(1, 0): 1.0})
        if which == "w":
            return cls.from_terms(order, {(0, 1): 1.0})
        raise ValueError(f"unknown variable {which!r}")

    def coeff(self, j: int, k: int) -> complex:
        if 0 <= j <= self.order and 0 <= k <= self.order - j:
            return complex(self.coeffs[j, k])
        return 0j

    def truncated(self, order: int) -> "TruncatedSeries2":
        if order >= self.order:
            return self
        return TruncatedSeries2(self.coeffs[: order + 1, : order + 1].copy())

    def eval(self, z: complex, w: complex) -> complex:
        zp = z ** np.arange(self.order + 1)
        wp = w ** np.arange(self.order + 1)
        return complex(zp @ self.coeffs @ wp)

    def _coerce(self, other) -> "TruncatedSeries2":
        if isinstance(other, TruncatedSeries2):
            return other
        return TruncatedSeries2.from_terms(self.order, {(0, 0): complex(other)})

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return TruncatedSeries2(
            self.coeffs[: n + 1, : n + 1] + o.coeffs[: n + 1, : n + 1]
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries2(-self.coeffs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return TruncatedSeries2(self.coeffs * complex(other))
        n = min(self.order, other.order)
        a = self.coeffs
        b = other.coeffs
        out = np.zeros((n + 1, n + 1), dtype=complex)
        js, ks = np.nonzero(a)
        for j, k in zip(js, ks):
            if j + k > n:
                continue
            out[j:, k:] += a[j, k] * b[: n + 1 - j, : n + 1 - k]
        return TruncatedSeries2(out)

    __rmul__ = __mul__

    def pow_int(self, p: int) -> "TruncatedSeries2":
        if p < 0:
            raise ValueError("negative powers not supported")
        result = TruncatedSeries2.from_terms(self.order, {(0, 0): 1.0})
        for _ in range(p):
            result = result * self
        return result

    def inv(self) -> "TruncatedSeries2":
        """Reciprocal of a jet with nonzero constant term."""
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise NonvanishingConstant("cannot invert a jet vanishing at the origin")
        n = self.order
        u = self * (1.0 / c0) - 1.0  # vanishes at origin
        # geometric series 1 - u + u^2 - ... terminates at order n
        acc = TruncatedSeries2.from_terms(n, {(0, 0): 1.0})
        term = TruncatedSeries2.from_terms(n, {(0, 0): 1.0})
        sign = 1.0
        for _ in range(n):
            term = term * u
            sign = -sign
            acc = acc + term * sign
        return acc * (1.0 / c0)


def substitute2(
    F: TruncatedSeries2, subst_z: TruncatedSeries2, subst_w: TruncatedSeries2
) -> TruncatedSeries2:
    """Jet of F(subst_z, subst_w) to the common truncation order.

    Both substituted series must vanish at the origin; otherwise low-order
    coefficients of the result would depend on arbitrarily high-order
    coefficients of F.
    """
    for s, name in ((subst_z, "subst_z"), (subst_w, "subst_w")):
        if s.coeff(0, 0) != 0:
            raise NonvanishingConstant(f"{name} must vanish at the origin")
    n = min(F.order, subst_z.order, subst_w.order)
    Fn = F.truncated(n)
    Z = subst_z.truncated(n)
    W = subst_w.truncated(n)
    zp = [TruncatedSeries2.from_terms(n, {(0, 0): 1.0})]
    wp = [TruncatedSeries2.from_terms(n, {(0, 0): 1.0})]
    for _ in range(n):
        zp.append(zp[-1] * Z)
        wp.append(wp[-1] * W)
    out = TruncatedSeries2.zero(n)
    js, ks = np.nonzero(Fn.coeffs)
    for j, k in zip(js, ks):
        out = out + (zp[j] * wp[k]) * Fn.coeffs[j, k]
    return out
