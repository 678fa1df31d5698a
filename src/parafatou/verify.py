"""Residual measurement for every identity the coordinates must satisfy.

Each check supplies the residual of one functional equation at one sample
point, evaluating both sides with the engines; `_measure` walks the sample
and aggregates the gaps into a ResidualReport. Reports never hide a bad
point: engine failures become annotated entries with an infinite residual
instead of being dropped, and a NaN residual counts as an infinite one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    CONVERGED,
    DEFAULT_CONFIG,
    _incoming_inverse,
    dual_germ_1d,
    dual_step,
    eta_point,
    incoming_1d,
    incoming_2d_finite,
    outgoing_1d,
    outgoing_1d_direct,
    outgoing_2d_finite,
    psi_a_finite,
    psi_b_finite,
)
from .errors import FatouError, TooFewSamples
from .normal_form import BranchedLog


@dataclass(frozen=True)
class ResidualReport:
    identity_name: str
    samples: int
    max_residual: float
    mean_residual: float
    failures: tuple
    threshold: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _measure(name: str, points, residual, threshold: float) -> ResidualReport:
    """residual(point) over the sample, aggregated into one report.

    A FatouError is an annotated failure with an infinite residual.  A
    NaN residual is stored as infinite too, so it fails and cannot drop
    out of the maximum; every residual at or above threshold fails.
    """
    residuals = []
    failures = []
    for point in points:
        try:
            r = float(residual(point))
        except FatouError as err:
            residuals.append(math.inf)
            failures.append((point, f"{type(err).__name__}: {err}"))
            continue
        if math.isnan(r):
            r = math.inf
        residuals.append(r)
        if r >= threshold:
            failures.append((point, r))
    finite = [r for r in residuals if math.isfinite(r)]
    return ResidualReport(
        identity_name=name,
        samples=len(residuals),
        max_residual=max(residuals) if residuals else 0.0,
        mean_residual=(sum(finite) / len(finite)) if finite else math.inf,
        failures=tuple(failures),
        threshold=threshold,
    )


def _default_threshold(threshold, cfg):
    if threshold is not None:
        return float(threshold)
    return 100.0 * (cfg or DEFAULT_CONFIG).tol


def _value_of(result):
    if hasattr(result, "verdict"):
        if result.verdict != CONVERGED:
            raise FatouError(f"verdict={result.verdict}")
        return result.value
    return result


def _gap(a, b, zeta):
    if isinstance(a, tuple):
        if not isinstance(zeta, (tuple, list)):
            zeta = (zeta,) * len(a)
        return max(abs(x - y - dz) for x, y, dz in zip(a, b, zeta))
    return abs(a - b - zeta)


def abel_residuals(evaluator, germ, zeta, points, threshold=None,
                   cfg=None, name="incoming-abel") -> ResidualReport:
    """|phi(F(p)) - phi(p) - zeta| over the sample."""
    def residual(p):
        lhs = _value_of(evaluator(germ(p)))
        rhs = _value_of(evaluator(p))
        return _gap(lhs, rhs, zeta)

    return _measure(name, points, residual,
                    _default_threshold(threshold, cfg))


def parametrization_residuals(parametrization, germ, zeta, points,
                              threshold=None, cfg=None,
                              name="outgoing-diagram") -> ResidualReport:
    """|F(P(m)) - P(m + zeta)| over the sample.

    The mirror of abel_residuals for maps that carry model translations
    into the dynamics instead of the other way around.
    """
    def residual(m):
        here = _value_of(parametrization(m))
        there = _value_of(parametrization(_shift(m, zeta)))
        return _gap(germ(here), there, 0)

    return _measure(name, points, residual,
                    _default_threshold(threshold, cfg))


def _shift(m, zeta):
    if isinstance(m, tuple):
        return tuple(x + dz for x, dz in zip(m, zeta))
    return m + zeta


def duality_check(g, alpha, points, threshold=None, cfg=None,
                  log=None) -> ResidualReport:
    """Both coordinate identities tying g's inverse to g's own coordinates.

    For each model point w on the outgoing side, the incoming inverse at
    the half-turned argument must parameterize backward orbits,
        g^{-1}((phi_i)^{-1}(-w)) = (phi_i)^{-1}(-(w+1)),
    and the negated inverse of the outgoing map must translate under
    g^{-1} like an incoming coordinate does. Both reduce to Newton-grade
    residuals when the engines are consistent.
    """
    cfg = cfg or DEFAULT_CONFIG
    log = log or BranchedLog(0.0)
    dual = dual_germ_1d(g)

    def psi(target):
        return _value_of(_incoming_inverse(g, alpha, target, cfg, log))

    def residual(w):
        psi0 = psi(-w)
        psi1 = psi(-(w + 1))
        res_a = abs(g.local_inverse(psi0, guess=psi0 - 1) - psi1)

        z = _value_of(outgoing_1d(g, alpha, w, cfg))
        zp = g.local_inverse(z, guess=z - 1)
        chi0 = _value_of(incoming_1d(dual, -alpha, -z, cfg, log))
        chi1 = _value_of(incoming_1d(dual, -alpha, -zp, cfg, log))
        res_b = abs(chi1 - chi0 - 1)
        return max(res_a, res_b)

    return _measure("inverse-duality", points, residual,
                    _default_threshold(threshold, cfg))


def direct_branch_check(g, alpha, points, n=100_000, threshold=1e-3,
                        cfg=None, log=None) -> ResidualReport:
    """Backward-orbit outgoing values against the Newton construction.

    The finite backward orbit carries its log on the lower cut, which the
    limit object absorbs as a half-turn shift of the argument; agreement
    is O(log n / n), so the threshold is coarse by design. Feeding the
    upper-cut log instead leaves the full turn 2*pi*|alpha| behind, which
    is what the negative control looks for.
    """
    cfg = cfg or DEFAULT_CONFIG
    log = log or BranchedLog(math.pi)
    shift = 1j * math.pi * alpha

    def residual(w):
        direct = outgoing_1d_direct(g, alpha, w, n, log=log)
        newton = _value_of(outgoing_1d(g, alpha, w + shift, cfg))
        return abs(direct - newton)

    return _measure("outgoing-direct-branch", points, residual,
                    float(threshold))


def transport_check(eta, F, G, points, threshold=None, cfg=None,
                    coordinate=None) -> ResidualReport:
    """Conjugacy transport of coordinates along eta, with eta o G = F o eta.

    Always measures the conjugacy itself. When both germs are in standard
    form, pass coordinate=(alpha_F, alpha_G) to also measure the incoming
    coordinate transported through eta; coordinates are only pinned up to
    an additive constant, so the drift of phi_F(eta(p)) - phi_G(p) across
    the sample is what is reported, anchored at the first point.
    """
    cfg = cfg or DEFAULT_CONFIG
    anchor = None

    def residual(p):
        nonlocal anchor
        res = _gap(eta(G(p)), F(eta(p)), 0)
        if coordinate is not None:
            alpha_f, alpha_g = coordinate
            diff = (_value_of(incoming_1d(F, alpha_f, eta(p), cfg))
                    - _value_of(incoming_1d(G, alpha_g, p, cfg)))
            if anchor is None:
                anchor = diff
            res = max(res, abs(diff - anchor))
        return res

    return _measure("chain-transport", points, residual,
                    _default_threshold(threshold, cfg))


def lambda_scaling_check(g, alpha, lam, points, threshold=None,
                         cfg=None) -> ResidualReport:
    """Rescaled coordinates translate by the rescaled step."""
    cfg = cfg or DEFAULT_CONFIG

    def residual(w):
        a = _value_of(incoming_1d(g, alpha, w, cfg))
        b = _value_of(incoming_1d(g, alpha, g(w), cfg))
        return abs(lam * b - lam * a - lam)

    return _measure("scaled-translation", points, residual,
                    _default_threshold(threshold, cfg))


def finite_n_identity_check(G, n_list, points, threshold=None,
                            cfg=None) -> ResidualReport:
    """Exact finite-stage inverses through the half turn, at every n.

    The outgoing stage of G undoes the incoming stage of the swapped dual
    germ exactly, and the two mixed stages pair the same way; residuals
    are float-roundoff plus Newton inversion error, uniformly in n.
    """
    H = dual_step(G)

    def residual(pair):
        p, n = pair
        q = outgoing_2d_finite(
            G, eta_point(incoming_2d_finite(H, eta_point(p), n)), n)
        res_io = max(abs(q.z - p.z), abs(q.w - p.w))
        r = psi_a_finite(
            G, eta_point(psi_b_finite(H, eta_point(p), n)), n)
        res_ab = max(abs(r.z - p.z), abs(r.w - p.w))
        return max(res_io, res_ab)

    return _measure("finite-stage-inverse",
                    [(p, n) for p in points for n in n_list], residual,
                    _default_threshold(threshold, cfg))


def decay_exponent(deltas) -> float:
    """Least-squares slope of log(delta_n) against log(n)."""
    arr = np.asarray([float(d) for d in deltas])
    keep = arr > 0
    if int(keep.sum()) < 20:
        raise TooFewSamples(
            f"need at least 20 positive deltas, have {int(keep.sum())}")
    n = np.arange(1, len(arr) + 1)[keep]
    slope, _ = np.polyfit(np.log(n), np.log(arr[keep]), 1)
    return float(slope)


def render_reports(reports, seed: int) -> str:
    """One fixed-format record per report; floats at full precision."""
    lines = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"identity={r.identity_name} samples={r.samples} "
            f"max={r.max_residual:.17g} mean={r.mean_residual:.17g} "
            f"threshold={r.threshold:.17g} status={status} seed={seed}"
        )
    return "\n".join(lines) + "\n"
