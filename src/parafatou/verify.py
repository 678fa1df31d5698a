"""Residual measurement for every identity the coordinates must satisfy.

Each check walks a fixed set of sample points, evaluates both sides of one
functional equation with the engines, and aggregates the gaps into a
ResidualReport. Reports never hide a bad point: engine failures become
annotated entries with an infinite residual instead of being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    CONVERGED,
    DEFAULT_CONFIG,
    _invert_limit,
    abel_corrections,
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


def _aggregate(name: str, entries, threshold: float) -> ResidualReport:
    """entries: (point, residual float or reason string) pairs."""
    residuals = []
    failures = []
    for point, outcome in entries:
        if isinstance(outcome, str):
            residuals.append(math.inf)
            failures.append((point, outcome))
        else:
            residuals.append(float(outcome))
            if outcome >= threshold:
                failures.append((point, float(outcome)))
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
    thr = _default_threshold(threshold, cfg)
    step = germ.evaluate if hasattr(germ, "evaluate") else germ
    entries = []
    for p in points:
        try:
            lhs = _value_of(evaluator(step(p)))
            rhs = _value_of(evaluator(p))
            entries.append((p, _gap(lhs, rhs, zeta)))
        except FatouError as err:
            entries.append((p, f"{type(err).__name__}: {err}"))
    return _aggregate(name, entries, thr)


def parametrization_residuals(parametrization, germ, zeta, points,
                              threshold=None, cfg=None,
                              name="outgoing-diagram") -> ResidualReport:
    """|F(P(m)) - P(m + zeta)| over the sample.

    The mirror of abel_residuals for maps that carry model translations
    into the dynamics instead of the other way around.
    """
    thr = _default_threshold(threshold, cfg)
    step = germ.evaluate if hasattr(germ, "evaluate") else germ
    entries = []
    for m in points:
        try:
            here = _value_of(parametrization(m))
            there = _value_of(parametrization(_shift(m, zeta)))
            lhs = step(here)
            entries.append((m, _gap(lhs, there, 0)))
        except FatouError as err:
            entries.append((m, f"{type(err).__name__}: {err}"))
    return _aggregate(name, entries, thr)


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
    thr = _default_threshold(threshold, cfg)
    log = log or BranchedLog(0.0)
    dual = dual_germ_1d(g)

    def psi(target):
        return _value_of(_invert_limit(
            lambda x: incoming_1d(g, alpha, x, cfg, log),
            abel_corrections(g.jet, alpha), target))

    entries = []
    for w in points:
        try:
            psi0 = psi(-w)
            psi1 = psi(-(w + 1))
            res_a = abs(g.local_inverse(psi0, guess=psi0 - 1) - psi1)

            z = _value_of(outgoing_1d(g, alpha, w, cfg))
            zp = g.local_inverse(z, guess=z - 1)
            chi0 = _value_of(incoming_1d(dual, -alpha, -z, cfg, log))
            chi1 = _value_of(incoming_1d(dual, -alpha, -zp, cfg, log))
            res_b = abs(chi1 - chi0 - 1)
            entries.append((w, max(res_a, res_b)))
        except FatouError as err:
            entries.append((w, f"{type(err).__name__}: {err}"))
    return _aggregate("inverse-duality", entries, thr)


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
    entries = []
    shift = 1j * math.pi * alpha
    for w in points:
        try:
            direct = outgoing_1d_direct(g, alpha, w, n, log=log)
            newton = _value_of(outgoing_1d(g, alpha, w + shift, cfg))
            entries.append((w, abs(direct - newton)))
        except FatouError as err:
            entries.append((w, f"{type(err).__name__}: {err}"))
    return _aggregate("outgoing-direct-branch", entries, float(threshold))


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
    thr = _default_threshold(threshold, cfg)
    stepF = F.evaluate if hasattr(F, "evaluate") else F
    stepG = G.evaluate if hasattr(G, "evaluate") else G
    entries = []
    anchor = None
    for p in points:
        try:
            res = _gap(eta(stepG(p)), stepF(eta(p)), 0)
            if coordinate is not None:
                alpha_f, alpha_g = coordinate
                diff = (_value_of(incoming_1d(F, alpha_f, eta(p), cfg))
                        - _value_of(incoming_1d(G, alpha_g, p, cfg)))
                if anchor is None:
                    anchor = diff
                res = max(res, abs(diff - anchor))
            entries.append((p, res))
        except FatouError as err:
            entries.append((p, f"{type(err).__name__}: {err}"))
    return _aggregate("chain-transport", entries, thr)


def lambda_scaling_check(g, alpha, lam, points, threshold=None,
                         cfg=None) -> ResidualReport:
    """Rescaled coordinates translate by the rescaled step."""
    cfg = cfg or DEFAULT_CONFIG
    thr = _default_threshold(threshold, cfg)
    entries = []
    for w in points:
        try:
            a = _value_of(incoming_1d(g, alpha, w, cfg))
            b = _value_of(incoming_1d(g, alpha, g(w), cfg))
            entries.append((w, abs(lam * b - lam * a - lam)))
        except FatouError as err:
            entries.append((w, f"{type(err).__name__}: {err}"))
    return _aggregate("scaled-translation", entries, thr)


def finite_n_identity_check(G, n_list, points, threshold=None,
                            cfg=None) -> ResidualReport:
    """Exact finite-stage inverses through the half turn, at every n.

    The outgoing stage of G undoes the incoming stage of the swapped dual
    germ exactly, and the two mixed stages pair the same way; residuals
    are float-roundoff plus Newton inversion error, uniformly in n.
    """
    cfg = cfg or DEFAULT_CONFIG
    thr = _default_threshold(threshold, cfg)
    H = dual_step(G)
    entries = []
    for p in points:
        for n in n_list:
            try:
                q = outgoing_2d_finite(
                    G, eta_point(incoming_2d_finite(H, eta_point(p), n)), n)
                res_io = max(abs(q.z - p.z), abs(q.w - p.w))
                r = psi_a_finite(
                    G, eta_point(psi_b_finite(H, eta_point(p), n)), n)
                res_ab = max(abs(r.z - p.z), abs(r.w - p.w))
                entries.append(((p, n), max(res_io, res_ab)))
            except FatouError as err:
                entries.append(((p, n), f"{type(err).__name__}: {err}"))
    return _aggregate("finite-stage-inverse", entries, thr)


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
