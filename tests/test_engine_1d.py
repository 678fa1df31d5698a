"""One-variable coordinate engines: limits, corrections, duality."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parafatou.engine import (
    CONVERGED,
    ESCAPED,
    MAX_ITER,
    ConvergenceConfig,
    Corrections,
    FatouValue,
    abel_corrections,
    dual_germ_1d,
    incoming_1d,
    incoming_1d_trace,
    outgoing_1d,
    outgoing_1d_direct,
)
from parafatou.errors import ChartMismatch, WrongForm
from parafatou.germs import make_germ1d
from parafatou.normal_form import BranchedLog
from parafatou.series import INFINITY, TruncatedSeries1


@pytest.fixture(scope="module")
def quad():
    """z - z^2 moved to the chart at infinity: w + 1 + 1/w + 1/w^2 + ..."""
    return make_germ1d("z^2/(z - 1)", order=12, chart=INFINITY)


CFG = ConvergenceConfig(tol=1e-10)


def test_translation_short_circuit():
    g = make_germ1d("z + 1", order=10, chart=INFINITY)
    assert g.jet.coeff(0) == 1 and g.jet.coeff(1) == 0
    fv = incoming_1d(g, 0.0, 10 + 0j, CFG)
    assert fv.verdict == CONVERGED
    assert fv.iterations == 1
    assert fv.value == 10 + 0j
    assert fv.last_delta == 0.0


def test_abel_equation(quad):
    w = 20 + 0j
    a = incoming_1d(quad, 1.0, w, CFG)
    b = incoming_1d(quad, 1.0, quad(w), CFG)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert abs(b.value - a.value - 1) < 1e-9


def test_abel_equation_off_axis(quad):
    w = 14 + 9j
    a = incoming_1d(quad, 1.0, w, CFG)
    b = incoming_1d(quad, 1.0, quad(w), CFG)
    assert abs(b.value - a.value - 1) < 1e-9


def test_near_ray_point_converges(quad):
    w = 2 * CFG.radius * cmath.exp(1j * (0.75 * math.pi - 0.01))
    fv = incoming_1d(quad, 1.0, w, CFG)
    assert fv.verdict == CONVERGED


def test_wrong_side_escapes(quad):
    fv = incoming_1d(quad, 1.0, -5 + 0j, CFG)
    assert fv.verdict == ESCAPED


def test_wrong_alpha_never_settles(quad):
    cfg = ConvergenceConfig(tol=1e-10, n_max=2000)
    fv = incoming_1d(quad, 2.0, 20 + 0j, cfg)
    assert fv.verdict == MAX_ITER
    assert fv.last_delta > 1e-4


def test_chart_gate():
    g = make_germ1d("z - z^2", order=8)
    with pytest.raises(ChartMismatch):
        incoming_1d(g, 1.0, 20 + 0j, CFG)


def test_correction_coefficients_frozen():
    # g = w + 1 + 1/w + 1/w^2 with alpha = 1. Values frozen from an exact
    # rational expansion done separately (Laurent series of the defect in
    # x = 1/w, with g = w(1 + x + x^2 + x^3)): the bare defect carries
    # x^2/2 - x^3/3, the c1 slot feeds -x^2, and the c2 slot -2 x^3.
    jet = TruncatedSeries1((1, 1, 1, 0, 0), INFINITY)
    cors = abel_corrections(jet, 1.0, K=2)
    assert abs(cors.coeffs[0] - 0.5) < 1e-14
    assert abs(cors.coeffs[1] - (-1.0 / 6.0)) < 1e-14


def test_corrections_flatten_defect():
    jet = TruncatedSeries1((1, 1, 1, 0, 0, 0, 0), INFINITY)

    def defect(cors, w):
        log = BranchedLog(0.0)
        x = w + 1 + 1 / w + 1 / w**2
        return abs(cors.phi(x, log) - cors.phi(w, log) - 1)

    bare = Corrections(1.0, ())
    full = abel_corrections(jet, 1.0, K=4)
    w = 60 + 0j
    assert defect(full, w) < defect(bare, w) * 1e-4


def test_corrections_reject_bad_lead():
    jet = TruncatedSeries1((2, 1, 1), INFINITY)
    with pytest.raises(WrongForm):
        abel_corrections(jet, 1.0)


def test_outgoing_functional_equation(quad):
    w = -20 + 0j
    out = outgoing_1d(quad, 1.0, w, CFG)
    nxt = outgoing_1d(quad, 1.0, w + 1, CFG)
    assert out.verdict == CONVERGED
    assert abs(quad(out.value) - nxt.value) < 1e-9


def test_outgoing_duality_branch(quad):
    # Backward iteration keeps its log on the lower cut; the two
    # parameterizations differ by the half-turn i*pi*alpha inside the
    # argument, and finite-depth backward orbits close that gap at the
    # usual log(n)/n pace.
    for w in (-20 + 0j, -15 + 4j):
        direct = outgoing_1d_direct(quad, 1.0, w, 100_000)
        newton = outgoing_1d(quad, 1.0, w + 1j * math.pi * 1.0, CFG)
        assert newton.verdict == CONVERGED
        assert abs(direct - newton.value) < 1e-3


def test_outgoing_escapes_when_the_dual_newton_is_flat():
    # the dual germ steps by Newton on g(x) = -w from x = -w - 1; at w = 9
    # that guess is -10, where g'(x) = 1 - 100/x^2 vanishes
    g = make_germ1d("z + 1 + 100/z", order=12, chart=INFINITY)
    fv = incoming_1d(dual_germ_1d(g), -100, 9, CFG)
    assert fv.verdict == ESCAPED
    assert fv.iterations == 1
    # outgoing_1d reports the inner limit's step and verdict
    assert outgoing_1d(g, 100, -9, CFG) == FatouValue(-9 + 0j, 1, math.inf,
                                                      ESCAPED)


def test_uncorrected_decay_slope(quad):
    trace = incoming_1d_trace(quad, 1.0, 20 + 0j, 400, CFG)
    diffs = np.abs(np.diff(np.asarray(trace)))
    n = np.arange(1, len(diffs) + 1)
    keep = diffs > 0
    slope = np.polyfit(np.log(n[keep][20:]), np.log(diffs[keep][20:]), 1)[0]
    assert slope <= -1.5


def test_dual_germ_round_trip(quad):
    # dual is w -> -g^{-1}(-w), so g(-dual(w)) lands back on -w
    dual = dual_germ_1d(quad)
    w = 30 + 2j
    y = dual(w)
    assert abs(quad(-y) - (-w)) < 1e-10
    assert abs(dual.jet.coeff(0) - 1) < 1e-12


def test_incoming_monotone_iterations(quad):
    near = incoming_1d(quad, 1.0, 100 + 0j, CFG)
    far = incoming_1d(quad, 1.0, 15 + 0j, CFG)
    assert near.verdict == CONVERGED and far.verdict == CONVERGED
    assert near.iterations <= far.iterations


@settings(max_examples=20, deadline=None)
@given(
    r=st.floats(min_value=15.0, max_value=60.0),
    t=st.floats(min_value=-0.6, max_value=0.6),
)
def test_sector_points_satisfy_abel(quad, r, t):
    w = r * cmath.exp(1j * t * math.pi * 0.75)
    a = incoming_1d(quad, 1.0, w, CFG)
    b = incoming_1d(quad, 1.0, quad(w), CFG)
    assert a.verdict == CONVERGED
    assert abs(b.value - a.value - 1) < 1e-8
