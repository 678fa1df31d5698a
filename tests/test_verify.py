import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafatou.engine import ConvergenceConfig, incoming_1d
from parafatou.errors import TooFewSamples
from parafatou.germs import (
    INFINITY,
    Point2,
    SkewGerm2D,
    make_germ1d,
    make_skew_germ,
    to_infinity,
)
from parafatou.normal_form import BranchedLog
from parafatou.regions import Sector
from parafatou.sampling import sector_points
from parafatou.verify import (
    abel_residuals,
    decay_exponent,
    direct_branch_check,
    duality_check,
    finite_n_identity_check,
    lambda_scaling_check,
    render_reports,
    transport_check,
)

CFG = ConvergenceConfig(tol=1e-10)


@pytest.fixture(scope="module")
def quad():
    return make_germ1d("z^2/(z - 1)", order=12, chart=INFINITY)


@pytest.fixture(scope="module")
def special():
    return to_infinity(make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12))


# ------------------------------------------------------------- reports


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
             max_size=12),
    st.floats(min_value=1e-6, max_value=5.0),
)
def test_report_invariant(residuals, threshold):
    """failures is nonempty exactly when max_residual >= threshold."""
    def step(p):
        return p + 1 + residuals[int(p.real)]

    rep = abel_residuals(lambda p: p, step, 1,
                         [complex(k) for k in range(len(residuals))],
                         threshold=threshold)
    assert rep.samples == len(residuals)
    assert rep.max_residual == pytest.approx(max(residuals), abs=1e-9)
    assert bool(rep.failures) == (rep.max_residual >= rep.threshold)
    assert rep.passed == (not rep.failures)


def test_render_deterministic(quad):
    points = [-20.0, -25 + 3j, -18 - 2j]
    one = render_reports([duality_check(quad, 1, points, cfg=CFG)], seed=11)
    two = render_reports([duality_check(quad, 1, points, cfg=CFG)], seed=11)
    assert one == two
    assert "identity=inverse-duality" in one
    assert "status=pass" in one
    assert "seed=11" in one


def test_render_marks_failure(quad):
    rep = direct_branch_check(quad, 1, [-20.0], n=10_000,
                              log=BranchedLog(-math.pi))
    text = render_reports([rep], seed=0)
    assert "status=FAIL" in text


# ------------------------------------------------------- abel residuals


def test_translation_abel_exact():
    g = make_germ1d("z + 1", order=8, chart=INFINITY)
    rep = abel_residuals(lambda p: incoming_1d(g, 0, p, CFG), g, 1,
                         [30.0, 40 + 5j, -20 + 60j])
    assert rep.max_residual == 0.0
    assert rep.passed


def test_quadratic_abel(quad):
    points = sector_points(Sector(radius=20.0), 8, seed=5)
    rep = abel_residuals(lambda p: incoming_1d(quad, 1, p, CFG), quad, 1,
                         list(points), cfg=CFG)
    assert rep.passed
    assert rep.max_residual < 1e-8
    assert rep.mean_residual <= rep.max_residual


def test_abel_annotates_escape(quad):
    rep = abel_residuals(lambda p: incoming_1d(quad, 1, p, CFG), quad, 1,
                         [-5.0], threshold=1e-3)
    assert not rep.passed
    assert rep.max_residual == math.inf
    point, reason = rep.failures[0]
    assert point == -5.0
    assert "escaped" in reason


@pytest.mark.parametrize("points", [[30.0, 25 + 6j], [25 + 6j, 30.0]])
def test_nan_residual_is_a_failure(quad, points):
    """A NaN residual fails the report wherever it sits in the sample."""
    def phi(p):
        if complex(p).imag != 0:
            return complex("nan")
        return incoming_1d(quad, 1, p, CFG)

    rep = abel_residuals(phi, quad, 1, points, cfg=CFG)
    assert not rep.passed
    assert rep.failures == ((25 + 6j, math.inf),)
    assert rep.max_residual == math.inf
    assert rep.mean_residual < 1e-8


def test_wrong_alpha_control(quad):
    """A bad residue never settles; the report must say so loudly."""
    short = ConvergenceConfig(tol=1e-10, n_max=20_000)
    rep = abel_residuals(lambda p: incoming_1d(quad, 2, p, short), quad, 1,
                         [40.0, 35 + 5j], threshold=1e-3)
    assert not rep.passed
    assert rep.max_residual > 1e-3
    assert all("max_iter" in reason for _, reason in rep.failures)


# ------------------------------------------------------------- duality


def test_duality_translation_exact():
    g = make_germ1d("z + 1", order=8, chart=INFINITY)
    rep = duality_check(g, 0, [-30.0, -40 + 5j])
    assert rep.max_residual == 0.0


def test_duality_quadratic(quad):
    rep = duality_check(quad, 1, [-20.0, -25 + 3j, -18 - 2j, -30 + 7j],
                        cfg=CFG)
    assert rep.passed
    assert rep.max_residual < 1e-7


def test_direct_branch_agreement(quad):
    rep = direct_branch_check(quad, 1, [-20.0, -15 + 4j], n=100_000)
    assert rep.passed
    assert rep.max_residual < 1e-3


def test_direct_branch_annotates_failed_inversion():
    """A Newton failure inside the outgoing limit is a recorded failure."""
    g = make_germ1d("z + 1 + 100/z", order=12, chart=INFINITY)
    rep = direct_branch_check(g, 100, [-9 - 100j * math.pi], n=10)
    assert not rep.passed
    assert rep.max_residual == math.inf
    point, reason = rep.failures[0]
    assert point == -9 - 100j * math.pi
    assert "escaped" in reason


def test_direct_branch_wrong_cut_control(quad):
    """The lower-cut claim fails by a full turn when fed the upper cut."""
    rep = direct_branch_check(quad, 1, [-20.0, -15 + 4j], n=10_000,
                              log=BranchedLog(-math.pi))
    assert not rep.passed
    assert rep.max_residual > 1.0


# ----------------------------------------------------------- transport


def test_transport_identity(quad):
    rep = transport_check(lambda w: w, quad, quad, [40.0, 35 + 5j, 50 - 3j],
                          cfg=CFG, coordinate=(1, 1))
    assert rep.max_residual == 0.0


def test_transport_scaling_pair():
    """eta(z) = -z/2 carries z - z^2 onto z + 2 z^2, exactly."""
    F = make_germ1d("z + 2*z^2", order=8)
    G = make_germ1d("z - z^2", order=8)
    rep = transport_check(lambda z: -z / 2, F, G,
                          [0.02, 0.03 + 0.01j, -0.04j, 0.05 - 0.02j],
                          threshold=1e-12)
    assert rep.max_residual == 0.0


def test_transport_translation_pair(quad):
    """Shifting the chart by c keeps the coordinate, up to the offset c."""
    shifted = make_germ1d("(z^2 + 2*z + 2)/(z + 1)", order=12,
                          chart=INFINITY)
    eta = lambda w: w + 2
    points = [40.0, 35 + 5j, 50 - 3j, 45 + 1j]
    rep = transport_check(eta, quad, shifted, points, cfg=CFG,
                          coordinate=(1, 1))
    assert rep.passed
    assert rep.max_residual < 1e-8
    offset = (incoming_1d(quad, 1, eta(points[0]), CFG).value
              - incoming_1d(shifted, 1, points[0], CFG).value)
    assert abs(offset - 2) < 1e-7


def test_transport_restricted_sector(quad):
    """The same identity holds on points drawn from one narrow sector."""
    shifted = make_germ1d("(z^2 + 2*z + 2)/(z + 1)", order=12,
                          chart=INFINITY)
    points = sector_points(Sector(radius=30.0, opening=0.6), 6, seed=3)
    rep = transport_check(lambda w: w + 2, quad, shifted, list(points),
                          cfg=CFG, coordinate=(1, 1))
    assert rep.passed
    assert rep.max_residual < 1e-7


def test_lambda_scaling(quad):
    for lam in (2, 1j):
        rep = lambda_scaling_check(quad, 1, lam, [40.0, 35 + 5j], cfg=CFG)
        assert rep.passed
        assert rep.max_residual < 1e-7


# ------------------------------------------------------- finite stages


def test_finite_n_translation_exact():
    base = make_germ1d("z + 1", order=8, chart=INFINITY)
    T = SkewGerm2D(base, "w + 1", None, INFINITY)
    pts = [Point2(30 + 2j, 25 - 1j, INFINITY), Point2(50.0, 40.0, INFINITY)]
    rep = finite_n_identity_check(T, [1, 3, 10], pts)
    assert rep.max_residual == 0.0


def test_finite_n_special(special):
    pts = [Point2(60 + 4j, 55 - 3j, INFINITY), Point2(70.0, 65 + 6j, INFINITY)]
    rep = finite_n_identity_check(special, [1, 3, 10], pts, threshold=1e-9)
    assert rep.passed
    assert rep.max_residual < 1e-9
    assert rep.samples == 6


def test_finite_n_annotates_divergence(special):
    """A point that blows up mid-stage is reported, not dropped."""
    pts = [Point2(2.0, 1.5, INFINITY)]
    rep = finite_n_identity_check(special, [10], pts, threshold=1e-9)
    assert not rep.passed
    assert rep.max_residual == math.inf
    (_, reason), = rep.failures
    assert "NewtonDiverged" in reason


# ---------------------------------------------------------------- decay


def test_decay_exponent_synthetics():
    assert decay_exponent([1 / n**2 for n in range(1, 41)]) == \
        pytest.approx(-2.0, abs=0.01)
    assert decay_exponent([1 / n for n in range(1, 41)]) == \
        pytest.approx(-1.0, abs=0.01)
    with pytest.raises(TooFewSamples):
        decay_exponent([1.0, 0.5, 0.0, 0.0])
