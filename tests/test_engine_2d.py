"""Coordinate engines for skew products already in special form."""

import pytest

from parafatou.engine import (
    CONVERGED,
    ESCAPED,
    MAX_ITER,
    ConvergenceConfig,
    Corrections,
    FatouValue,
    _invert_limit,
    dual_step,
    eta_point,
    incoming_2d_finite,
    incoming_2d_special,
    outgoing_2d_finite,
    outgoing_2d_special,
    psi_a,
    psi_a_finite,
    psi_b,
    psi_b_finite,
)
from parafatou.errors import WrongForm
from parafatou.germs import (
    INFINITY,
    Point2,
    SkewGerm2D,
    fiber_limit_map,
    make_germ1d,
    make_skew_germ,
    to_infinity,
)
from parafatou.regions import make_regions
from parafatou.sampling import region_points

CFG = ConvergenceConfig(tol=1e-10)


@pytest.fixture(scope="module")
def G():
    """Base z/(1+z) with a cubic fiber; exact translation upstairs."""
    return to_infinity(make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12))


def translation_2d():
    base = make_germ1d("z + 1", order=8, chart=INFINITY)
    return SkewGerm2D(base, "w + 1", None, chart=INFINITY, check=False)


def test_translation_short_circuits():
    T = translation_2d()
    p = Point2(40 + 3j, -20 + 5j, INFINITY)
    for engine in (incoming_2d_special, outgoing_2d_special, psi_a, psi_b):
        fv = engine(T, p, CFG)
        assert fv.verdict == CONVERGED
        assert fv.iterations == 1
        assert fv.value == (p.z, p.w)


def test_incoming_first_coordinate_exact(G):
    p = Point2(50 + 1j, 50 + 0j, INFINITY)
    fv = incoming_2d_special(G, p, CFG)
    assert fv.verdict == CONVERGED
    assert fv.value[0] == p.z


def test_incoming_abel_residual(G):
    p = Point2(50 + 0j, 50 + 0j, INFINITY)
    a = incoming_2d_special(G, p, CFG)
    b = incoming_2d_special(G, G.evaluate(p), CFG)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert abs(b.value[0] - a.value[0] - 1) < 1e-9
    assert abs(b.value[1] - a.value[1] - 1) < 1e-8


def test_incoming_abel_residual_sampled(G):
    regions = make_regions(10.0)
    u, v = region_points(regions["i"], 5, seed=7)
    for uk, vk in zip(u, v):
        p = Point2(uk, vk, INFINITY)
        a = incoming_2d_special(G, p, CFG)
        b = incoming_2d_special(G, G.evaluate(p), CFG)
        assert a.verdict == CONVERGED
        assert abs(b.value[1] - a.value[1] - 1) < 1e-8


def test_outgoing_diagram(G):
    p = Point2(-50 + 0j, -50 + 0j, INFINITY)
    a = outgoing_2d_special(G, p, CFG)
    b = outgoing_2d_special(G, Point2(p.z + 1, p.w + 1, INFINITY), CFG)
    assert a.verdict == CONVERGED
    img = G.evaluate(Point2(a.value[0], a.value[1], INFINITY))
    assert abs(img.z - b.value[0]) < 1e-9
    assert abs(img.w - b.value[1]) < 1e-8


def test_outgoing_diagram_sampled(G):
    regions = make_regions(10.0)
    u, v = region_points(regions["o"], 5, seed=11)
    for uk, vk in zip(u, v):
        p = Point2(uk, vk, INFINITY)
        a = outgoing_2d_special(G, p, CFG)
        b = outgoing_2d_special(G, Point2(uk + 1, vk + 1, INFINITY), CFG)
        assert a.verdict == CONVERGED
        img = G.evaluate(Point2(a.value[0], a.value[1], INFINITY))
        assert abs(img.w - b.value[1]) < 1e-7


def test_finite_round_trip_io(G):
    # the finite incoming stage of the swapped-dual germ undoes the
    # finite outgoing stage through the half-turn, exactly, at every n
    H = dual_step(G)
    p = Point2(50 + 2j, 48 - 3j, INFINITY)
    for n in (1, 3, 10):
        q = outgoing_2d_finite(G, eta_point(incoming_2d_finite(H, eta_point(p), n)), n)
        assert abs(q.z - p.z) < 1e-9
        assert abs(q.w - p.w) < 1e-9


def test_finite_round_trip_io_reversed(G):
    H = dual_step(G)
    p = Point2(-50 + 2j, -49 + 1j, INFINITY)
    for n in (1, 3, 10):
        q = incoming_2d_finite(G, eta_point(outgoing_2d_finite(H, eta_point(p), n)), n)
        assert abs(q.z - p.z) < 1e-9
        assert abs(q.w - p.w) < 1e-9


def test_finite_round_trip_ab(G):
    H = dual_step(G)
    p = Point2(50 - 1j, -47 + 2j, INFINITY)
    for n in (1, 3, 10):
        q = psi_a_finite(G, eta_point(psi_b_finite(H, eta_point(p), n)), n)
        assert abs(q.z - p.z) < 1e-9
        assert abs(q.w - p.w) < 1e-9


def test_psi_b_conjugates_to_fiber_limit(G):
    cfg = ConvergenceConfig(tol=1e-8)
    ginf = fiber_limit_map(G)
    p = Point2(50 + 0j, -50 + 0j, INFINITY)
    a = psi_b(G, p, cfg)
    b = psi_b(G, Point2(p.z, p.w + 1, INFINITY), cfg)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert a.value[0] == p.z
    assert abs(b.value[1] - ginf(a.value[1])) < 1e-7


def test_psi_a_conjugates_to_fiber_limit(G):
    cfg = ConvergenceConfig(tol=1e-8)
    ginf = fiber_limit_map(G)
    p = Point2(-50 + 2j, 50 + 1j, INFINITY)
    a = psi_a(G, p, cfg)
    b = psi_a(G, Point2(p.z, ginf(p.w), INFINITY), cfg)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert abs(b.value[1] - a.value[1] - 1) < 1e-7


def test_rejects_non_translation_base():
    G = to_infinity(make_skew_germ("z - z^2", "w - w^2 + w^3", order=12))
    with pytest.raises(WrongForm):
        incoming_2d_special(G, Point2(50, 50, INFINITY), CFG)


def test_rejects_fiber_with_residual_tail():
    # w - w^2 alone leaves a 1/v term upstairs
    G = to_infinity(make_skew_germ("z/(1+z)", "w - w^2", order=12))
    with pytest.raises(WrongForm):
        incoming_2d_special(G, Point2(50, 50, INFINITY), CFG)


def test_rejects_base_log_coupling():
    G = to_infinity(
        make_skew_germ("z/(1+z)", "w - w^2 + w^3 + z*w^2", order=12)
    )
    with pytest.raises(WrongForm):
        psi_b(G, Point2(50, -50, INFINITY), CFG)


def test_small_fiber_escapes(G):
    fv = incoming_2d_special(G, Point2(50, 3, INFINITY), CFG)
    assert fv.verdict == ESCAPED


def test_outgoing_wrong_side_escapes(G):
    fv = incoming_2d_special(G, Point2(50, -50, INFINITY), CFG)
    assert fv.verdict == ESCAPED


def test_outgoing_point_on_incoming_side_escapes_at_once(G):
    p = Point2(50 + 2j, 50 - 3j, INFINITY)
    fv = outgoing_2d_special(G, p, CFG)
    assert fv.verdict == ESCAPED
    assert fv.iterations == 0
    assert fv.value == (p.z, p.w)


def _cycle(target):
    """A limit whose Newton iterates alternate target, target + 1."""
    return lambda x: FatouValue(target - 1 if x == target else target + 1,
                                5, 1e-12, CONVERGED)


@pytest.mark.parametrize("limit, value, iterations, delta, verdict", [
    # the limit itself ends unconverged at the first iterate
    (lambda x: FatouValue(x, 7, 0.5, MAX_ITER), 30 + 1j, 7, 0.5, MAX_ITER),
    # Newton's first step leaves the 1e8 * max(1, |target|) disk
    (lambda x: FatouValue(x + 1e12, 4, 1e-12, CONVERGED),
     30 + 1j - 1e12, 4, float("inf"), ESCAPED),
    # Newton cycles until its step budget runs out
    (_cycle(30 + 1j), 30 + 1j, 5, 1.0, MAX_ITER),
    # a limit that is the identity converges at once
    (lambda x: FatouValue(x, 9, 1e-13, CONVERGED), 30 + 1j, 9, 1e-13,
     CONVERGED),
])
def test_invert_limit_verdicts(limit, value, iterations, delta, verdict):
    fv = _invert_limit(limit, Corrections(0j, ()), 30 + 1j)
    assert fv == FatouValue(value, iterations, delta, verdict)
