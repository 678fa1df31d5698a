import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafatou.errors import (
    ChartMismatch,
    NewtonDiverged,
    NonFiniteValue,
    NonvanishingConstant,
    NotNormalized,
    NotTangentToIdentity,
)
from parafatou.engine import (
    ConvergenceConfig,
    _outside_sector,
    build_general_pipeline,
)
from parafatou.expressions import parse_expr, parse_map_file, to_series2
from parafatou.germs import (
    Germ1D,
    Point2,
    SkewGerm2D,
    _finite,
    fiber_limit_map,
    make_germ1d,
    make_skew_germ,
    _inverse_tol,
    newton,
    reciprocal_transport,
    to_infinity,
)
from parafatou.regions import make_regions
from parafatou.sampling import region_points
from parafatou.series import INFINITY, ORIGIN

MAPS = sorted((Path(__file__).resolve().parent.parent / "maps").glob("*.map"))


def special_map(order=12):
    return make_skew_germ("z/(1+z)", "w - w^2 + w^3", order)


def translation_at_infinity(fiber="w + 1", order=8):
    base = make_germ1d("z + 1", order, chart=INFINITY)
    return SkewGerm2D(base, fiber, None, chart=INFINITY)


def test_point_aliases():
    p = Point2(1 + 2j, 3j, INFINITY)
    assert p.u == 1 + 2j and p.v == 3j
    assert p.as_tuple() == (1 + 2j, 3j)


def test_evaluate_rational_example():
    F = make_skew_germ("z/(1+z)", "w - w^2", 8)
    q = F.evaluate(Point2(0.1, 0.1))
    assert abs(q.z - 0.1 / 1.1) < 1e-15
    assert abs(q.w - 0.09) < 1e-15
    assert F.evaluate(Point2(0, 0)).as_tuple() == (0, 0)


def test_evaluate_translation():
    G = translation_at_infinity()
    q = G.evaluate(Point2(5, 7, INFINITY))
    assert q.as_tuple() == (6, 8)
    assert q.chart == INFINITY


def test_evaluate_chart_mismatch():
    F = special_map()
    with pytest.raises(ChartMismatch):
        F.evaluate(Point2(0.1, 0.1, INFINITY))


def test_evaluate_nonfinite_at_pole():
    F = make_skew_germ("z/(1+z)", "w - w^2", 8)
    with pytest.raises(NonFiniteValue):
        F.evaluate(Point2(-1.0, 0.1))


def test_skew_invariance_first_coordinate_bit_identical():
    F = special_map()
    z0 = 0.031 + 0.007j
    first = F.evaluate(Point2(z0, 0.001)).z
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.04
        assert F.evaluate(Point2(z0, w)).z == first


def test_local_inverse_translation():
    G = translation_at_infinity()
    q = G.local_inverse(Point2(6, 8, INFINITY))
    assert abs(q.z - 5) < 1e-12 and abs(q.w - 7) < 1e-12


def test_local_inverse_round_trip():
    F = make_skew_germ("z/(1+z)", "w - w^2", 8)
    p = F.evaluate(Point2(0.1, 0.1))
    q = F.local_inverse(p, guess=Point2(0.1, 0.1))
    assert abs(q.z - 0.1) < 1e-12 and abs(q.w - 0.1) < 1e-12
    assert F.local_inverse(Point2(0, 0)).as_tuple() == (0, 0)


def test_evaluate_after_inverse_identity():
    F = special_map()
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Point2(
            (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.05,
            (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.05,
        )
        q = F.local_inverse(p)
        r = F.evaluate(q)
        assert abs(r.z - p.z) < 1e-10 and abs(r.w - p.w) < 1e-10


def test_newton_diverged_flat_fiber():
    F = make_skew_germ("z/(1+z)", "w - w^2", 8)
    with pytest.raises(NewtonDiverged) as exc:
        F.local_inverse(Point2(0.01, 10.0), guess=Point2(0.01, 0.5))
    assert exc.value.last_value is not None


def test_newton_diverged_unreachable_base_target():
    F = make_skew_germ("z/(1+z)", "w - w^2", 8)
    with pytest.raises(NewtonDiverged):
        F.local_inverse(Point2(1.0, 0.0), guess=Point2(1.0, 0.0))


def test_constructor_validation():
    with pytest.raises(NotTangentToIdentity):
        make_skew_germ("2*z", "w - w^2", 6)
    with pytest.raises(NonvanishingConstant):
        make_skew_germ("z - z^2", "0.5 + w - w^2", 6)
    with pytest.raises(NotTangentToIdentity):
        make_skew_germ("z - z^2", "w + z - w^2", 6)


def test_to_infinity_requires_normalized_coefficients():
    F = make_skew_germ("z - z^2", "w - 0.7*w^2", 8)
    with pytest.raises(NotNormalized):
        to_infinity(F)


def test_to_infinity_special_base_exact_translation():
    G = to_infinity(special_map())
    assert G.chart == INFINITY
    u = 12345.5 + 17j
    assert G.first(u) == u + 1
    assert G.first.jet.coeffs[0] == 1
    assert all(c == 0 for c in G.first.jet.coeffs[1:])


def test_to_infinity_quadratic_pair_all_ones():
    F = make_skew_germ("z - z^2", "w - w^2", 10)
    G = to_infinity(F)
    np.testing.assert_allclose(
        np.array(G.first.jet.coeffs, dtype=complex),
        np.ones(len(G.first.jet.coeffs)),
        atol=1e-12,
    )
    ginf = fiber_limit_map(G, order=6)
    np.testing.assert_allclose(
        np.array(ginf.jet.coeffs, dtype=complex), np.ones(7), atol=1e-12
    )


def test_to_infinity_round_trip_pointwise():
    F = special_map()
    G = to_infinity(F)
    p = Point2(0.01, 0.01)
    q = G.evaluate(Point2(1 / p.z, 1 / p.w, INFINITY))
    direct = F.evaluate(p)
    assert abs(1 / q.z - direct.z) < 1e-12
    assert abs(1 / q.w - direct.w) < 1e-12


def test_reciprocal_transport_involution():
    e = parse_expr("z/(1+z)")
    twice = reciprocal_transport(reciprocal_transport(e))
    x = 0.37 + 0.12j
    from parafatou.expressions import ev

    assert abs(ev(twice, {"z": x}) - ev(e, {"z": x})) < 1e-14


def test_fiber_limit_translation():
    G = translation_at_infinity("w + 1")
    g = fiber_limit_map(G)
    assert g.chart == INFINITY
    assert abs(g(3.7 + 0.4j) - (4.7 + 0.4j)) < 1e-14
    assert abs(g.jet.coeffs[0] - 1) < 1e-14
    assert all(abs(c) < 1e-14 for c in g.jet.coeffs[1:])


def test_fiber_limit_drops_base_terms():
    G = translation_at_infinity("w + 1 + 1/z")
    g = fiber_limit_map(G)
    v = 5.5 - 2j
    assert abs(g(v) - (v + 1)) < 1e-14

    G2 = translation_at_infinity("w + 1 + 1/w + w/z^4")
    g2 = fiber_limit_map(G2, order=6)
    v = 100 + 3j
    assert abs(g2(v) - (v + 1 + 1 / v)) < 1e-13
    np.testing.assert_allclose(
        np.array(g2.jet.coeffs, dtype=complex),
        [1, 1, 0, 0, 0, 0, 0],
        atol=1e-13,
    )


def test_fiber_limit_of_transported_cubic():
    # w - w^2 + w^3 transported to infinity has the period 6 tail.
    G = to_infinity(special_map())
    g = fiber_limit_map(G, order=7)
    np.testing.assert_allclose(
        np.array(g.jet.coeffs, dtype=complex),
        [1, 0, -1, -1, 0, 1, 1, 0],
        atol=1e-12,
    )


def test_fiber_limit_mixed_term():
    F = make_skew_germ("z - z^2", "w - w^2 + z^2*w^2", 10)
    g = fiber_limit_map(to_infinity(F), order=5)
    np.testing.assert_allclose(
        np.array(g.jet.coeffs, dtype=complex), np.ones(6), atol=1e-12
    )


def test_germ1d_local_inverse_scalar():
    lam = make_germ1d("z/(1+z)", 8)
    y = lam(0.07)
    x = lam.local_inverse(y)
    assert abs(x - 0.07) < 1e-13


def test_jet2_matches_series_expansion():
    F = make_skew_germ("z - z^2", "w - w^2 + z^2*w^2", 9)
    ref = to_series2(parse_expr("w - w^2 + z^2*w^2"), 9)
    assert np.array_equal(F.jet2.coeffs, ref.coeffs)
    assert F.a2 == -1 and F.b2 == -1


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.05, allow_nan=False,
                       allow_infinity=False),
    st.complex_numbers(max_magnitude=0.05, allow_nan=False,
                       allow_infinity=False),
)
def test_inverse_round_trip_property(z, w):
    F = special_map.cached if hasattr(special_map, "cached") else None
    if F is None:
        F = special_map()
        special_map.cached = F
    p = Point2(z, w)
    q = F.local_inverse(p)
    r = F.evaluate(q)
    assert abs(r.z - p.z) < 1e-10
    assert abs(r.w - p.w) < 1e-10


def test_compiled_scalar_division_by_zero_is_nonfinite():
    g = make_germ1d("z/(1 - z)", 6)
    F = make_skew_germ("z/(1 + z)", "w/(1 - w)", 6)
    for x in (1.0, 1 + 0j):
        with pytest.raises(NonFiniteValue):
            g(x)
        with pytest.raises(NonFiniteValue):
            F.fiber(0.1 + 0j, x)
        with pytest.raises(NonFiniteValue):
            F.evaluate(Point2(0.1 + 0j, x))


def test_scalar_infinite_or_nan_results_are_refused():
    g = make_germ1d("z + z*z", 6)
    F = make_skew_germ("z + z*z", "w + w*w", 6)
    nan = complex(math.nan, 0.0)
    for bad in (1e200 + 0j, 1e200, nan, math.nan):
        with pytest.raises(NonFiniteValue):
            g(bad)
        with pytest.raises(NonFiniteValue):
            F.evaluate(Point2(0.1 + 0j, bad))
    assert _finite(1.0) and _finite(2 - 3j) and _finite(np.complex128(1j))
    for bad in (math.inf, nan, complex(1, math.inf), np.complex128(nan),
                np.array([1.0, math.inf])):
        assert not _finite(bad)


@pytest.mark.parametrize("center", [0.0, np.pi])
def test_outside_sector_verdicts(center):
    cfg = ConvergenceConfig(radius=10.0)

    def at(r, angle):
        return r * complex(math.cos(center + angle), math.sin(center + angle))

    edge = 0.75 * np.pi
    cases = [
        (complex(math.nan, 0.0), True),
        (complex(math.inf, 1.0), True),
        (at(4.99, 0.0), True),            # inside radius/2
        (at(5.01, 0.0), False),
        (at(0.99e15, 0.3), False),
        (at(1.01e15, 0.3), True),         # past the divergence guard
        (at(50.0, edge - 1e-9), False),
        (at(50.0, edge + 1e-9), True),
        (at(50.0, -edge + 1e-9), False),
        (at(50.0, -edge - 1e-9), True),
    ]
    outside = _outside_sector(cfg, center)
    for x, verdict in cases:
        assert outside(x) is verdict, x
        assert outside(np.complex128(x)) is verdict, x
    # integers take the scalar path and give a Python bool too
    sign = round(math.cos(center))
    for x, verdict in ((50 * sign, False), (-50 * sign, True), (4, True),
                       (np.int64(50 * sign), False), (0, True)):
        assert outside(x) is verdict, x


@pytest.mark.parametrize("center", [0.0, np.pi, 2.0])
def test_outside_sector_arrays_give_the_scalar_verdicts(center):
    """The verdict cases above, and seeded points within 1e-12 of the
    radius and angle edges, as one array: each element's scalar verdict."""
    cfg = ConvergenceConfig(radius=10.0)
    outside = _outside_sector(cfg, center)
    edge = 0.75 * np.pi
    rng = np.random.default_rng(11)
    n = 1000
    near = rng.uniform(-1e-12, 1e-12, n)
    radii = np.concatenate([5.0 * (1 + near), rng.uniform(5.5, 1e3, 2 * n),
                            1e15 * (1 + near)])
    angles = np.concatenate([rng.uniform(-edge, edge, n),
                             edge + near, -edge - near[::-1],
                             rng.uniform(-edge, edge, n)])
    x = radii * np.exp(1j * (center + angles))
    fixed = [complex(math.nan, 0.0), complex(math.inf, 1.0),
             complex(1.0, -math.inf), 0j, 5.0, -5.0, 50.0, -50.0]
    x = np.concatenate([fixed, x, [p * complex(np.exp(1j * center))
                                   for p in (4.99, 5.01, 0.99e15, 1.01e15)]])
    got = outside(x)
    assert got.dtype == bool and got.shape == x.shape
    want = [outside(v) for v in x.tolist()]
    assert got.tolist() == want
    # both verdicts occur at each edge: radius, the two angles, the guard
    for k in range(4):
        assert 0 < sum(want[8 + k * n:8 + (k + 1) * n]) < n, k


@pytest.mark.parametrize("reason, f, df, target, guess, tol", [
    # zero derivative at the guess; a pole of the derivative; nan
    ("flat", lambda x: x * x, lambda x: 2 * x, 1.0, 0.0, 1e-12),
    ("flat", lambda x: x, lambda x: 1 / x, 1.0, 0j, 1e-12),
    ("flat", lambda x: x, lambda x: complex(math.nan, 0.0), 0.0, 1.0,
     1e-12),
    # the first step lands 1e9 away, ten times 1e8 * max(1, |guess|)
    ("bound", lambda x: 1e-9 * x + 1, lambda x: 1e-9, 0.0, 0.0, 1e-12),
    # a double root converges linearly: 2^-50 after the whole budget
    ("steps", lambda x: x * x, lambda x: 2 * x, 0.0, 1.0, 1e-300),
])
def test_newton_failure_kinds(reason, f, df, target, guess, tol):
    with pytest.raises(NewtonDiverged) as exc:
        newton(f, df, target, guess, tol)
    assert exc.value.reason == reason
    assert exc.value.last_value is not None


# ------------------------------------------------------- newton on arrays


@pytest.fixture(scope="module", params=MAPS, ids=lambda p: p.stem)
def pipeline_germ(request):
    """The germ upstairs of a map's pipeline, in the infinity chart."""
    parsed = parse_map_file(request.param.read_text())
    F = make_skew_germ(parsed["lambda"], parsed["fiber"], order=12)
    return build_general_pipeline(F, 4).germ


@pytest.mark.parametrize("radius", [10.0, 500.0])
def test_array_inverses_match_scalar_solves(pipeline_germ, radius):
    """Each element of an array solve lies within its own tol of that
    element's scalar solve, for the base and for the whole inverse."""
    G = pipeline_germ
    u, v = region_points(make_regions(radius, INFINITY)["o"], 240, seed=1)
    z0 = G.first.local_inverse(u)
    q = G.local_inverse(Point2(u, v, INFINITY))
    assert z0.shape == q.z.shape == q.w.shape == u.shape
    for k, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        qs = G.local_inverse(Point2(a, b, INFINITY))
        assert abs(z0[k] - G.first.local_inverse(a)) <= _inverse_tol(a)
        assert abs(q.z[k] - qs.z) <= _inverse_tol(a)
        assert abs(q.w[k] - qs.w) <= _inverse_tol(b)


def test_newton_array_done_element_is_not_stepped_again():
    """Element 0 is done after a few steps at its loose tol, while element
    1 runs on; element 2 is done at its guess, where the derivative is 0."""
    def sq(x):
        return x * x

    def dsq(x):
        return 2 * x

    target = np.array([4 + 0j, 4 + 0j, 0j])
    guess = np.array([3 + 1j, 100 + 1j, 0j])
    tol = np.array([1e-1, 1e-12, 1e-12])
    x = newton(sq, dsq, target, guess, tol)
    for k in range(3):
        alone = newton(sq, dsq, target[k:k + 1], guess[k:k + 1], tol[k:k + 1])
        assert alone[0] == x[k]
    # element 0 stopped short of the tol the others met
    assert 1e-12 < abs(x[0] ** 2 - 4) <= 1e-1
    assert abs(x[1] ** 2 - 4) <= 1e-12
    assert x[2] == 0


@pytest.mark.parametrize("reason, f, df, target, guess, tol", [
    # element 1 has a zero derivative at its guess
    ("flat", lambda x: x * x, lambda x: 2 * x, [4, 1, 9], [1.5, 0, 2.5],
     1e-12),
    # element 0 is done at once; element 1's derivative divides by zero
    ("flat", lambda x: x * x, lambda x: 2 / (1 / x), [1, 1, 9], [1, 0, 2.5],
     1e-12),
    # element 1's first step lands about 5e9 away, past its own bound
    # 1e8 * max(1, 1e-10) though within element 2's 1e8 * 99
    ("bound", lambda x: x * x, lambda x: 2 * x, [4, 1, 1e4],
     [1.5, 1e-10, 99], 1e-12),
    # element 1 is a double root and converges linearly, to 2^-50 only
    ("steps", lambda x: x * x, lambda x: 2 * x, [4, 0, 9], [1.5, 1, 2.5],
     [1e-12, 1e-300, 1e-12]),
])
def test_newton_array_one_bad_element(reason, f, df, target, guess, tol):
    target = np.array(target, dtype=complex)
    guess = np.array(guess, dtype=complex)
    tol = np.asarray(tol)
    good = [0, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonDiverged) as exc:
            newton(f, df, target, guess, tol)
        # the same elements without the bad one all converge
        x = newton(f, df, target[good], guess[good],
                   tol[good] if tol.ndim else tol)
    assert exc.value.reason == reason
    assert exc.value.last_value.shape == guess.shape
    assert np.all(np.abs(f(x) - target[good]) <= 1e-12)
