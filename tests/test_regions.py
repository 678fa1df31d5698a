from pathlib import Path

import numpy as np
import pytest

from parafatou.engine import build_general_pipeline
from parafatou.errors import (
    ChartMismatch,
    NewtonDiverged,
    NonFiniteValue,
    NoValidRadius,
)
from parafatou.expressions import parse_map_file
from parafatou.germs import (
    Point2,
    SkewGerm2D,
    make_germ1d,
    make_skew_germ,
    to_infinity,
)
from parafatou.regions import (
    RADIUS_CANDIDATES,
    RADIUS_MARGIN,
    RADIUS_SAMPLES,
    ProductRegion,
    Sector,
    UNeighborhood,
    choose_radius,
    classify,
    make_regions,
)
from parafatou.sampling import (
    halton,
    low_discrepancy,
    region_points,
    sector_points,
)
from parafatou.series import INFINITY, ORIGIN

OPEN = 3 * np.pi / 4
MAPS = sorted((Path(__file__).resolve().parent.parent / "maps").glob("*.map"))


def special_G(order=12):
    return to_infinity(make_skew_germ("z/(1+z)", "w - w^2 + w^3", order))


# ------------------------------------------------------------------ sampling


def test_halton_first_points():
    pts = halton(4, 2)
    np.testing.assert_allclose(pts[:, 0], [1 / 2, 1 / 4, 3 / 4, 1 / 8])
    np.testing.assert_allclose(pts[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9])


def test_low_discrepancy_seeded_and_in_range():
    a = low_discrepancy(64, 4, seed=7)
    b = low_discrepancy(64, 4, seed=7)
    c = low_discrepancy(64, 4, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 1))


def test_sector_points_inside_band():
    s = Sector(20.0, OPEN, -1, INFINITY)
    pts = sector_points(s, 200, seed=3)
    mags = np.abs(pts)
    assert np.all((mags >= 1.25 * 20) & (mags <= 2 * 20))
    assert np.all(s.contains(pts))


def test_region_points_inside():
    reg = make_regions(10.0, INFINITY)["a"]
    u, v = region_points(reg, 300, seed=1)
    assert np.all(reg.mask(u, v))


def test_origin_sector_points_inside():
    s = Sector(0.1, OPEN, 1, ORIGIN)
    pts = sector_points(s, 100, seed=0)
    mags = np.abs(pts)
    assert np.all((mags >= 0.015 - 1e-15) & (mags <= 0.05 + 1e-15))
    assert np.all(s.contains(pts))


# ------------------------------------------------------------- sector basics


def test_sector_validation():
    with pytest.raises(ValueError):
        Sector(-1.0)
    with pytest.raises(ValueError):
        Sector(1.0, opening=np.pi)
    with pytest.raises(ValueError):
        Sector(1.0, direction=2)


def test_sector_membership_boundaries():
    s = Sector(10.0, OPEN, 1, INFINITY)
    assert s.contains(15.0)
    assert not s.contains(5.0)
    assert not s.contains(15.0 * np.exp(1j * OPEN))  # boundary angle
    assert s.contains(15.0 * np.exp(1j * (OPEN - 1e-9)))
    neg = Sector(10.0, OPEN, -1, INFINITY)
    assert neg.contains(-15.0)
    assert not neg.contains(15.0)


def test_origin_sector_excludes_zero():
    s = Sector(0.1, OPEN, 1, ORIGIN)
    assert not s.contains(0.0)
    assert s.contains(0.05)


def test_margin_sign():
    s = Sector(10.0, OPEN, 1, INFINITY)
    assert s.margin(20.0) > 0
    assert s.margin(9.0) < 0
    assert s.margin(20.0 * np.exp(1j * (OPEN + 0.01))) < 0


# ------------------------------------------------------------ product regions


def test_region_tag_consistency():
    with pytest.raises(ValueError):
        ProductRegion(
            Sector(10.0, OPEN, 1, INFINITY),
            Sector(10.0, OPEN, 1, INFINITY),
            "o",
        )


def test_contains_power_cap_example():
    regs = make_regions(10.0, INFINITY, power_cap=2)
    assert regs["i"].contains(Point2(100, 50, INFINITY))
    # 100^3 > 50 holds; shrink the cap's reach instead with a huge v
    big = ProductRegion(
        Sector(10.0, OPEN, 1, INFINITY),
        Sector(10.0, OPEN, 1, INFINITY),
        "i",
        power_cap=1,
    )
    assert not big.contains(Point2(11.0, 11.0**2 + 5, INFINITY))


def test_contains_boundary_angle_false():
    regs = make_regions(10.0, INFINITY)
    p = Point2(100 * np.exp(1j * OPEN), 50.0, INFINITY)
    assert not regs["i"].contains(p)


def test_contains_sign_flip():
    regs = make_regions(10.0, INFINITY)
    assert regs["a"].contains(Point2(-100, 100, INFINITY))
    assert not regs["i"].contains(Point2(-100, 100, INFINITY))


def test_contains_chart_mismatch():
    regs = make_regions(10.0, INFINITY)
    with pytest.raises(ChartMismatch):
        regs["i"].contains(Point2(100, 100, ORIGIN))


# ----------------------------------------------------------------- classify


def test_classify_examples():
    regs = make_regions(0.1, ORIGIN)
    assert classify(Point2(0.05, 0.05), regs) == "i"
    assert classify(Point2(0.05, 0.0), regs) is None
    assert classify(Point2(-0.05, 0.05), regs) == "a"
    assert classify(Point2(0.5, 0.5), regs) is None


def test_classify_overlap_is_deterministic():
    regs = make_regions(0.1, ORIGIN)
    p = Point2(0.05j, 0.05j)  # angles pi/2: inside all four regions
    assert classify(p, regs) == "i"
    # u sits on the overlap ray, v is clearly negative-side: candidates are
    # o and b, equal scores, and the fixed order prefers o
    q = Point2(0.05j, -0.03 + 0.002j)
    assert classify(q, regs) == classify(q, regs)
    assert classify(q, regs) == "o"


def test_classify_total_off_axes():
    # Low-discrepancy polar grids: every off-axis in-radius pair matches
    # at least one region, and axis points match none.
    eps = 0.1
    regs = make_regions(eps, ORIGIN)
    pts = low_discrepancy(512, 2, seed=5)
    vals = eps * np.sqrt(pts[:, 0] * 0.98 + 0.01) * np.exp(
        2j * np.pi * pts[:, 1])
    masks = [
        regs[t].first.contains(vals[:, None])
        & regs[t].second.contains(vals[None, :])
        for t in ("i", "o", "a", "b")
    ]
    union = masks[0] | masks[1] | masks[2] | masks[3]
    assert union.all()
    assert classify(Point2(0.0, 0.05), regs) is None


# ------------------------------------------------------------- choose_radius


def test_choose_radius_translation():
    base = make_germ1d("z + 1", 8, chart=INFINITY)
    G = SkewGerm2D(base, "w + 1", None, chart=INFINITY)
    assert choose_radius(G) == 10.0


def test_choose_radius_special_and_invariance():
    G = special_G()
    R = choose_radius(G)
    assert R <= 100.0
    # frozen on first run of the sampler itself
    assert R == 10.0

    regs = make_regions(R, INFINITY)
    u, v = region_points(regs["i"], 10_000, seed=42)
    u1 = G.first(u)
    v1 = G.fiber(u, v)
    assert np.all(regs["i"].mask(u1, v1))

    uo, vo = region_points(regs["o"], 2_000, seed=43)
    for k in range(0, len(uo), 50):
        q = G.local_inverse(Point2(uo[k], vo[k], INFINITY))
        assert regs["o"].contains(q)


def test_choose_radius_huge_coefficient():
    base = make_germ1d("z + 1", 8, chart=INFINITY)
    # a 10^6-size tail term aimed out of the sector: small radii fail,
    # large ones tame it
    wild = SkewGerm2D(
        base, "w + 1 + (-801144 + 598472i)/w^2", None,
        chart=INFINITY)
    R = choose_radius(wild)
    assert R > 10.0


def test_choose_radius_middle_candidate():
    base = make_germ1d("z + 1", 8, chart=INFINITY)
    # the tail pushes R = 10's outgoing samples back across the sector
    # edge (minimum margin -3.24); at R = 20 it is 3.43
    G = SkewGerm2D(base, "w + 1 + (300+900i)/w^2", None,
                   chart=INFINITY)
    assert choose_radius(G) == 20.0


def _translation_germ(fiber):
    base = make_germ1d("z + 1", 8, chart=INFINITY)
    return SkewGerm2D(base, fiber, None, chart=INFINITY)


def _pipeline_germ(path):
    parsed = parse_map_file(path.read_text())
    F = make_skew_germ(parsed["lambda"], parsed["fiber"], order=12)
    return build_general_pipeline(F, 4).germ


def _backward_margin(G, reg, inverse):
    """Minimum margin of reg's radius samples one step back, or None when
    a solve fails."""
    u, v = region_points(reg, RADIUS_SAMPLES, seed=0)
    try:
        u1, v1 = inverse(G, u, v)
    except (NewtonDiverged, NonFiniteValue):
        return None
    return float(np.min(np.minimum(reg.first.margin(u1),
                                   reg.second.margin(v1))))


def _per_point_inverse(G, u, v):
    """The one-point-at-a-time inverse choose_radius ran before it solved
    all samples as one array; the oracle below."""
    iu = np.empty_like(u)
    iv = np.empty_like(v)
    for k in range(len(u)):
        q = G.local_inverse(Point2(u[k], v[k], INFINITY))
        iu[k] = q.z
        iv[k] = q.w
    return iu, iv


def _array_inverse(G, u, v):
    q = G.local_inverse(Point2(u, v, INFINITY))
    return q.z, q.w


@pytest.mark.parametrize("make, arg", [
    (_pipeline_germ, MAPS[0]),
    (_pipeline_germ, MAPS[1]),
    (lambda _: special_G(), None),
    (_translation_germ, "w + 1"),
    (_translation_germ, "w + 1 + (-801144 + 598472i)/w^2"),
    (_translation_germ, "w + 1 + (300+900i)/w^2"),
    (_translation_germ, "w + 1 + 50/w^2"),
    (_translation_germ, "w + 1 + 1/(z*w)"),
    (_translation_germ, "1 - w"),
], ids=[MAPS[0].stem, MAPS[1].stem, "special", "translation", "huge",
        "middle", "tail", "cross", "sign_flip"])
def test_choose_radius_decisions_match_per_point_inverse(make, arg):
    """At every candidate the array inverse passes or fails the outgoing
    margin test as the per-point inverse does, with the same minimum
    margin, so choose_radius picks the radius the per-point loop picks."""
    G = make(arg)
    oracle_radius = None
    for R in RADIUS_CANDIDATES:
        regions = make_regions(float(R), INFINITY)
        want = _backward_margin(G, regions["o"], _per_point_inverse)
        got = _backward_margin(G, regions["o"], _array_inverse)
        assert (want is None) == (got is None), R
        if want is None:
            continue
        assert abs(got - want) <= 1e-9, R
        assert (got >= RADIUS_MARGIN) == (want >= RADIUS_MARGIN), R
        u, v = region_points(regions["i"], RADIUS_SAMPLES, seed=0)
        forward = np.minimum(regions["i"].first.margin(G.first(u)),
                             regions["i"].second.margin(G.fiber(u, v)))
        if oracle_radius is None and want >= RADIUS_MARGIN \
                and np.all(forward >= RADIUS_MARGIN):
            oracle_radius = float(R)
    if oracle_radius is None:
        with pytest.raises(NoValidRadius):
            choose_radius(G)
    else:
        assert choose_radius(G) == oracle_radius


def test_no_valid_radius():
    base = make_germ1d("z + 1", 8, chart=INFINITY)
    # sign flip sends the incoming sector to its negative at every scale
    bad = SkewGerm2D(base, "1 - w", None, chart=INFINITY)
    with pytest.raises(NoValidRadius):
        choose_radius(bad)


# ------------------------------------------------------------ U neighborhood


def test_u_neighborhood():
    U = UNeighborhood(0.1, 2)
    assert U.contains(Point2(0.05, 0.001))
    assert not U.contains(Point2(0.05, 0.01))  # 0.01 > 0.05^2
    assert not U.contains(Point2(0.2, 0.001))
    with pytest.raises(ChartMismatch):
        U.contains(Point2(0.05, 0.001, INFINITY))
