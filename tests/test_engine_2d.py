"""Coordinate engines for skew products already in special form."""

import pytest

from parafatou import engine
from parafatou.engine import (
    CONVERGED,
    ESCAPED,
    MAX_ITER,
    ConvergenceConfig,
    Corrections,
    FatouValue,
    _checkpoint_limit,
    _Escaped,
    _fiber_orbit,
    _invert_limit,
    build_general_pipeline,
    dual_step,
    eta_point,
    general_fatou,
    incoming_2d_finite,
    incoming_2d_special,
    outgoing_2d_finite,
    outgoing_2d_special,
    psi_a,
    psi_a_finite,
    psi_b,
    psi_b_finite,
)
from parafatou.errors import NewtonDiverged, WrongForm
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


@pytest.mark.parametrize("stage, z, w", [
    (incoming_2d_finite, "(2-0j)", "(3-0j)"),
    (outgoing_2d_finite, "(2-0j)", "(3-0j)"),
    (psi_a_finite, "(2+0j)", "(3-0j)"),
    (psi_b_finite, "(2+0j)", "(3-0j)"),
])
def test_finite_stage_translations(stage, z, w):
    # with the identity as the step a stage is its two translations alone;
    # x - n keeps a -0.0 imaginary part where x + n makes it +0.0
    p = Point2(complex(3, -0.0), complex(4, -0.0), INFINITY)
    q = stage(lambda x: x, p, 1)
    assert (repr(q.z), repr(q.w), q.chart) == (z, w, INFINITY)


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


@pytest.fixture(scope="module")
def pipe_mobius():
    """The pipeline of maps/mobius_cubic.map, whose germ upstairs is G."""
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12)
    return build_general_pipeline(F)


@pytest.fixture(scope="module")
def pipe_curved():
    """The Moebius fiber over a base that is not the exact translation
    upstairs: psi1 is nontrivial, so general_fatou recomposes its stages."""
    F = make_skew_germ("z - z^2", "w - w^2 + w^3", order=12)
    return build_general_pipeline(F)


SHORT = ConvergenceConfig(tol=1e-12, n_max=2)
INF = float("inf")


@pytest.mark.parametrize("engine, start, cfg, value, iterations, delta, "
                         "verdict", [
    # the budget runs out: the last estimate and the steps or stage reached
    ("incoming", (50, 6 + 2j), SHORT,
     (50, 5.827614024283095 + 2.068697323766725j), 2, 4.833250019217744e-08,
     MAX_ITER),
    # psi_a starts at base -50, inside region a's base sector
    ("psi_a", (-50, 6 + 2j), SHORT,
     (-50, 5.827614024283095 + 2.068697323766725j), 2,
     4.833250019217744e-08, MAX_ITER),
    # the Moebius pipeline runs the special engines' corrected limits
    ("i", (50, 6 + 2j), SHORT,
     (50, 5.827614024283095 + 2.068697323766725j), 2, 4.833250019217744e-08,
     MAX_ITER),
    # tag o runs the start-corrected stages of a and b: the stage-2
    # estimate, about 1.7e-8 from the tol 1e-10 value
    ("o", (-50, -6 + 2j), SHORT,
     (-50, -6.130395572219721 + 1.9640181897938638j), 2,
     3.3274230103299934e-08, MAX_ITER),
    # the orbit leaves the sector: the nested limits keep their last
    # estimate, the recomposed ones the iterate that left, with its step
    ("incoming", (50, -3 + 5j), CFG,
     (50, -2.902579150716373 + 5.121882206927912j), 3, 2.194620060434768e-06,
     ESCAPED),
    ("psi_a", (-50, -3 + 5j), CFG,
     (-50, 0.059720301259157574 + 4.92629307639114j), 3, INF, ESCAPED),
    ("i", (50, -3 + 5j), CFG,
     (50, -2.902579150716373 + 5.121882206927912j), 3, 2.194620060434768e-06,
     ESCAPED),
    ("o", (-50, 3 - 5j), CFG,
     (-50, -1.0752058910616957 - 4.825456602051798j), 4, INF, ESCAPED),
    # the recomposed path: a base that needs straightening under the
    # same fiber gives the same fiber values and verdicts, uncorrected
    ("curved i", (50, 6 + 2j), SHORT,
     (46.09811329429865, 5.959988867328162 + 2.030149550143585j), 2,
     0.021434739289229725, MAX_ITER),
    ("curved o", (-50, -6 + 2j), SHORT,
     (-46.15726596520968, -6.0259325114499465 + 1.986216521222665j), 2,
     0.012961162017777356, MAX_ITER),
    ("curved i", (50, -3 + 5j), CFG,
     (46.09811329429865, -2.9721218762045507 + 4.947804406275244j), 3,
     0.03277836357629097, ESCAPED),
    ("curved o", (-50, 3 - 5j), CFG,
     (-49.09617018978323, 0.05997950370752493 - 4.884866799334281j), 5, INF,
     ESCAPED),
], ids=["incoming-budget", "psi_a-budget", "i-budget", "o-budget",
        "incoming-leaves", "psi_a-leaves", "i-leaves", "o-leaves",
        "curved_i-budget", "curved_o-budget", "curved_i-leaves",
        "curved_o-leaves"])
def test_failure_verdicts(G, pipe_mobius, pipe_curved, engine, start, cfg,
                          value, iterations, delta, verdict):
    p = Point2(*start, INFINITY)
    if engine == "incoming":
        fv = incoming_2d_special(G, p, cfg)
    elif engine == "psi_a":
        fv = psi_a(G, p, cfg)
    elif engine.startswith("curved"):
        fv = general_fatou(pipe_curved, engine[-1], p, cfg)
    else:
        fv = general_fatou(pipe_mobius, engine, p, cfg)
    assert fv.verdict == verdict
    assert fv.iterations == iterations
    assert fv.value == (pytest.approx(value[0], rel=1e-12),
                        pytest.approx(value[1], rel=1e-9))
    assert fv.last_delta == pytest.approx(delta, rel=1e-6)


PUBLIC_ENGINES = {"i": incoming_2d_special, "o": outgoing_2d_special,
                  "a": psi_a, "b": psi_b}


@pytest.mark.parametrize("tag, start", [
    ("i", (-50, 50 + 2j)), ("o", (50, -50 + 2j)),
    ("a", (50, 50 + 1j)), ("b", (-50, -50 + 1j)),
])
def test_pipeline_checks_the_base(pipe_mobius, tag, start):
    """The fiber starts inside its sector and the base outside its own:
    the special limits stop at the base, whether the Moebius pipeline or
    the tag's public engine reaches them."""
    p = Point2(*start, INFINITY)
    fv = general_fatou(pipe_mobius, tag, p, CFG)
    assert fv.verdict == ESCAPED
    assert fv.iterations <= 1
    assert PUBLIC_ENGINES[tag](pipe_mobius.germ, p, CFG) == fv


@pytest.mark.parametrize("n_max", range(1, 13))
def test_checkpoint_limit_respects_n_max(n_max):
    """No recomposed stage runs beyond the budget, even below stage 11."""
    seen = []

    def stage(n):
        seen.append(n)
        return 1.0 / n

    fv = _checkpoint_limit(stage, ConvergenceConfig(tol=1e-12, n_max=n_max))
    assert max(seen) <= n_max
    assert fv.verdict == MAX_ITER
    assert fv.iterations == seen[-1]
    assert fv.value == 1.0 / seen[-1]
    if n_max == 11:
        assert seen == [8, 9, 10, 11]


def test_fiber_orbit_checks_the_last_base_point(pipe_mobius):
    """The one base point of this walk, -48, lies outside the sector of
    center 0, so the walk stops there although the fiber stays inside."""
    cfg = ConvergenceConfig(radius=pipe_mobius.radius)
    with pytest.raises(_Escaped) as esc:
        _fiber_orbit(pipe_mobius.germ, -49, 20 + 1j, 1, cfg, 0.0, 0.0)
    assert esc.value.steps == 1


def test_failed_start_solve_escapes(G, pipe_mobius, monkeypatch):
    """A start of tag b that Newton cannot invert ends the limit escaped,
    from the public engine and from the pipeline alike."""
    def diverged(f, df, target, guess, tol):
        raise NewtonDiverged("planted", last_value=guess, reason="flat")

    monkeypatch.setattr(engine, "newton", diverged)
    p = Point2(60 + 2j, -60 + 1j, INFINITY)
    fv = psi_b(G, p, CFG)
    assert fv.verdict == ESCAPED
    assert fv.iterations == 0
    assert general_fatou(pipe_mobius, "b", p, CFG) == fv
