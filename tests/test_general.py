"""End-to-end pipeline: reduction chain plus coordinates for general maps."""

from dataclasses import replace

import pytest

from parafatou.engine import (
    CONVERGED,
    MAX_ITER,
    ConvergenceConfig,
    FatouValue,
    _centers,
    _finite_stage,
    _moved,
    _nested_limit,
    _off_branch,
    _orbit,
    _stage_end,
    build_general_pipeline,
    conjugated_fiber_limit,
    general_fatou,
    incoming_2d_special,
    outgoing_1d,
    psi_b,
)
from parafatou.errors import ChainDomainError, ChartMismatch
from parafatou.germs import INFINITY, ORIGIN, Point2, make_skew_germ
from parafatou.normal_form import BranchedLog, Scaling
from parafatou.sampling import region_points
from parafatou.verify import abel_residuals, parametrization_residuals


@pytest.fixture(scope="module")
def pipe_mixed():
    """a2 = 2, b2 = 3, with pure-z and both mixed cubic couplings."""
    F = make_skew_germ("z + 2*z^2", "w + 3*w^2 + z^3 + z^2*w + z*w^2", order=12)
    return build_general_pipeline(F)


COARSE = ConvergenceConfig(tol=5e-7)


@pytest.fixture(scope="module")
def pipe_mixed_coarse():
    """maps/mixed_cubic.map built at tol 5e-7, as the incoming benchmark."""
    F = make_skew_germ("z + 2*z^2", "w + 3*w^2 + z^3 + z^2*w + z*w^2", order=12)
    return build_general_pipeline(F, 4, COARSE)


@pytest.fixture(scope="module")
def pipe_plain():
    """Nontrivial base and fiber but no base-log coupling upstairs."""
    F = make_skew_germ("z + 2*z^2", "w + 3*w^2 + 2*w^3 + z^4", order=12)
    return build_general_pipeline(F)


def test_trivial_map_flag():
    F = make_skew_germ("z/(1+z)", "w/(1+w)", order=12)
    pipe = build_general_pipeline(F)
    assert pipe.trivial
    fv = general_fatou(pipe, "i", Point2(60, 60, INFINITY))
    assert fv.verdict == CONVERGED
    assert fv.iterations == 1
    assert fv.value == (60 + 0j, 60 + 0j)


def test_special_map_needs_no_shear():
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12)
    pipe = build_general_pipeline(F)
    assert not pipe.trivial
    assert pipe.psi1.trivial
    assert pipe.theta.alpha == 0 and pipe.theta.beta == 0
    cfg = ConvergenceConfig(tol=1e-8)
    p = Point2(50 + 3j, 50 + 2j, INFINITY)
    G = pipe.germ
    a = general_fatou(pipe, "i", p, cfg)
    b = general_fatou(pipe, "i", G.evaluate(p), cfg)
    assert a.verdict == CONVERGED
    assert abs(b.value[1] - a.value[1] - 1) < 1e-7
    assert abs(b.value[0] - a.value[0] - 1) < 1e-12
    # the same limit as the special engine, which the pipeline runs
    sp = incoming_2d_special(G, p, cfg)
    assert abs(sp.value[1] - a.value[1]) < 1e-3


def test_special_pipeline_reaches_the_limit():
    """The Moebius pipeline's values against a reference that shares no
    code with the corrections.

    Stage n of a tag's coordinate, S(n), lies about c/n from the limit, so
    2 S(4096) - S(2048) cancels that term.  Recomposed stages that stop at
    n = 4099 are 2.4-3.2e-4 off.  Tag b's stages are corrected at their
    start, and its value is psi_b's to the bit.
    """
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12)
    cfg = ConvergenceConfig(tol=1e-7)
    pipe = build_general_pipeline(F, 4, cfg)
    G = pipe.germ

    def points(tag):
        u, v = region_points(pipe.regions[tag], 3, 1)
        return [Point2(complex(a), complex(b), INFINITY) for a, b in zip(u, v)]

    for tag in "ioab":
        for p in points(tag):
            fv = general_fatou(pipe, tag, p, cfg)
            ref = (2 * _finite_stage(G.evaluate, p, 4096, tag).w
                   - _finite_stage(G.evaluate, p, 2048, tag).w)
            assert fv.verdict == CONVERGED
            assert abs(fv.value[1] - ref) < 1e-5, (tag, p)
    run_cfg = replace(cfg, radius=pipe.radius)
    for p in points("b"):
        assert general_fatou(pipe, "b", p, cfg) == psi_b(G, p, run_cfg)


def test_special_b_matches_o():
    """The Moebius fiber maps do not depend on the base, so tag b at
    (u, v) and tag o at (-u, v) walk the same fiber orbit, and both equal
    the 1-D outgoing coordinate of the fiber limit.  That reference inverts
    the dual germ's incoming limit and shares no stage code with them."""
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12)
    cfg = ConvergenceConfig(tol=1e-11)
    pipe = build_general_pipeline(F, 4, cfg)
    ginf = pipe.fiber_limit
    u, v = region_points(pipe.regions["b"], 8, 1)
    for a, b in zip(u, v):
        fb = general_fatou(pipe, "b", Point2(complex(a), complex(b),
                                             INFINITY), cfg)
        fo = general_fatou(pipe, "o", Point2(-complex(a), complex(b),
                                             INFINITY), cfg)
        ref = outgoing_1d(ginf, ginf.jet.coeff(1), complex(b), cfg)
        assert fb.verdict == fo.verdict == ref.verdict == CONVERGED
        assert abs(fb.value[1] - fo.value[1]) < 1e-9, (a, b)
        assert abs(fo.value[1] - ref.value) < 1e-9, (a, b)
        assert abs(fb.value[1] - ref.value) < 1e-9, (a, b)


def test_outgoing_on_a_base_dependent_fiber():
    """Tag o's diagram F(P(m)) = P(m + (1, 1)) on a special-form germ whose
    fiber maps depend on the base: at infinity they differ from the fiber
    limit by about -1/u^2, where the Moebius fiber maps equal it.

    The stages read their ends in the fiber limit's corrected coordinate,
    which does not see that term, so a `converged` value here still lies
    about 6e-5 from the limit at tol 1e-8 (ROADMAP item 2).  The diagram
    holds regardless, since both of its sides share that bias.
    """
    F = make_skew_germ("z/(1+z)", "w - w^2 + w^3 + z^2*w^2", order=12)
    pipe = build_general_pipeline(F)
    assert pipe.fiber_limit is not None
    cfg = ConvergenceConfig(tol=1e-8)
    u, v = region_points(pipe.regions["o"], 2, 1)
    pts = [(-40 + 3j, -40 + 5j)] + [(complex(a), complex(b))
                                    for a, b in zip(u, v)]

    def par(m):
        return general_fatou(pipe, "o", Point2(m[0], m[1], INFINITY), cfg)

    def step(t):
        q = pipe.germ.evaluate(Point2(t[0], t[1], INFINITY))
        return (q.z, q.w)

    rep = parametrization_residuals(par, step, (1, 1), pts, threshold=1e-6,
                                    cfg=cfg)
    assert rep.passed, rep.failures


def test_mixed_shear_parameters(pipe_mixed):
    # frozen from the exact reduction of this map at M = 4
    assert abs(pipe_mixed.theta.alpha - (-19.0 / 24.0)) < 1e-12
    assert abs(pipe_mixed.theta.beta - 1.0) < 1e-12
    assert abs(pipe_mixed.alpha_rho - 1.0) < 1e-12


def test_mixed_chain_has_scaling(pipe_mixed):
    kinds = [type(s) for s in pipe_mixed.origin_chain.steps]
    assert Scaling in kinds


def test_chain_round_trip(pipe_mixed):
    ch = pipe_mixed.origin_chain
    p = Point2(30 + 4j, 28 - 2j, INFINITY)
    q = ch.forward(p)
    r = ch.inverse(q)
    assert abs(r.z - p.z) < 1e-8
    assert abs(r.w - p.w) < 1e-8
    assert q.chart == ORIGIN


def test_base_coordinate_invariants(pipe_mixed):
    rho = pipe_mixed.germ.first
    for psi, m in ((pipe_mixed.psi1, 40 + 3j), (pipe_mixed.psi2, -40 + 2j)):
        u = psi.forward(m)
        assert abs(psi.backward(u) - m) < 1e-10
        assert abs(psi.backward(rho(u)) - (m + 1)) < 1e-8


def test_mixed_incoming_abel(pipe_mixed):
    cfg = ConvergenceConfig(tol=1e-8)
    G = pipe_mixed.germ
    p = Point2(40 + 5j, 35 - 4j, INFINITY)
    a = general_fatou(pipe_mixed, "i", p, cfg)
    b = general_fatou(pipe_mixed, "i", G.evaluate(p), cfg)
    assert a.verdict == CONVERGED
    assert abs(b.value[1] - a.value[1] - 1) < 1e-7
    assert abs(b.value[0] - a.value[0] - 1) < 1e-10


def test_mixed_outgoing_diagram(pipe_mixed):
    cfg = ConvergenceConfig(tol=1e-7)
    G = pipe_mixed.germ
    p = Point2(-40 + 3j, -38 - 2j, INFINITY)
    a = general_fatou(pipe_mixed, "o", p, cfg)
    b = general_fatou(pipe_mixed, "o", Point2(p.z + 1, p.w + 1, INFINITY), cfg)
    assert a.verdict == CONVERGED
    img = G.evaluate(Point2(a.value[0], a.value[1], INFINITY))
    assert abs(img.w - b.value[1]) < 1e-6
    assert abs(img.z - b.value[0]) < 1e-10


def test_plain_b_diagram(pipe_plain):
    assert pipe_plain.theta.alpha == 0
    assert abs(pipe_plain.theta.beta) > 0.1
    cfg = ConvergenceConfig(tol=1e-7)
    gmod = conjugated_fiber_limit(pipe_plain, "b")
    p = Point2(30 + 2j, -28 + 3j, INFINITY)
    a = general_fatou(pipe_plain, "b", p, cfg)
    b = general_fatou(pipe_plain, "b", Point2(p.z - 1, p.w + 1, INFINITY), cfg)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert a.value[0] == p.z
    assert abs(b.value[1] - gmod(a.value[1])) < 1e-6


def test_plain_a_diagram(pipe_plain):
    cfg = ConvergenceConfig(tol=1e-7)
    gmod = conjugated_fiber_limit(pipe_plain, "a")
    p = Point2(-30 - 2j, 26 + 4j, INFINITY)
    a = general_fatou(pipe_plain, "a", p, cfg)
    b = general_fatou(pipe_plain, "a", Point2(p.z - 1, gmod(p.w), INFINITY), cfg)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert abs(b.value[1] - a.value[1] - 1) < 1e-6


def test_mixed_b_reaches_coarse_regime(pipe_mixed):
    # with a base-log shear the sheared fibers settle only at 1/log(n)
    # speed; the engine still converges in its own stopping sense and the
    # mismatch against the degenerate limit map stays at that coarse scale
    cfg = ConvergenceConfig(tol=1e-4, n_max=4000)
    gmod = conjugated_fiber_limit(pipe_mixed, "b")
    p = Point2(30 + 2j, -28 + 3j, INFINITY)
    a = general_fatou(pipe_mixed, "b", p, cfg)
    b = general_fatou(pipe_mixed, "b", Point2(p.z - 1, p.w + 1, INFINITY), cfg)
    assert a.verdict == CONVERGED and b.verdict == CONVERGED
    assert abs(b.value[1] - gmod(a.value[1])) < 0.2


def test_region_power_cap(pipe_mixed):
    reg = pipe_mixed.regions["i"]
    assert reg.power_cap == pipe_mixed.M + 1
    assert reg.contains(Point2(13 + 0j, 100 + 0j, INFINITY))
    assert not reg.contains(Point2(13 + 0j, 10**7 + 0j, INFINITY))


def test_chart_gate(pipe_mixed):
    with pytest.raises(ChartMismatch):
        general_fatou(pipe_mixed, "i", Point2(0.01, 0.01, ORIGIN))


def test_unknown_tag(pipe_mixed):
    with pytest.raises(ValueError):
        general_fatou(pipe_mixed, "x", Point2(40, 40, INFINITY))


def test_branch_cut_guard(pipe_mixed):
    with pytest.raises(ChainDomainError):
        general_fatou(pipe_mixed, "i", Point2(40 + 0j, -30 + 0j, INFINITY),
                      ConvergenceConfig(tol=1e-6, n_max=200))


def test_incoming_start_off_the_base_log_branch(pipe_mixed_coarse):
    # a sampled region-i start (u = -7.1153 - 11.8387i, arg -2.112) whose
    # phi1 = psi1.backward(u) lies beyond the 3pi/4 branch of the shear's
    # base log; the limit starts one orbit step later instead of refusing
    pipe = pipe_mixed_coarse
    u, v = region_points(pipe.regions["i"], 40, 210)
    p = Point2(complex(u[33]), complex(v[33]), INFINITY)
    rep = abel_residuals(lambda q: general_fatou(pipe, "i", q, COARSE),
                         pipe.germ, (1, 1), [p], threshold=1e-6, cfg=COARSE)
    assert rep.passed, rep.failures


def test_sampled_incoming_starts_are_not_refused(pipe_mixed_coarse):
    # each of these seeds' 40 region-i points, with their images, holds
    # one start whose phi1 lies off the base log branch
    pipe = pipe_mixed_coarse
    cfg = ConvergenceConfig(tol=5e-7, n_max=1)
    skipped = 0
    for seed in (1031, 1042, 1043):
        u, v = region_points(pipe.regions["i"], 40, seed)
        for a, b in zip(u, v):
            p = Point2(complex(a), complex(b), INFINITY)
            for q in (p, pipe.germ.evaluate(p)):
                fv = general_fatou(pipe, "i", q, cfg)
                assert fv.verdict == MAX_ITER
                skipped += fv.iterations - 1
    assert skipped == 3


def _cold_incoming(pipe, p, cfg):
    """Tag i's limit with every shear solve started from the germ fiber, as
    before the warm start: the oracle of the warm-start tests."""
    cfg = replace(cfg, radius=pipe.radius)
    G, shear = pipe.germ, pipe.shears["i"]
    cu, cv = _centers("i")
    q, k = p, 0
    phi1 = pipe.psi1.backward(p.z)
    while shear.alpha != 0 and _off_branch(shear.log_u, _moved(phi1, k)):
        q = _orbit(G, q, 1, cfg, cu, cv)
        k += 1
    first = _stage_end(shear, "i", phi1, q.w, k)

    def estimate(m):
        nonlocal q
        q = _orbit(G, q, 1, cfg, cu, cv)
        return _stage_end(shear, "i", phi1, q.w, k + m)

    fv = _nested_limit(estimate, first, cfg)
    return FatouValue((phi1, fv.value), fv.iterations + k, fv.last_delta,
                      fv.verdict)


@pytest.fixture(scope="module")
def seed1_points(pipe_mixed_coarse):
    u, v = region_points(pipe_mixed_coarse.regions["i"], 6, 1)
    return [Point2(complex(a), complex(b), INFINITY) for a, b in zip(u, v)]


def test_warm_start_matches_the_cold_start(pipe_mixed_coarse, seed1_points):
    pipe = pipe_mixed_coarse
    for p in seed1_points:
        for q in (p, pipe.germ.evaluate(p)):
            new = general_fatou(pipe, "i", q, COARSE)
            old = _cold_incoming(pipe, q, COARSE)
            assert (new.iterations, new.verdict) == (old.iterations,
                                                     old.verdict), q
            for a, b in zip(new.value, old.value):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), q


def test_warm_start_does_not_stop_early(pipe_mixed_coarse, seed1_points):
    # from about stage 15k on, stage n - 1's fiber plus 1 already solves
    # stage n's shear within the solve's tolerance; read back unrefined,
    # it would make the delta exactly 0 and stop these limits elsewhere
    pipe = pipe_mixed_coarse
    cfg = ConvergenceConfig(tol=1e-8)
    for p in seed1_points[:2]:
        new = general_fatou(pipe, "i", p, cfg)
        old = _cold_incoming(pipe, p, cfg)
        assert new.verdict == old.verdict == CONVERGED
        assert new.iterations == old.iterations
        assert new.last_delta != 0


def test_warm_start_work_count(pipe_mixed_coarse, seed1_points, monkeypatch):
    # one log for the base, one per residual of the shear's Newton solve:
    # 4.01 a step with the solve started at the germ fiber, about 3 warm
    calls = 0
    plain = BranchedLog.__call__

    def counted(self, x):
        nonlocal calls
        calls += 1
        return plain(self, x)

    monkeypatch.setattr(BranchedLog, "__call__", counted)
    steps = 0
    for p in seed1_points:
        fv = general_fatou(pipe_mixed_coarse, "i", p, COARSE)
        assert fv.verdict == CONVERGED
        steps += fv.iterations
    assert calls / steps <= 3.05


def test_incoming_start_past_the_fiber_log_branch(pipe_mixed_coarse):
    # a sampled region-i start whose first shear solve has its root at arg
    # 135.46 degrees, past the 3pi/4 fiber log branch; the limit starts
    # one orbit step later instead of refusing
    pipe = pipe_mixed_coarse
    p = Point2(-4.821204029726774 - 11.727508875115658j,
               -6.804305547528878 + 11.13319594586721j, INFINITY)
    assert pipe.regions["i"].contains(p)
    with pytest.raises(ChainDomainError):
        _stage_end(pipe.shears["i"], "i", pipe.psi1.backward(p.z), p.w, 0)
    assert general_fatou(pipe, "i", p, COARSE).verdict == CONVERGED
    rep = abel_residuals(lambda q: general_fatou(pipe, "i", q, COARSE),
                         pipe.germ, (1, 1), [p], threshold=1e-6, cfg=COARSE)
    assert rep.passed and rep.max_residual < 1e-6, rep.failures
