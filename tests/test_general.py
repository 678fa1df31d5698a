"""End-to-end pipeline: reduction chain plus coordinates for general maps."""

import pytest

from parafatou.engine import (
    CONVERGED,
    ConvergenceConfig,
    build_general_pipeline,
    conjugated_fiber_limit,
    general_fatou,
    incoming_2d_special,
)
from parafatou.errors import ChainDomainError, ChartMismatch
from parafatou.germs import INFINITY, ORIGIN, Point2, make_skew_germ
from parafatou.normal_form import Scaling


@pytest.fixture(scope="module")
def pipe_mixed():
    """a2 = 2, b2 = 3, with pure-z and both mixed cubic couplings."""
    F = make_skew_germ("z + 2*z^2", "w + 3*w^2 + z^3 + z^2*w + z*w^2", order=12)
    return build_general_pipeline(F)


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
    # same limit as the corrected engine, up to the uncorrected 1/n tail
    sp = incoming_2d_special(G, p, cfg)
    assert abs(sp.value[1] - a.value[1]) < 1e-3


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
