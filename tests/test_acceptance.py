"""Acceptance gate: one test per required behavior, at its stated tolerance.

Each test prints a single PASS line with the measured numbers so the run
log doubles as a capability report.  Budgets are wall-clock seconds.
"""

import math
import time
from pathlib import Path

import pytest

from parafatou.cli import RunConfig, cmd_basin_scan, cmd_verify
from parafatou.engine import (
    ConvergenceConfig,
    build_general_pipeline,
    general_fatou,
    incoming_1d,
    incoming_1d_trace,
    incoming_2d_special,
    outgoing_1d,
    outgoing_2d_special,
    psi_b,
)
from parafatou.germs import (
    INFINITY,
    Point2,
    fiber_limit_map,
    make_germ1d,
    make_skew_germ,
    to_infinity,
)
from parafatou.normal_form import BranchedLog, normalize_quadratic, raise_order
from parafatou.regions import DEFAULT_OPENING, Sector, make_regions
from parafatou.sampling import region_points, sector_points
from parafatou.verify import (
    abel_residuals,
    decay_exponent,
    direct_branch_check,
    duality_check,
    finite_n_identity_check,
    parametrization_residuals,
)

SEED = 2026
MAPS = Path(__file__).resolve().parent.parent / "maps"
MOBIUS = str(MAPS / "mobius_cubic.map")
MIXED = str(MAPS / "mixed_cubic.map")


def report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def quad():
    """z - z^2 moved to the chart at infinity."""
    return make_germ1d("z^2/(z - 1)", order=12, chart=INFINITY)


@pytest.fixture(scope="module")
def special():
    return to_infinity(make_skew_germ("z/(1+z)", "w - w^2 + w^3", order=12))


def test_01_one_dim_abel(quad):
    t0 = time.monotonic()
    cfg = ConvergenceConfig(tol=1e-10)
    pts = [complex(x) for x in
           sector_points(Sector(radius=20.0), 100, seed=SEED)]
    rep = abel_residuals(lambda w: incoming_1d(quad, 1, w, cfg), quad, 1,
                         pts, threshold=1e-8, cfg=cfg)
    dt = time.monotonic() - t0
    report("incoming abel, quadratic germ, 100 points",
           rep.passed and dt < 5.0,
           f"max={rep.max_residual:.3e} < 1e-8, {dt:.2f}s < 5s")


def test_02_one_dim_outgoing_and_duality(quad):
    cfg = ConvergenceConfig(tol=1e-10)
    pts = [complex(x) for x in
           sector_points(Sector(radius=20.0, direction=-1), 50, seed=SEED)]
    out = parametrization_residuals(
        lambda m: outgoing_1d(quad, 1, m, cfg), quad, 1, pts,
        threshold=1e-7, cfg=cfg)
    dual = duality_check(quad, 1, pts, threshold=1e-7, cfg=cfg)
    report("outgoing equation and inverse duality, 50 points",
           out.passed and dual.passed,
           f"outgoing max={out.max_residual:.3e},"
           f" duality max={dual.max_residual:.3e}, both < 1e-7")


def test_03_special_form_coordinates(special):
    t0 = time.monotonic()
    cfg = ConvergenceConfig(tol=1e-9)
    regions = make_regions(10.0)
    u, v = region_points(regions["i"], 50, seed=SEED)
    res_i = 0.0
    for uk, vk in zip(u, v):
        p = Point2(complex(uk), complex(vk), INFINITY)
        a = incoming_2d_special(special, p, cfg)
        b = incoming_2d_special(special, special.evaluate(p), cfg)
        assert a.verdict == "converged" and b.verdict == "converged"
        res_i = max(res_i, abs(b.value[0] - a.value[0] - 1),
                    abs(b.value[1] - a.value[1] - 1))
    u, v = region_points(regions["o"], 50, seed=SEED + 1)
    res_o = 0.0
    for uk, vk in zip(u, v):
        p = Point2(complex(uk), complex(vk), INFINITY)
        a = outgoing_2d_special(special, p, cfg)
        b = outgoing_2d_special(
            special, Point2(p.z + 1, p.w + 1, INFINITY), cfg)
        assert a.verdict == "converged" and b.verdict == "converged"
        img = special.evaluate(Point2(a.value[0], a.value[1], INFINITY))
        res_o = max(res_o, abs(img.z - b.value[0]),
                    abs(img.w - b.value[1]))
    dt = time.monotonic() - t0
    report("special-form coordinates, 50+50 points",
           res_i < 1e-7 and res_o < 1e-7 and dt < 30.0,
           f"incoming max={res_i:.3e}, outgoing max={res_o:.3e} < 1e-7,"
           f" {dt:.2f}s < 30s")


def test_04_finite_stage_identities(special):
    u, v = region_points(make_regions(10.0)["i"], 20, seed=SEED)
    pts = [Point2(complex(a), complex(b), INFINITY) for a, b in zip(u, v)]
    rep = finite_n_identity_check(special, [1, 3, 10], pts, threshold=1e-9)
    report("finite-stage inverse identities, n in {1,3,10}, 20 points",
           rep.passed,
           f"samples={rep.samples} max={rep.max_residual:.3e} < 1e-9")


def test_05_psi_b_conjugacy(special):
    cfg = ConvergenceConfig(tol=1e-8)
    ginf = fiber_limit_map(special)
    u, v = region_points(make_regions(10.0)["b"], 20, seed=SEED)
    worst = 0.0
    for uk, vk in zip(u, v):
        a = psi_b(special, Point2(complex(uk), complex(vk), INFINITY), cfg)
        b = psi_b(special,
                  Point2(complex(uk), complex(vk) + 1, INFINITY), cfg)
        assert a.verdict == "converged" and b.verdict == "converged"
        worst = max(worst, abs(b.value[1] - ginf(a.value[1])))
    report("psi-b fiber-limit conjugacy, 20 points",
           worst < 1e-6, f"max={worst:.3e} < 1e-6")


def test_06_general_pipeline_mixed_map():
    t0 = time.monotonic()
    F = make_skew_germ("z + 2*z^2",
                       "w + 3*w^2 + z^3 + z^2*w + z*w^2", order=12)
    F1, _ = normalize_quadratic(F)
    F2, _ = raise_order(F1, 4)
    coeff_res = max(abs(F2.jet2.coeff(j, k))
                    for j, k in ((2, 0), (3, 0), (1, 1), (2, 1), (3, 1)))
    coeff_res = max(coeff_res, abs(F2.jet2.coeff(0, 2) + 1),
                    abs(F2.first.jet.coeff(2) + 1))

    cfg = ConvergenceConfig(tol=5e-7)
    pipe = build_general_pipeline(F, 4, cfg)
    u, v = region_points(pipe.regions["i"], 20, seed=SEED)
    pts_i = [Point2(complex(a), complex(b), INFINITY)
             for a, b in zip(u, v)]
    rep_i = abel_residuals(lambda p: general_fatou(pipe, "i", p, cfg),
                           pipe.germ, (1, 1), pts_i,
                           threshold=1e-6, cfg=cfg)

    # the outgoing identity pairs each point with its unit shift, so the
    # sample keeps an angular inset that holds both inside the engine's
    # guarded cone
    inset = Sector(radius=pipe.radius, opening=DEFAULT_OPENING - 0.3,
                   direction=-1)
    mu = sector_points(inset, 20, seed=SEED + 1)
    mv = sector_points(inset, 20, seed=SEED + 2)
    pts_o = [(complex(a), complex(b)) for a, b in zip(mu, mv)]

    def par(m):
        return general_fatou(pipe, "o",
                             Point2(m[0], m[1], INFINITY), cfg)

    def step(t):
        q = pipe.germ.evaluate(Point2(t[0], t[1], INFINITY))
        return (q.z, q.w)

    rep_o = parametrization_residuals(par, step, (1, 1), pts_o,
                                      threshold=1e-6, cfg=cfg)
    dt = time.monotonic() - t0
    report("general pipeline on a mixed cubic map",
           coeff_res < 1e-12 and rep_i.passed and rep_o.passed
           and dt < 120.0,
           f"coeff residual={coeff_res:.3e} < 1e-12,"
           f" incoming max={rep_i.max_residual:.3e},"
           f" outgoing max={rep_o.max_residual:.3e} < 1e-6,"
           f" {dt:.1f}s < 120s")


def test_07_decay_slope(quad):
    cfg = ConvergenceConfig(tol=1e-8)
    tr = incoming_1d_trace(quad, 1, 10.0, 2000, cfg)
    deltas = [abs(b - a) for a, b in zip(tr, tr[1:])]
    slope = decay_exponent(deltas)
    report("log-log decay slope of the incoming estimates",
           slope <= -1.5, f"slope={slope:.3f} <= -1.5")


def test_08_basin_agreement():
    t0 = time.monotonic()
    _, _, stats = cmd_basin_scan(RunConfig(MOBIUS, grid=256))
    dt = time.monotonic() - t0
    agreement = undet = None
    for line in stats.splitlines():
        if line.startswith("agreement="):
            agreement = float(line.split("=")[1])
        if line.startswith("undetermined="):
            undet = float(line.split("=")[1])
    report("orbit-fate agreement on a 256x256 slice",
           agreement is not None and agreement >= 0.95
           and undet < 0.05 and dt < 120.0,
           f"agreement={agreement:.4f} >= 0.95,"
           f" undetermined={undet:.4f} < 0.05, {dt:.1f}s < 120s")


def test_09_negative_controls(quad):
    ctl_cfg = ConvergenceConfig(tol=1e-8, n_max=20_000)
    pts = [complex(x) for x in
           sector_points(Sector(radius=15.0), 3, seed=SEED)]
    wrong_alpha = abel_residuals(
        lambda w: incoming_1d(quad, 2, w, ctl_cfg), quad, 1, pts,
        threshold=1e-3)
    pts_o = [complex(x) for x in
             sector_points(Sector(radius=15.0, direction=-1), 2,
                           seed=SEED)]
    wrong_branch = direct_branch_check(quad, 1, pts_o, n=10_000,
                                       threshold=1e-3,
                                       log=BranchedLog(-math.pi))
    code, _ = cmd_verify(RunConfig(MOBIUS, tol=1.0))
    report("negative controls fail and broken controls exit 3",
           (not wrong_alpha.passed) and (not wrong_branch.passed)
           and code == 3,
           f"wrong-alpha max={wrong_alpha.max_residual:.3e} > 1e-3,"
           f" wrong-branch max={wrong_branch.max_residual:.3e} > 1e-3,"
           f" degraded-suite exit={code}")


def test_10_determinism():
    va = cmd_verify(RunConfig(MOBIUS))
    vb = cmd_verify(RunConfig(MOBIUS))
    sa = cmd_basin_scan(RunConfig(MOBIUS, grid=64))
    sb = cmd_basin_scan(RunConfig(MOBIUS, grid=64))
    report("byte-identical repeated runs",
           va == vb and sa == sb and va[0] == 0,
           f"verify exit={va[0]}, both reruns identical")
