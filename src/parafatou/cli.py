"""Command-line front end: normalize, coord, basin-scan, verify.

Map definitions come from line-oriented `key = expression` files (see
`expressions.parse_map_file`). Every document this module writes embeds the
run configuration and seed on `#` header lines, floats are printed with 17
significant digits, and nothing depends on wall-clock time, so outputs are
byte-identical across runs with the same inputs.

Exit codes: 0 all identities hold, 1 identity failure, 2 input error,
3 verification self-check failure (a negative control stopped failing).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import (
    CONVERGED,
    ConvergenceConfig,
    build_general_pipeline,
    conjugated_fiber_limit,
    general_fatou,
    incoming_1d,
    incoming_1d_trace,
)
from .errors import FatouError, ParseError
from .expressions import (
    CompiledExpr,
    diff,
    ev,
    parse_expr,
    parse_map_file,
    to_text,
)
from .germs import (
    INFINITY,
    ORIGIN,
    Point2,
    fiber_limit_map,
    make_germ1d,
    make_skew_germ,
)
from .normal_form import BranchedLog, min_jet_order
from .regions import Sector, UNeighborhood, classify, make_regions
from .sampling import region_points, sector_points
from .verify import (
    abel_residuals,
    decay_exponent,
    direct_branch_check,
    duality_check,
    finite_n_identity_check,
    lambda_scaling_check,
    parametrization_residuals,
    render_reports,
    transport_check,
)

_FATE_LEVEL = {"none": 0, "axis": 51, "i": 102, "b": 153, "a": 204, "o": 255}
_SCAN_CAP = 10_000
_SCAN_SETTLE = 1e-6
_SCAN_ESCAPE = 1.0


@dataclass(frozen=True)
class RunConfig:
    map_path: str
    M: int = 4
    epsilon: float = 0.05
    tol: float = 1e-8
    n_max: int = 10**6
    grid: int = 256
    theta1: float = 0.0
    theta2: float = 0.0
    seed: int = 2026
    out: str = "."

    def __post_init__(self):
        if not 16 <= self.grid <= 8192:
            raise ValueError(f"grid must lie in [16, 8192], got {self.grid}")
        if not 2 <= self.M <= 10:
            raise ValueError(f"M must lie in [2, 10], got {self.M}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


def _engine_cfg(cfg: RunConfig) -> ConvergenceConfig:
    return ConvergenceConfig(tol=cfg.tol, n_max=cfg.n_max)


def _load_map(cfg: RunConfig):
    text = Path(cfg.map_path).read_text()
    exprs = parse_map_file(text)
    for key in ("lambda", "fiber"):
        if key not in exprs:
            raise ParseError(f"map file is missing the `{key}` line")
    return exprs["lambda"], exprs["fiber"]


def _build(cfg: RunConfig):
    lam, fib = _load_map(cfg)
    order = max(12, min_jet_order(cfg.M))
    F = make_skew_germ(lam, fib, order=order)
    pipe = build_general_pipeline(F, cfg.M, _engine_cfg(cfg))
    return lam, fib, F, pipe


def _g17(x: float) -> str:
    return format(float(x) + 0.0, ".17g")


def _c17(x: complex) -> str:
    x = complex(x)
    sign = "+" if x.imag >= 0 else "-"
    return f"{_g17(x.real)}{sign}{_g17(abs(x.imag))}i"


def _header(cfg: RunConfig, command: str) -> list[str]:
    return [
        f"# parafatou {command}",
        f"# map={cfg.map_path} M={cfg.M} epsilon={_g17(cfg.epsilon)}"
        f" tol={_g17(cfg.tol)} n_max={cfg.n_max}",
        f"# grid={cfg.grid} theta1={_g17(cfg.theta1)}"
        f" theta2={_g17(cfg.theta2)} seed={cfg.seed}",
    ]


# ------------------------------------------------------------- normalize


def cmd_normalize(cfg: RunConfig) -> str:
    """Normal-form report: jets, shear parameters, chain, chosen radius."""
    lam, fib, F, pipe = _build(cfg)
    lines = _header(cfg, "normalize")
    lines.append(f"input: lambda = {to_text(lam)}")
    lines.append(f"input: fiber = {to_text(fib)}")
    lines.append(f"quadratic coefficients: a2={_c17(F.a2)} b2={_c17(F.b2)}")

    if pipe.psi1.trivial:
        lines.append("base at infinity: u + 1 (exact)")
    else:
        lines.append(
            f"base at infinity: u + 1 + alpha/u + ..., "
            f"alpha_base={_c17(pipe.alpha_rho)} (straightened numerically)")

    ginf = pipe.fiber_limit or fiber_limit_map(pipe.germ)
    alpha_fiber = 1 - ginf.jet.coeff(1)
    tail = " ".join(
        f"c{k}={_c17(ginf.jet.coeff(k))}"
        for k in range(1, min(4, ginf.jet.order + 1)))
    lines.append(f"fiber limit at infinity: v + 1 + tail, {tail}")
    lines.append(f"alpha_fiber={_c17(alpha_fiber)} (cubic coefficient of the"
                 " normalized fiber)")

    for tag in ("i", "o", "a", "b"):
        lines.append(f"shear[{tag}]: alpha={_c17(pipe.theta.alpha)}"
                     f" beta={_c17(pipe.theta.beta)}")
    lines.append(f"radius: R={_g17(pipe.radius)}")

    lines.append("chain (model coordinates back to input coordinates):")
    steps = [pipe.shears["i"].describe(), "psi1(z)"]
    steps += [step.describe() for step in pipe.origin_chain.steps]
    for k, step in enumerate(steps):
        lines.append(f"  {k}: {step}")
    if pipe.trivial:
        lines.append("corrections: none (the transported map is the exact"
                     " unit translation)")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- coord


def _parse_points(text: str) -> list[tuple[complex, complex]]:
    """`z,w` pairs separated by semicolons, literals in the map grammar."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ParseError(f"point {chunk!r} is not a `z,w` pair")
        pair = []
        for part in parts:
            e = parse_expr(part)
            try:
                pair.append(complex(ev(e, {})))
            except KeyError:
                raise ParseError(
                    f"point coordinate {part!r} must be constant") from None
        out.append((pair[0], pair[1]))
    return out


def cmd_coord(cfg: RunConfig, tag: str, points=None) -> str:
    """Coordinate table for one region tag, as CSV with header comments."""
    if tag not in ("i", "o", "a", "b"):
        raise ValueError(f"tag must be one of i, o, a, b, got {tag!r}")
    lam, fib, F, pipe = _build(cfg)
    ecfg = _engine_cfg(cfg)

    rows = []
    if points is None:
        u, v = region_points(pipe.regions[tag], 20, cfg.seed)
        model = [Point2(complex(a), complex(b), INFINITY)
                 for a, b in zip(u, v)]
        shown = [pipe.origin_chain.forward(p) for p in model]
    else:
        shown = [Point2(z, w, ORIGIN) for z, w in points]
        model = []
        for p in shown:
            try:
                model.append(pipe.origin_chain.inverse(p))
            except (ZeroDivisionError, FatouError):
                model.append(None)

    lines = _header(cfg, f"coord tag={tag}")
    lines.append("z,w,region,value1,value2,iterations,last_delta,"
                 "verdict,error")
    for disp, mp in zip(shown, model):
        if mp is None:
            lines.append(f"{_c17(disp.z)},{_c17(disp.w)},,,,,,,"
                         "unreachable model coordinates")
            continue
        if bool(pipe.regions[tag].mask(mp.z, mp.w)):
            member = tag
        else:
            member = classify(mp, pipe.regions) or ""
        try:
            fv = general_fatou(pipe, tag, mp, ecfg)
            v1, v2 = fv.value
            lines.append(
                f"{_c17(disp.z)},{_c17(disp.w)},{member},"
                f"{_c17(v1)},{_c17(v2)},{fv.iterations},"
                f"{_g17(fv.last_delta)},{fv.verdict},")
        except FatouError as err:
            lines.append(f"{_c17(disp.z)},{_c17(disp.w)},{member},"
                         f",,,,,{type(err).__name__}: {err}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ basin scan


def _forward_step(lam, fib, z, w, group):
    """One step of the map: z holds one base value per group of cells,
    w one fiber value per cell, and group each cell's index into z."""
    with np.errstate(all="ignore"):
        zn = ev(lam, {"z": z})
        wn = ev(fib, {"z": z[group], "w": w})
    ok = np.isfinite(zn)[group] & np.isfinite(wn)
    return zn, wn, ok


def _backward_step(lam, dlam, fib, dfib, z, w, group):
    """One step of the inverse map, solved coordinatewise by Newton.

    As in `_forward_step`, the base is solved once per group and the
    fiber once per cell; the returned ok is per cell.
    """
    with np.errstate(all="ignore"):
        q = z.copy()
        for _ in range(6):
            q = q - (ev(lam, {"z": q}) - z) / ev(dlam, {"z": q})
        qc = q[group]
        p = w.copy()
        for _ in range(6):
            env = {"z": qc, "w": p}
            p = p - (ev(fib, env) - w) / ev(dfib, env)
        rz = np.abs(ev(lam, {"z": q}) - z)
        rw = np.abs(ev(fib, {"z": qc, "w": p}) - w)
    scale_z = np.maximum(1.0, np.abs(z))
    scale_w = np.maximum(1.0, np.abs(w))
    ok_z = np.isfinite(q) & (rz <= 1e-8 * scale_z)
    ok = ok_z[group] & np.isfinite(p) & (rw <= 1e-8 * scale_w)
    return q, p, ok


def _orbit_fate(lam, fib, z0, w0, backward: bool) -> np.ndarray:
    """Per-cell fate codes: 0 undetermined, 1 origin, 2 w-axis, 3 gone.

    Orbits are iterated until they blow up, settle (consecutive step below
    the settle tolerance), or hit the cap; settled and capped cells are
    read out by whether each coordinate moved toward zero. A fiber blowup
    under a still-small base is the w-axis fate; a base blowup leaves the
    chart and carries no fate. The map and its derivatives are compiled
    once per call.

    The base orbit depends on z0 alone, so the cells are grouped by the
    bits of z0 and the base is stepped once per group with a live cell;
    the fiber, the gates and the fates stay per cell. Elementwise numpy
    results do not depend on an element's position or its array's
    length, so this is bit-identical to stepping every cell. The live
    cells are kept packed and repacked only in a step where one retires.
    """
    dlam = CompiledExpr(diff(lam, "z"))
    dfib = CompiledExpr(diff(fib, "w"))
    lam, fib = CompiledExpr(lam), CompiledExpr(fib)
    z0 = z0.astype(complex)
    w0 = w0.astype(complex)
    # grouped by their 16 bytes, so that 0.0 and -0.0 never share a group
    _, first, group = np.unique(z0.view("V16"), return_index=True,
                                return_inverse=True)
    z = z0[first]
    w = w0
    cells = np.arange(z0.size)
    z_end, w_end = z0.copy(), w0.copy()
    fate = np.zeros(z0.size, dtype=np.uint8)
    # a nan or infinite coordinate fails its `<= _SCAN_ESCAPE` test, so
    # that test alone is the escape rule; errstate covers inf - inf
    with np.errstate(invalid="ignore"):
        for _ in range(_SCAN_CAP):
            if cells.size == 0:
                break
            if backward:
                zn, wn, ok = _backward_step(lam, dlam, fib, dfib, z, w,
                                            group)
            else:
                zn, wn, ok = _forward_step(lam, fib, z, w, group)
            z_kept = (np.abs(zn) <= _SCAN_ESCAPE)[group] & ok
            w_kept = np.abs(wn) <= _SCAN_ESCAPE
            safe = z_kept & w_kept
            settled = (safe & (np.abs(zn - z) < _SCAN_SETTLE)[group]
                       & (np.abs(wn - w) < _SCAN_SETTLE))
            live = safe & ~settled
            if live.all():
                z, w = zn, wn
                continue
            axis_hit = z_kept & ~w_kept & (np.abs(z) <= 0.5)[group]
            fate[cells[axis_hit]] = 2
            fate[cells[~safe & ~axis_hit]] = 3
            z_end[cells[settled]] = zn[group[settled]]
            w_end[cells[settled]] = wn[settled]
            cells, w = cells[live], wn[live]
            kept, group = np.unique(group[live], return_inverse=True)
            z = zn[kept]
    z_end[cells] = z[group]
    w_end[cells] = w

    open_cells = fate == 0
    tiny = 1e-12
    z_in = open_cells & ((np.abs(z_end) < np.abs(z0))
                         | (np.abs(z_end) < tiny))
    w_in = open_cells & ((np.abs(w_end) < np.abs(w0))
                         | (np.abs(w_end) < tiny))
    fate[z_in & w_in] = 1
    fate[z_in & ~w_in] = 2
    return fate


def _combine_fates(fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """Tag per cell from the two probes; ties break i, o, b, a."""
    labels = np.full(fwd.shape, "none", dtype="<U4")
    labels[bwd == 2] = "a"
    labels[fwd == 2] = "b"
    labels[bwd == 1] = "o"
    labels[fwd == 1] = "i"
    return labels


def cmd_basin_scan(cfg: RunConfig):
    """Orbit-fate scan of the (r e^{i theta1}, s e^{i theta2}) slice.

    Returns (pgm bytes, csv text, statistics text). The image stores one
    pixel per cell, rows indexed by s from the top, columns by r.
    """
    lam, fib, F, pipe = _build(cfg)
    g = cfg.grid
    vals = cfg.epsilon * np.arange(g) / g
    rr, ss = np.meshgrid(vals, vals)
    zz = (rr * np.exp(1j * cfg.theta1)).ravel()
    ww = (ss * np.exp(1j * cfg.theta2)).ravel()

    on_axis = (np.abs(zz) == 0) | (np.abs(ww) == 0)
    run = ~on_axis
    fwd = np.zeros(zz.size, dtype=np.uint8)
    bwd = np.zeros(zz.size, dtype=np.uint8)
    fwd[run] = _orbit_fate(lam, fib, zz[run], ww[run], backward=False)
    bwd[run] = _orbit_fate(lam, fib, zz[run], ww[run], backward=True)
    labels = _combine_fates(fwd, bwd)
    labels[on_axis] = "axis"

    regions = make_regions(cfg.epsilon, chart=ORIGIN)
    masks = {tag: regions[tag].mask(zz, ww) & ~on_axis
             for tag in ("i", "o", "a", "b")}
    tag_of = np.full(zz.size, "", dtype="<U4")
    for tag, mask in masks.items():
        blank = tag_of == ""
        tag_of[mask & blank] = tag
    ambiguous = np.zeros(zz.size, dtype=bool)
    for tag, mask in masks.items():
        ambiguous |= mask & (tag_of != tag)
    if ambiguous.any():
        probe = np.flatnonzero(ambiguous)
        for k in probe:
            tag_of[k] = classify(
                Point2(complex(zz[k]), complex(ww[k]), ORIGIN), regions) or ""

    in_region = tag_of != ""
    matched = in_region & (labels == tag_of)
    undet = in_region & (labels == "none")
    in_u = UNeighborhood(cfg.epsilon, cfg.M).mask(zz, ww) & ~on_axis

    levels = np.zeros(zz.size, dtype=np.uint8)
    for name, level in _FATE_LEVEL.items():
        levels[labels == name] = level
    comment = (f"# parafatou basin-scan map={cfg.map_path} grid={g}"
               f" epsilon={_g17(cfg.epsilon)} M={cfg.M}"
               f" theta1={_g17(cfg.theta1)} theta2={_g17(cfg.theta2)}"
               f" seed={cfg.seed} tol={_g17(cfg.tol)}")
    pgm = (f"P5\n{comment}\n{g} {g}\n255\n".encode("ascii")
           + levels.reshape(g, g).tobytes())

    csv_lines = _header(cfg, "basin-scan")
    csv_lines.append("ir,is,z_re,z_im,w_re,w_im,region,fate,match")
    for k in range(zz.size):
        ir, is_ = k % g, k // g
        match = "" if not in_region[k] else ("1" if matched[k] else "0")
        csv_lines.append(
            f"{ir},{is_},{_g17(zz[k].real)},{_g17(zz[k].imag)},"
            f"{_g17(ww[k].real)},{_g17(ww[k].imag)},"
            f"{tag_of[k]},{labels[k]},{match}")
    csv_text = "\n".join(csv_lines) + "\n"

    n_region = int(in_region.sum())
    stats = _header(cfg, "basin-scan statistics")
    stats.append(f"cells={zz.size} axis={int(on_axis.sum())}"
                 f" in_region={n_region} in_U={int(in_u.sum())}")
    for tag in ("i", "o", "a", "b"):
        sel = in_region & (tag_of == tag)
        stats.append(f"region {tag}: cells={int(sel.sum())}"
                     f" matched={int((sel & matched).sum())}"
                     f" undetermined={int((sel & undet).sum())}")
    agreement = (int(matched.sum()) / n_region) if n_region else 1.0
    undet_frac = (int(undet.sum()) / n_region) if n_region else 0.0
    stats.append(f"agreement={_g17(agreement)}")
    stats.append(f"undetermined={_g17(undet_frac)}")
    return pgm, csv_text, "\n".join(stats) + "\n"


# ---------------------------------------------------------------- verify


def _reference_germ():
    """Canonical quadratic at infinity; residue 1, genuinely branched."""
    return make_germ1d("z^2/(z - 1)", order=12, chart=INFINITY)


def cmd_verify(cfg: RunConfig):
    """Run the identity suite plus negative controls; returns (code, text).

    The negative controls run on a fixed reference germ with a nonzero
    residue so they stay meaningful for every input map; they must fail,
    and exit code 3 reports a suite whose controls stopped failing.
    """
    lam, fib, F, pipe = _build(cfg)
    ecfg = _engine_cfg(cfg)
    G = pipe.germ
    seed = cfg.seed
    reports = []
    notes = []

    u, v = region_points(pipe.regions["i"], 4, seed)
    pts_i = [Point2(complex(a), complex(b), INFINITY) for a, b in zip(u, v)]
    reports.append(abel_residuals(
        lambda p: general_fatou(pipe, "i", p, ecfg), G, (1, 1), pts_i,
        cfg=ecfg, name="incoming-abel"))

    u, v = region_points(pipe.regions["o"], 2, seed + 1)
    pts_o = [(complex(a), complex(b)) for a, b in zip(u, v)]

    def out_par(m):
        return general_fatou(pipe, "o",
                             Point2(m[0], m[1], INFINITY), ecfg)

    def as_pair(t):
        q = G.evaluate(Point2(t[0], t[1], INFINITY))
        return (q.z, q.w)

    reports.append(parametrization_residuals(
        out_par, as_pair, (1, 1), pts_o, cfg=ecfg, name="outgoing-diagram"))

    u, v = region_points(pipe.regions["i"], 2, seed + 2)
    pts_fin = [Point2(complex(a), complex(b), INFINITY)
               for a, b in zip(u, v)]
    reports.append(finite_n_identity_check(
        G, [1, 3, 10], pts_fin, threshold=max(1e-9, 100 * cfg.tol)))

    if pipe.theta.alpha == 0:
        gmod = conjugated_fiber_limit(pipe, "b")
        u, v = region_points(pipe.regions["b"], 2, seed + 3)
        pts_b = [(complex(a), complex(b)) for a, b in zip(u, v)]

        def b_second(m):
            fv = general_fatou(pipe, "b",
                               Point2(m[0], m[1], INFINITY), ecfg)
            if fv.verdict != CONVERGED:
                raise FatouError(f"verdict={fv.verdict}")
            return fv.value[1]

        reports.append(parametrization_residuals(
            b_second, gmod, (-1, 1), pts_b, cfg=ecfg,
            name="fiber-limit-diagram"))
    else:
        notes.append("fiber-limit-diagram skipped: base log shear is"
                     " nonzero, the sheared fiber limit degenerates at"
                     " 1/log speed")

    pts_dual = [complex(x) for x in
                sector_points(Sector(radius=15.0, direction=-1), 3,
                              seed + 4)]
    reports.append(duality_check(G.first, pipe.alpha_rho, pts_dual,
                                 cfg=ecfg))

    ref = _reference_germ()
    pts_ref_out = [complex(x) for x in
                   sector_points(Sector(radius=15.0, direction=-1), 2,
                                 seed + 5)]
    branch_thr = max(1e-3, 100 * cfg.tol)
    reports.append(direct_branch_check(ref, 1, pts_ref_out, n=50_000,
                                       threshold=branch_thr, cfg=ecfg))

    Fq = make_germ1d("z + 2*z^2", order=8)
    Gq = make_germ1d("z - z^2", order=8)
    reports.append(transport_check(
        lambda zc: -zc / 2, Fq, Gq, [0.02, 0.03 + 0.01j, -0.04j],
        threshold=max(1e-10, 100 * cfg.tol)))

    pts_ref_in = [complex(x) for x in
                  sector_points(Sector(radius=15.0), 2, seed + 6)]
    reports.append(lambda_scaling_check(ref, 1, 2j, pts_ref_in, cfg=ecfg))

    trace = incoming_1d_trace(ref, 1, 10.0, 2000, ecfg)
    deltas = [abs(b - a) for a, b in zip(trace, trace[1:])]
    slope = decay_exponent(deltas)
    slope_ok = slope <= -1.5

    ctl_cfg = replace(ecfg, n_max=min(cfg.n_max, 20_000))
    control_alpha = abel_residuals(
        lambda p: incoming_1d(ref, 2, p, ctl_cfg), ref, 1, pts_ref_in,
        threshold=branch_thr, name="control-wrong-alpha")
    control_branch = direct_branch_check(
        ref, 1, pts_ref_out, n=10_000, threshold=branch_thr,
        log=BranchedLog(-math.pi))
    control_branch = replace(control_branch,
                             identity_name="control-wrong-branch")

    lines = _header(cfg, "verify")
    lines.append(render_reports(reports, seed).rstrip("\n"))
    lines.append(f"identity=decay-slope value={_g17(slope)}"
                 f" threshold=-1.5 status={'pass' if slope_ok else 'FAIL'}"
                 f" seed={seed}")
    for rep in (control_alpha, control_branch):
        status = "ok (failed as required)" if not rep.passed else "BROKEN"
        lines.append(
            f"control={rep.identity_name} max={_g17(rep.max_residual)}"
            f" threshold={_g17(rep.threshold)} expected=FAIL"
            f" status={status} seed={seed}")
    for note in notes:
        lines.append(f"note: {note}")

    if control_alpha.passed or control_branch.passed:
        code = 3
    elif not all(r.passed for r in reports) or not slope_ok:
        code = 1
    else:
        code = 0
    lines.append(f"exit={code}")
    return code, "\n".join(lines) + "\n"


# ------------------------------------------------------------------ main


_COLUMN_DOC = """\
coord CSV columns:
  z, w            input point, original coordinates (a+bi literals)
  region          tag of the model region containing the point, if any
  value1, value2  coordinate value (base part, fiber part)
  iterations      engine iterations used
  last_delta      final stopping increment
  verdict         converged | escaped | max_iter
  error           per-row failure, empty on success
basin CSV columns:
  ir, is          cell indices (column, row)
  z_re, z_im, w_re, w_im  cell coordinates
  region          sector-product tag containing the cell, if any
  fate            orbit fate: i, o, a, b, axis, none
  match           1 if fate equals region tag, 0 if not, empty off-region
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafatou",
        description="Fatou coordinates for parabolic skew products:"
                    " normal forms, coordinates, basin scans, and"
                    " residual verification.",
        epilog=_COLUMN_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("normalize", "write the normal-form report"),
            ("coord", "evaluate one region's coordinate on points"),
            ("basin-scan", "classify orbit fates on a grid slice"),
            ("verify", "run the identity suite and negative controls")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--map", required=True, help="map-definition file")
        p.add_argument("--order-M", type=int, default=4, dest="M",
                       help="vanishing order for the cusp domain (2..10)")
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--n-max", type=int, default=10**6, dest="n_max")
        p.add_argument("--grid", type=int, default=256,
                       help="scan resolution per axis (16..8192)")
        p.add_argument("--theta1", type=float, default=0.0,
                       help="argument of the base slice ray")
        p.add_argument("--theta2", type=float, default=0.0,
                       help="argument of the fiber slice ray")
        p.add_argument("--seed", type=int, default=2026)
        p.add_argument("--out", default=".",
                       help="directory for output documents")
        if name == "coord":
            p.add_argument("--tag", required=True,
                           choices=("i", "o", "a", "b"))
            p.add_argument("--points", default=None,
                           help="`z,w` pairs separated by `;`;"
                                " 20 sampled points when omitted")
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(
        map_path=args.map, M=args.M, epsilon=args.epsilon,
        tol=args.tol, n_max=args.n_max,
        grid=args.grid, theta1=args.theta1, theta2=args.theta2,
        seed=args.seed, out=args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "normalize":
            text = cmd_normalize(cfg)
            (out / "normalize.txt").write_text(text)
            sys.stdout.write(text)
            return 0
        if args.command == "coord":
            points = (_parse_points(args.points)
                      if args.points is not None else None)
            text = cmd_coord(cfg, args.tag, points)
            (out / f"coord_{args.tag}.csv").write_text(text)
            sys.stdout.write(text)
            return 0
        if args.command == "basin-scan":
            pgm, csv_text, stats = cmd_basin_scan(cfg)
            (out / "basin.pgm").write_bytes(pgm)
            (out / "basin.csv").write_text(csv_text)
            (out / "basin_stats.txt").write_text(stats)
            sys.stdout.write(stats)
            return 0
        code, text = cmd_verify(cfg)
        (out / "verify.txt").write_text(text)
        sys.stdout.write(text)
        return code
    except (ParseError, FatouError, ValueError, OSError) as err:
        print(f"parafatou: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
