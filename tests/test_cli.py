"""End-to-end checks of the command-line layer."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parafatou import cli
from parafatou.cli import (
    RunConfig,
    cmd_basin_scan,
    cmd_coord,
    cmd_normalize,
    cmd_verify,
    main,
)
from parafatou.expressions import CompiledExpr, diff, ev, parse_map_file

MAPS = Path(__file__).resolve().parent.parent / "maps"
MOBIUS = str(MAPS / "mobius_cubic.map")


def write_map(tmp_path, text):
    p = tmp_path / "m.map"
    p.write_text(text)
    return str(p)


class TestRunConfig:
    def test_grid_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(MOBIUS, grid=9)
        with pytest.raises(ValueError):
            RunConfig(MOBIUS, grid=10_000)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(MOBIUS, M=1)
        with pytest.raises(ValueError):
            RunConfig(MOBIUS, M=11)


class TestNormalize:
    def test_special_report(self):
        text = cmd_normalize(RunConfig(MOBIUS))
        assert "base at infinity: u + 1 (exact)" in text
        assert "alpha_fiber=1+0i" in text
        assert "radius: R=10" in text
        assert "seed=2026" in text

    def test_chain_listing(self):
        """The shear, then psi1, then the reduction back to the input."""
        text = cmd_normalize(RunConfig(str(MAPS / "mixed_cubic.map")))
        head = "chain (model coordinates back to input coordinates):"
        lines = text.splitlines()
        start = lines.index(head) + 1
        assert lines[start:start + 7] == [
            "  0: log_shear(alpha=(-0.7916666666666665+0j), beta=(1+0j))",
            "  1: psi1(z)",
            "  2: inversion",
            "  3: fiber_scale(w -> w (1 + (0.2265625-0j) z^2))",
            "  4: fiber_scale(w -> w (1 + (-0.625+0j) z^1))",
            "  5: shear(w -> w + (-0.1875+0j) z^2)",
            "  6: scale(s=(-0.5+0j), t=(-0.3333333333333333+0j))",
        ]

    def test_trivial_map_zero_corrections(self, tmp_path):
        path = write_map(tmp_path,
                         "lambda = z/(1 + z)\nfiber = w/(1 + w)\n")
        text = cmd_normalize(RunConfig(path))
        assert "corrections: none" in text
        for tag in "ioab":
            assert f"shear[{tag}]: alpha=0+0i beta=0+0i" in text

    def test_degenerate_base_exit_2(self, tmp_path, capsys):
        path = write_map(tmp_path, "lambda = z + z^3\nfiber = w - w^2\n")
        assert main(["normalize", "--map", path,
                     "--out", str(tmp_path)]) == 2
        assert "DegenerateQuadratic" in capsys.readouterr().err

    def test_missing_fiber_exit_2(self, tmp_path, capsys):
        path = write_map(tmp_path, "lambda = z - z^2\n")
        assert main(["normalize", "--map", path,
                     "--out", str(tmp_path)]) == 2

    def test_grid_flag_out_of_range_exit_2(self, tmp_path, capsys):
        assert main(["normalize", "--map", MOBIUS, "--grid", "9",
                     "--out", str(tmp_path)]) == 2


class TestCoord:
    def test_translation_conjugate_identity(self, tmp_path):
        path = write_map(tmp_path,
                         "lambda = z/(1 + z)\nfiber = w/(1 + w)\n")
        text = cmd_coord(RunConfig(path), "i", points=[(0.01, 0.005)])
        row = text.strip().splitlines()[-1].split(",")
        assert row[2] == "i"
        assert row[3] == "100+0i"
        assert row[4] == "200+0i"
        assert row[5] == "1"
        assert row[7] == "converged"

    def test_sampled_rows_converge(self):
        text = cmd_coord(RunConfig(MOBIUS), "i")
        rows = [ln for ln in text.splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 20
        assert all(r.split(",")[7] == "converged" for r in rows)
        assert all(r.split(",")[2] == "i" for r in rows)

    def test_outside_point_flagged(self):
        text = cmd_coord(RunConfig(MOBIUS), "i", points=[(-0.01, 0.005)])
        row = text.strip().splitlines()[-1].split(",")
        assert row[2] != "i"
        assert row[7] == "escaped"

    def test_bad_point_text_exit_2(self, tmp_path, capsys):
        assert main(["coord", "--map", MOBIUS, "--tag", "i",
                     "--points", "0.01", "--out", str(tmp_path)]) == 2

    def test_nonconstant_point_exit_2(self, tmp_path, capsys):
        assert main(["coord", "--map", MOBIUS, "--tag", "i",
                     "--points", "z,0.01", "--out", str(tmp_path)]) == 2


class TestBasinScan:
    def test_theta0_all_incoming(self):
        pgm, csv_text, stats = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        assert "agreement=1" in stats
        assert "undetermined=0" in stats
        assert "region o: cells=0" in stats

    def test_theta_pi_mirrors_to_a(self):
        import math
        _, _, stats = cmd_basin_scan(
            RunConfig(MOBIUS, grid=16, theta1=math.pi))
        assert "agreement=1" in stats
        assert "region i: cells=0" in stats
        lines = [ln for ln in stats.splitlines()
                 if ln.startswith("region a:")]
        assert "cells=225 matched=225" in lines[0]

    def test_pgm_structure(self):
        pgm, _, _ = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        assert pgm.startswith(b"P5\n# parafatou basin-scan")
        head, payload = pgm.split(b"255\n", 1)
        assert b"16 16" in head
        assert len(payload) == 256
        assert set(payload) <= {0, 51, 102, 153, 204, 255}

    def test_axis_pixels(self):
        pgm, _, _ = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        payload = pgm.split(b"255\n", 1)[1]
        # first row is w=0, first column of every row is z=0
        assert all(b == 51 for b in payload[:16])
        assert all(payload[16 * k] == 51 for k in range(16))

    def test_csv_marks_off_region_cells(self):
        _, csv_text, _ = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        rows = [ln.split(",") for ln in csv_text.splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 256
        by_axis = [r for r in rows if r[7] == "axis"]
        assert len(by_axis) == 31
        assert all(r[8] == "" for r in by_axis)

    def test_determinism(self):
        a = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        b = cmd_basin_scan(RunConfig(MOBIUS, grid=16))
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def _reference_orbit_fate(lam, fib, z0, w0, backward):
    """The per-cell fate loop the grouped `cli._orbit_fate` replaced: every
    active cell is gathered, stepped and scattered at every iteration."""
    def forward_step(z, w):
        with np.errstate(all="ignore"):
            zn = ev(lam, {"z": z})
            wn = ev(fib, {"z": z, "w": w})
        return zn, wn, np.isfinite(zn) & np.isfinite(wn)

    def backward_step(z, w):
        with np.errstate(all="ignore"):
            q = z.copy()
            for _ in range(6):
                q = q - (ev(lam, {"z": q}) - z) / ev(dlam, {"z": q})
            p = w.copy()
            for _ in range(6):
                env = {"z": q, "w": p}
                p = p - (ev(fib, env) - w) / ev(dfib, env)
            rz = np.abs(ev(lam, {"z": q}) - z)
            rw = np.abs(ev(fib, {"z": q, "w": p}) - w)
        scale_z = np.maximum(1.0, np.abs(z))
        scale_w = np.maximum(1.0, np.abs(w))
        ok = (np.isfinite(q) & np.isfinite(p)
              & (rz <= 1e-8 * scale_z) & (rw <= 1e-8 * scale_w))
        return q, p, ok

    dlam = CompiledExpr(diff(lam, "z"))
    dfib = CompiledExpr(diff(fib, "w"))
    lam, fib = CompiledExpr(lam), CompiledExpr(fib)
    z = z0.astype(complex).copy()
    w = w0.astype(complex).copy()
    fate = np.zeros(z.size, dtype=np.uint8)
    active = np.ones(z.size, dtype=bool)
    for _ in range(cli._SCAN_CAP):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        za, wa = z[idx], w[idx]
        if backward:
            zn, wn, ok = backward_step(za, wa)
        else:
            zn, wn, ok = forward_step(za, wa)
        zbad = ~np.isfinite(zn) | (np.abs(zn) > cli._SCAN_ESCAPE) | ~ok
        wbad = ((~np.isfinite(wn) | (np.abs(wn) > cli._SCAN_ESCAPE))
                & ~zbad)
        axis_hit = wbad & (np.abs(za) <= 0.5)
        gone = zbad | (wbad & ~axis_hit)
        safe = ~zbad & ~wbad
        step = np.zeros(idx.size)
        step[safe] = np.maximum(np.abs(zn[safe] - za[safe]),
                                np.abs(wn[safe] - wa[safe]))
        settled = safe & (step < cli._SCAN_SETTLE)
        z[idx[safe]] = zn[safe]
        w[idx[safe]] = wn[safe]
        fate[idx[axis_hit]] = 2
        fate[idx[gone]] = 3
        active[idx[axis_hit | gone | settled]] = False

    open_cells = fate == 0
    tiny = 1e-12
    z_in = open_cells & ((np.abs(z) < np.abs(z0)) | (np.abs(z) < tiny))
    w_in = open_cells & ((np.abs(w) < np.abs(w0)) | (np.abs(w) < tiny))
    fate[z_in & w_in] = 1
    fate[z_in & ~w_in] = 2
    return fate


def test_orbit_fate_matches_per_cell_reference(monkeypatch):
    """Stepping each distinct base once gives every cell's fate as the
    per-cell loop does: on cells that share a base (0.02 and 0.02 - 0j
    apart), bases that escape or fail their Newton solve, fibers that hit
    the w-axis, and cells still open at a small cap."""
    bases = [0.01, 0.02 + 0.01j, -0.03, 0.04j, complex(0.02, 0.0),
             complex(0.02, -0.0), 0.3 - 0.2j, 0.45, -0.6, 0.6, 0.9, -0.95]
    fibers = [0.01, 0.02j, -0.03 + 0.01j, 0.2, -0.9, 0.95j, -0.6, 1.5]
    zz, ww = (a.ravel() for a in np.meshgrid(bases, fibers))
    order = np.random.default_rng(5).permutation(zz.size)
    zz, ww = zz[order], ww[order]
    for cap in (3, 40, cli._SCAN_CAP):
        monkeypatch.setattr(cli, "_SCAN_CAP", cap)
        seen = set()
        for path in sorted(MAPS.glob("*.map")):
            exprs = parse_map_file(path.read_text())
            lam, fib = exprs["lambda"], exprs["fiber"]
            for backward in (False, True):
                got = cli._orbit_fate(lam, fib, zz, ww, backward)
                want = _reference_orbit_fate(lam, fib, zz, ww, backward)
                assert got.tolist() == want.tolist(), (cap, path, backward)
                seen |= set(got.tolist())
        # open (0), origin (1), w-axis (2) and gone (3) cells all occur
        assert seen == ({0, 1, 2, 3} if cap < 1000 else {1, 2, 3})


class TestVerify:
    def test_huge_tol_breaks_controls_exit_3(self):
        code, text = cmd_verify(RunConfig(MOBIUS, tol=1.0))
        assert code == 3
        assert "status=BROKEN" in text
        assert "exit=3" in text

    def test_degenerate_fiber_refused(self, tmp_path, capsys):
        path = write_map(tmp_path, "lambda = z - z^2\nfiber = w + w^3\n")
        assert main(["verify", "--map", path, "--out", str(tmp_path)]) == 2


class TestMain:
    def test_writes_documents(self, tmp_path, capsys):
        code = main(["basin-scan", "--map", MOBIUS, "--grid", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        for name in ("basin.pgm", "basin.csv", "basin_stats.txt"):
            assert (tmp_path / name).exists()
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["mixed_cubic", "mobius_cubic"])
    def test_order_m_6(self, name, tmp_path, capsys):
        """--order-M up to 10 builds a jet deep enough for raise_order."""
        for args in (["normalize"], ["coord", "--tag", "i"]):
            code = main([*args, "--map", str(MAPS / f"{name}.map"),
                         "--order-M", "6", "--out", str(tmp_path)])
            assert code == 0, args
        rows = (tmp_path / "coord_i.csv").read_text().splitlines()
        assert sum("converged" in row for row in rows) == 20
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "parafatou.cli", "normalize",
             "--map", MOBIUS, "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert "alpha_fiber=1+0i" in r.stdout
