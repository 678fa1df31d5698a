"""End-to-end checks of the command-line layer."""

import subprocess
import sys
from pathlib import Path

import pytest

from parafatou.cli import (
    RunConfig,
    cmd_basin_scan,
    cmd_coord,
    cmd_normalize,
    cmd_verify,
    main,
)

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

    def test_module_entry_point(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "parafatou.cli", "normalize",
             "--map", MOBIUS, "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert "alpha_fiber=1+0i" in r.stdout
