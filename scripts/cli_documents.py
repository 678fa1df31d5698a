"""Write the CLI documents that a same-behaviour refactor must keep.

    python3 scripts/cli_documents.py <checkout> <outdir>

Runs the command line of the checkout (its own ``src/``) from the
checkout's root with relative ``--map maps/...`` paths, so the documents
embed no absolute path.  For each map it writes ``normalize`` at the
default ``--order-M`` 4 and at every other M from 2 to 10, ``coord --tag
i`` and ``coord --tag o``, ``coord --tag i`` at ``--order-M 6``, and
``basin-scan`` at theta (0, 0) and (0.5, 2.0); ``verify`` runs on
``mobius_cubic`` only.  Each run gets its own ``<outdir>/<map>/<run>/``,
holding its documents and a ``status.txt`` with its exit code and
stderr, so a refusal is compared like a document.  ``mixed_cubic``
refuses ``normalize`` at M = 2 and 3, which leaves 35 documents and 29
status files.  The scans run at the default grid 256 and take about a
minute each.  To compare two checkouts:

    python3 scripts/cli_documents.py old/ /tmp/old
    python3 scripts/cli_documents.py new/ /tmp/new
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

MAPS = ("mixed_cubic", "mobius_cubic")
SCANS = {"basin_0_0": ("0", "0"), "basin_0.5_2.0": ("0.5", "2.0")}


def runs(map_name: str):
    """(run name, subcommand arguments) for one map."""
    yield "normalize", ["normalize"]
    for tag in ("i", "o"):
        yield f"coord_{tag}", ["coord", "--tag", tag]
    for M in (2, 3, 5, 6, 7, 8, 9, 10):
        yield f"normalize_M{M}", ["normalize", "--order-M", str(M)]
    yield "coord_i_M6", ["coord", "--tag", "i", "--order-M", "6"]
    for name, (t1, t2) in SCANS.items():
        yield name, ["basin-scan", "--theta1", t1, "--theta2", t2]
    if map_name == "mobius_cubic":
        yield "verify", ["verify"]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]).resolve()
    outdir = Path(argv[2]).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for map_name in MAPS:
        for name, args in runs(map_name):
            target = outdir / map_name / name
            target.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, "-m", "parafatou", *args,
                   "--map", f"maps/{map_name}.map", "--out", str(target)]
            done = subprocess.run(cmd, cwd=checkout, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            (target / "status.txt").write_text(
                f"exit {done.returncode}\n{done.stderr}")
            print(f"{map_name} {name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
