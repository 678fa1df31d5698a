"""Write the CLI documents that a same-behaviour refactor must keep.

    python3 scripts/cli_documents.py <checkout> <outdir>

Runs the command line of the checkout (its own ``src/``) from the
checkout's root with relative ``--map maps/...`` paths, so the documents
embed no absolute path.  For each map it writes ``normalize``, ``coord
--tag i`` and ``coord --tag o``, and ``basin-scan`` at theta (0, 0) and
(0.5, 2.0); ``verify`` runs on ``mobius_cubic`` only: 19 documents under
``<outdir>/<map>/<run>/``.  The scans run at the default grid 256 and
take about a minute each.  To compare two checkouts:

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
    status = 0
    for map_name in MAPS:
        for name, args in runs(map_name):
            target = outdir / map_name / name
            target.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, "-m", "parafatou", *args,
                   "--map", f"maps/{map_name}.map", "--out", str(target)]
            done = subprocess.run(cmd, cwd=checkout, env=env,
                                  stdout=subprocess.DEVNULL)
            print(f"{map_name} {name}: exit {done.returncode}")
            # verify exits 1 when an identity fails; that is a document too
            if done.returncode not in (0, 1):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
