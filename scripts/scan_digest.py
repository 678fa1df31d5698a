"""Print one sha256 per basin scan, so two checkouts can be compared fast.

    python3 scripts/scan_digest.py <checkout>

Imports the checkout's own ``src/`` and runs ``cmd_basin_scan`` on both
maps, at grids 32 and 48, on the slices (theta1, theta2) = (0, 0),
(0, pi), (pi, 0), (pi, pi) and (0.5, 2.0): 20 scans.  Each line is the
map, grid, slice and the sha256 of the scan's PGM, CSV and statistics
with the map path stripped, so checkouts in different directories print
the same digests.  The theta1 = pi slices run the long backward orbits
(about 980 iterations) that the grid-256 documents of
``scripts/cli_documents.py`` never reach.  One run takes about 10 s on a
2-vCPU machine.  To compare two checkouts:

    python3 scripts/scan_digest.py old/ > /tmp/old.txt
    python3 scripts/scan_digest.py new/ > /tmp/new.txt
    diff /tmp/old.txt /tmp/new.txt
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

MAPS = ("mixed_cubic", "mobius_cubic")
GRIDS = (32, 48)
SLICES = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi),
          (0.5, 2.0))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from parafatou.cli import RunConfig, cmd_basin_scan

    for map_name in MAPS:
        path = str(checkout / "maps" / f"{map_name}.map")
        for grid in GRIDS:
            for t1, t2 in SLICES:
                cfg = RunConfig(path, grid=grid, theta1=t1, theta2=t2)
                pgm, csv_text, stats = cmd_basin_scan(cfg)
                digest = hashlib.sha256()
                for part in (pgm, csv_text.encode(), stats.encode()):
                    digest.update(part.replace(path.encode(), b"<map>"))
                print(f"{map_name} grid={grid} theta=({t1:.6g}, {t2:.6g})"
                      f" {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
