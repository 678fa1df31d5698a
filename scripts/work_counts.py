"""Exact per-op work counts of the incoming-mixed op, untimed.

    python3 scripts/work_counts.py <checkout> <seed> <n>

Imports the checkout's own ``src/`` (no bytecode is written) and runs the
``incoming-mixed`` benchmark op on the first ``<n>`` inputs of ``<seed>``,
through the package's public calls only: ``maps/mixed_cubic.map`` built
at M = 4 and tol 5e-7, the inputs ``region_points(pipe.regions["i"],
1024, seed)`` in order, and per input the Abel identity of tag i's
``general_fatou`` at threshold 1e-6, as ``perfbench/workloads.py`` runs it.

While the ops run, ``SkewGerm2D.evaluate``, ``LogShear.inverse`` and
``BranchedLog.__call__`` are wrapped by counters: calls of each, and for
the last two the elements they were given (1 for a scalar, the size of
an array).  Each op prints one line: its index, the counts, and the
iterations and verdict of each limit it ran, then whether its residual
passed.  The last line sums the counts over the ops.  Every count is
exact, so two checkouts compare by ``diff``:

    python3 scripts/work_counts.py old/ 7 20 > /tmp/old.txt
    python3 scripts/work_counts.py new/ 7 20 > /tmp/new.txt
    diff /tmp/old.txt /tmp/new.txt

An op takes about 0.05-0.1 s on a 2-vCPU machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

COUNTS = ("evaluate_calls", "inverse_calls", "inverse_elements", "log_calls",
          "log_elements")


def _counting(counts: dict, cls, name: str, calls: str, elements=None,
              size=None):
    """Wrap cls.name so each call bumps counts[calls] and counts[elements]
    by size(first argument)."""
    plain = getattr(cls, name)

    def wrapped(self, *args, **kwargs):
        counts[calls] += 1
        if elements is not None:
            counts[elements] += size(args[0])
        return plain(self, *args, **kwargs)

    setattr(cls, name, wrapped)


def main(argv) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]).resolve()
    seed, n = int(argv[2]), int(argv[3])
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    import parafatou as P
    from parafatou.germs import SkewGerm2D
    from parafatou.normal_form import BranchedLog, LogShear

    cfg = P.ConvergenceConfig(tol=5e-7)
    exprs = P.parse_map_file(
        (checkout / "maps" / "mixed_cubic.map").read_text())
    F = P.make_skew_germ(exprs["lambda"], exprs["fiber"], order=12)
    pipe = P.build_general_pipeline(F, 4, cfg)
    u, v = P.region_points(pipe.regions["i"], 1024, seed)
    inputs = [P.Point2(complex(a), complex(b), P.INFINITY)
              for a, b in zip(u, v)][:n]

    counts = dict.fromkeys(COUNTS, 0)
    _counting(counts, SkewGerm2D, "evaluate", "evaluate_calls")
    _counting(counts, LogShear, "inverse", "inverse_calls",
              "inverse_elements", lambda p: np.size(p.w))
    _counting(counts, BranchedLog, "__call__", "log_calls", "log_elements",
              np.size)
    totals = dict.fromkeys(COUNTS + ("iterations",), 0)
    for k, p in enumerate(inputs):
        counts.update(dict.fromkeys(COUNTS, 0))
        limits = []

        def coord(q):
            fv = P.general_fatou(pipe, "i", q, cfg)
            limits.append(f"{fv.iterations}:{fv.verdict}")
            totals["iterations"] += fv.iterations
            return fv

        rep = P.abel_residuals(coord, pipe.germ, (1, 1), [p],
                               threshold=1e-6, cfg=cfg)
        for key in COUNTS:
            totals[key] += counts[key]
        print(f"op {k} " + " ".join(f"{key}={counts[key]}" for key in COUNTS)
              + f" limits={','.join(limits)} passed={rep.passed}",
              flush=True)
    print(f"seed={seed} ops={len(inputs)} "
          + " ".join(f"{key}={value}" for key, value in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
