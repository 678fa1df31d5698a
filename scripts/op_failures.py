"""List the benchmark ops that a checkout fails, seed by seed, untimed.

    python3 scripts/op_failures.py <checkout> <workload> <first_seed> \
        <last_seed> <ops>

Imports the checkout's own ``src/`` and its ``perfbench/workloads.py``
(read-only: no bytecode is written), builds one pipeline, and runs the
first ``<ops>`` ops of every seed from ``<first_seed>`` to ``<last_seed>``
in the order the benchmark runs them.  Each failed op prints as one line:
seed, op index, ``refused`` (the program raised a FatouError) or ``wrong``
(its output failed the check), the input and the detail.  The last line
gives the totals.  Exit code 1 when any op failed.

Every benchmark set-up builds the same pipeline, so one pipeline stands
for all of them.  An ``incoming-mixed`` op takes about 0.1 s on a 2-vCPU
machine.  For example:

    python3 scripts/op_failures.py . incoming-mixed 1 20 400
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]).resolve()
    name = argv[2]
    first, last, ops = (int(a) for a in argv[3:6])
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import parafatou
    from workloads import WORKLOADS

    wl = WORKLOADS[name](parafatou, checkout)
    wl.pipe = wl.setup()
    totals = {"ops": 0, "refused": 0, "wrong": 0}
    for seed in range(first, last + 1):
        for k, item in enumerate(wl.inputs(seed)[:ops]):
            res = wl.op(item)
            totals["ops"] += 1
            if res.ok:
                continue
            kind = "refused" if res.refused else "wrong"
            totals[kind] += 1
            print(f"seed {seed} op {k} {kind}: {item!r}: {res.detail}",
                  flush=True)
    print(f"workload={name} seeds={first}..{last} ops_per_seed={ops} "
          + " ".join(f"{k}={v}" for k, v in totals.items()))
    return 1 if totals["refused"] or totals["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
