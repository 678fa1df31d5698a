"""Compare two checkouts on one benchmark workload in interleaved pairs.

    python3 scripts/ab_pairs.py <parent> <change> <workload> <seeds> \
        <seconds>

For each seed (``701-710`` or ``701,703,705``) runs ``perfbench/run.py``
of both checkouts, each from its own directory, for ``<seconds>`` seconds.
The side that runs first alternates from pair to pair, so a slow drift of
the machine does not favour one side. Each run prints one line: seed,
side, ``correct``, failed and attempted ops, and its end-to-end metrics.

Then, for each end-to-end metric of the parent's ``BENCHMARK.json`` (read,
never written), one line gives each side's median and quartiles, the pairs
in which the change is better, whether the change's median lies inside
the metric's bound of the parent's median, and whether the gap between
the medians exceeds the parent's interquartile range.

Exit code 0 when every run printed its metrics and was correct, 1 when
some run was not, 2 on bad arguments. For example:

    python3 scripts/ab_pairs.py /tmp/parent . recompose-mobius 701-710 30
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(a) for a in text.split("-"))
        return list(range(first, last + 1))
    return [int(a) for a in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run; its JSON line, or None if it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
        timeout=seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    workload = argv[3]
    seeds = parse_seeds(argv[4])
    seconds = float(argv[5])
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": parent, "change": change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    pairs = []
    all_ok = True
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            out = run(sides[side], workload, seed, seconds)
            if out is None:
                print(f"seed {seed} {side}: no metrics", flush=True)
                all_ok = False
                continue
            all_ok &= bool(out["correct"])
            got = {name: m["value"] for name, m in out["metrics"].items()}
            print(f"seed {seed} {side}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} "
                  + " ".join(f"{n}={v:.6g}" for n, v in got.items()),
                  flush=True)
            pair[side] = got
        if len(pair) == 2:
            pairs.append(pair)
            for side, got in pair.items():
                for m in metrics:
                    values[side][m["name"]].append(got[m["name"]])
    if not pairs:
        return 1
    print(f"workload={workload} pairs={len(pairs)} seconds={seconds:g}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        old, new = values["parent"][name], values["change"][name]
        q_old, q_new = quartiles(old), quartiles(new)
        wins = sum((p["change"][name] < p["parent"][name]) if lower
                   else (p["change"][name] > p["parent"][name])
                   for p in pairs)
        limit = q_old[1] * (1 + bound if lower else 1 - bound)
        inside = q_new[1] <= limit if lower else q_new[1] >= limit
        gap = (q_old[1] - q_new[1]) if lower else (q_new[1] - q_old[1])
        move = (q_new[1] / q_old[1] - 1) * 100 if q_old[1] else float("nan")
        print(f"{name}: parent {q_old[1]:.6g} [{q_old[0]:.6g}-{q_old[2]:.6g}]"
              f" change {q_new[1]:.6g} [{q_new[0]:.6g}-{q_new[2]:.6g}]"
              f" ({move:+.1f} %) better {wins}/{len(pairs)}"
              f" inside_bound={inside} (limit {limit:.6g})"
              f" gap_beyond_parent_iqr={gap > q_old[2] - q_old[0]}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
