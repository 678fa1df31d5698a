"""parafatou benchmark: verified-coordinate latency and basin scans.

    python3 perfbench/run.py --workload incoming-mixed --seed 1 \
        --seconds 30 --trace 0

Runs one workload (see NOTES.md and BENCHMARK.json) against the package
sources under ``src/`` of the checkout this file sits in, from outside the
package, through the calls a user makes. Every op's output is checked.
Human-readable lines come first; the last line of standard output is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).

An op fails either because its output is wrong (a verdict other than
``converged``, a residual at or above the threshold, a basin scan that
differs from the run's first scan of its slice) or because the program
refused it with a FatouError. Both count in ``failed``; only wrong outputs,
or a run in which no op completed, make ``"correct": false``.

Exit codes: 0 every output passed its check, 1 some output failed its
check or no op completed (the JSON line is still printed, with
``"correct": false``), 2 the package or its map files could not be loaded
(nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

# op_tail_s needs a percentile with ten samples beyond it.
MIN_OPS = 11
# No new round starts after this many seconds of measuring.
HARD_STOP_S = 120.0


def load_package():
    """Import parafatou from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("parafatou")
    except ImportError as err:
        raise RuntimeError(
            f"cannot import parafatou from {src}: {err}") from err
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"parafatou was imported from {origin}")
    return pkg


def tail(values):
    """The highest percentile with ten samples beyond it.

    Returns (value, percentile, samples beyond); a run cut short by
    HARD_STOP_S with fewer than MIN_OPS samples falls back to the maximum.
    With 21 samples or fewer the value is at or below the median.
    """
    s = sorted(values)
    k = len(s) - MIN_OPS if len(s) >= MIN_OPS else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def run_setups(wl, tracer):
    """wl.setups_per_round set-ups, timed into wl.setup_times."""
    for _ in range(wl.setups_per_round):
        t0 = clock()
        wl.pipe = (tracer.run("setup", len(wl.setup_times), wl.setup)
                   if tracer else wl.setup())
        wl.setup_times.append(clock() - t0)


@dataclasses.dataclass
class Tally:
    lat: list = dataclasses.field(default_factory=list)
    lat_traced: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    refused: int = 0
    wrong: int = 0
    op_window: float = 0.0
    details: list = dataclasses.field(default_factory=list)


def measure(wl, items, seconds, tracer) -> Tally:
    """Whole rounds of ops, each followed by its set-ups, until time is up.

    Latencies are kept for completed ops only. The op window is the wall
    time of the rounds minus the set-ups between them. Traced runs time
    every op twice on the same input, untraced first and traced second, so
    the difference is the tracing overhead.
    """
    t = Tally()
    setup_s = 0.0
    k = 0
    t0 = clock()
    while k + wl.round_size <= len(items):
        for _ in range(wl.round_size):
            for traced in ((False, True) if tracer else (False,)):
                s = clock()
                res = (tracer.run("op", k, wl.op, items[k]) if traced
                       else wl.op(items[k]))
                dt = clock() - s
                t.attempted += 1
                if res.ok:
                    (t.lat_traced if traced else t.lat).append(dt)
                else:
                    if res.refused:
                        t.refused += 1
                    else:
                        t.wrong += 1
                    kind = "refused" if res.refused else "wrong"
                    t.details.append(f"op {k} ({kind}): {res.detail}")
            k += 1
        s = clock()
        run_setups(wl, tracer)
        setup_s += clock() - s
        elapsed = clock() - t0
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and (tracer or len(t.lat) >= MIN_OPS
                                   or t.refused + t.wrong >= MIN_OPS):
            break
    t.op_window = clock() - t0 - setup_s
    return t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        P = load_package()
        wl = WORKLOADS[args.workload](P, ROOT)
    except (RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    tracer = Tracer(P) if args.trace else None
    # The coordinate workloads need a pipeline to sample their regions.
    run_setups(wl, tracer)
    t0 = clock()
    items = wl.inputs(args.seed)
    points_s = clock() - t0
    t = measure(wl, items, args.seconds, tracer)
    lat, failed = t.lat, t.refused + t.wrong
    correct = t.wrong == 0 and bool(lat)

    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    print(f"setup: n={len(wl.setup_times)}"
          f" median={statistics.median(wl.setup_times)!r} s")
    print(f"ops: attempted={t.attempted} failed={failed}"
          f" (refused={t.refused} wrong={t.wrong})"
          f" fail_frac={failed / t.attempted!r} window={t.op_window!r} s")
    for line in wl.report_lines():
        print(line)
    for line in t.details[:20]:
        print(f"FAILED {line}")

    if not lat:
        metrics = {}
    elif tracer:
        metrics = layer_metrics(
            tracer, wl.fiber_nodes(),
            {"residual_max": wl.residual_max, "failures": wl.failures},
            points_s)
        p50_u = statistics.median(lat)
        p50_t = statistics.median(t.lat_traced)
        metrics["trace.op_p50_untraced_s"] = (p50_u, "s")
        metrics["trace.op_p50_traced_s"] = (p50_t, "s")
        metrics["trace.overhead_s"] = (p50_t - p50_u, "s")
        metrics["trace.overhead_frac"] = ((p50_t - p50_u) / p50_u, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name}={value!r} {unit}")
    else:
        t_val, t_pct, beyond = tail(lat)
        completed = len(lat)
        print(f"latency: n={completed} p50={statistics.median(lat)!r} s"
              f" tail=p{t_pct:.1f} ({beyond} samples beyond) {t_val!r} s")
        if wl.cells_per_op:
            print(f"cells_per_s={wl.cells_per_op * completed / t.op_window!r}"
                  f" ({wl.cells_per_op} cells per op)")
        metrics = {
            "setup_s": (statistics.median(wl.setup_times), "s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_tail_s": (t_val, "s"),
            "ops_per_s": (completed / t.op_window, "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    print(json.dumps({
        "correct": correct,
        "attempted": t.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
