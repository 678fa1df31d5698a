"""Negative controls for the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs each workload briefly with one package call replaced by a faulty one
(a wrong coordinate value, a non-converged verdict, a raised FatouError, a
basin scan whose statistics change between scans) and checks what
``run.main`` reports. A wrong output must count as failed, print
``"correct": false`` and exit non-zero; so must a run in which every op is
refused. A single refused op must count as failed and leave the run
correct, since it produced no output to check. Each case stops after
``MIN_OPS`` = 2 completed or failed ops. Exit code 0 when every case
behaved so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def _wrong_value(P):
    def fake(pipe, tag, p, cfg=None):
        return P.FatouValue((p.z, p.w), 1, 0.0, P.CONVERGED)
    return "general_fatou", fake


def _not_converged(P):
    def fake(pipe, tag, p, cfg=None):
        return P.FatouValue((p.z, p.w), 10, 1.0, P.MAX_ITER)
    return "general_fatou", fake


def _raises(P):
    def fake(pipe, tag, p, cfg=None):
        raise P.ChainDomainError("injected fault")
    return "general_fatou", fake


def _raises_once(P):
    real = P.general_fatou
    calls = []

    def fake(pipe, tag, p, cfg=None):
        calls.append(p)
        if len(calls) == 1:
            raise P.ChainDomainError("injected fault")
        return real(pipe, tag, p, cfg)
    return "general_fatou", fake


def _changed_stats(P):
    real = P.cmd_basin_scan
    seen = set()

    def fake(cfg):
        pgm, csv_text, stats = real(cfg)
        key = (cfg.theta1, cfg.theta2)
        if key in seen:
            stats = stats.replace("agreement=", "agreement=0", 1)
        seen.add(key)
        return pgm, csv_text, stats
    return "cmd_basin_scan", fake


# (workload, fault, whether the run must still pass)
CASES = (
    ("incoming-mixed", _wrong_value, False),
    ("incoming-mixed", _raises, False),
    ("incoming-mixed", _raises_once, True),
    ("recompose-mobius", _not_converged, False),
    ("basin-sweep", _changed_stats, False),
)


def main() -> int:
    P = run.load_package()
    run.MIN_OPS = 2
    caught = 0
    for workload, make, passes in CASES:
        attr, fake = make(P)
        orig = getattr(P, attr)
        setattr(P, attr, fake)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "7",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            setattr(P, attr, orig)
        result = json.loads(out.getvalue().splitlines()[-1])
        ok = (result["failed"] > 0 and result["correct"] == passes
              and (code == 0) == passes)
        caught += ok
        print(f"{workload} with {make.__name__.lstrip('_')}: exit={code}"
              f" correct={result['correct']}"
              f" failed={result['failed']}/{result['attempted']}"
              f" -> {'as required' if ok else 'WRONG'}")
    print(f"{caught}/{len(CASES)} injected faults reported as required")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
