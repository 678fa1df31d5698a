"""The benchmark's workloads: set-up, seeded inputs, one op and its check.

Every call into the package goes through attributes of the package module
``P`` at call time (``P.general_fatou(...)``), so the traced mode can swap
them for timing wrappers without the workloads knowing.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass

# Residual threshold of every coordinate identity, as in the acceptance
# and pipeline tests.
THRESHOLD = 1e-6
# Points generated per tag before the timed window; a run stops early
# rather than reuse one.
POINTS_PER_TAG = 1024
# Basin-scan grid per axis: a sweep of the four slices costs about 2.7 s
# on the seed code, so a 30 s run holds the eleven ops op_tail_s needs.
BASIN_GRID = 32
BASIN_SLICES = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0),
                (math.pi, math.pi))


@dataclass
class OpResult:
    """An op's outcome. ``refused``: the program raised a FatouError, so
    there was no output to check; otherwise ``ok`` is the output check."""

    ok: bool
    residual: float | None = None
    detail: str = ""
    refused: bool = False


def expr_nodes(e) -> int:
    """Number of nodes of an expression tree."""
    n = 1
    for attr in ("left", "right", "arg", "base"):
        sub = getattr(e, attr, None)
        if sub is not None:
            n += expr_nodes(sub)
    return n


class Workload:
    """Shared set-up and bookkeeping; subclasses define inputs and ops."""

    name = ""
    map_file = ""
    tol = 1e-7
    round_size = 1
    # Set-ups timed after each round of ops, so their samples spread over
    # the timed window the way the op latencies do.
    setups_per_round = 1
    cells_per_op = 0

    def __init__(self, P, root):
        self.P = P
        self.map_text = (root / "maps" / self.map_file).read_text()
        self.map_path = str(root / "maps" / self.map_file)
        self.cfg = P.ConvergenceConfig(tol=self.tol)
        self.verdicts = Counter()
        self.residual_max = 0.0
        self.failures = 0
        self.pipe = None
        self.setup_times: list[float] = []

    def setup(self):
        """Map text to a built pipeline; this is what setup_s times."""
        P = self.P
        exprs = P.parse_map_file(self.map_text)
        F = P.make_skew_germ(exprs["lambda"], exprs["fiber"], order=12)
        return P.build_general_pipeline(F, 4, self.cfg)

    def fiber_nodes(self) -> int:
        return expr_nodes(self.pipe.germ.fiber_expr)

    def record(self, res: OpResult) -> OpResult:
        if res.residual is not None and math.isfinite(res.residual):
            self.residual_max = max(self.residual_max, res.residual)
        if not res.ok:
            self.failures += 1
        return res

    def report_lines(self) -> list[str]:
        tally = " ".join(f"{k}={self.verdicts[k]}" for k in
                         ("converged", "escaped", "max_iter", "raised"))
        return [f"verdicts: {tally}",
                f"verify.residual_max={self.residual_max!r}"
                f" threshold={THRESHOLD!r}"]

    # -------------------------------------------------------- coordinates

    def _coord(self, tag):
        """general_fatou for one tag, tallying every verdict."""
        P = self.P

        def coord(p):
            try:
                fv = P.general_fatou(self.pipe, tag, p, self.cfg)
            except P.FatouError:
                self.verdicts["raised"] += 1
                raise
            self.verdicts[fv.verdict] += 1
            return fv

        return coord

    def _judge(self, rep, raised_before: int) -> OpResult:
        """One-point residual report to an op verdict.

        raised_before is the ``raised`` tally before the op: if
        general_fatou raised during it, the op is refused, not wrong.
        """
        res = rep.max_residual
        ok = (rep.passed and rep.samples == 1 and math.isfinite(res)
              and res < THRESHOLD)
        detail = "" if ok else (str(rep.failures[0][1]) if rep.failures
                                else f"residual {res!r}")
        refused = not ok and self.verdicts["raised"] > raised_before
        return OpResult(ok, res, detail, refused)


class IncomingMixed(Workload):
    """Tag i on the mixed cubic map: one long single-pass limit per value.

    Abel identity phi(F(p)) = phi(p) + (1, 1) at threshold 1e-6 with
    tol 5e-7 on points of ``pipe.regions["i"]``, the incoming settings of
    acceptance test 06. About one op in 700 is refused with
    ChainDomainError on the seed code (NOTES.md, behaviours).
    """

    name = "incoming-mixed"
    map_file = "mixed_cubic.map"
    tol = 5e-7
    round_size = 2

    def inputs(self, seed):
        P = self.P
        u, v = P.region_points(self.pipe.regions["i"], POINTS_PER_TAG, seed)
        return [P.Point2(complex(a), complex(b), P.INFINITY)
                for a, b in zip(u, v)]

    def op(self, p) -> OpResult:
        raised = self.verdicts["raised"]
        rep = self.P.abel_residuals(self._coord("i"), self.pipe.germ, (1, 1),
                                    [p], threshold=THRESHOLD, cfg=self.cfg)
        return self.record(self._judge(rep, raised))


class RecomposeMobius(Workload):
    """Tags o, a, b in turn on the Moebius cubic map: recomposed stages.

    o: outgoing diagram F(P(m)) = P(m + (1, 1)).
    a: Abel-type identity P(z - 1, g(w)) = P(z, w) + (-1, 1).
    b: fiber-limit diagram g(P(m)_w) = P(m + (-1, 1))_w.
    g is ``conjugated_fiber_limit`` of the tag, as in tests/test_general.py.
    """

    name = "recompose-mobius"
    map_file = "mobius_cubic.map"
    tol = 1e-7
    round_size = 3
    setups_per_round = 4
    tags = ("o", "a", "b")

    def inputs(self, seed):
        P = self.P
        self.gmod = {t: P.conjugated_fiber_limit(self.pipe, t)
                     for t in ("a", "b")}
        per_tag = {}
        for tag in self.tags:
            u, v = P.region_points(self.pipe.regions[tag], POINTS_PER_TAG,
                                   seed)
            per_tag[tag] = [(complex(a), complex(b)) for a, b in zip(u, v)]
        return [(tag, per_tag[tag][k]) for k in range(POINTS_PER_TAG)
                for tag in self.tags]

    def op(self, item) -> OpResult:
        P = self.P
        tag, m = item
        germ = self.pipe.germ
        raised = self.verdicts["raised"]
        if tag == "o":
            coord = self._coord("o")

            def par(x):
                return coord(P.Point2(x[0], x[1], P.INFINITY))

            def step(t):
                q = germ.evaluate(P.Point2(t[0], t[1], P.INFINITY))
                return (q.z, q.w)

            rep = P.parametrization_residuals(par, step, (1, 1), [m],
                                              threshold=THRESHOLD,
                                              cfg=self.cfg)
        elif tag == "a":
            gmod = self.gmod["a"]

            def step(p):
                return P.Point2(p.z - 1, gmod(p.w), P.INFINITY)

            rep = P.abel_residuals(self._coord("a"), step, (-1, 1),
                                   [P.Point2(m[0], m[1], P.INFINITY)],
                                   threshold=THRESHOLD, cfg=self.cfg)
        else:
            coord = self._coord("b")

            def second(x):
                fv = coord(P.Point2(x[0], x[1], P.INFINITY))
                if fv.verdict != P.CONVERGED:
                    raise P.FatouError(f"verdict={fv.verdict}")
                return fv.value[1]

            rep = P.parametrization_residuals(second, self.gmod["b"],
                                              (-1, 1), [m],
                                              threshold=THRESHOLD,
                                              cfg=self.cfg)
        return self.record(self._judge(rep, raised))


class BasinSweep(Workload):
    """cmd_basin_scan on the Moebius cubic map over four axis slices.

    An op is one sweep: a full grid scan of each of the four slices, in a
    seeded order. The slices fall into two cost groups about threefold
    apart, so a latency sample per slice would put the median in the gap
    between the groups, where a single slow scan moves it; a sweep is
    the smallest op whose latency is one population. The op fails if any
    slice's outputs differ from the run's first scan of that slice, or if
    that first scan is malformed.

    The scan builds its own pipeline (``cli._build``) every time, so this
    workload runs no separate set-ups: its set-up times are those builds.
    """

    name = "basin-sweep"
    map_file = "mobius_cubic.map"
    setups_per_round = 0
    cells_per_op = len(BASIN_SLICES) * BASIN_GRID ** 2

    def __init__(self, P, root):
        super().__init__(P, root)
        self.first = {}
        self.seed = 0

    def inputs(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        sweeps = []
        for _ in range(POINTS_PER_TAG):
            order = list(range(len(BASIN_SLICES)))
            rng.shuffle(order)
            sweeps.append(order)
        return sweeps

    def _scan(self, s) -> str:
        """Scan one slice; empty string when its outputs check out."""
        P = self.P
        t1, t2 = BASIN_SLICES[s]
        out = P.cmd_basin_scan(P.RunConfig(self.map_path, grid=BASIN_GRID,
                                           theta1=t1, theta2=t2,
                                           seed=self.seed))
        if s not in self.first:
            self.first[s] = out
            return _malformed_scan(*out)
        if out != self.first[s]:
            return f"slice {s} outputs differ from its first scan"
        return ""

    def op(self, order) -> OpResult:
        cli = self.P.cli
        build = cli._build

        def timed_build(cfg):
            t0 = time.perf_counter()
            out = build(cfg)
            self.setup_times.append(time.perf_counter() - t0)
            self.pipe = out[3]
            return out

        cli._build = timed_build
        try:
            problems = [p for p in (self._scan(s) for s in order) if p]
        finally:
            cli._build = build
        return self.record(OpResult(not problems, None, "; ".join(problems)))

    def report_lines(self) -> list[str]:
        lines = []
        for s, (t1, t2) in enumerate(BASIN_SLICES):
            if s not in self.first:
                continue
            stats = self.first[s][2]
            picked = [ln for ln in stats.splitlines()
                      if ln.startswith(("agreement=", "undetermined="))]
            lines.append(f"slice theta1={t1:.6g} theta2={t2:.6g}: "
                         + " ".join(picked))
        return lines


def _malformed_scan(pgm: bytes, csv_text: str, stats: str) -> str:
    """Empty string for a well-formed scan, else what is wrong with it."""
    g = BASIN_GRID
    head = pgm.split(b"\n", 4)
    if len(head) != 5 or head[0] != b"P5" or head[2] != f"{g} {g}".encode():
        return "pgm header malformed"
    if len(head[4]) != g * g:
        return f"pgm holds {len(head[4])} pixels, expected {g * g}"
    rows = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    if len(rows) != g * g + 1:
        return f"csv holds {len(rows) - 1} cells, expected {g * g}"
    fields = dict(tok.split("=", 1) for ln in stats.splitlines()
                  if not ln.startswith("#") and not ln.startswith("region")
                  for tok in ln.split() if "=" in tok)
    if fields.get("cells") != str(g * g):
        return "statistics report the wrong cell count"
    for key in ("agreement", "undetermined"):
        try:
            val = float(fields[key])
        except (KeyError, ValueError):
            return f"statistics lack a numeric {key}= line"
        if not 0.0 <= val <= 1.0:
            return f"{key}={val} outside [0, 1]"
    return ""


WORKLOADS = {w.name: w for w in (IncomingMixed, RecomposeMobius, BasinSweep)}
