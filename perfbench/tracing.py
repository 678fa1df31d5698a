"""Traced mode: spans and per-step counters around the package's layers.

The benchmark never edits the package. For the length of one traced op or
set-up it replaces attributes of the package's modules and classes with
timing wrappers, and puts the originals back afterwards.

There are two kinds of boundary:

* spans (op, set-up, ``general_fatou``, the ``verify`` residual functions,
  ``cmd_basin_scan``) become records with a parent, the unit (op or set-up)
  they belong to, a start and an end;
* per-step boundaries (``ev``, ``SkewGerm2D.evaluate``, ``LogShear.inverse``,
  ``engine.incoming_1d`` and the other entries of ``_plan``) run tens of
  thousands of times per op, so each call only adds its count, total time
  and self time into the enclosing span. Memory stays bounded by the number
  of spans, a handful per op.

A frame's self time is its duration minus the time spent in wrapped frames
it called. ``ev`` is wrapped as imported by ``germs`` and ``cli``, not as
``expressions.ev``: the latter recurses through its own module global, so
wrapping it would count every node visit instead of every evaluation.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "parent", "unit", "start", "end", "child",
                 "stats", "info")

    def __init__(self, sid, name, parent, unit, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = start
        self.end = start
        self.child = 0.0
        self.stats = {}
        self.info = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Span records plus per-span step counters, kept in memory."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[Span] = []
        self._root = Span(-1, "root", None, ("none", -1), 0.0)
        self._current = self._root
        self._unit = ("none", -1)
        # child-time accumulator of every open frame; index 0 is the root
        self._child = [0.0]
        # (owner, attribute, original, wrapper) for every boundary
        self._swaps = [(owner, attr, owner.__dict__[attr], wrapped)
                       for owner, attr, wrapped in self._plan()]

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, on_result=None):
        tracer = self
        child = self._child

        def wrapper(*args, **kwargs):
            parent = tracer._current
            sp = Span(len(tracer.spans), name, parent.sid, tracer._unit,
                      clock())
            tracer.spans.append(sp)
            tracer._current = sp
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, result)
                return result
            finally:
                sp.end = clock()
                sp.child = child.pop()
                child[-1] += sp.end - sp.start
                tracer._current = parent

        return wrapper

    def step(self, name, fn):
        tracer = self
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stats = tracer._current.stats
                rec = stats.get(name)
                if rec is None:
                    stats[name] = [1, dt, dt - inner]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - inner

        return wrapper

    def _ev_step(self, fn):
        """ev wrapper that also counts array calls and their cells."""
        tracer = self
        timed = self.step("expressions.ev", fn)

        def wrapper(expr, env):
            result = timed(expr, env)
            if type(result) is np.ndarray:
                stats = tracer._current.stats
                rec = stats.get("expressions.ev_array")
                if rec is None:
                    stats["expressions.ev_array"] = [1, result.size, 0.0]
                else:
                    rec[0] += 1
                    rec[1] += result.size
            return result

        return wrapper

    def _fate(self, fn):
        fwd = self.step("cli.fate_forward", fn)
        bwd = self.step("cli.fate_backward", fn)

        def wrapper(lam, fib, z0, w0, backward):
            return (bwd if backward else fwd)(lam, fib, z0, w0, backward)

        return wrapper

    def _plan(self):
        p = self.pkg
        eng, germs, nf, cli, reg = (p.engine, p.germs, p.normal_form,
                                    p.cli, p.regions)

        def record_fv(sp, fv):
            sp.info = {"iterations": fv.iterations, "verdict": fv.verdict}

        s = self.step
        return [
            (p, "general_fatou",
             self.span("general_fatou", p.general_fatou, record_fv)),
            (p, "abel_residuals", self.span("verify", p.abel_residuals)),
            (p, "parametrization_residuals",
             self.span("verify", p.parametrization_residuals)),
            (p, "cmd_basin_scan",
             self.span("cmd_basin_scan", p.cmd_basin_scan)),
            (p, "make_skew_germ", s("germs.build", p.make_skew_germ)),
            (p, "build_general_pipeline",
             s("engine.build_pipeline", p.build_general_pipeline)),
            (cli, "make_skew_germ", s("germs.build", cli.make_skew_germ)),
            (cli, "build_general_pipeline",
             s("engine.build_pipeline", cli.build_general_pipeline)),
            (eng, "to_infinity", s("germs.build", eng.to_infinity)),
            (eng, "normalize_quadratic",
             s("normal_form.normalize", eng.normalize_quadratic)),
            (eng, "raise_order", s("normal_form.raise_order",
                                   eng.raise_order)),
            (eng, "choose_radius", s("regions.choose_radius",
                                     eng.choose_radius)),
            (eng, "incoming_1d", s("engine.incoming_1d", eng.incoming_1d)),
            (germs, "ev", self._ev_step(germs.ev)),
            (cli, "ev", self._ev_step(cli.ev)),
            (germs, "to_series1", s("series.expand", germs.to_series1)),
            (germs, "to_series2", s("series.expand", germs.to_series2)),
            (nf, "to_series2", s("series.expand", nf.to_series2)),
            (germs.SkewGerm2D, "evaluate",
             s("germs.evaluate", germs.SkewGerm2D.evaluate)),
            (germs.Germ1D, "local_inverse",
             s("germs.local_inverse", germs.Germ1D.local_inverse)),
            (germs.SkewGerm2D, "local_inverse",
             s("germs.local_inverse", germs.SkewGerm2D.local_inverse)),
            (nf.LogShear, "forward",
             s("normal_form.chain", nf.LogShear.forward)),
            (nf.LogShear, "inverse",
             s("normal_form.chain", nf.LogShear.inverse)),
            (reg.ProductRegion, "mask",
             s("regions.mask", reg.ProductRegion.mask)),
            (reg.UNeighborhood, "mask",
             s("regions.mask", reg.UNeighborhood.mask)),
            (cli, "classify", s("regions.classify", cli.classify)),
            (cli, "make_regions", s("regions.make_regions",
                                    cli.make_regions)),
            (cli, "_orbit_fate", self._fate(cli._orbit_fate)),
            (cli, "_forward_step", s("cli.step", cli._forward_step)),
            (cli, "_backward_step", s("cli.step", cli._backward_step)),
        ]

    # ------------------------------------------------------------- running

    def run(self, kind: str, index: int, fn, *args):
        """Call fn(*args) as one traced unit (an op or a set-up)."""
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)
        self._unit = (kind, index)
        try:
            return self.span(kind, fn)(*args)
        finally:
            self._unit = ("none", -1)
            for owner, attr, orig, _ in reversed(self._swaps):
                setattr(owner, attr, orig)


# ------------------------------------------------------------- read-out


def _per_unit(spans, kind):
    """unit index -> (step name -> [calls, total, self]), span self times."""
    steps = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    selfs = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        if sp.unit[0] != kind:
            continue
        idx = sp.unit[1]
        for name, rec in sp.stats.items():
            acc = steps[idx][name]
            acc[0] += rec[0]
            acc[1] += rec[1]
            acc[2] += rec[2]
        selfs[idx][sp.name] += sp.self_s
    return steps, selfs


def layer_metrics(tracer: Tracer, fiber_nodes: int, verify_stats: dict,
                  points_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit).

    Op-scoped metrics are means over the traced ops; set-up-scoped ones
    (``*.build_s``, ``normal_form.normalize_s``, ``raise_order_s``,
    ``regions.choose_radius_s``, ``series.*``, ``*.setup_*``) are medians
    over the traced set-ups.
    """
    spans = tracer.spans
    op_steps, op_selfs = _per_unit(spans, "op")
    su_steps, _ = _per_unit(spans, "setup")
    n_ops = max(1, len(op_selfs))

    def op_sum(name, field):
        return sum(u[name][field] for u in op_steps.values() if name in u)

    def op_mean(name, field):
        return op_sum(name, field) / n_ops

    def span_self(name):
        return sum(u[name] for u in op_selfs.values()) / n_ops

    def su_median(name, field):
        vals = [u[name][field] for u in su_steps.values()]
        return statistics.median(vals) if vals else 0.0

    ev_calls = op_sum("expressions.ev", 0)
    ev_s = op_sum("expressions.ev", 1)
    arr_calls = op_sum("expressions.ev_array", 0)
    arr_cells = op_sum("expressions.ev_array", 1)

    gf = [sp for sp in spans if sp.name == "general_fatou"
          and sp.unit[0] == "op"]
    iterations = sum(sp.info["iterations"] for sp in gf if sp.info)
    gf_evals = sum(sp.stats.get("germs.evaluate", (0,))[0] for sp in gf)
    verdicts = [sp.info["verdict"] for sp in gf if sp.info]

    regions_self = (op_mean("regions.mask", 2)
                    + op_mean("regions.classify", 2)
                    + op_mean("regions.make_regions", 2))
    m = {
        "expressions.ev_calls": (ev_calls / n_ops, "count"),
        "expressions.ev_s": (ev_s / n_ops, "s"),
        "expressions.ev_us_per_call": (
            1e6 * ev_s / ev_calls if ev_calls else 0.0, "us"),
        "expressions.fiber_nodes": (fiber_nodes, "count"),
        "expressions.cells_per_call": (
            arr_cells / arr_calls if arr_calls else 0.0, "cells"),
        "expressions.setup_ev_calls": (
            su_median("expressions.ev", 0), "count"),
        "expressions.setup_ev_s": (su_median("expressions.ev", 1), "s"),
        "series.expand_calls": (su_median("series.expand", 0), "count"),
        "series.expand_s": (su_median("series.expand", 1), "s"),
        "germs.evaluate_calls": (op_mean("germs.evaluate", 0), "count"),
        "germs.evaluate_self_s": (op_mean("germs.evaluate", 2), "s"),
        "germs.local_inverse_calls": (
            op_mean("germs.local_inverse", 0), "count"),
        "germs.local_inverse_self_s": (
            op_mean("germs.local_inverse", 2), "s"),
        "germs.setup_local_inverse_calls": (
            su_median("germs.local_inverse", 0), "count"),
        "germs.setup_local_inverse_self_s": (
            su_median("germs.local_inverse", 2), "s"),
        "germs.build_s": (su_median("germs.build", 1), "s"),
        "normal_form.normalize_s": (
            su_median("normal_form.normalize", 1), "s"),
        "normal_form.raise_order_s": (
            su_median("normal_form.raise_order", 1), "s"),
        "normal_form.chain_calls": (
            op_mean("normal_form.chain", 0), "count"),
        "normal_form.chain_self_s": (op_mean("normal_form.chain", 2), "s"),
        "regions.choose_radius_s": (
            su_median("regions.choose_radius", 1), "s"),
        "regions.mask_calls": (op_mean("regions.mask", 0), "count"),
        "regions.classify_calls": (op_mean("regions.classify", 0), "count"),
        "regions.self_s": (regions_self, "s"),
        "sampling.points_s": (points_s, "s"),
        "engine.iterations_per_op": (iterations / n_ops, "count"),
        "engine.evals_per_iteration": (
            gf_evals / iterations if iterations else 0.0, "ratio"),
        "engine.incoming_1d_calls": (
            op_mean("engine.incoming_1d", 0), "count"),
        "engine.self_s": (span_self("general_fatou")
                          + op_mean("engine.incoming_1d", 2), "s"),
        "engine.escaped": (verdicts.count("escaped"), "count"),
        "engine.max_iter": (verdicts.count("max_iter"), "count"),
        "verify.self_s": (span_self("verify"), "s"),
        "verify.residual_max": (verify_stats["residual_max"], "abs"),
        "verify.failures": (verify_stats["failures"], "count"),
        "cli.fate_forward_s": (op_mean("cli.fate_forward", 1), "s"),
        "cli.fate_backward_s": (op_mean("cli.fate_backward", 1), "s"),
        "cli.step_calls": (op_mean("cli.step", 0), "count"),
        "cli.render_s": (span_self("cmd_basin_scan"), "s"),
    }
    return m
