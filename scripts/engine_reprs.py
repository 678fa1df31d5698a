"""Print engine results at fixed points, so two checkouts can be diffed.

    python3 scripts/engine_reprs.py <checkout> <outfile>

Imports the checkout's own ``src/`` and writes one line per call: a label,
then the value, iterations, last_delta and verdict of the FatouValue, the
repr of a point or report, or the error's type and message.  Numpy
scalars print as the Python numbers they equal.  The calls:

- ``general_fatou`` tags i, o, a, b on ``maps/mobius_cubic.map`` at tol
  1e-8 and at n_max 2, at sampled region points and at failure starts,
  and at tol 1e-8 at starts whose base lies outside the tag's base sector
  while the fiber lies inside its own, with integer and complex bases;
  the tag's public special engine runs at those starts too;
- tag b at tol 1e-11 at sampled Moebius points (u, v), beside tag o at
  (-u, v) and the distance of o's fiber value to ``outgoing_1d`` of the
  fiber limit at v;
- the four tags at tol 1e-6 on a special-form germ whose fiber maps
  depend on the base, ``z/(1+z)``, ``w - w^2 + w^3 + z^2*w^2``;
- tag i on ``maps/mixed_cubic.map`` at tol 5e-7, at sampled points and
  their images, and at tol 1e-8 at two of those points, whose late stages
  start their shear solves within the solve's tolerance; tags o, a, b
  there at n_max 600 and 2;
- the four special engines on the Moebius germ upstairs, at the default
  config and at n_max 2, and the four finite stages on that germ, its
  dual step and the mixed germ, at n = 1, 3 and 10;
- ``psi1``/``psi2`` forward and backward on both maps;
- ``incoming_1d``, ``outgoing_1d``, ``duality_check`` and
  ``direct_branch_check`` on one-variable germs.

One run writes 269 lines and takes about 6 s on a 2-vCPU machine.  To
compare two checkouts:

    python3 scripts/engine_reprs.py old/ /tmp/old.txt
    python3 scripts/engine_reprs.py new/ /tmp/new.txt
    diff /tmp/old.txt /tmp/new.txt

A change that may move last bits is compared with ``scripts/numdiff.py``
instead of ``diff``: it separates lines that differ only in floating-point
numbers, with their largest difference, from every other difference.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

TAGS = ("i", "o", "a", "b")


def _plain(x):
    """x with numpy scalars turned into Python numbers, inside tuples too,
    so a change of scalar type alone does not show as a difference."""
    if isinstance(x, tuple) and not hasattr(x, "_fields"):
        return tuple(_plain(v) for v in x)
    if isinstance(x, complex):
        return complex(x)
    if isinstance(x, float):
        return float(x)
    return x


def _show(result) -> str:
    if hasattr(result, "verdict"):
        return (f"{_plain(result.value)!r} {result.iterations} "
                f"{_plain(result.last_delta)!r} {result.verdict}")
    return repr(_plain(result))


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[1]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from parafatou import (
        INFINITY,
        BranchedLog,
        ConvergenceConfig,
        Point2,
        build_general_pipeline,
        direct_branch_check,
        dual_step,
        duality_check,
        general_fatou,
        incoming_1d,
        incoming_2d_finite,
        incoming_2d_special,
        make_germ1d,
        make_skew_germ,
        outgoing_1d,
        outgoing_2d_finite,
        outgoing_2d_special,
        parse_map_file,
        psi_a,
        psi_a_finite,
        psi_b,
        psi_b_finite,
        region_points,
    )

    lines = []

    def record(label, call):
        """Append the call's line; return its result, None if it raised."""
        result = None
        try:
            result = call()
            shown = _show(result)
        except Exception as err:  # every failure is part of the record
            shown = f"error {type(err).__name__}: {err}"
        lines.append(f"{label}: {shown}")
        return result

    def pipeline(name, cfg):
        exprs = parse_map_file(
            (checkout / "maps" / f"{name}.map").read_text())
        F = make_skew_germ(exprs["lambda"], exprs["fiber"], order=12)
        return build_general_pipeline(F, 4, cfg)

    def sampled(pipe, tag, count, seed):
        u, v = region_points(pipe.regions[tag], count, seed)
        return [Point2(complex(a), complex(b), INFINITY)
                for a, b in zip(u, v)]

    # Moebius cubic: every tag, converged and at a tiny budget
    fine = ConvergenceConfig(tol=1e-8)
    short = ConvergenceConfig(tol=1e-12, n_max=2)
    mobius = pipeline("mobius_cubic", fine)
    starts = {"i": [(50, 6 + 2j), (50, -3 + 5j)],
              "o": [(-50, -6 + 2j), (-50, 3 - 5j)]}
    for tag in TAGS:
        points = sampled(mobius, tag, 8, 7)
        points += [Point2(complex(z), complex(w), INFINITY)
                   for z, w in starts.get(tag, ())]
        for cname, cfg in (("tol1e-8", fine), ("nmax2", short)):
            for k, p in enumerate(points):
                record(f"mobius {tag} {cname} #{k} {p.z!r},{p.w!r}",
                       lambda: general_fatou(mobius, tag, p, cfg))

    # tag b at (u, v) beside tag o at (-u, v), and o's distance to the
    # 1-D outgoing coordinate of the fiber limit, which shares no stage
    # code with them: the Moebius fiber maps do not depend on the base,
    # so all three must agree to about the tolerance
    tight = ConvergenceConfig(tol=1e-11)
    ginf = mobius.fiber_limit
    for k, p in enumerate(sampled(mobius, "b", 8, 7)):
        q = Point2(-p.z, p.w, INFINITY)
        record(f"mobius b tol1e-11 #{k} {p.z!r},{p.w!r}",
               lambda: general_fatou(mobius, "b", p, tight))
        fo = record(f"mobius o tol1e-11 #{k} {q.z!r},{q.w!r}",
                    lambda: general_fatou(mobius, "o", q, tight))
        ref = record(f"mobius outgoing_1d tol1e-11 #{k} {p.w!r}",
                     lambda: outgoing_1d(ginf, ginf.jet.coeff(1), p.w,
                                         tight))
        if fo is not None and ref is not None:
            record(f"mobius |o - outgoing_1d| tol1e-11 #{k}",
                   lambda: abs(fo.value[1] - ref.value))

    # a special-form germ whose fiber maps depend on the base: every tag
    # keeps a 1/n bias there, so these rows are a baseline to diff
    coupled_cfg = ConvergenceConfig(tol=1e-6)
    coupled = build_general_pipeline(
        make_skew_germ("z/(1+z)", "w - w^2 + w^3 + z^2*w^2", order=12), 4,
        coupled_cfg)
    coupled_starts = {"i": (40 + 3j, 40 + 5j), "o": (-40 + 3j, -40 + 5j),
                      "a": (-40 + 3j, 40 + 5j), "b": (40 + 3j, -40 + 5j)}
    for tag, (z, w) in coupled_starts.items():
        p = Point2(z, w, INFINITY)
        record(f"coupled {tag} tol1e-6 {z!r},{w!r}",
               lambda: general_fatou(coupled, tag, p, coupled_cfg))

    # only a check of the base stops these orbits: the base starts
    # outside the tag's base sector, the fiber inside its own; the tag's
    # public special engine on the same germ must stop alike
    outside = {"i": (-50, 50 + 2j), "o": (50, -50 + 2j),
               "a": (50, 50 + 1j), "b": (-50, -50 + 1j)}
    public = {"i": incoming_2d_special, "o": outgoing_2d_special,
              "a": psi_a, "b": psi_b}
    for tag, (z, w) in outside.items():
        for p in (Point2(z, w, INFINITY),
                  Point2(complex(z), w, INFINITY)):
            record(f"mobius {tag} base outside {p.z!r},{p.w!r}",
                   lambda: general_fatou(mobius, tag, p, fine))
            record(f"special {tag} base outside {p.z!r},{p.w!r}",
                   lambda: public[tag](mobius.germ, p, fine))

    # mixed cubic: tag i with images, the recomposed tags capped
    coarse = ConvergenceConfig(tol=5e-7)
    mixed = pipeline("mixed_cubic", coarse)
    for k, p in enumerate(sampled(mixed, "i", 5, 11)):
        for side, q in (("point", p), ("image", mixed.germ.evaluate(p))):
            record(f"mixed i tol5e-7 #{k} {side}",
                   lambda: general_fatou(mixed, "i", q, coarse))
    # long enough that the late stages' shear solves start within their
    # own tolerance of the root, so the rerun from the germ fiber shows
    deep = ConvergenceConfig(tol=1e-8)
    for k, p in enumerate(sampled(mixed, "i", 5, 11)[:2]):
        record(f"mixed i tol1e-8 #{k} point",
               lambda: general_fatou(mixed, "i", p, deep))
    for tag in "oab":
        for n_max in (600, 2):
            cfg = ConvergenceConfig(tol=5e-7, n_max=n_max)
            for k, p in enumerate(sampled(mixed, tag, 3, 11)):
                record(f"mixed {tag} nmax{n_max} #{k}",
                       lambda: general_fatou(mixed, tag, p, cfg))

    # special engines and finite stages
    G = mobius.germ
    engines = {"incoming": incoming_2d_special,
               "outgoing": outgoing_2d_special, "psi_a": psi_a,
               "psi_b": psi_b}
    special = {"incoming": [(50, 6 + 2j), (50, -3 + 5j)],
               "outgoing": [(-50, -6 + 2j), (-50, 3 - 5j)],
               "psi_a": [(50, 6 + 2j), (50, -3 + 5j)],
               "psi_b": [(50, -6 + 2j), (-50, 3 - 5j)]}
    for name, engine in engines.items():
        for z, w in special[name]:
            p = Point2(complex(z), complex(w), INFINITY)
            for cname, cfg in (("default", None), ("nmax2", short)):
                record(f"special {name} {cname} {z!r},{w!r}",
                       lambda: engine(G, p, cfg))
    stages = {"incoming": incoming_2d_finite, "outgoing": outgoing_2d_finite,
              "psi_a": psi_a_finite, "psi_b": psi_b_finite}
    steps = {"G": G, "dual": dual_step(G), "mixed": mixed.germ}
    # the second point's negative zeros show whether a stage keeps them
    for p in (Point2(40 + 0j, 6 + 2j, INFINITY),
              Point2(complex(40, -0.0), complex(6, -0.0), INFINITY)):
        for sname, step in steps.items():
            for name, stage in stages.items():
                for n in (1, 3, 10):
                    record(f"finite {name} {sname} n={n} {p.z!r},{p.w!r}",
                           lambda: stage(step, p, n))

    # the base straightenings, both sides, both maps
    for mname, pipe in (("mobius", mobius), ("mixed", mixed)):
        for psi in ("psi1", "psi2"):
            for x in (60 + 5j, -60 + 5j):
                record(f"{mname} {psi}.forward {x!r}",
                       lambda: getattr(pipe, psi).forward(x))
                record(f"{mname} {psi}.backward {x!r}",
                       lambda: getattr(pipe, psi).backward(x))

    # one variable
    quad = make_germ1d("z^2/(z - 1)", order=12, chart=INFINITY)
    flat = make_germ1d("z + 1 + 100/z", order=12, chart=INFINITY)
    cfg = ConvergenceConfig(tol=1e-10)
    for w in (20, 14 + 9j, -3):
        record(f"incoming_1d quad {w!r}",
               lambda: incoming_1d(quad, 1.0, w, cfg))
    for w in (-20, -25 + 3j, 3):
        record(f"outgoing_1d quad {w!r}",
               lambda: outgoing_1d(quad, 1.0, w, cfg))
    record("outgoing_1d flat", lambda: outgoing_1d(flat, 100, -9, cfg))
    record("duality_check quad", lambda: duality_check(
        quad, 1, [-20.0, -25 + 3j, -18 - 2j, 3.0], cfg=cfg))
    record("direct_branch_check quad", lambda: direct_branch_check(
        quad, 1, [-20.0, -15 + 4j], n=10_000))
    record("direct_branch_check wrong cut", lambda: direct_branch_check(
        quad, 1, [-20.0], n=10_000, log=BranchedLog(-math.pi)))
    record("direct_branch_check flat", lambda: direct_branch_check(
        flat, 100, [-9 - 100j * math.pi], n=10))

    Path(argv[2]).write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
