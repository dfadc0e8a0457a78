"""Time verify_prop31 on rational normal curves at growing truncation
degrees, and the tangent and obstruction spaces of cone curves.

The rational normal curve of degree n is cut out by the 2x2 minors of the
2 x n Hankel matrix in n + 1 variables (n = 3: the twisted cubic).  Each
case builds a fresh ideal, so no Gröbner basis or Betti table is cached
between runs, and prints the best of a few times with the report's
overall verdict.

A cone case is a surface cone I_X and a degree m: `cone_curve(I_X, m,
seed=1)` draws the curve I_C = I_X + (g_1, g_2), and `tangent_space` and
`ext1_space` are each timed on a fresh copy of I_C, Gröbner basis,
Betti table and resolution included.  The surfaces are the quadric cone
xw - yz and the Fermat cubic x^3 + y^3 + z^3 + w^3 in P^3, and the cone
over the twisted cubic in five variables; their curves come from dense
random forms, the dense side of the Nakayama selection.

Usage:
    python benchmarks/bench_verify.py [--cases 3:8,3:12,4:5,4:6,5:4,6:4]
        [--cones fermat:6,quadric:6,tc5:4] [--repeat 3]

Each case is `n:m`, the curve degree and the truncation degree; each cone
is `surface:m`.  An empty list skips its table.
Each time is given twice: wall seconds, and reference seconds (`ref`),
the wall time corrected for the host's speed by perfbench's
`SpeedSampler` (perfbench/speed.py), so that tables from runs on a
shared host whose speed drifts, or from different hosts, compare.
The default best of 3 is there because single runs of one commit on a
shared 2-vCPU host spread by up to 40% (4.54-7.51 s for tc5's Ext^1),
where best-of-3 runs spread 4.98-5.50 s.
"""

import argparse
import sys
from pathlib import Path

from hfstrata import Ideal, PrimeField, RingContext
from hfstrata.deform import ext1_space, tangent_space
from hfstrata.strata import cone_curve, verify_prop31

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from speed import SpeedSampler  # noqa: E402

P = 32003
NAMES = "abcdefghij"


def rational_normal_curve(n):
    """2x2 minors of the Hankel matrix [[v_0 .. v_{n-1}], [v_1 .. v_n]]."""
    ring = RingContext(tuple(NAMES[: n + 1]), PrimeField(P))
    v = [ring.variable(i) for i in range(n + 1)]
    return Ideal(ring, [v[i] * v[j + 1] - v[i + 1] * v[j] for i in range(n) for j in range(i + 1, n)])


def surface(name):
    """The surface cone I_X called `name`."""
    ring = RingContext(tuple(NAMES[: 5 if name == "tc5" else 4]), PrimeField(P))
    a, b, c, d = (ring.variable(i) for i in range(4))
    gens = {
        "quadric": [a * d - b * c],
        "fermat": [a * a * a + b * b * b + c * c * c + d * d * d],
        "tc5": [a * c - b * b, a * d - b * c, b * d - c * c],
    }[name]
    return Ideal(ring, gens)


def best_of(repeat, fn):
    """(best wall seconds, best reference seconds, last value) of
    `repeat` calls of fn, each timed under its own SpeedSampler."""
    wall = ref = float("inf")
    for _ in range(repeat):
        with SpeedSampler() as speed:
            t0 = speed.clock()
            value = fn()
            t1 = speed.clock()
        wall = min(wall, t1 - t0)
        ref = min(ref, speed.ref_seconds(t0, t1))
    return wall, ref, value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="3:8,3:12,4:5,4:6,5:4,6:4")
    parser.add_argument("--cones", default="fermat:6,quadric:6,tc5:4")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"p = {P}, repeat = {args.repeat} (best of)")
    if args.cases:
        print(f"{'curve':>8} {'m':>3} {'verify_prop31':>14} {'ref':>7} {'ok':>5}")
    for token in filter(None, args.cases.split(",")):
        n, m = (int(x) for x in token.split(":"))
        wall, ref, ok = best_of(
            args.repeat, lambda: verify_prop31(rational_normal_curve(n), m).all_ok()
        )
        print(f"{'RNC ' + str(n):>8} {m:>3} {wall:>13.2f}s {ref:>6.2f}s {str(ok):>5}")
    if args.cones:
        print(
            f"{'surface':>8} {'m':>3} {'tangent_space':>14} {'ref':>7} {'dim':>4} "
            f"{'ext1_space':>11} {'ref':>7} {'dim':>4}"
        )
    for token in filter(None, args.cones.split(",")):
        name, m = token.split(":")
        curve, _ = cone_curve(surface(name), int(m), seed=1)
        gens = curve.generators  # a fresh Ideal for each call caches nothing between them
        t_tan, r_tan, tan = best_of(args.repeat, lambda: tangent_space(Ideal(curve.ring, gens)))
        t_ext, r_ext, ext = best_of(args.repeat, lambda: ext1_space(Ideal(curve.ring, gens)))
        print(
            f"{name:>8} {m:>3} {t_tan:>13.2f}s {r_tan:>6.2f}s {tan.dimension:>4} "
            f"{t_ext:>10.2f}s {r_ext:>6.2f}s {ext.dimension:>4}"
        )


if __name__ == "__main__":
    main()
