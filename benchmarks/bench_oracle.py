"""Time the brute-force oracle's hf, tangent and betti on three inputs.

The inputs are the Fermat cubic x^3 + y^3 + z^3 + w^3 plus two dense
quintics with fixed coefficients over F_32003, a complete intersection
of degrees 3, 5, 5 and the heaviest tangent case of the perfbench
`oracle` workload, and the twisted cubic truncated at m = 4 and at
m = 6 over F_(2^31 - 1), where every entry of the tangent and Betti
matrices can be near 2^31.  `hf` computes h_0 .. h_B (`hf_values`,
zero after the first zero), `tangent` uses degree bound B (m + 4 for
the m = 6 truncation, beyond the workload's sizes), and `betti`
searches degrees up to a bound at or above the top of the Betti table
(13, 8 and 10, the m = 6 table ending in degree 9); on the
truncations each step stops where Tor vanishes, below that bound.
Each case prints the best of a few wall times, the tracemalloc peak of
one more run and the value computed.

Usage:
    python benchmarks/bench_oracle.py [--repeat 3]
"""

import argparse
import time
import tracemalloc
from itertools import combinations_with_replacement

from hfstrata import Ideal, PrimeField, RingContext
from hfstrata.oracle import betti_bruteforce, hf_values, tangent_bruteforce
from hfstrata.ring import monomials_of_degree


def dense_form(ring, d, k):
    """Coefficient (1 + 37 i + 101 k) mod 32003 on the i-th degree-d
    monomial, the monomials listed as multisets of variables."""
    monos = []
    for c in combinations_with_replacement(range(ring.n), d):
        monos.append(tuple(c.count(v) for v in range(ring.n)))
    return ring.from_terms(((m, (1 + 37 * i + 101 * k) % 32003) for i, m in enumerate(monos)))


def inputs():
    """(name, ideal, B, Betti degree bound, homological steps, modes)."""
    ring = RingContext(("x", "y", "z", "w"), PrimeField(32003))
    x, y, z, w = (ring.variable(i) for i in range(4))
    fermat = x * x * x + y * y * y + z * z * z + w * w * w
    curve = Ideal(ring, [fermat, dense_form(ring, 5, 1), dense_form(ring, 5, 2)])

    ring = RingContext(("x", "y", "z", "w"), PrimeField(2**31 - 1))
    x, y, z, w = (ring.variable(i) for i in range(4))
    cubic = [x * z - y * y, x * w - y * z, y * w - z * z]

    def truncation(m):
        return Ideal(ring, cubic + [ring.from_terms([(e, 1)]) for e in monomials_of_degree(4, m, ring.order.kind)])

    every = ("hf", "tangent", "betti")
    return [
        ("Fermat cubic curve, m = 5", curve, 10, 13, 3, every),
        ("twisted cubic + m^4, p = 2^31-1", truncation(4), 8, 8, 6, every),
        ("twisted cubic + m^6, p = 2^31-1", truncation(6), 10, 10, 6, every),
    ]


def best_of(repeat, fn):
    """Best wall time of `repeat` runs, the tracemalloc peak of one more
    run in MB, and the value."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return best, peak, value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"repeat = {args.repeat} (best of)")
    print(f"{'input':>32} {'mode':>8} {'seconds':>8} {'peak MB':>8}  value")
    for name, ideal, bound, top, steps, modes in inputs():
        cases = {
            "hf": lambda: hf_values(ideal, range(bound + 1)),
            "tangent": lambda: tangent_bruteforce(ideal, bound),
            "betti": lambda: dict(betti_bruteforce(ideal, steps, top).entries),
        }
        for mode in modes:
            best, peak, value = best_of(args.repeat, cases[mode])
            print(f"{name:>32} {mode:>8} {best:>7.3f}s {peak:>8.1f}  {value}")


if __name__ == "__main__":
    main()
