"""The oracle's tangent drops syzygies whose entries all lie in I.

A first syzygy (a_1..a_s) with every a_j in I gives the condition
sum a_j phi_j = 0 modulo I for any images phi_j, so its lifted rows are
all zero and `tangent_bruteforce` drops it before lifting.  On random
complete intersections (every minimal syzygy Koszul, so every one
dropped) and on ideals that are not complete intersections, in 2-4
variables at p in {2, 3, 32003, 2^31 - 1}: the oracle's tangent
dimension equals the engine's; on a complete intersection it equals
sum_j h(d_j), I/I^2 being free over S/I; every kernel column the rule
drops lifts to no rows; and every column it keeps lifts to the rows of
a term-by-term reference in Python integers.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import linalg  # noqa: E402
from hfstrata.deform import tangent_space  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal  # noqa: E402
from hfstrata.invariants import HilbertSeries, betti_table, hilbert_series  # noqa: E402
from hfstrata.oracle import (  # noqa: E402
    _generator_terms,
    _ideal_piece,
    _lift_conditions,
    _outside_ideal,
    _quotient_piece,
    tangent_bruteforce,
)
from hfstrata.ring import RingContext, monomials_of_degree  # noqa: E402

PRIMES = (2, 3, 32003, 2**31 - 1)


@st.composite
def ideals(draw):
    """Dense random forms, at most n of them, which are mostly complete
    intersections, or sparse ones, up to n + 1 and possibly sharing a
    linear factor, which mostly are not."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, 4))
    ring = RingContext(("x", "y", "z", "w")[:n], PrimeField(p))
    ci = draw(st.booleans())
    if ci:
        count, coeff = draw(st.integers(1, n)), st.integers(0, p - 1)
    else:
        count, coeff = draw(st.integers(2, n + 1)), st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    factor = None if ci or draw(st.booleans()) else ring.variable(draw(st.integers(0, n - 1)))
    gens = []
    for _ in range(count):
        monos = monomials_of_degree(n, draw(st.integers(1, 3 if n < 4 else 2)), ring.order.kind)
        f = ring.from_terms(zip(monos, draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))))
        if not f.is_zero():
            gens.append(f if factor is None else f * factor)
    return Ideal(ring, gens)


def is_complete_intersection(ideal):
    """HS(S/I) = prod_j (1 - t^{d_j}) / (1 - t)^n, which holds exactly
    when the generators form a regular sequence."""
    numerator = [1]
    for f in ideal.generators:
        d = f.homogeneous_degree()
        numerator = [a - (numerator[k - d] if k >= d else 0)
                     for k, a in enumerate(numerator + [0] * d)]
    return hilbert_series(ideal) == HilbertSeries(numerator, ideal.ring.n)


def reference_lift(basis, nf, unk_vec, unk_exps, col, unknowns, p):
    """The nonzero condition rows of one syzygy column, unknown by unknown
    and term by term in Python integers: row f, column (j, m) holds the
    f-th coordinate of sum_t c_t NF[x^(t + m)] over the terms of a_j."""
    slots, mults = unknowns
    block = np.zeros((nf.shape[1], len(slots)), dtype=np.int64)
    for k, (j, m) in enumerate(zip(slots.tolist(), mults)):
        total = [0] * nf.shape[1]
        for u in np.flatnonzero((unk_vec == j) & (col != 0)):
            row = nf[basis.columns((unk_exps[u] + m)[None])[0]]
            total = [a + int(col[u]) * int(b) for a, b in zip(total, row)]
        block[:, k] = [a % p for a in total]
    return block[block.any(axis=1)]


def check_lifts(ideal, bound):
    """Every degree-e kernel column the rule drops, minimal or not, gives
    `_lift_conditions` no rows, and every column it keeps the rows of
    `reference_lift`.  Returns (dropped, kept) counts."""
    p = ideal.ring.field.p
    gens = _generator_terms(ideal)
    degs = gens[1]
    quotients = {}
    for d in sorted(set(degs)):
        basis, _, _, mat = _ideal_piece(gens, d)
        quotients[d] = (basis,) + _quotient_piece(basis, mat, p)
    slots = np.repeat(np.arange(len(degs)), [len(quotients[d][1]) for d in degs])
    mults = np.concatenate([quotients[d][0].exps[quotients[d][1]] for d in degs])
    counts = [0, 0]
    for e in range(min(degs), bound + 1):
        basis, unk_vec, unk_exps, mat = _ideal_piece(gens, e)
        ns = linalg.nullspace(mat.T, p)
        piece = (basis,) + _quotient_piece(basis, mat, p)
        for k in range(ns.shape[1]):
            kept = _outside_ideal(ns[:, k], unk_vec, e, gens, quotients, p)
            counts[kept] += 1
            rows = _lift_conditions(*piece, unk_vec, unk_exps, ns[:, [k]], (slots, mults), p)
            if kept:
                expected = reference_lift(piece[0], piece[2], unk_vec, unk_exps, ns[:, k], (slots, mults), p)
                assert np.array_equal(rows, expected), (e, k)
            else:
                assert rows.shape[0] == 0, (e, k)
    return counts


def test_dropped_syzygies_cut_nothing():
    seen = {"ci": 0, "other": 0, "dropped": 0, "kept": 0}

    @settings(
        derandomize=True,
        max_examples=150,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(ideals())
    def check(ideal):
        if ideal.is_zero_ideal():
            return
        top_gen = max(f.homogeneous_degree() for f in ideal.generators)
        bound = max([j for i, j in betti_table(ideal).entries if i == 1] + [top_gen])
        value = tangent_bruteforce(ideal, bound)
        assert value == tangent_space(ideal).dimension
        if is_complete_intersection(ideal):
            seen["ci"] += 1
            hs = hilbert_series(ideal)
            assert value == sum(hs.coefficient(f.homogeneous_degree()) for f in ideal.generators)
        else:
            seen["other"] += 1
        dropped, kept = check_lifts(ideal, bound)
        seen["dropped"] += dropped
        seen["kept"] += kept

    check()
    assert all(seen.values()), seen
