"""Koszul Betti numbers, their Taylor degree caps, and guided Nakayama selection.

The engine reads Betti tables off Koszul homology and uses them to steer
minimal-generator selection; these tests hold both against the
brute-force oracle and against selection run without the table.
"""

from functools import cache

import pytest

from hfstrata.groebner import Ideal, maximal_ideal_power, vector_syzygies
from hfstrata.invariants import (
    BettiTable,
    _taylor_degree_caps,
    betti_table,
    minimal_generator_subset,
    regularity,
)
from hfstrata.oracle import betti_bruteforce
from hfstrata.ring import GREVLEX, LEX
from hfstrata.strata import truncate_ideal

from conftest import build_corpus, quadric_cone, ring2, twisted_cubic

PRIMES = (2, 3, 32003, 2**31 - 1)
ORDERS = (GREVLEX, LEX)


@cache
def unguided_levels(ideal):
    """[(candidates, ambient shifts, chosen, degrees)] per level, selected
    with no Betti table (memoized: ideals compare by ring and generators)."""
    ring = ideal.ring
    current, shifts = [(f,) for f in ideal.generators], (0,)
    levels = []
    while current:
        chosen, degs = minimal_generator_subset(ring, current, shifts)
        if not chosen:
            break
        levels.append((current, shifts, chosen, degs))
        current = vector_syzygies(ring, chosen, shifts)
        shifts = tuple(degs)
    return levels


def unguided_betti(ideal):
    return BettiTable.from_shifts([level[3] for level in unguided_levels(ideal)])


def corpus_and_truncations(order, p):
    for name, ideal in build_corpus(order, p).items():
        yield name, ideal
        if not ideal.is_zero_ideal():
            m = regularity(ideal) + 2
            yield f"{name} + m^{m}", truncate_ideal(ideal, m)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order", ORDERS)
def test_koszul_betti_matches_oracle_and_unguided_resolution(order, p):
    for name, ideal in corpus_and_truncations(order, p):
        koszul = betti_table(ideal)
        if ideal.is_zero_ideal():
            assert koszul.entries == {}
            continue
        # the oracle searches up to the table's top degree, or up to the
        # largest (possibly redundant) generator degree, below which it
        # refuses to run; the unguided resolution has no degree bound at all
        top = max([j for _, j in koszul.entries] + [f.homogeneous_degree() for f in ideal.generators])
        assert koszul == betti_bruteforce(ideal, ideal.ring.n + 1, top), name
        assert koszul == unguided_betti(ideal), name


def test_unit_and_zero_ideal_tables():
    r = ring2()
    x = r.variable(0)
    assert betti_table(Ideal(r, [r.one()])).entries == {(0, 0): 1}
    assert betti_table(Ideal(r, [x, r.one()])).entries == {(0, 0): 1}
    assert betti_table(Ideal(r, [])).entries == {}


def test_taylor_caps():
    # (x^2, y^2): the Koszul entry (1, 4) sits exactly on the cap
    assert _taylor_degree_caps([(2, 0), (0, 2)]) == {1: (2, 2), 2: (3, 4)}
    # three quadrics in four variables: at most three homological steps,
    # and degrees bounded by deg lcm = 4 rather than by 2 + 2 + 2
    lead = [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)]
    assert _taylor_degree_caps(lead) == {1: (2, 2), 2: (3, 4), 3: (4, 4)}


@pytest.mark.parametrize("order", ORDERS)
def test_betti_tables_lie_under_taylor_caps(order):
    for name, ideal in corpus_and_truncations(order, 32003):
        if ideal.is_zero_ideal():
            continue
        caps = _taylor_degree_caps(ideal.lead_exponents())
        for (i, j) in betti_table(ideal).entries:
            lo, hi = caps[i + 1]
            assert lo <= j <= hi, (name, i, j)


@pytest.mark.parametrize("build", [twisted_cubic, quadric_cone])
def test_guided_selection_keeps_the_same_vectors(build):
    ideal = truncate_ideal(build(), 4)
    table = betti_table(ideal)
    levels = unguided_levels(ideal)
    assert len(levels) == table.max_index() + 1
    for k, (candidates, shifts, chosen, degs) in enumerate(levels):
        counts = {j: b for (i, j), b in table.items() if i == k}
        guided = minimal_generator_subset(ideal.ring, candidates, shifts, counts)
        assert guided == (chosen, degs), k


def test_wrong_counts_raise():
    ideal = maximal_ideal_power(ring2(), 2)
    ring = ideal.ring
    vectors = [(f,) for f in ideal.generators]
    assert minimal_generator_subset(ring, vectors, (0,), {2: 3})[1] == [2, 2, 2]
    with pytest.raises(RuntimeError):
        minimal_generator_subset(ring, vectors, (0,), {2: 2})
    with pytest.raises(RuntimeError):
        minimal_generator_subset(ring, vectors, (0,), {2: 3, 3: 1})
