"""Sparse Nakayama selection against the dense row selection.

`minimal_generator_subset` inserts sparse rows one at a time into
`linalg.echelon_insert`; the dense path stacks the same rows into a
matrix and reads `linalg.greedy_independent_rows`.  Both keep the
lexicographically-first maximal independent rows, so they must keep the
same ones: on seeded random rows, sparse and dense, with planted
dependencies, and on every Nakayama input met while resolving the
corpus, the skew lines and the twisted cubic truncations at m = 4..6, at
p in {2, 3, 32003, 2^31-1}.
"""

import random

import numpy as np
import pytest

from hfstrata import invariants, linalg
from hfstrata.groebner import Ideal, vector_degree
from hfstrata.invariants import minimal_free_resolution, minimal_generator_subset
from hfstrata.strata import truncate_ideal

from conftest import build_corpus, skew_lines, twisted_cubic
from test_groebner import vector_multiples

PRIMES = (2, 3, 32003, 2**31 - 1)


def sparse_selection(rows, p):
    echelon = {}
    return [i for i, row in enumerate(rows) if linalg.echelon_insert(echelon, row, p)]


def planted_rows(rng, p, nrows, ncols, density):
    """Random rows, each later one with probability 1/3 a random
    combination of up to three earlier ones (a repeat or a zero row among
    them), in a dense matrix with entries in [0, p)."""
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        if i and rng.random() < 1 / 3:
            for j in rng.sample(range(i), min(i, rng.randrange(4))):
                mat[i] = (mat[i] + rng.randrange(p) * mat[j]) % p
        else:
            for c in range(ncols):
                if rng.random() < density:
                    mat[i, c] = rng.randrange(1, p)
    return mat


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_echelon_insert_keeps_the_greedy_rows(p, density):
    rng = random.Random(p + int(density * 100))
    for _ in range(40):
        nrows, ncols = rng.randrange(0, 25), rng.randrange(1, 25)
        mat = planted_rows(rng, p, nrows, ncols, density)
        rows = [{c: int(v) for c, v in enumerate(r) if v} for r in mat]
        assert sparse_selection(rows, p) == linalg.greedy_independent_rows(mat, p)


def test_echelon_insert_leaves_a_spanning_basis():
    """After the inserts, every inserted row reduces to zero, and the
    basis rows start at their pivots with 1 implied."""
    rng = random.Random(7)
    p = 101
    mat = planted_rows(rng, p, 30, 12, 0.4)
    echelon = {}
    for r in mat:
        linalg.echelon_insert(echelon, {c: int(v) for c, v in enumerate(r) if v}, p)
    assert len(echelon) == linalg.rank(mat, p)
    assert all(min(rest, default=c + 1) > c for c, rest in echelon.items())
    for r in mat:
        assert not linalg.echelon_insert(echelon, {c: int(v) for c, v in enumerate(r) if v}, p)


def dense_selection(ring, vectors, ambient_shifts, counts):
    """The selection by dense matrices: per degree, the oracle's rows of
    every monomial multiple of the chosen vectors, then the candidates,
    and `greedy_independent_rows`."""
    p = ring.field.p
    degrees = [vector_degree(v, ambient_shifts) for v in vectors]
    chosen, chosen_degs = [], []
    for e in sorted(set(degrees)):
        if counts is not None and not counts.get(e):
            continue
        cands = [k for k, d in enumerate(degrees) if d == e]
        mat = vector_multiples(ring, chosen + [vectors[k] for k in cands], ambient_shifts, e)
        nbase = len(mat) - len(cands)  # a candidate has one multiplier, and comes last
        keep = set(linalg.greedy_independent_rows(mat, p))
        kept = [k for pos, k in enumerate(cands) if nbase + pos in keep]
        chosen.extend(vectors[k] for k in kept)
        chosen_degs.extend([e] * len(kept))
    return chosen, chosen_degs


def nakayama_inputs(ideal, monkeypatch):
    """(vectors, shifts, counts) of every selection in the full minimal
    resolution of a fresh copy of the ideal."""
    seen = []

    def record(ring, vectors, shifts, counts=None):
        seen.append((list(vectors), shifts, counts))
        return minimal_generator_subset(ring, vectors, shifts, counts)

    with monkeypatch.context() as mp:
        mp.setattr(invariants, "minimal_generator_subset", record)
        minimal_free_resolution(Ideal(ideal.ring, ideal.generators), ideal.ring.n + 2)
    return seen


def selection_ideals(p):
    """(name, ideal, unguided): the selections are also run without the
    Betti table where the dense side of that stays small."""
    for name, ideal in build_corpus(p=p).items():
        if not ideal.is_zero_ideal():
            yield name, ideal, True
    yield "skew_lines", skew_lines(p=p), True
    for m in (4, 5, 6):
        yield f"twisted_cubic + m^{m}", truncate_ideal(twisted_cubic(p=p), m), m == 4


@pytest.mark.parametrize("p", PRIMES)
def test_nakayama_inputs_select_as_dense(p, monkeypatch):
    checked = 0
    for name, ideal, unguided in selection_ideals(p):
        for vectors, shifts, counts in nakayama_inputs(ideal, monkeypatch):
            for table in (counts, None) if unguided else (counts,):
                got = minimal_generator_subset(ideal.ring, vectors, shifts, table)
                assert got == dense_selection(ideal.ring, vectors, shifts, table), name
            checked += 1
    assert checked >= 30
