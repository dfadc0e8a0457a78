"""Rank, pivot columns and kernels after singleton peeling.

`linalg.rank` and `linalg.greedy_independent_rows` read only the pivot
columns of an RREF, so `linalg.pivot_columns` finds them without one.
They must agree with `reference_rref` on every shape the peel meets:
singleton chains (a row that becomes a singleton only once an earlier
singleton's column is dropped), several singleton rows on one column,
zero rows and columns, entries not yet reduced mod p, and empty shapes.
`linalg.nullspace` peels the same way before it eliminates, and on the
same shapes, up to 12 columns, must give the basis of the unpeeled loop.
The oracle's rank-only paths must equal the kernel paths they replace
on random ideals; `tests/test_oracle.py` checks them on the corpus and
counts their calls of the RREF kernel, without Hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import linalg  # noqa: E402
from hfstrata.oracle import _free_rows  # noqa: E402

from test_linalg import reference_rref  # noqa: E402
from test_oracle import check_rank_only_paths  # noqa: E402
from test_oracle_reference import PRIMES, SETTINGS, ideals, nullspace_loop  # noqa: E402


def _matrix(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


@st.composite
def matrices(draw, max_cols=7):
    """(p, a): sparse random rows, a singleton chain, repeated singletons
    on one column, then zeroed rows and columns, in shuffled row order.
    Entries are residues, residues plus p, or p itself (zero mod p)."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, max_cols))
    nonzero = st.integers(1, p - 1)
    entry = st.one_of(st.just(0), st.just(0), nonzero, nonzero.map(lambda v: v + p), st.just(p))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    if n:
        chain = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        for k, c in enumerate(chain):
            row = [0] * n
            row[c] = draw(nonzero)
            if k:
                row[chain[k - 1]] = draw(nonzero)
            rows.append(row)
        c = draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(0, 3))):
            rows.append([draw(nonzero) if j == c else 0 for j in range(n)])
    a = _matrix(rows, n)
    if len(a):
        a[draw(st.lists(st.integers(0, len(a) - 1), max_size=2))] = 0
    if n:
        a[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0
    return p, a[draw(st.permutations(range(len(a))))]


@settings(max_examples=400, **SETTINGS)
@given(matrices())
# a chain: [0 1 0] peels column 1, then [5 3 0] peels column 0, then [0 2 7] column 2
@example((3, _matrix([[0, 2, 7], [5, 3, 0], [0, 1, 0]], 3)))
# three singleton rows on column 1, one of them only after reduction mod p
@example((32003, _matrix([[0, 4, 0], [0, 9, 32003], [0, 32004, 0], [1, 1, 1]], 3)))
# zero rows and columns
@example((2, _matrix([[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]], 4)))
@example((2**31 - 1, _matrix([[0, 2**31 - 2, 2**31 - 3], [0, 2**31 - 3, 2**31 - 2]], 3)))
# empty shapes
@example((3, _matrix([], 4)))
@example((3, _matrix([[], [], []], 0)))
@example((3, _matrix([], 0)))
def test_rank_and_greedy_rows_match_reference(case):
    p, a = case
    before = a.copy()
    _, rank, pivots = reference_rref(a.tolist(), p)
    _, _, row_pivots = reference_rref(a.T.tolist(), p)
    assert linalg.pivot_columns(a, p) == pivots
    assert linalg.rank(a, p) == rank
    assert linalg.greedy_independent_rows(a, p) == row_pivots
    assert (a == before).all()  # the caller's matrix is left alone


@settings(max_examples=300, **SETTINGS)
@given(matrices(max_cols=12))
@example((3, _matrix([[0, 2, 7], [5, 3, 0], [0, 1, 0]], 3)))
@example((3, _matrix([[0, 2, 7, 1], [5, 3, 0, 0], [0, 1, 0, 0]], 4)))
@example((2, _matrix([[0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]], 4)))
@example((3, _matrix([], 4)))
def test_nullspace_after_the_peel_matches_the_loop(case):
    """The peel runs before `linalg.nullspace` eliminates: its basis equals
    the unpeeled loop's, and its identity block sits at the free rows."""
    p, a = case
    ns = linalg.nullspace(a, p)
    assert np.array_equal(ns, nullspace_loop(a, p))
    if a.shape[1]:
        free = _free_rows(ns)
        assert free.tolist() == [c for c in range(a.shape[1]) if c not in reference_rref(a.tolist(), p)[2]]
        assert np.array_equal(ns[free], np.eye(len(free), dtype=np.int64))


@settings(max_examples=60, **SETTINGS)
@given(ideals())
def test_rank_only_oracle_matches_kernels_on_random_ideals(ideal):
    check_rank_only_paths(ideal)
