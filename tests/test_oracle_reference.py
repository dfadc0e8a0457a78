"""The oracle's coordinate builders against the per-term reference copy.

Random homogeneous ideals in n <= 4 variables, grevlex and lex, over
p in {2, 3, 32003, 2^31 - 1}: Hilbert values, syzygy polynomial tuples,
tangent dimensions and Betti tables must be identical to those of
`oracle_reference`.  The largest prime is the case where an int64
matrix product in the tangent projection would overflow, which the
normal-form table avoids by reducing each product mod p before summing.
The reference's Betti search runs up to the bound; on Artinian ideals,
the random ones plus a power of the maximal ideal, the oracle's stop
where Tor vanishes cuts every step.  The reference's tangent lifts every
syzygy, the oracle's only the minimal ones.  Both paths of the Betti
table, Koszul homology where level 0 finds S/I vanishing below the
bound and the search elsewhere, are also held to the engine's
`betti_table`, with the path taken asserted.  Also `linalg.nullspace`
against its former scalar loop, and the three facts the Betti
selection in kernel coordinates rests on.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle_reference as ref  # noqa: E402
from hfstrata import linalg, oracle  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal, ideal_sum, maximal_ideal_power  # noqa: E402
from hfstrata.invariants import betti_table, regularity  # noqa: E402
from hfstrata.oracle import (  # noqa: E402
    _free_rows,
    _units_kept,
    betti_bruteforce,
    hf_bruteforce,
    syzygies_bruteforce,
    tangent_bruteforce,
)
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext, monomials_of_degree  # noqa: E402

from conftest import build_corpus  # noqa: E402
from test_linalg import reference_rref  # noqa: E402

PRIMES = (2, 3, 32003, 2**31 - 1)
SETTINGS = dict(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def ideals(draw, low=1):
    """Random forms in low..4 variables, or products of random linear
    forms.  The second kind has full-size coefficients in its syzygies
    and echelon forms, so at p = 2^31 - 1 the tangent projection
    multiplies entries near 2^31."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(low, 4))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext("xyzw"[:n], PrimeField(p), MonomialOrder(order))
    top = 3 if n < 4 else 2
    gens = []
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
        for _ in range(draw(st.integers(1, 4 if n < 4 else 3))):
            monos = monomials_of_degree(n, draw(st.integers(1, top)), order)
            coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
            gens.append(ring.from_terms(zip(monos, coeffs)))
    else:
        rnd = draw(st.randoms(use_true_random=False))
        xs = monomials_of_degree(n, 1, order)
        linear = [ring.from_terms((x, rnd.randrange(p)) for x in xs) for _ in range(n)]
        for _ in range(draw(st.integers(1, 3))):
            f = ring.one()
            for _ in range(draw(st.integers(1, top))):
                f = f * linear[draw(st.integers(0, n - 1))]
            gens.append(f)
    return Ideal(ring, [f for f in gens if not f.is_zero()])


@settings(max_examples=60, **SETTINGS)
@given(ideals())
def test_oracle_matches_reference(ideal):
    for d in range(6):
        assert hf_bruteforce(ideal, d) == ref.hf(ideal, d), d
    if not ideal.generators:
        return
    top = max(f.homogeneous_degree() for f in ideal.generators)
    assert syzygies_bruteforce(ideal, top + 1) == ref.syzygies(ideal, top + 1)
    # two degrees past the generators: the echelon forms of I_e are large
    # enough there for an unsplit product to overflow
    assert tangent_bruteforce(ideal, top + 2) == ref.tangent(ideal, top + 2)
    new = betti_bruteforce(ideal, ideal.ring.n + 1, top + 2)
    assert new == ref.betti(ideal, ideal.ring.n + 1, top + 2)


@settings(max_examples=80, **SETTINGS)
@given(ideals(), st.integers(1, 3))
def test_betti_stop_matches_uncut_reference(ideal, k):
    """Artinian ideals, the random ones plus all monomials of degree k:
    with bound k + n + 1 >= z + n + 1 the stop cuts every step, and the
    table equals the reference's, which searches up to the bound."""
    ring = ideal.ring
    k = 1 if ring.n == 4 else k  # keeps the reference's kernels small
    power = [ring.from_terms([(m, 1)]) for m in monomials_of_degree(ring.n, k, ring.order.kind)]
    gamma = Ideal(ring, list(ideal.generators) + power)
    bound = k + ring.n + 1
    assert betti_bruteforce(gamma, ring.n + 1, bound) == ref.betti(gamma, ring.n + 1, bound)


def assert_betti_path(ideal, max_step, bound):
    """The oracle's table equals the reference's search and the engine's
    table in the same window, and the Koszul pass ran exactly when level
    0 finds z < bound: when some generator degree 0 < e < bound has
    (S/I)_e = 0, the generators kept there spanning S_e."""
    with mock.patch.object(oracle, "_koszul_entries", wraps=oracle._koszul_entries) as koszul:
        table = betti_bruteforce(ideal, max_step, bound)
    assert table == ref.betti(ideal, max_step, bound)
    engine = {(i, j): b for (i, j), b in betti_table(ideal).items() if i <= max_step and j <= bound}
    assert table.entries == engine
    degs = {f.homogeneous_degree() for f in ideal.generators}
    vanishes = any(0 < e < bound and ref.hf(ideal, e) == 0 for e in degs)
    assert koszul.called == (max_step > 0 and vanishes)


@settings(max_examples=200, **SETTINGS)
@given(ideals(low=2), st.integers(0, 3), st.data())
def test_betti_paths_match_reference_and_engine(ideal, k, data):
    """Random forms in 2-4 variables, alone (k = 0) or plus all monomials
    of degree k, at bounds 0-n above the top generator degree and every
    max_step up to n + 1: both sides of the Koszul selection, z = bound
    among them, against the search of `oracle_reference`."""
    ring = ideal.ring
    if k:
        k = min(k, 2) if ring.n == 4 else k  # keeps the reference's kernels small
        power = [ring.from_terms([(m, 1)]) for m in monomials_of_degree(ring.n, k, ring.order.kind)]
        ideal = Ideal(ring, list(ideal.generators) + power)
    elif not ideal.generators:
        return
    top = max(f.homogeneous_degree() for f in ideal.generators)
    bound = top + data.draw(st.integers(0, ring.n))
    assert_betti_path(ideal, data.draw(st.integers(0, ring.n + 1)), bound)


@pytest.mark.parametrize("p", PRIMES)
def test_betti_paths_on_corpus_truncations(p):
    """Every nonzero corpus ideal plus m^m at m = reg + 2, at the bound
    m + n - 1 of its last strand: all take the Koszul path."""
    for ideal in build_corpus(p=p).values():
        if ideal.is_zero_ideal():
            continue
        m, n = regularity(ideal) + 2, ideal.ring.n
        assert_betti_path(ideal_sum(ideal, maximal_ideal_power(ideal.ring, m)), n, m + n - 1)


@settings(max_examples=60, **SETTINGS)
@given(ideals(), st.integers(1, 3), st.booleans())
def test_tangent_matches_uncut_reference(ideal, k, artinian):
    """The reference lifts every syzygy, the oracle only those the
    Nakayama selection keeps.  Random ideals at bound top + 3, where
    non-minimal syzygies appear, and the Artinian ideals of
    `test_betti_stop_matches_uncut_reference`, where the oracle's stop
    at the first zero piece comes from the kernel's size."""
    ring = ideal.ring
    if artinian:
        k = 1 if ring.n == 4 else k
        power = [ring.from_terms([(m, 1)]) for m in monomials_of_degree(ring.n, k, ring.order.kind)]
        ideal = Ideal(ring, list(ideal.generators) + power)
        bound = k + ring.n + 1
    elif not ideal.generators:
        return
    else:
        bound = max(f.homogeneous_degree() for f in ideal.generators) + 3
    assert tangent_bruteforce(ideal, bound) == ref.tangent(ideal, bound)


def nullspace_loop(a, p):
    """`linalg.nullspace` as it was: one scalar assignment per entry, on
    the pure-Python reference RREF."""
    r, _, pivots = reference_rref(a.tolist(), p)
    free = [c for c in range(a.shape[1]) if c not in set(pivots)]
    basis = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for row, pc in enumerate(pivots):
            basis[pc, k] = (-r[row][fc]) % p
    return basis


def draw_matrix(data, p, rows, cols):
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    return np.array(
        data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, cols)


@settings(max_examples=150, **SETTINGS)
@given(st.sampled_from(PRIMES), st.integers(0, 7), st.integers(0, 7), st.data())
def test_nullspace_matches_loop(p, rows, cols, data):
    a = draw_matrix(data, p, rows, cols)
    ns = linalg.nullspace(a, p)
    assert ns.dtype == np.int64
    assert np.array_equal(ns, nullspace_loop(a, p))


@settings(max_examples=150, **SETTINGS)
@given(st.sampled_from(PRIMES), st.integers(0, 7), st.integers(1, 7), st.data())
def test_free_rows_are_the_identity_rows(p, rows, cols, data):
    a = draw_matrix(data, p, rows, cols)
    ns = linalg.nullspace(a, p)
    free = _free_rows(ns)
    pivots = reference_rref(a.tolist(), p)[2]
    assert free.tolist() == [c for c in range(cols) if c not in pivots]
    assert np.array_equal(ns[free], np.eye(len(free), dtype=np.int64))


@settings(max_examples=150, **SETTINGS)
@given(st.sampled_from(PRIMES), st.integers(0, 7), st.integers(1, 7), st.integers(0, 9), st.data())
def test_selection_in_kernel_coordinates(p, rows, cols, nbase, data):
    """Nakayama selection on [B; ns^T] for rows B of the kernel equals the
    selection on their coordinates [B[:, free]; I]."""
    ns = linalg.nullspace(draw_matrix(data, p, rows, cols), p)
    coeffs = draw_matrix(data, p, nbase, ns.shape[1])
    base = (coeffs.astype(object) @ ns.T.astype(object) % p).astype(np.int64).reshape(nbase, cols)
    free = _free_rows(ns)
    identity = np.eye(len(free), dtype=np.int64)
    assert linalg.greedy_independent_rows(np.vstack([base, ns.T]), p) == (
        linalg.greedy_independent_rows(np.vstack([base[:, free], identity]), p)
    )


@settings(max_examples=200, **SETTINGS)
@given(st.sampled_from(PRIMES), st.sampled_from(("random", "zero", "full rank")),
       st.integers(0, 7), st.integers(0, 7), st.data())
def test_units_kept_are_the_greedy_identity_rows(p, kind, rows, cols, data):
    """The unit rows that greedy selection keeps on [B; I] are the
    coordinates that are not pivots of B read right to left: random, zero
    (or empty) and full-rank row sets B."""
    if kind == "random":
        b = draw_matrix(data, p, rows, cols)
    elif kind == "zero":
        b = np.zeros((rows, cols), dtype=np.int64)
    else:
        # unit lower triangular with its rows shuffled: rank cols
        b = np.tril(draw_matrix(data, p, cols, cols), -1) + np.eye(cols, dtype=np.int64)
        b = b[data.draw(st.permutations(range(cols)))].reshape(cols, cols)
    identity = np.eye(cols, dtype=np.int64)
    kept = linalg.greedy_independent_rows(np.vstack([b, identity]), p)
    assert _units_kept(b, p) == [k - len(b) for k in kept if k >= len(b)]
    if kind != "random":
        assert _units_kept(b, p) == ([] if kind == "full rank" else list(range(cols)))
