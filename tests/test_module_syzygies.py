"""Module syzygies (rank 2 and 3) against dense linear algebra.

`vector_syzygies` on random homogeneous vectors in a shifted free module
of rank 2 or 3: n <= 3 variables, p in {2, 3, 32003, 2^31-1}.  Every
returned vector must be a syzygy, and in each degree e up to a bound the
degree-e multiples of the returned vectors must span a space of the
dimension of the kernel of the degree-e piece of
F = ⊕_k S(-deg v_k) -> ⊕_c S(-shift_c): the number of unknowns minus the
rank of the oracle's matrix of the vectors' degree-e multiples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata import linalg  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import vector_degree, vector_syzygies  # noqa: E402
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext, monomials_of_degree  # noqa: E402

from test_groebner import syzygy_span_rank, vector_multiples  # noqa: E402

NAMES = ("x", "y", "z")


@st.composite
def module_vectors(draw):
    p = draw(st.sampled_from((2, 3, 32003, 2**31 - 1)))
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext(NAMES[:n], PrimeField(p), MonomialOrder(order))
    rank = draw(st.integers(2, 3))
    shifts = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(min(shifts), min(shifts) + 3))
        vec = []
        for s in shifts:
            monos = monomials_of_degree(n, e - s, order) if e >= s else ()
            coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
            vec.append(ring.from_terms(zip(monos, coeffs)))
        if any(not f.is_zero() for f in vec):
            vectors.append(tuple(vec))
    hypothesis.assume(vectors)
    return ring, shifts, vectors


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(module_vectors())
def test_module_syzygies_match_dense_kernel(case):
    ring, shifts, vectors = case
    syz = vector_syzygies(ring, vectors, shifts)
    rank = len(shifts)
    for s in syz:
        assert len(s) == len(vectors)
        for c in range(rank):
            total = ring.zero()
            for a, v in zip(s, vectors):
                total = total + a * v[c]
            assert total.is_zero()
    degs = [vector_degree(v, shifts) for v in vectors]
    top = max([vector_degree(s, degs) for s in syz] + degs) + 2
    for e in range(min(degs), top + 1):
        mat = vector_multiples(ring, vectors, shifts, e)
        kernel_dim = len(mat) - linalg.rank(mat, ring.field.p)
        assert syzygy_span_rank(ring, degs, syz, e) == kernel_dim, e
