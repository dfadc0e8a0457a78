"""The graded pieces of S/I, built one way on each side.

The engine's `QuotientBasis.monomials` walks the staircase with
`groebner._standard_step`, the step the Hilbert-driven Buchberger run
takes too.  The oracle's `_quotient_piece` reads the normal-form table
of S_d off `linalg.nullspace` of the matrix of multiples.  On random
homogeneous ideals in 2..4 variables, grevlex and lex, at p in
{2, 3, 32003, 2^31 - 1}, the first must equal the degree-d monomials
that no lead term divides, in descending order, and the second the
(free columns, normal-form table) pair built from the pure-Python
reference RREF.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

from hfstrata.invariants import QuotientBasis  # noqa: E402
from hfstrata.oracle import _generator_terms, _ideal_piece, _quotient_piece  # noqa: E402
from hfstrata.ring import monomials_of_degree  # noqa: E402

from test_linalg import reference_rref  # noqa: E402
from test_oracle_reference import SETTINGS, ideals  # noqa: E402
from test_sparse_input import dense, reference_nullspace  # noqa: E402


def standard_monomials(ideal, d):
    """The degree-d monomials that no lead term divides, descending."""
    leads = ideal.lead_exponents()
    return tuple(m for m in monomials_of_degree(ideal.ring.n, d, ideal.ring.order.kind)
                 if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads))


@settings(max_examples=120, **SETTINGS)
@given(ideals(low=2))
def test_staircase_walk_matches_brute_force(ideal):
    """Every degree up to 7, built in turn; a second basis asked for a
    high degree first builds the lower ones on the way."""
    qb = QuotientBasis(ideal)
    for d in range(8):
        assert qb.monomials(d) == standard_monomials(ideal, d), d
    assert QuotientBasis(ideal).monomials(7) == qb.monomials(7)


@settings(max_examples=80, **SETTINGS)
@given(ideals(low=2))
def test_quotient_piece_matches_reference_rref(ideal):
    """Degrees from 0, below every generator, to two past the top one."""
    p = ideal.ring.field.p
    gens = _generator_terms(ideal)
    top = max(gens[1], default=0)
    for d in range(top + 3):
        basis, _, _, mat = _ideal_piece(gens, d)
        free, nf = _quotient_piece(basis, mat, p)
        rows = dense(mat).tolist()
        pivots = reference_rref(rows, p)[2]
        assert free.tolist() == [c for c in range(len(basis)) if c not in pivots], d
        # NF[free] = 1 and NF[pivots] = -R[:, free], R the reference RREF
        assert np.array_equal(nf, reference_nullspace(rows, len(basis), p)), d
