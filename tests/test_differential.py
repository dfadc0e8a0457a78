"""Engine against oracle on random small homogeneous ideals.

Hilbert function, Betti table and tangent dimension.  Inputs: n <= 3
variables, at most 4 generators of degree at most 3, p in
{2, 3, 5, 32003}, grevlex or lex.  Small primes expose
characteristic-dependent slips that the fixed corpus never reaches.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.deform import tangent_space  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import Ideal  # noqa: E402
from hfstrata.invariants import _taylor_degree_caps, betti_table, hilbert_function  # noqa: E402
from hfstrata.oracle import betti_bruteforce, hf_bruteforce, tangent_bruteforce  # noqa: E402
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext, monomials_of_degree  # noqa: E402

NAMES = ("x", "y", "z")


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from((2, 3, 5, 32003)))
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingContext(NAMES[:n], PrimeField(p), MonomialOrder(order))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monos = monomials_of_degree(n, draw(st.integers(1, 3)), order)
        coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
        f = ring.from_terms(zip(monos, coeffs))
        if not f.is_zero():
            gens.append(f)
    return Ideal(ring, gens)


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_ideals())
def test_engine_matches_oracle(ideal):
    for d in range(7):
        assert hilbert_function(ideal, d) == hf_bruteforce(ideal, d), d
    if ideal.is_zero_ideal():
        assert betti_table(ideal).entries == {}
        return
    # the Taylor cap of in(I) bounds every Betti degree, so the oracle
    # searching up to it sees the whole table; a redundant generator may
    # lie above the cap, and the oracle refuses a bound below it
    top_gen = max(f.homogeneous_degree() for f in ideal.generators)
    bound = max(hi for _, hi in _taylor_degree_caps(ideal.lead_exponents()).values())
    table = betti_table(ideal)
    assert table == betti_bruteforce(ideal, ideal.ring.n + 1, max(bound, top_gen))
    # the tangent conditions come from syzygies up to the top first-syzygy degree
    syz_top = max([j for i, j in table.entries if i == 1] + [top_gen])
    assert tangent_space(ideal).dimension == tangent_bruteforce(ideal, syz_top)
