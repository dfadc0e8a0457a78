"""The engine's packed int terms against exponent tuples.

`groebner._Packing` encodes a term x^e e_comp as one int.  For n = 1..7
variables, grevlex and lex, and rank 1-3, on exponents below 2^15 that
lean to the small values and to the limit:
- unpacking a packed term gives the term back;
- a smaller int is a larger term under (MonomialOrder.key, -comp);
- adding the key of a monomial x^a multiplies by x^a (`monomial_mul`),
  and sets a guard bit exactly when an exponent of the product reaches
  2^15;
- the guard-bit test on a difference agrees with `monomial_divides`
  together with equal components.
An exponent of 2^15 raises `ExponentOverflowError`, whether it comes in
with the input or out of a product, and the CLI exits 3 on it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.cli import run  # noqa: E402
from hfstrata.errors import ExponentOverflowError  # noqa: E402
from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import EXP_LIMIT, _Packing, buchberger_basis, divide  # noqa: E402
from hfstrata.ring import (  # noqa: E402
    GREVLEX,
    LEX,
    MonomialOrder,
    RingContext,
    monomial_divides,
    monomial_mul,
)

SETTINGS = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.integers(0, EXP_LIMIT - 1),
    st.integers(EXP_LIMIT - 3, EXP_LIMIT - 1),
    st.sampled_from((EXP_LIMIT // 2 - 1, EXP_LIMIT // 2)),
)


@st.composite
def term_pairs(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from((GREVLEX, LEX)))
    rank = draw(st.integers(1, 3))
    exps = st.tuples(*[EXPONENTS] * n)
    comps = st.integers(0, rank - 1)
    a = (draw(exps), draw(comps))
    # half the time b is a multiple of a, so divisibility is often true
    if draw(st.booleans()):
        b = (tuple(min(x + draw(st.integers(0, 2)), EXP_LIMIT - 1) for x in a[0]), a[1])
    else:
        b = (draw(exps), draw(comps))
    return _Packing(n, kind, rank), MonomialOrder(kind), a, b


@SETTINGS
@given(term_pairs())
def test_pack_round_trip_and_order(args):
    pk, order, a, b = args
    ka, kb = pk.pack(*a), pk.pack(*b)
    assert pk.unpack(ka) == a and pk.unpack(kb) == b
    larger_a = (order.key(a[0]), -a[1]) > (order.key(b[0]), -b[1])
    assert (ka < kb) == larger_a
    assert (ka == kb) == (a == b)


@SETTINGS
@given(term_pairs())
def test_key_addition_multiplies(args):
    pk, _, a, b = args
    product = pk.pack(*a) + pk.pack(b[0])
    exps = monomial_mul(a[0], b[0])
    if max(exps) >= EXP_LIMIT:
        assert product & pk.guard
    else:
        assert not product & pk.guard
        assert product == pk.pack(exps, a[1])


@SETTINGS
@given(term_pairs())
def test_guard_test_is_divisibility(args):
    pk, _, a, b = args
    divides = a[1] == b[1] and monomial_divides(a[0], b[0])
    assert (not (pk.pack(*b) - pk.pack(*a)) & pk.div_mask) == divides


@pytest.mark.parametrize("kind", [GREVLEX, LEX])
def test_input_exponent_at_the_limit_raises(kind):
    ring = RingContext(("x", "y"), PrimeField(32003), MonomialOrder(kind))
    assert buchberger_basis(ring, [ring.monomial((EXP_LIMIT - 1, 0))])
    with pytest.raises(ExponentOverflowError):
        buchberger_basis(ring, [ring.monomial((0, EXP_LIMIT))])


def test_product_exponent_at_the_limit_raises():
    """x^2 mod x - y^20000 (lex) is y^40000: its exponent overflows."""
    ring = RingContext(("x", "y"), PrimeField(32003), MonomialOrder(LEX))
    x, y = ring.variable(0), ring.variable(1)
    g = x - ring.monomial((0, 20000))
    assert divide(x, [g])[1] == ring.monomial((0, 20000))
    with pytest.raises(ExponentOverflowError):
        divide(x * x, [g])


def test_cli_exits_3_on_an_exponent_at_the_limit(tmp_path, capsys):
    path = tmp_path / "big.ideal"
    path.write_text(f"field 32003\nvars x y\nideal:\nx^{EXP_LIMIT}\nx*y\n")
    assert run(["gb", str(path)]) == 3
    assert "error: an exponent reached 32768" in capsys.readouterr().err
