"""The engine's normal form against a reference max-scan loop.

`_reference_normal_form` and `_reference_divide` are the straightforward
loops on (exponent tuple, component) terms: find the largest remaining
term with `max` at every step, reduce it by the first basis element (or
divisor) whose lead divides it, or move it to the remainder.  The
engine's `_reduce_full` (heap-ordered, on packed int terms, so its
inputs are packed, its basis grouped by lead component with
`_by_component`, and its outputs unpacked here) and `divide` (which
runs through `_reduce_full`) must return the same dicts and polynomials
on random inputs: module rank 1-3, grevlex and lex,
p in {2, 3, 32003, 2^31 - 1}, non-monic and non-homogeneous divisors,
and divisor lists whose order decides the quotients.

Two fixed cases check what the engine adds to the loop: a reducer memo
shared across reductions through one index still finds an element
appended after a term was found irreducible, and coefficients that
accumulate unreduced give the reference's normal form when a running
sum passes through a nonzero multiple of p (p = 2 and 3).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfstrata.field import PrimeField  # noqa: E402
from hfstrata.groebner import _by_component, _Elem, _Packing, _reduce_full, divide  # noqa: E402
from hfstrata.ring import GREVLEX, LEX, MonomialOrder, RingContext  # noqa: E402

PRIMES = (2, 3, 32003, 2**31 - 1)
NAMES = ("x", "y", "z")
SETTINGS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _addmul(target, coeff, mult, src, p):
    for (exps, comp), v in src.items():
        k = (tuple(a + b for a, b in zip(exps, mult)), comp)
        val = (target.get(k, 0) + coeff * v) % p
        if val:
            target[k] = val
        else:
            target.pop(k, None)


def _reference_normal_form(h, cert, basis, p, order):
    def key(t):
        return (order.key(t[0]), -t[1])

    h, cert, tail = dict(h), None if cert is None else dict(cert), {}
    while h:
        t = max(h, key=key)
        c = h[t]
        for g in basis:
            gexps, gcomp = g.lead
            if gcomp == t[1] and all(a <= b for a, b in zip(gexps, t[0])):
                mult = tuple(a - b for a, b in zip(t[0], gexps))
                _addmul(h, p - c, mult, g.vec, p)
                if cert is not None:
                    _addmul(cert, p - c, mult, g.cert, p)
                break
        else:
            tail[t] = c
            del h[t]
    return tail, cert


def _reference_divide(f, divisors):
    ring, p = f.ring, f.ring.field.p
    h, quotients, remainder = dict(f.terms), [{} for _ in divisors], {}
    while h:
        t = max(h, key=ring.order.key)
        c = h[t]
        for gi, g in enumerate(divisors):
            if all(a <= b for a, b in zip(g.lead_exps(), t)):
                mult = tuple(a - b for a, b in zip(t, g.lead_exps()))
                q = c * pow(g.lead_coeff(), p - 2, p) % p
                quotients[gi][mult] = (quotients[gi].get(mult, 0) + q) % p
                for e, c2 in g.terms:
                    k = tuple(a + b for a, b in zip(e, mult))
                    val = (h.get(k, 0) - q * c2) % p
                    if val:
                        h[k] = val
                    else:
                        h.pop(k, None)
                break
        else:
            remainder[t] = c
            del h[t]
    return tuple(ring._from_dict(q) for q in quotients), ring._from_dict(remainder)


@st.composite
def setups(draw):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 3))
    order = MonomialOrder(draw(st.sampled_from((GREVLEX, LEX))))
    coeff = st.one_of(st.just(1), st.just(p - 1), st.integers(1, p - 1))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return p, n, order, coeff, exps


def _vectors(draw, exps, coeff, rank, min_size, max_size):
    terms = st.tuples(exps, st.integers(0, rank - 1))
    keys = draw(st.lists(terms, min_size=min_size, max_size=max_size, unique=True))
    return {k: draw(coeff) for k in keys}


@st.composite
def reduction_inputs(draw):
    p, n, order, coeff, exps = draw(setups())
    rank = draw(st.integers(1, 3))
    n_gens = draw(st.integers(1, 3))

    def key(t):
        return (order.key(t[0]), -t[1])

    basis = []
    for _ in range(draw(st.integers(1, 4))):
        vec = _vectors(draw, exps, coeff, rank, 1, 4)
        lead = max(vec, key=key)
        inv = pow(vec[lead], p - 2, p)
        cert = _vectors(draw, exps, coeff, n_gens, 0, 3)
        basis.append(_Elem({t: c * inv % p for t, c in vec.items()}, cert, lead))
    h = _vectors(draw, exps, coeff, rank, 0, 6)
    cert = _vectors(draw, exps, coeff, n_gens, 0, 3) if draw(st.booleans()) else None
    return (h, cert, basis, p, order), _Packing(n, order.kind, max(rank, n_gens))


def _pack(vec, pk):
    return None if vec is None else {pk.pack(*t): c for t, c in vec.items()}


def _unpack(vec, pk):
    return None if vec is None else {pk.unpack(t): c for t, c in vec.items()}


def _pack_elem(g, pk):
    return _Elem(_pack(g.vec, pk), _pack(g.cert, pk), pk.pack(*g.lead))


def _engine_normal_form(h, cert, basis, p, pk):
    """`_reduce_full` on the packed inputs, with a fresh memo and its
    outputs unpacked."""
    index = _by_component([_pack_elem(g, pk) for g in basis], pk)
    tail, cert = _reduce_full(_pack(h, pk), _pack(cert, pk), index, {}, p, pk)
    return _unpack(tail, pk), _unpack(cert, pk)


@SETTINGS
@given(reduction_inputs())
def test_normal_form_matches_reference(inputs):
    (h, cert, basis, p, order), pk = inputs
    assert _engine_normal_form(h, cert, basis, p, pk) == _reference_normal_form(
        h, cert, basis, p, order
    )


@st.composite
def division_inputs(draw):
    p, n, order, coeff, exps = draw(setups())
    ring = RingContext(NAMES[:n], PrimeField(p), order)

    def terms(monos):
        return [(e, draw(coeff)) for e in monos]

    # few distinct lead monomials, so several divisors often divide the
    # same term and list order picks the quotient
    leads = draw(st.lists(exps, min_size=1, max_size=2, unique=True))
    divisors = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.sampled_from(leads))
        tail = draw(st.lists(exps, max_size=3, unique=True))
        below = [e for e in tail if order.key(e) < order.key(lead)]
        divisors.append(ring.from_terms(terms([lead] + below)))
    f = ring.from_terms(terms(draw(st.lists(exps, max_size=6, unique=True))))
    return f, divisors


@SETTINGS
@given(division_inputs())
def test_divide_matches_reference(args):
    f, divisors = args
    quotients, remainder = divide(f, divisors)
    assert (quotients, remainder) == _reference_divide(f, divisors)
    total = remainder
    for q, g in zip(quotients, divisors):
        total = total + q * g
    assert total == f


@pytest.mark.parametrize("p", PRIMES)
def test_divisor_order_decides_quotients(p):
    ring = RingContext(("x", "y"), PrimeField(p), MonomialOrder(GREVLEX))
    x, y = ring.variable(0), ring.variable(1)
    f, divisors = x * y, [x + y, -y]
    forward = divide(f, divisors)  # (y, y), then x*y - y*(x + y) = -y^2 = y*(-y)
    backward = divide(f, divisors[::-1])  # (-x, 0)
    assert forward == _reference_divide(f, divisors)
    assert backward == _reference_divide(f, divisors[::-1])
    assert forward[0] == (y, y) and backward[0] == (-x, ring.zero())



def _basis_elem(vec, cert, order):
    """A basis element in the reference's terms: vec is monic, its lead the largest term."""
    return _Elem(vec, cert, max(vec, key=lambda t: (order.key(t[0]), -t[1])))


@pytest.mark.parametrize("p", PRIMES)
def test_reducer_memo_resumes_after_an_append(p):
    """A miss records how far the group was scanned: an element appended
    later whose lead divides a term that was irreducible is found by
    the next reduction through the same index and memo."""
    order = MonomialOrder(GREVLEX)
    pk = _Packing(3, GREVLEX, 2)
    one = (0, 0, 0)
    # g1 = x^2 - yz and g2 = xy^2 + z^3, with certificates e_0 and e_1
    g1 = _basis_elem({((2, 0, 0), 0): 1, ((0, 1, 1), 0): p - 1}, {(one, 0): 1}, order)
    g2 = _basis_elem({((1, 2, 0), 0): 1, ((0, 0, 3), 0): 1}, {(one, 1): 1}, order)
    # x^3 reduces by g1 to xyz; xy^2, xyz and y^3 are irreducible by g1 alone
    h = {((3, 0, 0), 0): 1, ((1, 2, 0), 0): 1, ((0, 3, 0), 0): 1}
    index, memo = _by_component([_pack_elem(g1, pk)], pk), {}

    def engine():
        tail, cert = _reduce_full(_pack(h, pk), {}, index, memo, p, pk)
        return _unpack(tail, pk), _unpack(cert, pk)

    first = engine()
    assert first == _reference_normal_form(h, {}, [g1], p, order)
    assert ((1, 2, 0), 0) in first[0]
    index[0].append(_pack_elem(g2, pk))  # appended, as Buchberger does
    second = engine()
    assert second == _reference_normal_form(h, {}, [g1, g2], p, order)
    assert ((1, 2, 0), 0) not in second[0]


@pytest.mark.parametrize(
    ("p", "coeffs", "tail"),
    [
        # z's coefficient reads 1, then 1 + 1 = 2 = p, then 3: z
        (2, (1, 1, 1), {((0, 0, 1), 0): 1}),
        # z reads 1, then 1 + 2 = 3 = p, then 5: 2z
        (3, (1, 1, 1), {((0, 0, 1), 0): 2}),
        # z reads 2, then 2 + 1 = 3 = p, then 5: 2z
        (3, (2, 1, 2), {((0, 0, 1), 0): 2}),
        # z reads 2, then 4, then 6 = 2p: it cancels and is dropped
        (3, (1, 1, 2), {}),
    ],
)
def test_coefficients_reaching_a_multiple_of_p_partway(p, coeffs, tail):
    """Coefficients accumulate unreduced and are reduced when read: a
    term whose running sum passes through a nonzero multiple of p
    mid-reduction keeps its later updates, and one that ends at a
    multiple of p leaves no term behind.  The certificate, kept reduced
    as it is built, agrees with the reference's too."""
    order = MonomialOrder(GREVLEX)
    one = (0, 0, 0)
    # x + z and y + z, both with certificate e_0
    basis = [
        _basis_elem({((1, 0, 0), 0): 1, ((0, 0, 1), 0): 1}, {(one, 0): 1}, order),
        _basis_elem({((0, 1, 0), 0): 1, ((0, 0, 1), 0): 1}, {(one, 0): 1}, order),
    ]
    a, b, c = coeffs
    h = {((1, 0, 0), 0): a, ((0, 1, 0), 0): b, ((0, 0, 1), 0): c}
    cert = {(one, 0): 1}
    engine = _engine_normal_form(h, cert, basis, p, _Packing(3, GREVLEX, 1))
    assert engine == _reference_normal_form(h, cert, basis, p, order)
    assert engine[0] == tail
    assert all(0 < v < p for part in engine for v in part.values())
