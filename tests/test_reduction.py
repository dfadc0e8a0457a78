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


def _engine_normal_form(h, cert, basis, p, pk):
    """`_reduce_full` on the packed inputs, with its outputs unpacked."""

    def pack(vec):
        return None if vec is None else {pk.pack(*t): c for t, c in vec.items()}

    def unpack(vec):
        return None if vec is None else {pk.unpack(t): c for t, c in vec.items()}

    elems = [_Elem(pack(g.vec), pack(g.cert), pk.pack(*g.lead)) for g in basis]
    tail, cert = _reduce_full(pack(h), pack(cert), _by_component(elems, pk), p, pk)
    return unpack(tail), unpack(cert)


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
