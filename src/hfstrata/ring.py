"""Standard-graded polynomial ring S = k[x_1..x_n] over a prime field.

Monomials are dense exponent tuples (n stays small here, so tuple
comparisons are cheap and cache friendly).  Polynomials are immutable
sequences of (exponent tuple, coefficient) terms kept strictly
descending in the ring's monomial order with no zero coefficients.
"""

from functools import lru_cache
from math import comb
from operator import add, le, sub

from .errors import DegenerateInputError, InhomogeneousError, ResourceLimitError, StructureError
from .field import DEFAULT_PRIME, PrimeField

GREVLEX = "grevlex"
LEX = "lex"
_ORDER_KINDS = (GREVLEX, LEX)


class MonomialOrder:
    """A multiplicative total order on monomials; grevlex or lex."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in _ORDER_KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, exps):
        """Sort key: larger key = larger monomial."""
        if self.kind == GREVLEX:
            return (sum(exps), tuple(-e for e in reversed(exps)))
        return exps

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(("MonomialOrder", self.kind))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r})"


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b) -> bool:
    """True iff x^a divides x^b."""
    return all(map(le, a, b))


def minimal_monomials(monos):
    """The monomials of `monos` that no other divides, by ascending degree
    (stable, one copy of each)."""
    out = []
    for m in sorted(monos, key=sum):
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


def _poly_mul_t(a, b):
    """Product of two polynomials in t, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(coeffs):
    """Drop trailing zero coefficients in place, keeping at least one."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _hs_numerator(gens, n):
    """Numerator of HS(S/I) over (1-t)^n for a monomial ideal I, by the
    pivot recursion HN(I) = HN(I + x_v) + t HN(I : x_v).  It sits here,
    beside `minimal_monomials`, so that the Gröbner engine can compare
    its leads' series with a floor and `invariants` can read it too."""
    gens = minimal_monomials(gens)
    if not gens:
        return [1]
    if any(sum(m) == 0 for m in gens):
        return [0]
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    counts = [0] * n
    for s in supports:
        for i in s:
            counts[i] += 1
    if max(counts) <= 1:
        # pairwise coprime generators: Koszul product
        out = [1]
        for m in gens:
            d = sum(m)
            factor = [1] + [0] * (d - 1) + [-1]
            out = _poly_mul_t(out, factor)
        return _trim(out)
    v = counts.index(max(counts))
    pivot = tuple(1 if i == v else 0 for i in range(n))
    plus = _hs_numerator(gens + [pivot], n)
    colon = _hs_numerator(
        [tuple(e - 1 if i == v and e else e for i, e in enumerate(m)) for m in gens], n
    )
    out = plus + [0] * max(0, len(colon) + 1 - len(plus))
    for k, c in enumerate(colon):
        out[k + 1] += c
    return _trim(out)


def monomial_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


MONOMIAL_LIMIT = 10**7  # monomials of one degree that may be listed: 10^7 4-tuples take about 1 GB


@lru_cache(maxsize=None)
def monomials_of_degree(n: int, d: int, order_kind: str):
    """All degree-d monomials in n variables, descending in the order.

    The exponent vectors are listed lex-descending, each from the one
    before in O(n): the last nonzero entry left of the final one moves
    one unit right and takes the final entry along.  Raises
    `ResourceLimitError` before listing any when there are more than
    MONOMIAL_LIMIT of them, C(n - 1 + d, d).
    """
    count = comb(n - 1 + d, d) if d > 0 else 1
    if count > MONOMIAL_LIMIT:
        raise ResourceLimitError(f"S_{d} in {n} variables has {count} monomials, more than {MONOMIAL_LIMIT} to list")
    order = MonomialOrder(order_kind)
    exps = [d] + [0] * (n - 1)
    monos = [tuple(exps)]
    while exps[-1] < d:
        i = n - 2
        while not exps[i]:
            i -= 1
        tail, exps[-1] = exps[-1], 0
        exps[i] -= 1
        exps[i + 1] = tail + 1
        monos.append(tuple(exps))
    monos.sort(key=order.key, reverse=True)
    return tuple(monos)


class RingContext:
    """Ambient graded ring: variable names, coefficient field, order."""

    __slots__ = ("n", "field", "order", "names")

    def __init__(self, names, field=None, order=None):
        names = tuple(names)
        if len(names) < 1:
            raise StructureError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise StructureError("variable names must be pairwise distinct")
        self.names = names
        self.n = len(names)
        self.field = field if field is not None else PrimeField(DEFAULT_PRIME)
        self.order = order if order is not None else MonomialOrder(GREVLEX)

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.names == other.names
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"RingContext({self.names}, p={self.field.p}, order={self.order.kind})"

    # -- constructors ------------------------------------------------

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return Polynomial(self, (((0,) * self.n, 1),))

    def variable(self, i):
        exps = [0] * self.n
        exps[i] = 1
        return self.monomial(tuple(exps))

    def monomial(self, exps, coeff=1):
        coeff = self.field.reduce(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((tuple(exps), coeff),))

    def from_terms(self, terms):
        """Build a polynomial from (exps, coeff) pairs in any order."""
        acc = {}
        for exps, coeff in terms:
            exps = tuple(exps)
            if len(exps) != self.n:
                raise StructureError("term has wrong variable count")
            acc[exps] = (acc.get(exps, 0) + coeff) % self.field.p
        return self._from_dict(acc)

    def _from_dict(self, acc):
        key = self.order.key
        terms = tuple(
            (e, c) for e, c in sorted(acc.items(), key=lambda kv: key(kv[0]), reverse=True) if c
        )
        return Polynomial(self, terms)


class Polynomial:
    """Sparse polynomial; terms strictly descending, coefficients in [1, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext, terms):
        self.ring = ring
        self.terms = tuple(terms)

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lead_exps(self):
        if not self.terms:
            raise DegenerateInputError("zero polynomial has no lead term")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            raise DegenerateInputError("zero polynomial has no lead term")
        return self.terms[0][1]

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(e) == d for e, _ in self.terms)

    def homogeneous_degree(self) -> int:
        if not self.terms:
            raise DegenerateInputError("zero polynomial has no homogeneous degree")
        d = sum(self.terms[0][0])
        for e, _ in self.terms[1:]:
            if sum(e) != d:
                raise InhomogeneousError(d, sum(e))
        return d

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise StructureError("polynomials from different rings")

    def __add__(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        p = self.ring.field.p
        for e, c in other.terms:
            v = (acc.get(e, 0) + c) % p
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
        return self.ring._from_dict(acc)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __mul__(self, other):
        self._check_ring(other)
        p = self.ring.field.p
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = monomial_mul(e1, e2)
                v = (acc.get(e, 0) + c1 * c2) % p
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        return self.ring._from_dict(acc)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.field.p
        parts = []
        for e, c in self.terms:
            # balanced residue for readability; values p-1, p-2, ... print negative
            signed = c if c <= p // 2 else c - p
            sign = "-" if signed < 0 else "+"
            mag = abs(signed)
            factors = []
            for name, exp in zip(self.ring.names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<poly {self}>"


class GradedFreeModule:
    """Free module ⊕_j S(-d_j), recorded by its tuple of shifts."""

    __slots__ = ("shifts",)

    def __init__(self, shifts):
        self.shifts = tuple(int(d) for d in shifts)

    @property
    def rank(self):
        return len(self.shifts)

    def __eq__(self, other):
        return isinstance(other, GradedFreeModule) and self.shifts == other.shifts

    def __hash__(self):
        return hash(self.shifts)

    def __repr__(self):
        return f"GradedFreeModule{self.shifts}"

    def __str__(self):
        if not self.shifts:
            return "0"
        counts = {}
        for d in self.shifts:
            counts[d] = counts.get(d, 0) + 1
        parts = []
        for d in sorted(counts):
            mult = counts[d]
            body = f"S({-d})" if d else "S"
            parts.append(body if mult == 1 else f"{body}^{mult}")
        return " + ".join(parts)


class GradedMap:
    """Matrix of homogeneous polynomials between graded free modules.

    entries[i][j] maps the j-th source generator into the i-th target
    slot; a nonzero entry must be homogeneous of degree
    source.shifts[j] - target.shifts[i].
    """

    __slots__ = ("ring", "source", "target", "entries")

    def __init__(self, ring, source: GradedFreeModule, target: GradedFreeModule, entries):
        self.ring = ring
        self.source = source
        self.target = target
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != target.rank or any(len(row) != source.rank for row in entries):
            raise StructureError("entry matrix shape does not match module ranks")
        self.entries = entries

    def violations(self):
        """Degree-compatibility violations as (i, j, expected, found)."""
        out = []
        for i, row in enumerate(self.entries):
            for j, f in enumerate(row):
                if f.is_zero():
                    continue
                expected = self.source.shifts[j] - self.target.shifts[i]
                try:
                    found = f.homogeneous_degree()
                except InhomogeneousError:
                    out.append((i, j, expected, None))
                    continue
                if found != expected:
                    out.append((i, j, expected, found))
        return out

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other, for other mapping into self's source."""
        if other.target != self.source:
            raise StructureError("maps are not composable")
        zero = self.ring.zero()
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = zero
                for k in range(self.source.rank):
                    e = self.entries[i][k]
                    f = other.entries[k][j]
                    if e.is_zero() or f.is_zero():
                        continue
                    acc = acc + e * f
                row.append(acc)
            rows.append(row)
        return GradedMap(self.ring, other.source, self.target, rows)

    def is_zero(self):
        return all(f.is_zero() for row in self.entries for f in row)

    def __repr__(self):
        return f"GradedMap({self.source} -> {self.target})"
