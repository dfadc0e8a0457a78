"""Buchberger's algorithm with syzygy certificates.

The engine works uniformly on elements of graded free modules: a vector
is a dict mapping (exponent tuple, component) to a coefficient, ordered
term-over-position by the ring's monomial order.  Ideals are the rank-1
case.  Every basis element carries a certificate expressing it in terms
of the input generators; reducing S-pairs of the final reduced Gröbner
basis to zero then yields Schreyer generators of the full syzygy module,
already written over the original generators.

The syzygy pass reduces only the Schreyer-frame pairs: for each basis
index i, one pair (i, j), j > i, per minimal generator of the monomial
ideal of multipliers lcm(lt_i, lt_j) / lt_i (La Scala-Stillman).  Their
syzygies have the lead terms of the whole Schreyer Gröbner basis of the
syzygy module (Eisenbud, Thm 15.10), so they generate it.  A dropped
pair (i, j) has some k with lt_k | lcm(lt_i, lt_j), so its lead-term
syzygy is a combination of those of (i, k) and (k, j): the kept pairs
generate the lead-term syzygies, and their reducing to zero, which the
pass checks, still certifies the basis (Buchberger's criterion).

All reduction runs through one normal-form loop, `_reduce_full`: S-pair
reduction in Buchberger, interreduction, the syzygy pass, the public
`divide` and `QuotientBasis` normal forms (whose divisors enter as monic
elements with their inverse lead coefficients as certificates, built by
`_divisor_elems`).  It visits terms largest first from a min-heap keyed
by `MonomialOrder.heap_key`, pushing each term when it enters the
working dict and skipping popped terms that have cancelled, so it never
rescans the dict for its lead term.
"""

import threading
from heapq import heapify, heappop, heappush

from .errors import DegenerateInputError, ParameterError, StructureError
from .ring import (
    GradedFreeModule,
    Polynomial,
    RingContext,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# vector representation: dict {(exps, comp): coeff}
# ---------------------------------------------------------------------------


def _term_key_fn(order):
    okey = order.key

    def key(term):
        exps, comp = term
        return (okey(exps), -comp)

    return key


def _addmul_into(target, coeff, mult, src, p):
    """target += coeff * x^mult * src (in place)."""
    if coeff % p == 0:
        return
    for (exps, comp), v in src.items():
        k = (monomial_mul(exps, mult), comp)
        val = (target.get(k, 0) + coeff * v) % p
        if val:
            target[k] = val
        else:
            target.pop(k, None)


class _Elem:
    __slots__ = ("vec", "cert", "lead")

    def __init__(self, vec, cert, lead):
        self.vec = vec
        self.cert = cert
        self.lead = lead


def _reduce_full(h, cert, basis, p, order):
    """Total normal form of h against monic basis elements.

    Returns (tail, cert) where tail has no term divisible by any basis
    lead term.  Every multiple of a basis element added to h is added to
    cert as the same multiple of that element's cert, so if cert writes
    h over the generators on input, it writes tail over them on output.

    Terms are visited largest first through a min-heap on the order's
    inverted key; a term is pushed when it enters the working dict, and
    popped entries no longer in the dict are skipped.  Reducing t only
    adds terms below t, so each term is processed once.  Ties on the
    monomial fall back to comparing (exps, comp): the lower component,
    the larger term, pops first.  Among basis elements whose lead
    divides t, the first in list order is used.
    """
    hkey = order.heap_key
    h = dict(h)
    cert = None if cert is None else dict(cert)
    heap = [(hkey(t[0]), t) for t in h]
    heapify(heap)
    tail = {}
    while heap:
        t = heappop(heap)[1]
        c = h.get(t)
        if c is None:
            continue
        texps, tcomp = t
        for g in basis:
            gexps, gcomp = g.lead
            if gcomp == tcomp and monomial_divides(gexps, texps):
                mult = monomial_div(texps, gexps)
                m = p - c
                for (exps, comp), v in g.vec.items():
                    e = monomial_mul(exps, mult)
                    k = (e, comp)
                    old = h.get(k)
                    if old is None:
                        h[k] = m * v % p
                        heappush(heap, (hkey(e), k))
                    else:
                        val = (old + m * v) % p
                        if val:
                            h[k] = val
                        else:
                            del h[k]
                if cert is not None:
                    _addmul_into(cert, m, mult, g.cert, p)
                break
        else:
            tail[t] = c
            del h[t]
    return tail, cert


def _scale_vec(vec, c, p):
    return {t: (c * v) % p for t, v in vec.items()}


def _module_groebner(gens, p, order, ambient_rank, ambient_shifts, track_certs=True):
    """Reduced Gröbner basis of the submodule generated by `gens`.

    Returns a list of monic _Elem sorted descending by lead term; each
    cert writes the element over the input generators.  Pair selection
    is the normal strategy (lowest shifted lcm degree, then the order on
    the lcm); the product criterion applies only in rank 1, the chain
    criterion everywhere.
    """
    key = _term_key_fn(order)
    okey = order.key
    basis = []
    heap = []
    done = set()

    def push_pairs(j):
        tj = basis[j].lead
        for i in range(j):
            ti = basis[i].lead
            if ti[1] != tj[1]:
                continue
            lcm = monomial_lcm(ti[0], tj[0])
            deg = sum(lcm) + ambient_shifts[ti[1]]
            heappush(heap, (deg, okey(lcm), ti[1], i, j))

    def add_elem(vec, cert):
        lead = max(vec, key=key)
        lc = vec[lead]
        if lc != 1:
            inv = pow(lc, p - 2, p)
            vec = _scale_vec(vec, inv, p)
            if cert is not None:
                cert = _scale_vec(cert, inv, p)
        basis.append(_Elem(vec, cert, lead))
        push_pairs(len(basis) - 1)

    for idx, vec in enumerate(gens):
        if not vec:
            continue
        cert = {(((0,) * len(next(iter(vec))[0])), idx): 1} if track_certs else None
        add_elem(dict(vec), cert)

    while heap:
        _, _, comp, i, j = heappop(heap)
        if (i, j) in done:
            continue
        done.add((i, j))
        ti, tj = basis[i].lead, basis[j].lead
        lcm = monomial_lcm(ti[0], tj[0])
        if ambient_rank == 1 and monomial_mul(ti[0], tj[0]) == lcm:
            continue  # product criterion (valid for ideals only)
        skip = False
        for k, elem in enumerate(basis):
            if k == i or k == j or elem.lead[1] != comp:
                continue
            if monomial_divides(elem.lead[0], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s, cs = {}, ({} if track_certs else None)
        _addmul_into(s, 1, monomial_div(lcm, ti[0]), basis[i].vec, p)
        _addmul_into(s, p - 1, monomial_div(lcm, tj[0]), basis[j].vec, p)
        if track_certs:
            _addmul_into(cs, 1, monomial_div(lcm, ti[0]), basis[i].cert, p)
            _addmul_into(cs, p - 1, monomial_div(lcm, tj[0]), basis[j].cert, p)
        tail, cert = _reduce_full(s, cs, basis, p, order)
        if tail:
            add_elem(tail, cert)

    return _interreduce(basis, p, order)


def _interreduce(basis, p, order):
    """Prune to the minimal basis and tail-reduce: the reduced GB."""
    key = _term_key_fn(order)
    kept = []
    for i in sorted(range(len(basis)), key=lambda i: key(basis[i].lead)):
        t = basis[i].lead
        if any(
            k.lead[1] == t[1] and monomial_divides(k.lead[0], t[0]) for k in kept
        ):
            continue
        kept.append(basis[i])
    final = []
    for g in kept:
        others = [h for h in kept if h is not g]
        tail, cert = _reduce_full(g.vec, g.cert, others, p, order)
        final.append(_Elem(tail, cert, g.lead))
    final.sort(key=lambda e: key(e.lead), reverse=True)
    return final


def _frame_pairs(gb):
    """The pairs (i, j), i < j, whose S-pairs the syzygy pass reduces.

    For each i, the multipliers m_ji = lcm(lt_i, lt_j) / lt_i over the
    j > i with lt_j in lt_i's component; one pair per multiplier minimal
    under divisibility, with the smallest j among equal multipliers.
    Under the Schreyer order (ties broken towards the smaller index) the
    syzygy of pair (i, j) has lead term m_ji e_i.
    """
    pairs = []
    for i, gi in enumerate(gb):
        lt, comp = gi.lead
        first = {}
        for j in range(i + 1, len(gb)):
            tj, cj = gb[j].lead
            if cj == comp:
                first.setdefault(monomial_div(monomial_lcm(lt, tj), lt), j)
        minimal = []
        for mult in sorted(first, key=sum):
            if not any(monomial_divides(m, mult) for m in minimal):
                minimal.append(mult)
                pairs.append((i, first[mult]))
    return pairs


def _syzygy_certs(gens, p, order, ambient_rank, ambient_shifts):
    """Schreyer generators of the syzygy module of `gens`.

    Reduces the Schreyer-frame S-pairs of the reduced GB (`_frame_pairs`;
    the module docstring says why they suffice) to zero and keeps the
    certificates, then adds the interreduction relations
    e_i - (expression of gen i over the GB).  The result generates
    ker(e_i -> gens[i]) in the free module with one slot per generator.
    """
    gb = _module_groebner(gens, p, order, ambient_rank, ambient_shifts, track_certs=True)
    syz = []
    for i, j in _frame_pairs(gb):
        ti, tj = gb[i].lead, gb[j].lead
        lcm = monomial_lcm(ti[0], tj[0])
        s, cs = {}, {}
        _addmul_into(s, 1, monomial_div(lcm, ti[0]), gb[i].vec, p)
        _addmul_into(s, p - 1, monomial_div(lcm, tj[0]), gb[j].vec, p)
        _addmul_into(cs, 1, monomial_div(lcm, ti[0]), gb[i].cert, p)
        _addmul_into(cs, p - 1, monomial_div(lcm, tj[0]), gb[j].cert, p)
        tail, cert = _reduce_full(s, cs, gb, p, order)
        if tail:
            raise RuntimeError("S-pair of a Gröbner basis did not reduce to zero")
        if cert:
            syz.append(cert)
    for idx, vec in enumerate(gens):
        if not vec:
            continue
        zero_exps = (0,) * len(next(iter(vec))[0])
        tail, cert = _reduce_full(vec, {(zero_exps, idx): 1}, gb, p, order)
        if tail:
            raise RuntimeError("generator did not reduce to zero against its own GB")
        if cert:
            syz.append(cert)
    return _canonical_syzygy_list(syz, gens, p, order, ambient_shifts, _term_key_fn(order))


def _canonical_syzygy_list(syz, gens, p, order, ambient_shifts, key):
    """Dedupe and sort syzygy certificates deterministically."""
    gen_degrees = [_vec_degree(v, ambient_shifts) for v in gens]

    def canon(vec):
        return tuple(sorted(vec.items(), key=lambda kv: key(kv[0]), reverse=True))

    seen = {}
    for vec in syz:
        c = canon(vec)
        if c not in seen:
            seen[c] = vec
    out = list(seen.items())
    out.sort(key=lambda cv: (_vec_degree(cv[1], gen_degrees), cv[0]))
    return [vec for _, vec in out]


def _vec_degree(vec, shifts):
    """Shifted degree of a homogeneous vector (max over terms in general)."""
    return max(sum(exps) + shifts[comp] for (exps, comp) in vec)


# ---------------------------------------------------------------------------
# conversions between Polynomial tuples and engine vectors
# ---------------------------------------------------------------------------


def _vec_from_polys(polys):
    vec = {}
    for comp, f in enumerate(polys):
        for exps, c in f.terms:
            vec[(exps, comp)] = c
    return vec


def _polys_from_vec(vec, ring, rank):
    """One polynomial per slot; the empty slots share one zero."""
    buckets = {}
    for (exps, comp), c in vec.items():
        bucket = buckets.get(comp)
        if bucket is None:
            bucket = buckets[comp] = {}
        bucket[exps] = c
    zero = ring.zero()
    return tuple(ring._from_dict(buckets[k]) if k in buckets else zero for k in range(rank))


def vector_syzygies(ring, vectors, ambient_shifts):
    """Generators of the syzygy module of module elements.

    `vectors` is a sequence of tuples of homogeneous polynomials (one
    entry per ambient component); returns syzygy vectors as tuples of
    polynomials, one slot per input vector.
    """
    rank = len(ambient_shifts)
    vecs = []
    for v in vectors:
        if len(v) != rank:
            raise StructureError("vector length does not match ambient rank")
        vec = _vec_from_polys(v)
        if not vec:
            raise DegenerateInputError("zero vector among module generators")
        vecs.append(vec)
    if not vecs:
        return []
    certs = _syzygy_certs(vecs, ring.field.p, ring.order, rank, tuple(ambient_shifts))
    return [_polys_from_vec(c, ring, len(vectors)) for c in certs]


def vector_degree(polys, ambient_shifts):
    degs = {f.homogeneous_degree() + s for f, s in zip(polys, ambient_shifts) if not f.is_zero()}
    if len(degs) != 1:
        raise DegenerateInputError(f"vector is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


# ---------------------------------------------------------------------------
# public ideal layer
# ---------------------------------------------------------------------------


class Ideal:
    """Homogeneous ideal with cached reduced Gröbner basis."""

    __slots__ = ("ring", "generators", "_lock", "_gb", "_hs_numerator", "_betti", "_resolution")

    def __init__(self, ring: RingContext, generators):
        self.ring = ring
        gens = tuple(generators)
        for f in gens:
            if not isinstance(f, Polynomial) or f.ring != ring:
                raise StructureError("generator from a different ring")
            if f.is_zero():
                raise DegenerateInputError("zero polynomial among ideal generators")
            f.homogeneous_degree()  # raises InhomogeneousError when mixed
        self.generators = gens
        self._lock = threading.RLock()
        self._gb = None
        self._hs_numerator = None
        self._betti = None
        self._resolution = None

    def __repr__(self):
        return f"Ideal({', '.join(str(f) for f in self.generators) or '0'})"

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def is_zero_ideal(self):
        return not self.generators

    def groebner_basis(self):
        """The unique reduced Gröbner basis for the ring's order (cached)."""
        with self._lock:
            if self._gb is None:
                self._gb = buchberger_basis(self.ring, self.generators)
            return self._gb

    def lead_exponents(self):
        """Exponent vectors of the lead terms of the reduced GB."""
        return tuple(g.lead_exps() for g in self.groebner_basis())

    def is_unit_ideal(self):
        gb = self.groebner_basis()
        return bool(gb) and sum(gb[0].lead_exps()) == 0

    def contains(self, f):
        return ideal_member(f, self)

    def __add__(self, other):
        return ideal_sum(self, other)


def _divisor_elems(ring, divisors):
    """Divisor i as the monic element g_i / lc_i with cert {(1, i): 1/lc_i}."""
    p = ring.field.p
    zero = (0,) * ring.n
    basis = []
    for gi, g in enumerate(divisors):
        inv = ring.field.inv(g.lead_coeff())
        vec = _vec_from_polys((g,))
        if inv != 1:
            vec = _scale_vec(vec, inv, p)
        basis.append(_Elem(vec, {(zero, gi): inv}, (g.lead_exps(), 0)))
    return basis


def divide(f: Polynomial, divisors):
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i g_i) + r and no term
    of r divisible by any lead term; always reduces by the first divisor
    in list order, so the output is deterministic.  This is the engine's
    normal form: divisor i enters as the monic g_i / lc_i with cert
    {(1, i): 1/lc_i}, so the returned cert is minus the quotients.
    """
    divisors = list(divisors)
    if not divisors:
        raise StructureError("divisor list must be nonempty")
    ring = f.ring
    for g in divisors:
        if g.ring != ring:
            raise StructureError("divisor from a different ring")
        if g.is_zero():
            raise DegenerateInputError("zero divisor in division algorithm")
    p = ring.field.p
    basis = _divisor_elems(ring, divisors)
    tail, cert = _reduce_full(_vec_from_polys((f,)), {}, basis, p, ring.order)
    quotients = {t: p - c for t, c in cert.items()}
    return (
        _polys_from_vec(quotients, ring, len(divisors)),
        _polys_from_vec(tail, ring, 1)[0],
    )


def buchberger_basis(ring: RingContext, generators):
    """Reduced Gröbner basis of a list of homogeneous polynomials."""
    vecs = [_vec_from_polys((f,)) for f in generators if not f.is_zero()]
    if not vecs:
        return ()
    gb = _module_groebner(vecs, ring.field.p, ring.order, 1, (0,), track_certs=False)
    return tuple(_polys_from_vec(e.vec, ring, 1)[0] for e in gb)


def buchberger(ideal: Ideal):
    """Reduced Gröbner basis of the ideal, cached on the Ideal."""
    return ideal.groebner_basis()


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    if f.is_zero():
        return True
    if f.ring != ideal.ring:
        raise StructureError("polynomial from a different ring")
    gb = ideal.groebner_basis()
    if not gb:
        return False
    _, r = divide(f, gb)
    return r.is_zero()


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise StructureError("ideals from different rings")
    return Ideal(a.ring, a.generators + b.generators)


def maximal_ideal_power(ring: RingContext, m: int) -> Ideal:
    """The ideal m^m = (x_1..x_n)^m, generated by all degree-m monomials."""
    if m < 1:
        raise ParameterError(f"power m must be >= 1, got {m}")
    gens = [ring.monomial(e) for e in monomials_of_degree(ring.n, m, ring.order.kind)]
    return Ideal(ring, gens)


class SyzygyBasis:
    """Generators of the syzygy module of a fixed generator sequence."""

    __slots__ = ("ambient", "elements")

    def __init__(self, ambient: GradedFreeModule, elements):
        self.ambient = ambient
        self.elements = tuple(tuple(v) for v in elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"SyzygyBasis(rank {self.ambient.rank}, {len(self.elements)} generators)"


def syzygies(ideal: Ideal) -> SyzygyBasis:
    """Generating syzygies of the ideal's generator sequence as given."""
    gens = ideal.generators
    ambient = GradedFreeModule(f.homogeneous_degree() for f in gens)
    if not gens:
        return SyzygyBasis(ambient, ())
    vectors = vector_syzygies(ideal.ring, [(f,) for f in gens], (0,))
    return SyzygyBasis(ambient, vectors)
