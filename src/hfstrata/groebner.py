"""Buchberger's algorithm with syzygy certificates.

The engine works uniformly on elements of graded free modules: a vector
is a dict mapping a packed term to a coefficient.  A term x^e e_comp is
one Python int (`_Packing`, after Bachmann-Schönemann's packed monomial
words): with B = 2^16, n variables and k bits for the component,

    key = ((W(e) * B^n + sum_i e_i B^i) << k) + comp,

where W(e) = -deg(e) for grevlex and W(e) = -sum_i e_i B^(n-1-i) for
lex.  A smaller key is a larger term (the order on the monomial, then
the lower component), so a lead term is `min(vec)` and heaps hold plain
ints; x^a times a term is `key + pack(a)`; and x^a e_c divides x^b e_c'
iff `key_b - key_a` has no bit set in the component bits or in the top
(guard) bit of any exponent field.  Exponents must stay below 2^15: an
input exponent at or above it, or a new term whose guard bit is set,
raises `ExponentOverflowError` instead of a wrong answer.

Ideals are the rank-1 case.  Every basis element carries a certificate
expressing it in terms of the input generators; reducing S-pairs of the
final reduced Gröbner basis to zero then yields Schreyer generators of
the full syzygy module, already written over the original generators.

Buchberger (`_module_groebner`) stops at the minimal basis: `_prune`
keeps the elements whose lead no other lead divides, and the tail pass
(`_tail_reduce`) that makes it the reduced basis is a separate step.
The syzygy pass and `buchberger_basis` run both.  An `Ideal` caches the
minimal basis packed, under a rank-1 `_Packing`, and tail-reduces it
in place the first time a reader needs reduced elements: lead-term
readers (`lead_exponents`, `is_unit_ideal`, hence the Hilbert series
and the Krull dimension) never pay for the tail pass, while
`groebner_basis()`, `ideal_member` and `QuotientBasis` normal forms do,
once per ideal.

A rank-1 run can take a *floor* (Traverso's Hilbert-driven
Buchberger): a Hilbert series, numerator over (1 - t)^n, that is a
proven lower bound on HS(S/J), coefficientwise, for the ideal J being
computed.  Pairs are popped in degree order, and the run keeps the
degree-d monomials that no current lead divides (`_Staircase`) for the
degree d of the pair in hand.  Their count is at least h_J(d) >=
floor(d); once it equals floor(d), the current leads span LT(J)_d, so
every remaining degree-d S-polynomial, an element of J_d, reduces to
zero: a nonzero remainder would be an element of J_d whose lead lies
outside that span.  Such a pair goes to `done` unreduced.  Its
S-polynomial has a standard representation over the current basis, as
that of a pair reduced to zero has, so the chain criterion, which reads
`done`, stays sound.  A skipped pair would have added no element.  A
count below the floor proves the floor false and raises RuntimeError.

The run also stops at its floor.  At the first degree found spanned
above that of the last new element, it compares the Hilbert-series
numerator of the current leads B with the floor's, once per set of
leads (in the degree of a new element itself, being spanned says
nothing of the degrees above).  HS(S/LT(B)) >= HS(S/J) >= floor
coefficientwise, since LT(B) lies in LT(J), so equality makes LT(B) and
LT(J) equal in every degree: B is a Gröbner basis, every pair left
would be skipped or reduce to zero, and none would add an element.  The
run ends there, and the basis is the plain run's, element for element.
The floor is then HS(S/J) itself, and `Ideal` caches its numerator as
the ideal's.  The product criterion is tested before the staircase, so
a pair it drops never makes the staircase build its degree.  `strata`
builds the floors of its regular-sequence certificate this way, and
`invariants` those of its Artinian reductions.

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
reduction in Buchberger, the tail pass, the syzygy pass, the public
`divide` (whose divisors enter as monic elements with their inverse
lead coefficients as certificates, built by `_divisor_index`), and the
certificate-free normal forms of `ideal_member` and `QuotientBasis`
modulo an `Ideal`'s cached reduced basis.  It visits terms largest
first from a min-heap of packed keys (Monagan-Pearce heap division),
pushing each term once, when it enters the working dict, so it never
rescans the dict for its lead term.  Coefficients are reduced when
read: updates accumulate plain ints, and a term is reduced mod p when
it is popped and dropped there if it is 0, so a cancelled term is
never deleted and pushed again.  S-pairs and certificates are kept
reduced as they are built: an S-pair that cancels to the empty vector
then never reaches the heap.

A lead in another component never divides a term, so wherever the
engine holds a basis it also holds its component index
(`_by_component`: index[c] lists the elements whose lead lies in
component c, in list order).  Reducers, Buchberger's pair partners
and chain-criterion witnesses, the pruning and the frame partners of
the syzygy pass are looked up in the term's own component
only.  The rule is unchanged: the first reducer in list order is the
first in its component's group, so no pair, criterion outcome or
certificate moves.  In rank 1 the index has one group, the whole basis.

Reducers are memoized per basis index: the memo maps a term to the
position in its component's group before which no lead divides it.
One memo serves a whole Buchberger run (groups are only appended to,
so a hit stays the first divisor, and a miss resumes its scan where it
stopped), the syzygy pass's reduced basis and a `QuotientBasis`'s
divisors; each `_tail_reduce` element, whose divisors are the others,
starts a fresh one.  The rule is still the first divisor in list order,
so no certificate changes.
"""

import struct
from heapq import heapify, heappop, heappush
from operator import mul
from typing import NamedTuple

from .errors import (
    DegenerateInputError,
    ExponentOverflowError,
    ParameterError,
    StructureError,
)
from .ring import (
    GREVLEX,
    Polynomial,
    RingContext,
    _hs_numerator,
    minimal_monomials,
    monomial_div,
    monomial_lcm,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# packed terms
# ---------------------------------------------------------------------------

EXP_BITS = 16
EXP_LIMIT = 1 << (EXP_BITS - 1)  # exponents stay below 2^15, the guard bit


def _overflow():
    return ExponentOverflowError(
        f"an exponent reached {EXP_LIMIT}: the engine packs exponents below 2^15"
    )


class _Packing:
    """The packed int keys of terms x^e e_comp for one n, order and rank.

    See the module docstring for the layout.  `div_mask` holds the guard
    bits and the component bits: `key_b - key_a` avoids it iff term a
    divides term b.  `guard` holds the guard bits alone.
    """

    __slots__ = ("n", "shift", "comp_mask", "guard", "div_mask", "_weights", "_low", "_unpack")

    def __init__(self, n: int, order_kind: str, rank: int):
        k = max(rank - 1, 0).bit_length()
        top = 1 << (EXP_BITS * n)
        if order_kind == GREVLEX:
            order_weights = [-1] * n
        else:
            order_weights = [-(1 << (EXP_BITS * (n - 1 - i))) for i in range(n)]
        self.n = n
        self.shift = k
        self.comp_mask = (1 << k) - 1
        self.guard = sum(EXP_LIMIT << (EXP_BITS * i) for i in range(n)) << k
        self.div_mask = self.guard | self.comp_mask
        self._weights = tuple(
            (w * top + (1 << (EXP_BITS * i))) << k for i, w in enumerate(order_weights)
        )
        self._low = top - 1
        self._unpack = struct.Struct(f"<{n}H").unpack

    def pack(self, exps, comp=0):
        """The key of x^exps e_comp; raises on an exponent of 2^15 or more."""
        if max(exps) >= EXP_LIMIT:
            raise _overflow()
        return sum(map(mul, exps, self._weights)) + comp

    def mul(self, key, mono):
        """The key of x^a times the term `key`, for mono = pack(a)."""
        product = key + mono
        if product & self.guard:
            raise _overflow()
        return product

    def unpack(self, key):
        """(exps, comp) of a key."""
        fields = (key >> self.shift) & self._low
        return self._unpack(fields.to_bytes(2 * self.n, "little")), key & self.comp_mask


def _addmul_into(target, coeff, mult, src, p, guard):
    """target += coeff * x^mult * src (in place); mult is a packed monomial."""
    if coeff % p == 0:
        return
    for t, v in src.items():
        k = t + mult
        if k & guard:
            raise _overflow()
        val = (target.get(k, 0) + coeff * v) % p
        if val:
            target[k] = val
        else:
            target.pop(k, None)


class _Elem(NamedTuple):
    """A monic basis element: its vector, certificate and lead term."""

    vec: dict
    cert: dict | None
    lead: int


def _by_component(elems, pk):
    """index[c]: the elements whose lead lies in component c, in list order."""
    index = [[] for _ in range(pk.comp_mask + 1)]
    for g in elems:
        index[g.lead & pk.comp_mask].append(g)
    return index


def _reduce_full(h, cert, index, memo, p, pk):
    """Total normal form of h against monic basis elements.

    `index` is the basis as `_by_component` groups it, and `memo` is the
    index's reducer memo (a fresh `{}` starts one): memo[t] is a position
    in the group of t's component before which no lead divides t.

    Returns (tail, cert) where tail has no term divisible by any basis
    lead term.  Every multiple of a basis element added to h is added to
    cert as the same multiple of that element's cert, so if cert writes
    h over the generators on input, it writes tail over them on output.

    Terms are visited largest first through a min-heap of keys, each
    pushed once, when it enters the working dict.  Coefficients
    accumulate there as plain ints and are reduced mod p only when
    their term is popped; a term that is 0 mod p then is dropped, so a
    cancelled term is never deleted and pushed again.  Reducing t only
    adds terms below t, so nothing adds to t once it is popped: each
    term is processed once, and popped terms stay in the dict.  The
    certificate is kept reduced as it is built (`_addmul_into`, as for
    S-pairs), so both outputs hold values in [0, p) only.

    Among basis elements whose lead divides t, the first in list order
    is used.  Only the group of t's own component is scanned for it (a
    lead in another component never divides t, so the first divisor
    there is the first in the list); pair partners, chain witnesses and
    frame partners are looked up by component the same way.  The scan
    starts at memo[t]: a hit stays valid as long as the groups are only
    appended to, as Buchberger does, and a miss records how far the
    group was scanned, so a later scan resumes there.
    """
    mask, guard, comp_mask = pk.div_mask, pk.guard, pk.comp_mask
    h = dict(h)
    get = h.get
    recall = memo.get
    cert = None if cert is None else dict(cert)
    heap = list(h)
    heapify(heap)
    tail = {}
    while heap:
        t = heappop(heap)
        c = h[t] % p
        if not c:
            continue
        group = index[t & comp_mask]
        size = len(group)
        i = start = recall(t, 0)
        while i < size:
            vec, gcert, lead = group[i]
            mult = t - lead
            if not mult & mask:
                break
            i += 1
        if i != start:
            memo[t] = i
        if i == size:
            tail[t] = c
            continue
        m = p - c
        for u, v in vec.items():
            e = u + mult
            old = get(e)
            if old is None:
                if e & guard:
                    raise _overflow()
                h[e] = m * v
                heappush(heap, e)
            else:
                h[e] = old + m * v
        if cert is not None:
            _addmul_into(cert, m, mult, gcert, p, guard)
    return tail, cert


def _s_pair(gi, gj, lcm, p, guard, certs):
    """(S-pair, certificate) of basis elements gi, gj at the packed lcm
    of their lead terms; the certificate is None unless `certs` is set."""
    s = {}
    _addmul_into(s, 1, lcm - gi.lead, gi.vec, p, guard)
    _addmul_into(s, p - 1, lcm - gj.lead, gj.vec, p, guard)
    if not certs:
        return s, None
    cs = {}
    _addmul_into(cs, 1, lcm - gi.lead, gi.cert, p, guard)
    _addmul_into(cs, p - 1, lcm - gj.lead, gj.cert, p, guard)
    return s, cs


def _scale_vec(vec, c, p):
    return {t: (c * v) % p for t, v in vec.items()}


class _Staircase:
    """The degree-d monomials that no current lead divides, for the
    current degree d of a rank-1 Buchberger run, against a `floor`.

    `floor` is a Hilbert series (its `numerator` over (1 - t)^n and its
    `coefficient(d)`) that is a proven lower bound on HS(S/J),
    coefficientwise.  `keys` maps each such monomial's key to the size
    of its support.  The set of degree d + 1 is built from the x_i
    multiples of that of degree d: such a multiple c is outside the lead
    ideal iff it is no lead and every c / x_s, for x_s dividing c, is in
    the set of degree d, that is iff it is reached from as many of them
    as its support has variables.  Raises RuntimeError when the count
    drops below the floor, which a true bound never allows.
    """

    __slots__ = ("floor", "leads", "variables", "pk", "degree", "keys", "target", "grown", "met")

    def __init__(self, floor, leads, pk):
        self.floor = floor
        self.leads = set(leads)
        self.variables = [pk.pack(tuple(int(i == s) for i in range(pk.n))) for s in range(pk.n)]
        self.pk = pk
        self.degree = 0
        self.keys = {} if 0 in self.leads else {0: 0}  # 0 is the key of the monomial 1
        self.target = floor.coefficient(0)
        self.grown = -1  # the degree of the last new element, None once compared
        self.met = False
        self._check()

    def _check(self):
        if len(self.keys) < self.target:
            raise RuntimeError(
                f"{len(self.keys)} standard monomials in degree {self.degree}, "
                f"below the floor {self.target}"
            )

    def spanned(self, d):
        """Whether the current leads span the degree-d lead terms of J:
        every S-pair of degree d then reduces to zero.  Degrees below
        the current one are never asked for."""
        guard, variables, leads = self.pk.guard, self.variables, self.leads
        while self.degree < d:
            hits, sizes = {}, {}
            for u, size in self.keys.items():
                for x in variables:
                    c = u + x
                    if c in hits:
                        hits[c] += 1
                    else:
                        hits[c] = 1
                        sizes[c] = size + 1 if (u - x) & guard else size  # x new in c
            keys = {}
            for c, size in sizes.items():
                if hits[c] == size and c not in leads:
                    if c & guard:
                        raise _overflow()
                    keys[c] = size
            self.keys = keys
            self.degree += 1
            self.target = self.floor.coefficient(self.degree)
            self._check()
        return len(self.keys) == self.target

    def complete(self):
        """Whether the current leads have the floor's Hilbert series, so
        that they generate LT(J).  Asked when the current degree is
        spanned; compared once per set of leads, and only in a degree
        above that of the last new element: in that one, being spanned
        says nothing of the degrees above."""
        if self.grown is not None and self.degree > self.grown:
            self.grown = None
            unpack = self.pk.unpack
            exps = [unpack(t)[0] for t in self.leads]
            self.met = tuple(_hs_numerator(exps, self.pk.n)) == self.floor.numerator
        return self.met

    def add(self, lead):
        """A new basis element of the current degree: its lead leaves the set."""
        self.leads.add(lead)
        del self.keys[lead]
        self.grown = self.degree
        self._check()


def _module_groebner(gens, p, pk, ambient_rank, ambient_shifts, track_certs=True, stairs=None):
    """Minimal Gröbner basis of the submodule generated by the nonzero vectors `gens`.

    Returns a list of monic _Elem sorted descending by lead term, pruned
    but not tail-reduced (`_tail_reduce` finishes the reduced GB); each
    cert writes the element over the input generators.  Pair selection
    is the normal strategy (lowest shifted lcm degree, then the order on
    the lcm, then the component); the product criterion applies only in
    rank 1, the chain criterion everywhere.  Pair partners and chain
    witnesses come from the pair's own component.

    `stairs`, for a homogeneous ideal only (rank 1), is the `_Staircase`
    of the generators' leads against a floor on HS(S/J): once the
    degree-d monomials outside the current lead ideal number
    floor.coefficient(d), the remaining degree-d pairs go to `done`
    unreduced, and once the leads' Hilbert series is the floor, the run
    ends, with `stairs.met` set (see the module docstring).  It changes
    no element of the result, only which pairs are reduced.
    """
    mask, guard = pk.div_mask, pk.guard
    basis = []
    leads = []  # basis[i].lead
    lead_exps = []  # (exps, comp) of basis[i].lead
    index = _by_component((), pk)  # the basis by component
    memo = {}  # the reducer memo of index, valid since groups only grow
    members = _by_component((), pk)  # members[c]: the indices i of index[c]
    heap = []
    done = set()

    def push_pairs(j):
        tj, cj = lead_exps[j]
        for i in members[cj]:
            lcm = monomial_lcm(lead_exps[i][0], tj)
            # (deg, -pack(lcm)) sorts as (deg, order.key(lcm))
            heappush(heap, (sum(lcm) + ambient_shifts[cj], -pk.pack(lcm), cj, i, j))

    def add_elem(vec, cert):
        lead = min(vec)
        lc = vec[lead]
        if lc != 1:
            inv = pow(lc, p - 2, p)
            vec = _scale_vec(vec, inv, p)
            if cert is not None:
                cert = _scale_vec(cert, inv, p)
        j = len(basis)
        elem = _Elem(vec, cert, lead)
        basis.append(elem)
        leads.append(lead)
        lead_exps.append(pk.unpack(lead))
        push_pairs(j)
        comp = lead & pk.comp_mask
        index[comp].append(elem)
        members[comp].append(j)

    for idx, vec in enumerate(gens):
        add_elem(dict(vec), {idx: 1} if track_certs else None)  # key idx is 1 * e_idx

    while heap:
        deg, neg_lcm, comp, i, j = heappop(heap)
        done.add((i, j))
        lcm = comp - neg_lcm
        if ambient_rank == 1 and leads[i] + leads[j] == lcm:
            continue  # product criterion (valid for ideals only; comp is 0)
        if stairs is not None and stairs.spanned(deg):
            if stairs.complete():
                break  # the leads generate LT(J): every pair left reduces to zero
            continue  # the leads span LT(J)_deg, so this S-pair reduces to zero
        skip = False
        for k in members[comp]:
            if k == i or k == j or (lcm - leads[k]) & mask:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        s, cs = _s_pair(basis[i], basis[j], lcm, p, guard, track_certs)
        tail, cert = _reduce_full(s, cs, index, memo, p, pk)
        if tail:
            add_elem(tail, cert)
            if stairs is not None:
                stairs.add(leads[-1])

    return _prune(basis, pk)


def _prune(basis, pk):
    """The minimal basis: the elements whose lead no other lead divides.

    Leads are compared within a component.  Returns the kept elements
    sorted by lead term, descending; their tails are as Buchberger left
    them (`_tail_reduce` reduces them).
    """
    mask = pk.div_mask
    kept = _by_component((), pk)  # smallest lead term first
    for g in sorted(basis, key=lambda g: -g.lead):
        group = kept[g.lead & pk.comp_mask]
        if any(not (g.lead - k.lead) & mask for k in group):
            continue
        group.append(g)
    return sorted((g for group in kept for g in group), key=lambda e: e.lead)


def _tail_reduce(basis, p, pk):
    """The reduced GB from the minimal one `_prune` returns: each g is
    tail-reduced by all the others, in every component, since a tail
    term of g can lie in another component than its lead.

    The others are scanned smallest lead term first, the order `_prune`
    keeps them in: a certificate depends on that order, a reduced
    vector does not.  The result keeps the order of `basis`.
    """
    index = _by_component(reversed(basis), pk)  # smallest lead term first
    final = []
    for g in basis:
        comp = g.lead & pk.comp_mask
        others = index.copy()
        others[comp] = [h for h in index[comp] if h is not g]
        tail, cert = _reduce_full(g.vec, g.cert, others, {}, p, pk)
        final.append(_Elem(tail, cert, g.lead))
    return final


def _frame_pairs(gb, pk):
    """The pairs (i, j), i < j, whose S-pairs the syzygy pass reduces.

    For each i, the multipliers m_ji = lcm(lt_i, lt_j) / lt_i over the
    j > i with lt_j in lt_i's component; one pair per multiplier minimal
    under divisibility, with the smallest j among equal multipliers.
    Under the Schreyer order (ties broken towards the smaller index) the
    syzygy of pair (i, j) has lead term m_ji e_i.  The partners j are
    read from lt_i's component only.
    """
    leads = [pk.unpack(g.lead) for g in gb]
    members = _by_component((), pk)  # members[c]: ascending indices of the leads in c
    for j, (_, comp) in enumerate(leads):
        members[comp].append(j)
    pairs = []
    for group in members:
        for pos, i in enumerate(group):
            lt = leads[i][0]
            first = {}
            for j in group[pos + 1 :]:
                first.setdefault(monomial_div(monomial_lcm(lt, leads[j][0]), lt), j)
            pairs.extend((i, first[mult]) for mult in minimal_monomials(first))
    return pairs


def _syzygy_certs(gens, p, pk, ambient_rank, ambient_shifts):
    """Schreyer generators of the syzygy module of `gens`.

    Reduces the Schreyer-frame S-pairs of the reduced GB (`_frame_pairs`;
    the module docstring says why they suffice) to zero and keeps the
    certificates, then adds the interreduction relations
    e_i - (expression of gen i over the GB).  The result, as `_canon`
    term tuples, generates ker(e_i -> gens[i]) in the free module with
    one slot per generator.
    """
    gb = _tail_reduce(_module_groebner(gens, p, pk, ambient_rank, ambient_shifts), p, pk)
    index = _by_component(gb, pk)
    memo = {}
    syz = []
    for i, j in _frame_pairs(gb, pk):
        (ti, comp), (tj, _) = pk.unpack(gb[i].lead), pk.unpack(gb[j].lead)
        lcm = pk.pack(monomial_lcm(ti, tj), comp)
        s, cs = _s_pair(gb[i], gb[j], lcm, p, pk.guard, True)
        tail, cert = _reduce_full(s, cs, index, memo, p, pk)
        if tail:
            raise RuntimeError("S-pair of a Gröbner basis did not reduce to zero")
        if cert:
            syz.append(cert)
    for idx, vec in enumerate(gens):
        tail, cert = _reduce_full(vec, {idx: 1}, index, memo, p, pk)
        if tail:
            raise RuntimeError("generator did not reduce to zero against its own GB")
        if cert:
            syz.append(cert)
    return _canonical_syzygy_list(syz, gens, pk, ambient_shifts)


def _canonical_syzygy_list(syz, gens, pk, ambient_shifts):
    """Dedupe and sort syzygy certificates deterministically.

    Returns them as `_canon` term tuples, sorted by (shifted degree,
    terms), so ties compare decoded exponent tuples.
    """
    gen_degrees = [_vec_degree(_canon(v, pk), ambient_shifts) for v in gens]
    unique = {_canon(vec, pk) for vec in syz}
    return sorted(unique, key=lambda c: (_vec_degree(c, gen_degrees), c))


def _canon(vec, pk):
    """The terms of vec as ((exps, comp), coeff), descending."""
    unpack = pk.unpack
    return tuple((unpack(t), vec[t]) for t in sorted(vec))


def _vec_degree(canon, shifts):
    """Shifted degree of a homogeneous vector (max over terms in general)."""
    return max(sum(exps) + shifts[comp] for (exps, comp), _ in canon)


# ---------------------------------------------------------------------------
# conversions between Polynomial tuples and engine vectors
# ---------------------------------------------------------------------------


def _vec_from_polys(polys, pk):
    pack = pk.pack
    return {pack(exps, comp): c for comp, f in enumerate(polys) for exps, c in f.terms}


def _polys_from_vec(vec, pk, ring, rank):
    return _polys_from_canon(_canon(vec, pk), ring, rank)


def _polys_from_canon(canon, ring, rank):
    """One polynomial per slot; the empty slots share one zero."""
    buckets = {}
    for (exps, comp), c in canon:
        bucket = buckets.get(comp)
        if bucket is None:
            bucket = buckets[comp] = []
        bucket.append((exps, c))
    zero = ring.zero()
    return tuple(Polynomial(ring, buckets[k]) if k in buckets else zero for k in range(rank))


def vector_syzygies(ring, vectors, ambient_shifts):
    """Generators of the syzygy module of module elements.

    `vectors` is a sequence of tuples of homogeneous polynomials (one
    entry per ambient component); returns syzygy vectors as tuples of
    polynomials, one slot per input vector.
    """
    rank = len(ambient_shifts)
    pk = _Packing(ring.n, ring.order.kind, max(rank, len(vectors)))
    vecs = []
    for v in vectors:
        if len(v) != rank:
            raise StructureError("vector length does not match ambient rank")
        vec = _vec_from_polys(v, pk)
        if not vec:
            raise DegenerateInputError("zero vector among module generators")
        vecs.append(vec)
    if not vecs:
        return []
    certs = _syzygy_certs(vecs, ring.field.p, pk, rank, tuple(ambient_shifts))
    return [_polys_from_canon(c, ring, len(vectors)) for c in certs]


def vector_degree(polys, ambient_shifts):
    degs = {f.homogeneous_degree() + s for f, s in zip(polys, ambient_shifts) if not f.is_zero()}
    if len(degs) != 1:
        raise DegenerateInputError(f"vector is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


# ---------------------------------------------------------------------------
# public ideal layer
# ---------------------------------------------------------------------------


class Ideal:
    """Homogeneous ideal with its Gröbner basis cached packed.

    The cache is one list of monic `_Elem`s under the rank-1 packing
    `_pk`, largest lead first: Buchberger's minimal basis, tails as
    Buchberger left them.  Readers of lead terms alone (`lead_exponents`,
    `is_unit_ideal`, and through them `hilbert_series` and `krull_dim`)
    read it as it is.  The first reader that needs reduced elements
    (`groebner_basis`, `ideal_member`, `QuotientBasis` normal forms) pays
    for the tail pass, once: its result replaces the cached list, with
    the same leads.
    """

    __slots__ = (
        "ring",
        "generators",
        "_pk",
        "_basis",
        "_tails_reduced",
        "_hs_numerator",
        "_betti",
        "_resolution",
    )

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
        self._pk = _Packing(ring.n, ring.order.kind, 1)
        self._basis = None
        self._tails_reduced = False
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

    def _minimal(self, floor=None):
        """The cached basis; its leads are those of the reduced GB.

        `floor`, read only when the basis is not cached yet, is a Hilbert
        series bounding HS(S/I) below, coefficientwise; Buchberger then
        skips the S-pairs it shows reduce to zero, and stops once the
        leads' series is the floor (`_module_groebner`).  The floor's
        numerator is then the ideal's own, and is cached as such."""
        if self._basis is None:
            self._basis, met = _minimal_basis(self.generators, self.ring.field.p, self._pk, floor)
            if met:
                self._hs_numerator = floor.numerator
        return self._basis

    def _reduced(self):
        """The reduced GB, packed: the cached basis after the tail pass."""
        basis = self._minimal()
        if not self._tails_reduced:
            self._basis = basis = _tail_reduce(basis, self.ring.field.p, self._pk)
            self._tails_reduced = True
        return basis

    def groebner_basis(self):
        """The unique reduced Gröbner basis for the ring's order."""
        return _basis_polys(self._reduced(), self._pk, self.ring)

    def lead_exponents(self):
        """Exponent vectors of the lead terms of the reduced GB."""
        unpack = self._pk.unpack
        return tuple(unpack(g.lead)[0] for g in self._minimal())

    def is_unit_ideal(self):
        basis = self._minimal()
        return bool(basis) and basis[0].lead == 0  # 0 is the key of the monomial 1


def _divisor_index(ring, divisors, pk):
    """The component index (`_by_component`) of the divisors, divisor i
    as the monic element g_i / lc_i with cert {e_i: 1/lc_i}."""
    p = ring.field.p
    basis = []
    for gi, g in enumerate(divisors):
        inv = ring.field.inv(g.lead_coeff())
        vec = _vec_from_polys((g,), pk)
        if inv != 1:
            vec = _scale_vec(vec, inv, p)
        basis.append(_Elem(vec, {gi: inv}, min(vec)))  # key gi is 1 * e_gi
    return _by_component(basis, pk)


def divide(f: Polynomial, divisors):
    """Multivariate division of f by an ordered list of divisors.

    Returns (quotients, remainder) with f = sum(q_i g_i) + r and no term
    of r divisible by any lead term; always reduces by the first divisor
    in list order, so the output is deterministic.  This is the engine's
    normal form: divisor i enters as the monic g_i / lc_i with cert
    {e_i: 1/lc_i}, so the returned cert is minus the quotients.
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
    pk = _Packing(ring.n, ring.order.kind, len(divisors))
    index = _divisor_index(ring, divisors, pk)
    tail, cert = _reduce_full(_vec_from_polys((f,), pk), {}, index, {}, p, pk)
    quotients = {t: p - c for t, c in cert.items()}
    return (
        _polys_from_vec(quotients, pk, ring, len(divisors)),
        _polys_from_vec(tail, pk, ring, 1)[0],
    )


def _minimal_basis(generators, p, pk, floor=None):
    """(basis, met): Buchberger's minimal basis of the nonzero
    polynomials among `generators`, packed by the rank-1 `pk`, the one
    Buchberger run behind `Ideal` and `buchberger_basis`.  `floor`, if
    given, is a Hilbert series bounding the quotient's below
    (`_module_groebner`), in pk.n variables; `met` says whether the run
    ended on finding the leads' series equal to it."""
    vecs = [_vec_from_polys((f,), pk) for f in generators if not f.is_zero()]
    stairs = None if floor is None else _Staircase(floor, map(min, vecs), pk)
    basis = _module_groebner(vecs, p, pk, 1, (0,), track_certs=False, stairs=stairs)
    return basis, stairs is not None and stairs.met


def _basis_polys(basis, pk, ring):
    return tuple(_polys_from_vec(e.vec, pk, ring, 1)[0] for e in basis)


def buchberger_basis(ring: RingContext, generators):
    """Reduced Gröbner basis of a list of homogeneous polynomials."""
    pk = _Packing(ring.n, ring.order.kind, 1)
    p = ring.field.p
    basis, _ = _minimal_basis(generators, p, pk)
    return _basis_polys(_tail_reduce(basis, p, pk), pk, ring)


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    """Whether f reduces to zero modulo the ideal's reduced GB."""
    if f.is_zero():
        return True
    if f.ring != ideal.ring:
        raise StructureError("polynomial from a different ring")
    pk = ideal._pk
    index = _by_component(ideal._reduced(), pk)
    tail, _ = _reduce_full(_vec_from_polys((f,), pk), None, index, {}, ideal.ring.field.p, pk)
    return not tail


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise StructureError("ideals from different rings")
    return Ideal(a.ring, a.generators + b.generators)


def maximal_ideal_power(ring: RingContext, m: int) -> Ideal:
    """The ideal m^m = (x_1..x_n)^m, generated by all degree-m monomials.

    Raises `ExponentOverflowError` for m >= 2^15 before listing any: x_1^m
    is among the generators, and the engine cannot pack its exponent.
    """
    if m < 1:
        raise ParameterError(f"power m must be >= 1, got {m}")
    if m >= EXP_LIMIT:
        raise _overflow()
    gens = [ring.monomial(e) for e in monomials_of_degree(ring.n, m, ring.order.kind)]
    return Ideal(ring, gens)


def syzygies(ideal: Ideal):
    """Generating syzygies of the ideal's generator sequence as given, as
    `vector_syzygies` returns them: one polynomial per generator."""
    return vector_syzygies(ideal.ring, [(f,) for f in ideal.generators], (0,))
