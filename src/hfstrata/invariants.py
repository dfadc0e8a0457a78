"""Order-independent graded invariants.

Hilbert functions come from the standard pivot recursion on the lead
term ideal (`ring._hs_numerator`).  Graded Betti numbers come from
Koszul homology, beta_{i,j}(I) = dim H_{i+1}(K(x) ⊗ S/I)_j, with S/I
coordinatized by the standard monomials of the reduced Gröbner basis;
the degrees searched are capped by the Taylor resolution of the lead
term ideal.  The Koszul pass runs on an Artinian reduction of I
(`_artinian_reduction`): I is cut by x_n - l for a seeded-random linear
form l, one variable at a time, into a ring with one name fewer, and a
cut is kept only when the Hilbert-series numerator does not change,
which holds exactly when x_n - l is a nonzerodivisor on S/I; then the
Betti numbers do not change either (Bayer-Stillman).  An Artinian S/I,
Gamma's among them, is not cut at all.
In those coordinates, multiplication by a form is
`QuotientBasis.multiplication_matrix`: the Koszul differentials are
built from the variables' matrices, and `deform`'s pairing matrices
from those of syzygy entries.
Resolutions iterate Schreyer syzygies and select minimal generators
(Nakayama, by sparse echelon insertion over F_p) only in the degrees
where the Betti table has an entry, so the maps never contain unit
entries; a unit entry raises.  Every level after the first takes the
Schreyer syzygies of the columns of the level before, the generator
row's included.  Levels are built only as far as a caller asks.
"""

import random
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import DegenerateInputError, ParameterError
from .groebner import (
    EXP_LIMIT,
    Ideal,
    _by_component,
    _overflow,
    _Packing,
    _reduce_full,
    _vec_from_polys,
    vector_degree,
    vector_syzygies,
)
from .ring import (
    GradedFreeModule,
    GradedMap,
    RingContext,
    _hs_numerator,
    _trim,
    monomial_mul,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# Hilbert series of the lead-term ideal
# ---------------------------------------------------------------------------


class HilbertSeries:
    """HS(S/I) as numerator / (1-t)^n with an exact integer numerator."""

    __slots__ = ("numerator", "n")

    def __init__(self, numerator, n):
        self.numerator = tuple(_trim(list(numerator)))
        self.n = n

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.n == other.n
        )

    def __repr__(self):
        return f"HilbertSeries({list(self.numerator)}, n={self.n})"

    def coefficient(self, d):
        """dim (S/I)_d, by expanding the series."""
        if d < 0:
            return 0
        total = 0
        for k, c in enumerate(self.numerator):
            if k > d:
                break
            if c:
                total += c * comb(self.n - 1 + d - k, self.n - 1)
        return total

    def one_minus_t_multiplicity(self):
        """Largest e with (1-t)^e dividing the numerator."""
        coeffs = list(self.numerator)
        e = 0
        while any(coeffs) and sum(coeffs) == 0:
            # divide by (1-t): quotient coefficients are prefix sums
            acc = 0
            quotient = []
            for c in coeffs[:-1]:
                acc += c
                quotient.append(acc)
            coeffs = _trim(quotient if quotient else [0])
            e += 1
        return e, coeffs


def hilbert_series(ideal: Ideal) -> HilbertSeries:
    """Exact Hilbert series of S/I (cached on the ideal)."""
    if ideal._hs_numerator is None:
        ideal._hs_numerator = tuple(_hs_numerator(ideal.lead_exponents(), ideal.ring.n))
    return HilbertSeries(ideal._hs_numerator, ideal.ring.n)


def hilbert_function(ideal: Ideal, d: int) -> int:
    """h_d = dim (S/I)_d (quotient convention, used everywhere)."""
    if d < 0:
        raise ParameterError(f"degree must be >= 0, got {d}")
    return hilbert_series(ideal).coefficient(d)


def krull_dim(ideal: Ideal) -> int:
    """Krull dimension of S/I; 0 for Artinian quotients, error on (1)."""
    if ideal.generators and ideal.is_unit_ideal():
        raise DegenerateInputError("Krull dimension of the zero ring is undefined")
    hs = hilbert_series(ideal)
    e, _ = hs.one_minus_t_multiplicity()
    return ideal.ring.n - e


class QuotientBasis:
    """Standard-monomial coordinates of the graded pieces of S/I."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.ring = ideal.ring
        self._lead = ideal.lead_exponents()
        self._lead_set = frozenset(self._lead)
        self._pk = ideal._pk
        self._cache = {}
        self._divisors = None  # the reduced GB by component, with its reducer memo
        self._memo = {}

    def monomials(self, d):
        """Degree-d monomials outside the lead term ideal, descending.

        The standard monomials form an order ideal, and the lead terms
        of the reduced GB are the minimal generators of the lead term
        ideal.  So a degree-d monomial c = x_t u, u standard, is
        standard iff every c / x_s is standard and c is no lead term:
        degree d is built from degree d - 1, in time that grows with
        the standard monomials, not with S_d.
        """
        if d < 0:
            return ()
        if d >= EXP_LIMIT and any(all(sum(e) > e[t] for e in self._lead) for t in range(self.ring.n)):
            # S/in(I) is not Artinian: a variable with no pure power among
            # the lead terms has its d-th power standard, past the packing
            raise _overflow()
        cache = self._cache  # degrees 0, 1, ..., len(cache) - 1
        if not cache:
            zero = (0,) * self.ring.n
            self._store(() if zero in self._lead_set else (zero,))
        for e in range(len(cache), d + 1):
            self._store(_standard_successors(cache[e - 1][0], self._lead_set, self.ring.order))
        return cache[d][0]

    def _store(self, monos):
        pack = self._pk.pack
        self._cache[len(self._cache)] = (monos, {pack(m): i for i, m in enumerate(monos)})

    def dim(self, d):
        return len(self.monomials(d))

    def multiplication_matrix(self, f, d):
        """Matrix of multiplication by f from (S/I)_d to (S/I)_{d + deg f}.

        Column k is the normal form of f times the k-th standard monomial
        of degree d, written sparsely.  A product whose terms are all
        standard is its own normal form; any other is reduced, with no
        certificate, by the ideal's packed reduced GB, which the first
        such product asks of the ideal.  The reducer memo of that basis
        lives as long as this QuotientBasis, so every product reads the
        reducers found for its terms by earlier ones.
        """
        e = d + f.homogeneous_degree()
        self.monomials(e)  # caches every degree up to e
        pk, index = self._pk, self._cache[e][1]
        terms = [(pk.pack(t), c) for t, c in f.terms]
        mat = np.zeros((len(index), self.dim(d)), dtype=np.int64)
        for col, key in enumerate(self._cache[d][1]):  # packed keys in basis order
            prod = {pk.mul(key, t): c for t, c in terms}
            if not prod.keys() <= index.keys():
                if self._divisors is None:
                    self._divisors = _by_component(self.ideal._reduced(), pk)
                prod, _ = _reduce_full(
                    prod, None, self._divisors, self._memo, self.ring.field.p, pk
                )
            for t, c in prod.items():
                mat[index[t], col] = c
        return mat


def _standard_successors(monos, leads, order):
    """The standard monomials of degree d + 1 from those of degree d, descending."""
    prev = set(monos)
    out = set()
    for u in monos:
        for t in range(len(u)):
            c = u[:t] + (u[t] + 1,) + u[t + 1 :]
            if c in out or c in leads:
                continue
            if all(
                c[:s] + (c[s] - 1,) + c[s + 1 :] in prev
                for s in range(len(c))
                if c[s] and s != t
            ):
                out.add(c)
    return tuple(sorted(out, key=order.key, reverse=True))


# ---------------------------------------------------------------------------
# Betti tables and resolutions
# ---------------------------------------------------------------------------


class BettiTable:
    """Graded Betti numbers; homological index 0 is the generator module F_1."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {k: int(v) for k, v in entries.items() if v}

    @classmethod
    def from_shifts(cls, shift_lists):
        entries = {}
        for i, shifts in enumerate(shift_lists):
            for j in shifts:
                entries[(i, j)] = entries.get((i, j), 0) + 1
        return cls(entries)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def items(self):
        return sorted(self.entries.items())

    def max_index(self):
        return max((i for i, _ in self.entries), default=-1)

    def regularity(self):
        return max((j - i for (i, j) in self.entries), default=0)

    def to_json(self):
        return [{"i": i, "j": j, "beta": b} for (i, j), b in self.items()]

    def render(self):
        """Macaulay-style layout: rows are j - i, columns are i."""
        if not self.entries:
            return "(empty Betti table)"
        imax = self.max_index()
        rows = sorted({j - i for (i, j) in self.entries})
        totals = [sum(b for (i, _), b in self.entries.items() if i == c) for c in range(imax + 1)]
        width = max(len(str(b)) for b in list(self.entries.values()) + totals)
        width = max(width, len(str(imax)))
        head = "      " + " ".join(f"{c:>{width}}" for c in range(imax + 1))
        total = "total:" + " ".join(f"{t:>{width}}" for t in totals)
        lines = [head, total]
        for r in rows:
            cells = []
            for c in range(imax + 1):
                b = self.entries.get((c, r + c), 0)
                cells.append(f"{b if b else '.':>{width}}")
            lines.append(f"{r:>5}: " + " ".join(cells))
        return "\n".join(lines)


def _taylor_degree_caps(lead):
    """{k: (lo, hi)}: degrees j where beta_{k,j}(S/I) can be nonzero.

    Betti numbers only grow under Gröbner degeneration, and the Taylor
    resolution of in(I) has one generator of degree deg lcm(A) for each
    k-subset A of the lead terms.  So k runs up to the number of lead
    terms (and n), and j lies between dmin + k - 1 and the smaller of
    the sum of the k largest lead degrees and deg lcm(all lead terms).
    """
    degs = sorted((sum(e) for e in lead), reverse=True)
    lcm_deg = sum(max(col) for col in zip(*lead))
    return {
        k: (degs[-1] + k - 1, min(sum(degs[:k]), lcm_deg))
        for k in range(1, min(len(lead[0]), len(lead)) + 1)
    }


def _koszul_betti(ideal: Ideal):
    """Betti table of I as Koszul homology of S/I, with no resolution.

    beta_{i,j}(I) = beta_{i+1,j}(S/I) = dim H_{i+1}(K(x) ⊗ S/I)_j, and
    (K_k ⊗ S/I)_j is one copy of (S/I)_{j-k} per k-subset of variables,
    so dim H_k = C(n,k) h_{j-k} - rank d_k - rank d_{k+1} in degree j.
    `betti_table` hands it the Artinian reduction of I
    (`_artinian_reduction`), whose table is I's, in fewer variables.
    """
    ring = ideal.ring
    n, p = ring.n, ring.field.p
    qb = QuotientBasis(ideal)
    times = {}
    ranks = {}

    def times_variable(t, d):
        if (t, d) not in times:
            times[t, d] = qb.multiplication_matrix(ring.variable(t), d)
        return times[t, d]

    def rank(k, j):
        """Rank of d_k: (K_k ⊗ S/I)_j -> (K_{k-1} ⊗ S/I)_j."""
        d = j - k
        if k > n or d < 0 or qb.dim(d) == 0 or qb.dim(d + 1) == 0:
            return 0
        if (k, j) not in ranks:
            src, tgt = qb.dim(d), qb.dim(d + 1)
            faces = {tau: r for r, tau in enumerate(combinations(range(n), k - 1))}
            mat = np.zeros((len(faces) * tgt, comb(n, k) * src), dtype=np.int64)
            for c, sigma in enumerate(combinations(range(n), k)):
                for a, t in enumerate(sigma):
                    r = faces[sigma[:a] + sigma[a + 1 :]]
                    block = times_variable(t, d)
                    mat[r * tgt : (r + 1) * tgt, c * src : (c + 1) * src] = (
                        block if a % 2 == 0 else (p - block) % p
                    )
            ranks[k, j] = linalg.rank(mat, p)
        return ranks[k, j]

    entries = {}
    for k, (lo, hi) in _taylor_degree_caps(qb._lead).items():
        for j in range(lo, hi + 1):
            beta = comb(n, k) * qb.dim(j - k) - rank(k, j) - rank(k + 1, j)
            if beta:
                entries[(k - 1, j)] = beta
    return entries


REDUCTION_TRIES = 8  # random linear forms tried per step of `_artinian_reduction`


def _cut_last_variable(ideal: Ideal, coeffs) -> Ideal:
    """The image of I modulo x_n - l, l = sum_i coeffs[i] x_i, in the
    ring of the first n - 1 variables: each generator with l in place of
    x_n, the ones that vanish dropped.  Same field, same order."""
    ring = ideal.ring
    small = RingContext(ring.names[:-1], ring.field, ring.order)
    p = ring.field.p
    form = small.from_terms((small.variable(s).lead_exps(), c) for s, c in enumerate(coeffs))
    powers = [small.one()]  # powers[k] = l^k
    gens = []
    for f in ideal.generators:
        acc = {}
        for exps, c in f.terms:
            while len(powers) <= exps[-1]:
                powers.append(powers[-1] * form)
            for e, v in powers[exps[-1]].terms:
                key = monomial_mul(exps[:-1], e)
                acc[key] = (acc.get(key, 0) + c * v) % p
        g = small._from_dict(acc)
        if not g.is_zero():
            gens.append(g)
    return Ideal(small, gens)


def _artinian_reduction(ideal: Ideal) -> Ideal:
    """I cut by linear nonzerodivisors, one variable at a time, while
    each cut is certified: an ideal in fewer variables with the graded
    Betti numbers of I (Bayer-Stillman, Invent. Math. 87, 1987).

    A step draws a linear form l in x_1..x_{n-1} (seeded, so every run
    draws the same ones) and takes J, the image of I modulo x_n - l.
    Always HS(S'/J) = (1 - t) HS(S/I) + t HS(0 :_{S/I} (x_n - l)), so the
    step is kept iff J's Hilbert-series numerator is I's, that is iff
    x_n - l is a nonzerodivisor on S/I; a minimal free resolution of S/I
    then stays minimal and exact modulo it.  (1 - t) HS(S/I) is thus a
    floor for J's Buchberger run, which ends as soon as its leads meet
    it.  The steps stop when S/I is Artinian or a step finds no
    nonzerodivisor in REDUCTION_TRIES draws: the depth of S/I bounds
    the steps, so a non-Cohen-Macaulay quotient stops early, and over a
    small field a nonzerodivisor of degree 1 may not exist at all.
    """
    rng = random.Random(1)
    p = ideal.ring.field.p
    hs = hilbert_series(ideal)
    for _ in range(krull_dim(ideal)):
        floor = HilbertSeries(hs.numerator, hs.n - 1)
        for _ in range(REDUCTION_TRIES):
            cut = _cut_last_variable(ideal, [rng.randrange(p) for _ in range(floor.n)])
            cut._minimal(floor)
            if hilbert_series(cut) == floor:
                break
        else:
            break
        ideal, hs = cut, floor
    return ideal


def betti_table(ideal: Ideal) -> BettiTable:
    """Graded Betti numbers of the ideal (cached on the ideal).

    The unit ideal has the single entry (0, 0) and the zero ideal none.
    Any other ideal is first cut down by linear nonzerodivisors
    (`_artinian_reduction`), each cut certified by its Hilbert series,
    and the Koszul homology is taken in the ring that is left.
    The alternating sum of the table must reproduce the Hilbert series
    numerator of the pivot recursion on I itself, an independent check.
    """
    if ideal._betti is None:
        if ideal.is_zero_ideal():
            entries = {}
        elif ideal.is_unit_ideal():
            entries = {(0, 0): 1}
        else:
            entries = _koszul_betti(_artinian_reduction(ideal))
        numerator = {0: 1}
        for (i, j), b in entries.items():
            numerator[j] = numerator.get(j, 0) + (-1) ** (i + 1) * b
        hs = hilbert_series(ideal)
        if HilbertSeries(
            [numerator.get(d, 0) for d in range(max(numerator) + 1)], ideal.ring.n
        ) != hs:
            raise RuntimeError("Betti table disagrees with the Hilbert series")
        ideal._betti = entries
    return BettiTable(ideal._betti)


class Resolution:
    """Minimal graded free resolution ... -> F_2 -> F_1 -> I -> 0.

    `modules[k]` is F_{k+1}; `maps[k]` is the map F_{k+2} -> F_{k+1};
    the augmentation row holds the chosen minimal generators of I.
    """

    __slots__ = ("ring", "generator_row", "modules", "maps")

    def __init__(self, ring, generator_row, modules, maps):
        self.ring = ring
        self.generator_row = tuple(generator_row)
        self.modules = list(modules)
        self.maps = list(maps)

    def betti_table(self) -> BettiTable:
        return BettiTable.from_shifts([m.shifts for m in self.modules])

    def augmentation(self) -> GradedMap:
        """The generator row as a graded map F_1 -> S."""
        target = GradedFreeModule((0,))
        return GradedMap(self.ring, self.modules[0], target, [list(self.generator_row)])

    def length(self):
        return len(self.modules)

    def has_constant_entry(self):
        for gmap in self.maps:
            for row in gmap.entries:
                for f in row:
                    if not f.is_zero() and sum(f.lead_exps()) == 0:
                        return True
        return False

    def composition_violations(self):
        """Indices k where maps[k] ∘ maps[k+1] is not exactly zero."""
        bad = []
        for k in range(len(self.maps) - 1):
            if not self.maps[k].compose(self.maps[k + 1]).is_zero():
                bad.append(k)
        if self.maps and not self.augmentation().compose(self.maps[0]).is_zero():
            bad.append(-1)
        return bad

    def __str__(self):
        chain = ["0"] + [str(m) for m in reversed(self.modules)] + ["I", "0"]
        return " -> ".join(chain)


def minimal_generator_subset(ring, vectors, ambient_shifts, counts=None):
    """Nakayama selection: subsequence minimally generating the module.

    Processes degrees in ascending order; in each degree keeps the
    vectors independent modulo multiples of everything already chosen.
    Rows are sparse, keyed by packed term: the multiple x^a v of a chosen
    vector is its packed terms shifted by pack(a), and the rows go one at
    a time into `linalg.echelon_insert`, the multiples first, so a
    candidate is kept when it is outside the span of the rows before it.
    `counts` ({degree: number of minimal generators}, one level of the
    Betti table) skips the degrees that keep nothing, and a visited
    degree keeping another number raises RuntimeError.
    """
    p = ring.field.p
    pk = _Packing(ring.n, ring.order.kind, len(ambient_shifts))
    degrees = [vector_degree(v, ambient_shifts) for v in vectors]
    chosen = []
    chosen_degs = []
    packed = []  # the chosen vectors' packed terms
    for e in sorted(set(degrees)):
        if counts is not None and not counts.get(e):
            continue
        if e - min(ambient_shifts) >= EXP_LIMIT:  # a multiple's exponent could overflow its field
            raise _overflow()
        echelon = {}
        for vec, dg in zip(packed, chosen_degs):
            for mexps in monomials_of_degree(ring.n, e - dg, ring.order.kind):
                mono = pk.pack(mexps)
                linalg.echelon_insert(echelon, {t + mono: c for t, c in vec.items()}, p)
        kept = []
        for k, d in enumerate(degrees):
            if d == e:
                vec = _vec_from_polys(vectors[k], pk)
                if linalg.echelon_insert(echelon, dict(vec), p):
                    kept.append(k)
                    packed.append(vec)
        if counts is not None and len(kept) != counts[e]:
            raise RuntimeError(
                f"degree {e} keeps {len(kept)} generators, the Betti table says {counts[e]}"
            )
        chosen.extend(vectors[k] for k in kept)
        chosen_degs.extend([e] * len(kept))
    if counts is not None and len(chosen) != sum(counts.values()):
        raise RuntimeError("a degree of the Betti table has no candidate generators")
    return chosen, chosen_degs


def _extend_resolution(ideal: Ideal, res, max_step: int) -> Resolution:
    """`res` (None before the first level) extended through `max_step`
    levels, or to its end: each level takes the Schreyer syzygies of the
    one before and keeps minimal generators along the Betti table."""
    ring = ideal.ring
    betti = betti_table(ideal)
    res = res or Resolution(ring, (), [], [])
    row, modules, maps = res.generator_row, list(res.modules), list(res.maps)
    while len(modules) < min(max_step, betti.max_index() + 1):
        k = len(modules)
        if k == 0:
            vectors, shifts = [(f,) for f in ideal.generators], (0,)
        else:  # the syzygies of the last level's columns, the augmentation's at k = 1
            last = maps[-1] if maps else Resolution(ring, row, modules, maps).augmentation()
            columns = [last.column(j) for j in range(last.source.rank)]
            vectors, shifts = vector_syzygies(ring, columns, last.target.shifts), last.source.shifts
        counts = {j: b for (i, j), b in betti.items() if i == k}
        chosen, degs = minimal_generator_subset(ring, vectors, shifts, counts)
        modules.append(GradedFreeModule(degs))
        if k == 0:
            row = tuple(v[0] for v in chosen)
        else:
            entries = [[v[i] for v in chosen] for i in range(len(shifts))]
            maps.append(GradedMap(ring, modules[k], modules[k - 1], entries))
    res = Resolution(ring, row, modules, maps)
    if res.has_constant_entry():
        raise RuntimeError("minimal resolution has a unit entry")
    return res


def minimal_free_resolution(ideal: Ideal, max_step: int) -> Resolution:
    """Minimal free resolution of the ideal through `max_step` levels.

    Levels are built only as far as asked and cached on the ideal; a
    later call asking for more extends the cached ones.  A `max_step`
    past the projective dimension returns the whole resolution.
    """
    if max_step < 1:
        raise ParameterError(f"max_step must be >= 1, got {max_step}")
    res = ideal._resolution
    if res is None or res.length() < min(max_step, betti_table(ideal).max_index() + 1):
        res = ideal._resolution = _extend_resolution(ideal, res, max_step)
    if res.length() <= max_step:
        return res
    return Resolution(res.ring, res.generator_row, res.modules[:max_step], res.maps[: max_step - 1])


def regularity(ideal: Ideal) -> int:
    """Castelnuovo-Mumford regularity of the ideal.

    reg((0)) = 0 by convention (so truncating the zero ideal is legal);
    the unit ideal is rejected.
    """
    if ideal.is_zero_ideal():
        return 0
    if ideal.is_unit_ideal():
        raise DegenerateInputError("regularity of the unit ideal is undefined")
    return betti_table(ideal).regularity()
