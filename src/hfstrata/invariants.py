"""Order-independent graded invariants.

Hilbert functions come from the standard pivot recursion on the lead
term ideal.  Graded Betti numbers come from Koszul homology,
beta_{i,j}(I) = dim H_{i+1}(K(x) ⊗ S/I)_j, with S/I coordinatized by
the standard monomials of the reduced Gröbner basis; the degrees
searched are capped by the Taylor resolution of the lead term ideal.
Resolutions iterate Schreyer syzygies and select minimal generators
(Nakayama via dense rank over F_p) only in the degrees where the Betti
table has an entry, so the maps never contain unit entries.  A pivot
sweep is kept as a final normalization pass and safety net.
"""

from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import DegenerateInputError, ParameterError
from .groebner import Ideal, divide, vector_degree, vector_syzygies
from .ring import (
    GradedFreeModule,
    GradedMap,
    module_piece_basis,
    monomial_divides,
    monomials_of_degree,
    poly_coords,
)

# ---------------------------------------------------------------------------
# Hilbert series of the lead-term ideal
# ---------------------------------------------------------------------------


def _poly_mul_t(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _minimalize_monomials(gens):
    """Drop generators divisible by another generator."""
    gens = sorted(set(gens), key=sum)
    out = []
    for m in gens:
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


def _hs_numerator(gens, n):
    """Numerator of HS(S/I) over (1-t)^n for a monomial ideal I."""
    gens = _minimalize_monomials(gens)
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

    def expand(self, bound):
        return [self.coefficient(d) for d in range(bound + 1)]

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
    with ideal._lock:
        if ideal._hs_numerator is None:
            lead = [tuple(e) for e in ideal.lead_exponents()] if ideal.generators else []
            ideal._hs_numerator = tuple(_hs_numerator(lead, ideal.ring.n))
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
        self._gb = ideal.groebner_basis()
        self._lead = [g.lead_exps() for g in self._gb]
        self._cache = {}

    def monomials(self, d):
        """Degree-d monomials outside the lead term ideal, descending."""
        if d not in self._cache:
            monos = tuple(
                m
                for m in monomials_of_degree(self.ring.n, d, self.ring.order.kind)
                if not any(monomial_divides(le, m) for le in self._lead)
            )
            self._cache[d] = (monos, {m: i for i, m in enumerate(monos)})
        return self._cache[d][0]

    def dim(self, d):
        return len(self.monomials(d))

    def coords(self, f, d):
        """Coordinates of the class of f in (S/I)_d."""
        monos = self.monomials(d)
        index = self._cache[d][1]
        row = [0] * len(monos)
        if f.is_zero():
            return row
        if self._gb:
            _, f = divide(f, self._gb)
        p = self.ring.field.p
        for exps, c in f.terms:
            row[index[exps]] = (row[index[exps]] + c) % p
        return row

    def variable_matrix(self, t, d):
        """Matrix of multiplication by x_t from (S/I)_d to (S/I)_{d+1}."""
        mat = np.zeros((self.dim(d + 1), self.dim(d)), dtype=np.int64)
        index = self._cache[d + 1][1]
        for col, m in enumerate(self.monomials(d)):
            e = m[:t] + (m[t] + 1,) + m[t + 1 :]
            if e in index:
                mat[index[e], col] = 1
            else:
                mat[:, col] = self.coords(self.ring.monomial(e), d + 1)
        return mat


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
    """
    ring = ideal.ring
    n, p = ring.n, ring.field.p
    qb = QuotientBasis(ideal)
    times = {}
    ranks = {}

    def variable_matrix(t, d):
        if (t, d) not in times:
            times[t, d] = qb.variable_matrix(t, d)
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
                    block = variable_matrix(t, d)
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


def betti_table(ideal: Ideal) -> BettiTable:
    """Graded Betti numbers of the ideal (cached on the ideal).

    The unit ideal has the single entry (0, 0) and the zero ideal none.
    The alternating sum of the table must reproduce the Hilbert series
    numerator of the pivot recursion, an independent check.
    """
    with ideal._lock:
        if ideal._betti is None:
            if ideal.is_zero_ideal():
                entries = {}
            elif ideal.is_unit_ideal():
                entries = {(0, 0): 1}
            else:
                entries = _koszul_betti(ideal)
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

    __slots__ = ("ring", "generator_row", "modules", "maps", "minimal")

    def __init__(self, ring, generator_row, modules, maps, minimal):
        self.ring = ring
        self.generator_row = tuple(generator_row)
        self.modules = list(modules)
        self.maps = list(maps)
        self.minimal = minimal

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


def _vector_coord_row(ring, vec, index, ncols, mult_exps=None):
    row = [0] * ncols
    p = ring.field.p
    for comp, f in enumerate(vec):
        if not f.is_zero():
            poly_coords(f, index, row, p, component=comp, mult_exps=mult_exps)
    return row


def minimal_generator_subset(ring, vectors, ambient_shifts, counts=None):
    """Nakayama selection: subsequence minimally generating the module.

    Processes degrees in ascending order; in each degree keeps the
    vectors independent modulo multiples of everything already chosen.
    `counts` ({degree: number of minimal generators}, one level of the
    Betti table) skips the degrees that keep nothing, and a visited
    degree keeping another number raises RuntimeError.
    """
    p = ring.field.p
    degrees = [vector_degree(v, ambient_shifts) for v in vectors]
    chosen = []
    chosen_degs = []
    for e in sorted(set(degrees)):
        if counts is not None and not counts.get(e):
            continue
        basis = module_piece_basis(ring, ambient_shifts, e)
        index = {key: col for col, key in enumerate(basis)}
        ncols = len(basis)
        rows = []
        for g, dg in zip(chosen, chosen_degs):
            for mexps in monomials_of_degree(ring.n, e - dg, ring.order.kind):
                rows.append(_vector_coord_row(ring, g, index, ncols, mexps))
        nbase = len(rows)
        cands = [k for k, d in enumerate(degrees) if d == e]
        for k in cands:
            rows.append(_vector_coord_row(ring, vectors[k], index, ncols))
        keep = set(linalg.greedy_independent_rows(linalg.as_matrix(rows, ncols), p))
        kept = [k for pos, k in enumerate(cands) if nbase + pos in keep]
        if counts is not None and len(kept) != counts[e]:
            raise RuntimeError(
                f"degree {e} keeps {len(kept)} generators, the Betti table says {counts[e]}"
            )
        chosen.extend(vectors[k] for k in kept)
        chosen_degs.extend([e] * len(kept))
    if counts is not None and len(chosen) != sum(counts.values()):
        raise RuntimeError("a degree of the Betti table has no candidate generators")
    return chosen, chosen_degs


def _build_levels(ring, vectors, ambient_shifts, betti):
    """Iterate [minimal generators -> Schreyer syzygies] along the Betti table."""
    levels = []
    current, shifts = list(vectors), tuple(ambient_shifts)
    top = betti.max_index()
    for k in range(top + 1):
        counts = {j: b for (i, j), b in betti.items() if i == k}
        chosen, degs = minimal_generator_subset(ring, current, shifts, counts)
        levels.append((chosen, tuple(degs), shifts))
        if k < top:
            current = vector_syzygies(ring, chosen, shifts)
            shifts = tuple(degs)
    return levels


def _maps_from_levels(ring, levels):
    modules = [GradedFreeModule(degs) for _, degs, _ in levels]
    maps = []
    for k in range(1, len(levels)):
        chosen, _, _ = levels[k]
        entries = [
            [chosen[j][i] for j in range(len(chosen))] for i in range(modules[k - 1].rank)
        ]
        maps.append(GradedMap(ring, modules[k], modules[k - 1], entries))
    return modules, maps


def _pivot_minimize(ring, generator_row, modules, maps):
    """Cancel unit entries by pivoting (lexicographically first position).

    With per-level minimal generators this is a no-op; it remains as the
    normalization/safety pass and services hand-built resolutions.
    """
    generator_row = list(generator_row)
    shift_lists = [list(m.shifts) for m in modules]
    mats = [[list(row) for row in g.entries] for g in maps]
    p = ring.field.p

    def find_unit():
        for k, mat in enumerate(mats):
            for i, row in enumerate(mat):
                for j, f in enumerate(row):
                    if not f.is_zero() and sum(f.lead_exps()) == 0:
                        return k, i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, i, j = hit
        mat = mats[k]
        u = mat[i][j].lead_coeff()
        uinv = pow(u, p - 2, p)
        nrows, ncols = len(mat), len(mat[0])
        for a in range(nrows):
            if a == i:
                continue
            if mat[a][j].is_zero():
                continue
            for b in range(ncols):
                if b == j:
                    continue
                corr = mat[a][j] * mat[i][b]
                mat[a][b] = mat[a][b] - corr.scale(uinv)
        mats[k] = [
            [mat[a][b] for b in range(ncols) if b != j] for a in range(nrows) if a != i
        ]
        if k + 1 < len(mats):
            mats[k + 1] = [row for r, row in enumerate(mats[k + 1]) if r != j]
        if k == 0:
            del generator_row[i]
        else:
            mats[k - 1] = [[e for c, e in enumerate(row) if c != i] for row in mats[k - 1]]
        del shift_lists[k][i]
        del shift_lists[k + 1][j]
        # drop modules that became zero at the tail
        while shift_lists and not shift_lists[-1]:
            shift_lists.pop()
            mats.pop()

    modules = [GradedFreeModule(s) for s in shift_lists]
    gmaps = [
        GradedMap(ring, modules[k + 1], modules[k], mats[k]) for k in range(len(mats))
    ]
    return generator_row, modules, gmaps


def _compute_resolution(ideal: Ideal) -> Resolution:
    ring = ideal.ring
    if ideal.is_zero_ideal():
        return Resolution(ring, (), [], [], True)
    vectors = [(f,) for f in ideal.generators]
    levels = _build_levels(ring, vectors, (0,), betti_table(ideal))
    generator_row = tuple(v[0] for v in levels[0][0])
    modules, maps = _maps_from_levels(ring, levels)
    generator_row, modules, maps = _pivot_minimize(ring, generator_row, modules, maps)
    res = Resolution(ring, generator_row, modules, maps, True)
    if res.has_constant_entry():
        raise RuntimeError("resolution still has a unit entry after minimization")
    return res


def minimal_free_resolution(ideal: Ideal, max_step: int) -> Resolution:
    """Minimal free resolution of the ideal through `max_step` syzygy steps.

    The full finite resolution is computed once and cached; a larger
    `max_step` than the projective dimension simply returns all of it.
    """
    if max_step < 1:
        raise ParameterError(f"max_step must be >= 1, got {max_step}")
    with ideal._lock:
        if ideal._resolution is None:
            ideal._resolution = _compute_resolution(ideal)
        res = ideal._resolution
    if res.length() <= max_step:
        return res
    return Resolution(
        res.ring,
        res.generator_row,
        res.modules[:max_step],
        res.maps[: max_step - 1],
        res.minimal,
    )


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


def regularity_quotient(ideal: Ideal) -> int:
    """reg(S/I) from the quotient's Betti table (F_0 = S at index 0)."""
    if ideal.is_zero_ideal():
        return 0
    if ideal.is_unit_ideal():
        raise DegenerateInputError("regularity of the zero module is undefined")
    entries = {(0, 0): 1}
    for (i, j), b in betti_table(ideal).items():
        entries[(i + 1, j)] = b
    return max(j - i for (i, j) in entries)


# ---------------------------------------------------------------------------
# graded-piece matrices and exactness checks
# ---------------------------------------------------------------------------


def graded_piece_matrix(ring, gmap: GradedMap, d: int):
    """Dense matrix of the degree-d piece of a graded map over F_p."""
    src = module_piece_basis(ring, gmap.source.shifts, d)
    tgt = module_piece_basis(ring, gmap.target.shifts, d)
    index = {key: col for col, key in enumerate(tgt)}
    mat = linalg.zeros_matrix(len(src), len(tgt))
    p = ring.field.p
    for r, (j, mexps) in enumerate(src):
        row = [0] * len(tgt)
        for i in range(gmap.target.rank):
            f = gmap.entries[i][j]
            if not f.is_zero():
                poly_coords(f, index, row, p, component=i, mult_exps=mexps)
        mat[r] = row
    return mat.T  # rows = target coordinates, columns = source coordinates


def exactness_violations(ideal: Ideal, res: Resolution, degree_bound: int):
    """Degrees where rank(im) != dim(ker) for consecutive maps.

    Checks every stage including the augmentation F_1 -> I and the tail
    (where the kernel of the last map must vanish).
    """
    ring = ideal.ring
    p = ring.field.p
    out = []
    if not res.modules:
        return out
    stages = [res.augmentation()] + list(res.maps)
    for k in range(len(stages)):
        outer = stages[k]
        for d in range(degree_bound + 1):
            m_out = graded_piece_matrix(ring, outer, d)
            ker = m_out.shape[1] - linalg.rank(m_out, p)
            if k + 1 < len(stages):
                m_in = graded_piece_matrix(ring, stages[k + 1], d)
                im = linalg.rank(m_in, p)
            else:
                im = 0
            if ker != im:
                out.append((k, d, ker, im))
    return out
