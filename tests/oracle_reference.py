"""The brute-force oracle as it was before its coordinate builders.

Every row is filled one term at a time through a monomial -> column dict
(`row_of`), kernels become polynomials entry by entry, and quotient
projection subtracts one pivot row at a time.  Slow, but it shares only
the `linalg` primitives with `hfstrata.oracle`, which
`test_oracle_reference.py` checks against it (and `linalg.nullspace`
against its former loop).  Its echelon forms of I_d come from the
pure-Python Gauss-Jordan `reference_rref`, not from the kernel under
test.
"""

import numpy as np

from hfstrata import linalg
from hfstrata.invariants import BettiTable
from hfstrata.ring import monomials_of_degree

from test_linalg import reference_rref


def _basis(ring, d):
    monos = monomials_of_degree(ring.n, d, ring.order.kind)
    return monos, {m: i for i, m in enumerate(monos)}


def _row(index, f, p, mult=()):
    row = [0] * len(index)
    for exps, c in f.terms:
        exps = tuple(a + b for a, b in zip(exps, mult)) if mult else exps
        row[index[exps]] = (row[index[exps]] + c) % p
    return row


def _unknowns(ring, shifts, e):
    return [(j, m) for j, s in enumerate(shifts) if e >= s
            for m in monomials_of_degree(ring.n, e - s, ring.order.kind)]


def _quotient(ideal, d):
    """(monomials, index, rref, pivots, free columns) of I_d in the S_d basis."""
    ring, p, gens = ideal.ring, ideal.ring.field.p, ideal.generators
    monos, index = _basis(ring, d)
    rows = [_row(index, gens[j], p, m) for j, m in _unknowns(ring, _degs(ideal), d)]
    r, _, piv = reference_rref(rows, p)
    return monos, index, np.array(r, dtype=np.int64), piv, [c for c in range(len(monos)) if c not in set(piv)]


def _degs(ideal):
    return [f.homogeneous_degree() for f in ideal.generators]


def hf(ideal, d):
    return len(_quotient(ideal, d)[4])


def _kernel(ring, vectors, shifts, level_shifts, e):
    """Unknowns of degree e and the kernel columns of their product matrix."""
    p = ring.field.p
    unknowns = _unknowns(ring, shifts, e)
    blocks = [_basis(ring, e - s)[1] if e >= s else None for s in level_shifts]
    rows = []
    for j, m in unknowns:
        row = []
        for comp, index in enumerate(blocks):
            if index is not None:
                f = vectors[j][comp]
                row.extend(_row(index, f, p, m) if not f.is_zero() else [0] * len(index))
        rows.append(row)
    width = sum(len(b) for b in blocks if b is not None)
    return unknowns, linalg.nullspace(linalg.as_matrix(rows, width).T, p)


def _polys(ring, unknowns, col, count):
    coeffs = [dict() for _ in range(count)]
    for idx, (j, m) in enumerate(unknowns):
        if int(col[idx]):
            coeffs[j][m] = int(col[idx])
    return tuple(ring._from_dict(d) for d in coeffs)


def syzygies(ideal, bound):
    ring, gens, degs = ideal.ring, ideal.generators, _degs(ideal)
    out = {}
    for e in range(min(degs), bound + 1):
        unknowns, ns = _kernel(ring, [(f,) for f in gens], degs, (0,), e)
        out[e] = [_polys(ring, unknowns, ns[:, k], len(gens)) for k in range(ns.shape[1])]
    return out


def tangent(ideal, bound):
    ring, p, degs = ideal.ring, ideal.ring.field.p, _degs(ideal)
    unknowns = []
    for j, d in enumerate(degs):
        monos, _, _, _, free = _quotient(ideal, d)
        unknowns += [(j, monos[c]) for c in free]
    if not unknowns:
        return 0
    blocks = []
    for e, vectors in sorted(syzygies(ideal, bound).items()):
        _, index, r, piv, free = _quotient(ideal, e)
        for vec in vectors:
            cols = []
            for j, m in unknowns:
                v = np.array(_row(index, vec[j], p, m), dtype=np.int64)
                for k, pc in enumerate(piv):
                    v = (v - int(v[pc]) * r[k]) % p
                cols.append(v[free])
            if free:
                blocks.append(np.array(cols, dtype=np.int64).T)
    return len(unknowns) - (linalg.rank(np.vstack(blocks), p) if blocks else 0)


def betti(ideal, max_step, bound):
    ring, p, gens = ideal.ring, ideal.ring.field.p, list(ideal.generators)
    entries, chosen, chosen_degs = {}, [], []
    for e in range(min(_degs(ideal)), bound + 1):
        index = _basis(ring, e)[1]
        rows = [_row(index, g, p, m) for j, m in _unknowns(ring, chosen_degs, e)
                for g in [chosen[j]]]
        nbase = len(rows)
        cands = [f for f in gens if f.homogeneous_degree() == e]
        rows += [_row(index, f, p) for f in cands]
        keep = set(linalg.greedy_independent_rows(linalg.as_matrix(rows, len(index)), p))
        new = [f for k, f in enumerate(cands) if nbase + k in keep]
        if new:
            entries[(0, e)] = len(new)
            chosen += new
            chosen_degs += [e] * len(new)
    vectors, level_shifts, degs = [(f,) for f in chosen], (0,), chosen_degs
    for step in range(1, max_step + 1):
        kernels = {e: _kernel(ring, vectors, degs, level_shifts, e)
                   for e in range(min(degs, default=bound + 1), bound + 1)}
        next_vectors, next_degs = [], []
        for e, (unknowns, ns) in sorted(kernels.items()):
            rows = []
            if e - 1 in kernels:
                index = {u: i for i, u in enumerate(unknowns)}
                prev_unknowns, prev_ns = kernels[e - 1]
                for col in prev_ns.T:
                    for v in range(ring.n):
                        row = [0] * len(unknowns)
                        for idx, (j, m) in enumerate(prev_unknowns):
                            m2 = tuple(a + (t == v) for t, a in enumerate(m))
                            row[index[(j, m2)]] = int(col[idx])
                        rows.append(row)
            nbase = len(rows)
            rows += ns.T.tolist()
            keep = set(linalg.greedy_independent_rows(linalg.as_matrix(rows, len(unknowns)), p))
            new = [ns[:, k] for k in range(ns.shape[1]) if nbase + k in keep]
            if new:
                entries[(step, e)] = len(new)
                next_vectors += [_polys(ring, unknowns, col, len(vectors)) for col in new]
                next_degs += [e] * len(new)
        vectors, level_shifts, degs = next_vectors, degs, next_degs
    return BettiTable(entries)
