"""verify_prop31 on dense curves whose invariants have closed forms.

Every other curve in the suite is a rational normal curve or a monomial
or cone example, all with a large torus.  These three are cut out
by seeded-random forms, so they are dense and have only the trivial
torus:

* can4, the canonical curve of genus 4 in P^3: a (2, 3) complete
  intersection, h(d) = 6d - 3 for d >= 2.  Its sigma_2 is the Koszul
  relation, so T = h(2) + h(3) = 24 (also 3g - 3 + dim PGL(4)) and
  Ext^1 = h(5) = 27.
* can5, the canonical curve of genus 5 in P^4: three quadrics, a
  complete intersection, h(d) = 8d - 4 for d >= 2.  Its sigma_2 is the
  three Koszul relations, so T = 3 h(2) = 36 (also 3g - 3 + dim PGL(5))
  and Ext^1 = 3 h(4) = 84.
* ell5, the elliptic normal quintic in P^4: the 4x4 Pfaffians of a
  random 5x5 skew matrix of linear forms, Betti table 1, 5, 5, 1 in
  degrees 0, 2, 3, 5 (Buchsbaum-Eisenbud) and h(d) = 5d.  T = h^0(N) =
  25, and the Pfaffian complex's last map has entries in I, so Ext^1 =
  5 h(3) - (5 h(2) - T) = 50.

The truncation at m keeps both (T and Ext^1 of Gamma equal those of Y),
and its first strand has multiplicity h(m).  A draw counts when the
Hilbert-series numerator of S/I is the closed form's; a draw that fails
it (a non-generic one, likelier at p = 2 and 3) is redrawn with the next
seed.
"""

import pytest

from hfstrata.field import PrimeField
from hfstrata.groebner import Ideal
from hfstrata.invariants import hilbert_series
from hfstrata.ring import RingContext
from hfstrata.strata import random_forms, verify_prop31

PRIMES = (2, 3, 32003, 2**31 - 1)
MAX_DRAWS = 8


def can4(ring, seed):
    """A quadric and a cubic: the canonical curve of genus 4."""
    return random_forms(ring, 2, 1, seed) + random_forms(ring, 3, 1, seed + 1)


def can5(ring, seed):
    """Three quadrics: the canonical curve of genus 5."""
    return random_forms(ring, 2, 3, seed)


def ell5(ring, seed):
    """The 4x4 Pfaffians of a skew 5x5 matrix of random linear forms."""
    forms = iter(random_forms(ring, 1, 10, seed))
    a = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            a[i][j] = next(forms)
    pfaffians = []
    for k in range(5):
        i, j, u, v = (r for r in range(5) if r != k)
        pfaffians.append(a[i][j] * a[u][v] - a[i][u] * a[j][v] + a[i][v] * a[j][u])
    return pfaffians


# name: (variables, forms, HS numerator of S/I, Betti table, h, T, Ext^1, m)
CURVES = {
    "can4": (4, can4, (1, 0, -1, -1, 0, 1), {(0, 2): 1, (0, 3): 1, (1, 5): 1},
             lambda d: 6 * d - 3, 24, 27, 6),
    "can5": (5, can5, (1, 0, -3, 0, 3, 0, -1), {(0, 2): 3, (1, 4): 3, (2, 6): 1},
             lambda d: 8 * d - 4, 36, 84, 6),
    "ell5": (5, ell5, (1, 0, -5, 5, 0, -1), {(0, 2): 5, (1, 3): 5, (2, 5): 1},
             lambda d: 5 * d, 25, 50, 5),
}


def generic_curve(name, p):
    """The first draw, from seed 1 on, whose Hilbert series is the closed form's."""
    n, forms, numerator = CURVES[name][:3]
    ring = RingContext(tuple("abcde"[:n]), PrimeField(p))
    for seed in range(1, MAX_DRAWS + 1):
        ideal = Ideal(ring, forms(ring, seed))
        if hilbert_series(ideal).numerator == numerator:
            return ideal
    pytest.fail(f"{name}: no generic draw in {MAX_DRAWS} seeds at p = {p}")


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(CURVES))
def test_dense_curve_closed_forms(name, p):
    _, _, _, betti, h, tangent, ext1, m = CURVES[name]
    report = verify_prop31(generic_curve(name, p), m)
    assert report.all_ok()
    assert report.betti_y.entries == betti
    assert report.t1_expected == h(m)
    assert report.strand_multiplicities[0] == h(m)
    comparison = report.comparison
    assert (comparison.tangent_dim_Y, comparison.tangent_dim_Gamma) == (tangent, tangent)
    assert (comparison.ext1_dim_Y, comparison.ext1_dim_Gamma) == (ext1, ext1)
