"""Truncations that used to exhaust memory, checked against closed forms.

The twisted cubic at m = 6 and the rational normal quartic at m = 4 both
needed dense Nakayama matrices of several GB when Betti tables came from
an unreduced resolution.  Expected values here come from the paper's
closed forms, not from the engine.
"""

from math import comb

from hfstrata.strata import verify_prop31

from conftest import rational_normal_quartic, twisted_cubic


def _strands(h, betti_y, n, m):
    """t_{i+1} from the numerator sum_{d<m} h(d) t^d (1-t)^n of the
    truncation, minus the alternating Betti sums of Y."""
    numerator = [0] * (m + n)
    for d in range(m):
        for k in range(n + 1):
            numerator[d + k] += h(d) * comb(n, k) * (-1) ** k
    out = []
    for i in range(n):
        j = m + i
        alt_y = sum((-1) ** a * b for (a, jj), b in betti_y.items() if jj == j)
        out.append((-1) ** i * (-numerator[j] - alt_y))
    return out


def test_twisted_cubic_m6():
    report = verify_prop31(twisted_cubic(), 6).to_json()
    assert report["all_ok"]
    assert report["strand_multiplicities"][0] == report["t1_expected"] == 3 * 6 + 1
    comparison = report["comparison"]
    assert comparison["tangent_dim_Y"] == comparison["tangent_dim_Gamma"] == 12


def test_rational_normal_quartic_m4():
    report = verify_prop31(rational_normal_quartic(), 4).to_json()
    assert report["all_ok"]
    # Eagon-Northcott resolution of the 2x2 minors of a 2x4 matrix
    betti_y = {(0, 2): 6, (1, 3): 8, (2, 4): 3}
    assert {(r["i"], r["j"]): r["beta"] for r in report["betti_Y"]} == betti_y
    strands = _strands(lambda d: 4 * d + 1, betti_y, 5, 4)
    assert strands == [17, 64, 90, 56, 13]
    assert report["strand_multiplicities"] == strands
    comparison = report["comparison"]
    # dim PGL(5) - dim PGL(2) = 24 - 3
    assert comparison["tangent_dim_Y"] == comparison["tangent_dim_Gamma"] == 21
    assert comparison["obstruction_kernel_dim"] == 0
