"""Golden digests of `vector_syzygies`: the engine's own output, exactly.

The CLI prints ranks, Betti tables and dimensions derived from syzygy
lists, so a change to the engine that permuted the syzygies, picked other
representatives or changed a certificate could keep every CLI digest in
`test_output_digest.py`.  These digests hash the exact term lists of
every returned syzygy vector, in order.  They were recorded with the
tuple-keyed engine that preceded packed integer terms; the pair order,
the first-reducer rule, both criteria and the canonical sort decide
them, so they must not move under a change of representation.  The
higher levels of a resolution (the twisted cubic's truncation at level 3,
the rational normal quartic at level 2) spread their lead terms over many
components, so they also pin the reducer and pair partners that the
engine looks up by component.

A failure lists the cases whose digests moved.
"""

import hashlib

from hfstrata.cli import parse_ideal_file
from hfstrata.groebner import vector_degree, vector_syzygies
from hfstrata.ring import GREVLEX, LEX
from hfstrata.strata import random_forms, truncate_ideal

from conftest import build_corpus, rational_normal_quartic, ring4, twisted_cubic
from test_output_digest import FILES


def _digest(vectors):
    blob = repr([tuple(f.terms for f in vec) for vec in vectors])
    return hashlib.sha256(blob.encode()).hexdigest()


def _ideal_syzygies(ideal):
    return vector_syzygies(ideal.ring, [(f,) for f in ideal.generators], (0,))


def _next_level(ring, vectors, shifts):
    """The syzygies of `vectors` in the free module with these shifts, and
    the shifted degrees of `vectors`: the shifts of the next level."""
    return vector_syzygies(ring, vectors, shifts), [vector_degree(v, shifts) for v in vectors]


def _rank2_vectors(order):
    """Four degree-2 vectors in S(0) + S(-1) over F_32003[x, y, z, w]."""
    r = ring4(order)
    quadrics = random_forms(r, 2, 4, seed=7)
    linears = random_forms(r, 1, 4, seed=8)
    return r, list(zip(quadrics, linears))


def _cases():
    out = {}
    for order in (GREVLEX, LEX):
        for name, ideal in build_corpus(order).items():
            if not ideal.is_zero_ideal():
                out[f"{order} {name}"] = _ideal_syzygies(ideal)
        r, vectors = _rank2_vectors(order)
        out[f"{order} rank-2 module"] = vector_syzygies(r, vectors, (0, 1))
    _, curve = parse_ideal_file(FILES["quadric_cone_curve4.ideal"])
    out["quadric_cone_curve4"] = _ideal_syzygies(curve)
    # syzygies of the syzygies of a truncation: a module of rank 38
    trunc = truncate_ideal(twisted_cubic(), 4)
    degrees = [f.homogeneous_degree() for f in trunc.generators]
    level2, shifts = _next_level(trunc.ring, _ideal_syzygies(trunc), degrees)
    out["twisted_cubic_trunc4 level 2"] = level2
    # their syzygies in turn: a module of rank 63
    out["twisted_cubic_trunc4 level 3"] = _next_level(trunc.ring, level2, shifts)[0]
    quartic = rational_normal_quartic()
    degrees = [f.homogeneous_degree() for f in quartic.generators]
    out["rational_normal_quartic level 2"] = _next_level(quartic.ring, _ideal_syzygies(quartic), degrees)[0]
    return {name: _digest(vectors) for name, vectors in out.items()}


DIGESTS = {
    "grevlex twisted_cubic": "26128b41b6bfe14524fde47a016f629c8364af3d5243591d3118ee1143922f0b",
    "grevlex quadric_cone": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "grevlex ci_x2_y2": "ff06a2da8e17c016d5cd577e9ea028d686ac78e2d1b79e8098e8864888c7ae44",
    "grevlex ci_x3_y3": "71be2c26b54e55c7b263078095136424b509dabafe87179763a02ec03a3a4ef9",
    "grevlex max_ideal_n2": "004cf4f52ba2f04d4e2c36e36ff18f062d0e3fe7a2e8c76f0c5afb2f236cf640",
    "grevlex max_ideal_n3": "abe8d98a97333aaed60ed3a401082a76748d8a4bbf12a5b62488072fa1023844",
    "grevlex max_sq_n2": "765104af58fb40fb8ce127fecc40b66b82bf7d3260b977f9ca874cca4635580c",
    "grevlex max_sq_n3": "25f641f4ffa073f1f93140b40bc3b3dbb149773c4d7b4b4231b667e3ad6709fe",
    "grevlex rank-2 module": "360f8e9cd6bf1ca05671ec5e32fd0a870abde3a19f4a516bc78dd3f5d36093fd",
    "lex twisted_cubic": "26128b41b6bfe14524fde47a016f629c8364af3d5243591d3118ee1143922f0b",
    "lex quadric_cone": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "lex ci_x2_y2": "ff06a2da8e17c016d5cd577e9ea028d686ac78e2d1b79e8098e8864888c7ae44",
    "lex ci_x3_y3": "71be2c26b54e55c7b263078095136424b509dabafe87179763a02ec03a3a4ef9",
    "lex max_ideal_n2": "004cf4f52ba2f04d4e2c36e36ff18f062d0e3fe7a2e8c76f0c5afb2f236cf640",
    "lex max_ideal_n3": "abe8d98a97333aaed60ed3a401082a76748d8a4bbf12a5b62488072fa1023844",
    "lex max_sq_n2": "765104af58fb40fb8ce127fecc40b66b82bf7d3260b977f9ca874cca4635580c",
    "lex max_sq_n3": "596bb711866a511fedeecb246e169368b67545b167df8fdaa2fb411c6591ecf6",
    "lex rank-2 module": "9e4fd1e530acbd767fdd2d9aa5c90d978cdc584e4403e7ab97eeb9435b9a2784",
    "quadric_cone_curve4": "af0fc6823551c98b0af0cc2394a98bc217a2a519465a6ad71ea7019b7685a29f",
    "twisted_cubic_trunc4 level 2": "1893a50e8c7988e54d7120a4e4b4f0223ed30486a1c96a4b1434829db5adc394",
    "twisted_cubic_trunc4 level 3": "7772be01a6617cc3fb6c8e9d51294f07a17a439206292ee2aca89409ff5e215d",
    "rational_normal_quartic level 2": "96ab06f3d8962a3d0595290e05d294fd76381d1884e7c6655673ae07553057c5",
}


def test_vector_syzygies_match_golden_digests():
    assert _cases() == DIGESTS
