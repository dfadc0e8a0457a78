"""The package's public names: each operation has one name."""

import hfstrata
from hfstrata import field, groebner, invariants, ring

# names that duplicated another name's job, or had no caller
RETIRED = {
    groebner: ["buchberger", "SyzygyBasis", "syzygies"],
    ring: ["homogeneous_degree", "graded_map_check", "monomial_compare", "LT", "EQ", "GT"],
    invariants: ["regularity_quotient"],
}


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hfstrata import *", namespace)
    assert len(set(hfstrata.__all__)) == len(hfstrata.__all__)
    for name in hfstrata.__all__:
        assert namespace[name] is getattr(hfstrata, name), name


def test_retired_names_are_gone():
    for module, names in RETIRED.items():
        for name in names:
            assert name not in hfstrata.__all__, name
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(groebner.Ideal, "__add__")  # ideal_sum
    for name in ("add", "sub", "mul", "neg", "div"):
        assert not hasattr(field.PrimeField, name), name
    for name in ("as_dict", "scale", "term_mul"):  # dict(f.terms), f * ring.monomial(...)
        assert not hasattr(ring.Polynomial, name), name
