import random

import pytest

from hfstrata.field import NotPrimeError, PrimeField, is_prime


def test_modular_reduction():
    f = PrimeField(5)
    assert f.reduce(2 + 3) == 0


def test_inverse_via_division():
    f = PrimeField(7)
    assert f.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7


def test_division_by_zero_is_distinct_error():
    f = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_non_prime_rejected():
    for bad in (0, 1, 4, 10, 32001, 2**31):
        with pytest.raises(NotPrimeError):
            PrimeField(bad)
    assert is_prime(32003)
    assert not is_prime(32001)  # 3 * 10667


def test_field_axioms_random_triples():
    f = PrimeField(32003)
    rng = random.Random(12345)
    for _ in range(1000):
        a = rng.randrange(1, f.p)
        assert f.reduce(a * f.inv(a)) == 1


def test_canonical_form_idempotent():
    f = PrimeField(17)
    for v in range(-40, 40):
        assert f.reduce(f.reduce(v)) == f.reduce(v)
        assert 0 <= f.reduce(v) < 17
