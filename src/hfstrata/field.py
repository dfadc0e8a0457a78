"""Arithmetic in the prime field F_p.

Field elements are plain Python ints kept as canonical residues in
[0, p); `PrimeField` carries the modulus and the operations.  Values are
immutable, so they can be shared freely between threads.
"""

from .errors import HfStrataError

DEFAULT_PRIME = 32003


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division; moduli are < 2**31)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


class NotPrimeError(HfStrataError):
    def __init__(self, n):
        self.n = n
        if isinstance(n, int) and n >= 2**31:
            super().__init__(f"modulus {n} is out of range: it must be a prime below 2^31")
        else:
            super().__init__(f"modulus {n} is not prime")


class PrimeField:
    """The field F_p for a prime 2 <= p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not is_prime(p):
            raise NotPrimeError(p)
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def reduce(self, a: int) -> int:
        return a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)
