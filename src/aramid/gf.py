"""Prime-field arithmetic GF(q)."""

from __future__ import annotations

MAX_MODULUS = 65521  # largest prime below 2**16; keeps products in 32-bit range


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (n <= 65521)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field GF(q) for a prime modulus q with 2 < q <= 65521."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if q <= 2 or q > MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 2 < q <= {MAX_MODULUS}, got {q}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"
