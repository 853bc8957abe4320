"""Prime-field arithmetic GF(q).

Field values are int64 arrays with entries in [0, q). A public method that
takes field values passes them once, at entry, through `PrimeField.elements`,
so any integer input acts as its residues mod q; the code behind the entry
takes them as reduced and reduces nothing again.
"""

from __future__ import annotations

import numpy as np

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

    def elements(self, a) -> np.ndarray:
        """a as int64 in [0, q), copied and reduced only when its min or max
        lies outside; an int64 array in range is returned as it is."""
        a = np.asarray(a, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.q):
            a = a % self.q
        return a
