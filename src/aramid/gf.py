"""Prime-field arithmetic GF(q).

Field values are int64 arrays with entries in [0, q). A public method or a
constructor (`GrsCode`'s points and multipliers, kept as copies) that
takes field values passes each such argument once, at entry, through
`PrimeField.elements`, so any integer input acts as its residues mod q, and
an input of any other dtype (float, bool, object) raises TypeError. What
runs behind the entry neither reduces nor checks again: a public method is
`elements` plus one private body (`GrsCode._syndromes`, `_sys_encode`,
`_sys_project`, `TannerCode._membership`, ...), and package code that holds
values it has checked or produced itself calls the body, not the method.
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
        """a as int64 in [0, q), copied and reduced only when some entry lies
        outside; an int64 array in range is returned as it is. Unsigned input
        is reduced in its own dtype, so that uint64 entries from 2**63 up do
        not wrap; signed input is reduced in int64, where one reduction finds
        both sides: read as uint64, a negative entry is at least 2**63. A
        nonempty input of any other dtype raises TypeError."""
        a = np.asarray(a)
        if a.dtype.kind == "u":
            if a.size and a.max() >= self.q:
                a = a % np.uint64(self.q)
            return a.astype(np.int64)
        if a.dtype.kind != "i" and a.size:
            raise TypeError(f"field values must have an integer dtype, got {a.dtype}")
        a = a.astype(np.int64, copy=False)
        if a.size and a.view(np.uint64).max() >= self.q:
            a = a % self.q
        return a
