"""Single-pivot Gauss-Jordan over GF(q), kept as a test oracle for `linalg`."""

from __future__ import annotations

import numpy as np


def rref_plain(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """(R, pivot column list): the RREF of a over GF(q), one pivot at a time.
    Entries are reduced as Python ints, so that no integer dtype wraps."""
    r = (np.asarray(a).astype(object) % q).astype(np.int64)
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        sub = r[lead:, col]
        nz = np.flatnonzero(sub)
        if nz.size == 0:
            continue
        piv = lead + int(nz[0])
        if piv != lead:
            r[[lead, piv]] = r[[piv, lead]]
        inv = pow(int(r[lead, col]), q - 2, q)
        r[lead] = (r[lead] * inv) % q
        factors = r[:, col].copy()
        factors[lead] = 0
        r = (r - np.outer(factors, r[lead])) % q
        pivots.append(col)
        lead += 1
    return r, pivots


def store(a, q: int) -> np.ndarray:
    """a mod q as a `linalg` store, reduced as Python ints as in `rref_plain`."""
    return (np.asarray(a).astype(object) % q).astype(np.min_scalar_type(q - 1))


def rref_free(a: np.ndarray, q: int) -> tuple[list[int], np.ndarray]:
    """(pivot column list, R[:rank, free]) read off `rref_plain`, the form
    that `linalg.rref` returns."""
    r, pivots = rref_plain(a, q)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    return pivots, r[: len(pivots)][:, free]


def right_inverse_plain(a: np.ndarray, q: int) -> np.ndarray:
    """B with a B = I over GF(q) read off the RREF of [a | I]: row p of B,
    for each pivot column p of a, is that pivot row's part in the identity
    block, and B's other rows are zero. a must have full row rank."""
    rows, cols = np.shape(a)
    r, pivots = rref_plain(np.hstack([a, np.eye(rows, dtype=np.int64)]), q)
    b = np.zeros((cols, rows), dtype=np.int64)
    b[pivots] = r[: len(pivots), cols:]
    return b


def nullspace_plain(a: np.ndarray, q: int) -> np.ndarray:
    """Basis of {x : a x = 0} over GF(q) read off `rref_plain`: x_free = I and
    x_pivots = -R[:rank, free]^T, one basis vector per row."""
    r, pivots = rref_plain(a, q)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[: len(pivots), free].T % q
    return basis
