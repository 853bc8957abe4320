"""Dense linear algebra over GF(q).

`rref` holds the matrix as float64 and delays the reduction mod q
(Dumas-Giorgi-Pernet, "Dense linear algebra over word-size prime fields",
ACM TOMS 2008). Entries are reduced only where they are read as pivot data:
the current column panel, the pivot rows and the factor columns. Each panel's
update of the trailing columns is one unreduced float64 BLAS product. With
entries in [0, q) at the start, every entry afterwards is an integer of
absolute value at most min(rows, cols)*(q-1)**2 + q, because each pivot
subtracts at most (q-1)**2 from it. `rref` refuses a shape and modulus for
which that bound reaches 2**53, so every float64 value it computes is an
exact integer. For q <= 65521 the bound admits any matrix with fewer than
about 2*10**6 rows or columns.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 48


def _rref_plain(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reference single-pivot Gauss-Jordan; used as an oracle in tests."""
    r = np.array(a, dtype=np.int64) % q
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


def _mul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) % q via float64 BLAS for entries in [0, q).

    Every sum is exact while the inner dimension k has k*(q-1)**2 < 2**53;
    a larger product raises ValueError. A float64 `b` is used as it is, so a
    caller can convert a fixed operand once.
    """
    k = np.shape(b)[0]
    if k * (q - 1) ** 2 >= 2**53:
        raise ValueError(
            f"inner dimension {k} over GF({q}) is too large for exact "
            "float64 products"
        )
    prod = a.astype(np.float64) @ np.asarray(b, dtype=np.float64)
    return _reduce(prod, q).astype(np.int64)


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q for float64 integers below 2**53 in absolute value.

    Faster than np.mod on float64 and exact in this range: the rounding
    error of x/q is below 1/q, so the floor is the true quotient.
    """
    return x - q * np.floor(x / q)


def rref(
    a: np.ndarray, q: int, block: int = _BLOCK
) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(q): (R, pivot column list).

    Columns are taken in panels of `block`. Gauss-Jordan on the panel, over
    the rows not yet holding a pivot, finds the panel's pivots and, in an
    augmented identity block, the inverse T of the pivot block. The pivot rows
    become P = T @ (their old entries), and every other row subtracts
    F @ P, where F holds its entries in the pivot columns. Rows without a
    pivot yet are zero mod q left of the panel, so P is too, and the update
    only touches the columns from the panel on.
    """
    rows, cols = np.shape(a)
    if min(rows, cols) * (q - 1) ** 2 + q >= 2**53:
        raise ValueError(
            f"a {rows}x{cols} matrix over GF({q}) is too large for exact "
            "float64 elimination"
        )
    r = (np.asarray(a, dtype=np.int64) % q).astype(np.float64)
    pivots: list[int] = []
    lead = 0
    col_start = 0
    while col_start < cols and lead < rows:
        col_end = min(col_start + block, cols)
        width = col_end - col_start
        r[:, col_start:col_end] = _reduce(r[:, col_start:col_end], q)
        # panel rows from `lead` down, then an identity block that records
        # each row in terms of the panel's pivot rows as they were chosen
        g = np.zeros((rows - lead, 2 * width))
        g[:, :width] = r[lead:, col_start:col_end]
        panel_pivots: list[int] = []
        for pcol in range(width):
            j = len(panel_pivots)
            if lead + j == rows:
                break
            nz = np.flatnonzero(_reduce(g[j:, pcol], q))
            if nz.size == 0:
                continue
            prow = j + int(nz[0])
            if prow != j:
                g[[j, prow]] = g[[prow, j]]
                r[[lead + j, lead + prow]] = r[[lead + prow, lead + j]]
            g[j, width + j] = 1
            pivot = _reduce(g[j], q)
            g[j] = _reduce(pivot * pow(int(pivot[pcol]), q - 2, q), q)
            factors = _reduce(g[:, pcol], q)
            factors[j] = 0
            # the panel columns from pcol on and the identity block's first
            # j + 1 columns are one contiguous slice
            g[:, pcol : width + j + 1] -= np.outer(factors, g[j, pcol : width + j + 1])
            panel_pivots.append(col_start + pcol)
        k = len(panel_pivots)
        if k:
            inv = _reduce(g[:k, width : width + k], q)
            piv_rows = slice(lead, lead + k)
            f = r[:, panel_pivots]
            f[piv_rows] = 0
            p = _reduce(inv @ _reduce(r[piv_rows, col_start:], q), q)
            r[:, col_start:] -= f @ p
            r[piv_rows, col_start:] = p
            pivots.extend(panel_pivots)
            lead += k
        col_start = col_end
    return _reduce(r, q).astype(np.int64), pivots


def nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Basis of {x : a x = 0} over GF(q), one basis vector per row."""
    a = np.asarray(a, dtype=np.int64)
    _, cols = a.shape
    r, pivots = rref(a, q)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % q
    return basis


def right_inverse(a: np.ndarray, q: int) -> np.ndarray:
    """B with a B = I over GF(q); requires full row rank."""
    a = np.asarray(a, dtype=np.int64) % q
    rows, cols = a.shape
    aug = np.hstack([a, np.eye(rows, dtype=np.int64)])
    r, pivots = rref(aug, q)
    if len([p for p in pivots if p < cols]) < rows:
        raise ValueError("matrix does not have full row rank")
    b = np.zeros((cols, rows), dtype=np.int64)
    b[pivots] = r[: len(pivots), cols:]
    return b
