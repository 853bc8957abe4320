"""Dense linear algebra over GF(q).

`rref`, and `nullspace` through it, run one elimination, `_echelon`. It
works in place on one store, an array of the smallest unsigned dtype that
holds q - 1 (uint8 for q <= 256, uint16 for q <= 65536), whose entries are
kept in [0, q). Its products run in floating point with delayed reduction
mod q (Dumas-Giorgi-Pernet, "Dense linear algebra over word-size prime
fields", ACM TOMS 2008): the values a product reads are converted from the
store, and its result is reduced and written back. It has three parts:

1. An echelon pass over panels of `_BLOCK` columns. A panel's pivots are
   found over the rows that hold no pivot yet. Its pivot rows move up and
   are solved for the panel's pivot columns, and only the rows below them
   are updated, on the trailing columns, by BLAS products of `_BAND` rows
   each, each band converted, updated, reduced and stored in turn.
2. The panel is factored by splitting it recursively (Toledo, "Locality of
   reference in LU decomposition with partial pivoting", SIAM J. Matrix
   Anal. Appl. 1997). The left half's pivots give the right half's Schur
   complement in one BLAS product, and the inverse of the panel's pivot
   block follows from the 2x2 block inverse. Panels of at most `_LEAF`
   columns run a per-pivot Gauss-Jordan loop.
3. One back-substitution gives R[:rank, free], the non-pivot columns of the
   RREF R, converting the slices of the store that it reads. `rref` drops
   the store and returns that block and the pivot columns, which fix the
   rest of R (unit pivot columns, zero rows below the rank), so no dense R
   is ever allocated.

Every product multiplies operands reduced into [0, q) over an inner
dimension that counts pivots, and every value left unreduced is an entry in
[0, q) minus or plus such products, with at most one (q-1)**2 per pivot in
all. So every value is an integer of absolute value at most
B = min(rows, cols)*(q-1)**2 + q, and so is every partial sum of a product,
in whatever order BLAS adds its terms, since they are nonnegative. Reducing
each result before it is stored only makes the values smaller: the next
product again reads entries in [0, q), so the bound holds at every step as
it did when unreduced values were carried from panel to panel. A
floating-point type with a p-bit significand holds every integer below 2**p
exactly, and `_reduce` is exact on them, so the elimination is exact in it
while B < 2**p. Products run in float32 (p = 24) when B < 2**24, so that
BLAS runs single-precision products (the single-precision path of
Dumas-Giorgi-Pernet), and in float64 (p = 53) otherwise; `rref` refuses
B >= 2**53 before any allocation. Every float temporary takes that dtype.
So float32 serves any matrix over GF(37) with fewer than about 12900 rows
or columns, and over GF(257) with at most 255; for q <= 65521 float64
serves any matrix with fewer than about 2*10**6 rows or columns. Which rows
become pivots does not change the result: the RREF and its pivot columns
depend only on the matrix.

An input is reduced mod q and stored one band of `_BAND` rows at a time, an
unsigned input in its own dtype and any other in int64. Each panel step
converts only the panel's columns, its pivot rows and one band of the
trailing block at a time, and frees them before the next step allocates its
own. So beside the input an elimination holds the store, a quarter of a
float32 array when q <= 256, and O((_BLOCK + _BAND) * cols) float values.
After it, `rref` drops the store and keeps only R[:rank, free], and
`nullspace` allocates its (nullity x cols) basis beside that block. An input
of a narrow unsigned dtype thus adds little: `TannerCode.generator` passes
its matrix in the store's own dtype, and its nullspace peaks at the input,
the store and one panel step's temporaries.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 192
_LEAF = 8
_BAND = 256  # rows per load band and per trailing-update product


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
    """x mod q for integers of a float dtype with a p-bit significand, below
    2**p in absolute value (2**24 for float32, 2**53 for float64).

    Faster than np.mod and exact in this range: the rounding error of x/q is
    below 2**p/q * 2**-p = 1/q, so the floor is the true quotient, and q
    times it lies within q of x. q is a Python int, so the result keeps x's
    dtype under both value-based casting and NEP 50. The quotient's array
    is reused for the result, so the reduction allocates nothing else.
    """
    t = x / q
    np.floor(t, out=t)
    t *= q
    return np.subtract(x, t, out=t)


def _panel_leaf(gt: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_panel` on a few columns: Gauss-Jordan with an augmented identity
    block that gains a column as each pivot row is chosen."""
    w, m = gt.shape
    # transposed, so that each update runs along rows of length m
    at = np.zeros((2 * w, m), dtype=gt.dtype)
    at[:w] = gt
    order = np.arange(m)
    pcols: list[int] = []
    for pcol in range(w):
        j = len(pcols)
        if j == m:
            break
        col = _reduce(at[pcol], q)
        nz = np.flatnonzero(col[j:])
        if nz.size == 0:
            continue
        prow = j + int(nz[0])
        if prow != j:
            at[:, [j, prow]] = at[:, [prow, j]]
            order[[j, prow]] = order[[prow, j]]
            col[[j, prow]] = col[[prow, j]]
        at[w + j, j] = 1
        # column pcol is not read again, so the update starts after it; the
        # rest of the panel and the identity block's first j + 1 columns are
        # one contiguous slice
        seg = slice(pcol + 1, w + j + 1)
        row = _reduce(_reduce(at[seg, j], q) * pow(int(col[j]), q - 2, q), q)
        at[seg] -= row[:, None] * col
        at[seg, j] = row
        pcols.append(pcol)
    k = len(pcols)
    return order[:k], np.array(pcols, dtype=np.intp), _reduce(at[w : w + k, :k].T, q)


def _panel(gt: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivots of a reduced panel g, passed as its transpose gt:
    (pivot rows, pivot columns, T).

    The pivot columns are those of the RREF of g. Pivot row i holds a nonzero
    entry in pivot column i once the rows before it are eliminated, and T is
    the inverse of g's pivot block g[rows][:, cols]. The left half is factored
    first. The right half minus its projection on the left half's pivot
    columns, a Schur complement that is zero on the left half's pivot rows,
    is factored next, and T follows from the 2x2 block inverse.
    """
    w = gt.shape[0]
    if w <= _LEAF:
        return _panel_leaf(gt, q)
    h = w // 2
    p1, c1, t1 = _panel(gt[:h], q)
    x1 = _reduce(t1 @ gt[h:, p1].T, q)
    p2, c2, t2 = _panel(_reduce(gt[h:] - x1.T @ gt[c1], q), q)
    # B = [[B11, B12], [B21, B22]] with B11^-1 = t1 and the Schur complement
    # B22 - B21 t1 B12 inverted by t2: B^-1 = [[t1 + y t2 z, -y t2],
    # [-t2 z, t2]], where y = t1 B12 = x1[:, c2] and z = B21 t1
    y = x1[:, c2]
    t2z = _reduce(t2 @ _reduce(gt[c1[:, None], p2].T @ t1, q), q)
    k1 = len(c1)
    t = np.empty((k1 + len(c2),) * 2, dtype=gt.dtype)
    t[:k1, :k1] = _reduce(t1 + y @ t2z, q)
    t[:k1, k1:] = _reduce(-(y @ t2), q)
    t[k1:, :k1] = _reduce(-t2z, q)
    t[k1:, k1:] = t2
    return np.concatenate([p1, p2]), np.concatenate([c1, h + c2]), t


def _float_dtype(shape: tuple[int, ...], q: int) -> np.dtype:
    """The float dtype that an elimination of a matrix of this shape over
    GF(q) multiplies in: float32 when the value bound B is below 2**24 and
    float64 otherwise. B >= 2**53 raises ValueError."""
    bound = min(shape) * (q - 1) ** 2 + q
    if bound >= 2**53:
        raise ValueError(
            f"a {shape[0]}x{shape[1]} matrix over GF({q}) is too large for "
            "exact float64 elimination"
        )
    return np.dtype(np.float32 if bound < 2**24 else np.float64)


def _load(a, q: int) -> np.ndarray:
    """a mod q as a new store, in the smallest unsigned dtype that holds
    q - 1. Each band is reduced before it is stored: an unsigned input in its
    own dtype, with q as a scalar of that dtype (under NEP 50 a Python int
    would have to fit it), and left as it is when q exceeds the dtype's
    range; any other input in int64, so that negative entries and entries
    above 2**53 stay exact. A shape whose value bound reaches 2**53 is
    refused before any allocation."""
    a = np.asarray(a)
    _float_dtype(a.shape, q)
    r = np.empty(a.shape, dtype=np.min_scalar_type(q - 1))
    for s in range(0, a.shape[0], _BAND):
        band = a[s : s + _BAND]
        if a.dtype.kind != "u":
            band = np.asarray(band, dtype=np.int64) % q
        elif q <= np.iinfo(a.dtype).max:
            band = band % a.dtype.type(q)
        r[s : s + _BAND] = band
    return r


def _panel_step(
    r: np.ndarray, q: int, ft: np.dtype, lead: int, c0: int, c1: int
) -> np.ndarray:
    """One panel of `_echelon`: eliminate columns c0 .. c1-1 of the store r
    from row lead down, multiplying in the float dtype ft, and return the
    panel's pivot columns, counted from c0. Its k pivot rows move to rows
    lead .. lead+k-1 and are solved for those columns, and the rows below
    them are updated on columns c1 on, one band of `_BAND` rows at a time,
    each reduced back into r. The step's temporaries are freed when it
    returns, before the next panel's exist."""
    gt = r[lead:, c0:c1].T.astype(ft, order="C")
    prows, pcols, t = _panel(gt, q)
    k = len(pcols)
    if k:
        # the rows the pivot rows displace from lead .. lead+k-1 take their
        # places, so that the rows below are contiguous
        order = np.arange(r.shape[0] - lead)
        moved = prows[prows >= k]
        order[moved] = np.setdiff1d(np.arange(k), prows)
        order[:k] = prows
        f = gt[pcols[:, None], order[k:]].T
        del gt  # f is all that the update reads of it
        x = _reduce(t @ r[lead + prows, c0:].astype(ft), q)
        r[lead + moved, c0:] = r[lead + order[moved], c0:]
        r[lead : lead + k, c0:] = x
        x = x[:, c1 - c0 :]
        for s in range(0, len(f), _BAND):
            band = r[lead + k + s : lead + k + s + _BAND, c1:]
            prod = f[s : s + _BAND] @ x
            band[...] = _reduce(np.subtract(band, prod, out=prod), q)
    return pcols


def _echelon(r: np.ndarray, q: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Eliminate the store r, an unsigned array with entries in [0, q), in
    place, in panels of `_BLOCK` columns: (pivot column list, free columns,
    R[:rank, free]) of its RREF R, the last in the float dtype the
    elimination multiplies in. r is left holding the echelon form U, in which
    each panel's pivot rows hold an identity block in its pivot columns, with
    every entry still in [0, q).
    """
    rows, cols = r.shape
    ft = _float_dtype(r.shape, q)
    pivots: list[int] = []
    panels: list[tuple[int, int]] = []  # each panel's pivot rows in U
    lead = 0
    for c0 in range(0, cols, _BLOCK):
        if lead == rows:
            break
        c1 = min(c0 + _BLOCK, cols)
        pcols = _panel_step(r, q, ft, lead, c0, c1)
        k = len(pcols)
        if k:
            pivots.extend((c0 + pcols).tolist())
            panels.append((lead, lead + k))
            lead += k
        r[lead:, c0:c1] = 0
    free = np.setdiff1d(np.arange(cols), pivots)
    solved = np.empty((lead, len(free)), dtype=ft)
    for s, e in reversed(panels):
        prod = r[s:e, pivots[e:]].astype(ft) @ solved[e:]
        solved[s:e] = _reduce(np.subtract(r[s:e, free], prod, out=prod), q)
    return pivots, free, solved


def rref(a: np.ndarray, q: int) -> tuple[list[int], np.ndarray]:
    """Reduced row-echelon form R over GF(q), as (pivot column list,
    R[:rank, free]): the int64 block of R on its non-pivot columns. The rest
    of R is zero but for a unit entry per pivot row in its pivot column.
    a is not modified.
    """
    r = _load(a, q)
    pivots, _, solved = _echelon(r, q)
    del r
    return pivots, solved.astype(np.int64)


def nullspace(a: np.ndarray, q: int) -> np.ndarray:
    """Basis of {x : a x = 0} over GF(q), one basis vector per row:
    x_free = I and x_pivots = -R[:rank, free]^T, with R[:rank, free] from
    `rref`."""
    pivots, solved = rref(a, q)
    cols = np.shape(a)[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -solved.T % q
    return basis
