"""Generalized Reed-Solomon codes with bounded-distance error-erasure decoding.

A codeword is (v_i * p(a_i))_{i < length} for a polynomial p of degree < k,
evaluation points a_i pairwise distinct and column multipliers v_i nonzero.
These codes are MDS: d = length - k + 1. The decoder is syndrome-based
(Berlekamp-Massey key equation, Chien search, Forney values), runs on a whole
stack of words at once, and rejects every row for which it cannot certify a
codeword within the radius 2*errors + erasures < d.

Berlekamp-Massey runs on the l = d-1-b modified syndromes of a row with b
erasures, and stops after N terms once N >= min(L + floor(l/2), l) on every
row, L being the current register length (Massey's stop rule). The result is
the one the full loop gives: a row within the radius has a locator of length
L* <= floor(l/2), and if the current register failed at a later term N' its
Massey bound would give L* >= N'+1-L > floor(l/2), so it is already final. A
row beyond the radius fails the certificate (the target syndrome after
correction, 2a + b < d) whatever the loop returns, since passing it puts a
codeword within the radius.

Work that cannot change the result is skipped, so each output is the one
the full computation gives:
- a Berlekamp-Massey step whose discrepancy is zero on every row leaves
  Lambda, B, L and B's discrepancy as they are (B is shifted by X on every
  step through its offset alone), so its update is not run;
- psi = Lambda * Gamma is built only to the certified width w =
  max(L + b) + 1 over the rows still certified, and Omega and psi' to
  w - 1: within the radius deg Omega < deg psi = L + b (Forney), and a row
  beyond it fails the certificate whatever its Omega;
- error values are computed only at the roots of psi on rows still
  certified, the only positions where a certified row is corrected, and
  the final syndrome check runs only on those rows;
- the erasure locator Gamma is built in int64 without reducing after each
  factor (1 - x X). With coefficients in [0, q) after a reduction, each
  factor multiplies their bound by at most q, so after p more factors they
  are below (q-1) q**p < q**(p+1) < 2**62 for p = floor(62/log2(q+1)) - 1
  (7 for q = 131, 2 for q = 65521), and Gamma is reduced every p factors.

The tables that the products read are stored once, in float64 (exact, as
in `linalg._mul_mod`): the transposed parity check H.T, the operand of
every syndrome product, and the inverse-power table of the Chien search
and Forney values. The public methods take field values by the one rule of
`gf`; the kernel's own steps pass values already in [0, q). A target
syndrome t puts a row in the coset
{v : H v = t}: its errata have syndrome H y - t, and the certificate asks
H v = t, which is H v = 0 for the code itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg
from .gf import PrimeField

_BLOCK = 256  # positions per block of _prod_others and _powers


class GrsCode:
    """A [length, k, length-k+1] generalized Reed-Solomon code over GF(q)."""

    def __init__(self, field: PrimeField, k: int, eval_points, col_mults=None):
        self.field = field
        q = field.q
        pts = np.asarray(eval_points, dtype=np.int64) % q
        if col_mults is None:
            col_mults = np.ones(len(pts), dtype=np.int64)
        mults = np.asarray(col_mults, dtype=np.int64) % q
        n = len(pts)
        if n > q:
            raise ValueError(f"length {n} exceeds field size {q}")
        if not 0 < k <= n:
            raise ValueError(f"dimension must satisfy 0 < k <= {n}, got {k}")
        if len(np.unique(pts)) != n:
            raise ValueError("evaluation points must be pairwise distinct")
        if len(mults) != n or np.any(mults == 0):
            raise ValueError("column multipliers must be nonzero, one per position")
        self.length = n
        self.k = k
        self.dmin = n - k + 1
        self.eval_points = pts
        self.col_mults = mults

        # Locators must be nonzero for the key equation; shifting the points
        # by a common s leaves the code and the dual multipliers unchanged.
        shift = 0
        while np.any((pts + shift) % q == 0):
            shift += 1
            if shift > q:
                raise ValueError("cannot find nonzero locators (length == q)")
        self._locators = (pts + shift) % q
        x = self._locators
        prod, head = _prod_others(x, k, q)
        inv = _inverses(q)
        self._dual_mults = inv[mults * prod % q]
        # Forney factor -x_i / u_i = -x_i * v_i * prod_i
        self._forney = (-x * mults % q) * prod % q
        # Systematic generator [I | P] by Lagrange interpolation through the
        # first k points: P[i, j] = v_j A_j / (v_i B_i (a_j - a_i)), where
        # head gives A_j for j >= k and B_i for i < k. Built before the other
        # tables, so that its temporaries do not add to theirs, and kept in
        # float64, the dtype `_mul_mod` multiplies by; (q-1)**3 < 2**63.
        p = inv[(x[k:] - x[:k, None]) % q]
        p *= mults[k:] * head[k:] % q
        p *= inv[mults[:k] * head[:k] % q][:, None]
        p %= q
        self._redundancy = p.astype(np.float64)
        del p
        nsyn = self.dmin - 1
        # Each table is laid out as the right operand of its products, so
        # that BLAS reads it as it is stored. The transposed alternant parity
        # check H.T[i, l] = u_i * x_i^l (rank n - k), for syndromes:
        self._parity = np.empty((n, nsyn), dtype=np.float64)
        _powers(x, q, self._parity.T, first=self._dual_mults)
        # x_i^-m for m <= d - 1, row m, for Chien search and Forney values
        self._inv_pow = np.empty((nsyn + 1, n), dtype=np.float64)
        _powers(inv[x], q, self._inv_pow)

    @property
    def rate(self) -> float:
        return self.k / self.length

    @property
    def rel_dist(self) -> float:
        return self.dmin / self.length

    def __repr__(self) -> str:
        return f"GrsCode([{self.length},{self.k},{self.dmin}] over GF({self.field.q}))"

    # -- encoding ---------------------------------------------------------

    def sys_encode(self, msg) -> np.ndarray:
        """[m | m P] for a message m (k,) or a stack of them (rows, k)."""
        q = self.field.q
        msg = self.field.elements(msg)
        if msg.shape[-1] != self.k:
            raise ValueError(f"message length must be {self.k}, got {msg.shape[-1]}")
        return np.concatenate([msg, linalg._mul_mod(msg, self._redundancy, q)], axis=-1)

    def sys_project(self, codeword) -> np.ndarray:
        """Inverse of sys_encode: a new array of the systematic positions."""
        return self.field.elements(codeword)[..., : self.k].copy()

    # -- syndromes -------------------------------------------------------

    def parity_check(self) -> np.ndarray:
        """Canonical (alternant-form) parity-check matrix, (d-1) x length."""
        return self._parity.T.astype(np.int64)

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """Syndrome rows for one word (shape (n,)) or a batch (m, n)."""
        return linalg._mul_mod(self.field.elements(words), self._parity, self.field.q)

    # -- decoding -----------------------------------------------------------

    def decode_ee(self, words, erased=None, target=None) -> tuple[np.ndarray, np.ndarray]:
        """Batched error-erasure decoding: correct any row with 2a + b < d.

        `words` is a stack (m, length) with an optional bool mask `erased`
        of the same shape (or one (length,) mask shared by every row), and
        an optional stack `target` (m, d - 1) of syndromes that puts row r
        in the coset {v : H v = target[r]} (module docstring), both of field
        values (`gf`). Returns (decoded, ok): where ok[r] holds, decoded[r]
        is the unique word of row r's coset (of the code without a target)
        within 2a + b < d of row r; other rows hold the zero-filled word.
        """
        q = self.field.q
        values = self.field.elements(words)
        if values.ndim != 2 or values.shape[1] != self.length:
            raise ValueError(f"words must be a stack of shape (m, {self.length})")
        era = None
        if erased is not None and np.any(erased):
            era = np.broadcast_to(np.asarray(erased, dtype=bool), values.shape)
        out = values.copy() if era is None else np.where(era, 0, values)
        b = np.zeros(len(out), dtype=np.int64) if era is None else era.sum(axis=1)
        synd = linalg._mul_mod(out, self._parity, q)
        goal = np.zeros_like(synd) if target is None else self.field.elements(target)
        if goal.shape != synd.shape:
            raise ValueError(f"target must be a stack of shape (m, {self.dmin - 1})")
        if target is not None:
            synd = (synd - goal) % q
        ok = b < self.dmin
        # clean rows without erasures are already words of their coset
        rows = np.flatnonzero(ok & ((b > 0) | synd.any(axis=1)))
        if len(rows):
            era_rows = None if era is None else era[rows]
            out[rows], ok[rows] = self._solve(out[rows], era_rows, b[rows], synd[rows], goal[rows])
        return out, ok

    def _solve(self, filled, era, b, synd, target):
        """Key equation, Chien search and Forney values for rows with work.

        Every step runs on all rows at once; the certificate (deg Lambda = L
        within the radius, deg psi roots, nonzero Forney denominators,
        syndrome `target` after correction, 2a + b < d) is checked per row.
        psi, Omega and psi' stop at the certified width, error values are
        computed only at the roots of rows still certified, and only those
        rows get the final syndrome check. `era` is None when no row has an
        erasure."""
        q = self.field.q
        nsyn = self.dmin - 1
        inv = _inverses(q)
        m, n = filled.shape

        gamma = _erasure_locator(self._locators, era, b, q)
        xi = _mul_trunc(gamma, synd, nsyn, q)  # Gamma * S mod X^(d-1)

        # Berlekamp-Massey on xi[b:], length d-1-b per row
        length = nsyn - b
        pos = np.minimum(b[:, None] + np.arange(nsyn), nsyn - 1)
        zeta = np.take_along_axis(xi, pos, axis=1)
        lam, el = _berlekamp_massey(zeta, length, q)
        deg = lam.shape[1] - 1 - np.argmax(lam[:, ::-1] != 0, axis=1)
        ok = (deg == el) & (2 * el <= length)

        # errata locator psi = Lambda * Gamma, of degree L + b < w where ok
        w = int((el + b)[ok].max(initial=0)) + 1
        lam = np.where(ok[:, None], lam[:, : int(el[ok].max(initial=0)) + 1], 0)
        lam[:, 0] = 1
        psi = _mul_trunc(gamma, lam, w, q)
        roots = linalg._mul_mod(psi, self._inv_pow[:w], q) == 0
        ok &= roots.sum(axis=1) == el + b

        # Forney at the roots r, i of certified rows:
        # e_i = (-x_i / u_i) * Omega(1/x_i) / psi'(1/x_i)
        r, i = np.divmod(np.flatnonzero(roots & ok[:, None]), n)
        omega = _mul_trunc(lam, xi, w - 1, q)  # psi * S = Lambda * xi mod X^(d-1)
        dpsi = psi[:, 1:] * np.arange(1, w) % q
        # exact float64 products as in `linalg._mul_mod`, reduced at the roots
        pows = self._inv_pow[: w - 1]
        num, den = (
            linalg._reduce((p.astype(np.float64) @ pows)[r, i], q).astype(np.int64)
            for p in (omega, dpsi)
        )
        ok[r[den == 0]] = False
        keep = ok[r]
        r, i = r[keep], i[keep]
        err = self._forney[i] * num[keep] % q * inv[den[keep]] % q
        corrected = filled.copy()
        corrected[r, i] = (filled[r, i] - err) % q

        rows = np.flatnonzero(ok)
        synd = linalg._mul_mod(corrected[rows], self._parity, q)
        ok[rows] = ~(synd != target[rows]).any(axis=1)
        changed = err != 0 if era is None else (err != 0) & ~era[r, i]
        a = np.bincount(r, weights=changed, minlength=m)
        ok &= 2 * a + b < self.dmin
        return np.where(ok[:, None], corrected, filled), ok


def _powers(base: np.ndarray, q: int, out: np.ndarray, first=None) -> None:
    """Fill the float64 array `out` with out[j, i] = first[i] * base[i]**j
    mod q (first = 1 if not given; base and first reduced mod q). float64
    is the dtype the kernel multiplies by, exact since q - 1 < 2**53.

    Each block of _BLOCK positions runs in int64, by doubling: rows [m, 2m)
    of its (rows, block) array are rows [0, m) times base**m, so
    ceil(log2(rows)) array products. Only that array is held beside `out`."""
    count, n = out.shape
    for s in range(0, n if count else 0, _BLOCK):
        step = base[s : s + _BLOCK]  # base**m
        blk = np.empty((count, len(step)), dtype=np.int64)
        blk[0] = 1 if first is None else first[s : s + _BLOCK]
        m = 1
        while m < count:
            top = min(2 * m, count)
            np.multiply(blk[: top - m], step, out=blk[m:top])
            blk[m:top] %= q
            step = step * step % q
            m = top
        out[:, s : s + _BLOCK] = blk


def _prod_others(x: np.ndarray, k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """prod_{j != i} (x_i - x_j) and prod_{j < k, j != i} (x_i - x_j) mod q
    for every i, in one pass over column blocks of the difference matrix
    d[j, i] = x_i - x_j, so that the n x n matrix is never held. A block's
    first k rows fold into row k - 1, and then rows k - 1 on into it."""
    n = len(x)
    full = np.empty(n, dtype=np.int64)
    head = np.empty(n, dtype=np.int64)
    for s in range(0, n, _BLOCK):
        cols = np.arange(s, min(s + _BLOCK, n))
        d = x[cols] - x[:, None]
        d %= q
        d[cols, cols - s] = 1
        head[cols] = _fold(d[k - 1 :: -1], q)
        full[cols] = _fold(d[k - 1 :], q)
    return full, head


def _fold(d: np.ndarray, q: int) -> np.ndarray:
    """The product of d's rows mod q, folded in place into row 0: each
    halving multiplies the last half of the live rows into the first half,
    so ceil(log2(rows)) array products."""
    rows = len(d)
    while rows > 1:
        h = rows // 2
        # rows [rows - h, rows) fold into [0, h); with rows odd, row h stays
        d[:h] *= d[rows - h : rows]
        d[:h] %= q
        rows -= h
    return d[0]


@functools.lru_cache(maxsize=None)
def _inverses(q: int) -> np.ndarray:
    """Table of a^(q-2) mod q for a in [0, q); entry 0 maps to 0."""
    inv = np.ones(q, dtype=np.int64)
    base = np.arange(q, dtype=np.int64)
    e = q - 2
    while e:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    inv[0] = 0  # for q = 2 the exponent q - 2 = 0 leaves entry 0 at 1
    inv.flags.writeable = False  # shared by every caller through the cache
    return inv


def _berlekamp_massey(
    zeta: np.ndarray, length: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Massey on every row at once: row r's sequence is
    zeta[r, :length[r]]. Returns the connection polynomials (m, width),
    ascending, and the register lengths L.

    Lambda and X*B are held coefficient-major, and step k touches only the
    degrees below k + 2, since the higher ones are still zero. X*B is shifted
    by X on every row at every step, so instead of moving its coefficients
    its constant term sits at row `steps - k` of `xb`. The loop stops once
    N >= min(L + length//2, length) on every row after N terms (see the
    module docstring); a row whose own sequence ends earlier stays put.
    """
    m = len(length)
    inv = _inverses(q)
    steps = int(length.max())
    rev = np.ascontiguousarray(zeta[:, :steps][:, ::-1].T)
    lam = np.zeros((steps + 2, m), dtype=np.int64)
    lam[0] = 1
    xb = np.zeros((steps + 2, m), dtype=np.int64)
    xb[steps + 1] = 1
    el = np.zeros(m, dtype=np.int64)
    binv = np.ones(m, dtype=np.int64)  # 1/B's discrepancy
    half = length // 2
    limit = int(half.max())
    k = 0
    while k < limit:
        top = steps - k
        # rev[top - 1 + i] is term k - i
        disc = np.einsum("ij,ij->j", lam[: k + 1], rev[top - 1 :]) % q
        disc[k >= length] = 0
        if disc.any():  # a silent step changes nothing (module docstring)
            grow = (disc != 0) & (el <= k // 2)
            live = lam[: k + 2]
            upd = live - disc * binv % q * xb[top:]
            np.copyto(xb[top:], live, where=grow)
            np.remainder(upd, q, out=live)
            if grow.any():
                el[grow] = k + 1 - el[grow]
                binv[grow] = inv[disc[grow]]
                limit = int(np.minimum(el + half, length).max())
        k += 1
    return lam.T, el


def _erasure_locator(
    locators: np.ndarray, era: np.ndarray, b: np.ndarray, q: int
) -> np.ndarray:
    """Gamma = prod (1 - x_i X) over the erased positions i of each row of
    `era` (b[r] of them in row r), ascending coefficients in columns.

    Built coefficient-major, one vector step per factor, and reduced only
    every p = floor(62 / log2(q + 1)) - 1 factors (module docstring)."""
    m, bmax = len(b), int(b.max())
    gamma = np.zeros((bmax + 1, m), dtype=np.int64)
    gamma[0] = 1
    if bmax:
        row, col = np.nonzero(era)  # row-major: each row's in order
        xs = np.zeros((bmax, m), dtype=np.int64)  # 0 past a row's erasures
        xs[np.arange(len(row)) - (np.cumsum(b) - b)[row], row] = locators[col]
        period = int(62 // math.log2(q + 1)) - 1
        for j in range(bmax):
            gamma[1 : j + 2] -= xs[j] * gamma[: j + 1]
            if j % period == period - 1:
                gamma[1 : j + 2] %= q
        gamma %= q
    return gamma.T


def _mul_trunc(a: np.ndarray, b: np.ndarray, width: int, q: int) -> np.ndarray:
    """Row-wise polynomial products a[r] * b[r] mod X^width (ascending coeffs),
    looping over the narrower operand."""
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    out = np.zeros((len(a), width), dtype=np.int64)
    for j in range(min(a.shape[1], width)):
        w = min(b.shape[1], width - j)
        out[:, j : j + w] += a[:, j : j + 1] * b[:, :w]
    return out % q
