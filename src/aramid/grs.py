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
Massey bound would give L* >= N'+1-L > floor(l/2), so it is already final.

The certificate asks three things of a row: deg Lambda = L <= l/2; L + b
roots of psi = Lambda * Gamma among the inverse locators, which are then
simple, so psi' is nonzero at them; and deg Omega < L + b, where Omega =
Lambda * xi = psi * S mod X^(d-1) is computed to d - 1 terms. Given the
roots, the last holds exactly when the Forney word e, the partial fractions
of Omega / psi, has syndrome S: its syndrome series satisfies S_e psi =
Omega_e mod X^(d-1) with deg Omega_e < deg psi, and psi(0) = 1 makes psi a
unit mod X^(d-1). So a certified row is corrected to a word of its coset
at 2a + b <= 2L + b < d from it, and a row beyond the radius fails the
certificate whatever the loop returns.

Work that cannot change the result is skipped, so each output is the one
the full computation gives:
- a Berlekamp-Massey step whose discrepancy is zero on every row leaves
  Lambda, B, L and B's discrepancy as they are (B is shifted by X on every
  step through its offset alone), so its update is not run; the others make
  15 numpy calls on degrees up to max L, to a limit recomputed when reached;
- with no erasure Gamma = 1: xi and the Berlekamp-Massey sequences are S
  and psi is Lambda, as a product by a monic 1 multiplies nothing;
- psi = Lambda * Gamma is built only to the certified width w =
  max(L + b) + 1 over the rows still certified, and psi' to w - 1; the
  Forney values read Omega to w - 1 terms, all it has on certified rows;
- error values are computed only at the roots of psi on certified rows,
  the only positions where a certified row is corrected;
- the erasure locator Gamma is built in int64 without reducing after each
  factor (1 - x X). With coefficients in [0, q) after a reduction, each
  factor multiplies their bound by at most q, so after p more factors they
  are below (q-1) q**p < q**(p+1) < 2**62 for p = floor(62/log2(q+1)) - 1
  (7 for q = 131, 2 for q = 65521), and Gamma is reduced every p factors.

The tables that the products read are stored once, in float64 (exact, as
in `linalg._mul_mod`): the transposed parity check H.T, the operand of
every syndrome product, and the inverse-power table of the Chien search
and Forney values. The public methods take field values by the one rule of
`gf`; the kernel's own steps, and package code holding values in [0, q),
call their private bodies `_syndromes`, `_sys_encode` and `_sys_project`. A
target syndrome t puts a row in the coset {v : H v = t}: its errata have
syndrome S = H y - t, so a certified row is corrected to a word with
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
        pts = field.elements(eval_points).copy()
        n = len(pts)
        mults = np.ones(n, np.int64) if col_mults is None else field.elements(col_mults).copy()
        if n > q:
            raise ValueError(f"length {n} exceeds field size {q}")
        if not 0 < k <= n:
            raise ValueError(f"dimension must satisfy 0 < k <= {n}, got {k}")
        if np.any(np.diff(np.sort(pts)) == 0):
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
        msg = self.field.elements(msg)
        if msg.shape[-1] != self.k:
            raise ValueError(f"message length must be {self.k}, got {msg.shape[-1]}")
        return self._sys_encode(msg)

    def _sys_encode(self, msg: np.ndarray) -> np.ndarray:
        return np.concatenate([msg, linalg._mul_mod(msg, self._redundancy, self.field.q)], axis=-1)

    def sys_project(self, codeword) -> np.ndarray:
        """Inverse of sys_encode: a new array of the systematic positions of
        a word (length,) or a stack of them (rows, length)."""
        codeword = self.field.elements(codeword)
        if codeword.shape[-1:] != (self.length,):
            raise ValueError(f"word length must be {self.length}, got shape {codeword.shape}")
        return self._sys_project(codeword)

    def _sys_project(self, codeword: np.ndarray) -> np.ndarray:
        return codeword[..., : self.k].copy()

    # -- syndromes -------------------------------------------------------

    def parity_check(self) -> np.ndarray:
        """Canonical (alternant-form) parity-check matrix, (d-1) x length."""
        return self._parity.T.astype(np.int64)

    def syndromes(self, words: np.ndarray) -> np.ndarray:
        """Syndrome rows for one word (shape (n,)) or a batch (m, n)."""
        return self._syndromes(self.field.elements(words))

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        return linalg._mul_mod(words, self._parity, self.field.q)

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
        synd = self._syndromes(out)
        if target is not None:
            target = self.field.elements(target)
            if target.shape != synd.shape:
                raise ValueError(f"target must be a stack of shape (m, {self.dmin - 1})")
            synd = (synd - target) % q
        ok = b < self.dmin
        # clean rows without erasures are already words of their coset
        rows = np.flatnonzero(ok & ((b > 0) | synd.any(axis=1)))
        if len(rows):
            era_rows = None if era is None else era[rows]
            out[rows], ok[rows] = self._solve(out[rows], era_rows, b[rows], synd[rows])
        return out, ok

    def _solve(self, filled, era, b, synd):
        """Key equation, Chien search and Forney values for rows with work,
        correcting `filled` in place.

        Every step runs on all rows at once; the certificate (deg Lambda = L
        within the radius, deg psi roots, deg Omega < deg psi; module
        docstring) is checked per row. psi and psi' stop at the certified
        width, and error values are computed and written only at the roots
        of rows that pass the certificate. `era` is None when no row has an
        erasure."""
        q = self.field.q
        nsyn = self.dmin - 1
        inv = _inverses(q)
        m, n = filled.shape

        # xi = Gamma * S mod X^(d-1) and the sequences xi[b:]; S if Gamma = 1
        gamma = _erasure_locator(self._locators, era, b, q)
        xi = zeta = _mul_trunc(gamma, synd, nsyn, q)
        length = nsyn - b
        if gamma.shape[1] > 1:
            pos = np.minimum(b[:, None] + np.arange(nsyn), nsyn - 1)
            zeta = xi.ravel()[pos + np.arange(0, m * nsyn, nsyn)[:, None]]
        lam, el = _berlekamp_massey(zeta, length, q)
        ok = (lam[np.arange(m), el] != 0) & (2 * el <= length)  # as deg Lambda <= L

        # errata locator psi = Lambda * Gamma, of degree L + b < w where ok
        w = int((el + b)[ok].max(initial=0)) + 1
        lam = lam[:, : int(el[ok].max(initial=0)) + 1]  # rows beyond it are not read
        psi = _mul_trunc(*sorted((gamma, lam), key=lambda p: p.shape[1]), w, q)
        roots = _is_zero_mod(psi.astype(np.float64) @ self._inv_pow[:w], q)
        ok &= roots.sum(axis=1) == el + b
        omega = _mul_trunc(lam, xi, nsyn, q)  # psi * S = Lambda * xi mod X^(d-1)
        ok &= ~np.any(omega.astype(bool) & (np.arange(nsyn) >= (el + b)[:, None]), axis=1)

        # Forney at the roots r, i of certified rows:
        # e_i = (-x_i / u_i) * Omega(1/x_i) / psi'(1/x_i), psi'(1/x_i) != 0
        r, i = np.divmod(np.flatnonzero(roots & ok[:, None]), n)
        dpsi = psi[:, 1:] * np.arange(1, w) % q
        # exact float64 products as in `linalg._mul_mod`, reduced at the roots
        pows = self._inv_pow[: w - 1]
        num, den = (
            (p.astype(np.float64) @ pows)[r, i].astype(np.int64) % q
            for p in (omega[:, : w - 1], dpsi)
        )
        err = self._forney[i] * num % q * inv[den] % q
        filled[r, i] = (filled[r, i] - err) % q
        return filled, ok


def _is_zero_mod(x: np.ndarray, q: int) -> np.ndarray:
    """x == 0 mod q for integers in float64 below 2**53 in absolute value,
    dividing x in place: exact as in `linalg._reduce`."""
    x /= q
    return np.floor(x) == x


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

    Lambda and X*B/b (b = B's discrepancy) are held coefficient-major, and
    X*B/b's constant term sits at row `steps - k` of `xb` instead of moving.
    Both have degree at most max L where the discrepancy is nonzero (Massey
    1969), so a step reads and updates only those rows: the discrepancy,
    reduced in place, the grow mask from one logical_and, Lambda and X*B/b
    in place, and L by np.where when a row grows. The loop stops once N >=
    min(L + length//2, length) on every row (module docstring), a limit
    recomputed only when k reaches it, as L only grows. A row past its own
    length reads zeros and stays put.
    """
    m = len(length)
    inv = _inverses(q)
    steps = int(length.max())
    rev = np.array(zeta[:, :steps][:, ::-1].T, order="C")
    lam = np.zeros((steps + 2, m), dtype=np.int64)
    lam[0] = 1
    xb = np.zeros((steps + 2, m), dtype=np.int64)  # X*B/b, b = B's discrepancy
    xb[steps + 1] = 1
    el = np.zeros(m, dtype=np.int64)
    half = length // 2
    ends = set(length.tolist())
    deg = 1  # Lambda's degree is at most max L, so rows from here on are zero
    k = limit = 0
    while k < limit or k < (limit := int(np.minimum(el + half, length).max())):
        if k in ends:  # these rows' sequences end: they read zeros from here
            rev[:, length == k] = 0
        top = steps - k
        # rev[top - 1 + i] is term k - i
        disc = np.einsum("ij,ij->j", lam[:deg], rev[top - 1 : top - 1 + deg])
        disc %= q
        if np.count_nonzero(disc):  # a silent step changes nothing (module docstring)
            grow = np.logical_and(el <= k // 2, disc)
            grew = np.count_nonzero(grow)
            if grew:
                el = np.where(grow, k + 1 - el, el)
                deg = int(el.max()) + 1
            live, shift = lam[:deg], xb[top : top + deg]
            shifted = shift * disc  # below q**3 < 2**63, as q <= 65521
            if grew:
                np.copyto(shift, live * inv[disc], where=grow)
            live -= shifted
            live %= q
        k += 1
    return lam.T, el


def _erasure_locator(
    locators: np.ndarray, era: np.ndarray, b: np.ndarray, q: int
) -> np.ndarray:
    """Gamma = prod (1 - x_i X) over the erased positions i of each row of
    `era` (b[r] of them in row r; None if b is 0), ascending coefficients.

    Built coefficient-major, one vector step per factor, and reduced only
    every p = floor(62 / log2(q + 1)) - 1 factors (module docstring)."""
    m, bmax = len(b), int(b.max())
    gamma = np.zeros((bmax + 1, m), dtype=np.int64)
    gamma[0] = 1
    if bmax:
        row, col = np.divmod(np.flatnonzero(era), era.shape[1])  # row-major
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
    """Row-wise products a[r] * b[r] mod X^width (ascending coeffs) of a monic a
    and b in [0, q): one batched product of a's columns with Toeplitz views
    of b padded by zeros. For a = 1 the product is b, and nothing is multiplied."""
    m, k = len(b), max(min(a.shape[1], width), 1)
    pad = np.zeros((m, k - 1 + width), dtype=np.int64)
    pad[:, k - 1 : k - 1 + min(b.shape[1], width)] = b[:, :width]
    if k == 1:
        return pad
    # a view of pad: toeplitz[r, j, t] = pad[r, k - 1 + j - t] = b[r, j - t]
    toeplitz = np.ndarray((m, width, k), np.int64, pad, (k - 1) * 8, (pad.strides[0], 8, -8))
    return (toeplitz @ a[:, :k, None])[..., 0] % q
