"""Scalar GRS oracles: the error-erasure decoder, the table construction and
the monomial encoder.

`decode_ee` is the one-word-at-a-time syndrome decoder (Berlekamp-Massey key
equation, Chien search, Forney values) that `GrsCode.decode_ee` replaced.
It reads the code's locators, dual multipliers and inverse-power table and
returns the unique codeword (or word of the target syndrome's coset) with
2a + b < d, or None. It evaluates psi, Omega and psi' over all their
coefficients, where the kernel stops at the certified width.

`tables` is the loop construction of a code's tables that `GrsCode.__init__`
replaced: one pass per shift, position, row and degree, and the systematic
redundancy block from an RREF of the monomial generator.

`encode` evaluates a message's polynomial through the monomial generator
G[j, i] = v_i * a_i^j; `all_codewords` and `min_distance_brute` enumerate a
tiny code through it.

`decode_word` runs the batched kernel on a stack of one word and returns
its codeword or None, the form of the answer `decode_ee` gives here.
"""

from __future__ import annotations

import numpy as np

from linalg_reference import rref_plain

TABLES = ("_locators", "_dual_mults", "_forney", "_parity", "_inv_pow", "_redundancy")


def monomial_generator(q: int, k: int, eval_points, col_mults) -> np.ndarray:
    """G[j, i] = v_i * a_i^j mod q, one row per degree j < k."""
    pts = np.asarray(eval_points, dtype=np.int64) % q
    mults = np.asarray(col_mults, dtype=np.int64) % q
    gen = np.empty((k, len(pts)), dtype=np.int64)
    pw = np.ones(len(pts), dtype=np.int64)
    for j in range(k):
        gen[j] = (mults * pw) % q
        pw = (pw * pts) % q
    return gen


def encode(code, msg) -> np.ndarray:
    """Evaluate the polynomial with coefficient vector msg (or a stack of
    them) at the code's points, times its multipliers."""
    q = code.field.q
    msg = np.asarray(msg, dtype=np.int64) % q
    if msg.shape[-1] != code.k:
        raise ValueError(f"message length must be {code.k}, got {msg.shape[-1]}")
    return msg @ monomial_generator(q, code.k, code.eval_points, code.col_mults) % q


def decode_word(code, values, erased=None):
    """`code.decode_ee` on one word: its codeword, or None when the kernel
    certifies none inside the radius."""
    out, ok = code.decode_ee(np.asarray(values)[None], erased)
    return out[0] if ok[0] else None


def all_codewords(code, limit: int = 10**6) -> np.ndarray:
    """Every codeword, for exhaustive checks on tiny codes."""
    q = code.field.q
    total = q**code.k
    if total > limit:
        raise ValueError(f"enumeration of {total} codewords exceeds limit {limit}")
    return encode(code, np.indices((q,) * code.k).reshape(code.k, total).T)


def min_distance_brute(code, limit: int = 10**6) -> int:
    weights = np.count_nonzero(all_codewords(code, limit), axis=1)
    return int(weights[weights > 0].min())


def tables(q: int, k: int, eval_points, col_mults) -> dict:
    """The tables named in TABLES for the code [len(eval_points), k] over
    GF(q) with the given points and nonzero multipliers. The three that the
    kernel multiplies by are float64, the dtype of its products: the
    redundancy block P of the systematic generator [I | P], the transposed
    parity check H.T (length x (d-1)) and the inverse powers x_i^-m
    ((d x length)); the others are int64."""
    pts = np.asarray(eval_points, dtype=np.int64) % q
    mults = np.asarray(col_mults, dtype=np.int64) % q
    n = len(pts)
    shift = 0
    while np.any((pts + shift) % q == 0):
        shift += 1
    x = (pts + shift) % q
    diff = (x[:, None] - x[None, :]) % q
    np.fill_diagonal(diff, 1)
    prod = np.ones(n, dtype=np.int64)
    for j in range(n):
        prod = (prod * diff[:, j]) % q

    def inv(values):
        return np.array([pow(int(a), q - 2, q) for a in values], dtype=np.int64)

    dual = inv(mults * prod % q)
    nsyn = n - k
    pw = np.ones(n, dtype=np.int64)
    rows = []
    for _ in range(nsyn):
        rows.append((pw * dual) % q)
        pw = (pw * x) % q
    parity = np.array(rows, dtype=np.int64) if rows else np.zeros((0, n), dtype=np.int64)
    xi = inv(x)
    inv_pow = np.ones((nsyn + 1, n), dtype=np.int64)
    for m in range(1, nsyn + 1):
        inv_pow[m] = (inv_pow[m - 1] * xi) % q
    sys_gen, pivots = rref_plain(monomial_generator(q, k, pts, mults), q)
    assert pivots == list(range(k))  # any k GRS columns are independent
    return {
        "_locators": x,
        "_dual_mults": dual,
        "_forney": (-x * mults % q) * prod % q,
        "_parity": np.ascontiguousarray(parity.T, dtype=np.float64),
        "_inv_pow": inv_pow.astype(np.float64),
        "_redundancy": sys_gen[:, k:].astype(np.float64),
    }


def decode_ee(code, values, erased=None, target=None):
    """Error-erasure decoding of one word: correct any pattern with 2a + b < d.
    With a `target` syndrome t the word is decoded in the coset
    {v : H v = t}, from the syndrome H y - t of its errata."""
    q = code.field.q
    values = np.asarray(values, dtype=np.int64) % q
    if values.shape != (code.length,):
        raise ValueError(f"word length must be {code.length}")
    if erased is not None and np.any(erased):
        erased = np.asarray(erased, dtype=bool)
        filled = np.where(erased, 0, values)
        era_pos = np.flatnonzero(erased)
    else:
        erased = None
        filled = values
        era_pos = None
    b = 0 if era_pos is None else len(era_pos)
    d = code.dmin
    if b >= d:
        return None
    if d == 1:
        return filled.copy()
    nsyn = d - 1
    goal = np.zeros(nsyn, dtype=np.int64) if target is None else np.asarray(target) % q
    synd = (code.syndromes(filled) - goal) % q
    if b == 0 and not np.any(synd):
        return filled.copy()

    s_list = [int(v) for v in synd]
    if b > 0:
        gamma = locator_poly(code, era_pos)
        xi = poly_mul_trunc(gamma, s_list, nsyn, q)
        zeta = xi[b:]
    else:
        gamma = [1]
        zeta = s_list

    if any(zeta):
        lam, deg = berlekamp_massey(zeta, q)
        if deg > (nsyn - b) // 2 or len(lam) - 1 != deg:
            return None
    else:
        lam = [1]
    psi = poly_mul(lam, gamma, q)
    roots = find_roots(code, psi)
    if len(roots) != len(psi) - 1:
        return None

    omega = poly_mul_trunc(psi, s_list, nsyn, q)
    dpsi = [(m * c) % q for m, c in enumerate(psi)][1:]  # formal derivative
    corrected = filled.copy()
    for i in roots:
        inv_pows = [int(v) for v in code._inv_pow[:, i]]  # exact floats
        num = 0
        for m, c in enumerate(omega):
            num = (num + c * inv_pows[m]) % q
        den = 0
        for m, c in enumerate(dpsi):
            den = (den + c * inv_pows[m]) % q
        if den == 0:
            return None
        ev = (-int(code._locators[i]) * num * pow(den, q - 2, q)) % q
        e = (ev * pow(int(code._dual_mults[i]), q - 2, q)) % q
        corrected[i] = (corrected[i] - e) % q

    if np.any(code.syndromes(corrected) != goal):
        return None
    changed = corrected != values
    if erased is not None:
        changed &= ~erased
    a = int(np.count_nonzero(changed))
    if 2 * a + b >= d:
        return None
    return corrected


def locator_poly(code, positions) -> list[int]:
    """Product of (1 - x_i X) over the given positions, ascending coeffs."""
    q = code.field.q
    poly = [1]
    for i in positions:
        xi = int(code._locators[i])
        poly = [
            (poly[m] - (xi * poly[m - 1] if m else 0)) % q
            for m in range(len(poly))
        ] + [(-xi * poly[-1]) % q]
    return poly


def find_roots(code, psi: list[int]) -> list[int]:
    """Positions i with psi(x_i^{-1}) = 0 via the inverse-power table."""
    q = code.field.q
    deg = len(psi) - 1
    vals = (np.array(psi, dtype=np.int64) @ code._inv_pow[: deg + 1].astype(np.int64)) % q
    return [int(i) for i in np.flatnonzero(vals == 0)]


def poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return out


def poly_mul_trunc(a: list[int], b: list[int], n: int, q: int) -> list[int]:
    out = [0] * n
    for i, ai in enumerate(a):
        if ai and i < n:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + ai * bj) % q
    return out


def berlekamp_massey(seq: list[int], q: int) -> tuple[list[int], int]:
    """Shortest LFSR (connection polynomial, ascending) for seq over GF(q)."""
    c = [1]
    b = [1]
    el = 0
    m = 1
    bb = 1
    for n_i, s_n in enumerate(seq):
        disc = s_n
        for i in range(1, el + 1):
            if i < len(c):
                disc = (disc + c[i] * seq[n_i - i]) % q
        if disc == 0:
            m += 1
        elif 2 * el <= n_i:
            t = c[:]
            coef = (disc * pow(bb, q - 2, q)) % q
            c = c + [0] * (len(b) + m - len(c)) if len(b) + m > len(c) else c
            for j, bj in enumerate(b):
                c[j + m] = (c[j + m] - coef * bj) % q
            el = n_i + 1 - el
            b = t
            bb = disc
            m = 1
        else:
            coef = (disc * pow(bb, q - 2, q)) % q
            if len(b) + m > len(c):
                c = c + [0] * (len(b) + m - len(c))
            for j, bj in enumerate(b):
                c[j + m] = (c[j + m] - coef * bj) % q
            m += 1
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, el
