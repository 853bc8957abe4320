"""Seeded corruption model for decoder trials.

Error positions are drawn uniformly without replacement among the non-erased
positions, erased symbols are marked (never encoded as field values), and an
erroneous symbol is resampled uniformly from Phi minus the true symbol.
Per-trial generators are derived from (seed, trial index), so a trial's
stream depends on nothing but its seed and index.
"""

from __future__ import annotations

import numpy as np

from .tanner import PhiWord


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _inject(
    rng: np.random.Generator,
    x: np.ndarray,
    t: int,
    rho: int,
    q: int,
    support: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Resample t rows of x away from their true values and mark rho rows
    erased; returns (values, erased)."""
    n, width = x.shape
    if t < 0 or rho < 0:
        raise ValueError(f"t = {t} and rho = {rho} must be non-negative")
    if t + rho > n:
        raise ValueError(f"t + rho = {t + rho} exceeds n = {n}")
    if support is None:
        support = rng.choice(n, size=t + rho, replace=False)
    else:
        support = np.asarray(support)
        if len(support) != t + rho:
            raise ValueError("support size must equal t + rho")
    err_pos = support[:t]
    era_pos = support[t:]
    values = x.copy()
    erased = np.zeros(n, dtype=bool)
    erased[era_pos] = True
    for p in err_pos:
        while True:
            sym = rng.integers(0, q, size=width)
            if not np.array_equal(sym, x[p]):
                values[p] = sym
                break
    return values, erased


def corrupt_phi(
    rng: np.random.Generator,
    x: np.ndarray,
    t: int,
    rho: int,
    q: int,
    support: np.ndarray | None = None,
) -> PhiWord:
    """Apply t symbol errors and rho erasures to a clean Phi matrix.

    `support` optionally pins the positions used (errors first, then
    erasures) for adversarial fixtures; otherwise positions are uniform.
    """
    return PhiWord(*_inject(rng, x, t, rho, q, support))


def corrupt_pairs(
    rng: np.random.Generator,
    x: np.ndarray,
    t: int,
    rho: int,
    q: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair-alphabet channel: t symbol errors and rho atomic pair erasures.

    Returns (values, erased1, erased2); both halves of an erased symbol are
    marked together.
    """
    values, erased = _inject(rng, x, t, rho, q, None)
    return values, erased, erased.copy()


def corrupt_inner_rows(
    rng: np.random.Generator,
    matrix: np.ndarray,
    budget: int,
    d_inner: int,
    q: int,
) -> np.ndarray:
    """Random base-field error pattern with sum_i min(2 e_i, d_inner) <= budget."""
    m = matrix.copy()
    n, width = m.shape
    rows = rng.permutation(n)
    spent = 0
    for r in rows:
        if spent >= budget:
            break
        room = budget - spent
        max_e = min(width, room // 2 if room < d_inner else width)
        if max_e < 1:
            break
        e = int(rng.integers(1, max_e + 1))
        cost = min(2 * e, d_inner)
        if spent + cost > budget:
            continue
        spent += cost
        pos = rng.choice(width, size=e, replace=False)
        # one draw of e offsets takes the stream of e scalar draws
        m[r, pos] = (m[r, pos] + rng.integers(1, q, size=e)) % q
    return m
