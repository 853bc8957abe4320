"""Scalar channel oracle: `corrupt_inner_rows` as it was first written, with
one offset drawn per corrupted position, against which the vectorised draw
is checked stream for stream."""

from __future__ import annotations

import numpy as np


def corrupt_inner_rows_loop(
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
        for p in pos:
            m[r, p] = (m[r, p] + rng.integers(1, q)) % q
    return m
