"""Shift-set annealer with a rescan and `Generator.choice` on every move,
kept as a test oracle for `bigraph.anneal_circulant_bipartite`.

This is the move loop that the list-bookkeeping loop replaced, unchanged
except that it returns the best shift set it found instead of building the
graph: the connectivity and gamma checks that follow the search live in the
library function only.
"""

from __future__ import annotations

import math

import numpy as np


def anneal_shifts(
    n: int,
    delta: int,
    seed: int,
    gamma_target: float | None = None,
    iters: int = 20000,
) -> list[int]:
    """Best shift set of the search, as a sorted list."""
    if not (1 <= delta <= n and n > 1):
        raise ValueError(f"need 1 <= delta <= n and n > 1, got delta={delta} n={n}")
    rng = np.random.default_rng(seed)
    ind = np.zeros(n)
    ind[rng.choice(n, size=delta, replace=False)] = 1.0

    def cost(v) -> float:
        f = np.abs(np.fft.fft(v))
        return float(f[1:].max())

    cur = cost(ind)
    best, best_ind = cur, ind.copy()
    target_lam = None if gamma_target is None else gamma_target * delta
    t0, t1 = 1.0, 0.01
    for it in range(iters):
        if target_lam is not None and best < target_lam:
            break
        temp = t0 * (t1 / t0) ** (it / iters)
        ones = np.flatnonzero(ind == 1)
        zeros = np.flatnonzero(ind == 0)
        if zeros.size == 0:
            break
        i = int(rng.choice(ones))
        j = int(rng.choice(zeros))
        ind[i], ind[j] = 0.0, 1.0
        c = cost(ind)
        if c <= cur or rng.random() < math.exp(-(c - cur) / temp):
            cur = c
            if c < best:
                best, best_ind = c, ind.copy()
        else:
            ind[i], ind[j] = 1.0, 0.0
    return np.flatnonzero(best_ind).tolist()
