"""Circulant bipartite graphs: construction, edge indexing, spectral checks.

A graph is its shift list: slot i joins u to u + s_i (mod n), and the
shifts may repeat (parallel edges). The delta matchings, edge u--v with
slot i when matchings[i][u] == v, are derived from the shifts once. Edge
ids are e = u*delta + i, so the left sub-block of an edge word is a
contiguous reshape and the right sub-block is a precomputed gather. The
graph is connected exactly when n and the shift differences are coprime.
The spectral ratio gamma is the second singular value of the biadjacency
matrix divided by delta; the DFT diagonalises a circulant, so its singular
values are the DFT magnitudes of the shift-count vector: one FFT,
O(n log n) time and O(n) memory. Shifts have one rule, checked in the
constructor that every graph goes through: one row of an integer dtype, each
in [0, n). Bools and floats raise TypeError instead of being cast.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np


class DisconnectedGraphError(RuntimeError):
    """A searched graph came out disconnected, so no code can rest on it."""


@dataclass
class SpectralProfile:
    lambda2: float  # second-largest eigenvalue of X^T X
    gamma: float  # sqrt(lambda2) / delta


def validate_degree(n: int, delta: int) -> None:
    """Raise ValueError unless a delta-regular bipartite graph on n + n
    vertices is admitted: 1 <= delta <= n and n > 1."""
    if not (1 <= delta <= n and n > 1):
        raise ValueError(f"need 1 <= delta <= n and n > 1, got delta={delta} n={n}")


class BipartiteRegularGraph:
    """The delta-regular circulant bipartite graph on n + n vertices with
    the given shifts, kept in their order.

    Raises ValueError unless 1 <= delta <= n, n > 1 and every shift lies in
    [0, n), and when the graph is not connected.
    """

    def __init__(self, n: int, shifts, seed: int | None = None):
        shifts = np.asarray(shifts)
        validate_degree(n, len(shifts))
        if shifts.dtype.kind not in "iu" or shifts.ndim != 1:
            raise TypeError(
                f"shifts must be one row of an integer dtype, got {shifts.dtype} {shifts.shape}"
            )
        outside = shifts[(shifts < 0) | (shifts >= n)]
        if outside.size:
            raise ValueError(f"shift {outside[0]} is outside [0, {n})")
        shifts = shifts.astype(np.int64)
        if _circulant_gcd(n, shifts) != 1:
            raise ValueError("graph is not connected")
        self.n = n
        self.delta = delta = len(shifts)
        self.shifts = shifts
        self.seed = seed
        ref = np.arange(n)
        self.matchings = (ref + shifts[:, None]) % n
        # Hard-wired adjacency: right_edges[v] lists edge ids at v in slot
        # order; slot i at v comes from the left vertex u = v - s_i (mod n).
        self.right_edges = ((ref[:, None] - shifts) % n) * delta + np.arange(delta)
        self._profile: SpectralProfile | None = None

    @property
    def num_edges(self) -> int:
        return self.n * self.delta

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "shifts": self.shifts.tolist(), "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteRegularGraph":
        return cls(obj["n"], obj["shifts"], seed=obj.get("seed"))


# -- spectral measurement ------------------------------------------------------


def gamma(graph: BipartiteRegularGraph) -> SpectralProfile:
    """Measure lambda2(X^T X) on the complement of the all-ones vector.

    Cached on the graph. X is a sum of cyclic shift matrices, so X^T X has
    the eigenvalues |F_k|^2, F the DFT of the shift-count vector, and
    lambda2 is the largest |F_k|^2 over k != 0. The check asserts that F_0,
    the eigenvalue on the all-ones vector, equals delta.
    """
    if graph._profile is not None:
        return graph._profile
    delta = graph.delta
    # the annealer's cost: the same FFT of the same indicator
    mag = np.abs(np.fft.fft(np.bincount(graph.shifts, minlength=graph.n).astype(np.float64)))
    if abs(mag[0] - delta) > 1e-9 * delta:
        raise AssertionError(f"DFT at frequency 0 is {mag[0]}, not delta {delta}")
    sv2 = float(mag[1:].max())  # the second singular value of X
    lam2 = sv2 * sv2
    if lam2 < 1e-12 * delta**2:  # numerically zero relative to the top eigenvalue
        lam2 = sv2 = 0.0
    prof = SpectralProfile(lambda2=lam2, gamma=sv2 / delta)
    graph._profile = prof
    return prof


def ramanujan_bound(delta: int) -> float:
    return 2.0 * math.sqrt(delta - 1) / delta


# -- constructions --------------------------------------------------------------


def circulant_bipartite(
    n: int, shifts, seed: int | None = None
) -> BipartiteRegularGraph:
    """The graph on the distinct shifts, in ascending order."""
    shifts = np.sort(shifts)
    if np.any(shifts[1:] == shifts[:-1]):
        raise ValueError("shifts must be distinct")
    return BipartiteRegularGraph(n, shifts, seed=seed)


def _circulant_gcd(n: int, shifts) -> int:
    """gcd of n and the shift differences: the circulant graph is connected
    exactly when this is 1."""
    return int(np.gcd.reduce((np.asarray(shifts) - shifts[0]) % n, initial=n))


def anneal_circulant_bipartite(
    n: int,
    delta: int,
    seed: int,
    gamma_target: float | None = None,
    iters: int = 20000,
) -> BipartiteRegularGraph:
    """Search shift sets whose circulant graph has small measured gamma, and
    return the graph of the best set found.

    The singular values of a circulant biadjacency are the DFT magnitudes of
    the shift-set indicator, so the annealing cost is one FFT per move. A
    move swaps a random shift in the set with a random one outside it; it is
    kept when it does not raise the cost, or with Metropolis probability
    exp(-increase / temperature) under a geometric cooling from 1 to 0.01
    over `iters` moves (Kirkpatrick-Gelatt-Vecchi 1983). Annealing promises
    no target: `gamma_target` only stops the search early, once the best
    cost is below gamma_target * delta, and a search that misses it returns
    its best graph all the same. Callers that need a gamma measure the
    returned graph and decide for themselves.

    Each move costs one FFT plus a few scalar steps. The shifts in and out
    of the set are kept as two sorted lists, which change only when a move
    is kept: one `del` and one `bisect.insort` each. A move draws
    `a = rng.integers(len(ones))` and takes `ones[a]` (likewise for
    `zeros`). On a 1-D array, numpy's `Generator.choice(arr)` consumes the
    stream exactly as `integers(len(arr))` does and returns the element at
    that index, and the lists equal the `np.flatnonzero` scans of the
    indicator. So the draws, costs and decisions are those of a search that
    rescans the indicator and calls `choice` on every move; the differential
    test in `tests/test_anneal.py` checks this against that loop. The cost
    is the FFT magnitude spectrum, written by `np.abs` into a fixed buffer;
    `gamma` takes the FFT of the same indicator, so a measured graph shows
    the spectrum the search saw.

    Deterministic given seed. Raises ValueError on a bad shape or a
    negative `iters`, and DisconnectedGraphError, which reports the number
    of moves made, when the best shift set found gives a disconnected graph.
    """
    validate_degree(n, delta)
    if iters < 0:
        raise ValueError(f"iters must not be negative, got {iters}")
    rng = np.random.default_rng(seed)
    ind = np.zeros(n)
    ind[rng.choice(n, size=delta, replace=False)] = 1.0
    ones = np.flatnonzero(ind).tolist()
    zeros = np.flatnonzero(ind == 0).tolist()
    mag = np.empty(n)

    def cost(v) -> float:
        return float(np.abs(np.fft.fft(v), out=mag)[1:].max())

    cur = cost(ind)
    best, best_ind = cur, ind.copy()
    target_lam = None if gamma_target is None else gamma_target * delta
    t0, t1 = 1.0, 0.01
    moves = 0
    for it in range(iters if zeros else 0):  # delta == n leaves nothing to swap
        if target_lam is not None and best < target_lam:
            break
        temp = t0 * (t1 / t0) ** (it / iters)
        a = rng.integers(len(ones))
        b = rng.integers(len(zeros))
        i, j = ones[a], zeros[b]
        ind[i], ind[j] = 0.0, 1.0
        c = cost(ind)
        moves += 1
        if c <= cur or rng.random() < math.exp(-(c - cur) / temp):
            cur = c
            del ones[a], zeros[b]
            insort(ones, j)
            insort(zeros, i)
            if c < best:
                best, best_ind = c, ind.copy()
        else:
            ind[i], ind[j] = 1.0, 0.0
    shifts = np.flatnonzero(best_ind).tolist()
    g = _circulant_gcd(n, shifts)
    if g != 1:
        raise DisconnectedGraphError(
            f"the best {delta} shifts mod {n} found after {moves} moves give a "
            f"disconnected circulant graph: n and every shift difference share "
            f"the factor {g}"
        )
    return circulant_bipartite(n, shifts, seed=seed)


# -- spectral lemma checks -------------------------------------------------------

SLACK = 1e-9  # float tolerance on every lemma inequality


def _chi_arrays(graph, chi_left, chi_right):
    cl = np.asarray(chi_left, dtype=np.float64)
    cr = np.asarray(chi_right, dtype=np.float64)
    if cl.shape != (graph.n,) or cr.shape != (graph.n,):
        raise ValueError("chi must assign a value to every vertex on each side")
    if np.any(cl < 0) or np.any(cl > 1) or np.any(cr < 0) or np.any(cr > 1):
        raise ValueError("chi values must lie in [0, 1]")
    return cl, cr


def check_mixing_lemma(
    graph: BipartiteRegularGraph,
    chi_left,
    chi_right,
) -> tuple[float, float, float]:
    """Edge-average bound for [0,1]-valued vertex functions.

    Returns (lhs, bound1, bound2) where
      lhs    = (1/(delta n)) sum_{u in V'} sum_{v in N(u)} chi(u) chi(v),
      bound1 = s*t + gamma*sqrt(s(1-s)t(1-t)),
      bound2 = (1-gamma)*s*t + gamma*sqrt(s*t),
    and asserts lhs <= bound1 <= bound2 (up to SLACK).
    """
    cl, cr = _chi_arrays(graph, chi_left, chi_right)
    g = gamma(graph).gamma
    n, delta = graph.n, graph.delta
    lhs = 0.0
    for i in range(delta):
        lhs += float(cl @ cr[graph.matchings[i]])
    lhs /= delta * n
    s = float(cl.mean())
    t = float(cr.mean())
    bound1 = s * t + g * math.sqrt(max(s * (1 - s) * t * (1 - t), 0.0))
    bound2 = (1 - g) * s * t + g * math.sqrt(max(s * t, 0.0))
    if lhs > bound1 + SLACK or bound1 > bound2 + SLACK:
        raise AssertionError(
            f"mixing bound violated: lhs={lhs} bound1={bound1} bound2={bound2}"
        )
    return lhs, bound1, bound2


def check_degree_sum(
    graph: BipartiteRegularGraph,
    left_set,
    right_set,
) -> tuple[int, float]:
    """Induced-subgraph degree sum against 2((1-g)st + g sqrt(st)) delta n."""
    sel_l = np.zeros(graph.n, dtype=bool)
    sel_l[list(left_set)] = True
    sel_r = np.zeros(graph.n, dtype=bool)
    sel_r[list(right_set)] = True
    if not sel_l.any() and not sel_r.any():
        raise ValueError("S and T must not both be empty")
    g = gamma(graph).gamma
    n, delta = graph.n, graph.delta
    edges = 0
    for i in range(delta):
        edges += int(np.count_nonzero(sel_l & sel_r[graph.matchings[i]]))
    degree_sum = 2 * edges
    s = sel_l.sum() / n
    t = sel_r.sum() / n
    bound = 2 * ((1 - g) * s * t + g * math.sqrt(s * t)) * delta * n
    if degree_sum > bound + SLACK:
        raise AssertionError(
            f"degree-sum bound violated: sum={degree_sum} bound={bound}"
        )
    return degree_sum, bound


def check_expansion_lemma(
    graph: BipartiteRegularGraph,
    chi_left,
    chi_right,
    delta_threshold: float,
) -> tuple[float, float] | None:
    """sqrt(s/t) >= ((d/2) - (1-g)s)/g for conforming chi; None when the
    hypothesis does not apply (chi zero on V'' or a neighborhood sum too
    small). Requires gamma > 0."""
    cl, cr = _chi_arrays(graph, chi_left, chi_right)
    g = gamma(graph).gamma
    if g <= 0:
        raise ValueError("expansion bound requires positive gamma")
    if not np.any(cr > 0):
        return None
    # Hypothesis: chi(v) > 0 implies sum_{u in N(v)} chi(u) >= d*delta/2.
    nbr_sum = np.zeros(graph.n)
    for i in range(graph.delta):
        np.add.at(nbr_sum, graph.matchings[i], cl)
    need = delta_threshold * graph.delta / 2.0
    if np.any((cr > 0) & (nbr_sum < need - 1e-12)):
        return None
    s = float(cl.mean())
    t = float(cr.mean())
    sqrt_ratio = math.sqrt(s / t)
    bound = (delta_threshold / 2.0 - (1 - g) * s) / g
    if sqrt_ratio < bound - SLACK:
        raise AssertionError(
            f"expansion bound violated: sqrt(s/t)={sqrt_ratio} bound={bound}"
        )
    return sqrt_ratio, bound
