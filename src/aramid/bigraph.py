"""Bipartite regular graphs: construction, edge indexing, spectral checks.

A graph is stored as delta matchings (permutations of [0, n)); edge u--v with
slot i exists when matchings[i][u] == v. Edge ids are e = u*delta + i, so the
left sub-block of an edge word is a contiguous reshape and the right sub-block
is a precomputed gather. The spectral ratio gamma is the second singular value
of the biadjacency matrix divided by delta, measured numerically in one of two
ways. A circulant graph, every row a shift u -> u + s (mod n), is diagonalised
by the DFT, so its singular values are the DFT magnitudes of its shift-count
vector: one FFT, O(n log n + n*delta) time and O(n) extra memory beyond one
n*delta check array. Any other graph gets a dense eigensolve of X^T X: O(n^3)
time and n^2 floats.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np


class GammaTargetError(RuntimeError):
    """Spectral target unreachable; carries the best ratio seen."""

    def __init__(self, target: float, best: float, attempts: int):
        super().__init__(
            f"gamma target {target} unreachable after {attempts} attempts; "
            f"best measured gamma = {best:.6f}"
        )
        self.target = target
        self.best = best


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
    """A delta-regular bipartite graph on n + n vertices."""

    def __init__(self, matchings: np.ndarray, seed: int | None = None):
        m = np.asarray(matchings, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError("matchings must be a (delta, n) array")
        delta, n = m.shape
        validate_degree(n, delta)
        ref = np.arange(n)
        bad = ~(np.sort(m, axis=1) == ref).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"matching {i} is not a permutation of [0, {n})")
        self.n = n
        self.delta = delta
        self.matchings = m
        self.seed = seed
        inv = np.empty_like(m)  # inv[i, v] = the left end of slot i at v
        inv[np.arange(delta)[:, None], m] = ref
        if not self._connected(inv):
            raise ValueError("graph is not connected")
        # Hard-wired adjacency: right_edges[v] lists edge ids at v in slot order.
        self.right_edges = (inv.T * delta + np.arange(delta)[None, :]).astype(np.int64)
        self.cross_index = np.empty(n * delta, dtype=np.int64)
        self.cross_index[self.right_edges.reshape(-1)] = np.tile(
            np.arange(delta), n
        )
        self._profile: SpectralProfile | None = None

    # -- structure ----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.n * self.delta

    def _connected(self, inv: np.ndarray) -> bool:
        """Frontier search from left vertex 0 through the matchings and their
        inverses. Each vertex joins one frontier, so each edge is read at most
        twice; a frontier is the set bits of a boolean mask over one side, so
        each level also costs O(n): O(n*delta + n*depth) work."""
        seen_l = np.zeros(self.n, dtype=bool)
        seen_r = np.zeros(self.n, dtype=bool)
        seen_l[0] = True
        left = np.array([0])
        while left.size:
            right = _fresh(self.matchings[:, left], seen_r)
            left = _fresh(inv[:, right], seen_l)
        return bool(seen_l.all() and seen_r.all())

    def biadjacency(self) -> np.ndarray:
        """X[u, v] = edge multiplicity between u in V' and v in V''."""
        x = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.delta):
            np.add.at(x, (np.arange(self.n), self.matchings[i]), 1)
        return x

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "matchings": self.matchings.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteRegularGraph":
        return cls(np.array(obj["matchings"], dtype=np.int64), seed=obj.get("seed"))


def _fresh(reached: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The vertices in `reached` not yet in `seen`, once each and ascending;
    marks them seen."""
    mask = np.zeros_like(seen)
    mask[reached] = True
    mask &= ~seen
    seen |= mask
    return np.flatnonzero(mask)


# -- spectral measurement ------------------------------------------------------


def gamma(graph: BipartiteRegularGraph) -> SpectralProfile:
    """Measure lambda2(X^T X) on the complement of the all-ones vector.

    Cached on the graph. A circulant graph (see `_circulant_shifts`) takes
    the FFT path: X is a sum of cyclic shift matrices, so X^T X has the
    eigenvalues |F_k|^2, F the DFT of the shift-count vector, and lambda2 is
    the largest |F_k|^2 over k != 0. The check on that path asserts that F_0,
    the eigenvalue on the all-ones vector, equals delta. Any other graph gets
    one dense symmetric eigensolve of X^T X: O(n^3) time and n^2 floats. It
    asserts the top eigenpair structure: X^T X has largest eigenvalue
    delta^2 with the all-ones eigenvector.
    """
    if graph._profile is not None:
        return graph._profile
    delta = graph.delta
    d2 = float(delta**2)
    shifts = _circulant_shifts(graph)
    if shifts is not None:
        # the annealer's cost: the same FFT of the same indicator
        mag = np.abs(np.fft.fft(np.bincount(shifts, minlength=graph.n).astype(np.float64)))
        if abs(mag[0] - delta) > 1e-9 * delta:
            raise AssertionError(f"DFT at frequency 0 is {mag[0]}, not delta {delta}")
        sv2 = float(mag[1:].max())  # the second singular value of X
        lam2 = sv2 * sv2
    else:
        lam2 = max(_dense_lambda2(graph, d2), 0.0)
        sv2 = math.sqrt(lam2)
    if lam2 < 1e-12 * d2:  # numerically zero relative to the top eigenvalue
        lam2 = sv2 = 0.0
    prof = SpectralProfile(lambda2=lam2, gamma=sv2 / delta)
    graph._profile = prof
    return prof


def _circulant_shifts(graph: BipartiteRegularGraph) -> np.ndarray | None:
    """The shifts s_i when every matching is u -> u + s_i (mod n), else None.

    O(n*delta) time; the one temporary is the (delta, n) array of
    v - u (mod n) over the edges.
    """
    m = graph.matchings
    diff = m - np.arange(graph.n)
    diff %= graph.n
    shifts = diff[:, 0]
    if not (diff == shifts[:, None]).all():
        return None
    return shifts


def _dense_lambda2(graph: BipartiteRegularGraph, d2: float) -> float:
    x = graph.biadjacency().astype(np.float64)
    m = x.T @ x
    ones = np.ones(graph.n)
    residual = np.abs(m @ ones - d2 * ones).max()
    if residual > 1e-9 * max(d2, 1.0):
        raise AssertionError(f"top eigenpair residual {residual} too large")
    ev = np.linalg.eigvalsh(m)
    lam1 = float(ev[-1])
    if abs(lam1 - d2) > 1e-6 * d2:
        raise AssertionError(f"largest eigenvalue {lam1} != delta^2 {d2}")
    return float(ev[-2])


def ramanujan_bound(delta: int) -> float:
    return 2.0 * math.sqrt(delta - 1) / delta


# -- constructions --------------------------------------------------------------


def random_regular_bipartite(
    n: int,
    delta: int,
    seed: int,
    gamma_target: float | None = None,
    max_resamples: int = 200,
) -> BipartiteRegularGraph:
    """Union of delta uniformly random permutations, deterministic given seed.

    Resamples until connected, simple (when n > delta), and, if gamma_target
    is given, until the measured gamma is within target.
    """
    validate_degree(n, delta)
    rng = np.random.default_rng(seed)
    best = math.inf
    for attempt in range(max_resamples):
        m = np.array([rng.permutation(n) for _ in range(delta)], dtype=np.int64)
        if n > delta:
            m = _repair_parallel_edges(m, rng)
            if m is None:
                continue
        try:
            g = BipartiteRegularGraph(m, seed=seed)
        except ValueError:
            continue
        if gamma_target is None:
            return g
        prof = gamma(g)
        if prof.gamma <= gamma_target:
            return g
        best = min(best, prof.gamma)
    if gamma_target is None:
        raise RuntimeError(f"no connected graph found in {max_resamples} attempts")
    raise GammaTargetError(gamma_target, best, max_resamples)


def _repair_parallel_edges(m: np.ndarray, rng):
    """Swap entries within matchings until every left vertex has distinct
    neighbors, for at most 200 passes. Each swap preserves the permutation
    property."""
    delta, n = m.shape
    for _ in range(200):
        collisions = 0
        for u in range(n):
            seen: dict[int, int] = {}
            for i in range(delta):
                v = int(m[i, u])
                if v in seen:
                    j = int(rng.integers(n))
                    m[i, u], m[i, j] = m[i, j], m[i, u]
                    collisions += 1
                else:
                    seen[v] = i
        if collisions == 0:
            return m
    return None


def circulant_bipartite(
    n: int, shifts, seed: int | None = None
) -> BipartiteRegularGraph:
    """Union of shift permutations u -> u + s (mod n), one per s in shifts."""
    shifts = sorted(int(s) % n for s in shifts)
    if len(set(shifts)) != len(shifts):
        raise ValueError("shifts must be distinct mod n")
    base = np.arange(n, dtype=np.int64)
    m = np.array([(base + s) % n for s in shifts], dtype=np.int64)
    return BipartiteRegularGraph(m, seed=seed)


def _circulant_gcd(n: int, shifts) -> int:
    """gcd of n and the shift differences: the circulant graph is connected
    exactly when this is 1."""
    g = n
    s0 = shifts[0]
    for s in shifts[1:]:
        g = math.gcd(g, (s - s0) % n)
    return g


def anneal_circulant_bipartite(
    n: int,
    delta: int,
    seed: int,
    gamma_target: float | None = None,
    iters: int = 20000,
) -> BipartiteRegularGraph:
    """Search shift sets whose circulant graph has small measured gamma.

    The singular values of a circulant biadjacency are the DFT magnitudes of
    the shift-set indicator, so the annealing cost is one FFT per move. A
    move swaps a random shift in the set with a random one outside it; it is
    kept when it does not raise the cost, or with Metropolis probability
    exp(-increase / temperature) under a geometric cooling from 1 to 0.01
    over `iters` moves (Kirkpatrick-Gelatt-Vecchi 1983). The search stops
    early once the best cost is below gamma_target * delta.

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
    is the FFT magnitude spectrum, written by `np.abs` into a fixed buffer.
    The closing `gamma(graph)` takes the FFT of the same indicator, so the
    final target test sees the spectrum the search saw.

    Deterministic given seed. Raises ValueError on a bad shape or a
    negative `iters`, DisconnectedGraphError when the best shift set found
    gives a disconnected graph, and GammaTargetError when the target is out
    of reach; both errors report the number of moves made.
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
    graph = circulant_bipartite(n, shifts, seed=seed)
    prof = gamma(graph)
    if gamma_target is not None and prof.gamma > gamma_target:
        raise GammaTargetError(gamma_target, prof.gamma, moves)
    return graph


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
