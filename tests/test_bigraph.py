import itertools
import math
import tracemalloc

import numpy as np
import pytest

from aramid.bigraph import (
    BipartiteRegularGraph,
    GammaTargetError,
    _circulant_shifts,
    anneal_circulant_bipartite,
    check_degree_sum,
    check_expansion_lemma,
    check_mixing_lemma,
    circulant_bipartite,
    gamma,
    ramanujan_bound,
    random_regular_bipartite,
)


@pytest.fixture(scope="module")
def k33():
    return circulant_bipartite(3, [0, 1, 2])


@pytest.fixture(scope="module")
def cycle8():
    """The 8-cycle as a bipartite 2-regular graph on 4 + 4 vertices."""
    return circulant_bipartite(4, [0, 1])


def test_k33_forced_by_regularity():
    # Any simple 3-regular bipartite graph on 3+3 vertices is K33.
    g = random_regular_bipartite(3, 3, seed=9)
    x = g.biadjacency()
    assert np.array_equal(x, np.ones((3, 3), dtype=np.int64))


def test_determinism_same_seed():
    g1 = random_regular_bipartite(20, 4, seed=42)
    g2 = random_regular_bipartite(20, 4, seed=42)
    assert np.array_equal(g1.matchings, g2.matchings)


def test_degrees_and_edge_count():
    g = random_regular_bipartite(15, 5, seed=1)
    x = g.biadjacency()
    assert np.all(x.sum(axis=1) == 5) and np.all(x.sum(axis=0) == 5)
    assert g.num_edges == 75
    assert g.biadjacency().max() <= 1


def test_edge_indexing_round_trip():
    g = random_regular_bipartite(12, 4, seed=2)
    for e in range(g.num_edges):
        u, i = divmod(e, g.delta)
        v = g.matchings[i, u]
        slot = g.cross_index[e]
        assert g.right_edges[v, slot] == e
    # every edge appears exactly once on the right side
    assert sorted(g.right_edges.reshape(-1).tolist()) == list(range(g.num_edges))


def test_gamma_k33_zero(k33):
    # X^T X = 3J has eigenvalues (9, 0, 0); dense eigensolver oracle.
    prof = gamma(k33)
    assert prof.gamma == pytest.approx(0.0, abs=1e-9)
    assert prof.lambda2 == pytest.approx(0.0, abs=1e-9)


def test_gamma_complete_bipartite_any_n():
    for n in (2, 5, 9):
        g = circulant_bipartite(n, range(n))
        assert gamma(g).gamma == pytest.approx(0.0, abs=1e-9)


def test_gamma_cycle8(cycle8):
    # cycle spectrum 2cos(2 pi k / 8): second largest = sqrt(2).
    prof = gamma(cycle8)
    assert prof.gamma == pytest.approx(math.sqrt(2) / 2, rel=1e-9)


def test_gamma_matches_dense_oracle_random():
    g = random_regular_bipartite(30, 6, seed=3)
    x = g.biadjacency().astype(float)
    ev = np.linalg.eigvalsh(x.T @ x)
    prof = gamma(g)
    assert prof.lambda2 == pytest.approx(float(ev[-2]), rel=1e-9)


def _circulant_600():
    # a circulant's singular values are the DFT magnitudes of its shift set
    shifts = np.random.default_rng(6).choice(600, size=40, replace=False)
    ind = np.zeros(600)
    ind[shifts] = 1.0
    return circulant_bipartite(600, shifts), np.abs(np.fft.fft(ind))[1:].max() / 40


def _random_600():
    g = random_regular_bipartite(600, 20, seed=3)
    x = g.biadjacency().astype(float)
    return g, math.sqrt(np.linalg.eigvalsh(x.T @ x)[-2]) / 20


@pytest.mark.parametrize("make", [_circulant_600, _random_600], ids=["circulant", "random"])
def test_gamma_exact_at_paper_scale(make):
    g, exact = make()
    assert gamma(g).gamma == pytest.approx(exact, rel=1e-9)


def _svd_gamma(g):
    """Test-side reference: the second singular value of X over delta."""
    sv = np.linalg.svd(g.biadjacency().astype(float), compute_uv=False)
    return sv[1] / g.delta


def _circulant_cases():
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(3, 90))
        delta = int(rng.integers(2, n))
        yield list(rng.choice(n, size=delta, replace=False)), n
    yield [0, 1], 2  # n = 2: K_{2,2}
    yield list(range(17)), 17  # delta = n: K_{17,17}
    yield [0, 0, 1], 3  # a parallel edge: shift 0 twice


@pytest.mark.parametrize("shifts, n", list(_circulant_cases()))
def test_gamma_fft_path_matches_dense(shifts, n):
    m = np.array([(np.arange(n) + s) % n for s in shifts])
    g = BipartiteRegularGraph(m)
    assert _circulant_shifts(g) is not None
    want = _svd_gamma(g)
    got = gamma(g).gamma
    if want < 1e-12:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-12)
    if n < 3:
        return  # on two vertices every relabelling is a rotation
    # swapping two right labels keeps the spectrum, and for n >= 3 no row
    # is a shift any more, so gamma takes the dense path
    perm = np.arange(n)
    perm[:2] = [1, 0]
    relabelled = BipartiteRegularGraph(perm[m])
    assert _circulant_shifts(relabelled) is None
    dense = gamma(relabelled)
    assert dense.gamma == pytest.approx(got, rel=1e-12, abs=1e-12)
    assert dense.lambda2 == pytest.approx(gamma(g).lambda2, rel=1e-12, abs=1e-12)


def test_gamma_fft_path_memory_is_linear():
    # the dense path would hold X and X^T X: 2 n^2 floats, 1 GB here
    n, delta = 8000, 40
    shifts = np.random.default_rng(8).choice(n, size=delta, replace=False)
    g = circulant_bipartite(n, shifts)
    tracemalloc.start()
    try:
        prof = gamma(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * g.matchings.nbytes
    assert 0 < prof.gamma < 1


def test_rejects_non_permutation_names_first_bad_matching():
    m = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [0, 0, 1, 2], [3, 3, 3, 3]])
    with pytest.raises(ValueError, match="matching 2 is not a permutation"):
        BipartiteRegularGraph(m)
    with pytest.raises(ValueError, match="matching 0 is not a permutation"):
        BipartiteRegularGraph(np.array([[0, 1, 4]]))


def test_random_graph_gamma_concentration():
    # random regular graphs land at or below the Ramanujan ratio at this density
    g = random_regular_bipartite(100, 36, seed=5)
    prof = gamma(g)
    assert prof.gamma < 0.35
    assert prof.gamma <= ramanujan_bound(36) + 0.02


def test_gamma_target_unreachable_reports_best():
    with pytest.raises(GammaTargetError) as exc:
        random_regular_bipartite(30, 4, seed=6, gamma_target=0.01, max_resamples=5)
    assert 0 < exc.value.best < 1


def test_annealed_circulant_hits_low_gamma():
    g = anneal_circulant_bipartite(100, 36, seed=7, gamma_target=0.22, iters=30000)
    assert gamma(g).gamma <= 0.22
    assert g.biadjacency().max() <= 1


def test_mixing_lemma_all_ones(cycle8):
    ones = np.ones(4)
    lhs, b1, b2 = check_mixing_lemma(cycle8, ones, ones)
    assert lhs == pytest.approx(1.0)
    assert b1 == pytest.approx(1.0)
    assert b2 == pytest.approx(1.0)


def test_mixing_lemma_all_zeros(cycle8):
    zeros = np.zeros(4)
    lhs, b1, b2 = check_mixing_lemma(cycle8, zeros, zeros)
    assert lhs == 0.0 and b1 == 0.0 and b2 == 0.0


def test_mixing_lemma_exhaustive_cycle8(cycle8):
    # all chi in {0, 1/2, 1}^8, 3^8 cases
    vals = (0.0, 0.5, 1.0)
    for left in itertools.product(vals, repeat=4):
        for right in itertools.product(vals, repeat=4):
            check_mixing_lemma(cycle8, left, right)


def test_mixing_lemma_exhaustive_k33(k33):
    vals = (0.0, 0.5, 1.0)
    for left in itertools.product(vals, repeat=3):
        for right in itertools.product(vals, repeat=3):
            check_mixing_lemma(k33, left, right)


def test_mixing_lemma_rejects_out_of_range(cycle8):
    with pytest.raises(ValueError):
        check_mixing_lemma(cycle8, [2, 0, 0, 0], np.zeros(4))


def test_degree_sum_full_sets(k33):
    s, bound = check_degree_sum(k33, range(3), range(3))
    assert s == 2 * 3 * 3
    assert bound == pytest.approx(s)


def test_degree_sum_empty_right(k33):
    s, bound = check_degree_sum(k33, range(3), [])
    assert s == 0
    assert bound == pytest.approx(0.0)


def test_degree_sum_exhaustive():
    for g, n in ((circulant_bipartite(3, [0, 1, 2]), 3), (circulant_bipartite(4, [0, 1]), 4)):
        for smask in range(1 << n):
            for tmask in range(1 << n):
                if smask == 0 and tmask == 0:
                    continue
                left = [i for i in range(n) if smask >> i & 1]
                right = [i for i in range(n) if tmask >> i & 1]
                check_degree_sum(g, left, right)


def test_expansion_lemma_exhaustive_cycle8(cycle8):
    vals = (0.0, 0.5, 1.0)
    conforming = 0
    for left in itertools.product(vals, repeat=4):
        for right in itertools.product(vals, repeat=4):
            out = check_expansion_lemma(cycle8, left, right, delta_threshold=1.0)
            if out is not None:
                conforming += 1
    assert conforming > 0


def test_expansion_lemma_all_ones(cycle8):
    ones = np.ones(4)
    out = check_expansion_lemma(cycle8, ones, ones, delta_threshold=2.0)
    assert out is not None
    sqrt_ratio, bound = out
    assert sqrt_ratio == pytest.approx(1.0)
    assert bound <= 1.0 + 1e-12


def test_expansion_lemma_skips_zero_right(cycle8):
    assert check_expansion_lemma(cycle8, np.ones(4), np.zeros(4), 1.0) is None


def test_expansion_lemma_requires_positive_gamma(k33):
    with pytest.raises(ValueError):
        check_expansion_lemma(k33, np.ones(3), np.ones(3), 1.0)


def test_serialization_round_trip():
    g = random_regular_bipartite(10, 3, seed=8)
    obj = g.to_json()
    g2 = BipartiteRegularGraph.from_json(obj)
    assert np.array_equal(g.matchings, g2.matchings)
    assert g2.seed == 8


def test_rejects_disconnected():
    # two disjoint 4-cycles: matchings both map {0,1} to {0,1} and {2,3} to {2,3}
    m = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    with pytest.raises(ValueError):
        BipartiteRegularGraph(m)


def _union_find_connected(matchings):
    """Reference check: union-find over left vertices 0..n-1, right n..2n-1."""
    delta, n = matchings.shape
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(delta):
        for u in range(n):
            parent[find(u)] = find(n + int(matchings[i, u]))
    return len({find(x) for x in range(2 * n)}) == 1


def _connected_by_constructor(matchings):
    try:
        BipartiteRegularGraph(matchings)
    except ValueError as exc:
        assert "not connected" in str(exc)
        return False
    return True


def test_connectivity_matches_union_find_random():
    rng = np.random.default_rng(14)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 13))
        delta = int(rng.integers(1, min(n, 3) + 1))
        m = np.array([rng.permutation(n) for _ in range(delta)])
        want = _union_find_connected(m)
        assert _connected_by_constructor(m) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_connectivity_rejects_split_graphs():
    # two connected halves, each a union of permutations within its own
    # vertex set, relabelled by random permutations of both sides
    rng = np.random.default_rng(15)
    for _ in range(40):
        a = int(rng.integers(2, 20))
        b = int(rng.integers(2, 20))
        delta = int(rng.integers(2, min(a, b) + 1))
        halves = [
            np.array([np.roll(np.arange(size), s) for s in range(delta)])
            for size in (a, b)
        ]
        m = np.hstack([halves[0], halves[1] + a])
        left, right = rng.permutation(a + b), rng.permutation(a + b)
        m = right[m][:, np.argsort(left)]
        assert not _union_find_connected(m)
        assert not _connected_by_constructor(m)
        # one swapped edge pair joins the halves
        joined = m.copy()
        u1, u2 = left[0], left[a]
        joined[0, [u1, u2]] = joined[0, [u2, u1]]
        assert _union_find_connected(joined)
        assert _connected_by_constructor(joined)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        BipartiteRegularGraph(np.array([[0, 0, 1, 2]]))
