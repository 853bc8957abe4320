import itertools
import math
import re

import numpy as np
import pytest
from anneal_reference import anneal_shifts
from bigraph_reference import biadjacency
from memtrace import traced_peak

from aramid.bigraph import (
    BipartiteRegularGraph,
    anneal_circulant_bipartite,
    check_degree_sum,
    check_expansion_lemma,
    check_mixing_lemma,
    circulant_bipartite,
    gamma,
)


def _circulant(n, shifts):
    """The matchings u -> u + s (mod n), one row per shift, repeats kept."""
    return np.array([(np.arange(n) + s) % n for s in shifts])


@pytest.fixture(scope="module")
def k33():
    return circulant_bipartite(3, [0, 1, 2])


@pytest.fixture(scope="module")
def cycle8():
    """The 8-cycle as a bipartite 2-regular graph on 4 + 4 vertices."""
    return circulant_bipartite(4, [0, 1])


def test_k33_forced_by_regularity():
    # Any simple 3-regular bipartite graph on 3+3 vertices is K33; with
    # delta = n the annealer has no move to make.
    g = anneal_circulant_bipartite(3, 3, seed=9)
    assert np.array_equal(biadjacency(g), np.ones((3, 3), dtype=np.int64))


def test_determinism_same_seed():
    g1 = anneal_circulant_bipartite(20, 4, seed=42, iters=200)
    g2 = anneal_circulant_bipartite(20, 4, seed=42, iters=200)
    assert np.array_equal(g1.matchings, g2.matchings)


def test_degrees_and_edge_count():
    g = circulant_bipartite(15, [0, 2, 3, 7, 11])
    x = biadjacency(g)
    assert np.all(x.sum(axis=1) == 5) and np.all(x.sum(axis=0) == 5)
    assert g.num_edges == 75
    assert x.max() <= 1


def test_edge_indexing_round_trip():
    g = circulant_bipartite(12, [0, 1, 5, 8])
    for e in range(g.num_edges):
        u, i = divmod(e, g.delta)
        v = g.matchings[i, u]
        assert g.right_edges[v, i] == e  # slot i at v holds edge e
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


def test_gamma_exact_at_paper_scale():
    # a circulant's singular values are the DFT magnitudes of its shift set
    shifts = np.random.default_rng(6).choice(600, size=40, replace=False)
    ind = np.zeros(600)
    ind[shifts] = 1.0
    exact = np.abs(np.fft.fft(ind))[1:].max() / 40
    assert gamma(circulant_bipartite(600, shifts)).gamma == pytest.approx(exact, rel=1e-9)


def _svd_gamma(g):
    """Test-side reference: the second singular value of X over delta."""
    sv = np.linalg.svd(biadjacency(g).astype(float), compute_uv=False)
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
    g = BipartiteRegularGraph(n, shifts)
    assert np.array_equal(g.shifts, shifts)
    assert np.array_equal(g.matchings, _circulant(n, shifts))
    want = _svd_gamma(g)
    got = gamma(g).gamma
    if want < 1e-12:
        assert got == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-12)


def test_gamma_fft_path_memory_is_linear():
    # a dense eigensolve would hold X and X^T X: 2 n^2 floats, 1 GB here
    n, delta = 8000, 40
    shifts = np.random.default_rng(8).choice(n, size=delta, replace=False)
    g = circulant_bipartite(n, shifts)
    prof, peak = traced_peak(lambda: gamma(g))
    assert peak <= 2 * g.matchings.nbytes
    assert 0 < prof.gamma < 1


def test_gamma_target_unreachable_reports_best():
    # the target only stops the search early; a missed one returns the best graph
    g = anneal_circulant_bipartite(30, 4, seed=6, gamma_target=0.01, iters=50)
    assert g.shifts.tolist() == anneal_shifts(30, 4, 6, gamma_target=0.01, iters=50)
    assert 0.01 < gamma(g).gamma < 1


def test_annealed_circulant_hits_low_gamma():
    g = anneal_circulant_bipartite(100, 36, seed=7, gamma_target=0.22, iters=30000)
    assert gamma(g).gamma <= 0.22
    assert biadjacency(g).max() <= 1


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
    # the shifts keep their order, repeats included
    g = BipartiteRegularGraph(9, [7, 0, 5, 0, 2], seed=8)
    obj = g.to_json()
    assert obj == {"n": 9, "shifts": [7, 0, 5, 0, 2], "seed": 8}
    g2 = BipartiteRegularGraph.from_json(obj)
    assert g2.shifts.tolist() == [7, 0, 5, 0, 2]
    assert np.array_equal(g.matchings, g2.matchings)
    assert np.array_equal(g.right_edges, g2.right_edges)
    assert g2.seed == 8
    sorted_g = BipartiteRegularGraph.from_json(dict(obj, shifts=[0, 0, 2, 5, 7]))
    assert np.array_equal(sorted_g.matchings, _circulant(9, [0, 0, 2, 5, 7]))



def test_rejects_disconnected():
    # two disjoint 4-cycles: the shifts 0 and 2 keep each parity class apart
    with pytest.raises(ValueError, match="not connected"):
        circulant_bipartite(4, [0, 2])


def test_circulant_takes_shifts_by_the_constructor_rule():
    # a shift is not reduced mod n here either; it lies in [0, n) or is refused
    with pytest.raises(ValueError, match=re.escape("shift 6 is outside [0, 5)")):
        circulant_bipartite(5, [0, 6])
    with pytest.raises(ValueError, match="shifts must be distinct"):
        circulant_bipartite(5, [1, 0, 1])


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


def _connected_by_constructor(n, shifts):
    try:
        BipartiteRegularGraph(n, shifts)
    except ValueError as exc:
        assert "not connected" in str(exc)
        return False
    return True


def test_connectivity_matches_union_find_random():
    # random shift sets, repeats allowed
    rng = np.random.default_rng(14)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 13))
        shifts = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        want = _union_find_connected(_circulant(n, shifts))
        assert _connected_by_constructor(n, shifts) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_connectivity_rejects_shifts_in_one_residue_class():
    # every shift = s0 (mod d) for a divisor d > 1 of n: each class of the
    # left vertices mod d reaches only one class on the right
    rng = np.random.default_rng(15)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        n = d * int(rng.integers(1, 6))
        s0 = int(rng.integers(d))
        delta = int(rng.integers(1, n + 1))
        shifts = s0 + d * rng.integers(0, n // d, size=delta)
        assert not _union_find_connected(_circulant(n, shifts))
        assert not _connected_by_constructor(n, shifts)


@pytest.mark.parametrize(
    "n, shifts, message",
    [
        (4, [0, 4], "shift 4 is outside [0, 4)"),
        (4, [-1, 0], "shift -1 is outside [0, 4)"),
        (4, [], "need 1 <= delta <= n"),
        (4, [0, 1, 2, 3, 1], "need 1 <= delta <= n"),
        (1, [0], "need 1 <= delta <= n and n > 1"),
    ],
    ids=["s-is-n", "minus-1", "empty", "more-than-n", "n-is-1"],
)
def test_rejects_malformed_shift_list(n, shifts, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BipartiteRegularGraph(n, shifts)
