import hashlib
import math

import numpy as np
import pytest

import grs_reference
import linalg_reference as ref
from bigraph_reference import biadjacency
from field_contract import assert_acts_on_residues
from memtrace import traced_peak

from aramid import linalg
from aramid.bigraph import (
    BipartiteRegularGraph,
    anneal_circulant_bipartite,
    circulant_bipartite,
    gamma,
)
from aramid.gf import PrimeField
from aramid.grs import GrsCode
from aramid.tanner import (
    PhiWord,
    TannerCode,
    brute_min_phi_weight,
    min_dist_bound,
    rate_bound_phi,
)


@pytest.fixture(scope="module")
def k33_code():
    """(K33, [3,2,2]:[3,2,2]) over GF(7)."""
    f = PrimeField(7)
    g = circulant_bipartite(3, [0, 1, 2])
    comp = GrsCode(f, k=2, eval_points=[1, 2, 3])
    return TannerCode(g, comp, comp)


@pytest.fixture(scope="module")
def cycle8_code():
    """8-cycle with [2,1,2] repetition components over GF(5)."""
    f = PrimeField(5)
    g = circulant_bipartite(4, [0, 1])
    comp = GrsCode(f, k=1, eval_points=[1, 2])
    return TannerCode(g, comp, comp)


def test_parameters(k33_code):
    assert k33_code.r == pytest.approx(2 / 3)
    assert k33_code.theta == pytest.approx(2 / 3)
    assert k33_code.phi_width == 2


def test_dimension_rate_bound(k33_code):
    # rate bound r + R - 1 = 1/3 of length 9
    assert k33_code.dim >= 3


def test_zero_message_zero_codeword(k33_code):
    z = k33_code.encode_generic(np.zeros(k33_code.dim, dtype=np.int64))
    assert not np.any(z)
    assert k33_code.membership(z)


def test_encode_membership_random(k33_code):
    rng = np.random.default_rng(21)
    for _ in range(100):
        msg = rng.integers(0, 7, size=k33_code.dim)
        z = k33_code.encode_generic(msg)
        assert k33_code.membership(z)
        assert np.array_equal(k33_code.msg_from_codeword(z), msg % 7)


def test_encode_injective_linear(k33_code):
    rng = np.random.default_rng(22)
    m1 = rng.integers(0, 7, size=k33_code.dim)
    m2 = rng.integers(0, 7, size=k33_code.dim)
    lhs = k33_code.encode_generic((m1 + m2) % 7)
    rhs = (k33_code.encode_generic(m1) + k33_code.encode_generic(m2)) % 7
    assert np.array_equal(lhs, rhs)


def test_membership_detects_single_corruption(k33_code):
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = k33_code.encode_generic(rng.integers(0, 7, size=k33_code.dim))
        e = rng.integers(k33_code.num_edges)
        z2 = z.copy()
        z2[e] = (z2[e] + rng.integers(1, 7)) % 7
        assert not k33_code.membership(z2)


def test_psi_round_trip(k33_code):
    rng = np.random.default_rng(24)
    for _ in range(100):
        z = k33_code.encode_generic(rng.integers(0, 7, size=k33_code.dim))
        x = k33_code.psi(z)
        assert x.shape == (3, 2)
        z2 = k33_code.psi_inverse(x)
        assert np.array_equal(z, z2)


def test_psi_zero(k33_code):
    assert not np.any(k33_code.psi(np.zeros(9, dtype=np.int64)))


def test_psi_rejects_non_codeword(k33_code):
    z = np.ones(9, dtype=np.int64)
    z[0] = 3  # breaks a vertex constraint
    if not k33_code.membership(z):
        with pytest.raises(ValueError):
            k33_code.psi(z)


def test_psi_inverse_rejects_non_image(cycle8_code):
    # [2,1,2] components: right blocks must be repetitions; (0,...,x!=y...)
    phi = np.array([[0], [1], [0], [0]])
    with pytest.raises(ValueError):
        cycle8_code.psi_inverse(phi)


def test_psi_identity_when_rate1():
    f = PrimeField(5)
    g = circulant_bipartite(4, [0, 1])
    full = GrsCode(f, k=2, eval_points=[1, 2])  # rate 1: C' = F^2
    comp = GrsCode(f, k=1, eval_points=[1, 2])
    code = TannerCode(g, full, comp)
    eta = np.array([[1], [2], [3], [4]])
    z = code.encode_rate1(eta)
    x = code.psi(z)
    assert np.array_equal(x, code.left_blocks(z))


def test_whole_space_left_side_matches_rate1_grs():
    """C' = None stands for F^delta: the same code as a rate-1 GRS C', with
    no code object behind it."""
    f = PrimeField(7)
    g = circulant_bipartite(6, [0, 2, 3])
    comp = GrsCode(f, k=2, eval_points=[1, 2, 3])
    whole = TannerCode(g, None, comp)
    full = TannerCode(g, GrsCode(f, k=3, eval_points=[1, 2, 3]), comp)
    assert (whole.r, whole.theta, whole.phi_width) == (full.r, full.theta, full.phi_width)
    assert np.array_equal(whole.generator(), full.generator())
    rng = np.random.default_rng(24)
    z = whole.encode_rate1(rng.integers(0, 7, size=(6, 2)))
    assert np.array_equal(z, full.encode_rate1(whole.right_messages(z)))
    assert whole.membership(z) and full.membership(z)
    x = whole.psi(z)
    assert np.array_equal(x, full.psi(z)) and np.array_equal(x, whole.left_blocks(z))
    assert np.array_equal(whole.psi_inverse(x + 7), z)
    assert not np.shares_memory(whole.psi_inverse(x), x)
    bad = z.copy()
    bad[0] = (bad[0] + 1) % 7
    assert not whole.membership(bad)
    with pytest.raises(ValueError):
        TannerCode(g, None, GrsCode(f, k=2, eval_points=[1, 2, 3, 4]))


def test_encode_rate1_repetition_cycle():
    """[2,1,2] C'' over GF(5): both edges at v carry eta_v repeated."""
    f = PrimeField(5)
    g = circulant_bipartite(4, [0, 1])
    full = GrsCode(f, k=2, eval_points=[1, 2])
    comp = GrsCode(f, k=1, eval_points=[1, 2])
    code = TannerCode(g, full, comp)
    eta = np.array([[2], [0], [1], [4]])
    z = code.encode_rate1(eta)
    for v in range(4):
        blk = z[g.right_edges[v]]
        assert blk.tolist() == [eta[v, 0], eta[v, 0]]
    assert code.membership(z)
    assert np.array_equal(code.right_messages(z), eta)


def test_encode_rate1_zero():
    f = PrimeField(5)
    g = circulant_bipartite(4, [0, 1])
    code = TannerCode(
        g, GrsCode(f, k=2, eval_points=[1, 2]), GrsCode(f, k=1, eval_points=[1, 2])
    )
    assert not np.any(code.encode_rate1(np.zeros((4, 1), dtype=np.int64)))


def test_encode_rate1_requires_rate1(k33_code):
    with pytest.raises(ValueError):
        k33_code.encode_rate1(np.zeros((3, 2), dtype=np.int64))


def test_min_dist_bound_values():
    assert min_dist_bound(0.5, 0.5, 0.0) == pytest.approx(0.5)
    assert min_dist_bound(0.5, 0.5, 0.125) == pytest.approx(0.375 / 0.875)
    # Example regime: theta = eps, gamma < eps^1.5 gives bound > delta - eps
    eps = 0.09
    delta = 0.8
    bound = min_dist_bound(eps, delta, eps**1.5 * 0.999)
    assert bound > delta - eps


def test_rate_bound_phi_values():
    assert rate_bound_phi(1.0, 0.7) == pytest.approx(0.7)
    assert rate_bound_phi(0.8, 0.5) == pytest.approx(0.375)
    for eps in (0.01, 0.05):
        r = 1 - eps
        assert rate_bound_phi(r, 0.5) > 0.5 - eps


def test_brute_min_phi_weight_k33(k33_code):
    w = brute_min_phi_weight(k33_code)
    g0 = gamma(k33_code.graph).gamma
    bound = math.ceil(3 * min_dist_bound(2 / 3, 2 / 3, g0))
    assert bound == 2
    assert w >= bound


def test_brute_min_phi_weight_repetition(cycle8_code):
    # all codewords are constant on edges; min Phi-weight = n
    assert cycle8_code.dim == 1
    assert brute_min_phi_weight(cycle8_code) == 4


def test_theorem1_exhaustive_on_small_instances(k33_code, cycle8_code):
    for code in (k33_code, cycle8_code):
        g0 = gamma(code.graph).gamma
        bound = code.n * min_dist_bound(code.theta, code.delta_rel, g0)
        assert brute_min_phi_weight(code) >= math.ceil(bound - 1e-12)


def test_rate_bound_holds_on_instances(k33_code, cycle8_code):
    for code in (k33_code, cycle8_code):
        assert code.dim / code.num_edges >= code.r + code.R - 1 - 1e-12


def _per_edge_generator(code):
    """Oracle: right-vertex constraints built one edge at a time on C''s
    monomial generator, eliminated by the single-pivot reference."""
    q, n, delta = code.field.q, code.n, code.graph.delta
    cp = code.c_prime
    kp = cp.k
    h2 = code.c_double.parity_check()
    gp = grs_reference.monomial_generator(q, kp, cp.eval_points, cp.col_mults)
    h = h2.shape[0]
    m = np.zeros((n * h, n * kp), dtype=np.int64)
    for v in range(n):
        for i in range(delta):
            u, slot = divmod(int(code.graph.right_edges[v, i]), delta)
            block = np.outer(h2[:, i], gp[:, slot])
            m[v * h : (v + 1) * h, u * kp : (u + 1) * kp] += block
    r, pivots = ref.rref_plain(m, q)
    free = [c for c in range(n * kp) if c not in pivots]
    basis = np.zeros((len(free), n * kp), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[j, fc] = 1
        for row, pc in enumerate(pivots):
            basis[j, pc] = (-r[row, fc]) % q
    words = (basis.reshape(-1, n, kp) @ gp % q).reshape(-1, n * delta)
    gen, gen_pivots = ref.rref_plain(words, q)
    return gen[: len(gen_pivots)]


def test_generator_matches_per_edge_assembly_with_parallel_edges():
    # slots 0 and 1 are the same shift, so every left vertex has a
    # doubled edge whose two constraint blocks must add up
    n, f = 9, PrimeField(13)
    g = BipartiteRegularGraph(n, [0, 0, 2, 5, 7])
    assert biadjacency(g).max() >= 2
    for k1, k2 in ((4, 4), (5, 3), (3, 2)):
        c1 = GrsCode(f, k=k1, eval_points=range(1, 6))
        c2 = GrsCode(f, k=k2, eval_points=range(2, 7))
        code = TannerCode(g, c1, c2)
        assert np.array_equal(code.generator(), _per_edge_generator(code))


@pytest.fixture(scope="module")
def desk_code():
    """The desk plain config: n=100, delta=36, q=37, k'=k''=18, seed 11."""
    graph = anneal_circulant_bipartite(100, 36, seed=11, gamma_target=0.20, iters=40000)
    comp = GrsCode(PrimeField(37), k=18, eval_points=range(1, 37))
    return TannerCode(graph, comp, comp)


def test_desk_generator_rows_are_codewords(desk_code):
    code = desk_code
    gen = code.generator()
    assert code.dim == 21 and gen.shape == (21, 3600)
    assert np.array_equal(gen[:, code._gen_pivots], np.eye(21, dtype=np.int64))
    assert all(code.membership(row) for row in gen)


def test_desk_generator_golden_digest(desk_code):
    # an 1800x1800 nullspace over many elimination panels, the largest
    # elimination the tests pin
    gen = desk_code.generator()
    assert gen.dtype == np.int64 and gen.flags["C_CONTIGUOUS"]
    digest = hashlib.sha256(gen.tobytes()).hexdigest()
    assert digest == "cef537209b93ff1fe6fe1700ca253d8d18a9982912f41e8526b29683b1aefdf8"
    assert desk_code._gen_pivots == list(range(18)) + [36, 38, 41]


def test_desk_generator_holds_one_dense_copy(desk_code):
    # the (n*(delta - k'')) x (n*k') constraint matrix is held in uint8
    # (q = 37) and reduced into a uint8 store, each an eighth of the float64
    # bytes measured against, that is eliminated in place with float32
    # products; the nullspace is read from the solved block R[:rank, free]
    # with no dense R, so the peak is the matrix, the store and one panel
    # step's temporaries, 0.49x; a float32 working array in place of the
    # store reads 0.80x, and a dense int64 R (1x on its own) above 1x
    code = TannerCode(desk_code.graph, desk_code.c_prime, desk_code.c_double)
    h = code.c_double.length - code.c_double.k
    matrix_bytes = 8 * (code.n * h) * (code.n * code.c_prime.k)
    gen, peak = traced_peak(code.generator)
    assert peak < 0.6 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the matrix"
    assert np.array_equal(gen, desk_code.generator())


def test_entry_points_act_on_residues(k33_code):
    # TannerCode's entry points act on the residues of their input mod q and
    # never write into it, with C' a code and with C' the whole space; fold
    # and unfold return new arrays
    q = 7
    rng = np.random.default_rng(25)
    whole = TannerCode(k33_code.graph, None, k33_code.c_double)
    msgs = rng.integers(0, q, size=(4, k33_code.dim))
    z = assert_acts_on_residues(k33_code.encode_generic, (msgs,), q, rng)
    assert_acts_on_residues(k33_code.msg_from_codeword, (z,), q, rng)
    eta = rng.integers(0, q, size=(3, 2))
    z_whole = assert_acts_on_residues(whole.encode_rate1, (eta,), q, rng)
    for code, word in ((k33_code, z[1]), (whole, z_whole)):
        phi = assert_acts_on_residues(code.psi, (word,), q, rng)
        blocks = code.left_blocks(word)
        folded = assert_acts_on_residues(code.fold, (blocks,), q, rng, fresh=True)
        assert np.array_equal(folded, phi)
        assert_acts_on_residues(code.unfold, (phi,), q, rng, fresh=True)


def test_phi_word_helpers():
    w = PhiWord.clean(np.arange(6).reshape(3, 2))
    assert not w.erased.any()
    assert w.erased.shape == (3,)


def test_component_length_mismatch_rejected():
    f = PrimeField(7)
    g = circulant_bipartite(3, [0, 1, 2])
    with pytest.raises(ValueError):
        TannerCode(g, GrsCode(f, k=2, eval_points=[1, 2]), GrsCode(f, k=2, eval_points=[1, 2, 3]))


def test_mixed_field_components_rejected():
    g = circulant_bipartite(3, [0, 1, 2])
    a = GrsCode(PrimeField(7), k=2, eval_points=[1, 2, 3])
    b = GrsCode(PrimeField(5), k=2, eval_points=[1, 2, 3])
    with pytest.raises(ValueError):
        TannerCode(g, a, b)


def test_encoders_match_int64_products_at_the_top_of_the_field():
    # the float64 BLAS encoders against int64 (msg @ G) % q, with messages of
    # q - 1 entries as well as random ones, at k near 1000 over GF(65521)
    q = 65521
    f = PrimeField(q)
    rng = np.random.default_rng(65521)

    def messages(k):
        msgs = rng.integers(0, q, size=(6, k))
        msgs[0] = q - 1
        return msgs

    grs = GrsCode(f, k=1000, eval_points=range(5, 1205))
    msgs = messages(1000)
    gen = grs.sys_encode(np.eye(1000, dtype=np.int64))
    assert np.array_equal(grs.sys_encode(msgs), msgs @ gen % q)
    assert np.array_equal(grs.sys_encode(msgs[1]), msgs[1] @ gen % q)

    comp = GrsCode(f, k=33, eval_points=range(1, 37))
    code = TannerCode(circulant_bipartite(36, range(36)), comp, comp)
    gen = code.generator()
    assert gen.shape[0] > 1000
    msgs = messages(gen.shape[0])
    assert np.array_equal(code.encode_generic(msgs), msgs @ gen % q)
