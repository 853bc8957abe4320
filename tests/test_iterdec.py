import math

import numpy as np
import pytest
from field_contract import checks
from iterdec_reference import decode_all_vertices

from aramid.bigraph import anneal_circulant_bipartite, circulant_bipartite, gamma
from aramid.channel import corrupt_phi, trial_rng
from aramid.cli import build_plain_instance, load_plain_instance
from aramid.gf import PrimeField
from aramid.grs import GrsCode
from aramid.iterdec import CosetSide, beta_bound, decode_params, decode_phi
from aramid.tanner import PhiWord, TannerCode


@pytest.fixture(scope="module")
def mid():
    """n=48, delta=24 circulant instance over GF(29), [24,12,13] components."""
    f = PrimeField(29)
    g = anneal_circulant_bipartite(48, 24, seed=101, gamma_target=0.20, iters=30000)
    comp = GrsCode(f, k=12, eval_points=range(1, 25))
    code = TannerCode(g, comp, comp)
    gm = gamma(g).gamma
    beta = beta_bound(code.theta, code.delta_rel, gm)
    params = decode_params(
        code.theta, code.delta_rel, gm, 0.9 * beta, code.n, g.delta
    )
    return code, params


@pytest.fixture(scope="module")
def tiny():
    """n=6, delta=5 near-complete circulant over GF(7), [5,2,4] components."""
    f = PrimeField(7)
    g = circulant_bipartite(6, [0, 1, 2, 3, 4])
    comp = GrsCode(f, k=2, eval_points=range(1, 6))
    code = TannerCode(g, comp, comp)
    gm = gamma(g).gamma
    beta = beta_bound(code.theta, code.delta_rel, gm)
    params = decode_params(
        code.theta, code.delta_rel, gm, 0.9 * beta, code.n, g.delta
    )
    return code, params


@pytest.fixture(scope="module")
def coset():
    """n=40, delta=20 rate-1-left instance over GF(23): left blocks lie in
    cosets of the [20,10,11] code C0, right blocks in C1 = [20,10,11]."""
    f = PrimeField(23)
    g = anneal_circulant_bipartite(40, 20, seed=103, gamma_target=0.21, iters=30000)
    c1 = GrsCode(f, k=10, eval_points=range(1, 21))
    c0 = GrsCode(f, k=10, eval_points=range(1, 21))
    code = TannerCode(g, None, c1)  # C' = F^delta
    gm = gamma(g).gamma
    beta = beta_bound(c0.rel_dist, c1.rel_dist, gm)
    params = decode_params(
        c0.rel_dist, c1.rel_dist, gm, 0.9 * beta, code.n, g.delta
    )
    return code, c0, params


def coset_word(code, c0, rng):
    """A random rate-1 codeword's folded image and its left syndromes."""
    eta = rng.integers(0, code.field.q, size=(code.n, code.c_double.k))
    z = code.encode_rate1(eta)
    return code.psi(z), c0.syndromes(code.left_blocks(z))


def random_codeword(code, rng):
    msg = rng.integers(0, code.field.q, size=code.dim)
    return code.encode_generic(msg)


def test_params_beta_and_base_example():
    p = decode_params(0.5, 0.5, 0.125, sigma=0.1, n=1000, degree=36)
    assert p.beta == pytest.approx(1 / 7)
    assert p.base == pytest.approx(4.0)


def test_params_nu_example():
    # base 4, beta 0.2, sigma 0.1, n 1000: nu = 2*floor(log4 19) + 3 = 7
    theta = delta = 0.5
    gamma_val = 0.125  # base = 4
    beta = beta_bound(theta, delta, gamma_val)
    assert beta == pytest.approx(1 / 7)
    # adjust the instance so beta is exactly 0.2: use theta=delta=0.56889...
    # instead verify the formula directly on a params object
    p = decode_params(theta, delta, gamma_val, sigma=0.1, n=1000, degree=36)
    arg = (p.beta * math.sqrt(0.1 * 1000) - 0.1) / (p.beta - 0.1)
    want = 2 * math.floor(math.log(arg) / math.log(4.0)) + 3
    assert p.nu == want


def test_params_omega_example():
    # theta = delta = 0.5, gamma = 0.125, sigma = 0.07, degree = 36:
    # i_T = 6 and omega = 6 + 32/15 ~ 8.133
    p = decode_params(0.5, 0.5, 0.125, sigma=0.07, n=100, degree=36)
    assert p.i_t == 6
    assert p.omega == pytest.approx(6 + 32 / 15, rel=1e-12)


def test_params_hypothesis_violations():
    with pytest.raises(ValueError, match="2\\*gamma"):
        decode_params(0.5, 0.5, 0.0, sigma=0.01, n=10, degree=4)
    with pytest.raises(ValueError, match="sqrt"):
        decode_params(0.25, 0.25, 0.2, sigma=0.01, n=10, degree=4)
    with pytest.raises(ValueError, match="sigma"):
        decode_params(0.5, 0.5, 0.125, sigma=0.2, n=10, degree=4)


def test_params_nu_clamped_when_radius_degenerate():
    # beta*sqrt(sigma*n) <= sigma forces the minimum nu = 3
    p = decode_params(0.8, 0.8, 0.2, sigma=0.24, n=2, degree=5)
    assert p.nu == 3


def test_clean_input_fixed_point(mid):
    code, params = mid
    rng = np.random.default_rng(31)
    z = random_codeword(code, rng)
    y = PhiWord.clean(code.psi(z))
    rep = decode_phi(code, y, params)
    assert rep.success
    assert np.array_equal(rep.result.values, y.values)
    assert rep.component_calls <= 2 * code.n
    assert rep.rounds_run < params.nu


def test_radius_guarantee_trials(mid):
    code, params = mid
    n = code.n
    smax = params.sigma * n
    rng0 = np.random.default_rng(32)
    for trial in range(150):
        rng = trial_rng(900, trial)
        z = random_codeword(code, rng0)
        x = code.psi(z)
        t = int(rng.integers(0, int(smax) + 1))
        rho = int(rng.integers(0, int(2 * (smax - t)) + 1))
        assert t + rho / 2 <= smax
        y = corrupt_phi(rng, x, t, rho, code.field.q)
        rep = decode_phi(code, y, params)
        assert rep.success, f"trial {trial} failed (t={t}, rho={rho})"
        assert np.array_equal(rep.result.values, x)
        assert rep.rounds_run <= params.nu
        assert rep.component_calls <= params.omega * n


def test_contraction_witness(mid):
    code, params = mid
    n = code.n
    rng0 = np.random.default_rng(33)
    for trial in range(30):
        rng = trial_rng(901, trial)
        z = random_codeword(code, rng0)
        x = code.psi(z)
        t = int(params.sigma * n)
        y = corrupt_phi(rng, x, t, 0, code.field.q)
        run = decode_all_vertices(code, y, params, truth=z)
        assert run.result is not None
        assert np.array_equal(decode_phi(code, y, params).result.values, x)
        for parity in (0, 1):
            seq = [c for (i, c) in run.error_counts if i % 2 == parity]
            assert all(a >= b for a, b in zip(seq, seq[1:]))


def assert_matches_oracle(code, params, y, cosets=None):
    """Decode y with both schedules and compare the result, the rounds run
    and the component calls; returns the oracle's run."""
    rep = decode_phi(code, y, params, cosets=cosets)
    run = decode_all_vertices(code, y, params, cosets=cosets)
    assert rep.success == (run.result is not None)
    if rep.success:
        assert np.array_equal(rep.result.values, run.result.values)
    assert rep.rounds_run == run.rounds_run
    assert rep.component_calls == run.component_calls
    return run


def corrupt_up_to(rng, code, params, x, factor):
    """x with t errors and rho erasures drawn for a budget of factor times
    the radius; returns the word and whether it left the radius."""
    n = code.n
    budget = int(factor * params.sigma * n)
    t = int(rng.integers(0, budget + 1))
    rho = int(rng.integers(0, min(budget, n - t) + 1))
    y = corrupt_phi(rng, x, t, rho, code.field.q)
    return y, t + rho / 2 > params.sigma * n


def test_scheduled_matches_unscheduled(mid, coset):
    """The dirty-vertex schedule against the all-vertex oracle, on the plain
    instance and on the coset variant that ltenc D4 runs: result, rounds and
    component calls. Up to 3x the radius, some words have a vertex whose
    decode fails and that a write from the other side makes dirty again, in
    words that end decoded and in words that end failed, so bad and dirty
    vertices both take part in the membership check."""
    code, params = mid
    c_code, c0, c_params = coset
    rng0, rng1 = np.random.default_rng(34), np.random.default_rng(39)
    plain = [(code.psi(random_codeword(code, rng0)), None) for _ in range(100)]
    cosets = [coset_word(c_code, c0, rng1) for _ in range(100)]
    beyond = 0
    for inst, words, seed in (
        ((code, params), plain, 902),
        ((c_code, c_params), cosets, 903),
    ):
        revisited = {True: 0, False: 0}  # by whether the word decoded
        for trial, (x, s) in enumerate(words):
            y, out = corrupt_up_to(trial_rng(seed, trial), *inst, x, 3)
            side = None if s is None else CosetSide(c0, s)
            run = assert_matches_oracle(*inst, y, side)
            beyond += out
            if run.revisits:
                revisited[run.result is not None] += 1
        assert min(revisited.values()) >= 1, revisited
    assert beyond >= 100


class _Miscorrecting(GrsCode):
    """A component decoder that maps one block, and only that one, to
    another codeword, as a bounded-distance decoder may beyond its radius;
    still a pure function of the block."""

    def __init__(self, code, block, wrong):
        super().__init__(code.field, code.k, code.eval_points, code.col_mults)
        self.block, self.wrong = block, wrong

    def decode_ee(self, words, erased=None, target=None):
        out, ok = super().decode_ee(words, erased, target)
        hit = np.all(words == self.block, axis=1)
        out[hit], ok[hit] = self.wrong, True
        return out, ok


def test_membership_checks_dirty_vertices(mid):
    """A left decode that succeeds to a wrong codeword leaves right vertices
    dirty and non-codewords while no vertex is bad: the membership check
    must read them. Every later left round makes the same miscorrection, so
    the word fails with both schedules."""
    code, params = mid
    z = random_codeword(code, np.random.default_rng(40))
    block = z.reshape(code.n, -1)[0]
    wrong = (block + code.c_prime.sys_encode(np.arange(1, code.c_prime.k + 1))) % code.field.q
    fake = TannerCode(code.graph, _Miscorrecting(code.c_prime, block, wrong), code.c_double)
    run = assert_matches_oracle(fake, params, PhiWord.clean(code.psi(z)))
    assert run.result is None and run.rounds_run == params.nu


def test_membership_checks_coset_targets(coset):
    """A clean coset word whose stated syndrome is wrong at one left vertex:
    that vertex's decode into the stated coset fails, while every right block
    is a codeword, so only comparing the left blocks' syndromes with their
    targets keeps the word from being accepted."""
    code, c0, params = coset
    rng = np.random.default_rng(42)
    x, s = coset_word(code, c0, rng)
    wrong = s.copy()
    wrong[0] = (wrong[0] + rng.integers(1, code.field.q, size=s.shape[1])) % code.field.q
    run = assert_matches_oracle(code, params, PhiWord.clean(x), CosetSide(c0, wrong))
    assert run.result is None and run.rounds_run == params.nu


class _Recording(GrsCode):
    """A component decoder that records the erasure mask of each call."""

    def __init__(self, code):
        super().__init__(code.field, code.k, code.eval_points, code.col_mults)
        self.masks = []

    def decode_ee(self, words, erased=None, target=None):
        self.masks.append(erased)
        return super().decode_ee(words, erased, target)


def test_round_two_masks_only_erased_words(mid):
    """Erasures exist only in round 2, the first right round: it gets an
    edge mask when some vertex is erased and none otherwise, as no right
    round after it does, and the result is the same as without recording."""
    code, params = mid
    right = _Recording(code.c_double)
    recorded = TannerCode(code.graph, code.c_prime, right)
    rng = np.random.default_rng(44)
    x = code.psi(random_codeword(code, rng))
    for rho in (0, 3):
        right.masks.clear()
        y = corrupt_phi(rng, x, 2, rho, code.field.q)
        rep = decode_phi(recorded, y, params)
        assert np.array_equal(rep.result.values, x)
        assert right.masks and all(m is None for m in right.masks[1:])
        assert (right.masks[0] is None) == (rho == 0)


def test_clustered_support_fixture(mid):
    """Worst-case-style support: a ball around one vertex still decodes."""
    code, params = mid
    g = code.graph
    n = code.n
    rng = np.random.default_rng(35)
    z = random_codeword(code, rng)
    x = code.psi(z)
    t = int(params.sigma * n)
    ball = []
    for u in range(n):
        if len(ball) >= t:
            break
        if u not in ball:
            ball.append(u)
        for v in g.matchings[:, u]:
            for w in np.flatnonzero(g.matchings[0] == v):
                if len(ball) < t and int(w) not in ball:
                    ball.append(int(w))
    support = np.array(ball[:t])
    y = corrupt_phi(rng, x, t, 0, code.field.q, support=support)
    rep = decode_phi(code, y, params)
    assert rep.success
    assert np.array_equal(rep.result.values, x)


def test_iterative_matches_ml_on_tiny(tiny):
    """Exhaustive nearest-codeword oracle agreement within the radius."""
    code, params = tiny
    q = code.field.q
    n = code.n
    gen = code.generator()
    dim = gen.shape[0]
    msgs = np.indices((q,) * dim).reshape(dim, -1).T
    words = (msgs @ gen) % q
    folded = np.array([code.psi(w) for w in words])  # (M, n, k')
    smax = params.sigma * n
    rng = np.random.default_rng(36)

    def ml_decode(y: PhiWord):
        diffs = np.any(folded != y.values[None, :, :], axis=2)
        diffs[:, y.erased] = False
        dists = diffs.sum(axis=1)
        order = int(np.argmin(dists))
        return folded[order], int(dists[order])

    checked = 0
    for widx in range(len(words)):
        x = folded[widx]
        patterns = [(1, 0)] if smax >= 1 else []
        patterns += [(0, rho) for rho in range(0, int(2 * smax) + 1)]
        for (t, rho) in patterns:
            for _ in range(12):
                y = corrupt_phi(rng, x.copy(), t, rho, q)
                rep = decode_phi(code, y, params)
                ml, _ = ml_decode(y)
                assert rep.success
                assert np.array_equal(rep.result.values, ml)
                assert np.array_equal(rep.result.values, x)
                checked += 1
    assert checked > 100


def test_integer_erasure_mask_decodes_as_bool(tiny):
    """An int64 0/1 mask erases the same vertex as its bool form, whichever
    vertex it is (inverted as integers it would read -1 and -2 and index
    rows instead of selecting them)."""
    code, params = tiny
    q = code.field.q
    rng = np.random.default_rng(41)
    x = code.psi(random_codeword(code, rng))
    for v in range(code.n):
        values = x.copy()
        values[v] = rng.integers(0, q, size=code.phi_width)  # junk under the erasure
        mask = np.zeros(code.n, dtype=np.int64)
        mask[v] = 1
        want = decode_phi(code, PhiWord(values, mask.astype(bool)), params)
        got = decode_phi(code, PhiWord(values, mask), params)
        assert want.success and np.array_equal(want.result.values, x)
        assert got.success and np.array_equal(got.result.values, x)
        assert (got.rounds_run, got.component_calls) == (want.rounds_run, want.component_calls)


def test_coset_variant_radius(coset):
    """Left side decoded into cosets of C0; radius from theta0."""
    code, c0, params = coset
    rng = np.random.default_rng(37)
    n = code.n
    for trial in range(40):
        x, s = coset_word(code, c0, rng)
        smax = params.sigma * n
        t = int(rng.integers(0, int(smax) + 1))
        rho = int(rng.integers(0, int(2 * (smax - t)) + 1))
        y = corrupt_phi(rng, x, t, rho, code.field.q)
        rep = decode_phi(code, y, params, cosets=CosetSide(c0, s))
        assert rep.success, f"trial {trial} (t={t}, rho={rho})"
        assert np.array_equal(rep.result.values, x)
        assert rep.component_calls <= params.omega * n


def test_whole_space_left_side_decodes_only_in_cosets(coset):
    code, c0, params = coset
    x, _ = coset_word(code, c0, np.random.default_rng(41))
    with pytest.raises(ValueError, match="decoded only in cosets"):
        decode_phi(code, PhiWord.clean(x), params)


def test_failure_reported_not_silent(mid):
    """Far beyond the radius the report either fails or returns a codeword."""
    code, params = mid
    rng = np.random.default_rng(38)
    z = random_codeword(code, rng)
    x = code.psi(z)
    y = corrupt_phi(rng, x, code.n // 2, 0, code.field.q)
    rep = decode_phi(code, y, params)
    if rep.success:
        assert code.membership(code.unfold(rep.result.values).reshape(-1))


def test_decode_checks_the_received_word_once(mid):
    # errors only at t = floor(sigma*n), as in the plain-errors benchmark
    # workload: unfold checks the word, and the traced decode_ee of rounds 2
    # and 3 check their stacks
    code, params = mid
    rng = np.random.default_rng(39)
    x = code.psi(random_codeword(code, rng))
    y = corrupt_phi(rng, x, math.floor(params.sigma * code.n), 0, code.field.q)
    rep = decode_phi(code, y, params)
    assert rep.success and rep.rounds_run == 3
    assert checks(decode_phi, code, y, params) == 3


# a plain instance where 2*sigma*n = 19.9 reaches d'' = 19, so that a right
# block of round 2 can fail; it builds in about a second
N140_CFG = {
    "mode": "plain", "n": 140, "delta": 36, "q": 37, "k_prime": 18, "k_double": 18,
    "seed": 11, "anneal_iters": 40000,
}


@pytest.fixture(scope="module")
def n140():
    code, params, derived = load_plain_instance(build_plain_instance(N140_CFG, allow_weak=False))
    assert derived["gamma"] == pytest.approx(0.2007, abs=1e-4)
    assert params.nu == 13 and math.floor(params.sigma * code.n) == 9
    return code, params


@pytest.mark.parametrize("placement", ["random", "one-right-vertex"])
def test_n140_battery_at_the_radius(n140, placement):
    """t = 9 errors and rho = 1 erasure (t + rho/2 <= sigma*n = 9.96), at
    random positions or all among the 36 left neighbours of one right
    vertex: exact decoding within nu rounds and omega*n calls, and the
    dirty-vertex schedule agrees with the all-vertex oracle."""
    code, params = n140
    q, n, delta = code.field.q, code.n, code.graph.delta
    rng = np.random.default_rng(140)
    for trial in range(100):
        x = code.psi(code.encode_generic(rng.integers(0, q, size=code.dim)))
        support = None
        if placement == "one-right-vertex":
            left = code.graph.right_edges[trial % n] // delta
            support = rng.choice(left, size=10, replace=False)
        y = corrupt_phi(rng, x, 9, 1, q, support)
        run = assert_matches_oracle(code, params, y)
        assert run.result is not None, f"trial {trial}"
        assert np.array_equal(run.result.values, x)
        assert run.rounds_run <= params.nu
        assert run.component_calls <= params.omega * n
