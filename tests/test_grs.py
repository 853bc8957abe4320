import itertools

import grs_reference as ref
import linalg_reference
import numpy as np
import pytest
from memtrace import traced_peak

from aramid import linalg
from aramid.gf import PrimeField
from aramid.grs import GrsCode


@pytest.fixture(scope="module")
def rs625():
    """[6,2,5] GRS over GF(7), points 1..6, unit multipliers."""
    return GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))


def brute_nearest(code, values, erased=None):
    """Independent oracle: nearest codeword by exhaustive enumeration,
    ignoring erased positions; returns (codeword, distance, unique)."""
    words = ref.all_codewords(code)
    diffs = words != np.asarray(values)[None, :]
    if erased is not None:
        diffs = diffs[:, ~np.asarray(erased, dtype=bool)]
    dists = diffs.sum(axis=1)
    best = int(dists.min())
    idx = np.flatnonzero(dists == best)
    return words[idx[0]], best, len(idx) == 1


def test_encode_constant_polynomial(rs625):
    assert ref.encode(rs625, [1, 0]).tolist() == [1, 1, 1, 1, 1, 1]


def test_encode_identity_polynomial(rs625):
    assert ref.encode(rs625, [0, 1]).tolist() == [1, 2, 3, 4, 5, 6]


def test_encode_hand_evaluated(rs625):
    # p(x) = 2 + 3x mod 7 at x = 1..6
    assert ref.encode(rs625, [2, 3]).tolist() == [5, 1, 4, 0, 3, 6]


def test_encode_linear(rs625):
    rng = np.random.default_rng(3)
    for _ in range(50):
        m1, m2 = rng.integers(0, 7, size=(2, 2))
        lhs = ref.encode(rs625, (m1 + m2) % 7)
        rhs = (ref.encode(rs625, m1) + ref.encode(rs625, m2)) % 7
        assert np.array_equal(lhs, rhs)


def test_mds_minimum_distance_brute(rs625):
    assert ref.min_distance_brute(rs625) == 5


def test_sys_encode_round_trip(rs625):
    rng = np.random.default_rng(4)
    for _ in range(20):
        msg = rng.integers(0, 7, size=2)
        c = rs625.sys_encode(msg)
        assert not rs625.syndromes(c).any()
        assert np.array_equal(rs625.sys_project(c), msg)


def test_decode_clean_is_identity(rs625):
    c = ref.encode(rs625, [4, 2])
    assert np.array_equal(ref.decode_word(rs625, c), c)
    assert np.array_equal(ref.decode_word(rs625, np.zeros(6, dtype=np.int64)), np.zeros(6))


def test_decode_two_errors_example(rs625):
    c = np.array([1, 2, 3, 4, 5, 6])
    y = c.copy()
    y[0] = 5
    y[1] = 5
    got = ref.decode_word(rs625, y)
    assert np.array_equal(got, c)
    oracle, dist, unique = brute_nearest(rs625, y)
    assert unique and dist == 2 and np.array_equal(oracle, c)


def test_decode_four_erasures(rs625):
    c = ref.encode(rs625, [3, 6])
    erased = np.zeros(6, dtype=bool)
    erased[[0, 2, 4, 5]] = True
    got = ref.decode_word(rs625, c, erased)
    assert np.array_equal(got, c)
    oracle, dist, _ = brute_nearest(rs625, c, erased)
    assert dist == 0 and np.array_equal(oracle, c)


def test_decode_errors_only_random_trials(rs625):
    rng = np.random.default_rng(5)
    for _ in range(200):
        msg = rng.integers(0, 7, size=2)
        c = ref.encode(rs625, msg)
        y = c.copy()
        pos = rng.choice(6, size=2, replace=False)
        for p in pos:
            y[p] = (y[p] + rng.integers(1, 7)) % 7
        got = ref.decode_word(rs625, y)
        oracle, _, unique = brute_nearest(rs625, y)
        assert unique
        assert np.array_equal(got, oracle)
        assert np.array_equal(got, c)


def test_beyond_radius_contract(rs625):
    # 3 errors: FAIL or a codeword other than the original is permitted.
    c = ref.encode(rs625, [1, 1])
    y = c.copy()
    y[[0, 1, 2]] = (y[[0, 1, 2]] + 1) % 7
    got = ref.decode_word(rs625, y)
    if got is not None:
        assert not rs625.syndromes(got).any()


def test_exhaustive_error_erasure_contract(rs625):
    """Every codeword, every (a, b) with 2a + b < 5, every support and value."""
    codewords = ref.all_codewords(rs625)
    n = 6
    failures = 0
    for c in codewords:
        for b in range(5):
            for era in itertools.combinations(range(n), b):
                erased = np.zeros(n, dtype=bool)
                erased[list(era)] = True
                rest = [i for i in range(n) if i not in era]
                max_a = (5 - 1 - b) // 2
                for a in range(max_a + 1):
                    for errs in itertools.combinations(rest, a):
                        for vals in itertools.product(range(1, 7), repeat=a):
                            y = c.copy()
                            for p, dv in zip(errs, vals):
                                y[p] = (y[p] + dv) % 7
                            got = ref.decode_word(rs625, y, erased if b else None)
                            if got is None or not np.array_equal(got, c):
                                failures += 1
    assert failures == 0


def coset_decode(code, h, y):
    """Nearest word v with H v = h within 2a < d of y, by the path the
    iterative decoder takes: h is the kernel's target syndrome."""
    out, ok = code.decode_ee(np.asarray(y)[None], target=np.asarray(h)[None])
    return out[0] if ok[0] else None


def test_coset_decode_zero_syndrome_matches_plain(rs625):
    c = ref.encode(rs625, [2, 5])
    y = c.copy()
    y[3] = (y[3] + 2) % 7
    h = np.zeros(4, dtype=np.int64)
    assert np.array_equal(coset_decode(rs625, h, y), c)


def test_coset_decode_one_error():
    """Brute-force oracle over the whole coset (code + shift)."""
    code = GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = rng.integers(0, 7, size=6)
        h = code.syndromes(t)
        coset = (ref.all_codewords(code) + t[None, :]) % 7
        w = coset[rng.integers(len(coset))]
        y = w.copy()
        p = rng.integers(6)
        y[p] = (y[p] + rng.integers(1, 7)) % 7
        got = coset_decode(code, h, y)
        assert got is not None
        assert np.array_equal(code.syndromes(got), h % 7)
        dists = np.count_nonzero(coset != y[None, :], axis=1)
        oracle = coset[int(np.argmin(dists))]
        assert np.array_equal(got, oracle)
        assert np.array_equal(got, w)


def test_coset_decode_fixed_point(rs625):
    t = np.array([1, 0, 3, 2, 0, 5])
    h = rs625.syndromes(t)
    got = coset_decode(rs625, h, t)
    assert got is not None
    assert np.array_equal(rs625.syndromes(got), h)
    # zero errors: the clean coset word decodes to itself
    assert np.count_nonzero(got != t) == 0


def test_decoder_handles_zero_evaluation_point():
    """Locator shift: points including 0 still decode correctly."""
    code = GrsCode(PrimeField(7), k=2, eval_points=range(0, 6))
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = ref.encode(code, rng.integers(0, 7, size=2))
        y = c.copy()
        pos = rng.choice(6, size=2, replace=False)
        for p in pos:
            y[p] = (y[p] + rng.integers(1, 7)) % 7
        assert np.array_equal(ref.decode_word(code, y), c)


def test_rejects_bad_parameters():
    f = PrimeField(7)
    with pytest.raises(ValueError):
        GrsCode(f, k=2, eval_points=[1, 1, 2])  # repeated point
    with pytest.raises(ValueError):
        GrsCode(f, k=2, eval_points=[1, 2, 3], col_mults=[1, 0, 1])
    with pytest.raises(ValueError):
        GrsCode(f, k=9, eval_points=range(1, 7))
    with pytest.raises(ValueError):
        GrsCode(f, k=2, eval_points=range(8))  # length > q


def test_wrong_message_length(rs625):
    with pytest.raises(ValueError):
        rs625.sys_encode([1, 2, 3])


def test_sys_project_refuses_wrong_word_length():
    code = GrsCode(PrimeField(37), k=18, eval_points=range(1, 37))
    rng = np.random.default_rng(24)
    for bad in ((5,), (3, 40), (36, 3), ()):
        with pytest.raises(ValueError, match=r"word length must be 36, got shape"):
            code.sys_project(rng.integers(0, 37, size=bad))
    msgs = rng.integers(0, 37, size=(3, 18))
    assert np.array_equal(code.sys_project(code.sys_encode(msgs)), msgs)
    assert np.array_equal(code.sys_project(code.sys_encode(msgs[0])), msgs[0])


def _random_codes(seed, qs, count):
    """count lengths per q, each with random points and nonzero
    multipliers, and k = 1, n - 1, n and one random k for each."""
    rng = np.random.default_rng(seed)
    for q in qs:
        for _ in range(count):
            n = int(rng.integers(1, min(q - 1, 90) + 1))
            for k in sorted({1, max(n - 1, 1), n, int(rng.integers(1, n + 1))}):
                pts = rng.choice(q, size=n, replace=False)
                yield GrsCode(PrimeField(q), k, pts, rng.integers(1, q, size=n)), rng


@pytest.mark.parametrize("q", [3, 7, 37, 131, 65521])
def test_systematic_encoder_and_right_inverse_match_elimination(q):
    # the closed-form [I | P] against an RREF of the monomial generator, the
    # construction it replaced; and the right inverse R of H from an RREF of
    # [H | I]: the words R s, one per syndrome s, are the words the target
    # decoder returns unchanged in their cosets
    for code, rng in _random_codes(q, [q], 4):
        n, k = code.length, code.k
        gen = ref.monomial_generator(q, k, code.eval_points, code.col_mults)
        sys_gen, pivots = linalg_reference.rref_plain(gen, q)
        assert pivots == list(range(k))
        assert np.array_equal(code.sys_encode(np.eye(k, dtype=np.int64)), sys_gen)
        msgs = rng.integers(0, q, size=(5, k))
        msgs[0] = q - 1
        assert np.array_equal(code.sys_encode(msgs), msgs @ sys_gen % q)
        assert np.array_equal(code.sys_encode(msgs[1]), msgs[1] @ sys_gen % q)
        r = linalg_reference.right_inverse_plain(code.parity_check(), q)
        synd = rng.integers(0, q, size=(5, n - k))
        words = synd @ r.T % q
        assert np.array_equal(code.syndromes(words), synd)
        out, ok = code.decode_ee(words, target=synd)
        assert ok.all() and np.array_equal(out, words)


def test_grs_runs_no_elimination(monkeypatch):
    # construction, encoding and decoding, in the code and in its cosets,
    # are closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("grs called linalg.rref")

    monkeypatch.setattr(linalg, "rref", refuse)
    for code, rng in _random_codes(5, [7, 37, 131], 3):
        n, k, q = code.length, code.k, code.field.q
        msgs = rng.integers(0, q, size=(4, k))
        words = code.sys_encode(msgs)
        assert np.array_equal(code.sys_project(words), msgs)
        erased = rng.random(words.shape) < 0.2
        out, ok = code.decode_ee(words, erased)
        assert np.array_equal(out[ok], words[ok])
        noise = rng.integers(0, q, size=words.shape)
        shifted = (words + noise) % q
        out, ok = code.decode_ee(shifted, erased, target=code.syndromes(noise))
        assert np.array_equal(out[ok], shifted[ok])


def test_construction_peak_is_its_retained_tables():
    # construction and the first sys_encode: the systematic redundancy block
    # is built first, in closed form, and its int64 temporaries are freed
    # before the parity and inverse-power tables, whose int64 powers are
    # built one block of positions at a time and stored in float64;
    # the difference products run over column blocks, so the n x n matrix
    # (30.5 MiB) is never held. A generator kept beside them, or an RREF of
    # one at the first encode, reads above 1.3x
    def build_and_encode():
        code = GrsCode(PrimeField(2003), k=1600, eval_points=range(1, 2001))
        code.sys_encode(np.ones(1600, dtype=np.int64))
        return code

    code, peak = traced_peak(build_and_encode)
    kept = sum(v.nbytes for v in vars(code).values() if isinstance(v, np.ndarray))
    assert peak <= 1.1 * kept, f"peak {peak / kept:.2f}x the retained tables"
