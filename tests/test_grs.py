import itertools
import tracemalloc

import numpy as np
import pytest

from aramid.gf import PrimeField
from aramid.grs import GrsCode


@pytest.fixture(scope="module")
def rs625():
    """[6,2,5] GRS over GF(7), points 1..6, unit multipliers."""
    return GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))


def brute_nearest(code, values, erased=None):
    """Independent oracle: nearest codeword by exhaustive enumeration,
    ignoring erased positions; returns (codeword, distance, unique)."""
    words = code.all_codewords()
    diffs = words != np.asarray(values)[None, :]
    if erased is not None:
        diffs = diffs[:, ~np.asarray(erased, dtype=bool)]
    dists = diffs.sum(axis=1)
    best = int(dists.min())
    idx = np.flatnonzero(dists == best)
    return words[idx[0]], best, len(idx) == 1


def test_encode_constant_polynomial(rs625):
    assert rs625.encode([1, 0]).tolist() == [1, 1, 1, 1, 1, 1]


def test_encode_identity_polynomial(rs625):
    assert rs625.encode([0, 1]).tolist() == [1, 2, 3, 4, 5, 6]


def test_encode_hand_evaluated(rs625):
    # p(x) = 2 + 3x mod 7 at x = 1..6
    assert rs625.encode([2, 3]).tolist() == [5, 1, 4, 0, 3, 6]


def test_encode_linear(rs625):
    rng = np.random.default_rng(3)
    for _ in range(50):
        m1, m2 = rng.integers(0, 7, size=(2, 2))
        lhs = rs625.encode((m1 + m2) % 7)
        rhs = (rs625.encode(m1) + rs625.encode(m2)) % 7
        assert np.array_equal(lhs, rhs)


def test_mds_minimum_distance_brute(rs625):
    assert rs625.min_distance_brute() == 5


def test_sys_encode_round_trip(rs625):
    rng = np.random.default_rng(4)
    for _ in range(20):
        msg = rng.integers(0, 7, size=2)
        c = rs625.sys_encode(msg)
        assert not rs625.syndromes(c).any()
        assert np.array_equal(rs625.sys_project(c), msg)


def test_decode_clean_is_identity(rs625):
    c = rs625.encode([4, 2])
    assert np.array_equal(rs625.decode_ee(c), c)
    assert np.array_equal(rs625.decode_ee(np.zeros(6, dtype=np.int64)), np.zeros(6))


def test_decode_two_errors_example(rs625):
    c = np.array([1, 2, 3, 4, 5, 6])
    y = c.copy()
    y[0] = 5
    y[1] = 5
    got = rs625.decode_ee(y)
    assert np.array_equal(got, c)
    oracle, dist, unique = brute_nearest(rs625, y)
    assert unique and dist == 2 and np.array_equal(oracle, c)


def test_decode_four_erasures(rs625):
    c = rs625.encode([3, 6])
    erased = np.zeros(6, dtype=bool)
    erased[[0, 2, 4, 5]] = True
    got = rs625.decode_ee(c, erased)
    assert np.array_equal(got, c)
    oracle, dist, _ = brute_nearest(rs625, c, erased)
    assert dist == 0 and np.array_equal(oracle, c)


def test_decode_errors_only_random_trials(rs625):
    rng = np.random.default_rng(5)
    for _ in range(200):
        msg = rng.integers(0, 7, size=2)
        c = rs625.encode(msg)
        y = c.copy()
        pos = rng.choice(6, size=2, replace=False)
        for p in pos:
            y[p] = (y[p] + rng.integers(1, 7)) % 7
        got = rs625.decode_ee(y)
        oracle, _, unique = brute_nearest(rs625, y)
        assert unique
        assert np.array_equal(got, oracle)
        assert np.array_equal(got, c)


def test_beyond_radius_contract(rs625):
    # 3 errors: FAIL or a codeword other than the original is permitted.
    c = rs625.encode([1, 1])
    y = c.copy()
    y[[0, 1, 2]] = (y[[0, 1, 2]] + 1) % 7
    got = rs625.decode_ee(y)
    if got is not None:
        assert not rs625.syndromes(got).any()


def test_exhaustive_error_erasure_contract(rs625):
    """Every codeword, every (a, b) with 2a + b < 5, every support and value."""
    codewords = rs625.all_codewords()
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
                            got = rs625.decode_ee(y, erased if b else None)
                            if got is None or not np.array_equal(got, c):
                                failures += 1
    assert failures == 0


def coset_decode(code, h, y):
    """Nearest word v with H v = h within 2a < d of y, by the path the
    iterative decoder takes: shift by a word of syndrome h, decode, unshift."""
    q = code.field.q
    t = (code.parity_right_inverse() @ (np.asarray(h, dtype=np.int64) % q)) % q
    base = code.decode_ee((np.asarray(y, dtype=np.int64) - t) % q)
    return None if base is None else (base + t) % q


def test_coset_decode_zero_syndrome_matches_plain(rs625):
    c = rs625.encode([2, 5])
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
        coset = (code.all_codewords() + t[None, :]) % 7
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
        c = code.encode(rng.integers(0, 7, size=2))
        y = c.copy()
        pos = rng.choice(6, size=2, replace=False)
        for p in pos:
            y[p] = (y[p] + rng.integers(1, 7)) % 7
        assert np.array_equal(code.decode_ee(y), c)


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
        rs625.encode([1, 2, 3])


def test_construction_peak_is_its_retained_tables():
    # the generator and parity tables are scaled in place: `_powers(...) *
    # mults % q` would hold two more k x n int64 tables, a 1.6x peak here;
    # the n x n difference matrix of the Forney products (30.5 MiB) comes
    # first, below the 42.8 MiB the code then keeps
    tracemalloc.start()
    try:
        code = GrsCode(PrimeField(2003), k=1600, eval_points=range(1, 2001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(code).values() if isinstance(v, np.ndarray))
    assert peak <= 1.1 * kept, f"peak {peak / kept:.2f}x the retained tables"
