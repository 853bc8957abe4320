"""Differential tests: the batched GRS kernel against the scalar reference.

Bounded-distance decoding has a unique answer (the only codeword with
2a + b < d, or nothing), so the kernel must agree with the scalar decoder on
every row, inside the radius and beyond it.
"""

import grs_reference as ref
import linalg_reference
import numpy as np
import pytest
from field_contract import assert_acts_on_residues
from hypothesis import given, settings
from hypothesis import strategies as st

from aramid.gf import PrimeField
from aramid.grs import GrsCode, _berlekamp_massey, _erasure_locator, _inverses, _mul_trunc

# (q, length, k, first evaluation point); 0 forces the locator shift
BATTERY_CODES = [
    (37, 36, 18, 1),
    (131, 60, 30, 1),
    (131, 70, 40, 1),
    (131, 130, 80, 1),
    (131, 60, 52, 1),
    (7, 6, 2, 1),
    (7, 6, 2, 0),
    (65521, 40, 10, 65490),
]


def corrupt(rng, code, m, a_max):
    """m random codewords with per-row erasures b in [0, d] and errors a in
    [0, a_max]; erased entries carry junk values."""
    q, n, d = code.field.q, code.length, code.dmin
    words = ref.encode(code, rng.integers(0, q, size=(m, code.k)))
    erased = np.zeros((m, n), dtype=bool)
    for r in range(m):
        b = int(rng.integers(0, d + 1))
        a = int(rng.integers(0, a_max + 1))
        pos = rng.permutation(n)
        erased[r, pos[:b]] = True
        words[r, pos[:b]] = rng.integers(0, q, size=b)
        err = pos[b : b + a]
        words[r, err] = (words[r, err] + rng.integers(1, q, size=len(err))) % q
    return words, erased


def corrupt_exact(rng, code, counts):
    """One random codeword per (b, a) in counts, with b erased positions
    (junk values) and a errors on other positions."""
    q, n = code.field.q, code.length
    words = ref.encode(code, rng.integers(0, q, size=(len(counts), code.k)))
    clean = words.copy()
    erased = np.zeros(words.shape, dtype=bool)
    for r, (b, a) in enumerate(counts):
        pos = rng.permutation(n)
        erased[r, pos[:b]] = True
        words[r, pos[:b]] = rng.integers(0, q, size=b)
        err = pos[b : b + a]
        words[r, err] = (words[r, err] + rng.integers(1, q, size=a)) % q
    return clean, words, erased


def assert_matches_reference(code, words, erased):
    out, ok = code.decode_ee(words, erased)
    assert out.shape == words.shape and ok.shape == (len(words),)
    for r in range(len(words)):
        row_era = None if erased is None else np.broadcast_to(erased, words.shape)[r]
        want = ref.decode_ee(code, words[r], row_era)
        if want is None:
            assert not ok[r], r
        else:
            assert ok[r], r
            assert np.array_equal(out[r], want), r
    return out, ok


@pytest.mark.parametrize("q,n,k,first", BATTERY_CODES)
def test_kernel_matches_reference_battery(q, n, k, first):
    code = GrsCode(PrimeField(q), k, range(first, first + n))
    rng = np.random.default_rng([q, n, k, first])
    words, erased = corrupt(rng, code, 300, code.dmin // 2 + 2)
    out, ok = assert_matches_reference(code, words, erased)
    assert ok.any() and not ok.all()  # both sides of the radius exercised
    filled = np.where(erased, 0, words % q)
    # failed rows hand back the zero-filled received word
    assert np.array_equal(out[~ok], filled[~ok])


@pytest.mark.parametrize("q,n,k,first", BATTERY_CODES)
def test_kernel_errors_only_battery(q, n, k, first):
    # a stack with no erasure mask, so Gamma = 1: xi and zeta are the
    # syndromes and psi is Lambda; a in [0, d//2 + 2] errors per row
    code = GrsCode(PrimeField(q), k, range(first, first + n))
    rng = np.random.default_rng([q, n, k, first, 26])
    a_max = min(code.dmin // 2 + 2, n)
    counts = [(0, int(a)) for a in rng.integers(0, a_max + 1, size=300)]
    clean, words, _ = corrupt_exact(rng, code, counts)
    out, ok = assert_matches_reference(code, words, None)
    assert ok.any() and not ok.all()  # both sides of the radius exercised
    inside = np.array([2 * a < code.dmin for _, a in counts])
    assert ok[inside].all() and np.array_equal(out[inside], clean[inside])
    assert np.array_equal(out[~ok], words[~ok])  # failed rows are handed back


@pytest.mark.parametrize("q,n,k,first", BATTERY_CODES)
def test_kernel_shared_erasure_mask(q, n, k, first):
    code = GrsCode(PrimeField(q), k, range(first, first + n))
    rng = np.random.default_rng([q, k])
    words, _ = corrupt(rng, code, 40, (code.dmin - 1) // 4)
    shared = np.zeros(n, dtype=bool)
    shared[rng.choice(n, size=(code.dmin - 1) // 2, replace=False)] = True
    assert_matches_reference(code, words, shared)


@st.composite
def decoding_cases(draw):
    q = draw(st.sampled_from([7, 11, 13, 17]))
    n = draw(st.integers(1, q - 1))  # length q leaves no nonzero locator shift
    k = draw(st.integers(1, n))
    points = draw(st.permutations(range(q)))[:n]
    mults = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    code = GrsCode(PrimeField(q), k, points, mults)
    m = draw(st.integers(0, 6))
    msgs = np.array(
        draw(st.lists(st.integers(0, q - 1), min_size=m * k, max_size=m * k)),
        dtype=np.int64,
    ).reshape(m, k)
    words = ref.encode(code, msgs).reshape(m, n)
    erased = np.zeros((m, n), dtype=bool)
    for r in range(m):
        pos = draw(st.permutations(range(n)))
        b = draw(st.integers(0, n))
        a = draw(st.integers(0, n - b))
        erased[r, pos[:b]] = True
        for p in pos[b : b + a]:
            words[r, p] = (words[r, p] + draw(st.integers(1, q - 1))) % q
    return code, words, erased


@settings(max_examples=150, deadline=None)
@given(decoding_cases())
def test_kernel_matches_reference_property(case):
    code, words, erased = case
    assert_matches_reference(code, words, erased)
    assert_matches_reference(code, words, None)


def test_kernel_dmin_one_is_identity():
    code = GrsCode(PrimeField(7), k=5, eval_points=range(1, 6))  # d = 1
    words = np.arange(15).reshape(3, 5) % 7
    out, ok = code.decode_ee(words)
    assert ok.all() and np.array_equal(out, words)
    erased = np.zeros((3, 5), dtype=bool)
    erased[1, 2] = True
    out, ok = code.decode_ee(words, erased)
    assert ok.tolist() == [True, False, True]


def test_kernel_rejects_erasures_at_distance():
    code = GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))  # d = 5
    c = ref.encode(code, [[1, 2], [3, 4]])
    erased = np.zeros((2, 6), dtype=bool)
    erased[0, :4] = True  # b = 4 < d
    erased[1, :5] = True  # b = 5 = d
    out, ok = code.decode_ee(c, erased)
    assert ok.tolist() == [True, False]
    assert np.array_equal(out[0], c[0])
    assert ref.decode_word(code, c[1], erased[1]) is None


def test_kernel_zero_evaluation_point_shifts_locators():
    code = GrsCode(PrimeField(11), k=4, eval_points=range(0, 10))
    rng = np.random.default_rng(8)
    words, erased = corrupt(rng, code, 200, 4)
    assert_matches_reference(code, words, erased)


def test_kernel_clean_stack_and_empty_stack():
    code = GrsCode(PrimeField(37), k=18, eval_points=range(1, 37))
    clean = ref.encode(code, np.random.default_rng(9).integers(0, 37, size=(20, 18)))
    out, ok = code.decode_ee(clean)
    assert ok.all() and np.array_equal(out, clean)
    out, ok = code.decode_ee(np.zeros((0, 36), dtype=np.int64))
    assert out.shape == (0, 36) and ok.shape == (0,)


def test_kernel_single_word_contract():
    code = GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))
    c = ref.encode(code, [2, 3])
    y = c.copy()
    y[[0, 1, 2]] = (y[[0, 1, 2]] + 1) % 7  # beyond the radius
    got = ref.decode_word(code, y)
    assert got is None or not code.syndromes(got).any()
    y = c.copy()
    y[4] = (y[4] + 3) % 7
    assert np.array_equal(ref.decode_word(code, y), c)
    with pytest.raises(ValueError):
        code.decode_ee(np.zeros((1, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        code.decode_ee(c)  # one word is a stack of one


def test_kernel_reduces_unreduced_input_and_leaves_it_alone():
    # every GrsCode entry point acts on the residues of its words, messages
    # and targets mod q and never writes into them; sys_project returns a
    # new array
    q = 131
    code = GrsCode(PrimeField(q), k=30, eval_points=range(1, 61))
    rng = np.random.default_rng(21)
    words, erased = corrupt(rng, code, 60, code.dmin // 2 + 2)
    for mask in (erased, None):
        assert_acts_on_residues(lambda w: code.decode_ee(w, mask), (words,), q, rng)
    assert not code.decode_ee(words)[1].all()  # some rows were solved
    noise = rng.integers(0, q, size=words.shape)  # coset words c + noise
    args = ((words + noise) % q, code.syndromes(noise))
    _, ok = assert_acts_on_residues(
        lambda w, t: code.decode_ee(w, erased, target=t), args, q, rng
    )
    assert ok.any() and not ok.all()
    msgs = rng.integers(0, q, size=(5, code.k))
    codewords = assert_acts_on_residues(code.sys_encode, (msgs,), q, rng)
    assert_acts_on_residues(code.sys_project, (codewords,), q, rng, fresh=True)
    assert_acts_on_residues(code.syndromes, (words,), q, rng)


# (q, length, k, first evaluation point) for the coset kernel
COSET_CODES = [(7, 6, 2, 1), (131, 70, 50, 1), (65521, 40, 10, 65490)]


@pytest.mark.parametrize("q,n,k,first", COSET_CODES)
def test_coset_target_matches_shift_path_and_reference(q, n, k, first):
    """decode_ee with a target syndrome stack against the two paths it
    replaced: decoding y - R t in the code and adding R t back (R a right
    inverse of H by elimination), and the scalar decoder with the target."""
    code = GrsCode(PrimeField(q), k, range(first, first + n))
    rng = np.random.default_rng([q, n, k, 22])
    codewords, erased = corrupt(rng, code, 200, code.dmin // 2 + 2)
    noise = rng.integers(0, q, size=codewords.shape)
    words = (codewords + noise) % q  # coset words c + noise, corrupted
    target = code.syndromes(noise)
    out, ok = code.decode_ee(words, erased, target=target)
    assert ok.any() and not ok.all()  # both sides of the radius exercised
    for r in range(len(words)):
        want = ref.decode_ee(code, words[r], erased[r], target[r])
        assert ok[r] == (want is not None), r
        if ok[r]:
            assert np.array_equal(out[r], want), r

    r_inv = linalg_reference.right_inverse_plain(code.parity_check(), q)
    shift = target @ r_inv.T % q
    base, base_ok = code.decode_ee((words - shift) % q, erased)
    assert np.array_equal(ok, base_ok)
    assert np.array_equal(out[ok], (base[ok] + shift[ok]) % q)
    assert np.array_equal(code.syndromes(out[ok]), target[ok])
    # failed rows hand back the zero-filled received word
    assert np.array_equal(out[~ok], np.where(erased, 0, words)[~ok])
    # targets are reduced mod q like the words
    unreduced = target + q * rng.integers(-2, 3, size=target.shape)
    again = code.decode_ee(words, erased, target=unreduced)
    assert np.array_equal(again[0], out) and np.array_equal(again[1], ok)
    with pytest.raises(ValueError):
        code.decode_ee(words, erased, target=target[:, 1:])


def test_certified_width_on_rows_of_different_degree():
    """One stack holds clean rows and certified rows whose errata locators
    have every degree L + b from 1 to 7 = d - 2, so psi is built to width 8 and Omega
    and psi' to width 7, and rows beyond the radius whose stopped
    Berlekamp-Massey locator passes the degree and root checks. Those rows
    have deg Omega = 7 >= deg psi, so only they lose a coefficient to the
    truncation, and they must still fail, as the full computation of the
    scalar decoder has them fail, in the code and in a coset."""
    q = 13
    code = GrsCode(PrimeField(q), k=4, eval_points=range(1, 13))  # d = 9
    n, nsyn = code.length, code.dmin - 1
    h = code.parity_check()
    rng = np.random.default_rng(23)
    # (b, a) inside the radius; every row meets the loop's stop rule
    # N >= min(L + l // 2, l), l = d - 1 - b, by N = 5 terms
    inside = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1), (7, 0)]
    _, words, erased = corrupt_exact(rng, code, inside * 4)
    # beyond it: one error, b erasures and a syndrome change at degrees
    # b + 5 and up, past the 5 terms the stopped loop reads of the row, so
    # that it ends at Lambda = 1 - x_p X with its one root
    extra = []
    for b in (0, 1, 2) * 4:
        pos = rng.permutation(n)
        word = ref.encode(code, rng.integers(0, q, size=code.k))
        word[pos[b]] = (word[pos[b]] + rng.integers(1, q)) % q
        change = np.zeros(nsyn, dtype=np.int64)
        change[b + 5 :] = rng.integers(1, q, size=nsyn - b - 5)
        keep = pos[b:]  # any d - 1 columns of H are independent
        fix = linalg_reference.right_inverse_plain(h[:, keep], q) @ change
        word[keep] = (word[keep] + fix) % q
        word[pos[:b]] = rng.integers(0, q, size=b)
        mask = np.zeros(n, dtype=bool)
        mask[pos[:b]] = True
        extra.append((word, mask))
    words = np.vstack([words, [w for w, _ in extra]])
    erased = np.vstack([erased, [e for _, e in extra]])
    beyond = np.arange(len(words)) >= len(inside) * 4
    order = rng.permutation(len(words))
    words, erased, beyond = words[order], erased[order], beyond[order]

    # the kernel's stopped loop on the rows it solves, and the checks on it
    b = erased.sum(axis=1)
    synd = code.syndromes(np.where(erased, 0, words))
    rows = np.flatnonzero((b > 0) | synd.any(axis=1))
    zeta = np.zeros((len(rows), nsyn), dtype=np.int64)
    for j, r in enumerate(rows):
        gamma = ref.locator_poly(code, np.flatnonzero(erased[r]))
        xi = ref.poly_mul_trunc(gamma, [int(v) for v in synd[r]], nsyn, q)
        zeta[j, : nsyn - b[r]] = xi[b[r] :]
    lam, el = _berlekamp_massey(zeta, nsyn - b[rows], q)
    passing = np.zeros(len(words), dtype=bool)
    for j, r in enumerate(rows):
        poly = [int(v) for v in np.trim_zeros(lam[j], "b")]
        if len(poly) - 1 == el[j] and 2 * el[j] <= nsyn - b[r]:
            psi = ref.poly_mul(poly, ref.locator_poly(code, np.flatnonzero(erased[r])), q)
            passing[r] = len(ref.find_roots(code, psi)) == el[j] + b[r]
    assert passing[beyond].all()
    assert {int(el[j] + b[r]) for j, r in enumerate(rows) if not beyond[r]} == set(range(1, 8))

    out, ok = assert_matches_reference(code, words, erased)
    assert ok[~beyond].all() and not ok[beyond].any()
    noise = rng.integers(0, q, size=words.shape)
    target = code.syndromes(noise)
    got, got_ok = code.decode_ee((words + noise) % q, erased, target=target)
    assert np.array_equal(got_ok, ok)
    assert np.array_equal(got[ok], (out[ok] + noise[ok]) % q)


# (q, length, k): the radius edge with erasures, on the desk component shapes
EDGE_CODES = [(37, 36, 18), (131, 70, 35), (131, 60, 30), (131, 130, 104)]


@pytest.mark.parametrize("q,n,k", EDGE_CODES)
def test_kernel_at_the_radius_edge(q, n, k):
    # a = tau, tau + 1 and tau + 2 errors for tau = floor((d - 1 - b) / 2)
    code = GrsCode(PrimeField(q), k, range(1, n + 1))
    d = code.dmin
    rng = np.random.default_rng([q, n, k, 6])
    erasures = sorted({0, 1, 2, 3, (d - 1) // 2, d - 3, d - 2, d - 1})
    counts = [
        (b, min((d - 1 - b) // 2 + extra, n - b))
        for b in erasures
        for extra in (0, 1, 2)
        for _ in range(8)
    ]
    clean, words, erased = corrupt_exact(rng, code, counts)
    out, ok = assert_matches_reference(code, words, erased)
    inside = np.array([2 * a + b < d for b, a in counts])
    assert ok[inside].all()
    assert np.array_equal(out[inside], clean[inside])
    assert not ok[~inside].all()


@pytest.mark.parametrize("q,n,k", EDGE_CODES)
def test_kernel_mixes_clean_erased_rows_with_full_error_rows(q, n, k):
    # rows of one batch with different key-equation lengths d - 1 - b
    code = GrsCode(PrimeField(q), k, range(1, n + 1))
    d = code.dmin
    rng = np.random.default_rng([q, n, k, 7])
    counts = [(int(rng.integers(1, d)), 0) for _ in range(20)]
    counts += [(0, (d - 1) // 2)] * 20
    order = rng.permutation(len(counts))
    clean, words, erased = corrupt_exact(rng, code, [counts[i] for i in order])
    out, ok = assert_matches_reference(code, words, erased)
    assert ok.all() and np.array_equal(out, clean)


@pytest.mark.parametrize("q,n,k,rows", [(7, 6, 2, 3000), (13, 12, 4, 3000)])
def test_one_row_stacks_beyond_the_radius(q, n, k, rows):
    # a = (d - 1)//2 .. (d - 1)//2 + 3 errors, one row per stack: Berlekamp-
    # Massey stops at that row's own Massey limit, so beyond the radius a
    # locator can pass the degree check and the root count and still be
    # refused, by deg Omega < deg psi alone; such rows must occur
    code = GrsCode(PrimeField(q), k, range(1, n + 1))
    d = code.dmin
    rng = np.random.default_rng([q, n, k, 9])
    counts = [(0, int(a)) for a in rng.integers(0, 4, size=rows) + (d - 1) // 2]
    _, words, _ = corrupt_exact(rng, code, counts)
    decided_last = 0
    for word in words:
        out, ok = code.decode_ee(word[None])
        want = ref.decode_ee(code, word)
        assert ok[0] == (want is not None)
        assert np.array_equal(out[0], word if want is None else want)
        synd = code.syndromes(word[None])
        if not ok[0] and synd.any():
            lam, el = _berlekamp_massey(synd, np.array([d - 1]), q)
            locator = lam[0, : int(el[0]) + 1].tolist()
            decided_last += (
                locator[-1] != 0
                and 2 * el[0] <= d - 1
                and len(ref.find_roots(code, locator)) == el[0]
            )
    assert decided_last > 0


def lfsr_terms(rng, q, span, count):
    """count terms of a random LFSR of length `span`: every term from index
    span on is -sum_i c_i s_(j-i) for a random connection polynomial c."""
    c = rng.integers(0, q, size=span + 1)
    s = list(rng.integers(0, q, size=span))
    while len(s) < count:
        s.append(-sum(int(c[i]) * s[-i] for i in range(1, span + 1)) % q)
    return np.array(s[:count], dtype=np.int64)


@pytest.mark.parametrize("q", [7, 131, 65521])
def test_berlekamp_massey_stop_rule_on_arbitrary_sequences(q):
    # random sequences and LFSR outputs of length near floor(l/2), with l of
    # both parities; junk past a row's own length must be ignored. Wherever
    # the full loop finds 2L <= l, the stopped loop must give the same
    # register, alone and in a batch with rows of other lengths.
    rng = np.random.default_rng(q)
    width = 33
    for _ in range(60):
        m = int(rng.integers(1, 9))
        length = rng.integers(0, width + 1, size=m)
        zeta = rng.integers(0, q, size=(m, width))
        for r in range(m):
            if rng.random() < 0.6:
                span = max(int(length[r]) // 2 + int(rng.integers(-2, 2)), 0)
                zeta[r, : length[r]] = lfsr_terms(rng, q, span, int(length[r]))
        lam, el = _berlekamp_massey(zeta, length, q)
        for r in range(m):
            want, want_el = ref.berlekamp_massey(zeta[r, : length[r]].tolist(), q)
            if 2 * want_el > length[r]:
                continue
            lam1, el1 = _berlekamp_massey(zeta[r : r + 1], length[r : r + 1], q)
            for got, got_el in ((lam[r], el[r]), (lam1[0], el1[0])):
                assert got_el == want_el
                assert np.all(got[len(want) :] == 0)
                assert got[: len(want)].tolist() == want


@pytest.mark.parametrize("q", [7, 131, 65521])
def test_berlekamp_massey_batch_with_silent_steps(q):
    # Each row is zeros, then a short LFSR from a nonzero term, then junk
    # past its own length, so the batch has steps with no discrepancy on any
    # row before, between and after the steps where registers grow. Some
    # rows stay silent past half their length l and then grow beyond it
    # (L > floor(l/2)). Row 0, of 2h terms, has a discrepancy only at step
    # h - 1, which makes its L = h and keeps the loop running through every
    # row's length, so each row must get the full loop's register.
    rng = np.random.default_rng([q, 19])
    width, h = 32, 16
    grown = 0
    for _ in range(40):
        m = int(rng.integers(2, 9))
        length = rng.integers(4, width + 1, size=m)
        length[0] = width
        zeta = rng.integers(0, q, size=(m, width))
        zeta[0] = 0
        zeta[0, h - 1] = int(rng.integers(1, q))
        zeta[0, 2 * h - 1] = zeta[0, h - 1] ** 2 % q
        for r in range(1, m):
            l = int(length[r])
            zeros = int(rng.integers(l // 2, l)) if rng.random() < 0.5 else int(rng.integers(1, 4))
            zeros = min(zeros, l - 1)
            terms = lfsr_terms(rng, q, int(rng.integers(1, 4)), l - zeros)
            terms[0] = int(rng.integers(1, q))
            zeta[r, :zeros] = 0
            zeta[r, zeros:l] = terms
        lam, el = _berlekamp_massey(zeta, length, q)
        for r in range(m):
            want, want_el = ref.berlekamp_massey(zeta[r, : length[r]].tolist(), q)
            assert el[r] == want_el, r
            assert lam[r, : len(want)].tolist() == want and not lam[r, len(want) :].any()
            grown += 2 * want_el > length[r]
            if 2 * want_el <= length[r]:  # within the radius it also stops alone
                lam1, el1 = _berlekamp_massey(zeta[r : r + 1], length[r : r + 1], q)
                assert el1[0] == want_el and lam1[0, : len(want)].tolist() == want
    assert grown >= 20


@pytest.mark.parametrize("q", [7, 131, 65521])
def test_erasure_locator_matches_reference(q):
    # up to 24 erasures per row on locators spread over the field: twelve
    # reduction periods at q = 65521 (one per 2 factors), three at q = 131
    # (one per 7); rows of one batch have different erasure counts
    rng = np.random.default_rng([q, 20])
    n = min(q - 1, 60)
    code = GrsCode(PrimeField(q), 1, rng.choice(np.arange(1, q), size=n, replace=False))
    for _ in range(20):
        m = int(rng.integers(1, 9))
        b = rng.integers(0, min(n, 24) + 1, size=m)
        era = np.zeros((m, n), dtype=bool)
        for r in range(m):
            era[r, rng.choice(n, size=b[r], replace=False)] = True
        got = _erasure_locator(code._locators, era, b, q)
        assert got.shape == (m, int(b.max()) + 1)
        for r in range(m):
            want = ref.locator_poly(code, np.flatnonzero(era[r]))
            assert got[r, : len(want)].tolist() == want and not got[r, len(want) :].any()


@pytest.mark.parametrize("q", [7, 131, 65521])
def test_mul_trunc_matches_reference_for_any_widths(q):
    # the left operand is monic; either operand may be the wider one, and
    # the truncation width may cut into both, fall between them or lie past
    # the full product. a = 1 gives b, and two monic operands commute.
    rng = np.random.default_rng(q + 1)
    for _ in range(80):
        m = int(rng.integers(1, 6))
        wa, wb = (int(w) for w in rng.integers(1, 20, size=2))
        width = int(rng.integers(1, wa + wb + 3))
        a = rng.integers(0, q, size=(m, wa))
        a[:, 0] = 1
        b = rng.integers(0, q, size=(m, wb))
        got = _mul_trunc(a, b, width, q)
        for r in range(m):
            want = ref.poly_mul_trunc(a[r].tolist(), b[r].tolist(), width, q)
            assert got[r].tolist() == want
        assert np.array_equal(_mul_trunc(a[:, :1], b, width, q)[:, :wb], b[:, :width])
        b[:, 0] = 1
        assert np.array_equal(_mul_trunc(a, b, width, q), _mul_trunc(b, a, width, q))


@pytest.mark.parametrize("q", [2, 3, 37])
def test_inverse_table(q):
    inv = _inverses(q)
    assert inv[0] == 0
    a = np.arange(1, q)
    assert np.all(a * inv[1:] % q == 1)


class _BareField:
    """Stands in for GF(2), which PrimeField does not admit; the table
    construction reads only q and the intake rule `elements`."""

    elements = PrimeField.elements

    def __init__(self, q):
        self.q = q


def _table_cases(q):
    """(k, points, multipliers) triples over GF(q): every length below q up
    to 61, a point at 0 in every code, q - 1 beside it where the length
    allows (so the locator shift skips more than one value), random
    multipliers, and k = 1, about n/2 and n."""
    rng = np.random.default_rng(q)
    for n in sorted({1, min(q - 1, 7), min(q - 1, 61)}):
        rest = rng.choice(np.arange(1, q - 1), size=max(n - 2, 0), replace=False)
        pts = np.concatenate([[0], [q - 1] if n >= 2 else [], rest]).astype(np.int64)
        mults = rng.integers(1, q, size=n)
        for k in sorted({1, max(n // 2, 1), n}):
            yield k, pts, mults


@pytest.mark.parametrize("q", [2, 3, 37, 131, 65521])
def test_tables_match_loop_construction(q):
    field = PrimeField(q) if q > 2 else _BareField(q)
    for k, pts, mults in _table_cases(q):
        code = GrsCode(field, k, pts, mults)
        want = ref.tables(q, k, pts, mults)
        kept = {name for name, v in vars(code).items() if isinstance(v, np.ndarray)}
        assert kept == {"eval_points", "col_mults", *ref.TABLES}
        for name in ref.TABLES:
            got = getattr(code, name)
            assert got.dtype == want[name].dtype, name
            assert got.shape == want[name].shape, name
            assert np.array_equal(got, want[name]), (name, k, len(pts))
        # H.T is the operand of every syndrome product, used as it is stored
        assert code._parity.flags.c_contiguous
        assert np.array_equal(code.parity_check(), want["_parity"].T)
        assert code.parity_check().dtype == np.int64


def test_tables_match_loop_construction_long_code():
    # an odd length, so every halving of the product tree carries a row
    q, n = 65521, 333
    rng = np.random.default_rng(2)
    pts = rng.choice(q, size=n, replace=False)
    mults = rng.integers(1, q, size=n)
    code = GrsCode(PrimeField(q), 111, pts, mults)
    want = ref.tables(q, 111, pts, mults)
    for name in ref.TABLES:
        assert np.array_equal(getattr(code, name), want[name]), name


def test_full_length_code_has_no_locator_shift():
    with pytest.raises(ValueError, match="nonzero locators"):
        GrsCode(PrimeField(7), 3, range(7))
