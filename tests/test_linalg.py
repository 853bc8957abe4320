from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from memtrace import traced_peak

from aramid import linalg


def _rank(a, q):
    return len(linalg.rref(a, q)[0])


def assert_rref_matches_plain(a, q, block=linalg._BLOCK):
    """linalg.rref's (pivots, R[:rank, free]), eliminated in panels of
    `block` columns, against the single-pivot oracle's; returns the
    pivots."""
    p1, s1 = ref.rref_free(a, q)
    with mock.patch.object(linalg, "_BLOCK", block):
        p2, s2 = linalg.rref(a, q)
    assert p1 == p2
    assert s2.dtype == np.int64 and s2.shape == s1.shape
    assert np.array_equal(s1, s2)
    return p2


@pytest.mark.parametrize("q", [5, 37, 131, 3, 65521])
@pytest.mark.parametrize(
    "shape",
    [(8, 8), (20, 35), (35, 20), (150, 170), (170, 150), (0, 9), (9, 0), (1, 1)],
)
def test_blocked_rref_matches_plain(q, shape):
    rng = np.random.default_rng(hash((q, shape)) % 2**32)
    a = rng.integers(0, q, size=shape, dtype=np.int64)
    assert_rref_matches_plain(a, q, block=16)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([3, 37, 131, 65521]),
    rows=st.integers(0, 40),
    cols=st.integers(0, 40),
    rank=st.integers(0, 40),
    density=st.sampled_from([1.0, 0.3, 0.05]),
    block=st.sampled_from([1, 7, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_matches_plain_property(q, rows, cols, rank, density, block, seed):
    # tall, wide, empty and rank-deficient inputs: a product through a rank
    # bottleneck, thinned to the given density
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=(rows, rank)) @ rng.integers(0, q, size=(rank, cols))
    a = a * (rng.random((rows, cols)) < density) % q
    assert_rref_matches_plain(a, q, linalg._BLOCK if block is None else block)


@pytest.mark.parametrize("block", [1, 7, linalg._LEAF + 1, linalg._BLOCK])
def test_rref_extreme_entries_q65521(block):
    # every factor and pivot-row entry read by the first panel is q-1, so the
    # unreduced update reaches block*(q-1)**2 per entry
    q = 65521
    k, m = block, 90
    a = np.full((k + m, k + m), q - 1, dtype=np.int64)
    a[:k, :k] = np.eye(k, dtype=np.int64)
    assert_rref_matches_plain(a, q, block)
    # dense pivots in every column: (q-1)J - I has full rank over GF(q)
    b = np.full((120, 130), q - 1, dtype=np.int64) - np.eye(120, 130, dtype=np.int64)
    pivots = assert_rref_matches_plain(b, q, block)
    assert pivots == list(range(120))
    # two identity blocks in a sea of q-1: where the first panel is split,
    # its halves pivot on them, so the left half's T is I and the
    # Schur-complement product and the T combination both read a block of
    # q-1 from the pivot rows
    h = block // 2
    c = np.full((block + m, block + m), q - 1, dtype=np.int64)
    c[:h, :h] = np.eye(h, dtype=np.int64)
    c[h:block, h:block] = np.eye(block - h, dtype=np.int64)
    assert_rref_matches_plain(c, q, block)
    # already in echelon form with an identity block per panel and q-1 to its
    # right: every entry the back-substitution reads from U is q-1
    panels = max(2, -(-40 // block))
    n = panels * block
    d = np.triu(np.full((n, n + 5), q - 1, dtype=np.int64))
    for s in range(0, n, block):
        d[s : s + block, s : s + block] = np.eye(block, dtype=np.int64)
    pivots = assert_rref_matches_plain(d, q, block)
    assert pivots == list(range(n))


@pytest.mark.parametrize("q", [2, 65521])
@pytest.mark.parametrize("block", [1, linalg._LEAF, linalg._LEAF + 1, 1000])
@pytest.mark.parametrize("shape", [(300, 40), (40, 300)])
def test_rref_panels_without_pivots(q, block, shape):
    # rank 12 with zero columns: the whole second panel, the left half of the
    # fourth and the right half of the fifth; one column repeats an earlier
    # one, and on the wide shape every panel after the rank runs out of
    # pivots has none
    rows, cols = shape
    rng = np.random.default_rng(block * 7 + cols)
    a = rng.integers(0, q, size=(rows, 12)) @ rng.integers(0, q, size=(12, cols)) % q
    h = max(block // 2, 1)
    for start, stop in ((block, 2 * block), (3 * block, 3 * block + h), (5 * block - h, 5 * block)):
        a[:, start:stop] = 0
    a[:, [0, 5, 6]] = 0
    a[:, 9] = a[:, 8]
    assert_rref_matches_plain(a, q, block)


def _unit_lu(rows, cols, q):
    """L U mod q, L unit lower and U unit upper triangular with q - 1 in
    every other entry of their triangles. Eliminated one pivot at a time,
    every multiplier and pivot-row entry is q - 1, so the last trailing
    entries reach (rows - 1)*(q - 1)**2, close to the bound B."""
    lower = np.tril(np.full((rows, rows), q - 1), -1) + np.eye(rows, dtype=np.int64)
    upper = np.triu(np.full((rows, cols), q - 1), 1) + np.eye(rows, cols, dtype=np.int64)
    return lower @ upper % q


@pytest.mark.parametrize("kind", ["random", "rank-deficient", "all-q-1", "unit-lu"])
@pytest.mark.parametrize(
    "shape, dtype",
    [((255, 300), np.float32), ((256, 300), np.float64), ((300, 345), np.float64)],
    ids=["B-below-2**24", "B-just-above-2**24", "float32-would-round"],
)
def test_rref_exact_at_the_float32_boundary(kind, shape, dtype):
    # q = 257: B = min(rows, cols)*256**2 + 257 is below 2**24 for 255 rows
    # and above it from 256; at 300 rows, one pivot per panel, the unit LU's
    # unreduced trailing entries would pass 2**24, where float32 no longer
    # holds every integer. The store is uint16 (q - 1 = 256 needs 9 bits)
    # whatever the shape; only the dtype the products run in follows B
    q = 257
    rows, cols = shape
    rng = np.random.default_rng(rows)
    if kind == "random":
        a = rng.integers(0, q, size=shape)
    elif kind == "rank-deficient":
        a = rng.integers(0, q, size=(rows, 200)) @ rng.integers(0, q, size=(200, cols)) % q
    elif kind == "all-q-1":
        a = np.full(shape, q - 1)
    else:
        a = _unit_lu(rows, cols, q)
    r = linalg._load(a, q)
    assert r.dtype == np.uint16
    assert linalg._echelon(r, q)[2].dtype == dtype
    for block in (1, linalg._BLOCK):
        assert_rref_matches_plain(a, q, block)


@pytest.mark.parametrize("block", [1, 16])
def test_float32_elimination_never_upcasts(monkeypatch, block):
    # every value the elimination computes passes through _reduce before it
    # is stored, so one float64 temporary, such as a default-dtype
    # allocation or a conversion of the uint8 store to the wrong float
    # dtype, shows up here under both value-based casting and NEP 50
    seen = set()
    reduce = linalg._reduce

    def spy(x, q):
        out = reduce(x, q)
        seen.update((x.dtype, out.dtype))
        return out

    monkeypatch.setattr(linalg, "_reduce", spy)
    q = 37
    rng = np.random.default_rng(3)
    a = rng.integers(0, q, size=(120, 40)) @ rng.integers(0, q, size=(40, 150)) % q
    r = linalg._load(a, q)
    assert r.dtype == np.uint8
    with mock.patch.object(linalg, "_BLOCK", block):
        pivots, free, solved = linalg._echelon(r, q)
    assert len(pivots) == 40
    assert r.dtype == np.uint8 and solved.dtype == np.float32
    assert seen == {np.dtype(np.float32)}


@pytest.mark.parametrize("q", [2, 37, 257, 65521])
@pytest.mark.parametrize("block", [1, linalg._LEAF + 1, linalg._BLOCK])
@pytest.mark.parametrize("shape", [(260, 420), (420, 260)])
def test_store_stays_reduced_in_its_unsigned_dtype(q, block, shape):
    # rank 150 with a zero column and a repeated one, so that panels meet
    # columns without a pivot and rows run out of them; the store is uint8 for q <= 256 and uint16
    # above, and at 260 rows or columns q = 257 and q = 65521 multiply in
    # float64 while q = 2 and q = 37 multiply in float32
    rows, cols = shape
    rng = np.random.default_rng(q + block + cols)
    a = rng.integers(0, q, size=(rows, 150)) @ rng.integers(0, q, size=(150, cols)) % q
    a[:, 3] = 0
    a[:, 7] = a[:, 5]
    r = linalg._load(a, q)
    assert r.dtype == np.min_scalar_type(q - 1)
    assert np.array_equal(r, a)
    with mock.patch.object(linalg, "_BLOCK", block):
        pivots, free, solved = linalg._echelon(r, q)
    assert r.dtype == np.min_scalar_type(q - 1)
    assert int(r.max()) < q
    want = np.float32 if 260 * (q - 1) ** 2 + q < 2**24 else np.float64
    assert solved.dtype == want
    p1, s1 = ref.rref_free(a, q)
    assert pivots == p1 and len(pivots) == 150
    assert np.array_equal(solved.astype(np.int64), s1)
    # r holds the echelon form: unit diagonal and zeros below it in the pivot
    # columns, and zero rows below the rank
    assert np.array_equal(np.tril(r[:150][:, pivots]), np.eye(150))
    assert not r[150:].any()


def test_rref_refuses_inexact_shapes():
    # min(rows, cols)*(q-1)**2 + q must stay below 2**53; the check comes
    # before any allocation, so a broadcast view is enough
    q = 65521
    n = 2**53 // (q - 1) ** 2 + 1
    with pytest.raises(ValueError):
        linalg.rref(np.broadcast_to(np.int64(0), (n, n)), q)


def test_rref_rank_deficient():
    rng = np.random.default_rng(11)
    q = 37
    b = rng.integers(0, q, size=(6, 40), dtype=np.int64)
    a = np.vstack([b, (2 * b) % q, (b[:3] + b[1:4]) % q])
    assert _rank(a, q) == 6
    assert_rref_matches_plain(a, q, block=8)


def test_nullspace_annihilates():
    rng = np.random.default_rng(12)
    q = 131
    a = rng.integers(0, q, size=(30, 50), dtype=np.int64)
    ns = linalg.nullspace(a, q)
    assert ns.shape[0] == 50 - _rank(a, q)
    assert not np.any((a @ ns.T) % q)
    assert _rank(ns, q) == ns.shape[0]  # basis is independent


@pytest.mark.parametrize("q", [3, 37, 65521])
@pytest.mark.parametrize("shape", [(30, 50), (50, 30), (0, 6), (12, 12)])
def test_nullspace_matches_plain_basis(q, shape):
    rng = np.random.default_rng(17)
    rows, cols = shape
    a = rng.integers(0, q, size=(rows, 5)) @ rng.integers(0, q, size=(5, cols)) % q
    r, pivots = ref.rref_plain(a, q)
    free = [c for c in range(cols) if c not in pivots]
    want = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        want[i, fc] = 1
        for row, pc in enumerate(pivots):
            want[i, pc] = (-r[row, fc]) % q
    assert np.array_equal(linalg.nullspace(a, q), want)


@pytest.mark.parametrize("q", [2, 37, 65521])
def test_rref_and_nullspace_reduce_int64_entries_exactly(q):
    # a rank-8 matrix over GF(q) plus multiples of q that push every entry
    # to 2**53 or beyond in absolute value, with either sign; converting to
    # float64 before reducing mod q would change entries and so the rank
    rng = np.random.default_rng(q)
    base = rng.integers(0, q, size=(40, 8)) @ rng.integers(0, q, size=(8, 60)) % q
    mult = rng.integers(2**53 // q + 1, (2**63 - 1) // q - 1, size=base.shape)
    a = base + q * mult * rng.choice([-1, 1], size=base.shape)
    a[0, :3] = [2**63 - 1, -(2**63), -1]
    assert np.all(np.abs(a[1:]) >= 2**53)
    assert np.any(a.astype(np.float64) % q != a % q)
    assert_rref_matches_plain(a, q, block=16)
    assert np.array_equal(linalg.nullspace(a, q), ref.nullspace_plain(a, q))


@pytest.mark.parametrize(
    "dtype, q",
    [
        (np.uint8, 37),
        (np.uint8, 257),
        (np.uint8, 65521),
        (np.uint16, 257),
        (np.uint16, 65521),
        (np.uint32, 65521),
        (np.uint64, 37),
    ],
)
def test_rref_and_nullspace_reduce_unsigned_entries_in_their_dtype(dtype, q):
    # 20 columns repeat earlier ones mod q, and about half of all entries
    # are lifted by multiples of q into the top of the dtype's range (219 to
    # 255 for uint8 and q = 37), so a copy and its column differ as integers.
    # A q above the range (uint8 with q = 257 or 65521) leaves the entries as
    # they are and must not be cast to the dtype: NEP 50 refuses that, and
    # value-based casting wraps it with a DeprecationWarning, an error here
    # under the suite's filterwarnings setting
    top = int(np.iinfo(dtype).max)
    rng = np.random.default_rng(q + top % 1000)
    a = rng.integers(0, min(q, top + 1), size=(230, 250)).astype(dtype)
    a[:, -20:] = a[:, :20]
    if q <= top:
        lift = rng.random(a.shape) < 0.5
        a[lift] += dtype(q) * ((dtype(top) - a[lift]) // dtype(q))
        assert a.max() > top - q and np.any(a % dtype(q) != a)
    keep = a.copy()
    assert_rref_matches_plain(a, q)
    ns = linalg.nullspace(a, q)
    assert np.array_equal(ns, ref.nullspace_plain(a, q))
    assert ns.shape[0] >= 20
    assert a.dtype == dtype and np.array_equal(a, keep)


def test_nullspace_holds_no_dense_int64_copy():
    # a rank-deficient 1200 x 1200 uint8 matrix over GF(37): the uint8 store
    # is an eighth of the int64 bytes of its shape, one panel step's float32
    # temporaries come on top, and the basis is built from the solved block
    # R[:rank, free], 0.31x in all; a float32 copy of each panel's pivot
    # columns as the trailing update's left operand, in 256-row bands,
    # reads 0.47x, a float32 working array in place of the store 0.76x, and
    # a dense int64 R beside it above 1x
    q, n = 37, 1200
    rng = np.random.default_rng(9)
    a = rng.integers(0, q, size=(n, n), dtype=np.uint8)
    a[:, -50:] = (a[:, :50] + a[:, 50:100]) % q
    linalg.nullspace(a[:40, :50], q)  # keeps a first call's lazy imports untraced
    ns, peak = traced_peak(lambda: linalg.nullspace(a, q))
    assert peak < 0.4 * 8 * a.size, f"peak {peak / (8 * a.size):.2f}x the int64 bytes"
    assert ns.shape == (50, n)
    assert not np.any(a.astype(np.int64) @ ns.T % q)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_rref_and_nullspace_leave_their_input_unchanged(dtype):
    # unreduced and negative int64 entries, and a float64 array already in
    # [0, q) that an elimination could otherwise take as its own buffer
    q = 37
    rng = np.random.default_rng(5)
    low = -500 if dtype is np.int64 else 0
    high = 500 if dtype is np.int64 else q
    a = rng.integers(low, high, size=(300, 280)).astype(dtype)
    keep = a.copy()
    linalg.rref(a, q)
    with mock.patch.object(linalg, "_BLOCK", 7):
        linalg.rref(a, q)
    linalg.nullspace(a, q)
    assert a.dtype == dtype and np.array_equal(a, keep)


@pytest.mark.parametrize("q", [2, 37, 257, 65521])
@pytest.mark.parametrize("band", [1, 7])
@pytest.mark.parametrize("shape", [(60, 45), (45, 60)])
def test_rref_and_nullspace_match_plain_across_bands(q, band, shape):
    # rank at most 30, with rows that hold no pivot among the first rows of
    # the panels: the first 4 rows are zero, and each odd row of the next 26
    # repeats the row above it, so each panel's pivot rows displace rows
    # from above them, and the displaced rows need the trailing update. It
    # reads its left operand from the store, band by band, after the moves
    rows, cols = shape
    rng = np.random.default_rng(q + band + rows)
    a = rng.integers(0, q, size=(rows, 30)) @ rng.integers(0, q, size=(30, cols)) % q
    a[:4] = 0
    a[5:30:2] = a[4:29:2]
    with mock.patch.object(linalg, "_BAND", band):
        assert_rref_matches_plain(a, q, block=8)
        assert np.array_equal(linalg.nullspace(a, q), ref.nullspace_plain(a, q))


@pytest.mark.parametrize("q", [37, 257])
def test_overwrite_a_eliminates_a_store_in_place(q):
    # a C-contiguous, writeable array of the store's dtype (uint8 for q = 37,
    # uint16 for q = 257) with unreduced entries is reduced and eliminated
    # in place: the results are the copy's, the array is left reduced and
    # changed, and no second store is allocated
    dtype = np.min_scalar_type(q - 1)
    rng = np.random.default_rng(q)
    base = rng.integers(0, q, size=(300, 290)) @ rng.integers(0, q, size=(290, 320)) % q
    a = (base + q * rng.integers(0, 2, size=base.shape)).astype(dtype)
    assert a.max() >= q
    want_rref, want_ns = linalg.rref(a, q), linalg.nullspace(a, q)
    b = a.copy()
    pivots, solved = linalg.rref(b, q, overwrite_a=True)
    assert pivots == want_rref[0] and np.array_equal(solved, want_rref[1])
    assert b.dtype == dtype and b.max() < q and not np.array_equal(b % q, a % q)
    b = a.copy()
    assert np.array_equal(linalg.nullspace(b, q, overwrite_a=True), want_ns)
    _, copied = traced_peak(lambda: linalg.rref(a, q))
    b = a.copy()
    _, in_place = traced_peak(lambda: linalg.rref(b, q, overwrite_a=True))
    assert in_place < copied - 0.9 * a.nbytes


@pytest.mark.parametrize("kind", ["int64", "uint16", "non-contiguous", "read-only"])
def test_overwrite_a_loads_other_inputs_as_usual(kind):
    # an input that is not a store over GF(37) (another dtype, a reversed
    # view, a read-only array) is loaded into a new store and left unchanged
    q = 37
    rng = np.random.default_rng(8)
    a = rng.integers(0, 255, size=(120, 90), dtype=np.uint8)
    if kind == "int64":
        a = a.astype(np.int64) - 100
    elif kind == "uint16":
        a = a.astype(np.uint16)
    elif kind == "non-contiguous":
        a = a[:, ::-1]
    else:
        a.flags.writeable = False
    keep = a.copy()
    want_rref, want_ns = linalg.rref(a, q), linalg.nullspace(a, q)
    pivots, solved = linalg.rref(a, q, overwrite_a=True)
    assert pivots == want_rref[0] and np.array_equal(solved, want_rref[1])
    assert np.array_equal(linalg.nullspace(a, q, overwrite_a=True), want_ns)
    assert a.dtype == keep.dtype and np.array_equal(a, keep)


@pytest.mark.parametrize("q", [37, 65521])
def test_nullspace_rank_deficient_200(q):
    rng = np.random.default_rng(q)
    left = rng.integers(0, q, size=(200, 150))
    right = rng.integers(0, q, size=(150, 200))
    a = left @ right % q
    r, pivots = ref.rref_plain(a, q)
    assert len(pivots) == 150
    free = [c for c in range(200) if c not in pivots]
    ns = linalg.nullspace(a, q)
    want = np.zeros((50, 200), dtype=np.int64)
    want[np.arange(50), free] = 1
    want[:, pivots] = -r[:150, free].T % q
    assert np.array_equal(ns, want)
    assert not np.any(a @ ns.T % q)


def test_mul_mod_extremes():
    # worst case for the exact-float64 argument: q-1 entries at max block width
    q = 65521
    a = np.full((4, 128), q - 1, dtype=np.int64)
    b = np.full((128, 3), q - 1, dtype=np.int64)
    got = linalg._mul_mod(a, b, q)
    want = (a @ b) % q  # int64 exact here
    assert np.array_equal(got, want)


def test_mul_mod_exact_at_its_bound_and_refuses_beyond():
    # k*(q-1)**2 < 2**53 is the largest inner dimension with exact sums;
    # (q-1)**2 = 1 mod q, so a row of q-1 times a column of q-1 is k mod q
    q = 65521
    k = (2**53 - 1) // (q - 1) ** 2
    a = np.full((1, k), q - 1, dtype=np.int64)
    assert linalg._mul_mod(a, a.T, q).tolist() == [[k % q]]
    # the check comes before any conversion, so broadcast views are enough
    wide = np.broadcast_to(np.int64(q - 1), (1, k + 1))
    with pytest.raises(ValueError):
        linalg._mul_mod(wide, wide.T, q)
