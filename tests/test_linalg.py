from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from memtrace import traced_peak

from aramid import linalg


def _rank(a, q):
    return len(linalg.rref(ref.store(a, q), q)[0])


def assert_rref_matches_plain(a, q, block=linalg._BLOCK):
    """linalg.rref's (pivots, R[:rank, free]), eliminated in panels of
    `block` columns, against the single-pivot oracle's; returns the
    pivots."""
    p1, s1 = ref.rref_free(a, q)
    with mock.patch.object(linalg, "_BLOCK", block):
        p2, s2 = linalg.rref(ref.store(a, q), q)
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
    r = ref.store(a, q)
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
    r = ref.store(a, q)
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
    r = ref.store(a, q)
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
    ns = linalg.nullspace(ref.store(a, q), q)
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
    assert np.array_equal(linalg.nullspace(ref.store(a, q), q), want)


def test_nullspace_holds_no_dense_int64_copy():
    # a rank-deficient 1200 x 1200 uint8 store over GF(37), eliminated in
    # place: beside it an elimination holds one panel step's float32
    # temporaries, and the basis is built from the solved block
    # R[:rank, free], 0.18x the int64 bytes of the shape in all; a second
    # uint8 store adds 0.125x, a float32 working array in its place 0.5x,
    # and a dense int64 R 1x
    q, n = 37, 1200
    rng = np.random.default_rng(9)
    a = rng.integers(0, q, size=(n, n), dtype=np.uint8)
    a[:, -50:] = (a[:, :50] + a[:, 50:100]) % q
    linalg.nullspace(a[:40, :50].copy(), q)  # keeps a first call's lazy imports untraced
    r = a.copy()
    ns, peak = traced_peak(lambda: linalg.nullspace(r, q))
    assert peak < 0.25 * 8 * a.size, f"peak {peak / (8 * a.size):.2f}x the int64 bytes"
    assert ns.shape == (50, n)
    assert not np.any(a.astype(np.int64) @ ns.T % q)


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
        assert np.array_equal(linalg.nullspace(ref.store(a, q), q), ref.nullspace_plain(a, q))


@pytest.mark.parametrize("q", [37, 257])
def test_rref_and_nullspace_eliminate_a_store_in_place(monkeypatch, q):
    # a store (C-contiguous and writeable, uint8 for q = 37 and uint16 for
    # q = 257) with entries up to 2q - 1 is reduced mod q and eliminated as
    # it is: the results are the oracle's on its residues, and the store is
    # the elimination's own, left reduced and in echelon form
    dtype = np.min_scalar_type(q - 1)
    rng = np.random.default_rng(q)
    base = rng.integers(0, q, size=(300, 290)) @ rng.integers(0, q, size=(290, 320)) % q
    a = (base + q * rng.integers(0, 2, size=base.shape)).astype(dtype)
    assert a.max() >= q
    stores = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda r, q: stores.append(r) or echelon(r, q))
    b = a.copy()
    pivots, solved = linalg.rref(b, q)
    assert len(stores) == 1 and stores[0] is b
    want_pivots, want_solved = ref.rref_free(base, q)
    assert pivots == want_pivots and np.array_equal(solved, want_solved)
    rank = len(pivots)
    assert b.dtype == dtype and b.max() < q
    assert np.array_equal(np.tril(b[:rank][:, pivots]), np.eye(rank)) and not b[rank:].any()
    b = a.copy()
    assert np.array_equal(linalg.nullspace(b, q), ref.nullspace_plain(base, q))
    assert stores[1] is b


@pytest.mark.parametrize("kind", ["int64", "uint16", "non-contiguous", "read-only", "list"])
def test_rref_and_nullspace_refuse_what_is_not_a_store(kind):
    # over GF(37) a store is a C-contiguous, writeable uint8 array: another
    # dtype, a reversed view of a store, a read-only store and a list are
    # refused, and left as they were
    q = 37
    rng = np.random.default_rng(8)
    a = rng.integers(0, q, size=(120, 90), dtype=np.uint8)
    if kind == "int64":
        a = a.astype(np.int64)
    elif kind == "uint16":
        a = a.astype(np.uint16)
    elif kind == "non-contiguous":
        a = a[:, ::-1]
    elif kind == "read-only":
        a.flags.writeable = False
    else:
        a = a.tolist()
    keep = np.array(a)
    for fn in (linalg.rref, linalg.nullspace):
        with pytest.raises(TypeError, match="C-contiguous, writeable uint8 array"):
            fn(a, q)
    assert np.array_equal(a, keep)


@pytest.mark.parametrize("q", [37, 65521])
def test_nullspace_rank_deficient_200(q):
    rng = np.random.default_rng(q)
    left = rng.integers(0, q, size=(200, 150))
    right = rng.integers(0, q, size=(150, 200))
    a = left @ right % q
    r, pivots = ref.rref_plain(a, q)
    assert len(pivots) == 150
    free = [c for c in range(200) if c not in pivots]
    ns = linalg.nullspace(ref.store(a, q), q)
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
