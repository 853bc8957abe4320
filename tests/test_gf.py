import re
from unittest import mock

import numpy as np
import pytest

from aramid.bigraph import BipartiteRegularGraph, circulant_bipartite, gamma
from aramid.gf import MAX_MODULUS, PrimeField, is_prime
from aramid.grs import GrsCode
from aramid.iterdec import CosetSide, beta_bound, decode_params, decode_phi
from aramid.tanner import PhiWord, TannerCode


def test_primality_check():
    assert is_prime(2) and is_prime(7) and is_prime(65521)
    assert not is_prime(1) and not is_prime(9) and not is_prime(65517)


def test_constructor_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(65537)  # prime but above the 2^16 cap
    PrimeField(MAX_MODULUS)


def test_elements_copies_only_values_out_of_range():
    f = PrimeField(37)
    a = np.arange(37, dtype=np.int64)
    assert f.elements(a) is a
    b = np.array([[-1, 37, 2**62, -(2**63)], [0, 36, 74, 5]])
    kept = b.copy()
    got = f.elements(b)
    assert got.dtype == np.int64 and np.array_equal(got, b % 37)
    assert np.array_equal(b, kept)
    assert np.array_equal(f.elements(np.array([[36, 5]], dtype=np.uint8)), [[36, 5]])
    assert f.elements([]).shape == (0,)


def test_elements_range_check_reads_every_layout():
    # one unsigned max finds entries on both sides of [0, q): a negative
    # reads as at least 2**63
    f = PrimeField(37)
    for a in (np.array([3, -1, 5]), np.array([-(2**63), 0]), np.array([36, 37])):
        assert np.array_equal(f.elements(a), a % 37)
    base = np.arange(48, dtype=np.int64).reshape(6, 8) % 37
    for view in (base[:, ::3], base.T, base[::-1, 1:]):
        assert not view.flags.c_contiguous
        assert f.elements(view) is view
        shifted = view - 37
        assert np.array_equal(f.elements(shifted), view)
    base[2, 3] = -5  # inside base[:, ::3], behind a stride
    assert np.array_equal(f.elements(base[:, ::3]), base[:, ::3] % 37)
    for x, want in ((5, 5), (-1, 36), (40, 3), (np.int64(36), 36)):
        got = f.elements(x)
        assert got.shape == () and got.dtype == np.int64 and got == want


def test_elements_reduces_unsigned_input_in_its_own_dtype():
    # uint64 entries from 2**63 up would wrap in an int64 cast: 2**64 - 1,
    # 2**63 and 2**63 + 5 are 1, 1 and 6 mod 7, not 6, 6 and 4
    f = PrimeField(7)
    big = [2**64 - 1, 2**63, 2**63 + 5]
    for a in (np.array(big, dtype=np.uint64), big):
        got = f.elements(a)
        assert got.dtype == np.int64 and got.tolist() == [1, 1, 6]
    for dtype in (np.uint8, np.uint16, np.uint32):
        a = np.array([[255, 6], [7, 0]], dtype=dtype)
        assert f.elements(a).tolist() == [[3, 6], [0, 0]]
    assert PrimeField(257).elements(np.array([255], dtype=np.uint8)).tolist() == [255]


@pytest.mark.parametrize(
    "a, dtype",
    [
        ([1.5, 2.9, -0.5], "float64"),
        (np.array([1.0, np.nan]), "float64"),
        (np.array([3, 4], dtype=np.float32), "float32"),
        (np.array([True, False]), "bool"),
        ([2**64], "object"),
    ],
    ids=["fractions", "nan", "integral-float32", "bool", "beyond-uint64"],
)
def test_elements_refuses_other_dtypes(a, dtype):
    # a cast to int64 would truncate 1.7 to 1 and read NaN as some residue;
    # an empty input of any dtype is still the empty word
    with pytest.raises(TypeError, match=f"integer dtype, got {dtype}"):
        PrimeField(7).elements(a)
    assert PrimeField(7).elements(np.array([], dtype=np.float64)).dtype == np.int64


def test_grs_entry_refuses_float_messages():
    # the entry's one check refuses the floats instead of encoding [1, 2]
    with pytest.raises(TypeError, match="float64"):
        GrsCode(PrimeField(7), 2, range(1, 7)).sys_encode([1.7, 2.2])


F7 = PrimeField(7)
K65 = circulant_bipartite(6, [0, 1, 2, 3, 4])  # n = 6, delta = 5
RS52 = GrsCode(F7, 2, range(1, 6))  # [5, 2, 4]
RS32 = GrsCode(F7, 2, [1, 2, 3])  # [3, 2, 2]


def _decode_clean(c_prime, values):
    """decode_phi on PhiWord.clean(values) over K65 with C'' = RS52; a
    whole-space C' is decoded in the cosets of RS52, at syndromes 0."""
    code = TannerCode(K65, c_prime, RS52)
    g = gamma(K65).gamma
    sigma = 0.9 * beta_bound(RS52.rel_dist, RS52.rel_dist, g)
    params = decode_params(RS52.rel_dist, RS52.rel_dist, g, sigma, 6, 5)
    cosets = None if c_prime else CosetSide(RS52, np.zeros((6, 3), dtype=np.int64))
    return decode_phi(code, PhiWord.clean(values), params, cosets)


@pytest.mark.parametrize(
    "call, dtype",
    [
        (lambda: GrsCode(F7, 2, [1.5, 2.2, 3.9, 4, 5]), "float64"),
        (lambda: GrsCode(F7, 1, np.array([True, False])), "bool"),
        (lambda: GrsCode(F7, 2, [1, 2, 3], [1.0, 2.5, 3.0]), "float64"),
        (lambda: GrsCode(F7, 2, [1, 2, 3], np.ones(3, dtype=bool)), "bool"),
        (
            lambda: TannerCode(circulant_bipartite(5, [0, 1, 2]), None, RS32).unfold(
                [[1.5, 2.7, 3.2]] * 5
            ),
            "float64",
        ),
        (lambda: _decode_clean(RS52, np.full((6, 2), 1.5)), "float64"),
        (lambda: _decode_clean(None, np.full((6, 5), 1.5)), "float64"),
        (lambda: BipartiteRegularGraph(5, [False, True]), "bool"),
        (lambda: circulant_bipartite(5, [0, 1.7]), "float64"),
        (lambda: circulant_bipartite(5, [False, True]), "bool"),
    ],
    ids=[
        "grs-float-points", "grs-bool-points", "grs-float-mults", "grs-bool-mults",
        "whole-space-unfold", "decode-clean-grs", "decode-clean-whole-space",
        "bool-shifts", "circulant-float-shift", "circulant-bool-shifts",
    ],
)
def test_constructors_and_decoders_refuse_other_dtypes(call, dtype):
    # each took its values through an int64 cast or an int(), which read
    # 1.5 as 1 and True as 1, and built or decoded on the truncated values
    with pytest.raises(TypeError, match=f"integer dtype, got {dtype}"):
        call()


@pytest.mark.parametrize(
    "k, points, mults, name, shape",
    [
        (1, [[1, 2], [3, 4]], None, "evaluation points", (2, 2)),
        (2, 5, None, "evaluation points", ()),
        (2, [1, 2, 3], [[1], [2], [3]], "column multipliers", (3, 1)),
        (2, [1, 2, 3], 5, "column multipliers", ()),
    ],
    ids=["2d-points", "0d-points", "2d-mults", "0d-mults"],
)
def test_grs_refuses_points_or_multipliers_that_are_not_one_row(k, points, mults, name, shape):
    # refused by name before any table is built, where numpy would raise a
    # broadcast error or a TypeError from len() of a 0-d array
    want = re.escape(f"{name} must be one row, got shape {shape}")
    with mock.patch("aramid.grs._prod_others", side_effect=AssertionError("table built")):
        with pytest.raises(ValueError, match=want):
            GrsCode(F7, k, points, mults)


def test_constructors_reduce_unsigned_values_and_keep_copies():
    # 2**64 - 1 is 1 mod 7; an int64 cast wrapped it to -1, read as 6
    big = np.array([2**64 - 1, 2, 3], dtype=np.uint64)
    code = GrsCode(F7, 2, big, big)
    assert code.eval_points.tolist() == [1, 2, 3] and code.col_mults.tolist() == [1, 2, 3]
    assert code.eval_points.dtype == code.col_mults.dtype == np.int64
    pts, mults, shifts = np.arange(1, 4), np.ones(3, dtype=np.int64), np.array([0, 1])
    code = GrsCode(F7, 2, pts, mults)
    graph = BipartiteRegularGraph(5, shifts)
    assert not np.shares_memory(code.eval_points, pts)
    assert not np.shares_memory(code.col_mults, mults)
    assert not np.shares_memory(graph.shifts, shifts)
    unsigned = BipartiteRegularGraph(5, shifts.astype(np.uint64)).shifts
    assert unsigned.dtype == np.int64 and unsigned.tolist() == [0, 1]
