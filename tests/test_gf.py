import numpy as np
import pytest

from aramid.gf import MAX_MODULUS, PrimeField, is_prime


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
