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
