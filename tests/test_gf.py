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


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(11).inv(0)


def test_inverse_property_random():
    rng = np.random.default_rng(1)
    for q in (5, 7, 37, 131, 65521):
        f = PrimeField(q)
        for _ in range(50):
            a = int(rng.integers(1, q))
            assert f.mul(a, f.inv(a)) == 1
