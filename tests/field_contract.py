"""The field-value contract of the public entry points (`aramid.gf`): a
call acts on its int64 arguments' residues mod q, and leaves them as they
were."""

import dataclasses
from unittest import mock

import numpy as np

from aramid.gf import PrimeField


def same(a, b) -> bool:
    """Deep equality of results: arrays by dtype and value, dataclasses,
    tuples and lists field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same(dataclasses.astuple(a), dataclasses.astuple(b))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def assert_acts_on_residues(call, args, q, rng, fresh=False):
    """call(*args), for args holding values in [0, q), against call on args
    with every int64 array shifted by random multiples of q, negatives
    included: both give the same result, neither changes an argument, and
    with `fresh` the result shares no memory with the first argument."""
    shifted = tuple(
        a + q * rng.integers(-3, 4, size=a.shape) if a.dtype.kind == "i" else a
        for a in args
    )
    assert any(np.any(a != s) for a, s in zip(args, shifted))
    want = None
    for given in (args, shifted):
        kept = [a.copy() for a in given]
        got = call(*given)
        want = got if want is None else want
        assert same(got, want)
        assert all(np.array_equal(a, k) for a, k in zip(given, kept))
        if fresh:
            assert not np.shares_memory(got, given[0])
    return want


def checks(call, *args) -> int:
    """How many times call(*args) runs `PrimeField.elements`, the range check
    that a public entry runs once per field-valued argument."""
    elements = PrimeField.elements
    with mock.patch.object(PrimeField, "elements", autospec=True, side_effect=elements) as spy:
        call(*args)
    return spy.call_count
