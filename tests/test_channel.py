import numpy as np
import pytest
from channel_reference import corrupt_inner_rows_loop

from aramid.channel import corrupt_inner_rows, corrupt_pairs, corrupt_phi, trial_rng


@pytest.mark.parametrize("t, rho", [(-1, 9), (3, -1)])
def test_negative_counts_are_refused(t, rho):
    x = np.zeros((20, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="non-negative"):
        corrupt_phi(trial_rng(1, 0), x, t, rho, 7)
    with pytest.raises(ValueError, match="non-negative"):
        corrupt_pairs(trial_rng(1, 0), x, t, rho, 7)


@pytest.mark.parametrize("q", [7, 37, 65521])
def test_inner_rows_match_the_scalar_loop(q):
    # the same pattern and the same stream afterwards as one scalar offset
    # draw per position, at budgets below, at and beyond the inner distance
    rng = np.random.default_rng(q)
    changed = 0
    for seed in range(12):
        n, width = int(rng.integers(1, 30)), int(rng.integers(1, 40))
        d_inner = int(rng.integers(1, width + 1))
        budget = int(rng.integers(0, 2 * n * d_inner + 2))
        mat = rng.integers(0, q, size=(n, width))
        got_rng, want_rng = trial_rng(seed, q), trial_rng(seed, q)
        got = corrupt_inner_rows(got_rng, mat, budget, d_inner, q)
        want = corrupt_inner_rows_loop(want_rng, mat, budget, d_inner, q)
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()
        changed += not np.array_equal(got, mat)
    assert changed >= 6
