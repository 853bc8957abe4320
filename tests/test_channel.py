import numpy as np
import pytest

from aramid.channel import corrupt_pairs, corrupt_phi, trial_rng


@pytest.mark.parametrize("t, rho", [(-1, 9), (3, -1)])
def test_negative_counts_are_refused(t, rho):
    x = np.zeros((20, 4), dtype=np.int64)
    with pytest.raises(ValueError, match="non-negative"):
        corrupt_phi(trial_rng(1, 0), x, t, rho, 7)
    with pytest.raises(ValueError, match="non-negative"):
        corrupt_pairs(trial_rng(1, 0), x, t, rho, 7)
