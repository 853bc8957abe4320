import numpy as np
import pytest
from field_contract import assert_acts_on_residues, checks

from aramid.bigraph import anneal_circulant_bipartite, gamma
from aramid.channel import corrupt_inner_rows, trial_rng
from aramid.gf import PrimeField
from aramid.gmd import ConcatCode
from aramid.grs import GrsCode
from aramid.iterdec import beta_bound, decode_params
from aramid.tanner import TannerCode


@pytest.fixture(scope="module")
def concat():
    """n=48 outer over GF(29) with a [24,12,13] inner code."""
    f = PrimeField(29)
    g = anneal_circulant_bipartite(48, 24, seed=101, gamma_target=0.20, iters=30000)
    comp = GrsCode(f, k=12, eval_points=range(1, 25))
    outer = TannerCode(g, comp, comp)
    gm = gamma(g).gamma
    beta = beta_bound(outer.theta, outer.delta_rel, gm)
    params = decode_params(outer.theta, outer.delta_rel, gm, 0.9 * beta, 48, 24)
    inner = GrsCode(f, k=12, eval_points=range(1, 25))
    return ConcatCode(outer, inner, params)


def test_encode_shape_and_round_trip(concat):
    rng = np.random.default_rng(71)
    msg = rng.integers(0, 29, size=concat.outer.dim)
    mat = concat.encode(msg)
    assert mat.shape == (48, 24)
    got, trace = concat.decode(mat)
    assert np.array_equal(got, msg)
    assert trace.attempts == [(0, "accepted")]  # noiseless: one outer call


def test_zero_message(concat):
    mat = concat.encode(np.zeros(concat.outer.dim, dtype=np.int64))
    assert not np.any(mat)


def test_noiseless_matches_direct_outer(concat):
    from aramid.iterdec import decode_phi
    from aramid.tanner import PhiWord

    rng = np.random.default_rng(72)
    msg = rng.integers(0, 29, size=concat.outer.dim)
    mat = concat.encode(msg)
    got, _ = concat.decode(mat)
    phi = concat.outer.psi(concat.outer.encode_generic(msg))
    rep = decode_phi(concat.outer, PhiWord.clean(phi), concat.params)
    assert rep.success
    z = concat.outer.psi_inverse(rep.result.values)
    assert np.array_equal(concat.outer.msg_from_codeword(z), got)


def test_trials_within_product_radius(concat):
    q = 29
    d_in = concat.inner.dmin
    budget = int(np.ceil(concat.guaranteed_radius())) - 1
    assert budget > d_in  # radius is meaningfully larger than one bad row
    rng0 = np.random.default_rng(73)
    for trial in range(120):
        rng = trial_rng(730, trial)
        msg = rng0.integers(0, q, size=concat.outer.dim)
        mat = concat.encode(msg)
        rec = corrupt_inner_rows(rng, mat, budget, d_in, q)
        got, trace = concat.decode(rec)
        assert got is not None, f"trial {trial} failed"
        assert np.array_equal(got, msg)
        assert len(trace.attempts) <= concat.ladder_length


def test_heavy_rows_force_ladder(concat):
    """Rows corrupted past the inner radius get erased by later rungs."""
    q = 29
    rng = np.random.default_rng(74)
    msg = rng.integers(0, q, size=concat.outer.dim)
    mat = concat.encode(msg)
    rec = mat.copy()
    heavy = rng.choice(48, size=3, replace=False)
    for r in heavy:  # corrupt over half of each chosen row
        pos = rng.choice(24, size=14, replace=False)
        for p in pos:
            rec[r, p] = (rec[r, p] + rng.integers(1, q)) % q
    got, trace = concat.decode(rec)
    assert got is not None and np.array_equal(got, msg)


def test_never_silent_wrong_accept(concat):
    """Far beyond the radius: FAILURE or the exact message, never a wrong one."""
    q = 29
    for trial in range(15):
        rng = trial_rng(740, trial)
        msg = rng.integers(0, q, size=concat.outer.dim)
        mat = concat.encode(msg)
        rec = mat.copy()
        rows = rng.choice(48, size=30, replace=False)
        for r in rows:
            pos = rng.choice(24, size=13, replace=False)
            for p in pos:
                rec[r, p] = (rec[r, p] + rng.integers(1, q)) % q
        got, trace = concat.decode(rec)
        if got is not None:
            assert np.array_equal(got, msg)
        assert len(trace.attempts) <= concat.ladder_length


def test_congruent_input_decodes_as_its_residues(concat):
    """A clean codeword shifted by multiples of q, negatives included, is
    accepted at ladder step 0: reliabilities and the weighted distance are
    taken against the residues, not the raw entries."""
    q = 29
    rng = np.random.default_rng(76)
    msg = rng.integers(0, q, size=concat.outer.dim)
    mat = concat.encode(msg)
    shifted = mat + q * rng.integers(-3, 4, size=mat.shape)
    assert np.any(shifted < 0) and np.any(shifted >= q)
    got, trace = concat.decode(shifted)
    assert np.array_equal(got, msg)
    assert trace.attempts == [(0, "accepted")]
    budget = int(np.ceil(concat.guaranteed_radius())) - 1
    rec = corrupt_inner_rows(trial_rng(760, 0), mat, budget, concat.inner.dmin, q)
    got, trace = assert_acts_on_residues(concat.decode, (rec,), q, rng)
    assert np.array_equal(got, msg)


def test_trace_json(concat):
    rng = np.random.default_rng(75)
    msg = rng.integers(0, 29, size=concat.outer.dim)
    _, trace = concat.decode(concat.encode(msg))
    assert trace.attempts[0] == (0, "accepted")
    assert len(trace.reliabilities) == 48


def test_mismatched_inner_rejected(concat):
    f = PrimeField(29)
    bad = GrsCode(f, k=5, eval_points=range(1, 25))
    with pytest.raises(ValueError):
        ConcatCode(concat.outer, bad, concat.params)
    other_field = GrsCode(PrimeField(31), k=12, eval_points=range(1, 25))
    with pytest.raises(ValueError):
        ConcatCode(concat.outer, other_field, concat.params)


def test_encode_checks_the_message_and_psi_argument_once(concat):
    # encode_generic checks the message and psi the outer codeword; the
    # inner encoder takes psi's output as it is
    msg = np.random.default_rng(73).integers(0, 29, size=concat.outer.dim)
    assert checks(concat.encode, msg) == 2
