import math
import re
from fractions import Fraction

import numpy as np
import pytest

from field_contract import assert_acts_on_residues, checks

from aramid.bigraph import circulant_bipartite, gamma
from aramid.channel import corrupt_pairs, trial_rng
from aramid.gf import PrimeField
from aramid.grs import GrsCode
from aramid.iterdec import CosetSide, decode_phi
from aramid.ltenc import (
    DesignError,
    InterleavedGrsMediator,
    LtCode,
    LtDesign,
    build_lt_code,
    lt_design,
    next_prime,
    tau_bound,
)
from aramid.tanner import PhiWord, TannerCode, brute_min_phi_weight, min_dist_bound


@pytest.fixture(scope="session")
def desk_design():
    return lt_design(R=Fraction(1, 2), eps=0.3, kappa=0.25, mu=0.05, n=130)


@pytest.fixture(scope="session")
def desk_lt(desk_design):
    return build_lt_code(desk_design, seed=500)


def test_alpha_r_formula():
    # R = 0.5, mu = 0.05, kappa = 0.25: 8 * 0.5 * max(10, 8) = 40
    d = lt_design(R=Fraction(1, 2), eps=0.3, kappa=0.25, mu=0.05, n=130)
    assert d.alpha_R == pytest.approx(40.0)


def test_paper_delta1_infeasible_returns_relaxed(desk_design):
    # eps = 0.3 would require delta1 >= 40 / 0.027 ~ 1482: desk-infeasible
    assert desk_design.paper_delta1 == math.ceil(40 / 0.3**3)
    assert desk_design.relaxed


def test_paper_delta1_feasible_returns_paper_faithful():
    # alpha_R = 8 * 0.5 * max(0.5 / 0.15, 2 / 0.5) = 16, and 16 / 0.48**3 ~ 144.7
    # fits under the cap: delta1 is paper_delta1 rounded up to the step 2, and
    # theta0 is pinned to kappa*eps
    d = lt_design(R=Fraction(1, 2), eps=0.48, kappa=0.5, mu=0.15, n=200)
    assert not d.relaxed
    assert (d.paper_delta1, d.delta1, d.delta2, d.k0, d.km, d.q) == (145, 146, 100, 111, 140, 211)
    assert d.delta1 - d.k0 + 1 == math.ceil(0.5 * 0.48 * 146)
    assert Fraction(d.km, d.n) >= Fraction(1, 2) and (d.n - d.km) // 2 / d.n >= 0.15


def test_design_exact_identities(desk_design):
    d = desk_design
    assert d.n * d.syndrome_width == d.km * d.k2
    assert Fraction(d.k1, d.delta1) == Fraction(d.k2, d.delta2) == d.R
    # exact in Fractions: (1 - r0) * delta1 = rm * R * delta2
    assert (1 - Fraction(d.k0, d.delta1)) * d.delta1 == Fraction(d.km, d.n) * d.R * d.delta2
    assert d.delta2 < d.delta1
    assert d.q > d.delta1 and d.q >= d.n


def test_design_rate_check(desk_design):
    d = desk_design
    assert d.rate == Fraction(d.k1, d.delta1 + d.delta2)
    # rate exceeds R - eps whenever delta2/delta1 < eps/R
    if Fraction(d.delta2, d.delta1) < Fraction(d.eps).limit_denominator() / d.R:
        assert float(d.rate) > float(d.R) - d.eps


def test_design_rejects_bad_inputs():
    with pytest.raises(DesignError):
        lt_design(R=0.5, eps=0.6, kappa=0.25, mu=0.05, n=130)  # eps >= R
    with pytest.raises(DesignError):
        lt_design(R=0.9, eps=0.2, kappa=0.25, mu=0.05, n=130)  # empty radius
    with pytest.raises(DesignError):
        lt_design(R=0.5, eps=0.3, kappa=1.5, mu=0.05, n=130)


def test_design_serialization_round_trip(desk_design):
    obj = desk_design.to_json()
    d2 = LtDesign.from_json(obj)
    assert d2 == desk_design


def test_next_prime():
    assert next_prime(131) == 131
    assert next_prime(132) == 137
    with pytest.raises(ValueError):
        next_prime(65522)


def test_grs_mediator_contract():
    f = PrimeField(131)
    med = InterleavedGrsMediator(f, n=130, width=26, km=100)
    assert med.mu == Fraction(15, 130)
    rng = np.random.default_rng(51)
    s = rng.integers(0, 131, size=100 * 26)
    w = med.encode(s)
    assert w.shape == (130, 26)
    assert np.array_equal(med.decode(w), s)
    # mu*n symbol errors across 200 trials
    for trial in range(200):
        r = trial_rng(510, trial)
        bad = r.choice(130, size=15, replace=False)
        wc = w.copy()
        for p in bad:
            wc[p] = (wc[p] + 1 + r.integers(0, 130, size=26)) % 131
        got = med.decode(wc)
        assert got is not None and np.array_equal(got, s)


def test_grs_mediator_erasures():
    f = PrimeField(131)
    med = InterleavedGrsMediator(f, n=130, width=26, km=100)
    rng = np.random.default_rng(52)
    s = rng.integers(0, 131, size=100 * 26)
    w = med.encode(s)
    erased = np.zeros(130, dtype=bool)
    erased[rng.choice(130, size=30, replace=False)] = True  # b < d = 31
    got = med.decode(np.where(erased[:, None], 0, w), erased)
    assert got is not None and np.array_equal(got, s)


def test_mediator_zero_radius_round_trip():
    # degenerate mu*n = 0: encode/decode is a pure round trip
    f = PrimeField(37)
    med = InterleavedGrsMediator(f, n=10, width=2, km=9)
    assert med.mu == 0
    s = np.arange(18) % 37
    assert np.array_equal(med.decode(med.encode(s)), s)


def test_desk_lt_mediator_is_design_bank(desk_lt):
    d = desk_lt.design
    med = desk_lt.mediator
    assert isinstance(med, InterleavedGrsMediator)
    assert (med.n, med.symbol_width, med.km) == (d.n, d.k2, d.km)
    assert med.mu == Fraction((d.n - d.km) // 2, d.n)
    assert float(med.mu) > 0.05


def test_mediator_identity_errors():
    f = PrimeField(131)
    with pytest.raises(DesignError):
        InterleavedGrsMediator(f, n=10, width=2, km=12)  # km >= n
    with pytest.raises(DesignError):
        InterleavedGrsMediator(f, n=140, width=2, km=100)  # n > q
    # a length-q GRS code has a zero locator, so n = q is refused by name
    with pytest.raises(DesignError, match=r"stream length 131 must be below the field size 131"):
        InterleavedGrsMediator(f, n=131, width=2, km=60)


def test_three_quarter_rate_design_builds_grs_bank():
    """R=3/4, eps=0.15, n=80: the bank is built at once and holds its radius."""
    d = lt_design(R=Fraction(3, 4), eps=0.15, kappa=0.25, mu=0.05, n=80)
    code = build_lt_code(d, seed=500)
    assert code.mediator.mu == Fraction((d.n - d.km) // 2, d.n)
    radius = code.radius
    for trial in range(100):
        rng = trial_rng(700, trial)
        eta = rng.integers(0, d.q, size=(d.n, d.k1))
        tr = code.encode_trace(eta)
        if trial % 4 == 0:
            t, rho = radius // 2, radius % 2
        else:
            t = int(rng.integers(0, radius // 2 + 1))
            rho = int(rng.integers(0, radius - 2 * t + 1))
        values, er1, er2 = corrupt_pairs(rng, tr.x, t, rho, d.q)
        rep = code.decode(values, er1, er2)
        assert rep.success, f"trial {trial} (t={t}, rho={rho}) stage={rep.stage}"
        assert np.array_equal(rep.eta, eta)


def test_build_lt_code_stage_hypotheses(desk_lt):
    code = desk_lt
    d = code.design
    # Theorem-3 hypothesis for stage D4 at theta0
    assert math.sqrt(float(d.theta0) * code.c1.rel_dist) > 2 * code.gamma1
    assert code.params_d4.beta > d.sigma_stage
    # Lemma-3-style margin for stage D2/D3
    assert tau_bound(d.sigma_stage, code.c2.rel_dist, code.gamma2) < float(
        code.mediator.mu
    )


@pytest.mark.parametrize("side, stage", [(1, "D4"), (2, "D2/D3")])
def test_lt_code_certifies_measured_gamma(desk_lt, side, stage):
    """Consecutive shifts give a connected graph whose gamma fails its stage;
    the error names the stage, the measured gamma and the design's target."""
    d = desk_lt.design
    graphs = [desk_lt.g1, desk_lt.g2]
    degree = d.delta1 if side == 1 else d.delta2
    graphs[side - 1] = circulant_bipartite(d.n, range(degree))
    measured = gamma(graphs[side - 1]).gamma
    target = d.gamma1_target if side == 1 else d.gamma2_target
    message = f"stage {stage} fails on the measured gamma{side} = {measured:.6f} (target {target:.6f})"
    with pytest.raises(DesignError, match=re.escape(message)):
        LtCode(d, *graphs)


def test_lt_code_builds_no_whole_space_code(desk_lt, monkeypatch):
    """The rate-1 left sides of both graph codes are F^delta with no GRS code
    behind them: LtCode builds C0, C1, C2 and the mediator's code only."""
    built = []
    real = GrsCode.__init__

    def counting(self, field, k, *args, **kwargs):
        built.append(k)
        real(self, field, k, *args, **kwargs)

    monkeypatch.setattr(GrsCode, "__init__", counting)
    code = LtCode(desk_lt.design, desk_lt.g1, desk_lt.g2)
    d = code.design
    assert sorted(built) == sorted([d.k0, d.k1, d.k2, d.km])
    assert code.t1.c_prime is None and code.t2.c_prime is None


def test_relaxed_n300_design_fails_stage_d4():
    """The annealer ends at gamma1 = 0.12885 against the target 0.12842, so
    beta/sigma = 1.246 falls below STAGE_MARGIN = 1.25; the g2 search meets
    its target."""
    d = lt_design(R=Fraction(1, 2), eps=0.3, kappa=0.25, mu=0.05, n=300)
    with pytest.raises(DesignError, match=r"stage D4 fails on the measured gamma1 = 0\.12885"):
        build_lt_code(d, seed=501, anneal_iters=40000)


def test_lt_encode_shapes_and_rate(desk_lt):
    code = desk_lt
    d = code.design
    rng = np.random.default_rng(56)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    x = code.encode_trace(eta).x
    assert x.shape == (d.n, d.delta1 + d.delta2)
    # measured rate: |eta| / |x| field elements, exact rational arithmetic
    assert Fraction(eta.size, x.size) == d.rate == Fraction(
        d.k1 * d.delta1, d.delta1 * (d.delta1 + d.delta2)
    )


def test_lt_encode_zero_and_linearity(desk_lt):
    code = desk_lt
    d = code.design
    q = d.q
    assert not np.any(code.encode_trace(np.zeros((d.n, d.k1), dtype=np.int64)).x)
    rng = np.random.default_rng(57)
    e1 = rng.integers(0, q, size=(d.n, d.k1))
    e2 = rng.integers(0, q, size=(d.n, d.k1))
    assert np.array_equal(
        code.encode_trace((e1 + e2) % q).x,
        (code.encode_trace(e1).x + code.encode_trace(e2).x) % q,
    )


def test_lt_encode_syndrome_identity(desk_lt):
    # by construction H0 (c)_{E1(u)} = h_u for every left vertex
    code = desk_lt
    d = code.design
    rng = np.random.default_rng(58)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    tr = code.encode_trace(eta)
    assert np.array_equal(code.c0.syndromes(code.t1.left_blocks(tr.c)), tr.s)
    assert tr.s.shape == (d.n, d.syndrome_width)


def test_lt_round_trip_clean(desk_lt):
    code = desk_lt
    d = code.design
    rng = np.random.default_rng(59)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    tr = code.encode_trace(eta)
    rep = code.decode(tr.x)
    assert rep.success
    assert np.array_equal(rep.eta, eta)
    assert not rep.w_tilde_erased.any()
    assert np.array_equal(rep.w_tilde, tr.w)  # D2 output exact with no noise


def test_lt_decode_radius_trials(desk_lt):
    code = desk_lt
    d = code.design
    q = d.q
    radius = code.radius
    assert radius == math.floor((1 - 0.5 - 0.3) * d.n)
    rng0 = np.random.default_rng(60)
    for trial in range(60):
        rng = trial_rng(600, trial)
        eta = rng0.integers(0, q, size=(d.n, d.k1))
        tr = code.encode_trace(eta)
        t = int(rng.integers(0, radius // 2 + 1))
        rho = int(rng.integers(0, radius - 2 * t + 1))
        values, er1, er2 = corrupt_pairs(rng, tr.x, t, rho, q)
        rep = code.decode(values, er1, er2)
        assert rep.success, f"trial {trial} (t={t}, rho={rho}) stage={rep.stage}"
        assert np.array_equal(rep.eta, eta)
        # Lemma-3-style instrumentation: wrong mediator symbols below mu*n
        wrong = int(
            np.count_nonzero(np.any(rep.w_tilde != tr.w, axis=1) | rep.w_tilde_erased)
        )
        assert wrong < float(code.mediator.mu) * d.n


def test_lt_half_erased_pairs(desk_lt):
    code = desk_lt
    d = code.design
    rng = np.random.default_rng(61)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    x = code.encode_trace(eta).x
    er1 = np.zeros(d.n, dtype=bool)
    er2 = np.zeros(d.n, dtype=bool)
    er1[rng.choice(d.n, size=5, replace=False)] = True  # first halves missing
    er2[rng.choice(d.n, size=5, replace=False)] = True  # second halves missing
    rep = code.decode(np.where(er1[:, None] | er2[:, None], 0, x), er1, er2)
    assert rep.success and np.array_equal(rep.eta, eta)


def test_lt_failure_stage_named(desk_lt):
    code = desk_lt
    d = code.design
    rng = np.random.default_rng(62)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    x = code.encode_trace(eta).x
    # corrupt far beyond the radius
    values, er1, er2 = corrupt_pairs(
        np.random.default_rng(63), x, t=d.n // 2 + 10, rho=0, q=d.q
    )
    rep = code.decode(values, er1, er2)
    if not rep.success:
        assert rep.stage in ("mediator", "iterative")
    else:
        assert np.array_equal(rep.eta, eta) or rep.stage is None


def test_coset_zero_syndrome_equals_plain_code():
    """C1(0) coincides with (G, C0:C1): membership cross-check."""
    f = PrimeField(13)
    g = circulant_bipartite(12, [0, 1, 2, 3, 4, 5])
    c0 = GrsCode(f, k=4, eval_points=range(1, 7))
    c1 = GrsCode(f, k=3, eval_points=range(1, 7))
    mixed = TannerCode(g, c0, c1)
    rng = np.random.default_rng(64)
    for _ in range(25):
        z = mixed.encode_generic(rng.integers(0, 13, size=mixed.dim))
        # z has zero C0 syndrome on every left block and lies in (G, F^6 : C1)
        assert not np.any(c0.syndromes(mixed.left_blocks(z)))
        assert not np.any(c1.syndromes(mixed.right_blocks(z)))
        bad = z.copy()
        e = rng.integers(g.num_edges)
        bad[e] = (bad[e] + rng.integers(1, 13)) % 13
        assert np.any(c0.syndromes(mixed.left_blocks(bad))) or np.any(
            c1.syndromes(mixed.right_blocks(bad))
        )


def test_theorem1_transfer_with_theta0():
    """Differences of coset words obey the bound with theta -> theta0."""
    f = PrimeField(7)
    g = circulant_bipartite(3, [0, 1, 2])
    c0 = GrsCode(f, k=1, eval_points=[1, 2, 3])  # [3,1,3]
    c1 = GrsCode(f, k=2, eval_points=[1, 2, 3])  # [3,2,2]
    code = TannerCode(g, c0, c1)
    g0 = gamma(g).gamma
    bound = code.n * min_dist_bound(c0.rel_dist, c1.rel_dist, g0)
    assert brute_min_phi_weight(code) >= math.ceil(bound - 1e-12)


def test_lt_report_is_deterministic(desk_lt):
    code = desk_lt
    d = code.design
    rng = trial_rng(65, 0)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    x = code.encode_trace(eta).x
    values, er1, er2 = corrupt_pairs(trial_rng(65, 1), x, 5, 6, d.q)
    r1 = code.decode(values, er1, er2)
    r2 = code.decode(values, er1, er2)
    assert np.array_equal(r1.eta, r2.eta)
    assert r1.d4.component_calls == r2.d4.component_calls


def test_entry_points_act_on_residues(desk_lt):
    # the mediator bank, LtCode.decode and the coset stage D4 act on the
    # residues of their words and syndromes mod q and never write into them
    code, d = desk_lt, desk_lt.design
    q = d.q
    rng = np.random.default_rng(26)
    s_flat = rng.integers(0, q, size=d.km * d.k2)
    w = assert_acts_on_residues(code.mediator.encode, (s_flat,), q, rng)
    erased = np.arange(d.n) < 3
    assert_acts_on_residues(lambda v: code.mediator.decode(v, erased), (w,), q, rng)
    eta = rng.integers(0, q, size=(d.n, d.k1))
    tr = code.encode_trace(eta)
    values, er1, er2 = corrupt_pairs(rng, tr.x, code.radius // 4, code.radius // 2, q)
    rep = assert_acts_on_residues(lambda v: code.decode(v, er1, er2), (values,), q, rng)
    assert np.array_equal(rep.eta, eta)

    def d4(v, s):
        return decode_phi(code.t1, PhiWord(v, er1), code.params_d4, CosetSide(code.c0, s))

    assert assert_acts_on_residues(d4, (values[:, : d.delta1], tr.s), q, rng).success


def test_decode_refuses_masks_of_another_shape(desk_lt):
    # a (n, 2) mask used to be flattened into D2's gather, erasing the wrong
    # positions, and a short one failed with an IndexError inside D2
    code = desk_lt
    n, q = code.n, code.design.q
    rng = np.random.default_rng(27)
    x = code.encode_trace(rng.integers(0, q, size=(n, code.design.k1))).x
    for bad in ((n, 2), (5,)):
        mask = np.zeros(bad, dtype=bool)
        mask.flat[:2] = True
        for key in ("erased1", "erased2"):
            want = re.escape(f"{key} must have shape ({n},), got {bad}")
            with pytest.raises(ValueError, match=want):
                code.decode(x, **{key: mask})
    assert code.decode(x, np.zeros(n, bool), np.zeros(n, bool)).success


def test_encoders_check_their_input_once(desk_lt):
    # E1 checks eta; E2-E4 run on the stage outputs before them
    code, d = desk_lt, desk_lt.design
    rng = np.random.default_rng(28)
    assert checks(code.encode_trace, rng.integers(0, d.q, size=(d.n, d.k1))) == 1
    assert checks(code.mediator.encode, rng.integers(0, d.q, size=d.km * d.k2)) == 1


def test_decode_checks_each_input_once(desk_lt):
    # 9 checks: the received pairs; the traced decode_ee of D2, of the
    # mediator and of D4's rounds 2 and 3, plus round 3's coset target; the
    # mediator's streams; decode_phi's coset syndromes and unfold. The D2
    # and mediator projections and the read of eta take the values their
    # producers left in [0, q) unchecked
    code, d = desk_lt, desk_lt.design
    rng = np.random.default_rng(30)
    tr = code.encode_trace(rng.integers(0, d.q, size=(d.n, d.k1)))
    received = corrupt_pairs(rng, tr.x, code.radius // 4, code.radius // 2, d.q)
    rep = code.decode(*received)
    assert rep.success and rep.d4.rounds_run == 3
    assert checks(code.decode, *received) == 9
