"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; the radius criteria are zero-tolerance.
"""

import itertools
import math
from fractions import Fraction

import grs_reference
import numpy as np
import pytest
from bigraph_reference import biadjacency

from aramid.bigraph import (
    anneal_circulant_bipartite,
    check_degree_sum,
    check_mixing_lemma,
    circulant_bipartite,
    gamma,
)
from aramid.channel import corrupt_inner_rows, corrupt_pairs, corrupt_phi, trial_rng
from aramid.cli import main as cli_main, write_json
from aramid.gf import PrimeField
from aramid.gmd import ConcatCode
from aramid.grs import GrsCode
from aramid.iterdec import beta_bound, decode_params, decode_phi
from aramid.ltenc import build_lt_code, lt_design
from aramid.tanner import TannerCode, brute_min_phi_weight, min_dist_bound

DESK_SEED = 11
TRIALS_C1 = 1000
TRIALS_C6 = 500
TRIALS_C8 = 300


def report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def desk():
    """n=100, delta=36, q=37, k'=k''=18 with an annealed circulant graph."""
    graph = anneal_circulant_bipartite(
        100, 36, seed=DESK_SEED, gamma_target=0.20, iters=40000
    )
    field = PrimeField(37)
    comp = GrsCode(field, k=18, eval_points=range(1, 37))
    code = TannerCode(graph, comp, comp)
    g = gamma(graph).gamma
    assert math.sqrt(code.theta * code.delta_rel) > 2 * g > 0
    beta = beta_bound(code.theta, code.delta_rel, g)
    params = decode_params(code.theta, code.delta_rel, g, 0.9 * beta, 100, 36)
    return code, params


@pytest.fixture(scope="module")
def desk_stats(desk):
    """Criterion-1 trial battery, shared with criterion 2."""
    code, params = desk
    n = code.n
    smax = params.sigma * n
    tmax = math.floor(smax)
    stats = []
    rng_msg = np.random.default_rng(DESK_SEED + 1)
    for idx in range(TRIALS_C1):
        rng = trial_rng(DESK_SEED + 2, idx)
        if idx % 4 == 0:
            t, rho = tmax, 0  # error-only boundary
        elif idx % 4 == 1:
            t, rho = 0, math.floor(2 * smax)  # erasure-only boundary
        else:
            t = int(rng.integers(0, tmax + 1))
            rho = int(rng.integers(0, math.floor(2 * (smax - t)) + 1))
        assert t + rho / 2 <= smax
        msg = rng_msg.integers(0, code.field.q, size=code.dim)
        x = code.psi(code.encode_generic(msg))
        y = corrupt_phi(rng, x, t, rho, code.field.q)
        rep = decode_phi(code, y, params)
        exact = rep.success and np.array_equal(rep.result.values, x)
        stats.append((exact, rep.rounds_run, rep.component_calls))
    return stats


@pytest.fixture(scope="module")
def lt_desk():
    design = lt_design(R=0.5, eps=0.3, kappa=0.25, mu=0.05, n=130)
    return build_lt_code(design, seed=500)


def test_criterion_1_theorem3_radius(desk, desk_stats):
    code, params = desk
    failures = sum(1 for ok, _, _ in desk_stats if not ok)
    ok = failures == 0
    assert report(
        1,
        "Theorem-3 radius: exact decode on every in-radius trial",
        ok,
        f"{TRIALS_C1 - failures}/{TRIALS_C1} trials, sigma*n = {params.sigma * code.n:.2f}, "
        f"gamma = {params.gamma:.4f}",
    )


def test_criterion_2_nu_and_omega(desk, desk_stats):
    code, params = desk
    max_rounds = max(r for _, r, _ in desk_stats)
    max_calls = max(c for _, _, c in desk_stats)
    ok = max_rounds <= params.nu and max_calls <= params.omega * code.n
    assert report(
        2,
        "nu and omega bounds over the criterion-1 battery",
        ok,
        f"max rounds {max_rounds} <= nu {params.nu}; "
        f"max calls {max_calls} <= omega*n {params.omega * code.n:.0f}",
    )


def test_criterion_3_theorem1_oracle():
    field = PrimeField(7)
    graph = circulant_bipartite(3, [0, 1, 2])
    comp = GrsCode(field, k=2, eval_points=[1, 2, 3])
    code = TannerCode(graph, comp, comp)
    g = gamma(graph).gamma
    assert g == 0.0
    bound = math.ceil(code.n * min_dist_bound(code.theta, code.delta_rel, g))
    weight = brute_min_phi_weight(code)
    ok = bound == 2 and weight >= bound
    assert report(
        3,
        "Theorem-1 exhaustive Phi-weight oracle on (K33, [3,2,2]^2)/GF(7)",
        ok,
        f"min weight {weight} >= bound {bound}",
    )


def test_criterion_4_spectral_lemmas(desk, lt_desk):
    k33 = circulant_bipartite(3, [0, 1, 2])
    cyc8 = circulant_bipartite(4, [0, 1])
    vals = (0.0, 0.5, 1.0)
    cases = 0
    for graph in (k33, cyc8):
        n = graph.n
        for left in itertools.product(vals, repeat=n):
            for right in itertools.product(vals, repeat=n):
                check_mixing_lemma(graph, left, right)  # raises on violation
                cases += 1
        for smask in range(1 << n):
            for tmask in range(1 << n):
                if smask or tmask:
                    check_degree_sum(
                        graph,
                        [i for i in range(n) if smask >> i & 1],
                        [i for i in range(n) if tmask >> i & 1],
                    )
                    cases += 1
    max_residual = 0.0
    for graph in (k33, cyc8, desk[0].graph, lt_desk.g1, lt_desk.g2):
        x = biadjacency(graph)
        m = x.T @ x
        ones = np.ones(graph.n)
        res = float(np.abs(m @ ones - graph.delta**2 * ones).max())
        max_residual = max(max_residual, res)
        ev = np.linalg.eigvalsh(m.astype(float))
        max_residual = max(max_residual, abs(float(ev[-1]) - graph.delta**2))
    ok = max_residual <= 1e-9
    assert report(
        4,
        "Lemma-1 / Proposition-1 exhaustive sweeps and top-eigenpair residuals",
        ok,
        f"{cases} exhaustive cases, worst residual {max_residual:.2e}",
    )


def test_criterion_5_grs_contract():
    code = GrsCode(PrimeField(7), k=2, eval_points=range(1, 7))
    words = grs_reference.all_codewords(code)
    n, d, q = 6, 5, 7
    failures = 0
    cases = 0
    for c in words:
        for b in range(d):
            for era in itertools.combinations(range(n), b):
                erased = np.zeros(n, dtype=bool)
                erased[list(era)] = True
                rest = [i for i in range(n) if i not in era]
                for a in range((d - 1 - b) // 2 + 1):
                    for errs in itertools.combinations(rest, a):
                        for dv in itertools.product(range(1, q), repeat=a):
                            y = c.copy()
                            for p, v in zip(errs, dv):
                                y[p] = (y[p] + v) % q
                            got = grs_reference.decode_word(code, y, erased if b else None)
                            cases += 1
                            if got is None or not np.array_equal(got, c):
                                failures += 1
                                continue
                            # independent oracle: exhaustive nearest codeword
                            diffs = words != y[None, :]
                            if b:
                                diffs = diffs[:, ~erased]
                            dists = diffs.sum(axis=1)
                            best = dists.min()
                            cand = np.flatnonzero(dists == best)
                            if len(cand) != 1 or not np.array_equal(
                                words[cand[0]], got
                            ):
                                failures += 1
    ok = failures == 0
    assert report(
        5,
        "GRS [6,2,5]/GF(7) exhaustive error-erasure contract with brute oracle",
        ok,
        f"{cases} patterns, {failures} failures",
    )


def test_criterion_6_construction_end_to_end(lt_desk):
    code = lt_desk
    d = code.design
    assert d.relaxed
    assert d.n * d.syndrome_width == d.km * d.k2  # exact identity
    assert (1 - Fraction(d.k0, d.delta1)) * d.delta1 == Fraction(d.km, d.n) * d.R * d.delta2
    radius = code.radius
    mu_n = float(code.mediator.mu) * d.n
    failures = 0
    max_wdist = 0
    rng_msg = np.random.default_rng(DESK_SEED + 3)
    for idx in range(TRIALS_C6):
        rng = trial_rng(DESK_SEED + 4, idx)
        if idx % 3 == 0:
            t, rho = radius // 2, radius - 2 * (radius // 2)
        else:
            t = int(rng.integers(0, radius // 2 + 1))
            rho = int(rng.integers(0, radius - 2 * t + 1))
        assert 2 * t + rho <= radius
        eta = rng_msg.integers(0, d.q, size=(d.n, d.k1))
        trace = code.encode_trace(eta)
        values, er1, er2 = corrupt_pairs(rng, trace.x, t, rho, d.q)
        rep = code.decode(values, er1, er2)
        wdist = int(
            np.count_nonzero(
                np.any(rep.w_tilde != trace.w, axis=1) | rep.w_tilde_erased
            )
        )
        max_wdist = max(max_wdist, wdist)
        if not (rep.success and np.array_equal(rep.eta, eta) and wdist < mu_n):
            failures += 1
    ok = failures == 0
    assert report(
        6,
        "construction end-to-end: 2t+rho radius and Lemma-3 instrumentation",
        ok,
        f"{TRIALS_C6 - failures}/{TRIALS_C6} trials, radius {radius}, "
        f"max dist(w~, w) {max_wdist} < mu*n {mu_n:.1f}",
    )


def test_criterion_7_rate_identities(lt_desk):
    from fractions import Fraction

    f7 = PrimeField(7)
    small = [
        TannerCode(
            circulant_bipartite(3, [0, 1, 2]),
            GrsCode(f7, 2, [1, 2, 3]),
            GrsCode(f7, 2, [1, 2, 3]),
        ),
        TannerCode(
            circulant_bipartite(4, [0, 1]),
            GrsCode(PrimeField(5), 1, [1, 2]),
            GrsCode(PrimeField(5), 1, [1, 2]),
        ),
        TannerCode(
            circulant_bipartite(6, [0, 1, 2, 3, 4]),
            GrsCode(f7, 2, range(1, 6)),
            GrsCode(f7, 3, range(1, 6)),
        ),
    ]
    rank_ok = all(
        code.dim / code.num_edges >= code.r + code.R - 1 - 1e-12 for code in small
    )
    d = lt_desk.design
    rng = np.random.default_rng(77)
    eta = rng.integers(0, d.q, size=(d.n, d.k1))
    x = lt_desk.encode_trace(eta).x
    rate_exact = Fraction(eta.size, x.size) == Fraction(
        d.k1 * d.delta1, d.delta1 * (d.delta1 + d.delta2)
    )
    ok = rank_ok and rate_exact
    assert report(
        7,
        "rate identities: rank bound on small instances, exact rate of the construction",
        ok,
        f"rate = {d.rate} = R*delta1/(delta1+delta2)",
    )


def test_criterion_8_gmd(desk):
    code, params = desk
    inner = GrsCode(code.field, code.phi_width, range(1, 37))
    concat = ConcatCode(code, inner, params)
    budget = int(math.ceil(concat.guaranteed_radius())) - 1
    ladder_bound = concat.ladder_length
    assert ladder_bound == (inner.dmin + 2) // 2
    failures = 0
    max_calls = 0
    rng_msg = np.random.default_rng(DESK_SEED + 5)
    for idx in range(TRIALS_C8):
        rng = trial_rng(DESK_SEED + 6, idx)
        msg = rng_msg.integers(0, code.field.q, size=code.dim)
        mat = concat.encode(msg)
        rec = corrupt_inner_rows(rng, mat, budget, inner.dmin, code.field.q)
        got, trace = concat.decode(rec)
        max_calls = max(max_calls, len(trace.attempts))
        if got is None or not np.array_equal(got, msg):
            failures += 1
    ok = failures == 0 and max_calls <= ladder_bound
    assert report(
        8,
        "GMD concatenated trials within the weighted product radius",
        ok,
        f"{TRIALS_C8 - failures}/{TRIALS_C8} trials, outer calls {max_calls} <= "
        f"{ladder_bound}, weighted budget {budget}",
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "mode": "plain",
        "n": 48,
        "delta": 24,
        "q": 29,
        "k_prime": 12,
        "k_double": 12,
        "graph": "circulant",
        "gamma_target": 0.20,
        "anneal_iters": 30000,
        "seed": 101,
    }
    cfg_path = tmp_path / "cfg.json"
    write_json(str(cfg_path), cfg)
    inst_a, inst_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["build", "--config", str(cfg_path), "--out", str(inst_a)]) == 0
    assert cli_main(["build", "--config", str(cfg_path), "--out", str(inst_b)]) == 0
    builds_identical = inst_a.read_bytes() == inst_b.read_bytes()

    for run in (tmp_path / "ra", tmp_path / "rb"):
        assert (
            cli_main(
                ["run", "--instance", str(inst_a), "--seed", "5", "--trials", "40",
                 "--out", str(run)]
            )
            == 0
        )
    csvs_identical = (tmp_path / "ra.csv").read_bytes() == (
        tmp_path / "rb.csv"
    ).read_bytes()
    ok = builds_identical and csvs_identical
    assert report(
        9,
        "determinism: byte-identical instance files and repeated runs",
        ok,
        f"builds identical: {builds_identical}, csvs identical: {csvs_identical}",
    )
