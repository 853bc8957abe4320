import copy
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aramid.bigraph import DisconnectedGraphError
from aramid.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ContractError,
    build_plain_instance,
    canonical_json,
    load_lt_instance,
    load_plain_instance,
    main,
    read_json,
    write_json,
)
from aramid.ltenc import DesignError

SMALL_CFG = {
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

TINY_CFG = {
    "mode": "plain",
    "n": 3,
    "delta": 3,
    "q": 7,
    "k_prime": 2,
    "k_double": 2,
    "graph": "circulant",
    "seed": 1,
}


DESK_CFG = {
    "mode": "plain",
    "n": 100,
    "delta": 36,
    "q": 37,
    "k_prime": 18,
    "k_double": 18,
    "graph": "circulant",
    "gamma_target": 0.20,
    "anneal_iters": 40000,
    "seed": 11,
}


LT_CFG = {
    "mode": "lt",
    "n": 130,
    "R": [1, 2],
    "eps": 0.3,
    "kappa": 0.25,
    "mu": 0.05,
    "seed": 500,
    "anneal_iters": 40000,
}


@pytest.fixture(scope="module")
def small_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.json"
    write_json(str(path), build_plain_instance(SMALL_CFG, allow_weak=False))
    return str(path)


@pytest.fixture(scope="module")
def weak_instance(tmp_path_factory):
    """K33 (gamma = 0) kept with --allow-weak: it has no decode params."""
    path = tmp_path_factory.mktemp("weak") / "weak.json"
    write_json(str(path), build_plain_instance(TINY_CFG, allow_weak=True))
    return str(path)


@pytest.fixture(scope="module")
def desk_instance(tmp_path_factory):
    """The desk plain instance, built through the CLI."""
    tmp = tmp_path_factory.mktemp("desk")
    cfg, inst = tmp / "cfg.json", tmp / "desk.json"
    write_json(str(cfg), DESK_CFG)
    assert main(["build", "--config", str(cfg), "--out", str(inst)]) == EXIT_OK
    return str(inst)


@pytest.fixture(scope="module")
def lt_instance(tmp_path_factory):
    """The desk lt instance, built through the CLI."""
    tmp = tmp_path_factory.mktemp("lt")
    cfg, inst = tmp / "cfg.json", tmp / "lt.json"
    write_json(str(cfg), LT_CFG)
    assert main(["build", "--config", str(cfg), "--out", str(inst)]) == EXIT_OK
    return str(inst)


def run_cli(*argv) -> int:
    return main(list(argv))


def test_build_populates_derived(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg), SMALL_CFG)
    assert run_cli("build", "--config", str(cfg), "--out", str(out)) == EXIT_OK
    inst = json.loads(out.read_text())
    d = inst["derived"]
    assert not d["weak"]
    assert d["beta"] > 0 and d["nu"] >= 3 and d["omega"] > 0
    assert d["theta"] == [13, 24]


def test_build_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(str(cfg), SMALL_CFG)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("build", "--config", str(cfg), "--out", str(a)) == EXIT_OK
    assert run_cli("build", "--config", str(cfg), "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_build_unreachable_gamma_target_reports_best(tmp_path, caplog):
    # a plain config's gamma_target is the user's requirement, so a miss is refused
    cfg = dict(SMALL_CFG, gamma_target=0.01, anneal_iters=500)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_VIOLATION
    assert "best measured gamma" in caplog.text
    assert "gamma target 0.01 not reached within anneal_iters = 500" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("target", [1.0, None])
def test_build_disconnected_circulant_exits_1(tmp_path, caplog, target):
    # one shift per vertex is never connected, whether or not a target is met
    cfg = dict(SMALL_CFG, delta=1, gamma_target=target, anneal_iters=20)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_VIOLATION
    assert "disconnected circulant graph" in caplog.text
    assert "gamma target" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "target, message",
    [
        (float("nan"), "must be above 0, got nan"),
        (float("inf"), "must be at most 1, got inf"),
        (5.0, "must be at most 1, got 5.0"),
        (0, "must be above 0, got 0"),
        (-0.1, "must be above 0, got -0.1"),
    ],
    ids=["nan", "infinity", "above-1", "zero", "negative"],
)
def test_build_meaningless_gamma_target_is_usage_error(tmp_path, caplog, target, message):
    # gamma never exceeds 1: a larger target or Infinity stops the annealer
    # before its first move, and NaN never stops it and is no JSON; the
    # config file holds them as Python's json writes them (NaN, Infinity),
    # and --allow-weak lets none of them by
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    cfg_path.write_text(json.dumps(dict(SMALL_CFG, gamma_target=target)))
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out), "--allow-weak")
    assert rc == EXIT_USAGE
    assert f"build plain config gamma_target {message}" in caplog.text
    assert not out.exists()


def test_canonical_json_refuses_nan():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            canonical_json({"gamma_target": value})


@pytest.mark.parametrize("cfg", [SMALL_CFG, LT_CFG], ids=["plain", "lt"])
def test_build_negative_anneal_iters_is_usage_error(tmp_path, caplog, cfg):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), dict(cfg, anneal_iters=-1))
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert f"build {cfg['mode']} config anneal_iters must be at least 0, got -1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("cfg", [SMALL_CFG, LT_CFG], ids=["plain", "lt"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_build_negative_seed_is_usage_error(tmp_path, caplog, cfg, where):
    # numpy's seeding refuses a negative seed with a bare ValueError
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), dict(cfg, seed=-3) if where == "config" else cfg)
    argv = ["build", "--config", str(cfg_path), "--out", str(out)]
    rc = run_cli(*argv, *(["--seed", "-3"] if where == "flag" else []))
    assert rc == EXIT_USAGE
    key = f"{cfg['mode']} config seed" if where == "config" else "--seed"
    assert f"build {key} must be at least 0, got -3" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        (dict(SMALL_CFG, sigma_frac=0.5), "sigma_frac"),  # a knob that is gone
        (dict(SMALL_CFG, anneal_iter=5), "anneal_iter"),  # a typo of anneal_iters
        (dict(LT_CFG, gamma_target=0.2), "gamma_target"),  # a plain key in an lt config
    ],
    ids=["sigma-frac", "typo", "plain-key-in-lt"],
)
def test_build_unknown_key_is_usage_error(tmp_path, caplog, cfg, key):
    # a key outside its mode's table would otherwise be ignored silently
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert f"build {cfg['mode']} config has an unknown key {key!r}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("frac", [5, 1, 0, -0.5])
def test_build_sigma_frac_outside_unit_interval_is_usage_error(tmp_path, caplog, frac):
    # sigma is the constant SIGMA_FRAC * beta; a config that still sets the old
    # knob, in range or not, is refused as an unknown key
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), dict(SMALL_CFG, sigma_frac=frac))
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert "build plain config has an unknown key 'sigma_frac'" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"delta": 49}, "1 <= delta <= n"),
        ({"graph": "bogus"}, "build plain config graph must be equal to 'circulant', got 'bogus'"),
        ({"graph": "random"}, "build plain config graph must be equal to 'circulant', got 'random'"),
        ({"q": 36}, "modulus 36 is not prime"),
        ({"k_prime": 40}, "k_prime: dimension must satisfy 0 < k <= 24, got 40"),
        ({"k_double": 0}, "k_double: dimension must satisfy 0 < k <= 24, got 0"),
    ],
    ids=[
        "delta-above-n", "unknown-graph", "random-graph", "q-not-prime",
        "k-prime-above-delta", "k-double-zero",
    ],
)
def test_build_unbuildable_plain_config_is_usage_error(
    tmp_path, caplog, change, message
):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), dict(SMALL_CFG, **change))
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not out.exists()


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ([SMALL_CFG], "build config must be a JSON object, got list"),
        (_without(SMALL_CFG, "n"), "build plain config lacks 'n'"),
        (dict(LT_CFG, R="x"), "build R 'x': Invalid literal for Fraction"),
        (dict(SMALL_CFG, mode="x"), "build config mode must be one of ('plain', 'lt'), got 'x'"),
        (dict(SMALL_CFG, mode=[]), "build config mode must be str, got []"),
    ],
    ids=["json-list", "plain-without-n", "lt-R-not-a-fraction", "unknown-mode", "mode-a-list"],
)
def test_build_malformed_config_is_usage_error(tmp_path, caplog, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(SMALL_CFG, anneal_iters="x"), "build plain config anneal_iters must be int, got 'x'"),
        (dict(SMALL_CFG, seed="x"), "build plain config seed must be int, got 'x'"),
        (dict(SMALL_CFG, k_prime="x"), "build plain config k_prime must be int, got 'x'"),
        (dict(SMALL_CFG, gamma_target="x"), "build plain config gamma_target must be int or float"),
        (dict(SMALL_CFG, sigma_frac="x"), "build plain config has an unknown key 'sigma_frac'"),
        (dict(LT_CFG, eps="x"), "build lt config eps must be int or float, got 'x'"),
    ],
    ids=["anneal-iters", "seed", "k-prime", "gamma-target", "sigma-frac", "lt-eps"],
)
def test_build_wrong_type_is_usage_error(tmp_path, caplog, cfg, message):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not out.exists()


def test_build_refuses_weak_instance(tmp_path):
    cfg = dict(TINY_CFG)  # K33 has gamma = 0: 2*gamma > 0 fails
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    assert (
        run_cli("build", "--config", str(cfg_path), "--out", str(out))
        == EXIT_VIOLATION
    )
    assert (
        run_cli(
            "build", "--config", str(cfg_path), "--out", str(out), "--allow-weak"
        )
        == EXIT_OK
    )
    inst = json.loads(out.read_text())
    assert inst["derived"]["weak"]
    assert "beta" not in inst["derived"]


def test_run_in_contract(small_instance, tmp_path):
    out = tmp_path / "rep"
    rc = run_cli(
        "run",
        "--instance",
        small_instance,
        "--seed",
        "7",
        "--trials",
        "40",
        "--out",
        str(out),
    )
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["success_rate"] == 1.0
    assert rep["max_rounds"] <= rep["nu"]
    assert rep["max_calls"] <= rep["omega_n_bound"]
    csv_lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv_lines[0] == "trial,success,rounds,calls"
    assert len(csv_lines) == 41


def test_run_csv_identical_repeated_runs(small_instance, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run_cli(
                "run", "--instance", small_instance, "--seed", "9",
                "--trials", "30", "--out", str(out),
            )
            == EXIT_OK
        )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_plain_load_refuses_edited_gamma(small_instance, tmp_path):
    obj = read_json(small_instance)
    obj["derived"]["gamma"] *= 0.9
    with pytest.raises(ContractError, match="stored gamma"):
        load_plain_instance(obj)
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "run", "--instance", str(edited), "--seed", "9", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_VIOLATION
    assert not (tmp_path / "rep.json").exists()


def test_plain_load_refuses_sigma_beyond_beta(small_instance):
    obj = read_json(small_instance)
    obj["derived"]["sigma"] = obj["derived"]["beta"] * 1.01
    with pytest.raises(ContractError, match="stored sigma"):
        load_plain_instance(obj)
    obj["derived"]["sigma"] = 0.0
    with pytest.raises(ContractError, match="stored sigma"):
        load_plain_instance(obj)


def test_run_zero_noise(small_instance, tmp_path):
    out = tmp_path / "clean"
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "3", "--trials", "10",
        "--errors", "0", "--erasures", "0", "--out", str(out),
    )
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "clean.json").read_text())
    assert rep["success_rate"] == 1.0
    code, params, _ = load_plain_instance(read_json(small_instance))
    assert rep["max_calls"] <= 2 * code.n


def test_run_excessive_errors_needs_allow_weak(small_instance, tmp_path):
    out = tmp_path / "hot"
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "4", "--trials", "5",
        "--errors", "30", "--erasures", "0", "--out", str(out),
    )
    assert rc == 2  # usage error without --allow-weak
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "4", "--trials", "5",
        "--errors", "30", "--erasures", "0", "--allow-weak", "--out", str(out),
    )
    assert rc in (EXIT_OK, EXIT_VIOLATION)  # out-of-contract failures permitted
    rep = json.loads((tmp_path / "hot.json").read_text())
    assert rep["out_of_contract"]


def test_run_errors_alone_are_gated(small_instance, tmp_path):
    """--errors without --erasures still faces the sigma*n gate."""
    out = tmp_path / "hot"
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "4", "--trials", "5",
        "--errors", "45", "--out", str(out),
    )
    assert rc == EXIT_USAGE
    assert not (tmp_path / "hot.json").exists()
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "4", "--trials", "5",
        "--errors", "45", "--allow-weak", "--out", str(out),
    )
    assert rc in (EXIT_OK, EXIT_VIOLATION)
    rep = json.loads((tmp_path / "hot.json").read_text())
    assert rep["out_of_contract"] is True


def test_lt_run_erasures_without_errors_is_usage_error(tmp_path, caplog):
    rc = run_cli(
        "lt-run", "--instance", str(tmp_path / "lt.json"), "--seed", "1",
        "--erasures", "4", "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert "--erasures needs --errors" in caplog.text
    assert not (tmp_path / "rep.csv").exists()


def test_run_erasures_without_errors_is_usage_error(small_instance, tmp_path, caplog):
    """Drawn t with fixed rho could leave sigma*n; the run refuses instead."""
    rc = run_cli(
        "run", "--instance", small_instance, "--seed", "3", "--trials", "40",
        "--erasures", "20", "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert "--erasures needs --errors" in caplog.text
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize(
    "command, instance",
    [("run", "small_instance"), ("lt-run", "lt_instance"), ("gmd-run", "small_instance")],
)
def test_trials_below_one_is_usage_error(command, instance, trials, request, tmp_path, caplog):
    rc = run_cli(
        command, "--instance", request.getfixturevalue(instance), "--seed", "1",
        "--trials", trials, "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert "--trials must be at least 1" in caplog.text
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize(
    "counts",
    [
        ["--errors", "-1"],
        ["--errors", "-1", "--erasures", "9"],
        ["--errors", "2", "--erasures", "-1"],
        ["--seed", "-1"],  # numpy's seeding would refuse it with a bare ValueError
    ],
)
@pytest.mark.parametrize(
    "command, instance", [("run", "small_instance"), ("lt-run", "lt_instance")]
)
def test_negative_counts_are_usage_errors(
    command, instance, counts, request, tmp_path, caplog
):
    rc = run_cli(
        command, "--instance", request.getfixturevalue(instance), "--seed", "1",
        "--trials", "3", *counts, "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    flag = counts[counts.index("-1") - 1]
    assert f"{command} {flag} must be at least 0, got -1" in caplog.text
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, instance",
    [
        ("run", "lt_instance"),
        ("gmd-run", "lt_instance"),
        ("lt-run", "small_instance"),
        ("run", "weak_instance"),
        ("gmd-run", "weak_instance"),
    ],
)
def test_wrong_mode_or_weak_instance_is_usage_error(
    command, instance, request, tmp_path
):
    rc = run_cli(
        command, "--instance", request.getfixturevalue(instance), "--seed", "1",
        "--trials", "3", "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, instance, digest",
    [
        (
            ["run", "--seed", "7", "--trials", "40"], "small_instance",
            "b74e9b9438f818569f285fcba1f84c0bb887d4d41881e4d03a833de7ea28cd39",
        ),
        (
            ["run", "--seed", "5", "--trials", "30", "--errors", "3"], "small_instance",
            "6d12cf646f691eec33bd7ee88fc2fdb9ab7818fcd3b950e71ae24874b712ff00",
        ),
        (
            ["lt-run", "--seed", "11", "--trials", "15"], "lt_instance",
            "6d5a587048f459d059a045cf7db5b46eb5eac76751c25fc15614a18375bc9073",
        ),
        (
            ["gmd-run", "--seed", "13", "--trials", "25"], "small_instance",
            "63c4b5cc55f518f3d7096c5aa353819bff9d2e9dac0870786331e367b70a8eb5",
        ),
    ],
)
def test_seeded_csv_golden_digest(argv, instance, digest, request, tmp_path):
    """Seeded trial CSVs hold only integers, so a changed digest means changed
    seeded behaviour, not rounding."""
    rc = run_cli(
        *argv, "--instance", request.getfixturevalue(instance),
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_OK
    assert hashlib.sha256((tmp_path / "rep.csv").read_bytes()).hexdigest() == digest


def test_verify_bounds_tiny(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    inst = tmp_path / "inst.json"
    write_json(str(cfg_path), TINY_CFG)
    run_cli("build", "--config", str(cfg_path), "--out", str(inst), "--allow-weak")
    out = tmp_path / "bounds.json"
    rc = run_cli("verify-bounds", "--instance", str(inst), "--out", str(out))
    assert rc == EXIT_OK
    results = json.loads(out.read_text())
    assert results["theorem1_min_phi_weight"] == "pass"
    assert results == {
        "lemma_a1_eigenstructure": "pass",
        "theorem1_min_phi_weight": "pass",
        "mixing_lemma_exhaustive": "pass",
        "degree_sum_exhaustive": "pass",
    }


def test_verify_bounds_omega_audit(small_instance, tmp_path):
    rep = tmp_path / "rep"
    run_cli(
        "run", "--instance", small_instance, "--seed", "7", "--trials", "20",
        "--out", str(rep),
    )
    out = tmp_path / "bounds.json"
    rc = run_cli(
        "verify-bounds", "--instance", small_instance,
        "--runs", str(tmp_path / "rep.json"), "--out", str(out),
    )
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["omega_n_audit"] == "pass"


def test_lt_build_and_run(lt_instance, tmp_path):
    obj = read_json(lt_instance)
    assert obj["derived"]["relaxed"]
    assert obj["derived"]["radius"] == 26
    assert "mediator" not in obj  # the design fixes the mediator
    out = tmp_path / "ltrep"
    rc = run_cli(
        "lt-run", "--instance", lt_instance, "--seed", "11", "--trials", "15",
        "--out", str(out),
    )
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "ltrep.json").read_text())
    assert rep["success_rate"] == 1.0
    assert rep["lemma3_instrumentation"] == "pass"
    assert rep["max_w_dist"] < rep["mediator_mu_n"]


def test_lt_run_gates_the_radius(lt_instance, tmp_path):
    """--errors 14 on the desk lt instance is 2t = 28 > radius 26."""
    out = tmp_path / "hot"
    rc = run_cli(
        "lt-run", "--instance", lt_instance, "--seed", "11", "--trials", "3",
        "--errors", "14", "--out", str(out),
    )
    assert rc == EXIT_USAGE
    assert not (tmp_path / "hot.csv").exists()
    rc = run_cli(
        "lt-run", "--instance", lt_instance, "--seed", "11", "--trials", "3",
        "--errors", "10", "--erasures", "7", "--out", str(out),
    )
    assert rc == EXIT_USAGE  # 2t + rho = 27
    rc = run_cli(
        "lt-run", "--instance", lt_instance, "--seed", "11", "--trials", "3",
        "--errors", "10", "--erasures", "6", "--out", str(out),
    )
    assert rc == EXIT_OK  # 2t + rho = 26 is the radius itself


def test_lt_build_certifies_on_measured_gamma(tmp_path):
    """At 300 moves the g2 search misses its target (gamma2 about 0.1437
    against 0.1426), but the stage rule holds on the measured ratios, so the
    build is kept and decodes at the full radius 2t + rho = 26."""
    cfg, inst = tmp_path / "cfg.json", tmp_path / "lt.json"
    write_json(str(cfg), dict(LT_CFG, anneal_iters=300))
    assert run_cli("build", "--config", str(cfg), "--out", str(inst)) == EXIT_OK
    obj = read_json(str(inst))
    assert obj["derived"]["gamma2"] > obj["design"]["gamma2_target"]
    assert obj["derived"]["radius"] == 26
    for counts in ([], ["--errors", "13"]):
        rc = run_cli(
            "lt-run", "--instance", str(inst), "--seed", "11", "--trials", "10",
            *counts, "--out", str(tmp_path / "rep"),
        )
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "rep.json").read_text())["success_rate"] == 1.0


def test_lt_run_uncertified_graph_exits_1(lt_instance, tmp_path, caplog):
    # consecutive shifts give a connected g1 whose gamma1 fails stage D4
    obj = read_json(lt_instance)
    obj["g1"]["shifts"] = list(range(obj["design"]["delta1"]))
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "lt-run", "--instance", str(edited), "--seed", "11", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_VIOLATION
    target = obj["design"]["gamma1_target"]
    assert "stage D4 fails on the measured gamma1 = " in caplog.text
    assert f"(target {target:.6f})" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


@pytest.mark.parametrize("key", ["gamma1", "gamma2"])
def test_lt_load_checks_stored_gamma(lt_instance, tmp_path, key):
    obj = read_json(lt_instance)
    stored = obj["derived"][key]
    obj["derived"][key] = stored * (1 + 1e-12)  # last-digit drift still loads
    load_lt_instance(obj)
    obj["derived"][key] = stored * (1 + 1e-6)
    with pytest.raises(ContractError, match=f"stored {key}"):
        load_lt_instance(obj)
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "lt-run", "--instance", str(edited), "--seed", "11", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_VIOLATION
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["design"].pop("q"), "lt instance design lacks 'q'"),
        (lambda obj: obj.pop("g1"), "lt instance lacks 'g1'"),
        (
            lambda obj: obj["design"].update(delta1="x"),
            "lt instance design delta1 must be int, got 'x'",
        ),
        (lambda obj: obj["design"].update(R=[1, 0]), "lt instance design: Fraction(1, 0)"),
        (
            lambda obj: obj["g1"].update(shifts=[[0, 1]]),
            "lt instance g1 shifts[0] must be int, got [0, 1]",
        ),
        (
            lambda obj: obj["design"].update(q=36),
            "lt instance design q must be at least design.n = 130, got 36",
        ),
        (lambda obj: obj["design"].update(q=133), "lt instance design: modulus 133 is not prime"),
        # checked before the graph would allocate its n-long arrays
        (
            lambda obj: obj["g2"].update(n=10**15),
            "lt instance g2 n must be at most design.n = 130, got 1000000000000000",
        ),
        (
            lambda obj: obj["design"].update(q=127),
            "lt instance design q must be at least design.n = 130, got 127",
        ),
    ],
    ids=[
        "design-without-q", "without-g1", "delta1-not-int", "R-zero-denominator", "g1-shape",
        "q-not-prime", "q-not-prime-above-n", "g2-n-huge", "n-above-q",
    ],
)
def test_lt_run_malformed_instance_is_usage_error(lt_instance, tmp_path, caplog, edit, message):
    obj = read_json(lt_instance)
    edit(obj)
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "lt-run", "--instance", str(edited), "--seed", "11", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("key, value", [("eps", 0.6), ("R", [2, 5]), ("sigma_stage", 0.2)])
def test_lt_design_off_its_stage_radius_exits_1(lt_instance, tmp_path, caplog, key, value):
    # lt-run's radius reads R and eps, the stage checks read sigma_stage
    obj = read_json(lt_instance)
    obj["design"][key] = value
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    with pytest.raises(DesignError, match="sigma_stage"):
        load_lt_instance(obj)
    rc = run_cli(
        "lt-run", "--instance", str(edited), "--seed", "11", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_VIOLATION
    assert "sigma_stage must equal (1 - R - eps) / 2" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


def _shorten(part, *keys):
    def edit(obj):
        for key in keys:
            obj[part][key] = obj[part][key][:-1]

    return edit


# plain-instance parts of the right JSON type that no field, GRS code or
# graph code can be built from; SMALL_CFG has delta = 24 over GF(29)
_UNBUILDABLE_PARTS = [
    (lambda obj: obj["field"].update(q=36), "plain instance field: modulus 36 is not prime"),
    (
        lambda obj: obj["c_prime"].update(k=99),
        "plain instance c_prime: dimension must satisfy 0 < k <= 24, got 99",
    ),
    (
        _shorten("c_double", "eval_points"),
        "plain instance c_double: column multipliers must be nonzero, one per position",
    ),
    (
        lambda obj: obj["c_prime"].update(eval_points=[1, *obj["c_prime"]["eval_points"][:-1]]),
        "plain instance c_prime: evaluation points must be pairwise distinct",
    ),
    (
        _shorten("c_double", "eval_points", "col_mults"),
        "plain instance: component code length must equal the degree 24",
    ),
]
_UNBUILDABLE_IDS = [
    "q-not-prime", "k-too-large", "eval-points-short", "eval-points-repeat", "c-double-short",
]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj.pop("derived"), "plain instance lacks 'derived'"),
        (lambda obj: obj.pop("c_prime"), "plain instance lacks 'c_prime'"),
        (lambda obj: obj["field"].update(q="x"), "plain instance field q must be int, got 'x'"),
        (
            lambda obj: obj["graph"].update(shifts=[[0, 1]]),
            "plain instance graph shifts[0] must be int, got [0, 1]",
        ),
        *_UNBUILDABLE_PARTS,
    ],
    ids=["without-derived", "without-c-prime", "q-not-int", "graph-shape", *_UNBUILDABLE_IDS],
)
def test_run_malformed_plain_instance_is_usage_error(
    small_instance, tmp_path, caplog, edit, message
):
    obj = read_json(small_instance)
    edit(obj)
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "run", "--instance", str(edited), "--seed", "7", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("key", ["eval_points", "col_mults"])
@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_grs_entry_not_an_int_is_usage_error(small_instance, tmp_path, caplog, key, value):
    # refused by the table like a shift of the same type, although numpy
    # would read [1.0, 2] as floats and [True, 2] as int64
    obj = read_json(small_instance)
    obj["c_prime"][key][2] = value
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "run", "--instance", str(edited), "--seed", "7", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert f"plain instance c_prime {key}[2] must be int, got {value!r}" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


@pytest.mark.parametrize("command", ["gmd-run", "verify-bounds"])
@pytest.mark.parametrize("edit, message", _UNBUILDABLE_PARTS, ids=_UNBUILDABLE_IDS)
def test_unbuildable_plain_part_is_usage_error(
    small_instance, tmp_path, caplog, command, edit, message
):
    # gmd-run and verify-bounds load plain instances through the same path
    obj = read_json(small_instance)
    edit(obj)
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    argv = [command, "--instance", str(edited), "--out", str(tmp_path / "rep")]
    if command == "gmd-run":
        argv += ["--seed", "13", "--trials", "3"]
    assert run_cli(*argv) == EXIT_USAGE
    assert message in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


@pytest.mark.parametrize("command", ["run", "verify-bounds", "lt-run", "gmd-run"])
def test_instance_not_a_json_object_is_usage_error(command, tmp_path, caplog):
    inst = tmp_path / "list.json"
    write_json(str(inst), [1, 2])
    argv = [command, "--instance", str(inst), "--out", str(tmp_path / "rep")]
    if command != "verify-bounds":
        argv += ["--seed", "1", "--trials", "3"]
    assert run_cli(*argv) == EXIT_USAGE
    mode = "lt" if command == "lt-run" else "plain"
    assert f"{mode} instance must be a JSON object, got list" in caplog.text
    assert not (tmp_path / "rep").exists() and not (tmp_path / "rep.csv").exists()


def _set_shift(i, value):
    def edit(g):
        g["shifts"][i] = value

    return edit


# edits of a graph part {"n", "shifts", "seed"} and the message each gets;
# {n} stands for the stored n and {n1} for n + 1
_MALFORMED_SHIFT_LISTS = [
    (_set_shift(1, 1.0), " shifts[1] must be int, got 1.0"),
    (_set_shift(1, True), " shifts[1] must be int, got True"),
    (_set_shift(1, "1"), " shifts[1] must be int, got '1'"),
    (_set_shift(0, -1), ": shift -1 is outside [0, {n})"),
    (lambda g: g.update(shifts=[g["n"], *g["shifts"][1:]]), ": shift {n} is outside [0, {n})"),
    (lambda g: g.update(shifts=[]), ": need 1 <= delta <= n and n > 1, got delta=0"),
    (lambda g: g.update(n=float(g["n"])), " n must be int, got {n}.0"),
    (lambda g: g.update(n=1, shifts=[0]), ": need 1 <= delta <= n and n > 1, got delta=1 n=1"),
    (
        lambda g: g.update(shifts=list(range(g["n"] + 1))),
        ": need 1 <= delta <= n and n > 1, got delta={n1} n={n}",
    ),
    (lambda g: g.update(n=4, shifts=[0, 2]), ": graph is not connected"),
]
_MALFORMED_SHIFT_IDS = [
    "float", "bool", "string", "minus-1", "s-is-n", "empty", "n-not-int", "n-is-1",
    "more-than-n", "disconnected",
]


@pytest.mark.parametrize(
    "command, instance, part",
    [("run", "small_instance", "graph"), ("lt-run", "lt_instance", "g1")],
)
@pytest.mark.parametrize("edit, message", _MALFORMED_SHIFT_LISTS, ids=_MALFORMED_SHIFT_IDS)
def test_malformed_shift_list_is_usage_error(
    command, instance, part, edit, message, request, tmp_path, caplog
):
    obj = read_json(request.getfixturevalue(instance))
    mode = obj["mode"]
    n = obj[part]["n"]
    edit(obj[part])
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    rc = run_cli(
        command, "--instance", str(edited), "--seed", "7", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_USAGE
    assert f"{mode} instance {part}" + message.format(n=n, n1=n + 1) in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


def _as_matchings(graph: dict) -> dict:
    """A graph part as earlier versions stored it: delta full matchings."""
    n, shifts = graph["n"], graph["shifts"]
    return {
        "n": n,
        "delta": len(shifts),
        "matchings": [[(u + s) % n for u in range(n)] for s in shifts],
        "seed": graph["seed"],
    }


@pytest.mark.parametrize(
    "command, instance",
    [
        ("run", "desk_instance"),
        ("verify-bounds", "desk_instance"),
        ("gmd-run", "desk_instance"),
        ("lt-run", "lt_instance"),
    ],
)
def test_matchings_file_is_usage_error(command, instance, request, tmp_path, caplog):
    obj = read_json(request.getfixturevalue(instance))
    parts = ["graph"] if obj["mode"] == "plain" else ["g1", "g2"]
    for part in parts:
        obj[part] = _as_matchings(obj[part])
    old = tmp_path / "old.json"
    write_json(str(old), obj)
    argv = [command, "--instance", str(old), "--out", str(tmp_path / "rep")]
    if command != "verify-bounds":
        argv += ["--seed", "7", "--trials", "3"]
    assert run_cli(*argv) == EXIT_USAGE
    message = f"{obj['mode']} instance {parts[0]} lacks 'shifts'"
    assert message in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


# sha256 of canonical_json of each graph part of the desk instances; the
# parts hold only ints, so the digests do not depend on the numpy version
_DESK_GRAPH_DIGESTS = {
    "graph": "b5eff38d6a1ee55f4491d85d00c1e16d5ac2bda2f04e5846a2a55d8576828605",
    "g1": "201e0190a912879508d706989afb71ab04ae8cebb82bc65b7d39c1c031a15d8e",
    "g2": "445cf9fccaa03a3c15b43abad875fe785b7dc11748fd9462816d2046821d2bac",
}
# the file sizes when each graph was stored as delta x n matchings
_MATCHINGS_FILE_BYTES = {"plain": 45701, "lt": 208557}


@pytest.mark.parametrize("instance", ["desk_instance", "lt_instance"])
def test_desk_graph_parts_are_pinned_shift_lists(instance, request):
    path = request.getfixturevalue(instance)
    obj = read_json(path)
    parts = ["graph"] if obj["mode"] == "plain" else ["g1", "g2"]
    for part in parts:
        assert sorted(obj[part]) == ["n", "seed", "shifts"]
        digest = hashlib.sha256(canonical_json(obj[part]).encode()).hexdigest()
        assert digest == _DESK_GRAPH_DIGESTS[part], part
    assert 10 * os.path.getsize(path) <= _MATCHINGS_FILE_BYTES[obj["mode"]]


def test_verify_bounds_on_lt_instance_is_usage_error(lt_instance, tmp_path, caplog):
    out = tmp_path / "bounds.json"
    rc = run_cli("verify-bounds", "--instance", lt_instance, "--out", str(out))
    assert rc == EXIT_USAGE
    assert "plain instance mode must be equal to 'plain', got 'lt'" in caplog.text
    assert not out.exists()


def test_gmd_run(small_instance, tmp_path):
    out = tmp_path / "gmd"
    rc = run_cli(
        "gmd-run", "--instance", small_instance, "--seed", "13", "--trials", "25",
        "--out", str(out),
    )
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "gmd.json").read_text())
    assert rep["success_rate"] == 1.0
    assert rep["max_outer_calls"] <= rep["ladder_bound"]


def test_gmd_run_reads_no_stored_theorem1_bound(small_instance, tmp_path):
    """The Zyablov distance comes from the gamma measured on load, so a file
    without the stored bound gives the same report, byte for byte."""
    obj = read_json(small_instance)
    stored = obj["derived"].pop("theorem1_bound")
    for name, inst in (("kept", read_json(small_instance)), ("dropped", obj)):
        (tmp_path / name).mkdir()
        write_json(str(tmp_path / name / "inst.json"), inst)
        rc = run_cli(
            "gmd-run", "--instance", str(tmp_path / name / "inst.json"), "--seed", "13",
            "--trials", "3", "--out", str(tmp_path / name / "rep"),
        )
        assert rc == EXIT_OK
    kept = (tmp_path / "kept" / "rep.json").read_bytes()
    assert (tmp_path / "dropped" / "rep.json").read_bytes() == kept
    length, _, dmin = json.loads(kept)["inner"]
    assert json.loads(kept)["zyablov_point"]["distance"] == dmin / length * stored


def test_gmd_run_csv_deterministic(small_instance, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run_cli(
                "gmd-run", "--instance", small_instance, "--seed", "13",
                "--trials", "10", "--out", str(out),
            )
            == EXIT_OK
        )
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_canonical_json_stable():
    s1 = canonical_json({"b": 1, "a": [1.5, 2]})
    s2 = canonical_json({"a": [1.5, 2], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "aramid.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


# -- unreadable files, unwritable outputs, internal errors --------------------------


def _argv(command, path, out):
    if command == "build":
        return ["build", "--config", path, "--out", out]
    return [command, "--instance", path, "--seed", "1", "--trials", "2", "--out", out]


@pytest.mark.parametrize("command", ["build", "run", "lt-run"])
@pytest.mark.parametrize(
    "content", [None, b"{not json", b"\xff\xfe"], ids=["missing", "not-json", "not-utf8"]
)
def test_unreadable_input_file_is_usage_error(command, content, tmp_path, caplog):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content)
    assert run_cli(*_argv(command, str(path), str(tmp_path / "out"))) == EXIT_USAGE
    assert f"cannot read {path}: " in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["in.json"])


@pytest.mark.parametrize("command", ["build", "run", "gmd-run"])
def test_out_into_missing_directory_is_usage_error(command, small_instance, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    write_json(str(cfg), SMALL_CFG)
    path = str(cfg) if command == "build" else small_instance
    out = tmp_path / "missing" / "rep.json"
    assert run_cli(*_argv(command, path, str(out))) == EXIT_USAGE
    written = out if command == "build" else out.with_suffix(".csv")
    assert f"cannot write {written}: " in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("blocked", ["rep.csv", "rep.json"])
def test_failed_output_write_leaves_no_file(small_instance, tmp_path, caplog, blocked):
    # a directory where one output file goes; the other file is not kept either
    (tmp_path / blocked).mkdir()
    assert run_cli(*_argv("run", small_instance, str(tmp_path / "rep"))) == EXIT_USAGE
    assert f"cannot write {tmp_path / blocked}: " in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == [blocked]
    assert not any((tmp_path / blocked).iterdir())


@pytest.mark.parametrize(
    "report, message",
    [
        ({"omega_n_bound": 5.0}, "runs report lacks 'max_calls'"),
        ({"max_calls": "7", "omega_n_bound": 5.0}, "runs report max_calls must be int, got '7'"),
        ([7, 5.0], "runs report must be a JSON object, got list"),
    ],
    ids=["without-max-calls", "max-calls-a-string", "json-list"],
)
def test_malformed_runs_report_is_usage_error(weak_instance, tmp_path, caplog, report, message):
    runs = tmp_path / "runs.json"
    write_json(str(runs), report)
    out = tmp_path / "bounds.json"
    rc = run_cli(
        "verify-bounds", "--instance", weak_instance, "--runs", str(runs), "--out", str(out)
    )
    assert rc == EXIT_USAGE
    assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("level", ["", "debug"], ids=["default", "debug"])
def test_internal_error_exits_3_with_one_line(tmp_path, level):
    """An exception no rule names is a bug: exit 3, one error line, and the
    traceback only at debug level."""
    inst = tmp_path / "inst.json"
    write_json(str(inst), {})
    script = (
        "import sys\n"
        "from aramid import cli\n"
        "def boom(obj):\n"
        "    raise RuntimeError('forced internal error')\n"
        "cli.load_plain_instance = boom\n"
        f"sys.exit(cli.main({_argv('run', str(inst), str(tmp_path / 'rep'))!r}))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "ARAMID_LOG"}
    if level:
        env["ARAMID_LOG"] = level
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_INTERNAL
    assert "internal error: RuntimeError: forced internal error" in proc.stderr
    if level:
        assert "Traceback" in proc.stderr
    else:
        assert proc.stderr.splitlines() == ["internal error: RuntimeError: forced internal error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


# -- fuzz: mutated configs and instance files ---------------------------------------

# the exceptions through which a command may exit 1 on a mutated input
_VERDICTS = (ContractError, DesignError, DisconnectedGraphError)
# a replacement of every JSON type; a mutation draws one of another type
_OTHER_TYPES = [None, True, "x", [], {}, 7, 0.5]


def _json_type(value):
    return type(value) if not isinstance(value, (int, float)) or isinstance(value, bool) else float


def _key_paths(obj, prefix=()):
    """Every key path in a JSON object, to parts and values alike."""
    for key, value in obj.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


def _out_of_range(value):
    """Values just past the ends of a value's range: below zero, zero, one
    more and twice a number, the other bool, an unknown string, and a list
    emptied, cut short or with its first entry repeated."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [-1, 0, value + 1, 2 * value]
    if isinstance(value, list):
        return [[], value[:-1], value + value[:1]]
    if isinstance(value, dict):
        return [{}]
    return ["bogus"]


@pytest.fixture(scope="module")
def fuzz_inputs(small_instance, lt_instance):
    """Each fuzzed input with the commands that read it; the configs anneal
    briefly so that a mutated build stays fast."""
    return {
        "plain config": (dict(SMALL_CFG, anneal_iters=300), ["build"]),
        "lt config": (dict(LT_CFG, anneal_iters=300), ["build"]),
        "plain instance": (read_json(small_instance), ["run", "gmd-run"]),
        "lt instance": (read_json(lt_instance), ["lt-run"]),
    }


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_input_exits_cleanly(fuzz_inputs, data):
    """Drop a key, change its JSON type, push its value out of range or
    switch the mode: no command may crash or exit 3, a usage error writes no
    file, and exit 1 comes only from a contract or design verdict."""
    kind = data.draw(st.sampled_from(sorted(fuzz_inputs)))
    base, commands = fuzz_inputs[kind]
    obj = copy.deepcopy(base)
    mutation = data.draw(st.sampled_from(["drop", "type", "range", "mode"]))
    if mutation == "mode":
        obj["mode"] = "lt" if obj.get("mode", "plain") == "plain" else "plain"
    else:
        *parents, key = data.draw(st.sampled_from(list(_key_paths(obj))))
        part = obj
        for parent in parents:
            part = part[parent]
        if mutation == "drop":
            del part[key]
        elif mutation == "type":
            other = [v for v in _OTHER_TYPES if _json_type(v) is not _json_type(part[key])]
            part[key] = data.draw(st.sampled_from(other))
        else:
            part[key] = data.draw(st.sampled_from(_out_of_range(part[key])))
    command = data.draw(st.sampled_from(commands))
    records = _Records()
    log = logging.getLogger("aramid")
    log.addHandler(records)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.json")
            write_json(path, obj)
            rc = run_cli(*_argv(command, path, os.path.join(tmp, "out")))
            written = sorted(os.listdir(tmp))
    finally:
        log.removeHandler(records)
    assert rc in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE)
    if rc == EXIT_USAGE:
        assert written == ["in.json"]
    if rc == EXIT_VIOLATION:
        assert any(r.args and isinstance(r.args[0], _VERDICTS) for r in records.records)
