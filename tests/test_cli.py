import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from aramid.cli import (
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
    cfg = dict(SMALL_CFG, gamma_target=0.01, anneal_iters=500)
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), cfg)
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_VIOLATION
    assert "best measured gamma" in caplog.text
    assert "after 500 attempts" in caplog.text


@pytest.mark.parametrize("target", [5.0, None])
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


@pytest.mark.parametrize("cfg", [SMALL_CFG, LT_CFG], ids=["plain", "lt"])
def test_build_negative_anneal_iters_is_usage_error(tmp_path, caplog, cfg):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "inst.json"
    write_json(str(cfg_path), dict(cfg, anneal_iters=-1))
    rc = run_cli("build", "--config", str(cfg_path), "--out", str(out))
    assert rc == EXIT_USAGE
    assert "anneal_iters must not be negative" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"delta": 49}, "1 <= delta <= n"),
        ({"graph": "bogus"}, "build graph must be 'circulant', got 'bogus'"),
        ({"graph": "random"}, "build graph must be 'circulant', got 'random'"),
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
    ],
    ids=["json-list", "plain-without-n", "lt-R-not-a-fraction"],
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
        (dict(SMALL_CFG, sigma_frac="x"), "build plain config sigma_frac must be int or float"),
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
    assert "must not be negative" in caplog.text
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
    assert results["mixing_lemma_exhaustive"] == "pass"
    assert results["degree_sum_k33"] == "pass"


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
            lambda obj: obj["g1"].update(matchings=[[0, 1]]),
            "lt instance g1: graph is not connected",
        ),
        (lambda obj: obj["design"].update(q=36), "lt instance design: modulus 36 is not prime"),
    ],
    ids=[
        "design-without-q", "without-g1", "delta1-not-int", "R-zero-denominator", "g1-shape",
        "q-not-prime",
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
            lambda obj: obj["graph"].update(matchings=[[0, 1]]),
            "plain instance graph: graph is not connected",
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
    assert f"{command} instance must be a JSON object, got list" in caplog.text
    assert not (tmp_path / "rep").exists() and not (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("command", ["run", "verify-bounds"])
def test_non_circulant_graph_is_usage_error(small_instance, tmp_path, caplog, command):
    # swapping two entries of one row keeps it a permutation but not a shift
    obj = read_json(small_instance)
    row = obj["graph"]["matchings"][3]
    row[0], row[1] = row[1], row[0]
    edited = tmp_path / "edited.json"
    write_json(str(edited), obj)
    argv = [command, "--instance", str(edited), "--out", str(tmp_path / "rep")]
    if command == "run":
        argv += ["--seed", "7", "--trials", "3"]
    assert run_cli(*argv) == EXIT_USAGE
    assert "plain instance graph: matching 3 is not a shift" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


def test_verify_bounds_on_lt_instance_is_usage_error(lt_instance, tmp_path, caplog):
    out = tmp_path / "bounds.json"
    rc = run_cli("verify-bounds", "--instance", lt_instance, "--out", str(out))
    assert rc == EXIT_USAGE
    assert "verify-bounds expects an instance of mode 'plain', got 'lt'" in caplog.text
    assert not out.exists()


def test_lt_load_refuses_tanner_mediator(lt_instance, tmp_path):
    obj = read_json(lt_instance)
    obj["mediator"] = {"kind": "grs", "seed": 502}  # older files carry this record
    assert load_lt_instance(obj).mediator.mu == Fraction(*obj["derived"]["mediator_mu"])
    obj["mediator"] = {"kind": "tanner", "seed": 502}
    with pytest.raises(DesignError, match="tanner"):
        load_lt_instance(obj)
    edited = tmp_path / "tanner.json"
    write_json(str(edited), obj)
    rc = run_cli(
        "lt-run", "--instance", str(edited), "--seed", "11", "--trials", "3",
        "--out", str(tmp_path / "rep"),
    )
    assert rc == EXIT_VIOLATION


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
