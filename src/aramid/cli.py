"""Experiment harness: build instances, run seeded channels, verify bounds.

Instances are canonical JSON (sorted keys, fixed indentation) and trial logs
are CSV, so identical seeds reproduce byte-identical files. Exit codes:
0 success, 1 contract violation detected, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .bigraph import (
    BipartiteRegularGraph,
    DisconnectedGraphError,
    GammaTargetError,
    anneal_circulant_bipartite,
    check_degree_sum,
    check_expansion_lemma,
    check_mixing_lemma,
    circulant_bipartite,
    gamma,
    ramanujan_bound,
    validate_degree,
)
from .channel import corrupt_inner_rows, corrupt_pairs, corrupt_phi, trial_rng
from .gf import PrimeField
from .gmd import ConcatCode
from .grs import GrsCode
from .iterdec import beta_bound, decode_params, decode_phi
from .ltenc import DesignError, LtCode, LtDesign, build_lt_code, lt_design
from .tanner import TannerCode, brute_min_phi_weight, min_dist_bound, rate_bound_phi

log = logging.getLogger("aramid")


class ContractError(RuntimeError):
    """A spec-level contract the harness refuses to violate silently."""


class UsageError(ValueError):
    """Arguments or an instance the command cannot run on (exit 2)."""


EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BRUTE_EDGE_LIMIT = 256  # generator/enumeration oracles only below this size
BRUTE_WORD_LIMIT = 10**6


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def grs_to_json(code: GrsCode) -> dict:
    return {
        "k": code.k,
        "eval_points": code.eval_points.tolist(),
        "col_mults": code.col_mults.tolist(),
    }


def grs_from_json(field: PrimeField, obj: dict) -> GrsCode:
    return GrsCode(field, obj["k"], obj["eval_points"], obj["col_mults"])


# -- plain (folded graph code) instances ----------------------------------------


def build_plain_instance(cfg: dict, allow_weak: bool) -> dict:
    n = cfg["n"]
    delta = cfg["delta"]
    q = cfg["q"]
    seed = cfg["seed"]
    kind = cfg.get("graph", "circulant")
    if kind != "circulant":
        raise UsageError(f"build graph must be 'circulant', got {kind!r}")
    try:
        validate_degree(n, delta)
        field = PrimeField(q)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"build {exc}") from None
    graph = anneal_circulant_bipartite(
        n, delta, seed=seed, gamma_target=cfg.get("gamma_target"),
        iters=cfg.get("anneal_iters", 30000),
    )
    cp = _component_code(field, cfg, "k_prime")
    cd = _component_code(field, cfg, "k_double")
    code = TannerCode(graph, cp, cd)
    prof = gamma(graph)
    theta, delta_rel = code.theta, code.delta_rel
    # the decoder hypothesis needs sqrt(theta*delta) > 2*gamma > 0
    weak = prof.gamma <= 0 or math.sqrt(theta * delta_rel) <= 2 * prof.gamma
    if weak and not allow_weak:
        raise ContractError(
            f"instance violates sqrt(theta*delta) > 2*gamma "
            f"(gamma={prof.gamma:.4f}); pass --allow-weak to keep it"
        )
    derived = {
        "gamma": prof.gamma,
        "lambda2": prof.lambda2,
        "theta": [cp.dmin, delta],
        "delta": [cd.dmin, delta],
        "ramanujan": prof.gamma <= ramanujan_bound(delta),
        "theorem1_bound": min_dist_bound(theta, delta_rel, prof.gamma),
        "rate_bound_phi": rate_bound_phi(code.r, code.R),
        "weak": weak,
    }
    if not weak:
        beta = beta_bound(theta, delta_rel, prof.gamma)
        sigma = cfg.get("sigma_frac", 0.9) * beta
        params = decode_params(theta, delta_rel, prof.gamma, sigma, n, delta)
        derived.update(
            beta=beta,
            sigma=sigma,
            nu=params.nu,
            i_t=params.i_t,
            omega=params.omega,
        )
    return {
        "mode": "plain",
        "config": cfg,
        "field": {"q": q},
        "graph": graph.to_json(),
        "c_prime": grs_to_json(cp),
        "c_double": grs_to_json(cd),
        "derived": derived,
    }


def _component_code(field: PrimeField, cfg: dict, key: str) -> GrsCode:
    """The [delta, cfg[key]] GRS component on the points 1..delta; a
    dimension the code cannot have is a usage error."""
    try:
        return GrsCode(field, cfg[key], range(1, cfg["delta"] + 1))
    except ValueError as exc:
        raise UsageError(f"build {key}: {exc}") from None


def _check_stored(derived: dict, key: str, measured: float) -> None:
    """Refuse a stored spectral ratio that the measured one does not match."""
    if not math.isclose(derived[key], measured, rel_tol=1e-9, abs_tol=1e-12):
        raise ContractError(
            f"stored {key} {derived[key]!r} differs from the measured {measured!r}"
        )


def _load_part(where: str, build, *args):
    """build(*args) for a stored part of an instance; a TypeError or
    ValueError it raises (a shift that is not an int or not in [0, n), a
    disconnected graph, a modulus that is not a prime in range, a component
    code that cannot exist) is a usage error that names the part. Only
    constructors that raise no `DesignError` are passed here."""
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}") from None


def load_plain_instance(obj: dict):
    """Rebuild a plain instance; the stored gamma and sigma are checked
    against the spectral ratio measured on the stored graph. A missing key,
    a value of the wrong JSON type, a malformed graph, a modulus that is not
    a prime in range or a component code that cannot exist is a usage
    error."""
    _check_parts(obj, _PLAIN_PARTS, "plain instance")
    field = _load_part("plain instance field", PrimeField, obj["field"]["q"])
    graph = _load_part("plain instance graph", BipartiteRegularGraph.from_json, obj["graph"])
    cp = _load_part("plain instance c_prime", grs_from_json, field, obj["c_prime"])
    cd = _load_part("plain instance c_double", grs_from_json, field, obj["c_double"])
    code = _load_part("plain instance", TannerCode, graph, cp, cd)
    derived = obj["derived"]
    measured = gamma(graph).gamma
    _check_stored(derived, "gamma", measured)
    params = None
    if not derived["weak"]:
        _check_keys(derived, ("sigma",), {"sigma": _NUM}, "plain instance derived")
        sigma = derived["sigma"]
        beta = beta_bound(code.theta, code.delta_rel, measured)
        if not 0 < sigma < beta:
            raise ContractError(f"stored sigma {sigma!r} is outside (0, beta = {beta!r})")
        params = decode_params(
            code.theta, code.delta_rel, measured, sigma, code.n, graph.delta
        )
    return code, params, derived


# -- trial driver ------------------------------------------------------------------


def _run_trials(args, header, trial, fields) -> dict:
    """Run seeded trials, write their CSV and JSON report, and return the
    report. `trial(rng, idx)` returns a row whose second entry is 1 on
    success; `fields(rows)` returns the command's own report fields."""
    rows = [trial(trial_rng(args.seed, idx), idx) for idx in range(args.trials)]
    base = args.out.removesuffix(".json").removesuffix(".csv")
    with open(base + ".csv", "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    report = {
        "instance": os.path.basename(args.instance),
        "seed": args.seed,
        "trials": args.trials,
        "success_rate": sum(r[1] for r in rows) / len(rows),
        **fields(rows),
    }
    write_json(base + ".json", report)
    return report


def _read_instance(args, mode: str) -> dict:
    """Read `--instance`; a file that is not a JSON object or is of
    another mode is a usage error."""
    instance = read_json(args.instance)
    if not isinstance(instance, dict):
        raise UsageError(
            f"{args.command} instance must be a JSON object, got {type(instance).__name__}"
        )
    if instance.get("mode") != mode:
        raise UsageError(
            f"{args.command} expects an instance of mode {mode!r}, "
            f"got {instance.get('mode')!r}"
        )
    return instance


def _load_decodable(args):
    """Load a plain instance with decode params; lt and weak ones are refused."""
    code, params, derived = load_plain_instance(_read_instance(args, "plain"))
    if params is None:
        raise UsageError("weak instance (no decode params); rebuild without --allow-weak")
    return code, params, derived


# -- subcommands ----------------------------------------------------------------------


# the keys each build mode reads without a default
_BUILD_KEYS = {
    "plain": ("n", "delta", "q", "k_prime", "k_double", "seed"),
    "lt": ("n", "R", "eps", "kappa", "mu", "seed"),
}
_INT = (int,)
_NUM = (int, float)
# the JSON types of the numeric build keys, wherever a config gives them
_BUILD_TYPES = {
    **dict.fromkeys(
        ("n", "delta", "q", "k_prime", "k_double", "seed", "anneal_iters"),
        _INT,
    ),
    **dict.fromkeys(("sigma_frac", "eps", "kappa", "mu"), _NUM),
    "gamma_target": (int, float, type(None)),
}


def _check_keys(obj, keys, types: dict, where: str) -> None:
    """Refuse `obj` unless it is a JSON object that holds every key in
    `keys` and gives each key of `types` it holds a value of those types.
    JSON true and false count as bool only, not as int."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise UsageError(f"{where} lacks {', '.join(map(repr, missing))}")
    for key, kinds in types.items():
        value = obj.get(key)
        if key in obj and (
            isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds)
        ):
            names = " or ".join(kind.__name__ for kind in kinds)
            raise UsageError(f"{where} {key} must be {names}, got {value!r}")


def _check_parts(obj, parts: dict, where: str) -> None:
    """`_check_keys` on `obj` and on each of its `parts`. A part that stores
    matchings, as graphs in earlier versions' files do, must be rebuilt."""
    _check_keys(obj, parts, {}, where)
    for part, types in parts.items():
        if isinstance(obj[part], dict) and "matchings" in obj[part]:
            raise UsageError(f"{where} {part} stores matchings, not shifts; rebuild it")
        _check_keys(obj[part], types, types, f"{where} {part}")


def cmd_build(args) -> int:
    cfg = read_json(args.config)
    if not isinstance(cfg, dict):
        raise UsageError(f"build config must be a JSON object, got {type(cfg).__name__}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    mode = cfg.get("mode", "plain")
    if mode not in _BUILD_KEYS:
        raise UsageError(f"build unknown mode {mode!r}")
    _check_keys(cfg, _BUILD_KEYS[mode], _BUILD_TYPES, f"build {mode} config")
    for key in ("anneal_iters", "seed"):
        if cfg.get(key, 0) < 0:
            raise UsageError(f"build {key} must not be negative")
    if mode == "plain" and not 0 < cfg.get("sigma_frac", 0.9) < 1:
        raise UsageError(f"build sigma_frac must lie in (0, 1), got {cfg['sigma_frac']!r}")
    if mode == "plain":
        instance = build_plain_instance(cfg, args.allow_weak)
    else:
        try:
            rate = fraction_tuple(cfg["R"])
        except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"build R {cfg['R']!r}: {exc}") from None
        design = lt_design(
            R=rate,
            eps=cfg["eps"],
            kappa=cfg["kappa"],
            mu=cfg["mu"],
            n=cfg["n"],
        )
        code = build_lt_code(design, cfg["seed"], cfg.get("anneal_iters", 40000))
        instance = {
            "mode": "lt",
            "config": cfg,
            "design": design.to_json(),
            "seed": cfg["seed"],
            "anneal_iters": cfg.get("anneal_iters", 40000),
            "g1": code.g1.to_json(),
            "g2": code.g2.to_json(),
            "derived": {
                "gamma1": code.gamma1,
                "gamma2": code.gamma2,
                "beta": code.params_d4.beta,
                "nu": code.params_d4.nu,
                "omega": code.params_d4.omega,
                "radius": code.radius,
                "rate": [design.rate.numerator, design.rate.denominator],
                "mediator_mu": [
                    code.mediator.mu.numerator,
                    code.mediator.mu.denominator,
                ],
                "relaxed": design.relaxed,
            },
        }
    write_json(args.out, instance)
    log.info("wrote %s", args.out)
    return EXIT_OK


def fraction_tuple(x):
    from fractions import Fraction

    return Fraction(x[0], x[1]) if isinstance(x, (list, tuple)) else Fraction(x)


_GRAPH_PART = {"n": _INT, "shifts": (list,)}  # a graph is its shift list
# the parts of an lt instance and the JSON types of the keys each must hold;
# the design's come from the LtDesign field annotations
_LT_PARTS = {
    "design": {
        f.name: {"Fraction": (list,), "int": _INT, "float": _NUM, "bool": (bool,)}[f.type]
        for f in dataclasses.fields(LtDesign)
    },
    "g1": _GRAPH_PART,
    "g2": _GRAPH_PART,
    "derived": {"gamma1": _NUM, "gamma2": _NUM},
}
_GRS_PART = {"k": _INT, "eval_points": (list,), "col_mults": (list,)}
# the parts of a plain instance and the JSON types of the keys each must hold
_PLAIN_PARTS = {
    "field": {"q": _INT},
    "graph": _GRAPH_PART,
    "c_prime": _GRS_PART,
    "c_double": _GRS_PART,
    "derived": {"gamma": _NUM, "weak": (bool,)},
}


def load_lt_instance(obj: dict) -> LtCode:
    """Rebuild an lt instance; the design fixes its mediator, the GRS bank.

    A missing key, a value of the wrong JSON type, an R that is not a
    fraction, a q that is not a prime in range, an n above q (the mediator's
    GRS length bound), a graph whose n exceeds the design's or a malformed
    graph is a usage error; the two bounds on n are checked before any graph
    is allocated, so a graph allocates at most q entries per shift. The
    stored gamma1 and gamma2 are checked against the spectral ratios
    measured on the stored graphs.
    """
    _check_parts(obj, _LT_PARTS, "lt instance")
    try:
        design = LtDesign.from_json(obj["design"])
    except (TypeError, ZeroDivisionError) as exc:  # e.g. R = [1, 0]
        raise UsageError(f"lt instance design: {exc}") from None
    # checked before LtCode, which builds the field again: the DesignErrors
    # that LtCode raises must keep exit 1
    _load_part("lt instance design", PrimeField, design.q)
    if design.n > design.q:
        raise UsageError(f"lt instance design: n = {design.n} exceeds q = {design.q}")
    for part in ("g1", "g2"):
        if obj[part]["n"] > design.n:  # a smaller n is refused by LtCode
            raise UsageError(
                f"lt instance {part}: n = {obj[part]['n']} exceeds the design's n = {design.n}"
            )
    g1 = _load_part("lt instance g1", BipartiteRegularGraph.from_json, obj["g1"])
    g2 = _load_part("lt instance g2", BipartiteRegularGraph.from_json, obj["g2"])
    code = LtCode(design, g1, g2)
    _check_stored(obj["derived"], "gamma1", code.gamma1)
    _check_stored(obj["derived"], "gamma2", code.gamma2)
    return code


def cmd_run(args) -> int:
    code, params, derived = _load_decodable(args)
    sigma_n = params.sigma * code.n
    t_fixed, rho_fixed = args.errors, args.erasures
    out_of_contract = t_fixed is not None and t_fixed + (rho_fixed or 0) / 2 > sigma_n
    if out_of_contract and not args.allow_weak:
        raise UsageError(
            f"t + rho/2 = {t_fixed + (rho_fixed or 0) / 2:.1f} exceeds "
            f"sigma*n = {sigma_n:.2f}; pass --allow-weak to run anyway"
        )

    def trial(rng, idx):
        msg = rng.integers(0, code.field.q, size=code.dim)
        z = code.encode_generic(msg)
        x = code.psi(z)
        t, rho = t_fixed, rho_fixed
        if t is None:
            t = int(rng.integers(0, math.floor(sigma_n) + 1))
        if rho is None:
            rho = int(rng.integers(0, max(math.floor(2 * (sigma_n - t)), 0) + 1))
        y = corrupt_phi(rng, x, t, rho, code.field.q)
        rep = decode_phi(code, y, params)
        ok = rep.success and np.array_equal(rep.result.values, x)
        return idx, int(ok), rep.rounds_run, rep.component_calls

    def fields(rows):
        return {
            "errors": t_fixed,
            "erasures": rho_fixed,
            "out_of_contract": out_of_contract,
            "max_rounds": max(r[2] for r in rows),
            "max_calls": max(r[3] for r in rows),
            "nu": params.nu,
            "omega_n_bound": params.omega * code.n,
        }

    report = _run_trials(args, ["trial", "success", "rounds", "calls"], trial, fields)
    log.info("success rate %.4f over %d trials", report["success_rate"], args.trials)
    if not out_of_contract and report["success_rate"] < 1.0:
        log.error("in-contract trials failed; decoder contract violated")
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_mixing_and_expansion(graph) -> tuple[int, int]:
    vals = (0.0, 0.5, 1.0)
    checked = conforming = 0
    for left in itertools.product(vals, repeat=graph.n):
        for right in itertools.product(vals, repeat=graph.n):
            check_mixing_lemma(graph, left, right)
            checked += 1
            if gamma(graph).gamma > 0:
                if check_expansion_lemma(graph, left, right, 1.0) is not None:
                    conforming += 1
    return checked, conforming


def _sweep_degree_sum(graph) -> int:
    n = graph.n
    checked = 0
    for smask in range(1 << n):
        for tmask in range(1 << n):
            if smask == 0 and tmask == 0:
                continue
            left = [i for i in range(n) if smask >> i & 1]
            right = [i for i in range(n) if tmask >> i & 1]
            check_degree_sum(graph, left, right)
            checked += 1
    return checked


def cmd_verify_bounds(args) -> int:
    code, params, derived = load_plain_instance(_read_instance(args, "plain"))
    graph = code.graph
    results = {}

    # asserts that the DFT of the shift counts at frequency 0 is delta, to 1e-9
    prof = gamma(graph)
    results["lemma_a1_eigenstructure"] = "pass"

    if graph.num_edges <= BRUTE_EDGE_LIMIT:
        dim = code.dim
        if code.field.q**dim <= BRUTE_WORD_LIMIT and dim > 0:
            w = brute_min_phi_weight(code, BRUTE_WORD_LIMIT)
            bound = math.ceil(
                code.n * min_dist_bound(code.theta, code.delta_rel, prof.gamma)
                - 1e-12
            )
            results["theorem1_min_phi_weight"] = (
                "pass" if w >= bound else f"FAIL ({w} < {bound})"
            )
    if graph.n <= 4:
        _sweep_mixing_and_expansion(graph)
        _sweep_degree_sum(graph)
        results["mixing_lemma_exhaustive"] = "pass"
        results["degree_sum_exhaustive"] = "pass"

    for name, fixture in (
        ("k33", circulant_bipartite(3, [0, 1, 2])),
        ("cycle8", circulant_bipartite(4, [0, 1])),
    ):
        _sweep_mixing_and_expansion(fixture)
        _sweep_degree_sum(fixture)
        results[f"mixing_lemma_{name}"] = "pass"
        results[f"degree_sum_{name}"] = "pass"

    if args.runs:
        rep = read_json(args.runs)
        ok = rep["max_calls"] <= rep["omega_n_bound"]
        results["omega_n_audit"] = (
            "pass"
            if ok
            else f"FAIL ({rep['max_calls']} > {rep['omega_n_bound']})"
        )

    for name, outcome in sorted(results.items()):
        print(f"[{name}] {outcome}")
    if args.out:
        write_json(args.out, results)
    return EXIT_OK if all(v == "pass" for v in results.values()) else EXIT_VIOLATION


def cmd_lt_run(args) -> int:
    code = load_lt_instance(_read_instance(args, "lt"))
    d = code.design
    radius = code.radius
    t_fixed, rho_fixed = args.errors, args.erasures or 0
    if t_fixed is not None:
        if 2 * t_fixed + rho_fixed > radius or t_fixed + rho_fixed > d.n:
            raise UsageError(
                f"t = {t_fixed}, rho = {rho_fixed} leave the contract "
                f"2t + rho <= {radius}, t + rho <= n = {d.n}"
            )
    mu_n = float(code.mediator.mu) * d.n

    def trial(rng, idx):
        eta = rng.integers(0, d.q, size=(d.n, d.k1))
        trace = code.encode_trace(eta)
        t, rho = t_fixed, rho_fixed
        if t is None:
            t = int(rng.integers(0, radius // 2 + 1))
            rho = int(rng.integers(0, radius - 2 * t + 1))
        values, er1, er2 = corrupt_pairs(rng, trace.x, t, rho, d.q)
        rep = code.decode(values, er1, er2)
        ok = rep.success and np.array_equal(rep.eta, eta)
        w_dist = int(
            np.count_nonzero(
                np.any(rep.w_tilde != trace.w, axis=1) | rep.w_tilde_erased
            )
        )
        rounds = rep.d4.rounds_run if rep.d4 else 0
        calls = rep.d4.component_calls if rep.d4 else 0
        return idx, int(ok), rounds, calls, w_dist

    def fields(rows):
        return {
            "radius_2t_plus_rho": radius,
            "max_w_dist": max(r[4] for r in rows),
            "mediator_mu_n": mu_n,
            "lemma3_instrumentation": (
                "pass" if all(r[4] < mu_n for r in rows) else "FAIL"
            ),
        }

    report = _run_trials(
        args, ["trial", "success", "rounds", "calls", "w_dist"], trial, fields
    )
    if report["success_rate"] < 1.0 or report["lemma3_instrumentation"] != "pass":
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_gmd_run(args) -> int:
    code, params, derived = _load_decodable(args)
    inner = GrsCode(code.field, code.phi_width, range(1, code.graph.delta + 1))
    concat = ConcatCode(code, inner, params)
    budget = int(math.ceil(concat.guaranteed_radius())) - 1

    def trial(rng, idx):
        msg = rng.integers(0, code.field.q, size=code.dim)
        mat = concat.encode(msg)
        rec = corrupt_inner_rows(rng, mat, budget, inner.dmin, code.field.q)
        got, trace = concat.decode(rec)
        ok = got is not None and np.array_equal(got, msg)
        return idx, int(ok), len(trace.attempts)

    def fields(rows):
        return {
            "inner": [inner.length, inner.k, inner.dmin],
            "weighted_budget": budget,
            "max_outer_calls": max(r[2] for r in rows),
            "ladder_bound": concat.ladder_length,
            "zyablov_point": {
                "rate": inner.rate * rate_bound_phi(code.r, code.R),
                "distance": inner.rel_dist * derived["theorem1_bound"],
            },
        }

    report = _run_trials(args, ["trial", "success", "outer_calls"], trial, fields)
    if report["success_rate"] < 1.0 or report["max_outer_calls"] > concat.ladder_length:
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("ARAMID_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(message)s")
    parser = argparse.ArgumentParser(
        prog="aramid", description="graph-code experiment harness"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an instance file from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--allow-weak", action="store_true")
    p.set_defaults(fn=cmd_build)

    trials = argparse.ArgumentParser(add_help=False)  # shared by the run commands
    trials.add_argument("--instance", required=True)
    trials.add_argument("--seed", type=int, required=True)
    trials.add_argument("--trials", type=int, default=100)
    trials.add_argument("--out", required=True)
    counts = argparse.ArgumentParser(add_help=False)  # fixed t and rho; drawn if unset
    counts.add_argument("--errors", type=int, default=None)
    counts.add_argument("--erasures", type=int, default=None)

    p = sub.add_parser("run", parents=[trials, counts], help="seeded error-erasure trials")
    p.add_argument("--allow-weak", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify-bounds", help="run the bound oracles on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--runs", default=None, help="run report for the omega*n audit")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_bounds)

    p = sub.add_parser("lt-run", parents=[trials, counts], help="end-to-end lt trials")
    p.set_defaults(fn=cmd_lt_run)

    p = sub.add_parser("gmd-run", parents=[trials], help="concatenated GMD trials")
    p.set_defaults(fn=cmd_gmd_run)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "trials", 1) < 1:
            raise UsageError(f"{args.command} --trials must be at least 1")
        if getattr(args, "erasures", None) is not None and args.errors is None:
            raise UsageError(
                f"{args.command} --erasures needs --errors; "
                "without it both are drawn per trial"
            )
        for name in ("errors", "erasures"):
            if (getattr(args, name, None) or 0) < 0:
                raise UsageError(f"{args.command} --{name} must not be negative")
        return args.fn(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (ContractError, DisconnectedGraphError, GammaTargetError, DesignError) as exc:
        log.error("%s", exc)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
