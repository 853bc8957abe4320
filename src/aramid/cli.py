"""Experiment harness: build instances, run seeded channels, verify bounds.

Instances are canonical JSON (sorted keys, fixed indentation) and trial logs
are CSV, so identical seeds reproduce byte-identical files. Every input
file is checked against the table of its kind (`BUILD_CONFIG`,
`PLAIN_INSTANCE`, `LT_INSTANCE`, `RUNS_REPORT`) before anything is built
from it. Exit codes: 0 success, 1 contract violation detected, 2 usage
error, 3 internal error (a bug; the traceback is logged at debug level).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import operator
import os
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import __version__
from .bigraph import (
    BipartiteRegularGraph,
    DisconnectedGraphError,
    anneal_circulant_bipartite,
    check_degree_sum,
    check_expansion_lemma,
    check_mixing_lemma,
    gamma,
    ramanujan_bound,
)
from .channel import corrupt_inner_rows, corrupt_pairs, corrupt_phi, trial_rng
from .gf import PrimeField
from .gmd import ConcatCode
from .grs import GrsCode
from .iterdec import beta_bound, decode_params, decode_phi, hypothesis_holds
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
EXIT_INTERNAL = 3

BRUTE_EDGE_LIMIT = 256  # generator/enumeration oracles only below this size
BRUTE_WORD_LIMIT = 10**6
SIGMA_FRAC = 0.9  # a plain instance's decode radius sigma = SIGMA_FRAC * beta


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def write_json(path: str, obj) -> None:
    _write_text(path, canonical_json(obj))


def read_json(path: str):
    """The JSON value in `path`; a file that cannot be read or is not JSON
    is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise UsageError(f"cannot read {path}: {exc}") from None


# -- input tables: each maps a key to its Rule, or a part to the part's table. ---------
# Cross-key rules (delta <= n, k <= delta, q prime, shifts in [0, n), connectivity)
# stay in the constructors that `_load_part` wraps, and no rule repeats them.


class Ref(str):
    """A limit read from the input, at the path "part.key"."""


class Rule(NamedTuple):
    """A key's JSON types and range: each bound is (operator, limit), where a
    `Ref` limit names a key that its table checks earlier. A list's `items`,
    where given, is the exact type of its entries (for int, no bool)."""

    kinds: tuple
    bounds: tuple = ()
    required: bool = True
    items: type | None = None


_OPS = {
    "equal to": operator.eq, "one of": lambda value, limit: value in limit,
    "above": operator.gt, "at least": operator.ge, "below": operator.lt, "at most": operator.le,
}
_INT, _NUM = (int,), (int, float)
_NATURAL = (("at least", 0),)

# the integer options of the commands, where given
ARGUMENTS = {
    "--seed": Rule(_INT, _NATURAL, required=False),
    "--trials": Rule(_INT, (("at least", 1),), required=False),
    "--errors": Rule(_INT, _NATURAL, required=False),
    "--erasures": Rule(_INT, _NATURAL, required=False),
}

BUILD_MODE = {"mode": Rule((str,), (("one of", ("plain", "lt")),), required=False)}
BUILD_CONFIG = {
    "plain": {
        **dict.fromkeys(("n", "delta", "q", "k_prime", "k_double"), Rule(_INT)),
        "seed": Rule(_INT, _NATURAL),
        "graph": Rule((str,), (("equal to", "circulant"),), required=False),
        # null for no target; gamma is at most 1, and NaN meets no bound
        "gamma_target": Rule((*_NUM, type(None)), (("above", 0), ("at most", 1)), required=False),
        "anneal_iters": Rule(_INT, _NATURAL, required=False),
    },
    "lt": {
        "n": Rule(_INT),
        "R": Rule((list, str, int, float)),
        **dict.fromkeys(("eps", "kappa", "mu"), Rule(_NUM)),
        "seed": Rule(_INT, _NATURAL),
        "anneal_iters": Rule(_INT, _NATURAL, required=False),
    },
}
_INTS = Rule((list,), items=int)
_GRAPH = {"n": Rule(_INT), "shifts": _INTS}
_GRS = {"k": Rule(_INT), "eval_points": _INTS, "col_mults": _INTS}  # GrsCode's order
PLAIN_INSTANCE = {
    "mode": Rule((str,), (("equal to", "plain"),)),
    "field": {"q": Rule(_INT)},
    "graph": _GRAPH,
    "c_prime": _GRS,
    "c_double": _GRS,
    # a weak instance stores no sigma and so has no decode params
    "derived": {"gamma": Rule(_NUM), "weak": Rule((bool,)), "sigma": Rule(_NUM, required=False)},
}
# each graph's n is bounded by the design's, and that by q (the mediator's
# GRS length bound), before any graph is allocated
_LT_GRAPH = {**_GRAPH, "n": Rule(_INT, (("at most", Ref("design.n")),))}
_JSON_KINDS = {"Fraction": (list,), "int": _INT, "float": _NUM, "bool": (bool,)}
LT_INSTANCE = {
    "mode": Rule((str,), (("equal to", "lt"),)),
    "design": {
        **{f.name: Rule(_JSON_KINDS[f.type]) for f in dataclasses.fields(LtDesign)},
        "q": Rule(_INT, (("at least", Ref("design.n")),)),
    },
    "g1": _LT_GRAPH,
    "g2": _LT_GRAPH,
    "derived": {"gamma1": Rule(_NUM), "gamma2": Rule(_NUM)},
}
RUNS_REPORT = {"max_calls": Rule(_INT), "omega_n_bound": Rule(_NUM)}


def validate(obj, table: dict, where: str) -> None:
    """Raise a UsageError naming the part, the key and the rule unless `obj`
    is a JSON object that holds every required key of `table`, each with a
    value of the rule's types inside its bounds (a null that the types admit
    has none), and each part a JSON object that satisfies its own table. A
    list whose rule gives an element type (`items`) holds only entries of
    exactly that type; the message names the index of the first that does not.
    JSON true and false count as bool only, not as int."""

    def check(part, rules: dict, at: str) -> None:
        if not isinstance(part, dict):
            raise UsageError(f"{at} must be a JSON object, got {type(part).__name__}")
        for key, rule in rules.items():
            if key not in part:
                if isinstance(rule, dict) or rule.required:
                    raise UsageError(f"{at} lacks {key!r}")
                continue
            value = part[key]
            if isinstance(rule, dict):
                check(value, rule, f"{at} {key}")
                continue
            kinds = rule.kinds
            if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
                names = " or ".join(kind.__name__ for kind in kinds)
                raise UsageError(f"{at} {key} must be {names}, got {value!r}")
            for i, item in enumerate(value if rule.items else ()):
                if type(item) is not rule.items:
                    raise UsageError(f"{at} {key}[{i}] must be {rule.items.__name__}, got {item!r}")
            for op, limit in () if value is None else rule.bounds:
                shown, bound = repr(limit), limit
                if isinstance(limit, Ref):
                    part_name, ref_key = limit.split(".")
                    bound = obj[part_name][ref_key]
                    shown = f"{limit} = {bound!r}"
                if not _OPS[op](value, bound):
                    raise UsageError(f"{at} {key} must be {op} {shown}, got {value!r}")

    check(obj, table, where)


def _load_part(where: str, build, *args):
    """build(*args) on checked input; an error it raises for values no table
    can rule out (a shift outside [0, n), a disconnected graph, a modulus
    that is not a prime in range, a component code that cannot exist, an R
    that is not a fraction) is a usage error that names the part. A
    `DesignError` keeps its own exit code."""
    try:
        return build(*args)
    except DesignError:
        raise
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}") from None


def grs_to_json(code: GrsCode) -> dict:
    return {
        "k": code.k,
        "eval_points": code.eval_points.tolist(),
        "col_mults": code.col_mults.tolist(),
    }


# -- plain (folded graph code) instances ----------------------------------------


def build_plain_instance(cfg: dict, allow_weak: bool) -> dict:
    n = cfg["n"]
    delta = cfg["delta"]
    q = cfg["q"]
    field = _load_part("build", PrimeField, q)
    target, iters = cfg.get("gamma_target"), cfg.get("anneal_iters", 30000)
    graph = _load_part("build", anneal_circulant_bipartite, n, delta, cfg["seed"], target, iters)
    prof = gamma(graph)
    # the annealer only stops at the target; here the target is the config's requirement
    if target is not None and prof.gamma > target:
        raise ContractError(
            f"gamma target {target} not reached within anneal_iters = {iters}; "
            f"best measured gamma = {prof.gamma:.6f}"
        )
    cp, cd = (
        _load_part(f"build {key}", GrsCode, field, cfg[key], range(1, delta + 1))
        for key in ("k_prime", "k_double")
    )
    code = TannerCode(graph, cp, cd)
    theta, delta_rel = code.theta, code.delta_rel
    weak = not hypothesis_holds(theta, delta_rel, prof.gamma)
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
        sigma = SIGMA_FRAC * beta
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


def _check_stored(derived: dict, key: str, measured: float) -> None:
    """Refuse a stored spectral ratio that the measured one does not match."""
    if not math.isclose(derived[key], measured, rel_tol=1e-9, abs_tol=1e-12):
        raise ContractError(
            f"stored {key} {derived[key]!r} differs from the measured {measured!r}"
        )


def load_plain_instance(obj: dict):
    """Rebuild a plain instance that `PLAIN_INSTANCE` admits; the stored
    gamma and sigma are checked against the spectral ratio measured on the
    stored graph. Decode params exist where a sigma is stored."""
    validate(obj, PLAIN_INSTANCE, "plain instance")
    field = _load_part("plain instance field", PrimeField, obj["field"]["q"])
    graph = _load_part("plain instance graph", BipartiteRegularGraph.from_json, obj["graph"])
    cp = _load_part("plain instance c_prime", GrsCode, field, *map(obj["c_prime"].get, _GRS))
    cd = _load_part("plain instance c_double", GrsCode, field, *map(obj["c_double"].get, _GRS))
    code = _load_part("plain instance", TannerCode, graph, cp, cd)
    derived = obj["derived"]
    measured = gamma(graph).gamma
    _check_stored(derived, "gamma", measured)
    params = None
    if "sigma" in derived:
        sigma = derived["sigma"]
        beta = beta_bound(code.theta, code.delta_rel, measured)
        if not 0 < sigma < beta:
            raise ContractError(f"stored sigma {sigma!r} is outside (0, beta = {beta!r})")
        params = _load_part(
            "plain instance derived", decode_params,
            code.theta, code.delta_rel, measured, sigma, code.n, graph.delta,
        )
    return code, params, derived


# -- trial driver ------------------------------------------------------------------


def _run_trials(args, header, trial, fields) -> dict:
    """Run seeded trials, write their CSV and JSON report, and return the
    report. `trial(rng, idx)` returns a row whose second entry is 1 on
    success; `fields(rows)` returns the command's own report fields. When a
    write fails, the files already written are removed."""
    rows = [trial(trial_rng(args.seed, idx), idx) for idx in range(args.trials)]
    base = args.out.removesuffix(".json").removesuffix(".csv")
    report = {
        "instance": os.path.basename(args.instance),
        "seed": args.seed,
        "trials": args.trials,
        "success_rate": sum(r[1] for r in rows) / len(rows),
        **fields(rows),
    }
    csv = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    written = []
    try:
        for path, text in ((base + ".csv", csv), (base + ".json", canonical_json(report))):
            _write_text(path, text)
            written.append(path)
    except UsageError:
        for path in written:
            os.remove(path)
        raise
    return report


def _load_decodable(args):
    """Load a plain instance with decode params; lt and weak ones are refused."""
    code, params, derived = load_plain_instance(read_json(args.instance))
    if params is None:
        raise UsageError("weak instance (no decode params); rebuild without --allow-weak")
    return code, params, derived


# -- subcommands ----------------------------------------------------------------------


def cmd_build(args) -> int:
    cfg = read_json(args.config)
    validate(cfg, BUILD_MODE, "build config")
    mode = cfg.get("mode", "plain")
    if args.seed is not None:
        cfg["seed"] = args.seed
    validate(cfg, BUILD_CONFIG[mode], f"build {mode} config")
    unknown = sorted(cfg.keys() - BUILD_MODE.keys() - BUILD_CONFIG[mode].keys())
    if unknown:
        raise UsageError(f"build {mode} config has an unknown key {unknown[0]!r}")
    if mode == "plain":
        instance = build_plain_instance(cfg, args.allow_weak)
    else:
        rate = _load_part(f"build R {cfg['R']!r}", fraction_tuple, cfg["R"])
        design = _load_part(
            "build", lt_design, rate, cfg["eps"], cfg["kappa"], cfg["mu"], cfg["n"]
        )
        iters = cfg.get("anneal_iters", 40000)
        code = build_lt_code(design, cfg["seed"], iters)
        instance = {
            "mode": "lt",
            "config": cfg,
            "design": design.to_json(),
            "seed": cfg["seed"],
            "anneal_iters": iters,
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
                "mediator_mu": [code.mediator.mu.numerator, code.mediator.mu.denominator],
                "relaxed": design.relaxed,
            },
        }
    write_json(args.out, instance)
    log.info("wrote %s", args.out)
    return EXIT_OK


def fraction_tuple(x) -> Fraction:
    """A JSON [numerator, denominator] list, or a number or string, as a Fraction."""
    return Fraction(*x) if isinstance(x, list) else Fraction(x)


def load_lt_instance(obj: dict) -> LtCode:
    """Rebuild an lt instance that `LT_INSTANCE` admits; the design fixes its
    mediator, the GRS bank. The design's q is checked to be a prime in range
    before any graph is allocated, so a graph allocates at most q entries per
    shift. The stored gamma1 and gamma2 are checked against the spectral
    ratios measured on the stored graphs.
    """
    validate(obj, LT_INSTANCE, "lt instance")
    design = _load_part("lt instance design", LtDesign.from_json, obj["design"])
    _load_part("lt instance design", PrimeField, design.q)
    g1 = _load_part("lt instance g1", BipartiteRegularGraph.from_json, obj["g1"])
    g2 = _load_part("lt instance g2", BipartiteRegularGraph.from_json, obj["g2"])
    code = _load_part("lt instance", LtCode, design, g1, g2)
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


def _sweep_lemmas(graph) -> None:
    """The mixing, expansion and degree-sum checks on every small test vector."""
    n = graph.n
    vals = (0.0, 0.5, 1.0)
    for left in itertools.product(vals, repeat=n):
        for right in itertools.product(vals, repeat=n):
            check_mixing_lemma(graph, left, right)
            if gamma(graph).gamma > 0:
                check_expansion_lemma(graph, left, right, 1.0)
    for smask in range(1 << n):
        for tmask in range(1 << n):
            if smask or tmask:
                left = [i for i in range(n) if smask >> i & 1]
                right = [i for i in range(n) if tmask >> i & 1]
                check_degree_sum(graph, left, right)


def cmd_verify_bounds(args) -> int:
    code, params, derived = load_plain_instance(read_json(args.instance))
    graph = code.graph
    results = {}

    # asserts that the DFT of the shift counts at frequency 0 is delta, to 1e-9
    prof = gamma(graph)
    results["lemma_a1_eigenstructure"] = "pass"

    dim = code.dim
    if graph.num_edges <= BRUTE_EDGE_LIMIT and 0 < dim and code.field.q**dim <= BRUTE_WORD_LIMIT:
        w = brute_min_phi_weight(code, BRUTE_WORD_LIMIT)
        bound = math.ceil(
            code.n * min_dist_bound(code.theta, code.delta_rel, prof.gamma) - 1e-12
        )
        results["theorem1_min_phi_weight"] = "pass" if w >= bound else f"FAIL ({w} < {bound})"
    if graph.n <= 4:
        _sweep_lemmas(graph)
        results["mixing_lemma_exhaustive"] = "pass"
        results["degree_sum_exhaustive"] = "pass"

    if args.runs:
        rep = read_json(args.runs)
        validate(rep, RUNS_REPORT, "runs report")
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
    code = load_lt_instance(read_json(args.instance))
    d = code.design
    radius = code.radius
    t_fixed, rho_fixed = args.errors, args.erasures or 0
    if t_fixed is not None and (2 * t_fixed + rho_fixed > radius or t_fixed + rho_fixed > d.n):
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
                "distance": inner.rel_dist
                * min_dist_bound(code.theta, code.delta_rel, params.gamma),
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
        given = {f"--{key}": value for key, value in vars(args).items() if value is not None}
        validate(given, ARGUMENTS, args.command)
        if "--erasures" in given and "--errors" not in given:
            raise UsageError(
                f"{args.command} --erasures needs --errors; "
                "without it both are drawn per trial"
            )
        return args.fn(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (ContractError, DisconnectedGraphError, DesignError) as exc:
        log.error("%s", exc)
        return EXIT_VIOLATION
    except Exception as exc:  # a bug, not a verdict on the input or the code
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        log.debug("traceback of the internal error", exc_info=True)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
