"""The benchmark's workloads on the desk instances from the README.

Each workload builds its instance from a fixed config with the calls
`aramid build` makes, loads it as `run`, `lt-run` or `gmd-run` do, and then
serves closed-loop trials: draw a message, encode it, corrupt it inside the
decoder's contract, decode it. Only the trial inputs depend on the
benchmark seed; the instances are the same on every run. A trial whose
corruption would leave the contract raises `ContractError`, because such a
trial could not tell a slow decoder from a wrong one.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from aramid import channel, cli, iterdec
from aramid.gmd import ConcatCode
from aramid.grs import GrsCode
from aramid.tanner import PhiWord

PLAIN_CONFIG = {
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

LT_CONFIG = {"mode": "lt", "n": 130, "R": [1, 2], "eps": 0.3, "kappa": 0.25, "mu": 0.05, "seed": 500}


class ContractError(RuntimeError):
    """A generated trial lies outside the decoder's guarantee."""


class Workload:
    """One instance plus its trial generator.

    Trial protocol: `message(rng)`, `encode(msg)`, `corrupt(rng, sent)` (a
    tuple of arrays, the decoder's whole input), `decode(*received)` and
    `recovered(msg, sent, result)`; only `encode` and `decode` are timed.
    """

    name: str
    config: dict

    def build(self, config_path: str, instance_path: str) -> None:
        args = argparse.Namespace(
            config=config_path, out=instance_path, seed=None, allow_weak=False
        )
        if cli.cmd_build(args) != cli.EXIT_OK:
            raise RuntimeError(f"aramid build failed for {self.name}")

    def setup(self, instance_path: str) -> None:
        raise NotImplementedError


class PlainErrors(Workload):
    """Errors only, at the t = floor(sigma*n) boundary of the desk plain code."""

    name = "plain-errors"
    config = PLAIN_CONFIG

    def setup(self, instance_path: str) -> None:
        code, params, _ = cli.load_plain_instance(cli.read_json(instance_path))
        if params is None:
            raise RuntimeError("desk plain instance is weak")
        code.generator()
        self.code, self.params = code, params
        self.sigma_n = params.sigma * code.n
        self.t = math.floor(self.sigma_n)

    def message(self, rng):
        return rng.integers(0, self.code.field.q, size=self.code.dim)

    def encode(self, msg):
        return self.code.psi(self.code.encode_generic(msg))

    def corrupt(self, rng, sent):
        rho = 0
        if self.t + rho / 2 > self.sigma_n:
            raise ContractError(f"t + rho/2 = {self.t + rho / 2} > sigma*n = {self.sigma_n}")
        y = channel.corrupt_phi(rng, sent, self.t, rho, self.code.field.q)
        return y.values, y.erased

    def decode(self, values, erased):
        return iterdec.decode_phi(self.code, PhiWord(values, erased), self.params)

    def recovered(self, msg, sent, report) -> bool:
        return report.success and np.array_equal(report.result.values, sent)


class LtMixed(Workload):
    """The desk ltenc instance under lt-run's random in-contract mix."""

    name = "lt-mixed"
    config = LT_CONFIG

    def setup(self, instance_path: str) -> None:
        self.code = cli.load_lt_instance(cli.read_json(instance_path))
        self.radius = self.code.radius

    def message(self, rng):
        d = self.code.design
        return rng.integers(0, d.q, size=(d.n, d.k1))

    def encode(self, eta):
        return self.code.encode_trace(eta)

    def corrupt(self, rng, sent):
        # lt-run's default mix: t uniform in [0, radius/2], rho fills the rest
        t = int(rng.integers(0, self.radius // 2 + 1))
        rho = int(rng.integers(0, self.radius - 2 * t + 1))
        if 2 * t + rho > self.radius:
            raise ContractError(f"2t + rho = {2 * t + rho} > radius = {self.radius}")
        return channel.corrupt_pairs(rng, sent.x, t, rho, self.code.design.q)

    def decode(self, values, erased1, erased2):
        return self.code.decode(values, erased1, erased2)

    def recovered(self, eta, sent, report) -> bool:
        return report.success and np.array_equal(report.eta, eta)


class GmdBudget(Workload):
    """Desk plain outer code, [36,18] GRS inner code, full weighted budget."""

    name = "gmd-budget"
    config = PLAIN_CONFIG

    def setup(self, instance_path: str) -> None:
        code, params, _ = cli.load_plain_instance(cli.read_json(instance_path))
        if params is None:
            raise RuntimeError("desk plain instance is weak")
        code.generator()
        inner = GrsCode(code.field, code.phi_width, range(1, code.graph.delta + 1))
        self.concat = ConcatCode(code, inner, params)
        self.budget = int(math.ceil(self.concat.guaranteed_radius())) - 1

    def message(self, rng):
        outer = self.concat.outer
        return rng.integers(0, outer.field.q, size=outer.dim)

    def encode(self, msg):
        return self.concat.encode(msg)

    def corrupt(self, rng, sent):
        inner = self.concat.inner
        received = channel.corrupt_inner_rows(rng, sent, self.budget, inner.dmin, inner.field.q)
        cost = self.concat.weighted_distance(received, sent)
        if cost > self.budget:
            raise ContractError(f"weighted cost {cost} > budget {self.budget}")
        return (received,)

    def decode(self, received):
        return self.concat.decode(received)

    def recovered(self, msg, sent, result) -> bool:
        got, _ = result
        return got is not None and np.array_equal(got, msg)


WORKLOADS = {w.name: w for w in (PlainErrors, LtMixed, GmdBudget)}
