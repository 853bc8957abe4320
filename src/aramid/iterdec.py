"""Iterative error-erasure decoder for the folded graph code.

Rounds alternate sides: even rounds decode every right sub-block with the
C'' error-erasure decoder, odd rounds decode left sub-blocks with the C'
errors-only decoder (or a coset decoder of C0 when per-vertex syndromes are
supplied). Each round is one batched component-decoder call over the
scheduled vertices. Erasures exist at the field level only until round 2
completes. A component-decoder failure leaves the sub-block unchanged.

Dirty-vertex scheduling (default on) re-decodes a vertex only when one of its
incident edges changed since its last decode; the first visit of each side is
unconditional. This is output-equivalent to visiting every vertex each round,
because the component decoders are pure functions of the sub-block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .grs import GrsCode
from .tanner import PhiWord, TannerCode


@dataclass(frozen=True)
class DecodeParams:
    """Radius, round count and work bound for the iterative decoder."""

    theta: float
    delta: float
    gamma: float
    sigma: float
    n: int
    degree: int
    beta: float
    base: float  # contraction base theta*delta/(4 gamma^2)
    nu: int
    i_t: int
    omega: float

    def __post_init__(self):
        assert self.base > 1
        assert 0 < self.sigma < self.beta
        assert self.nu >= 3 and self.nu % 2 == 1


def beta_bound(theta: float, delta: float, gamma: float) -> float:
    """Correctable-fraction bound ((delta/2) - gamma*sqrt(delta/theta))/(1-gamma)."""
    return (delta / 2 - gamma * math.sqrt(delta / theta)) / (1 - gamma)


def decode_params(
    theta: float,
    delta: float,
    gamma: float,
    sigma: float,
    n: int,
    degree: int,
) -> DecodeParams:
    """Validate the decoder hypothesis and derive beta, nu and omega.

    Requires sqrt(theta*delta) > 2*gamma > 0 and 0 < sigma < beta. nu counts
    rounds (indices 2..nu); omega*n bounds the component-decoder calls under
    dirty scheduling.
    """
    if not (0 < theta <= 1 and 0 < delta <= 1):
        raise ValueError("relative distances must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError(f"hypothesis 2*gamma > 0 fails: gamma = {gamma}")
    if math.sqrt(theta * delta) <= 2 * gamma:
        raise ValueError(
            f"hypothesis sqrt(theta*delta) > 2*gamma fails: "
            f"sqrt({theta}*{delta}) = {math.sqrt(theta * delta):.6f} "
            f"<= {2 * gamma:.6f}"
        )
    beta = beta_bound(theta, delta, gamma)
    if not 0 < sigma < beta:
        raise ValueError(f"need 0 < sigma < beta = {beta:.6f}, got sigma = {sigma}")
    base = theta * delta / (4 * gamma * gamma)
    arg = (beta * math.sqrt(sigma * n) - sigma) / (beta - sigma)
    if arg <= 1:
        nu = 3  # formula's log argument degenerates for sigma*n near 1
    else:
        nu = 2 * math.floor(math.log(arg) / math.log(base)) + 3
    warg = degree * beta * math.sqrt(sigma) / (beta - sigma)
    i_t = 2 * max(math.ceil(math.log(warg) / math.log(base)), 0) if warg > 0 else 0
    omega = i_t + (1 + theta / delta) / (1 - (1 / base) ** 2)
    return DecodeParams(
        theta=theta,
        delta=delta,
        gamma=gamma,
        sigma=sigma,
        n=n,
        degree=degree,
        beta=beta,
        base=base,
        nu=nu,
        i_t=i_t,
        omega=omega,
    )


@dataclass
class CosetSide:
    """Left-side coset constraints: block u must satisfy H0 block = syndromes[u]."""

    code: GrsCode  # C0, decoded in place of C'
    syndromes: np.ndarray  # (n, d0 - 1)


@dataclass
class DecodeReport:
    result: PhiWord | None
    rounds_run: int
    component_calls: int
    error_counts: list[tuple[int, int]] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.result is not None


def decode_phi(
    code: TannerCode,
    y: PhiWord,
    params: DecodeParams,
    cosets: CosetSide | None = None,
    dirty: bool = True,
    truth: np.ndarray | None = None,
) -> DecodeReport:
    """Decode a received Phi word with t errors and rho erasures.

    Exact recovery is guaranteed when t + rho/2 <= sigma*n and the instance
    satisfies the params hypothesis (theta taken from C0 in the coset
    variant). On failure of the final membership check the report carries no
    result; a wrong codeword is never returned silently.

    `truth` (a clean edge-word array) enables per-round instrumentation of
    erroneous sub-block counts on the active side.
    """
    graph = code.graph
    n, delta = graph.n, graph.delta
    q = code.field.q
    cp, cd = code.c_prime, code.c_double
    if y.values.shape != (n, code.phi_width) or y.erased.shape != (n,):
        raise ValueError(
            f"phi word must have shape ({n}, {code.phi_width}) with an (n,) mask"
        )
    # plain left side = coset side of C' with zero syndromes and zero shifts
    if cosets is not None:
        left_code = cosets.code
        if left_code.length != delta or left_code.field != code.field:
            raise ValueError("coset code must have the graph degree and field")
        s_mat = np.asarray(cosets.syndromes, dtype=np.int64) % q
        if s_mat.shape != (n, left_code.dmin - 1):
            raise ValueError(f"coset syndromes must be (n, {left_code.dmin - 1})")
        # one right-inverse application per vertex, precomputed as a batch
        shifts = linalg._mul_mod(s_mat, left_code.parity_right_inverse().T, q)
    else:
        left_code = cp
        s_mat = np.zeros((n, cp.dmin - 1), dtype=np.int64)
        shifts = np.zeros((n, delta), dtype=np.int64)

    right_edges = graph.right_edges
    z = np.zeros(n * delta, dtype=np.int64)
    z_er = np.zeros(n * delta, dtype=bool)
    known = ~y.erased
    if known.any():
        z.reshape(n, delta)[known] = cp.sys_encode(y.values[known] % q)
    if y.erased.any():
        z_er.reshape(n, delta)[y.erased] = True

    applied = {0: np.zeros(n, dtype=bool), 1: np.zeros(n, dtype=bool)}
    dirty_mask = {0: np.zeros(n, dtype=bool), 1: np.zeros(n, dtype=bool)}
    truth_left = truth.reshape(n, delta) if truth is not None else None
    report = DecodeReport(result=None, rounds_run=0, component_calls=0)

    def mark_changed(eids: np.ndarray, writer_right: bool):
        u = eids // delta
        slot = eids % delta
        v = graph.matchings[slot, u]
        if writer_right:
            dirty_mask[0][u] = True
        else:
            dirty_mask[1][v] = True

    def in_code() -> bool:
        if z_er.any():
            return False
        left = z.reshape(n, delta)
        if np.any((left_code.syndromes(left) - s_mat) % q):
            return False
        return not np.any(cd.syndromes(z[right_edges]))

    for i in range(2, params.nu + 1):
        side = 1 if i % 2 == 0 else 0  # 1 = right (V''), 0 = left (V')
        report.rounds_run = i
        if dirty:
            work = np.flatnonzero(dirty_mask[side] | ~applied[side])
        else:
            work = np.arange(n)
        report.component_calls += len(work)
        applied[side][work] = True
        dirty_mask[side][work] = False

        if side == 1:
            gather = right_edges[work]
            blocks = z[gather]
            masks = z_er[gather]
            out, ok = cd.decode_ee(blocks, masks)
            diff = ((out != blocks) | masks) & ok[:, None]
            if diff.any():
                eids = gather[diff]
                z[eids] = out[diff]
                z_er[eids] = False
                mark_changed(eids, writer_right=True)
            if i == 2 and z_er.any():
                # unresolved erasures get the identity completion (zero fill);
                # later rounds treat them as plain errors
                eids = np.flatnonzero(z_er)
                z_er[eids] = False
                mark_changed(eids, writer_right=True)
                u = eids // delta
                slot = eids % delta
                dirty_mask[1][graph.matchings[slot, u]] = True
        else:
            blocks = z.reshape(n, delta)[work]
            synd = (left_code.syndromes(blocks) - s_mat[work]) % q
            out, ok = left_code.decode_ee(
                (blocks - shifts[work]) % q, None, syndromes=synd
            )
            out = (out + shifts[work]) % q
            diff = (out != blocks) & ok[:, None]
            if diff.any():
                # left blocks are disjoint, so one scatter writes the round
                rows, cols = np.nonzero(diff)
                eids = work[rows] * delta + cols
                z[eids] = out[diff]
                mark_changed(eids, writer_right=False)

        if truth is not None and not z_er.any():
            if side == 1:
                errs = int(
                    np.count_nonzero(
                        np.any(z[right_edges] != truth[right_edges], axis=1)
                    )
                )
            else:
                errs = int(
                    np.count_nonzero(
                        np.any(z.reshape(n, delta) != truth_left, axis=1)
                    )
                )
            report.error_counts.append((i, errs))

        # nu is odd, so the last round is checked here too
        if i >= 3 and i % 2 == 1 and in_code():
            report.result = PhiWord.clean(cp.sys_project(z.reshape(n, delta)))
            break
    return report
