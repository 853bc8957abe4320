"""Iterative error-erasure decoder for the folded graph code.

Rounds alternate sides: even rounds decode right sub-blocks with the C''
error-erasure decoder, odd rounds decode left sub-blocks with C', or in
cosets {v : H0 v = s_u} of C0 when per-vertex syndromes s_u are supplied,
s_u being the component decoder's target. Both sides run the same round
step: gather the scheduled sub-blocks by edge id, make one batched
component-decoder call, scatter the changed symbols and mark the vertices on
the other side of those edges, read off the edge ids. A whole-space C' is
decoded only in cosets. Erasures exist at the field level only until round 2
completes. A component-decoder failure leaves the sub-block unchanged.

A vertex is re-decoded only when one of its incident edges changed since its
last decode; the first visit of each side is unconditional. This is
output-equivalent to visiting every vertex each round, because the component
decoders are pure functions of the sub-block; tests/iterdec_reference.py
holds that all-vertex schedule as the oracle.

The schedule also gives membership. A vertex is dirty when an incident edge
changed since its last decode, and bad when that decode failed. A decode
that succeeds leaves a codeword of the component code (or of the coset) in
the sub-block, so a vertex that is neither dirty nor bad holds one. A
vertex that is bad and not dirty holds none: its last decode failed without
erasures (a round-2 block that failed with erasures is marked dirty), and a
word of the code or coset without erasures decodes to itself. After round 2
no edge is erased, so the word is in the code exactly when no vertex is bad
and not dirty and the sub-blocks of the dirty vertices of both sides have
their target syndromes (zero outside the cosets); only those are checked,
and none when such a bad vertex is found first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grs import GrsCode
from .tanner import PhiWord, TannerCode


@dataclass(frozen=True)
class DecodeParams:
    """Radius, round count and work bound for the iterative decoder."""

    gamma: float
    sigma: float
    beta: float
    base: float  # contraction base theta*delta/(4 gamma^2)
    nu: int
    i_t: int
    omega: float

    def __post_init__(self):
        assert self.base > 1
        assert 0 < self.sigma < self.beta
        assert self.nu >= 3 and self.nu % 2 == 1


def hypothesis_holds(theta: float, delta: float, gamma: float) -> bool:
    """The decoder hypothesis sqrt(theta*delta) > 2*gamma > 0."""
    return 0 < 2 * gamma < math.sqrt(theta * delta)


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

    Requires `hypothesis_holds` and 0 < sigma < beta. nu counts rounds
    (indices 2..nu); omega*n bounds the component-decoder calls under dirty
    scheduling.
    """
    if not (0 < theta <= 1 and 0 < delta <= 1):
        raise ValueError("relative distances must lie in (0, 1]")
    if not hypothesis_holds(theta, delta, gamma):
        if gamma <= 0:
            raise ValueError(f"hypothesis 2*gamma > 0 fails: gamma = {gamma}")
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
        gamma=gamma, sigma=sigma, beta=beta, base=base, nu=nu, i_t=i_t, omega=omega
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

    @property
    def success(self) -> bool:
        return self.result is not None


def decode_phi(
    code: TannerCode,
    y: PhiWord,
    params: DecodeParams,
    cosets: CosetSide | None = None,
) -> DecodeReport:
    """Decode a received Phi word with t errors and rho erasures.

    Exact recovery is guaranteed when t + rho/2 <= sigma*n and the instance
    satisfies the params hypothesis (theta taken from C0 in the coset
    variant). On failure of the final membership check the report carries no
    result; a wrong codeword is never returned silently.
    """
    graph = code.graph
    n, delta = graph.n, graph.delta
    erased = np.asarray(y.erased, dtype=bool)
    if y.values.shape != (n, code.phi_width) or erased.shape != (n,):
        raise ValueError(
            f"phi word must have shape ({n}, {code.phi_width}) with an (n,) mask"
        )
    left_code, target = code.c_prime, None
    if cosets is not None:
        left_code = cosets.code
        if left_code.length != delta or left_code.field != code.field:
            raise ValueError("coset code must have the graph degree and field")
        target = code.field.elements(cosets.syndromes)
        if target.shape != (n, left_code.dmin - 1):
            raise ValueError(f"coset syndromes must be (n, {left_code.dmin - 1})")
    elif left_code is None:
        raise ValueError("a whole-space C' is decoded only in cosets")

    # per side (0 = left V', 1 = right V''): the component code, the edge ids
    # of each vertex's sub-block and its target syndromes (cosets only)
    sides = (
        (left_code, np.arange(n * delta).reshape(n, delta), target),
        (code.c_double, graph.right_edges, None),
    )

    z = np.zeros(n * delta, dtype=np.int64)
    known = ~erased
    if known.any():
        z.reshape(n, delta)[known] = code.unfold(y.values[known])

    # the first visit of each side decodes every vertex; bad marks the
    # vertices whose last decode failed
    dirty = np.ones((2, n), dtype=bool)
    bad = np.zeros((2, n), dtype=bool)
    report = DecodeReport(result=None, rounds_run=0, component_calls=0)

    def mark(s: int, eids: np.ndarray) -> None:
        # edge e = u*delta + slot joins left u to right matchings[slot, u]
        u = eids // delta
        dirty[s, u if s == 0 else graph.matchings[eids % delta, u]] = True

    def in_code() -> bool:
        # a vertex neither dirty nor bad holds a codeword, and one bad but
        # not dirty holds none (module docstring)
        if np.any(bad & ~dirty):
            return False
        for (comp, gather, goal), check in zip(sides, dirty):
            rows = np.flatnonzero(check)
            if len(rows):
                synd = comp.syndromes(z[gather[rows]])
                if np.any(synd if goal is None else synd != goal[rows]):
                    return False
        return True

    for i in range(2, params.nu + 1):
        side = 1 if i % 2 == 0 else 0
        comp, side_gather, side_target = sides[side]
        report.rounds_run = i
        work = np.flatnonzero(dirty[side])
        report.component_calls += len(work)
        dirty[side] = False

        gather = side_gather[work]
        blocks = z[gather]
        # erasures exist only in round 2, the first right round: edge e is
        # erased when its left vertex e // delta is
        masks = erased[gather // delta] if i == 2 and erased.any() else None
        goal = None if side_target is None else side_target[work]
        out, ok = comp.decode_ee(blocks, masks, target=goal)
        bad[side, work] = ~ok
        diff = (out != blocks) & ok[:, None]
        if diff.any():
            # the sub-blocks of one side are disjoint, so one scatter writes
            # the round
            eids = gather[diff]
            z[eids] = out[diff]
            mark(1 - side, eids)
        if masks is not None:
            # erasures left in a failed block keep the identity completion
            # (zero fill) and are plain errors from now on, so its right
            # vertex is decoded again; the left side is all dirty until round 3
            dirty[1, work[~ok & masks.any(axis=1)]] = True

        # nu is odd, so the last round is checked here too
        if i >= 3 and i % 2 == 1 and in_code():
            report.result = PhiWord.clean(code._fold(z.reshape(n, delta)))
            break
    return report
