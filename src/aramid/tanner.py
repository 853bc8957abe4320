"""The graph code C = (G, C':C'') and its folded form over Phi = F^{k'}.

Edge words are indexed by edge id e = u*delta + slot, so left sub-blocks are a
contiguous reshape and right sub-blocks a precomputed gather. The folding map
sends a codeword to the per-left-vertex message of the systematic C' encoder,
so folding back is a coordinate projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bigraph import BipartiteRegularGraph
from .grs import GrsCode


@dataclass
class PhiWord:
    """A length-n word over Phi (k'-tuples) with per-symbol erasures."""

    values: np.ndarray  # (n, width) int64, erased rows arbitrary
    erased: np.ndarray  # (n,) bool

    @classmethod
    def clean(cls, values) -> "PhiWord":
        values = np.asarray(values, dtype=np.int64)
        return cls(values, np.zeros(values.shape[0], dtype=bool))


class TannerCode:
    """C = {z in F^E : every left block in C', every right block in C''}."""

    def __init__(
        self,
        graph: BipartiteRegularGraph,
        c_prime: GrsCode,
        c_double: GrsCode,
    ):
        if c_prime.field != c_double.field:
            raise ValueError("component codes must share the field")
        if c_prime.length != graph.delta or c_double.length != graph.delta:
            raise ValueError(
                f"component code length must equal the degree {graph.delta}"
            )
        self.graph = graph
        self.c_prime = c_prime
        self.c_double = c_double
        self.field = c_prime.field
        self.n = graph.n
        self.num_edges = graph.num_edges
        self._gen: np.ndarray | None = None
        self._gen_pivots: list[int] | None = None
        self._gen_float: np.ndarray | None = None  # encode_generic's BLAS operand

    # rate and relative-distance parameters of the component codes
    @property
    def r(self) -> float:
        return self.c_prime.rate

    @property
    def R(self) -> float:
        return self.c_double.rate

    @property
    def theta(self) -> float:
        return self.c_prime.rel_dist

    @property
    def delta_rel(self) -> float:
        return self.c_double.rel_dist

    @property
    def phi_width(self) -> int:
        """Field symbols per Phi symbol: k' = r*delta."""
        return self.c_prime.k

    def __repr__(self) -> str:
        return (
            f"TannerCode(n={self.n}, delta={self.graph.delta}, "
            f"C'={self.c_prime!r}, C''={self.c_double!r})"
        )

    # -- sub-block access ----------------------------------------------------

    def left_blocks(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values).reshape(self.n, self.graph.delta)

    def right_blocks(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values)[self.graph.right_edges]

    def scatter_right(self, blocks: np.ndarray) -> np.ndarray:
        out = np.empty(self.num_edges, dtype=np.int64)
        out[self.graph.right_edges] = blocks
        return out

    # -- membership -----------------------------------------------------------

    def membership(self, values) -> bool:
        """True iff every left block is in C' and every right block in C''."""
        values = np.asarray(values, dtype=np.int64)
        if np.any(self.c_prime.syndromes(self.left_blocks(values))):
            return False
        return not np.any(self.c_double.syndromes(self.right_blocks(values)))

    # -- folding ---------------------------------------------------------------

    def psi(self, values) -> np.ndarray:
        """Fold a codeword to its (n, k') symbol matrix over Phi."""
        values = np.asarray(values, dtype=np.int64)
        if not self.membership(values):
            raise ValueError("psi requires a codeword of C")
        return self.c_prime.sys_project(self.left_blocks(values)).copy()

    def psi_inverse(self, phi_values) -> np.ndarray:
        """Unfold a Phi word; raises if the result is not in C."""
        phi_values = np.asarray(phi_values, dtype=np.int64)
        blocks = self.c_prime.sys_encode(phi_values)
        values = blocks.reshape(-1)
        if np.any(self.c_double.syndromes(self.right_blocks(values))):
            raise ValueError("phi word does not unfold to a codeword of C")
        return values

    # -- encoders ----------------------------------------------------------------

    def generator(self) -> np.ndarray:
        """Systematic-form generator of C, (dim, n*delta), cached.

        The nullspace of the stacked vertex parity checks is computed in the
        left-block parametrization z = (a_u G')_u, which shrinks the
        elimination to the right-side constraints only. Their
        (n*(delta - k'')) x (n*k') matrix is held in the smallest unsigned
        dtype that holds q - 1. `linalg.nullspace` reduces it mod q in that
        dtype and eliminates it in float32 when min(rows, cols)*(q-1)**2 + q
        < 2**24, as on the desk instance, where the uint8 matrix is a
        quarter of that array. The basis comes from the solved block
        R[:rank, free] with no dense RREF, so the working array sets the
        peak. The basis's codewords are put in systematic form by a second
        `linalg.rref` of only dim rows.
        """
        if self._gen is None:
            q = self.field.q
            n, delta = self.n, self.graph.delta
            kp = self.c_prime.k
            h2 = self.c_double.parity_check()
            gp = self.c_prime._gen
            m = np.zeros((n * h2.shape[0], n * kp), dtype=np.min_scalar_type(q - 1))
            blocks = m.reshape(n, h2.shape[0], n, kp)
            # matching i adds outer(h2[:, i], gp[:, i]) to block (v, u) of each of
            # its edges u -> v = matchings[i, u]; its v are distinct, so each
            # assignment writes distinct blocks, and parallel edges add up
            # across slots, reduced mod q in int64 before they are stored
            for i, right in enumerate(self.graph.matchings):
                edges = (right, slice(None), np.arange(n))
                blocks[edges] = (blocks[edges] + np.outer(h2[:, i], gp[:, i])) % q
            basis = linalg.nullspace(m, q)
            words = (basis.reshape(-1, n, kp) @ gp % q).reshape(-1, n * delta)
            gen, pivots = linalg.rref(words, q)
            self._gen = gen[: len(pivots)]
            self._gen_pivots = pivots
            self._gen_float = self._gen.astype(np.float64)
        return self._gen

    @property
    def dim(self) -> int:
        return self.generator().shape[0]

    def encode_generic(self, msg) -> np.ndarray:
        msg = np.asarray(msg, dtype=np.int64) % self.field.q
        gen = self.generator()
        if msg.shape[-1] != gen.shape[0]:
            raise ValueError(f"message length must be {gen.shape[0]}")
        return linalg._mul_mod(msg, self._gen_float, self.field.q)

    def msg_from_codeword(self, values) -> np.ndarray:
        self.generator()
        return np.asarray(values, dtype=np.int64)[..., self._gen_pivots]

    def encode_rate1(self, eta) -> np.ndarray:
        """Per-right-vertex encoding, valid only when C' is the full space.

        eta has one C''-message row per right vertex; O(n * delta^2) field ops.
        """
        if self.c_prime.k != self.graph.delta:
            raise ValueError("encode_rate1 requires rate-1 C'")
        eta = np.asarray(eta, dtype=np.int64) % self.field.q
        if eta.shape != (self.n, self.c_double.k):
            raise ValueError(f"eta must be (n, {self.c_double.k})")
        blocks = self.c_double.sys_encode(eta)
        return self.scatter_right(blocks)

    def right_messages(self, values) -> np.ndarray:
        """Inverse of encode_rate1's per-vertex encoder (systematic projection)."""
        return self.c_double.sys_project(self.right_blocks(values))


# -- bounds and oracles -------------------------------------------------------


def min_dist_bound(theta: float, delta_rel: float, gamma: float) -> float:
    """Lower bound on the relative minimum Phi-distance of the folded code.

    May be <= 0 when gamma is large; callers treat that as vacuous.
    """
    if not (0 < theta <= 1 and 0 < delta_rel <= 1):
        raise ValueError("relative distances must lie in (0, 1]")
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    return (delta_rel - gamma * math.sqrt(delta_rel / theta)) / (1 - gamma)


def rate_bound_phi(r: float, R: float) -> float:
    """Lower bound (r + R - 1)/r on the rate of the folded code."""
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    return 1 - 1 / r + R / r


def brute_min_phi_weight(code: TannerCode, limit: int = 10**6) -> int:
    """Minimum number of nonzero Phi entries over all nonzero codewords,
    by exhaustive enumeration of the generator span."""
    q = code.field.q
    gen = code.generator()
    dim = gen.shape[0]
    if dim == 0:
        raise ValueError("code is trivial; no nonzero codewords")
    total = q**dim
    if total > limit:
        raise ValueError(f"enumeration of {total} codewords exceeds limit {limit}")
    best = code.n + 1
    chunk = 4096
    msgs = np.indices((q,) * dim).reshape(dim, total).T
    for lo in range(0, total, chunk):
        batch = msgs[lo : lo + chunk]
        words = (batch @ gen) % q
        blocks = words.reshape(len(batch), code.n, code.graph.delta)
        weights = np.any(blocks != 0, axis=2).sum(axis=1)
        nz = weights[np.any(batch != 0, axis=1)]
        if nz.size:
            best = min(best, int(nz.min()))
    return best
