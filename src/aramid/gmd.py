"""Concatenation with an inner code and generalized-minimum-distance decoding.

Each folded outer symbol (a k'-tuple over F) is the message of one inner
codeword, so the symbol map is the identity and a codeword is an n x len_inner
matrix. The GMD decoder measures per-row reliability as the distance to the
inner-decoded codeword (failed rows are least reliable), then walks the
classic erasure ladder 0, 2, 4, ... up to the inner minimum distance, running
the iterative outer decoder each time. A candidate is accepted only when its
re-encoding lands inside the guaranteed weighted radius, so a wrong answer is
never accepted silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grs import GrsCode
from .iterdec import DecodeParams, decode_phi
from .tanner import PhiWord, TannerCode


@dataclass
class GmdTrace:
    reliabilities: np.ndarray  # per-row inner decoding distance
    attempts: list[tuple[int, str]] = field(default_factory=list)


_FAILED_ROW = 10**9  # reliability sentinel for rows the inner decoder rejects


class ConcatCode:
    """Folded outer graph code with an inner code over the same field."""

    def __init__(self, outer: TannerCode, inner: GrsCode, params: DecodeParams):
        if inner.field != outer.field:
            raise ValueError("inner code must live over the outer field")
        if inner.k != outer.phi_width:
            raise ValueError(
                f"inner dimension {inner.k} must match the outer symbol "
                f"width {outer.phi_width}"
            )
        self.outer = outer
        self.inner = inner
        self.params = params
        self.n = outer.n

    @property
    def ladder_length(self) -> int:
        return (self.inner.dmin + 1 + 1) // 2  # ceil((d+1)/2)

    def guaranteed_radius(self) -> float:
        """Accept / correct whenever sum_i min(2 e_i, d_in) is below this."""
        return self.inner.dmin * (2 * self.params.sigma * self.n + 1) / 2

    def encode(self, msg) -> np.ndarray:
        """Outer encode, fold, then inner-encode every symbol row."""
        z = self.outer.encode_generic(msg)
        phi = self.outer.psi(z)
        return self.inner.sys_encode(phi)

    def weighted_distance(self, a: np.ndarray, b: np.ndarray) -> int:
        d = np.count_nonzero(a != b, axis=1)
        return int(np.minimum(2 * d, self.inner.dmin).sum())

    def decode(self, received) -> tuple[np.ndarray | None, GmdTrace]:
        """GMD decoding of an n x len_inner matrix of field values; (message, trace)."""
        received = self.inner.field.elements(received)
        if received.shape != (self.n, self.inner.length):
            raise ValueError(f"received must be ({self.n}, {self.inner.length})")
        # rejected rows come back as received and keep their raw symbols
        decoded, ok = self.inner.decode_ee(received)
        symbols = self.inner.sys_project(decoded)
        reliab = np.where(
            ok, np.count_nonzero(decoded != received, axis=1), _FAILED_ROW
        )
        trace = GmdTrace(reliabilities=reliab)
        # least reliable first; ties broken by index for determinism
        order = np.lexsort((np.arange(self.n), -reliab))
        radius = self.guaranteed_radius()
        for b in range(0, self.inner.dmin + 1, 2):
            erased = np.zeros(self.n, dtype=bool)
            erased[order[:b]] = True
            y = PhiWord(symbols.copy(), erased)
            rep = decode_phi(self.outer, y, self.params)
            if not rep.success:
                trace.attempts.append((b, "outer_failure"))
                continue
            reencoded = self.inner.sys_encode(rep.result.values)
            if self.weighted_distance(reencoded, received) < radius:
                trace.attempts.append((b, "accepted"))
                z = self.outer.psi_inverse(rep.result.values)
                return self.outer.msg_from_codeword(z), trace
            trace.attempts.append((b, "rejected"))
        return None, trace
