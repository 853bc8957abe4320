"""All-vertex oracle for the iterative decoder.

`decode_all_vertices` runs the rounds of `iterdec.decode_phi` without its
dirty-vertex schedule: every round decodes every sub-block of its side, one
batched component call per round. The component decoders are pure functions
of the sub-block, so the schedule must change no output; tests compare the
two on success, result and rounds run.

The oracle also counts the calls the schedule should make. A vertex is due
on its side's first visit and whenever one of its edges was written (a new
value or a resolved erasure) since its last decode; a vertex that is not due
would decode an unchanged sub-block to the same result, so every write the
oracle makes is one the schedule makes too. It counts the revisits: decodes
of a vertex whose previous decode failed, made due again by a write from the
other side.

Given the clean edge word, the oracle also counts after each erasure-free
round how many sub-blocks of that round's side are still wrong, the
sequence the contraction lemma says shrinks on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from linalg_reference import right_inverse_plain

from aramid.tanner import PhiWord


@dataclass
class OracleRun:
    result: PhiWord | None
    rounds_run: int
    component_calls: int = 0
    revisits: int = 0
    error_counts: list = field(default_factory=list)  # (round, wrong sub-blocks)


def decode_all_vertices(code, y, params, cosets=None, truth=None) -> OracleRun:
    """Decode y with every vertex visited each round. The error counts are
    filled only when `truth` (the clean edge word) is given."""
    graph = code.graph
    n, delta, q = graph.n, graph.delta, code.field.q
    cp, cd = code.c_prime, code.c_double  # cp None: C' is F^delta
    right = graph.right_edges
    left_code, s_mat = cp, 0
    shift = np.zeros((n, delta), dtype=np.int64)
    if cosets is not None:
        # block u lies in C0 + R s_u for a right inverse R of H0 (H0 R = I):
        # decode block - R s_u in C0 and add R s_u back
        left_code = cosets.code
        s_mat = np.asarray(cosets.syndromes, dtype=np.int64) % q
        r_inv = right_inverse_plain(left_code.parity_check(), q)
        shift = s_mat @ r_inv.T % q

    z = np.zeros((n, delta), dtype=np.int64)
    erased = np.zeros((n, delta), dtype=bool)
    known = ~y.erased
    z[known] = y.values[known] % q if cp is None else cp.sys_encode(y.values[known] % q)
    erased[y.erased] = True
    flat, flat_er = z.reshape(-1), erased.reshape(-1)
    # the vertex of each edge on the left (0) and right (1) side
    owner = np.empty((2, n * delta), dtype=np.int64)
    owner[0] = np.arange(n * delta) // delta
    owner[1, right] = np.arange(n)[:, None]
    due = np.ones((2, n), dtype=bool)
    failed = np.zeros((2, n), dtype=bool)

    run = OracleRun(None, 0)
    for i in range(2, params.nu + 1):
        run.rounds_run = i
        side = 1 if i % 2 == 0 else 0
        run.component_calls += int(due[side].sum())
        run.revisits += int((due[side] & failed[side]).sum())
        before, before_er = flat.copy(), flat_er.copy()
        if side:
            out, ok = cd.decode_ee(flat[right], flat_er[right])
            flat[right[ok]] = out[ok]
            flat_er[right[ok]] = False
        else:
            out, ok = left_code.decode_ee((z - shift) % q)
            z[ok] = (out[ok] + shift[ok]) % q
        failed[side] = ~ok
        due[side] = False
        written = (flat != before) | (flat_er != before_er)
        due[1 - side, owner[1 - side, written]] = True
        if i == 2:
            for s in (0, 1):
                due[s, owner[s, flat_er]] = True
            erased[:] = False  # unresolved erasures stay zero-filled
        if truth is not None and not erased.any():
            wrong = flat[right] != truth[right] if side else z != truth.reshape(n, delta)
            run.error_counts.append((i, int(np.count_nonzero(wrong.any(axis=1)))))
        if i % 2 == 1 and not erased.any():
            left_ok = not np.any((left_code.syndromes(z) - s_mat) % q)
            if left_ok and not np.any(cd.syndromes(flat[right])):
                run.result = PhiWord.clean(z.copy() if cp is None else cp.sys_project(z))
                return run
    return run
