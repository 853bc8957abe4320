"""All-vertex oracle for the iterative decoder.

`decode_all_vertices` runs the rounds of `iterdec.decode_phi` without its
dirty-vertex schedule: every round decodes every sub-block of its side, one
batched component call per round. The component decoders are pure functions
of the sub-block, so the schedule must change no output; tests compare the
two on success, result and rounds run.

Given the clean edge word, the oracle also counts after each erasure-free
round how many sub-blocks of that round's side are still wrong, the
sequence the contraction lemma says shrinks on each side.
"""

from __future__ import annotations

import numpy as np

from aramid import linalg
from aramid.tanner import PhiWord


def decode_all_vertices(code, y, params, cosets=None, truth=None):
    """Decode y with every vertex visited each round.

    Returns (result, rounds_run, error_counts): the decoded PhiWord or None,
    the last round run, and the (round, wrong sub-blocks) pairs, filled only
    when `truth` (the clean edge word) is given.
    """
    graph = code.graph
    n, delta, q = graph.n, graph.delta, code.field.q
    cp, cd = code.c_prime, code.c_double
    right = graph.right_edges
    left_code = cp
    s_mat = np.zeros((n, cp.dmin - 1), dtype=np.int64)
    shift = np.zeros((n, delta), dtype=np.int64)
    if cosets is not None:
        left_code = cosets.code
        s_mat = np.asarray(cosets.syndromes, dtype=np.int64) % q
        shift = linalg._mul_mod(s_mat, left_code.parity_right_inverse().T, q)

    z = np.zeros((n, delta), dtype=np.int64)
    erased = np.zeros((n, delta), dtype=bool)
    known = ~y.erased
    z[known] = cp.sys_encode(y.values[known] % q)
    erased[y.erased] = True
    flat, flat_er = z.reshape(-1), erased.reshape(-1)

    counts = []
    rounds = 0
    for i in range(2, params.nu + 1):
        rounds = i
        if i % 2 == 0:
            out, ok = cd.decode_ee(flat[right], flat_er[right])
            flat[right[ok]] = out[ok]
            flat_er[right[ok]] = False
            if i == 2:
                erased[:] = False  # unresolved erasures stay zero-filled
            wrong = None if truth is None else flat[right] != truth[right]
        else:
            out, ok = left_code.decode_ee((z - shift) % q)
            z[ok] = (out[ok] + shift[ok]) % q
            wrong = None if truth is None else z != truth.reshape(n, delta)
        if wrong is not None and not erased.any():
            counts.append((i, int(np.count_nonzero(wrong.any(axis=1)))))
        if i % 2 == 1 and not erased.any():
            left_ok = not np.any((left_code.syndromes(z) - s_mat) % q)
            if left_ok and not np.any(cd.syndromes(flat[right])):
                return PhiWord.clean(cp.sys_project(z)), rounds, counts
    return None, rounds, counts
