"""Dense graph oracles: the biadjacency matrix of a stored graph.

`biadjacency` builds the n x n matrix X that `gamma` never forms: X[u, v] is
the number of slots i with matchings[i][u] == v. Tests compare gamma with
its singular values and check its degree sums and top eigenpair.
"""

from __future__ import annotations

import numpy as np


def biadjacency(graph) -> np.ndarray:
    """X[u, v] = edge multiplicity between u in V' and v in V''."""
    x = np.zeros((graph.n, graph.n), dtype=np.int64)
    for i in range(graph.delta):
        np.add.at(x, (np.arange(graph.n), graph.matchings[i]), 1)
    return x
