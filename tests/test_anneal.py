"""The shift-set annealer: golden outputs, a differential test against the
rescanning reference loop, and its refusals."""

import hashlib

import anneal_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aramid.bigraph import (
    DisconnectedGraphError,
    GammaTargetError,
    _circulant_gcd,
    anneal_circulant_bipartite,
    circulant_bipartite,
    gamma,
)


def _shifts(graph):
    return graph.matchings[:, 0]  # row i is u -> u + s_i, so column 0 is s_i


# sha256 of the sorted shifts as little-endian int64, taken from the search
# that rescanned the indicator and called Generator.choice on every move
# (numpy 2.4.6; not checked on numpy 1.x, whose older pocketfft may round the
# costs differently). The gamma targets of the lt rows are the desk lt design's
# (n = 130, R = 1/2, eps = 0.3, kappa = 1/4, mu = 0.05) targets for g1 and g2.
GOLDEN = [
    pytest.param(100, 36, 11, 0.20, 40000,
                 "8bcba90f3e141c4c2eff175fcc29a9e8fdac2d76fac6e986743a04b3bea65cb6",
                 id="desk-plain"),
    pytest.param(130, 70, 500, 0.12227087189088336, 40000,
                 "8a805bde45a88c95bfe1eb93ecf63f739a67a58a08c4da6d72df8c70d6bd85b2",
                 id="desk-lt-g1"),
    pytest.param(130, 60, 501, 0.14264935053936392, 40000,
                 "e9c6ea8a4131e1c31582a4b493606bfd2d703d64bc3307fdc1fa4582c46cecca",
                 id="desk-lt-g2"),
    # no target: all 5000 moves run, 487 of them kept by the Metropolis rule
    pytest.param(57, 20, 3, None, 5000,
                 "a4f977acc3bef04c11dd8848320b720bfc80b0fb0face13ceb85d6c89356e6a6",
                 id="metropolis"),
    pytest.param(12, 12, 4, None, 100,
                 "700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a",
                 id="delta-n"),
    pytest.param(12, 11, 4, None, 100,
                 "621e303f0a625dc3ffa39c5153d5e4a32af9abe174ffbd1ebbbee3380077389f",
                 id="delta-n-1"),
    pytest.param(40, 10, 9, None, 0,
                 "4ce2e86aa5d21191e5ccb50089631b0938245e9eff8b46e56bf1d0525eda1723",
                 id="iters-0"),
]


@pytest.mark.parametrize("n,delta,seed,target,iters,digest", GOLDEN)
def test_anneal_golden_digest(n, delta, seed, target, iters, digest):
    g = anneal_circulant_bipartite(n, delta, seed=seed, gamma_target=target, iters=iters)
    got = hashlib.sha256(_shifts(g).astype("<i8").tobytes()).hexdigest()
    assert got == digest


@st.composite
def anneal_cases(draw):
    n = draw(st.integers(2, 40))
    delta = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    target = draw(st.none() | st.floats(0.05, 1.0))
    iters = draw(st.integers(0, 300))
    return n, delta, seed, target, iters


@settings(max_examples=150, deadline=None)
@given(anneal_cases())
def test_anneal_matches_reference_loop(case):
    n, delta, seed, target, iters = case
    want = ref.anneal_shifts(n, delta, seed, gamma_target=target, iters=iters)
    if _circulant_gcd(n, want) != 1:
        with pytest.raises(DisconnectedGraphError):
            anneal_circulant_bipartite(n, delta, seed=seed, gamma_target=target, iters=iters)
        return
    best = gamma(circulant_bipartite(n, want)).gamma
    if target is not None and best > target:
        with pytest.raises(GammaTargetError) as exc:
            anneal_circulant_bipartite(n, delta, seed=seed, gamma_target=target, iters=iters)
        assert exc.value.best == best
        return
    g = anneal_circulant_bipartite(n, delta, seed=seed, gamma_target=target, iters=iters)
    assert _shifts(g).tolist() == want


def test_disconnected_shift_set_is_not_a_missed_target():
    # one shift is never connected; the target 5.0 is met before any move
    msg = "after {} moves give a disconnected circulant graph: .* share the factor 10$"
    with pytest.raises(DisconnectedGraphError, match=msg.format(0)):
        anneal_circulant_bipartite(10, 1, seed=0, gamma_target=5.0)
    with pytest.raises(DisconnectedGraphError, match=msg.format(50)):
        anneal_circulant_bipartite(10, 1, seed=0, iters=50)


def test_gamma_target_error_counts_moves_made():
    with pytest.raises(GammaTargetError, match="after 500 attempts") as exc:
        anneal_circulant_bipartite(48, 24, seed=101, gamma_target=0.01, iters=500)
    assert exc.value.best > 0.01
    # delta == n leaves nothing to swap, so no move is made whatever iters is
    with pytest.raises(GammaTargetError, match="after 0 attempts"):
        anneal_circulant_bipartite(12, 12, seed=4, gamma_target=-1.0, iters=100)


def test_anneal_refuses_negative_iters():
    with pytest.raises(ValueError, match="iters must not be negative"):
        anneal_circulant_bipartite(20, 5, seed=1, iters=-5)
