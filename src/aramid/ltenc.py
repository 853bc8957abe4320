"""Fast-encodable construction: two graph codes plus a mediator code.

An information word eta is encoded per right vertex into the rate-1-left
graph code on G1 (E1); each left vertex's sub-block then gets a syndrome
against the high-rate code C0 (E2); the syndrome list is protected by the
mediator code (E3) and carried on a second, thinner graph code on G2 (E4).
Decoding runs the stages in reverse: one parallel C2 round (D2), a mediator
decode (D3), and coset iterative decoding of (G1, C0(h_u) : C1) (D4).

One stage rule certifies the stage radii: D4 must meet the iterative
decoder's hypothesis with theta from C0 (`_stage_checks`, on gamma1), and the
D2/D3 chain must leave the mediator fewer than mu*n wrong symbols whenever
2t + rho <= (1 - R - eps)*n (`_mediator_check`, on gamma2). `lt_design`
applies it at the annealing targets and `LtCode` on the measured ratios.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .bigraph import anneal_circulant_bipartite, gamma
from .gf import MAX_MODULUS, PrimeField, is_prime
from .grs import GrsCode
from .iterdec import (
    CosetSide,
    DecodeReport,
    beta_bound,
    decode_params,
    decode_phi,
    hypothesis_holds,
)
from .tanner import PhiWord, TannerCode

ANNEAL_RATIO = 1.5  # achievable multiple of the interlacing floor, with slack
DELTA1_CAP = 160  # desk-scale ceiling on the primary degree
# the margin keeps sigma/beta bounded away from 1, so nu and omega stay small
STAGE_MARGIN = 1.25


def spectral_floor(n: int, delta: int) -> float:
    """Interlacing lower bound on gamma for any delta-regular bipartite graph."""
    return math.sqrt(delta * (n - delta) / (n - 1)) / delta


def anneal_target(n: int, delta: int) -> float:
    return ANNEAL_RATIO * spectral_floor(n, delta)


def tau_bound(sigma: float, delta2_rel: float, gamma2: float) -> float:
    """Fraction of wrong mediator symbols after the single C2 round, from the
    expansion bound; infinite when the hypothesis gives nothing."""
    den = delta2_rel / 2 - (1 - gamma2) * sigma
    if den <= 0:
        return math.inf
    return sigma * gamma2 * gamma2 / (den * den)


def next_prime(lo: int) -> int:
    p = max(lo, 3)
    if p % 2 == 0:
        p += 1
    while p <= MAX_MODULUS:
        if is_prime(p):
            return p
        p += 2
    raise ValueError(f"no prime in [{lo}, {MAX_MODULUS}]")


class DesignError(ValueError):
    pass


@dataclass(frozen=True)
class LtDesign:
    """Integer parameters of one construction instance.

    The exact identities (syndrome width = rm * R * delta2, equal component
    rates) are enforced in rational arithmetic, and the stage radius
    sigma_stage must be (1 - R - eps) / 2 as `lt_design` computes it.
    `relaxed` marks designs whose delta1 sits below the asymptotic
    alpha_R / eps^3 requirement.
    """

    R: Fraction
    eps: float
    kappa: float
    mu: float
    alpha_R: float
    n: int
    q: int
    delta1: int
    delta2: int
    k0: int
    k1: int
    k2: int
    km: int
    sigma_stage: float
    gamma1_target: float
    gamma2_target: float
    relaxed: bool
    paper_delta1: int

    def __post_init__(self):
        if self.n * self.syndrome_width != self.km * self.k2:
            raise DesignError("identity (1-r0)*delta1 = rm*R*delta2 violated")
        if Fraction(self.k1, self.delta1) != Fraction(self.k2, self.delta2):
            raise DesignError("component rates R1 and R2 differ")
        if not self.delta2 < self.delta1:
            raise DesignError("delta2 must be smaller than delta1")
        # the end-to-end radius reads R and eps; the stages certify sigma_stage
        if self.sigma_stage != (1 - float(self.R) - self.eps) / 2:
            raise DesignError("sigma_stage must equal (1 - R - eps) / 2")
        if not self.sigma_stage > 0:
            raise DesignError(f"decoding radius (1-R-eps) is empty: eps={self.eps}, R={self.R}")

    @property
    def syndrome_width(self) -> int:
        return self.delta1 - self.k0

    @property
    def theta0(self) -> Fraction:
        return Fraction(self.delta1 - self.k0 + 1, self.delta1)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k1, self.delta1 + self.delta2)

    def to_json(self) -> dict:
        return {**asdict(self), "R": [self.R.numerator, self.R.denominator]}

    @classmethod
    def from_json(cls, obj: dict) -> "LtDesign":
        obj = dict(obj)
        obj["R"] = Fraction(*obj["R"])
        return cls(**obj)


def _stage_checks(delta1: int, k1: int, d0: int, gamma1: float, sigma_stage: float) -> bool:
    """Stage D4: the decoder hypothesis on theta0, delta1 and gamma1, and
    beta above sigma_stage by the stage margin. Monotone in gamma1."""
    theta0 = d0 / delta1
    delta1_rel = (delta1 - k1 + 1) / delta1
    holds = hypothesis_holds(theta0, delta1_rel, gamma1)
    return holds and beta_bound(theta0, delta1_rel, gamma1) > STAGE_MARGIN * sigma_stage


def _mediator_check(delta2: int, k2: int, mu_med: float, gamma2: float, sigma_stage: float) -> bool:
    """Stages D2/D3: the single C2 round leaves the mediator a fraction tau
    of wrong symbols below a margin under its radius mu_med. Monotone in
    gamma2."""
    return tau_bound(sigma_stage, (delta2 - k2 + 1) / delta2, gamma2) < 0.85 * mu_med


def _search_k2(
    n: int,
    s: int,
    k1: int,
    R: Fraction,
    sigma_stage: float,
    kappa_floor: Fraction | None,
    mu_floor: float,
) -> tuple[int, int, int] | None:
    """First (k2, delta2, km) meeting the identity and the D2/D3 margin."""
    for k2 in range(s + 1, k1):
        if (n * s) % k2:
            continue
        if (k2 * R.denominator) % R.numerator:
            continue
        delta2 = k2 * R.denominator // R.numerator
        km = n * s // k2
        if km >= n:
            continue
        mu_med = (n - km) // 2 / n
        if mu_med <= 0 or mu_med < mu_floor:
            continue
        if kappa_floor is not None and Fraction(km, n) < kappa_floor:
            continue
        if _mediator_check(delta2, k2, mu_med, anneal_target(n, delta2), sigma_stage):
            return k2, delta2, km
    return None


def lt_design(
    R,
    eps: float,
    kappa: float,
    mu: float,
    n: int,
) -> LtDesign:
    """Choose instance parameters for designed rate R and distance slack eps.

    Emits the paper-faithful parameters when delta1 >= alpha_R/eps^3 fits at
    desk scale; otherwise searches a relaxed design that keeps every exact
    identity and every stage radius hypothesis, flagged relaxed=True.
    """
    Rf = Fraction(R).limit_denominator(1000)
    if not (0 < eps < Rf < 1):
        raise DesignError(f"need 0 < eps < R < 1, got eps={eps}, R={Rf}")
    if not (0 < kappa <= 1 and 0 < mu <= 1):
        raise DesignError("kappa and mu must lie in (0, 1]")
    if eps >= 1 - Rf:
        raise DesignError(
            f"decoding radius (1-R-eps) is empty: eps={eps}, R={Rf}"
        )
    alpha_R = 8 * (1 - float(Rf)) * max(float(Rf) / mu, 2 / kappa)
    paper_delta1 = math.ceil(alpha_R / eps**3)
    sigma_stage = (1 - float(Rf) - eps) / 2
    step = Rf.denominator

    limit = min(DELTA1_CAP, n - 2)
    paper = -(-paper_delta1 // step) * step  # rounded up to the step
    paper_d0 = math.ceil(kappa * eps * paper)
    # (delta1, its d0 values, kappa floor, mu floor, relaxed): the paper-faithful
    # candidate first (theta0 pinned to kappa*eps, kappa and mu honored), then
    # the smallest workable relaxed delta1, structural identities intact
    candidates = [(d1, range(2, d1), None, 0.0, True) for d1 in range(2 * step, limit + 1, step)]
    if paper <= limit and paper_d0 >= 2:
        kappa_floor = Fraction(kappa).limit_denominator(1000)
        candidates.insert(0, (paper, [paper_d0], kappa_floor, mu, False))
    for delta1, d0s, kappa_floor, mu_floor, relaxed in candidates:
        k1 = delta1 * Rf.numerator // Rf.denominator
        if k1 < 2:
            continue
        g1t = anneal_target(n, delta1)
        for d0 in d0s:
            if not _stage_checks(delta1, k1, d0, g1t, sigma_stage):
                continue
            hit = _search_k2(n, d0 - 1, k1, Rf, sigma_stage, kappa_floor, mu_floor)
            if hit is None:
                continue
            k2, delta2, km = hit
            return LtDesign(
                R=Rf,
                eps=eps,
                kappa=kappa,
                mu=mu,
                alpha_R=alpha_R,
                n=n,
                q=next_prime(max(delta1 + 1, n)),
                delta1=delta1,
                delta2=delta2,
                k0=delta1 - d0 + 1,
                k1=k1,
                k2=k2,
                km=km,
                sigma_stage=sigma_stage,
                gamma1_target=g1t,
                gamma2_target=anneal_target(n, delta2),
                relaxed=relaxed,
                paper_delta1=paper_delta1,
            )
    raise DesignError(
        f"no relaxed design for R={Rf}, eps={eps}, n={n} within delta1 <= {DELTA1_CAP}"
    )


# -- the mediator code -------------------------------------------------------------


class InterleavedGrsMediator:
    """Bank of width-many [n, km] GRS streams over F; one stream per field
    coordinate of the mediator alphabet. A symbol error touches each stream
    in at most one position, so the bank corrects floor((n-km)/2) symbol
    errors (and trades erasures at the usual 2a + b rate)."""

    def __init__(self, field: PrimeField, n: int, width: int, km: int):
        if n >= field.q:  # a length-q GRS code has a zero locator
            raise DesignError(f"stream length {n} must be below the field size {field.q}")
        if not 0 < km < n:
            raise DesignError("mediator dimension must satisfy 0 < km < n")
        self.code = GrsCode(field, k=km, eval_points=range(1, n + 1))
        self.field = field
        self.n = n
        self.symbol_width = width
        self.km = km
        self.mu = Fraction((n - km) // 2, n)

    def encode(self, s_flat) -> np.ndarray:
        if np.shape(s_flat) != (self.km * self.symbol_width,):
            raise ValueError(f"message must have {self.km * self.symbol_width} symbols")
        return self._encode(self.field.elements(s_flat))

    def _encode(self, s_flat: np.ndarray) -> np.ndarray:
        msgs = s_flat.reshape(self.km, self.symbol_width)
        return self.code._sys_encode(msgs.T).T.copy()

    def decode(self, values, erased=None) -> np.ndarray | None:
        # one stack of width-many streams sharing the erasure mask
        streams = self.field.elements(values).T
        out, ok = self.code.decode_ee(streams, erased)
        if not ok.all():
            return None
        return self.code._sys_project(out).T.reshape(-1)


# -- the assembled construction ----------------------------------------------------


@dataclass
class LtReport:
    eta: np.ndarray | None
    stage: str | None  # failing stage: "mediator" or "iterative"; None on success
    d4: DecodeReport | None
    w_tilde: np.ndarray
    w_tilde_erased: np.ndarray

    @property
    def success(self) -> bool:
        return self.eta is not None


@dataclass
class LtTrace:
    x: np.ndarray
    c: np.ndarray
    s: np.ndarray
    w: np.ndarray
    d: np.ndarray


class LtCode:
    """The assembled two-graph construction with certified stage parameters."""

    def __init__(self, design: LtDesign, g1, g2):
        self.design = design
        self.field = PrimeField(design.q)
        if g1.n != g2.n or g1.n != design.n:
            raise DesignError("both graphs must share the vertex count n")
        if g1.delta != design.delta1 or g2.delta != design.delta2:
            raise DesignError("graph degrees do not match the design")
        self.g1, self.g2 = g1, g2
        self.c0 = GrsCode(self.field, design.k0, range(1, design.delta1 + 1))
        self.c1 = GrsCode(self.field, design.k1, range(1, design.delta1 + 1))
        self.c2 = GrsCode(self.field, design.k2, range(1, design.delta2 + 1))
        # the left sides of both graph codes are the whole space (rate 1)
        self.t1 = TannerCode(g1, None, self.c1)
        self.t2 = TannerCode(g2, None, self.c2)
        # the design's syndrome identity n*(delta1-k0) = km*k2 fixes the bank's shape
        self.mediator = InterleavedGrsMediator(self.field, design.n, design.k2, design.km)
        self.gamma1 = gamma(g1).gamma
        self.gamma2 = gamma(g2).gamma
        # lt_design's stage rule on the measured ratios; passing it also meets
        # every hypothesis that decode_params checks
        d = design
        d4 = _stage_checks(d.delta1, d.k1, d.delta1 - d.k0 + 1, self.gamma1, d.sigma_stage)
        d3 = _mediator_check(d.delta2, d.k2, float(self.mediator.mu), self.gamma2, d.sigma_stage)
        for stage, holds, name, measured, target in (
            ("D4", d4, "gamma1", self.gamma1, d.gamma1_target),
            ("D2/D3", d3, "gamma2", self.gamma2, d.gamma2_target),
        ):
            if not holds:
                raise DesignError(
                    f"stage {stage} fails on the measured {name} = {measured:.6f} "
                    f"(target {target:.6f})"
                )
        self.params_d4 = decode_params(
            float(d.theta0), self.c1.rel_dist, self.gamma1, d.sigma_stage, d.n, d.delta1
        )

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def radius(self) -> int:
        """Largest 2t + rho covered by the end-to-end guarantee."""
        return math.floor((1 - float(self.design.R) - self.design.eps) * self.n)

    def encode_trace(self, eta) -> LtTrace:
        """Encode eta, the (n, R*delta1) information blocks indexed by right
        vertices; the codeword is the trace's x. Only eta is checked (`gf`):
        E2-E4 run on the stage outputs before them."""
        d1, d2 = self.design.delta1, self.design.delta2
        c = self.t1.encode_rate1(eta)  # E1
        s = self.c0._syndromes(self.t1.left_blocks(c))  # E2
        w = self.mediator._encode(s.reshape(-1))  # E3
        d = self.t2._encode_rate1(w)  # E4
        x = np.hstack([c.reshape(self.n, d1), d.reshape(self.n, d2)])
        return LtTrace(x=x, c=c, s=s, w=w, d=d)

    def decode(
        self,
        values,
        erased1=None,
        erased2=None,
    ) -> LtReport:
        """Decode n received pairs; each half may be erased independently."""
        design = self.design
        n, d1, d2 = self.n, design.delta1, design.delta2
        values = self.field.elements(values)
        if values.shape != (n, d1 + d2):
            raise ValueError(f"received word must be (n, {d1 + d2})")
        clear = np.zeros(n, dtype=bool)
        erased1 = clear if erased1 is None else np.asarray(erased1, bool)
        erased2 = clear if erased2 is None else np.asarray(erased2, bool)
        for name, mask in (("erased1", erased1), ("erased2", erased2)):
            if mask.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {mask.shape}")

        # D1: the thin-graph edge word, erased per left vertex (D2 zero-fills)
        z2 = values[:, d1:].reshape(-1)

        # D2: one parallel error-erasure round of C2 per right vertex; edge e
        # is erased when its left vertex e // d2 is
        gather = self.g2.right_edges
        out, ok = self.c2.decode_ee(z2[gather], erased2[gather // d2])
        w_tilde = np.where(ok[:, None], self.c2._sys_project(out), 0)
        w_er = ~ok

        # D3: mediator recovers the syndrome list
        s_flat = self.mediator.decode(w_tilde, w_er)
        if s_flat is None:
            return LtReport(None, "mediator", None, w_tilde, w_er)
        s_mat = s_flat.reshape(n, design.syndrome_width)

        # D4: coset iterative decoding of the primary graph code
        y1 = PhiWord(values[:, :d1], erased1)
        rep = decode_phi(self.t1, y1, self.params_d4, cosets=CosetSide(self.c0, s_mat))
        if not rep.success:
            return LtReport(None, "iterative", rep, w_tilde, w_er)
        eta = self.c1._sys_project(self.t1.right_blocks(rep.result.values.reshape(-1)))
        return LtReport(eta, None, rep, w_tilde, w_er)


def build_lt_code(design: LtDesign, seed: int, anneal_iters: int = 40000) -> LtCode:
    """Anneal both graphs, each stopping early at its design target, and
    assemble the code, which certifies its stages on the measured ratios."""
    n, iters = design.n, anneal_iters
    g1 = anneal_circulant_bipartite(n, design.delta1, seed, design.gamma1_target, iters)
    g2 = anneal_circulant_bipartite(n, design.delta2, seed + 1, design.gamma2_target, iters)
    return LtCode(design, g1, g2)
