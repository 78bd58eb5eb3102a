"""Exponent calculus for the degenerate p-growth problem.

Everything here is closed-form arithmetic: Sobolev/Hölder conjugates,
the integrability exponent ``q`` of the natural energy space, the
level-set exponent assignment (A, B, C, D), the Marcinkiewicz exponents
``s`` and ``rho``, the stretched-exponential exponent ``theta``, and the
classification of the source integrability ``r`` into the regularity
regimes they imply.  ``compute_exponents`` makes that classification
once; everything downstream reads ``ExponentSet.regime``.
"""
from __future__ import annotations

import enum
import functools
from math import isfinite

from ._records import Record

__all__ = [
    "ExponentAssignment",
    "ExponentSet",
    "ProblemParams",
    "Regime",
    "classify_regime",
    "compute_exponents",
    "holder_conjugate",
    "sobolev_conjugate",
]

#: absolute tolerance used when r sits on a regime threshold
THRESHOLD_TOL = 1e-12


def sobolev_conjugate(t: float, n: int) -> float:
    """Sobolev conjugate t* = n t / (n - t), defined for 1 <= t < n."""
    if not 1.0 <= t < n:
        raise ValueError(f"sobolev conjugate needs 1 <= t < n, got t={t}, n={n}")
    return n * t / (n - t)


def holder_conjugate(t: float) -> float:
    """Hölder conjugate t' = t / (t - 1), defined for t > 1."""
    if not t > 1.0:
        raise ValueError(f"holder conjugate needs t > 1, got t={t}")
    return t / (t - 1.0)


class ProblemParams(Record):
    """Data of the model problem.

    ``n`` ambient dimension, ``p`` growth exponent, ``alpha`` degeneracy
    exponent of the coefficient a(s) = beta1 / (b_const + |s|)^(alpha p),
    ``r`` integrability of the source f.

    The type admits the linear edge cases alpha = 0 and p = n so the
    solver oracles can be expressed; the exponent calculus itself
    requires alpha > 0 and p < n and rejects them at call time.
    """

    n: int
    p: float
    alpha: float
    r: float
    beta1: float = 1.0
    b_const: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        for name in ("p", "alpha", "r", "beta1", "b_const"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 1.0 < self.p <= self.n:
            raise ValueError(f"p must satisfy 1 < p <= n, got p={self.p}, n={self.n}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha * holder_conjugate(self.p) >= 1.0:
            raise ValueError(
                f"alpha must satisfy alpha * p' < 1, got alpha={self.alpha}, p={self.p}"
            )
        if not self.r > 1.0:
            raise ValueError(f"r must exceed 1, got {self.r}")
        if not self.beta1 > 0.0:
            raise ValueError(f"beta1 must be positive, got {self.beta1}")
        if not self.b_const > 0.0:
            raise ValueError(f"b_const must be positive, got {self.b_const}")


class Regime(enum.Enum):
    """Regularity conclusion implied by the source integrability r."""

    BELOW_RANGE = "BelowRange"
    GRADIENT_MARCINKIEWICZ = "GradientMarcinkiewicz"
    SOBOLEV_W1P = "SobolevW1p"
    EXPONENTIAL_INTEGRABILITY = "ExponentialIntegrability"
    BOUNDED = "Bounded"


class ExponentAssignment(Record):
    """The (A, B, C, D) exponents of the level-set decay inequality.

    Deliberately unvalidated: below the admissible r-range B may even be
    negative, and the set still records what the formulas produce.
    """

    A: float
    B: float
    C: float
    D: float


class ExponentSet(Record):
    """All derived exponents for one parameter set.

    ``theta`` = (p(1-alpha)-1)/(p-1) is the exponent of the
    stretched-exponential level profile at r = n/p; ``regime`` is the
    regularity regime of r.
    """

    q: float
    q_star: float
    p_star: float
    r_low: float
    r_mid: float
    r_high: float
    s: float | None
    rho: float | None
    hyp: ExponentAssignment
    theta: float
    regime: Regime


def _require_strict(params: ProblemParams) -> None:
    if params.alpha <= 0.0:
        raise ValueError("exponent calculus requires alpha > 0")
    if params.p >= params.n:
        raise ValueError("exponent calculus requires p < n")


def _regime(r: float, r_low: float, r_mid: float, r_high: float) -> Regime:
    """Map r to its regularity regime; thresholds resolve within 1e-12."""
    if abs(r - r_high) <= THRESHOLD_TOL:
        return Regime.EXPONENTIAL_INTEGRABILITY
    if r > r_high:
        return Regime.BOUNDED
    if r <= r_low + THRESHOLD_TOL:
        return Regime.BELOW_RANGE
    if r <= r_mid + THRESHOLD_TOL:
        return Regime.GRADIENT_MARCINKIEWICZ
    return Regime.SOBOLEV_W1P


@functools.cache
def compute_exponents(params: ProblemParams) -> ExponentSet:
    """Derive q, q*, the thresholds, s, rho, theta, (A, B, C, D) and the regime.

    Equal parameters share one cached, frozen result.  Raises ``ValueError``
    where a denominator rounds to 0: p (1 - alpha) - 1 at the alpha p' = 1
    edge, or n - r (1 + alpha p) for rho.
    """
    _require_strict(params)
    n, p, alpha, r = params.n, params.p, params.alpha, params.r

    q = n * p * (1.0 - alpha) / (n - alpha * p)
    q_star = sobolev_conjugate(q, n)
    p_star = sobolev_conjugate(p, n)

    r_low = holder_conjugate(p_star * (1.0 - alpha))
    r_mid = holder_conjugate(p_star / (1.0 + alpha * p))
    r_high = n / p

    # p (1 - alpha) - 1 > 0 is alpha p' < 1, but it may round to 0 at the edge
    lift = p * (1.0 - alpha) - 1.0
    if lift == 0.0:
        raise ValueError(
            f"p (1 - alpha) - 1 rounds to 0 for p={p}, alpha={alpha}: C is unbounded"
        )

    A = alpha * p * q_star / (p - 1.0)
    D = q_star
    B = (p - 1.0 - q / r + q / n) * q_star / (q * (p - 1.0))
    C = (q - 1.0 - q / r + q / n) * q_star / (q * lift)

    s: float | None = None
    if r_high - r > THRESHOLD_TOL:
        s = n * r * lift / (n - r * p)
    rho: float | None = None
    if r <= r_mid + THRESHOLD_TOL:
        rho_gap = n - r * (1.0 + alpha * p)
        if rho_gap == 0.0:
            raise ValueError(
                f"r={r} rounds to n / (1 + alpha p) for n={n}, p={p},"
                f" alpha={alpha}: rho is unbounded"
            )
        rho = n * r * lift / rho_gap

    return ExponentSet(
        q=q,
        q_star=q_star,
        p_star=p_star,
        r_low=r_low,
        r_mid=r_mid,
        r_high=r_high,
        s=s,
        rho=rho,
        hyp=ExponentAssignment(A=A, B=B, C=C, D=D),
        theta=lift / (p - 1.0),
        regime=_regime(r, r_low, r_mid, r_high),
    )


def classify_regime(params: ProblemParams) -> Regime:
    """Map r to its regularity regime; thresholds resolve within 1e-12."""
    return compute_exponents(params).regime
