"""Doubling-only inequalities and the functions separating them.

The level-set inequality can be checked on all pairs h > k >= k0 or only
on the doubling pairs h = 2k.  For the power-decay case the two are
equivalent up to the explicit constant of :func:`equivalence_constant`.
For the other two cases they are *not* equivalent, and this module
provides the two classical witnesses:

* ``psi(k) = exp(-(ln k)^2)`` satisfies the doubling inequality of the
  exponential-decay case with constant ``2**(-ln 2)`` yet eventually
  rises above every stretched-exponential envelope;
* ``psi(k) = exp(-k**p)`` with ``p = log2(2 C)`` satisfies the doubling
  inequality of the vanishing case with constant 1 beyond an explicit
  origin, yet is strictly positive at the level ``2 L`` where the
  envelope claims it vanishes.

Violations are certified in log space (:class:`Certificate`): at the
levels involved the function values routinely underflow double
precision, so only the logarithms can carry the comparison.
"""
from __future__ import annotations

import functools
import math
from dataclasses import field
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

from ._records import Record, _real
from .lemma import (
    CaseTag,
    DecayHypothesis,
    WrongCaseError,
    _exp,
    _log,
    classify,
    exp_decay_tau,
    vanishing_level,
)

__all__ = [
    "LOG_SQUARE_C2",
    "LOG_SQUARE_C2_ALIAS",
    "Certificate",
    "NamedPsi",
    "equivalence_constant",
    "exp_power_psi",
    "find_envelope_violation",
    "k0_for_exp_power",
    "log_square_psi",
    "psi_exp_power",
    "psi_log_square",
]

#: Certified doubling constant for psi(k) = exp(-(ln k)^2): the exact
#: identity psi(2k) = psi(k) * (2 k^2)^{-ln 2} yields 2^{-ln 2}.
LOG_SQUARE_C2 = 2.0 ** (-math.log(2.0))

#: The looser constant 1/(2 ln 2) quoted alongside the family in the
#: source remark; kept as an alias (it exceeds LOG_SQUARE_C2, so the
#: doubling inequality holds for it a fortiori).
LOG_SQUARE_C2_ALIAS = 1.0 / (2.0 * math.log(2.0))

#: Geometric sweep density of the violation search.
_POINTS_PER_DECADE = 64


def psi_log_square(k: float) -> float:
    """exp(-(ln k)^2) on [1, inf)."""
    return math.exp(_log_psi_log_square(k))


def _log_psi_log_square(k: float) -> float:
    if not k >= 1.0:
        raise ValueError(f"psi_log_square is defined on [1, inf), got k={k}")
    return -(math.log(k) ** 2)


def _log_psi_exp_power(k: float, p: float) -> float:
    """-(k**p) on [1, inf), or -inf where k**p exceeds the float range."""
    if not k >= 1.0:
        raise ValueError(f"psi_exp_power is defined on [1, inf), got k={k}")
    try:
        return -(k**p)
    except OverflowError:
        return -math.inf


def _exp_power(c_exp: float) -> Tuple[float, float]:
    """c_exp as a float and the exp-power exponent p = log2(2 c_exp); requires c_exp > 1."""
    c_exp = _real("c_exp", c_exp, above=1)
    return c_exp, math.log2(2.0 * c_exp)


def psi_exp_power(k: float, c_exp: float) -> float:
    """exp(-k**p) with p = log2(2 c_exp), on [1, inf); requires c_exp > 1.

    Reads 0.0 where k**p exceeds the float range.
    """
    return math.exp(_log_psi_exp_power(k, _exp_power(c_exp)[1]))


class NamedPsi(Record, eq=False):
    """A closed-form nonincreasing function with a log-space evaluator and read-only ``parameters``."""

    name: str
    k0: float
    evaluator: Callable[[float], float]
    log_evaluator: Callable[[float], float]
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))

    def __reduce__(self):  # parameters as a dict: a mappingproxy does not pickle
        return type(self), (self.name, self.k0, self.evaluator, self.log_evaluator, dict(self.parameters))


def log_square_psi() -> NamedPsi:
    """The family psi(k) = exp(-(ln k)^2) as a NamedPsi."""
    return NamedPsi(
        name="log_square",
        k0=1.0,
        evaluator=psi_log_square,
        log_evaluator=_log_psi_log_square,
    )


def exp_power_psi(c_exp: float) -> NamedPsi:
    """The family psi(k) = exp(-k**p), p = log2(2 c_exp), as a NamedPsi.

    Past the float range of k**p the value reads 0.0 and the log -inf.
    """
    c_exp, p = _exp_power(c_exp)
    return NamedPsi(
        name="exp_power",
        k0=1.0,
        evaluator=functools.partial(psi_exp_power, c_exp=c_exp),
        log_evaluator=functools.partial(_log_psi_exp_power, p=p),
        parameters={"c_exp": c_exp, "p": p},
    )


def k0_for_exp_power(d_exp: float, c_exp: float) -> float:
    """Smallest k0 >= 1 with (e^{-k^p})^C <= k^{-D} for all k >= k0.

    Equivalently g(k) = c_exp * k**p - d_exp * ln k >= 0 for all
    k >= k0, with p = log2(2 c_exp).  g has a single interior minimum at
    k_c = (d_exp/(c_exp p))^{1/p}; when that minimum sits below 1 or g
    is nonnegative there the answer is exactly 1, otherwise the largest
    root of g is bracketed and bisected to 1e-9, or to adjacent floats
    where their spacing is wider.  Raises ``ValueError`` when bracketing
    that root leaves the float range.
    """
    d_exp = _real("d_exp", d_exp, above=0)
    c_exp, p = _exp_power(c_exp)

    def g(k: float) -> float:
        return c_exp * k**p - d_exp * math.log(k)

    k_crit = (d_exp / (c_exp * p)) ** (1.0 / p)
    if k_crit <= 1.0 or g(k_crit) >= 0.0:
        return 1.0
    lo, hi = k_crit, max(2.0, 2.0 * k_crit)
    try:
        while g(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        bracketed = math.isfinite(hi)  # g(inf) reads nan, which also ends the doubling
    except OverflowError:  # k**p left the float range
        bracketed = False
    if not bracketed:
        raise ValueError(
            f"the root of g for d_exp={d_exp}, c_exp={c_exp} leaves the float range"
        )
    while hi - lo > 1e-9:
        # equal to 0.5 * (lo + hi) for lo >= 1, without overflowing the sum
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):  # adjacent floats: the spacing here exceeds 1e-9
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


class Certificate(Record):
    """A level at which psi exceeds the claimed envelope.

    ``psi_value`` and ``envelope_value`` are plain float evaluations and
    may underflow to 0 or read ``inf``; ``psi_log`` and ``envelope_log``
    carry the exact comparison (``psi_log > envelope_log`` certifies the
    violation; the envelope log is ``-inf`` where the envelope is 0).
    """

    level: float
    psi_value: float
    psi_log: float
    envelope_value: float
    envelope_log: float


def find_envelope_violation(
    psi: NamedPsi,
    hyp: DecayHypothesis,
    psi_at_k0: float,
    k_max: float,
    tau_override: Optional[float] = None,
) -> Optional[Certificate]:
    """Search for a level where psi exceeds the case's envelope.

    ExponentialDecay: sweeps levels geometrically (64 per decade) from
    the origin max(hyp.k0, psi.k0), which must be positive, up to
    ``k_max`` and returns the first crossing, comparing in log space so
    underflowed values cannot hide it.  ``tau_override`` substitutes the
    envelope scale (the violation exists for every tau; the certificate
    simply moves).  Vanishing: returns the level ``2 L`` where the
    envelope is 0 but psi is provably positive, or None when the log of
    psi at ``2 L`` reads -inf (below the float range, so positivity is
    not certified).  Returns None when no violation is found at or below
    ``k_max``, which must be finite; ``psi_at_k0`` must be finite and
    nonnegative.
    """
    psi_at_k0 = _real("psi_at_k0", psi_at_k0, at_least=0)
    k_max = _real("k_max", k_max, above=0)
    case = classify(hyp)
    if case.tag is CaseTag.EXPONENTIAL_DECAY:
        start = max(hyp.k0, psi.k0)
        if not start > 0.0:
            raise ValueError(
                f"the sweep origin max(hyp.k0, psi.k0) must be positive, got {start}"
            )
        if tau_override is None:
            tau = exp_decay_tau(hyp).tau
        else:
            tau = _real("tau_override", tau_override, above=0)
        theta = (hyp.D - hyp.A) / hyp.D
        log_psi0 = _log(psi_at_k0)
        j = 0
        while True:
            try:
                k = start * 10.0 ** (j / _POINTS_PER_DECADE)
            except OverflowError:  # an origin below about 1.01, k_max near the float max
                raise ValueError(
                    f"the sweep from {start} leaves the float range below k_max={k_max}"
                ) from None
            if k > k_max:
                return None
            envelope_log = log_psi0 + 1.0 - ((k - hyp.k0) / tau) ** theta
            psi_log = psi.log_evaluator(k)
            if psi_log > envelope_log:
                return Certificate(
                    level=k,
                    psi_value=psi.evaluator(k),
                    psi_log=psi_log,
                    envelope_value=_exp(envelope_log) if envelope_log > -745.0 else 0.0,
                    envelope_log=envelope_log,
                )
            j += 1
    if case.tag is CaseTag.VANISHING:
        big_l = vanishing_level(hyp, psi_at_k0).L
        level = 2.0 * big_l
        if level > k_max:
            return None
        psi_log = psi.log_evaluator(level)
        if not psi_log > -math.inf:
            return None
        return Certificate(
            level=level,
            psi_value=psi.evaluator(level),
            psi_log=psi_log,
            envelope_value=0.0,
            envelope_log=-math.inf,
        )
    raise WrongCaseError(
        "find_envelope_violation requires an ExponentialDecay or Vanishing "
        f"hypothesis, got {case.tag.value}"
    )


def equivalence_constant(
    c2: float, d_exp: float, c_bar: float, b_exp: float
) -> float:
    """Constant max{4^D c2, c_bar^{1-B}} turning doubling into the full
    inequality in the power-decay case.

    ``c2`` is the doubling constant, ``c_bar`` the power-envelope
    constant derived from it, ``d_exp`` and ``b_exp`` the exponents D
    and B of the hypothesis (``b_exp < 1`` in this case).
    """
    c2, d_exp, c_bar, b_exp = (_real(name, value, above=0) for name, value in
                               (("c2", c2), ("d_exp", d_exp), ("c_bar", c_bar), ("b_exp", b_exp)))
    if not b_exp < 1.0:
        raise ValueError(f"b_exp must be below 1 in the power-decay case, got {b_exp}")
    return max(4.0**d_exp * c2, c_bar ** (1.0 - b_exp))
