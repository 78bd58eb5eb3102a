"""Engine for the generalized level-set decay lemma.

A :class:`DecayHypothesis` packages the constants of the level-set
inequality

    psi(h) <= c1 * (h**A * psi(k)**B + psi(k)**C) / (h - k)**D

for all h > k >= k0, where ``psi`` is nonincreasing and nonnegative.
Depending on the exponents ``B`` and ``C`` the inequality forces one of
three decay regimes, each with a fully explicit envelope:

* ``PowerDecay`` (``max(B, C) < 1`` with balanced exponents):
  ``psi(k) <= c_bar * k**(-lam)``;
* ``ExponentialDecay`` (``B = C = 1``): a stretched-exponential envelope
  with scale ``tau``;
* ``Vanishing`` (``min(B, C) > 1``): ``psi`` vanishes at a finite level
  ``2 * L``.

This module classifies hypotheses, computes the envelope constants
exactly as printed in the source proofs, evaluates envelopes, verifies
both the hypothesis and its conclusion on tabulated functions, and runs
the geometric recursion (:func:`giusti_recursion`) used by the vanishing
case.  A table (:class:`PsiTable`) keeps its knots and values as
read-only float64 arrays, validated once, which every check reads as is.

Constants and checks work with logarithms, so extreme but valid inputs
never overflow.  Envelope constants are computed as logs and returned
as floats, ``inf`` when they exceed the float range.  Every check ratio
lhs/rhs is ``exp(log lhs - log rhs)`` over numpy arrays of pairs, with
the conventions 0/0 -> 0 and positive/0 -> +inf; a ratio beyond the
float range reads ``inf``.  The logs of knots and values are taken once
per knot; per pair only the log-sum of the right-hand side, h - k, its
log and the ratio are computed.  All-pairs pairs come in the row-major
order k = knots[i], h = knots[j] for j > i, which is the order "first"
refers to.  They are checked by an exact branch-and-bound
(``_all_pairs_check``) whose report is that of checking every pair, bit
for bit, except that fewer pairs are computed; any other strategy gives
its pairs as one batch.  The numpy error state is set once per check, by
the entry points that run the pair kernel (``check_hypothesis``,
``_pair_scan`` and ``check_envelope``); the kernel's helpers set none.
"""
from __future__ import annotations

import enum
import math
from typing import Optional, Tuple

import numpy as np

from ._records import _MONOTONE_SLACK, Record, _real, _whole

__all__ = [
    "CLASSIFY_TOL",
    "AllKnotPairs",
    "CaseClass",
    "CaseTag",
    "CheckReport",
    "DecayHypothesis",
    "Doubling",
    "EnvelopeConstants",
    "EnvelopeReport",
    "GiustiResult",
    "PsiTable",
    "WrongCaseError",
    "check_envelope",
    "check_hypothesis",
    "classify",
    "envelope",
    "envelope_constants",
    "exp_decay_tau",
    "giusti_recursion",
    "level_sequence",
    "power_decay_constants",
    "vanishing_level",
]

#: Default tolerance for case classification (|B-1|, |C-1| and the
#: balance residual all compare against this).
CLASSIFY_TOL = 1e-9

#: Pairs per array batch of the all-pairs check; bounds its memory
#: independently of the table size.
_BATCH_PAIRS = 2**16

#: Knots per run of the all-pairs branch-and-bound; a tile pairs the k
#: of one run with the h of another, _TILE x _TILE pairs.
_TILE = 16

#: Rounding margin of the tile bounds, relative to the magnitudes of the
#: terms of the log ratio (see _bound_margin).
_BOUND_MARGIN = 1e-12

_LOG2 = math.log(2.0)


class WrongCaseError(ValueError):
    """An operation was applied to a hypothesis of the wrong case."""


class CaseTag(enum.Enum):
    POWER_DECAY = "PowerDecay"
    EXPONENTIAL_DECAY = "ExponentialDecay"
    VANISHING = "Vanishing"
    UNCLASSIFIED = "Unclassified"


class CaseClass(Record):
    """Classification result: the case tag plus the balance residual.

    ``detail`` is the residual (D-A)/(1-B) - D/(1-C) whenever
    ``max(B, C) < 1`` makes it well defined, and ``None`` otherwise.
    """

    tag: CaseTag
    detail: Optional[float] = None


class DecayHypothesis(Record):
    """Constants (c1, A, B, C, D, k0) of the level-set inequality."""

    c1: float
    A: float
    B: float
    C: float
    D: float
    k0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c1", "A", "B", "C", "D"):
            object.__setattr__(self, name, _real(name, getattr(self, name), above=0))
        object.__setattr__(self, "k0", _real("k0", self.k0, at_least=0))
        if not self.A < self.D:
            raise ValueError(f"A must be smaller than D, got A={self.A}, D={self.D}")


def classify(hyp: DecayHypothesis, tol: float = CLASSIFY_TOL) -> CaseClass:
    """Classify a hypothesis into its decay case.

    ``ExponentialDecay`` requires both B and C within ``tol`` of 1;
    ``Vanishing`` requires ``min(B, C) > 1``; ``PowerDecay`` requires
    ``max(B, C) < 1`` together with the balance identity
    ``(D-A)/(1-B) == D/(1-C)`` within ``tol``.  Everything else is
    ``Unclassified``.
    """
    tol = _real("tol", tol, above=0)
    B, C = hyp.B, hyp.C
    if abs(B - 1.0) <= tol and abs(C - 1.0) <= tol:
        return CaseClass(CaseTag.EXPONENTIAL_DECAY)
    if min(B, C) > 1.0:
        return CaseClass(CaseTag.VANISHING)
    if max(B, C) < 1.0:
        residual = (hyp.D - hyp.A) / (1.0 - B) - hyp.D / (1.0 - C)
        if abs(residual) <= tol:
            return CaseClass(CaseTag.POWER_DECAY, residual)
        return CaseClass(CaseTag.UNCLASSIFIED, residual)
    return CaseClass(CaseTag.UNCLASSIFIED)


class EnvelopeConstants(Record):
    """Explicit envelope constants; fields outside the case are None."""

    case: CaseClass
    lam: Optional[float] = None
    M: Optional[float] = None
    c_bar: Optional[float] = None
    tau: Optional[float] = None
    L: Optional[float] = None


def _require_case(hyp: DecayHypothesis, tag: CaseTag, op: str) -> CaseClass:
    case = classify(hyp)
    if case.tag is not tag:
        raise WrongCaseError(
            f"{op} requires a {tag.value} hypothesis, got {case.tag.value}"
        )
    return case


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _exp(x: float) -> float:
    """exp(x), or inf where it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _power_logs(hyp: DecayHypothesis, psi_at_k0: float) -> Tuple[float, float, float]:
    """lam, log M and log c_bar = lam log 2 + max(log M, log rho(k0)).

    M bounds the dyadic chain of :func:`power_decay_constants` from 2 k0
    on; rho(k0) covers [k0, 2 k0), where only psi(k) <= psi(k0) is known.
    """
    lam = (hyp.D - hyp.A) / (1.0 - hyp.B)
    log_rho = lam * _log(hyp.k0) + _log(psi_at_k0)
    log_m = (
        math.log(max(hyp.c1, 1.0)) + (lam + hyp.A + 1.0) * _LOG2
    ) / (1.0 - hyp.B) + hyp.B * float(np.logaddexp(0.0, log_rho))
    return lam, log_m, lam * _LOG2 + max(log_m, log_rho)


def power_decay_constants(hyp: DecayHypothesis, psi_at_k0: float) -> EnvelopeConstants:
    """Envelope constants for the power-decay case.

    With c1' = max(c1, 1) and rho(k0) = k0**lam * psi(k0):

        lam   = (D - A) / (1 - B)
        M     = c1'**(1/(1-B)) * 2**((lam+A+1)/(1-B)) * (1 + rho(k0))**B
        c_bar = 2**lam * max(M, rho(k0))

    and the claimed conclusion is psi(k) <= c_bar * k**(-lam) for k >= k0.
    With phi(k) = k**lam psi(k), the pair (2k, k) and the balance
    lam = (D-A)/(1-B) = D/(1-C) give phi(2k) <= 2**lam c1 (2**A phi(k)**B
    + phi(k)**C) <= K max(phi(k), 1)**B with K = 2**(lam+A+1) c1', as
    C < B.  Along k_j = 2**j k0, phi(k_1) <= K (1 + rho(k0))**B <= M and
    K M**B <= M, so phi(k_j) <= M for j >= 1; monotonicity then gives
    psi(k) <= psi(k_j) <= 2**lam M k**(-lam) on [k_j, k_{j+1}).  On
    [k0, 2 k0) only psi(k) <= psi(k0) <= 2**lam rho(k0) k**(-lam) holds,
    hence the max.  M and c_bar are computed through their logs and read
    ``inf`` beyond the float range.
    """
    case = _require_case(hyp, CaseTag.POWER_DECAY, "power_decay_constants")
    psi_at_k0 = _real("psi_at_k0", psi_at_k0, at_least=0)
    lam, log_m, log_c_bar = _power_logs(hyp, psi_at_k0)
    return EnvelopeConstants(case=case, lam=lam, M=_exp(log_m), c_bar=_exp(log_c_bar))


def _log_tau_term(hyp: DecayHypothesis) -> float:
    """Log of the second term in the maximum defining tau."""
    A, D = hyp.A, hyp.D
    log_inner = (
        _LOG2
        + math.log(hyp.c1)
        + 1.0
        + ((2.0 * D - A) * A) / (D - A) * _LOG2
        + D * math.log(D - A)
        - D * math.log(D)
    )
    return log_inner / (D - A)


def exp_decay_tau(hyp: DecayHypothesis) -> EnvelopeConstants:
    """Envelope scale for the exponential-decay case.

    tau = max{ k0 + 1,
               (2 c1 e 2**((2D-A)A/(D-A)) (D-A)**D / D**D)**(1/(D-A)) }

    and the claimed conclusion is
    psi(k) <= psi(k0) * exp(1 - ((k - k0)/tau)**((D-A)/D)).  The power
    product is computed through its log; tau reads ``inf`` beyond the
    float range.
    """
    case = _require_case(hyp, CaseTag.EXPONENTIAL_DECAY, "exp_decay_tau")
    tau = max(hyp.k0 + 1.0, _exp(_log_tau_term(hyp)))
    return EnvelopeConstants(case=case, tau=tau)


def vanishing_level(hyp: DecayHypothesis, psi_at_k0: float) -> EnvelopeConstants:
    """Vanishing level L for the case min(B, C) > 1.

    The proof only uses x**B + x**C <= 2 x**min(B,C) for x <= 1, so the
    formula is applied with B normalized to max(B, C) and C to
    min(B, C).  The claimed conclusion is psi(2L) = 0 with

        L = max{ 1, 2 k0,
                 (c1 2**(1+D) (1+psi(k0))**B)**(1/(D-A)),
                 (c1**(C/(C-1)) (1+psi(k0))**B
                  * 2**(D+1+(A+D+1)/(C-1)+D/(C-1)**2))**((C-1)/((D-A)C)) }.

    The power products are computed through their logs; L reads ``inf``
    beyond the float range.
    """
    case = _require_case(hyp, CaseTag.VANISHING, "vanishing_level")
    psi_at_k0 = _real("psi_at_k0", psi_at_k0, at_least=0)
    B = max(hyp.B, hyp.C)
    C = min(hyp.B, hyp.C)
    A, D, k0 = hyp.A, hyp.D, hyp.k0
    log_c1 = math.log(hyp.c1)
    log_one_plus = B * math.log1p(psi_at_k0)
    third = _exp((log_c1 + (1.0 + D) * _LOG2 + log_one_plus) / (D - A))
    try:
        square = (C - 1.0) ** 2
    except OverflowError:  # C past about 1e154, where D / (C-1)**2 is 0.0
        square = math.inf
    fourth = _exp(
        (
            C / (C - 1.0) * log_c1
            + log_one_plus
            + (D + 1.0 + (A + D + 1.0) / (C - 1.0) + D / square) * _LOG2
        )
        * (C - 1.0)
        / ((D - A) * C)
    )
    L = max(1.0, 2.0 * k0, third, fourth)
    return EnvelopeConstants(case=case, L=L)


def envelope_constants(hyp: DecayHypothesis, psi_at_k0: float) -> EnvelopeConstants:
    """Envelope constants of the hypothesis' case.

    Dispatches to :func:`power_decay_constants`, :func:`exp_decay_tau` or
    :func:`vanishing_level`; raises :class:`WrongCaseError` for an
    unclassified hypothesis.
    """
    case = classify(hyp)
    if case.tag is CaseTag.POWER_DECAY:
        return power_decay_constants(hyp, psi_at_k0)
    if case.tag is CaseTag.EXPONENTIAL_DECAY:
        _real("psi_at_k0", psi_at_k0, at_least=0)
        return exp_decay_tau(hyp)
    if case.tag is CaseTag.VANISHING:
        return vanishing_level(hyp, psi_at_k0)
    raise WrongCaseError("hypothesis is Unclassified; no envelope exists")


def _envelope_logs(hyp: DecayHypothesis, psi_at_k0: float, k):
    """The envelope at levels k >= k0 as ``scale * exp(log_factor)``.

    Returns ``(scale, log_factor)`` with log_factor a numpy value of the
    shape of k: log c_bar - lam log k with scale 1 (power decay),
    1 - ((k - k0)/tau)**((D-A)/D) with scale psi(k0) (exponential decay),
    0 below 2L and -inf from 2L on with scale psi(k0) (vanishing).  The
    constants enter through their logs, so no level underflows or
    overflows the envelope.
    """
    env = envelope_constants(hyp, psi_at_k0)
    psi_at_k0 = float(psi_at_k0)  # checked there, by _real
    tag = env.case.tag
    with np.errstate(divide="ignore", over="ignore"):
        if tag is CaseTag.POWER_DECAY:
            lam, _, log_c_bar = _power_logs(hyp, psi_at_k0)
            return 1.0, log_c_bar - lam * np.log(k)
        if tag is CaseTag.EXPONENTIAL_DECAY:
            log_tau = max(math.log1p(hyp.k0), _log_tau_term(hyp))
            theta = (hyp.D - hyp.A) / hyp.D
            return psi_at_k0, 1.0 - np.exp(theta * (np.log(k - hyp.k0) - log_tau))
    return psi_at_k0, np.where(k < 2.0 * env.L, 0.0, -np.inf)


def envelope(hyp: DecayHypothesis, psi_at_k0: float, k: float) -> float:
    """Evaluate the claimed envelope of the hypothesis' case at level k.

    Power decay returns ``+inf`` at k = 0 (the bound is vacuous there);
    the exponential envelope equals ``psi(k0) * e`` exactly at k = k0;
    the vanishing envelope is the step ``psi(k0)`` below ``2L`` and 0 at
    and beyond it.  Raises :class:`ValueError` for k below k0 or a
    psi_at_k0 that is not finite and nonnegative, and
    :class:`WrongCaseError` for unclassified hypotheses.
    """
    if not k >= hyp.k0:
        raise ValueError(f"level k={k} is below the hypothesis origin k0={hyp.k0}")
    scale, log_factor = _envelope_logs(hyp, psi_at_k0, float(k))
    with np.errstate(over="ignore"):
        return float(scale * np.exp(log_factor))


# --------------------------------------------------------------------------
# tabulated psi
# --------------------------------------------------------------------------
class PsiTable(Record, eq=False):
    """A nonincreasing nonnegative step function tabulated at knots.

    Knots and values follow :class:`Record`'s kept-array rule.  Evaluation follows
    the right-continuous step convention: psi(k) is the value at the largest
    knot <= k.  Values may rise by at most a 1e-12 relative slack between
    consecutive knots, absorbing rounding in externally computed tables.
    A rejected table raises :class:`ValueError` naming its first offending
    knot pair or value.
    """

    knots: np.ndarray
    values: np.ndarray
    k0: float

    def __post_init__(self) -> None:
        knots, values = self.knots, self.values
        if knots.ndim != 1 or values.ndim != 1:
            raise ValueError("knots and values must be one-dimensional")
        if knots.size == 0:
            raise ValueError("table must contain at least one knot")
        if knots.size != values.size:
            raise ValueError(
                f"knots and values differ in length: {knots.size} vs {values.size}"
            )
        object.__setattr__(self, "k0", _real("k0", self.k0, at_least=0))
        if not np.isfinite(knots).all():
            raise ValueError("knots must be finite")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if knots[0] < self.k0:
            raise ValueError(f"first knot {knots[0].item()} lies below k0={self.k0}")
        (stalls,) = np.nonzero(knots[1:] <= knots[:-1])
        if stalls.size:
            a, b = knots[stalls[0]:stalls[0] + 2].tolist()
            raise ValueError(f"knots must be strictly increasing, got {a} then {b}")
        (negative,) = np.nonzero(values < 0.0)
        if negative.size:
            raise ValueError(f"values must be nonnegative, got {values[negative[0]].item()}")
        with np.errstate(over="ignore"):  # a + slack * a is inf near the float max
            (rises,) = np.nonzero(values[1:] > values[:-1] + _MONOTONE_SLACK * values[:-1])
        if rises.size:
            a, b = values[rises[0]:rises[0] + 2].tolist()
            raise ValueError(f"values must be nonincreasing, got {a} then {b}")

    def __len__(self) -> int:
        return self.knots.size

    def __repr__(self) -> str:
        first, last = self.knots[[0, -1]].tolist()
        return f"PsiTable({len(self)} knots on [{first}, {last}], k0={self.k0})"

    def evaluate(self, k: float) -> float:
        """Value at the largest knot <= k (right-continuous step)."""
        if k < self.knots[0]:
            raise ValueError(f"level {k} is below the first knot {self.knots[0].item()}")
        return self.values[np.searchsorted(self.knots, k, side="right") - 1].item()


# --------------------------------------------------------------------------
# pair strategies and checks
# --------------------------------------------------------------------------
class AllKnotPairs:
    """Every ordered knot pair (h, k) with h > k.

    Pairs come row by row, k = knots[i] with h = knots[j] for j > i.
    :func:`check_hypothesis` checks them by an exact branch-and-bound that
    reports what checking every pair reports.
    """


class Doubling:
    """Only the pairs (h, k) = (2k, k); psi(2k) uses the step convention.

    ``pair_arrays(table)`` returns them as one batch (h, k, psi_h, psi_k).
    """

    def pair_arrays(self, table: PsiTable) -> Tuple[np.ndarray, ...]:
        knots, values = table.knots, table.values
        with np.errstate(over="ignore"):
            h = 2.0 * knots
        keep = (h <= knots[-1]) & (h > knots)
        psi_h = values[np.searchsorted(knots, h[keep], side="right") - 1]
        return h[keep], knots[keep], psi_h, values[keep]


def _scan(log_ratios: np.ndarray) -> Tuple[np.ndarray, int, Optional[int]]:
    """Ratios exp(log_ratios), computed in place, with NaN read as ratio 0.

    A NaN log ratio comes from 0/0 (-inf - (-inf)) or, in a tile of the
    all-pairs check, from log(h - k) at an entry with h < k.  Returns the
    ratios, the flat index of the first largest one and the flat index of
    the first one above 1 (None if there is none).
    """
    np.fmax(log_ratios, -np.inf, out=log_ratios)
    ratios = np.exp(log_ratios, out=log_ratios)
    worst = int(ratios.argmax())
    over = int((ratios > 1.0).argmax()) if ratios.flat[worst] > 1.0 else None
    return ratios, worst, over


def _log_sum(x: np.ndarray, y) -> np.ndarray:
    """log(exp(x) + exp(y)) as max(x, y) + log1p(exp(-|x - y|)).

    ``x`` is an array of the broadcast shape and is overwritten.  The
    log1p term is capped at log 2, which is its value for x = y and turns
    the NaN of x = y = +-inf into log 2, so that case keeps its infinity
    as with ``np.logaddexp``.
    """
    top = np.maximum(x, y)
    term = np.subtract(x, y, out=x)
    np.abs(term, out=term)
    np.negative(term, out=term)
    np.exp(term, out=term)
    np.log1p(term, out=term)
    np.fmin(term, _LOG2, out=term)
    top += term
    return top


def _knot_logs(h, lhs, base, c1: float, A: float, B: float, C: float):
    """Per-knot terms of the pair kernel, taken once per knot.

    Returns ``(h_terms, k_terms)``: h_terms = (log lhs - log c1, a) with
    a = A log h, one per h, and k_terms = (C log base, b) with
    b = (B - C) log base (b = -inf where base = 0), one per k.  With
    B = C, b is the scalar 0.
    """
    log_base = np.log(base)
    log_lhs = np.log(lhs) - math.log(c1)
    if B == C:  # where base = 0 the term C log base is -inf
        b = 0.0
    else:
        b = (B - C) * log_base
        b[base == 0.0] = -math.inf
    return (log_lhs, A * np.log(h)), (C * log_base, b)


def _pair_logs(h, k, h_terms, k_terms, D: float) -> np.ndarray:
    """Log ratios log lhs - log(c1 (h^A base^B + base^C) / (h-k)^D).

    ``h`` and ``h_terms`` (see :func:`_knot_logs`) broadcast against ``k``
    and ``k_terms``.  The log of the right-hand sum is
    C log base + :func:`_log_sum` (a + b, 0), which holds over the whole
    float range; with B = C the log-sum is one per h.  Per pair the
    kernel computes a + b, its log-sum, h - k, its log and the sum of the
    terms; an entry with h <= k reads NaN or -inf.
    """
    log_lhs, a = h_terms
    c_log_base, b = k_terms
    log_sum = _log_sum(np.add(a, b), 0.0)
    log_ratios = np.subtract(h, k)
    np.log(log_ratios, out=log_ratios)
    log_ratios *= D
    log_ratios -= log_sum
    log_ratios -= c_log_base
    log_ratios += log_lhs
    return log_ratios


def _pair_scan(
    h, k, lhs, base, c1: float, A: float, B: float, C: float, D: float
) -> Tuple[np.ndarray, int, Optional[int]]:
    """:func:`_scan` of lhs / (c1 (h^A base^B + base^C) / (h-k)^D) over pairs.

    ``h``, ``k``, ``lhs`` and ``base`` are 1-D arrays of one length, one
    pair h > k per entry.  The per-knot terms come from :func:`_knot_logs`
    and the log ratios from :func:`_pair_logs`.  Where base = 0 the term
    C log base = -inf decides, so 0/0 reads 0 and positive/0 reads inf.
    Values must be nonnegative and h positive.  The numpy error state is
    set here, once for the whole batch.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_terms, k_terms = _knot_logs(h, lhs, base, c1, A, B, C)
        return _scan(_pair_logs(h, k, h_terms, k_terms, D))


class CheckReport(Record):
    """Result of verifying the level-set inequality on sampled pairs.

    ``max_ratio`` is the maximum of lhs/rhs over pairs (<= 1 means the
    inequality holds on the sample); ``worst_pair`` is the first (h, k)
    attaining it; ``first_violation`` is the first sampled pair with
    ratio > 1, or None.  ``pairs_evaluated`` is the number of pairs whose
    ratio was computed: ``pair_count`` for :class:`Doubling`, at most
    that for :class:`AllKnotPairs`, whose check skips pairs that cannot
    change the result.
    """

    max_ratio: float
    passed: bool
    worst_pair: Tuple[float, float]
    pair_count: int
    first_violation: Optional[Tuple[float, float]]
    pairs_evaluated: int


def _check_origin(table: PsiTable, hyp: DecayHypothesis) -> None:
    if table.k0 < hyp.k0:
        raise ValueError(f"table origin k0={table.k0} lies below hypothesis k0={hyp.k0}")


def _abs_max(x) -> float:
    """Largest finite |x|, or 0.0 where no entry is finite."""
    x = np.abs(x)
    return float(x.max(initial=0.0, where=np.isfinite(x)))


def _bound_margin(knots, h_terms, k_terms, D: float) -> float:
    """Rounding margin of the tile bounds of :func:`_all_pairs_check`.

    A bound and a pair's log ratio add the same four terms in the same
    order, each term of the bound on the safe side of the pair's, except
    that numpy's log, exp and log1p are not guaranteed to be monotone.
    Their rounding, a few ulps of each term, stays below 1e-12 times the
    sum of the largest magnitudes that the terms take on the table plus
    one: D |log(h - k)| (h - k lies between the smallest knot gap and
    the span), the log-sum term (at most max(a + b, 0) + log 2),
    C |log psi(k)| and |log psi(h) - log c1|.  The margin is inf, and
    nothing is pruned, where a term leaves the float range.
    """
    log_lhs, a = h_terms
    c_log_base, b = k_terms
    smallest_gap = (knots[1:] - knots[:-1]).min()
    log_gap = max(abs(math.log(smallest_gap)), abs(math.log(knots[-1] - knots[0])))
    total = (
        1.0 + D * log_gap + max(a.max() + np.max(b), 0.0) + _LOG2
        + _abs_max(c_log_base) + _abs_max(log_lhs)
    )
    return _BOUND_MARGIN * total if total < math.inf else math.inf


def _all_pairs_check(table: PsiTable, hyp: DecayHypothesis) -> CheckReport:
    """Exact branch-and-bound over the pairs of :class:`AllKnotPairs`.

    The report is that of checking every pair in row-major order, bit for
    bit, except that ``pairs_evaluated`` counts only the pairs of the
    tiles computed.  The table has at least two knots.

    The knots are cut into runs of ``_TILE``; a tile holds the pairs with
    k in one run and h in another.  Over a tile the terms of the log
    ratio are monotone in h, because A, D > 0 and the knots strictly
    increase, and taken at their extremes in k: D log(h - k) is largest
    at the last h and the first k, -log(1 + e^(a + b)) at the first h and
    the smallest b, and -C log psi(k) at the smallest C log psi(k);
    log psi(h) - log c1 is taken at its largest over the run (values may
    rise by the table's slack).
    :func:`_pair_logs` fed these tile-extreme per-knot terms bounds every
    log ratio of the tile from above, up to a rounding margin
    (:func:`_bound_margin`) that covers numpy's log, log1p and exp, which
    are not guaranteed to be monotone.  A tile whose psi(h) are all 0
    reads 0 on every pair and is skipped.

    The tile of the largest bound is evaluated first; its largest ratio
    is a level the maximum reaches.  Then every tile whose bound reaches
    log of that level less the margin is evaluated: no skipped pair can
    reach the maximum, so every pair attaining it is evaluated, and the
    first of them in row-major order is kept.  If the maximum is above
    1, the other tiles whose bound reaches -margin are evaluated in the
    order of their runs of k, up to the run that holds the first
    violation found.  Bounds go in blocks of about ``_BATCH_PAIRS``
    tiles and ratios in batches of about ``_BATCH_PAIRS`` pairs, so
    memory stays linear in the table size.  Where the margin is inf, every
    tile with a pair h > k and a positive psi(h) is evaluated.
    """
    knots, values = table.knots, table.values
    n = knots.size
    D = hyp.D
    h_terms, k_terms = _knot_logs(knots, values, values, hyp.c1, hyp.A, hyp.B, hyp.C)
    margin = _bound_margin(knots, h_terms, k_terms, D)
    tiles = -(-n // _TILE)
    first = np.arange(tiles) * _TILE
    last = np.minimum(first + _TILE - 1, n - 1)
    run = np.arange(_TILE)

    def runs(terms, pads):
        """Per-knot terms stacked as (terms, tiles, _TILE) runs, padded with ``pads``."""
        stacked = np.empty((len(terms), tiles * _TILE))
        for row, x, pad in zip(stacked, terms, pads):
            row[:n] = x
            row[n:] = pad
        return stacked.reshape(len(terms), tiles, _TILE)

    # padding reads h = -inf and k = +inf, so h - k = -inf gives ratio 0; a scalar
    # b (B = C) is the same for every knot and stays out of the k runs
    log_lhs, a = h_terms
    c_log_base, b = k_terms
    h_runs = runs((knots, log_lhs, a), (-math.inf, -math.inf, 0.0))
    if np.ndim(b):
        k_runs = runs((knots, c_log_base, b), (math.inf, 0.0, 0.0))
    else:
        k_runs = runs((knots, c_log_base), (math.inf, 0.0))
    h_tile = (np.maximum.reduceat(log_lhs, first), a[first])
    k_tile = tuple(np.minimum.reduceat(x, first) if np.ndim(x) else x for x in k_terms)
    zero = h_tile[0] == -math.inf

    max_ratio, worst_key, violation, evaluated = 0.0, 1, None, 0

    def evaluate(g, t) -> None:
        """Ratios of the tiles (k in run g[c], h in run t[c]), in one batch.

        Pairs are keyed row * n + column.  The tiles come sorted by g,
        so the first entry of the batch where a condition holds lies in
        the first run of k to hold one, and that run's tiles, read row
        by row, give the first key.
        """
        nonlocal max_ratio, worst_key, violation, evaluated
        rows, cols = first[g, None] + run, first[t, None] + run
        evaluated += int(np.maximum(last[t, None] - np.maximum(cols[:, :1], rows + 1) + 1, 0).sum())
        h, *h_side = h_runs[:, t, None]
        k, *k_side = k_runs[:, g, :, None]
        if len(k_side) == 1:  # B = C: the scalar b
            k_side.append(b)
        ratios, worst, over = _scan(_pair_logs(h, k, h_side, k_side, D))

        def first_key(flat: int, holds) -> int:
            lo = flat // _TILE**2
            hi = int(g.searchsorted(g[lo], "right"))
            i, tile, j = np.unravel_index(
                holds(ratios[lo:hi]).transpose(1, 0, 2).argmax(), (_TILE, hi - lo, _TILE)
            )
            return int(rows[lo + tile, i] * n + cols[lo + tile, j])

        top = float(ratios.flat[worst])
        if top > max_ratio or top == max_ratio > 0.0:
            key = first_key(worst, lambda r: r == top)
            if top > max_ratio or key < worst_key:
                max_ratio, worst_key = top, key
        if over is not None:
            key = first_key(over, lambda r: r > 1.0)
            violation = key if violation is None else min(violation, key)

    batch = max(1, _BATCH_PAIRS // _TILE**2)
    block = max(1, _BATCH_PAIRS // tiles)
    for g0 in range(0, tiles, block):
        groups = np.arange(g0, min(g0 + block, tiles))
        found = violation
        bound = _pair_logs(
            knots[last], knots[first[groups], None], h_tile,
            tuple(x[groups, None] if np.ndim(x) else x for x in k_tile), D,
        )
        bound[:, zero] = -math.inf
        bound[np.isnan(bound)] = math.inf  # a bound that is not a number prunes nothing
        bound[last <= first[groups, None]] = -math.inf  # no pair h > k
        top = int(bound.argmax())
        if bound.flat[top] == -math.inf:
            continue
        evaluate(groups[[top // tiles]], np.array([top % tiles]))
        bound.flat[top] = -math.inf
        live = bound > -math.inf
        keep = live & (bound >= _log(math.nextafter(max_ratio, 0.0)) - margin)
        g, t = np.divmod(np.flatnonzero(keep), tiles)
        for start in range(0, g.size, batch):
            evaluate(g0 + g[start:start + batch], t[start:start + batch])
        if found is not None or max_ratio <= 1.0:
            continue
        g, t = np.divmod(np.flatnonzero(live & ~keep & (bound >= -margin)), tiles)
        g += g0
        start, step = 0, 1
        while True:
            # later runs of k hold only later pairs than the first violation found
            stop = g.size if violation is None else g.searchsorted(violation // n // _TILE, "right")
            if start >= stop:
                break
            evaluate(g[start:min(start + step, stop)], t[start:min(start + step, stop)])
            start, step = start + step, min(2 * step, batch)
    row, col = divmod(worst_key, n)
    return CheckReport(
        max_ratio=max_ratio,
        passed=max_ratio <= 1.0,
        worst_pair=(knots[col].item(), knots[row].item()),
        pair_count=n * (n - 1) // 2,
        first_violation=None if violation is None else (
            knots[violation % n].item(), knots[violation // n].item()
        ),
        pairs_evaluated=evaluated,
    )


def check_hypothesis(
    table: PsiTable, hyp: DecayHypothesis, strategy
) -> CheckReport:
    """Check the inequality psi(h) <= c1 (h^A psi(k)^B + psi(k)^C)/(h-k)^D.

    :class:`AllKnotPairs` is checked by an exact branch-and-bound
    (``_all_pairs_check``) that reports what checking every pair in
    row-major order reports, except that ``pairs_evaluated`` counts only
    the pairs computed.  Any other strategy, such as :class:`Doubling`,
    returns its pairs as one batch of 1-D arrays from ``pair_arrays(table)``
    for one :func:`_pair_scan`; either path sets the numpy error state once.
    "First" refers to the strategy's pair order.  Ratios are
    lhs/rhs per pair, computed from logs, with log h, log psi(h) and
    log psi(k) taken once per knot: 0/0 counts as 0 (the inequality is
    trivially satisfied), positive/0 as +inf, and a ratio beyond the
    float range as +inf.  Raises :class:`ValueError` when the table lies
    below the hypothesis origin or the strategy produces no pairs.
    """
    _check_origin(table, hyp)
    no_pairs = "pair strategy produced no pairs on this table"
    if isinstance(strategy, AllKnotPairs):
        if len(table) < 2:
            raise ValueError(no_pairs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _all_pairs_check(table, hyp)
    h, k, psi_h, psi_k = strategy.pair_arrays(table)
    if h.size == 0:
        raise ValueError(no_pairs)
    ratios, worst, over = _pair_scan(h, k, psi_h, psi_k, hyp.c1, hyp.A, hyp.B, hyp.C, hyp.D)
    max_ratio = float(ratios[worst])
    return CheckReport(
        max_ratio=max_ratio,
        passed=max_ratio <= 1.0,
        worst_pair=(float(h[worst]), float(k[worst])),
        pair_count=h.size,
        first_violation=None if over is None else (float(h[over]), float(k[over])),
        pairs_evaluated=h.size,
    )


class EnvelopeReport(Record):
    """Result of comparing a table against the claimed envelope.

    ``max_ratio`` is the maximum of psi(knot)/envelope(knot); 0/0 counts
    as 0, positive/0 and ratios beyond the float range as +inf.
    ``first_violation`` is the first knot where the ratio exceeds 1, or
    None.
    """

    max_ratio: float
    passed: bool
    first_violation: Optional[float]


def check_envelope(
    table: PsiTable, hyp: DecayHypothesis, psi_at_k0: float
) -> EnvelopeReport:
    """Check the case's claimed envelope against every table knot.

    Each ratio is exp(log psi(knot) - log envelope(knot)), with the
    envelope's constants entering through their logs, so a knot far out
    in the tail does not underflow the envelope to 0.
    """
    _check_origin(table, hyp)
    knots, values = table.knots, table.values
    scale, log_factor = _envelope_logs(hyp, psi_at_k0, knots)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratios = np.log(values) - (np.log(scale) + log_factor)
        ratios, worst, over = _scan(log_ratios)
    max_ratio = float(ratios[worst])
    return EnvelopeReport(
        max_ratio=max_ratio,
        passed=max_ratio <= 1.0,
        first_violation=None if over is None else float(knots[over]),
    )


# --------------------------------------------------------------------------
# geometric recursion
# --------------------------------------------------------------------------
class GiustiResult(Record):
    """Iterates of x_{i+1} = c_bar m^i x_i^beta and the decay bound.

    ``xs`` is the tuple x_0, ..., x_steps.  ``premise_holds`` records
    whether x0 <= c_bar^{-1/(beta-1)} m^{-1/(beta-1)^2}, compared through
    logs; ``bound_holds`` whether every iterate satisfies
    x_i <= m^{-i/(beta-1)} x0 within 4 ulps; ``first_violation`` is the
    first index breaking the bound, or None.
    """

    xs: Tuple[float, ...]
    premise_holds: bool
    bound_holds: bool
    first_violation: Optional[int]


def giusti_recursion(
    c_bar: float, m: float, beta: float, x0: float, steps: int
) -> GiustiResult:
    """Iterate the geometric recursion and check the decay bound.

    The recursion is run with equality, x_{i+1} = c_bar * m**i * x_i**beta,
    which is the extremal trajectory of the recursive inequality.  The
    bound comparison allows 4 ulps of slack per step to absorb the
    rounding of the power evaluations.
    """
    c_bar = _real("c_bar", c_bar, above=0)
    m = _real("m", m, above=1)
    beta = _real("beta", beta, above=1)
    x0 = _real("x0", x0, at_least=0)
    if not _whole(steps):
        raise ValueError("steps must be an integer")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    log_threshold = -(math.log(c_bar) + math.log(m) / (beta - 1.0)) / (beta - 1.0)
    premise_holds = _log(x0) <= log_threshold
    xs = [x0]
    x = x0
    for i in range(int(steps)):
        try:
            x = c_bar * m**i * x**beta
        except OverflowError:
            x = math.inf
        xs.append(x)
    bound_holds = True
    first_violation: Optional[int] = None
    for i, xi in enumerate(xs):
        bound = m ** (-i / (beta - 1.0)) * x0
        slack = bound
        for _ in range(4):
            slack = math.nextafter(slack, math.inf)
        if xi > slack:
            bound_holds = False
            first_violation = i
            break
    return GiustiResult(
        xs=tuple(xs),
        premise_holds=premise_holds,
        bound_holds=bound_holds,
        first_violation=first_violation,
    )


def level_sequence(
    hyp: DecayHypothesis, constants: EnvelopeConstants, count: int
) -> list:
    """First `count` levels of the proof's iteration sequence.

    ExponentialDecay: k_s = k0 + tau * s**(D/(D-A)), s = 0, 1, ...;
    Vanishing: k_i = 2L * (1 - 2**(-i-1)), increasing from L toward 2L.
    """
    if not _whole(count):
        raise ValueError("count must be an integer")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    count = int(count)
    tag = constants.case.tag
    if tag is CaseTag.EXPONENTIAL_DECAY:
        power = hyp.D / (hyp.D - hyp.A)
        return [hyp.k0 + constants.tau * float(s) ** power for s in range(count)]
    if tag is CaseTag.VANISHING:
        return [2.0 * constants.L * (1.0 - 2.0 ** (-i - 1)) for i in range(count)]
    raise WrongCaseError(
        f"level_sequence requires ExponentialDecay or Vanishing, got {tag.value}"
    )
