"""Weak Marcinkiewicz-space machinery for discretized radial fields.

The central object is the superlevel-set distribution function

    mu(k) = |{ x : |f(x)| >= k }|,

sampled on a grid of levels.  A field belongs to the weak space M^r
exactly when sup_k k^r mu(k) is finite; the module estimates that
supremum, fits power-law and stretched-exponential tails to mu by
ordinary least squares, tests summability of sum_k k^{r-1} mu(k), and
checks the weak-type integral inequality

    int_E |f| dx <= C |E|^{1 - 1/r}

on measurable subsets E.  The model field throughout is the radial
power source f(x) = scale * |x|^{-n/r}, discretized by exact cell
averages on a radial grid; its distribution function is known in
closed form, which makes it the natural oracle for everything above.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "MIN_FIT_POINTS",
    "DistributionProfile",
    "FitResult",
    "InsufficientPointsError",
    "IntegralBoundCheck",
    "PowerSource",
    "SummabilityResult",
    "WeakNormEstimate",
    "distribution_function",
    "exp_integrability_fit",
    "integral_bound_check",
    "power_source",
    "summability_test",
    "tail_exponent_fit",
    "unit_ball_volume",
    "weak_norm_estimate",
]

#: Minimum number of positive-measure sample points required by the fits.
MIN_FIT_POINTS = 8

#: Relative slack applied when the integral bound is checked at equality.
_BOUND_SLACK = 1e-9

#: Relative slack allowed in the monotonicity check of a profile.
_MONOTONE_SLACK = 1e-12


class InsufficientPointsError(ValueError):
    """Raised when a tail fit has fewer usable points than ``MIN_FIT_POINTS``."""


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in ``n`` dimensions, pi^{n/2} / Gamma(n/2 + 1).

    From n = 342 on, where Gamma(n/2 + 1) overflows, the volume is
    computed through ``math.lgamma``; a dimension whose volume underflows
    to 0 raises :class:`ValueError`.
    """
    if n != int(n) or n < 1:
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        volume = math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0))
    if volume == 0.0:
        raise ValueError(f"the unit ball volume underflows to 0 in dimension n = {n}")
    return volume


# --------------------------------------------------------------------------
# distribution profiles
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class DistributionProfile:
    """Distribution function mu(k) = |{ |f| >= k }| sampled at ``levels``.

    ``measures[i]`` is the measure of the superlevel set at ``levels[i]``
    (ties at the level are counted in, so the map is right-continuous from
    below).  ``total_measure`` is the measure of the whole domain.
    """

    levels: np.ndarray
    measures: np.ndarray
    total_measure: float

    def __post_init__(self) -> None:
        levels = np.array(self.levels, dtype=float)
        measures = np.array(self.measures, dtype=float)
        levels.setflags(write=False)
        measures.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "total_measure", float(self.total_measure))
        if levels.ndim != 1 or measures.ndim != 1:
            raise ValueError("levels and measures must be one-dimensional")
        if levels.shape != measures.shape:
            raise ValueError("levels and measures must have equal length")
        if not (np.isfinite(levels).all() and np.isfinite(measures).all()):
            raise ValueError("levels and measures must be finite")
        if levels.size and levels.min() < 0.0:
            raise ValueError("levels must be nonnegative")
        if (levels[1:] <= levels[:-1]).any():
            raise ValueError("levels must be strictly increasing")
        if measures.size and measures.min() < 0.0:
            raise ValueError("measures must be nonnegative")
        rises = measures[1:] - measures[:-1]
        if (rises > _MONOTONE_SLACK * np.maximum(measures[:-1], 1.0)).any():
            raise ValueError("measures must be nonincreasing in the level")
        if not math.isfinite(self.total_measure) or self.total_measure < 0.0:
            raise ValueError("total_measure must be finite and nonnegative")
        if measures.size and measures[0] > self.total_measure * (1.0 + _MONOTONE_SLACK):
            raise ValueError("measures cannot exceed the total measure")


class _LevelIndex:
    """Cells of a weighted field sorted once by decreasing |value|.

    ``keys`` are the sorted -|v| and ``prefix[i]`` is the weight of the i
    largest cells, so the measure of {|v| >= k} is the prefix at the number
    of keys <= -k, which searchsorted(..., "right") returns.  Any level
    grid is then read off in O(L log N); the index costs 16 bytes a cell.
    When |v| is already nonincreasing, as for every radially decreasing
    field, one comparison pass finds the stable order to be the identity:
    ``keys`` is -|v| itself and ``prefix`` the plain cumulative weight,
    bitwise the same as through the sort, with no order array or gathers.
    """

    __slots__ = ("keys", "prefix")

    def __init__(self, values, weights):
        vals = np.asarray(values, dtype=float)
        w = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or w.ndim != 1:
            raise ValueError("values and weights must be one-dimensional")
        if vals.shape != w.shape:
            raise ValueError("values and weights must have equal length")
        if not (np.isfinite(vals).all() and np.isfinite(w).all()):
            raise ValueError("values and weights must be finite")
        if w.size and w.min() < 0.0:
            raise ValueError("weights must be nonnegative")
        neg = np.abs(vals)
        np.negative(neg, out=neg)
        self.prefix = np.zeros(vals.size + 1)
        if (neg[1:] >= neg[:-1]).all():
            self.keys = neg
            np.cumsum(w, out=self.prefix[1:])
            return
        order = np.argsort(neg, kind="stable")
        self.keys = neg[order]
        del neg  # freed before the gathered weights are taken: a lower peak
        np.cumsum(w[order], out=self.prefix[1:])

    def measures(self, levels) -> np.ndarray:
        """Measures of {|v| >= k} for an array of levels k in any order, repeats allowed."""
        return self.prefix[np.searchsorted(self.keys, np.negative(levels), side="right")]

    def profile(self, levels) -> DistributionProfile:
        lv = np.asarray(levels, dtype=float)
        return DistributionProfile(levels=lv, measures=self.measures(lv), total_measure=self.prefix[-1])


def distribution_function(values, weights, levels) -> DistributionProfile:
    """Distribution function of a weighted cell field at the given levels.

    ``values`` and ``weights`` describe a piecewise-constant field: cell i
    carries value ``values[i]`` on a set of measure ``weights[i]``.  The
    returned profile records, for each level k, the total weight of the
    cells with ``|values[i]| >= k``.  The cells are sorted by |value|,
    except when ``|values|`` is already nonincreasing (a radially
    decreasing field listed outward): then one comparison pass stands in
    for the sort, and L levels cost O(N + L log N).
    """
    return _LevelIndex(values, weights).profile(levels)


# --------------------------------------------------------------------------
# weak norm
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class WeakNormEstimate:
    """Estimate of the M^r quasi-norm^r, sup_k k^r mu(k), over a level grid."""

    r: float
    norm_estimate: float
    attained_at: Optional[float]


def weak_norm_estimate(prof: DistributionProfile, r: float) -> WeakNormEstimate:
    """Largest value of ``k^r * mu(k)`` over the profile's level grid.

    The supremum over a sub-grid of levels lower-bounds the weak norm of
    the sampled field and increases under level refinement.  ``attained_at``
    is the first level realizing the maximum, or None when the field
    vanishes on every sampled level.
    """
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError("r must be positive and finite")
    if prof.levels.size == 0:
        return WeakNormEstimate(r=r, norm_estimate=0.0, attained_at=None)
    contributions = prof.levels**r * prof.measures
    best = int(np.argmax(contributions))
    value = float(contributions[best])
    if value <= 0.0:
        return WeakNormEstimate(r=r, norm_estimate=0.0, attained_at=None)
    return WeakNormEstimate(r=r, norm_estimate=value, attained_at=float(prof.levels[best]))


# --------------------------------------------------------------------------
# tail fits
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares line fit with its coefficient of determination."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _ols_line(x: np.ndarray, y: np.ndarray) -> FitResult:
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        n_points=int(x.size),
    )


def tail_exponent_fit(prof: DistributionProfile, k_min: float, k_max: float) -> FitResult:
    """Fit ``ln mu = slope * ln k + intercept`` on the window [k_min, k_max].

    Only levels with positive measure enter the regression; fewer than
    ``MIN_FIT_POINTS`` usable points raises ``InsufficientPointsError``.
    A power-law tail mu ~ k^s yields slope s with r_squared close to one.
    """
    k_min = float(k_min)
    k_max = float(k_max)
    if not (k_min > 0.0 and k_max > k_min):
        raise ValueError("need 0 < k_min < k_max")
    sel = (prof.levels >= k_min) & (prof.levels <= k_max) & (prof.measures > 0.0)
    count = int(np.count_nonzero(sel))
    if count < MIN_FIT_POINTS:
        raise InsufficientPointsError(
            f"tail fit needs at least {MIN_FIT_POINTS} positive points, got {count}"
        )
    return _ols_line(np.log(prof.levels[sel]), np.log(prof.measures[sel]))


def exp_integrability_fit(prof: DistributionProfile, theta: float, k_min: float) -> FitResult:
    """Fit ``ln mu = slope * k^theta + intercept`` on levels >= k_min.

    A stretched-exponential tail mu ~ exp(-c k^theta) yields slope -c with
    r_squared close to one; power-law tails score visibly lower.  Fewer
    than ``MIN_FIT_POINTS`` usable points raises ``InsufficientPointsError``.
    """
    theta = float(theta)
    k_min = float(k_min)
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    if not (k_min >= 0.0 and math.isfinite(k_min)):
        raise ValueError("k_min must be finite and nonnegative")
    sel = (prof.levels >= k_min) & (prof.measures > 0.0)
    count = int(np.count_nonzero(sel))
    if count < MIN_FIT_POINTS:
        raise InsufficientPointsError(
            f"exponential fit needs at least {MIN_FIT_POINTS} positive points, got {count}"
        )
    return _ols_line(prof.levels[sel] ** theta, np.log(prof.measures[sel]))


# --------------------------------------------------------------------------
# summability
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SummabilityResult:
    """Partial sums of sum_{k=1}^{K} k^{r-1} mu(k) and a convergence verdict."""

    r: float
    k_top: int
    partial_sums: np.ndarray
    convergent: bool


def summability_test(prof: DistributionProfile, r: float, k_top: int) -> SummabilityResult:
    """Partial sums S_K = sum_{k=1}^{K} k^{r-1} mu(k) for integer levels k.

    mu(k) is read off the profile by the step convention: the measure
    recorded at the largest sampled level <= k (``total_measure`` when k
    lies below every sampled level).  The sum is declared convergent when
    the last decade (k_top/10, k_top] contributes less than 1% of S_{k_top}.
    """
    r = float(r)
    k_top = int(k_top)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError("r must be positive and finite")
    if k_top < 10:
        raise ValueError("k_top must be at least 10")
    ks = np.arange(1, k_top + 1, dtype=float)
    if prof.levels.size == 0:
        mus = np.full(k_top, prof.total_measure)
    else:
        idx = np.searchsorted(prof.levels, ks, side="right") - 1
        mus = np.where(
            idx >= 0, prof.measures[np.maximum(idx, 0)], prof.total_measure
        )
    partial_sums = np.cumsum(ks ** (r - 1.0) * mus)
    partial_sums.setflags(write=False)
    total = float(partial_sums[-1])
    if total <= 0.0:
        convergent = True
    else:
        tail = total - float(partial_sums[k_top // 10 - 1])
        convergent = tail < 0.01 * total
    return SummabilityResult(r=r, k_top=k_top, partial_sums=partial_sums, convergent=convergent)


# --------------------------------------------------------------------------
# weak-type integral bound
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class IntegralBoundCheck:
    """Outcome of the weak-type bound int_E |f| <= norm_const |E|^{1-1/r}."""

    lhs: float
    rhs: float
    ratio: float
    passed: bool


def integral_bound_check(values, weights, mask, r: float, norm_const: float) -> IntegralBoundCheck:
    """Check int_E |f| dx <= norm_const * |E|^{1 - 1/r} on the set E = mask.

    The worst admissible sets for a field in M^r realize the bound with
    equality, so ``passed`` allows a relative slack of 1e-9.  ``ratio`` is
    lhs/rhs, with the convention 0 for an empty (or null) set and +inf
    when the right-hand side vanishes while the left does not.
    """
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    chosen = np.asarray(mask, dtype=bool)
    if vals.ndim != 1 or vals.shape != w.shape or vals.shape != chosen.shape:
        raise ValueError("values, weights and mask must share one shape")
    r = float(r)
    norm_const = float(norm_const)
    if not math.isfinite(r) or r <= 1.0:
        raise ValueError("r must exceed 1")
    if not math.isfinite(norm_const) or norm_const < 0.0:
        raise ValueError("norm_const must be finite and nonnegative")
    lhs = float(np.sum(np.abs(vals[chosen]) * w[chosen]))
    measure = float(np.sum(w[chosen]))
    rhs = norm_const * measure ** (1.0 - 1.0 / r)
    if lhs == 0.0:
        ratio = 0.0
    elif rhs == 0.0:
        ratio = math.inf
    else:
        ratio = lhs / rhs
    return IntegralBoundCheck(lhs=lhs, rhs=rhs, ratio=ratio, passed=ratio <= 1.0 + _BOUND_SLACK)


# --------------------------------------------------------------------------
# radial power source
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PowerSource:
    """Radial field f(x) = scale * |x|^{-n/r} discretized by exact cell averages.

    ``cell_values[i]`` is the average of f over the spherical shell between
    ``nodes[i]`` and ``nodes[i+1]``; f is the canonical unbounded member of
    the weak space M^r (and of no better Lebesgue space than L^{r-eps}).
    """

    nodes: np.ndarray
    n: int
    r: float
    scale: float
    cell_values: np.ndarray
    total_measure: float

    def analytic_distribution(self, t: float) -> float:
        """Closed-form |{f > t}| = min(|Omega|, omega_n (scale/t)^r)."""
        t = float(t)
        if t <= 0.0:
            return self.total_measure
        if self.scale == 0.0:
            return 0.0
        omega = unit_ball_volume(self.n)
        return min(self.total_measure, omega * (self.scale / t) ** self.r)


def power_source(nodes, n: int, r: float, scale: float) -> PowerSource:
    """Discretize f(x) = scale * |x|^{-n/r} on a radial grid by cell averages.

    The average over the shell [r1, r2] is computed in closed form:

        avg = scale * (n/m) * (r2^m - r1^m) / (r2^n - r1^n),   m = n (1 - 1/r),

    which is exact (m > 0 because r > 1, so the origin cell is integrable).
    """
    omega = unit_ball_volume(n)
    n = int(n)
    nodes = np.array(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("nodes must be a one-dimensional grid with >= 2 entries")
    if not np.isfinite(nodes).all():
        raise ValueError("nodes must be finite")
    if nodes[0] < 0.0 or (nodes[1:] <= nodes[:-1]).any():
        raise ValueError("nodes must be nonnegative and strictly increasing")
    r = float(r)
    scale = float(scale)
    if not math.isfinite(r) or r <= 1.0:
        raise ValueError("r must exceed 1")
    if not math.isfinite(scale) or scale < 0.0:
        raise ValueError("scale must be finite and nonnegative")
    m = n * (1.0 - 1.0 / r)
    # scale * (n/m) * diff(nodes**m) / diff(nodes**n), in place and in that order
    powers_m = nodes**m
    cell_values = np.subtract(powers_m[1:], powers_m[:-1])
    np.multiply(scale * (n / m), cell_values, out=cell_values)
    powers_n = nodes**n
    shells = np.subtract(powers_n[1:], powers_n[:-1], out=powers_m[:-1])
    np.divide(cell_values, shells, out=cell_values)
    nodes.setflags(write=False)
    cell_values.setflags(write=False)
    total = omega * float(nodes[-1] ** n - nodes[0] ** n)
    return PowerSource(
        nodes=nodes, n=n, r=r, scale=scale, cell_values=cell_values, total_measure=total
    )
