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
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from ._records import _MONOTONE_SLACK, Record, _frozen, _keepable, _real, _whole

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

#: Cells per block of the O(N) passes of ``power_source`` and the level
#: index: a call allocates only the arrays it returns or keeps, plus scratch
#: of a few blocks.  Chosen by a sweep on 2^18 cells (a 2-vCPU Xeon virtual
#: machine with 4 MiB of L2, numpy 2.4; fastest of 8 interleaved rounds):
#: power_source / distribution_function took 3300 / 872 us with blocks of
#: 2^11, 2877 / 642 at 2^12, 2687 / 527 at 2^13, 2470 / 465 at 2^14 and
#: 2404 / 444 at 2^15; 2^16 gained nothing more.  Below 2^15 the numpy calls
#: per block cost more, and a block array stays at 256 KiB.
_BLOCK = 2**15


class InsufficientPointsError(ValueError):
    """Raised when a tail fit has fewer usable points than ``MIN_FIT_POINTS``."""


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in ``n`` dimensions, pi^{n/2} / Gamma(n/2 + 1).

    From n = 342 on, where Gamma(n/2 + 1) overflows, the volume is
    computed through ``math.lgamma``; a dimension whose volume underflows
    to 0 raises :class:`ValueError`.
    """
    if not (_whole(n) and n >= 1):
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    try:
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    except OverflowError:
        volume = math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0))
    if volume == 0.0:
        raise ValueError(f"the unit ball volume underflows to 0 in dimension n = {n}")
    return volume


#: Cumulative sums of keepable weight arrays (see :func:`_cumulative`), by the
#: id of the array, each with the weak reference that drops it with the array.
_PREFIXES: Dict[int, Tuple[weakref.ref, np.ndarray]] = {}


def _cumulative(w: np.ndarray) -> np.ndarray:
    """Read-only [0, w[0], w[0] + w[1], ...], the running sum np.cumsum takes.

    For a :func:`_keepable` ``w`` the result is computed once and shared
    while ``w`` lives: its values cannot change, so neither can their sum.
    The weak reference's callback drops the entry before the id of ``w``
    can be reused.
    """
    keep = _keepable(w)
    if keep:
        entry = _PREFIXES.get(id(w))
        if entry is not None:
            return entry[1]
    prefix = np.empty(w.size + 1)
    prefix[0] = 0.0
    np.cumsum(w, out=prefix[1:])
    prefix.setflags(write=False)
    if keep:
        key = id(w)
        _PREFIXES[key] = (weakref.ref(w, lambda _, key=key: _PREFIXES.pop(key, None)), prefix)
    return prefix


def _float_range_error(radius: float, n: int) -> ValueError:
    return ValueError(f"shell measures leave the float range for radius = {float(radius)}, n = {n}")


def _weighted_powers(levels: np.ndarray, power: float, measures: np.ndarray) -> np.ndarray:
    """``levels ** power * measures``, through logs where that is not finite or is 0 from a
    positive measure (a zero measure adds 0); every finite nonzero product is kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        products = levels**power * measures
    off = ~(products < math.inf) | ((products == 0.0) & (measures > 0.0))  # NaN is off
    if off.any():
        mu = measures[off]
        with np.errstate(all="ignore"):
            products[off] = np.where(mu > 0.0, np.exp(power * np.log(levels[off]) + np.log(mu)), 0.0)
    return products


# --------------------------------------------------------------------------
# distribution profiles
# --------------------------------------------------------------------------
class DistributionProfile(Record, eq=False):
    """Distribution function mu(k) = |{ |f| >= k }| sampled at ``levels``.

    ``measures[i]`` is the measure of the superlevel set at ``levels[i]``
    (ties at the level are counted in, so the map is right-continuous from
    below).  ``total_measure`` is the measure of the whole domain.  Levels
    and measures follow :class:`Record`'s kept-array rule.
    """

    levels: np.ndarray
    measures: np.ndarray
    total_measure: float

    def __post_init__(self) -> None:
        levels, measures = self.levels, self.measures
        if levels.ndim != 1 or measures.ndim != 1:
            raise ValueError("levels and measures must be one-dimensional")
        if levels.shape != measures.shape:
            raise ValueError("levels and measures must have equal length")
        # levels rising strictly from a nonnegative first to a finite last one are finite
        rising = (levels[1:] > levels[:-1]).all()
        if levels.size and not (levels[0] >= 0.0 and levels[-1] < math.inf and rising
                                and measures.min() >= 0.0 and measures.max() < math.inf):  # NaN fails
            if not (np.isfinite(levels).all() and np.isfinite(measures).all()):
                raise ValueError("levels and measures must be finite")
            if levels.min() < 0.0:
                raise ValueError("levels must be nonnegative")
            if (levels[1:] <= levels[:-1]).any():
                raise ValueError("levels must be strictly increasing")
            raise ValueError("measures must be nonnegative")
        rises = measures[1:] - measures[:-1]
        if (rises > _MONOTONE_SLACK * np.maximum(measures[:-1], 1.0)).any():
            raise ValueError("measures must be nonincreasing in the level")
        object.__setattr__(self, "total_measure", _real("total_measure", self.total_measure, at_least=0))
        if measures.size and measures[0] > self.total_measure * (1.0 + _MONOTONE_SLACK):
            raise ValueError("measures cannot exceed the total measure")


class _LevelIndex:
    """Cells of a weighted field sorted once by decreasing |value|.

    ``keys`` are the sorted -|v| and ``prefix[i]`` is the weight of the i
    largest cells, so the measure of {|v| >= k} is the prefix at the number
    of keys <= -k, which searchsorted(..., "right") returns.  Any level
    grid is then read off in O(L log N).  When |v| is already
    nonincreasing, as for every radially decreasing field, the comparison
    pass that writes ``keys`` block by block finds the stable order to be
    the identity: ``keys`` is -|v| itself and ``prefix`` the plain
    cumulative weight, bitwise the same as through the sort, with no order
    array or gathers.  For keepable weights (a grid's ``cell_measures``)
    that prefix is shared (:func:`_cumulative`), so such an index costs its
    8 bytes a cell of keys.  Neither input is copied; ``keys`` and
    ``prefix`` are read-only.
    """

    __slots__ = ("keys", "prefix")

    def __init__(self, values, weights):
        vals = np.asarray(values, dtype=float)
        w = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or w.ndim != 1:
            raise ValueError("values and weights must be one-dimensional")
        if vals.shape != w.shape:
            raise ValueError("values and weights must have equal length")
        keys = np.empty(vals.size)
        ordered = True
        for start in range(0, vals.size, _BLOCK):
            block = keys[start:start + _BLOCK]
            np.abs(vals[start:start + _BLOCK], out=block)
            np.negative(block, out=block)
            if ordered:  # the block and the last key before it
                run = keys[max(start - 1, 0):start + _BLOCK]
                ordered = (run[1:] >= run[:-1]).all()
        order = None if ordered else np.argsort(keys, kind="stable")
        if order is not None:
            keys = keys[order]
        # NaN fails every order test and sorts last, -inf can only lead; min() propagates NaN
        if keys.size and not (keys[0] > -math.inf and keys[-1] <= 0.0 and w.min() >= 0.0):
            if not (np.isfinite(vals).all() and np.isfinite(w).all()):
                raise ValueError("values and weights must be finite")
            raise ValueError("weights must be nonnegative")
        prefix = _cumulative(w if order is None else w[order])
        # nonnegative weights sum to inf only through an inf weight or an overflow
        if prefix[-1] == math.inf and not np.isfinite(w).all():
            raise ValueError("values and weights must be finite")
        keys.setflags(write=False)
        self.keys = keys
        self.prefix = prefix

    def measures(self, levels) -> np.ndarray:
        """Measures of {|v| >= k} for an array of levels k in any order, repeats allowed."""
        return self.prefix[np.searchsorted(self.keys, np.negative(levels), side="right")]

    def profile(self, levels) -> DistributionProfile:
        lv = _frozen(levels)
        measures = self.measures(lv)
        measures.setflags(write=False)  # so the profile keeps it without a copy
        return DistributionProfile(levels=lv, measures=measures, total_measure=self.prefix[-1])


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
class WeakNormEstimate(Record):
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
    r = _real("r", r, above=0)
    if prof.levels.size == 0:
        return WeakNormEstimate(r=r, norm_estimate=0.0, attained_at=None)
    contributions = _weighted_powers(prof.levels, r, prof.measures)
    best = int(np.argmax(contributions))
    value = float(contributions[best])
    if value <= 0.0:
        return WeakNormEstimate(r=r, norm_estimate=0.0, attained_at=None)
    return WeakNormEstimate(r=r, norm_estimate=value, attained_at=float(prof.levels[best]))


# --------------------------------------------------------------------------
# tail fits
# --------------------------------------------------------------------------
class FitResult(Record):
    """Ordinary least squares line fit y = slope * x + intercept of ``n_points`` points.

    ``r_squared`` is 1 - ss_res / ss_tot, and 1 when every y is the same
    (ss_tot = 0).  All three numbers come from the closed-form sums of
    :func:`_ols_line`.
    """

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _ols_line(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Least squares line through the points (x, y), by the normal equations.

    The abscissae are scaled and centered first (Chan, Golub and LeVeque,
    "Algorithms for computing the sample variance", Am. Stat. 37, 1983):
    u = x / 2^e with 2^e the power of two just above max|x|, which is exact,
    and du = u - mean(u), with dy = y - mean(y).  Then no product overflows
    or underflows for any finite x, and a spread of x that is small next to
    x itself is not rounded away.  slope_u = du.dy / du.du,
    slope = slope_u / 2^e (a slope past the float range is an infinity) and
    intercept = mean(y) - slope_u mean(u).  ss_res sums the squares of the
    residuals dy - slope_u du, and ss_tot = dy.dy.  The sums run in
    ``np.longdouble`` (64-bit mantissas on x86-64): an intercept near 0 is
    the difference of two far larger terms, and it keeps its digits only
    when these carry more than double precision.  Abscissae that are all
    one float (du.du = 0) fix no slope: they raise
    ``InsufficientPointsError``.
    """
    exponent = math.frexp(float(np.abs(x).max()))[1]
    u = np.ldexp(x, -exponent).astype(np.longdouble)
    mean_u = u.sum() / x.size
    du = u - mean_u
    ss_u = du @ du
    if ss_u == 0.0:
        raise InsufficientPointsError(f"the {x.size} fit abscissae are all one float, {float(x[0])!r}")
    dy = y.astype(np.longdouble)
    mean_y = dy.sum() / y.size
    dy -= mean_y
    slope_u = (du @ dy) / ss_u
    try:
        slope = math.ldexp(float(slope_u), -exponent)
    except OverflowError:
        slope = math.copysign(math.inf, slope_u)
    residuals = dy - slope_u * du
    ss_tot = dy @ dy
    return FitResult(
        slope=slope,
        intercept=float(mean_y - slope_u * mean_u),
        r_squared=1.0 if ss_tot == 0.0 else float(1.0 - (residuals @ residuals) / ss_tot),
        n_points=int(x.size),
    )


def tail_exponent_fit(prof: DistributionProfile, k_min: float, k_max: float) -> FitResult:
    """Fit ``ln mu = slope * ln k + intercept`` on the window [k_min, k_max].

    Only levels with positive measure enter the regression; fewer than
    ``MIN_FIT_POINTS`` usable points raises ``InsufficientPointsError``,
    and so do levels whose logs are all one float (see :func:`_ols_line`).
    A power-law tail mu ~ k^s yields slope s with r_squared close to one.
    """
    k_min = _real("k_min", k_min, above=0)
    k_max = _real("k_max", k_max, above=k_min)
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
    than ``MIN_FIT_POINTS`` usable points raises ``InsufficientPointsError``,
    and so do levels whose k^theta are all one float.  The fit of
    :func:`_ols_line` holds over the whole float range of the levels.
    """
    theta = _real("theta", theta, above=0)
    if theta > 1.0:
        raise ValueError("theta must lie in (0, 1]")
    k_min = _real("k_min", k_min, at_least=0)
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
class SummabilityResult(Record, eq=False):
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
    r = _real("r", r, above=0)
    if not _whole(k_top):
        raise ValueError("k_top must be an integer")
    if k_top < 10:
        raise ValueError("k_top must be at least 10")
    k_top = int(k_top)
    ks = np.arange(1, k_top + 1, dtype=float)
    steps = np.concatenate(([prof.total_measure], prof.measures))
    mus = steps[np.searchsorted(prof.levels, ks, side="right")]
    partial_sums = np.cumsum(_weighted_powers(ks, r - 1.0, mus))
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
class IntegralBoundCheck(Record):
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
    r = _real("r", r, above=1)
    norm_const = _real("norm_const", norm_const, at_least=0)
    w = w[chosen]
    products = vals[chosen]
    np.abs(products, out=products)
    products *= w
    lhs = float(np.sum(products))
    measure = float(np.sum(w))
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
class PowerSource(Record, eq=False):
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
    The nodes follow :class:`Record`'s kept-array rule (a ``RadialGrid``'s are
    kept), applied before they are checked.  The cells
    are computed in blocks of ``_BLOCK``, straight into the returned array.
    A shell r2^n - r1^n past the float range raises ValueError, and else a
    cell average past it does, wherever in the grid either lies.
    """
    omega = unit_ball_volume(n)
    n = int(n)
    nodes = _frozen(nodes)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("nodes must be a one-dimensional grid with >= 2 entries")
    # strictly increasing from a nonnegative first to a finite last node: every node is finite
    if not (nodes[0] >= 0.0 and nodes[-1] < math.inf and (nodes[1:] > nodes[:-1]).all()):
        if not np.isfinite(nodes).all():
            raise ValueError("nodes must be finite")
        raise ValueError("nodes must be nonnegative and strictly increasing")
    r = _real("r", r, above=1)
    scale = _real("scale", scale, at_least=0)
    try:  # the largest power first, so that no power of a node overflows below
        span = float(nodes[-1]) ** n - float(nodes[0]) ** n
    except OverflowError:
        raise _float_range_error(nodes[-1], n) from None
    m = n * (1.0 - 1.0 / r)
    # scale * (n/m) * diff(nodes**m) / diff(nodes**n), in that order; an overflow is
    # reported only once every shell has passed its check
    cells = nodes.size - 1
    cell_values = np.empty(cells)
    overflow = False
    with np.errstate(over="raise"):
        try:  # scale * (n/m) as a numpy scalar, whose overflow raises too
            factor = np.float64(scale) * (n / m)
        except FloatingPointError:
            overflow = True
        for start in range(0, cells, _BLOCK):
            ends = nodes[start:start + _BLOCK + 1]
            powers = ends**m
            block = np.subtract(powers[1:], powers[:-1], out=cell_values[start:start + _BLOCK])
            powers = ends**n
            shells = np.subtract(powers[1:], powers[:-1], out=powers[:-1])
            if not shells.min() > 0.0:
                raise _float_range_error(nodes[-1], n)
            if not overflow:
                try:
                    np.multiply(factor, block, out=block)
                    np.divide(block, shells, out=block)
                except FloatingPointError:
                    overflow = True
    if overflow:
        raise ValueError(f"cell averages leave the float range for scale = {scale}, r = {r}")
    cell_values.setflags(write=False)
    return PowerSource(
        nodes=nodes, n=n, r=r, scale=scale, cell_values=cell_values, total_measure=omega * span
    )
