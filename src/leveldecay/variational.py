"""Radial minimizer of the noncoercive p-growth functional.

On the ball of radius R in n dimensions, the functional

    E(u) = int [ a(u) ((eps^2 + |u'|^2)^{p/2} - eps^p) - f u ] dx,
    a(s) = beta1 / (b + |s|)^{alpha p},

is discretized on a uniform radial grid: u is continuous piecewise
linear in the radius with zero boundary trace, the coefficient and the
source act through cell midpoint values, and every cell carries the
exact measure of its spherical shell.  The coefficient decays in u, so
the functional is noncoercive.  Every cell couples only its two end
nodes, so the exact Hessian is tridiagonal.  The energy, gradient and
Hessian are three tiers of one pass over the cells, each handing its cell
arrays on, so a field is evaluated only as deep as it is read.  Minimizers
are found by a damped Newton method with a Levenberg shift toward the
discrete L^2(mu) metric where the Hessian is indefinite and an Armijo line
search on the energy.

``experiment_regularity`` runs the minimizer over a ladder of grids with
warm starts and summarizes the level-set geometry of the solution: a
power-law tail of mu(k) below the critical integrability of the source,
a stretched-exponential tail at the critical exponent, and a bounded,
grid-stable solution above it.  ``summarize`` holds that regime
dispatch, for the experiment and for stored profiles alike.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._records import Record, _frozen
from .exponents import ExponentSet, ProblemParams, Regime, compute_exponents
from .lemma import _pair_scan
from .marcinkiewicz import (
    DistributionProfile,
    FitResult,
    InsufficientPointsError,
    _LevelIndex,
    _float_range_error,
    exp_integrability_fit,
    power_source,
    tail_exponent_fit,
    unit_ball_volume,
)

__all__ = [
    "DiscreteField",
    "ExperimentReport",
    "FunctionalSpec",
    "GridRun",
    "LevelsetReport",
    "MinimizeReport",
    "NonFiniteEnergyError",
    "ProfileSummary",
    "RadialGrid",
    "SolverTolerances",
    "assemble_energy",
    "energy_gradient",
    "excess",
    "exp_fit_of",
    "experiment_regularity",
    "level_profile",
    "levelset_inequality_check",
    "minimize",
    "summarize",
    "tail_fit_of",
    "truncate",
]

#: Armijo sufficient-decrease parameter of the line search.
_ARMIJO = 1e-4

#: Smallest trial step of the line search; below it the solver stagnates.
_STEP_FLOOR = 1e-14

#: First Levenberg shift, relative to the largest diagonal Hessian entry
#: per unit of nodal measure; later shifts double it.
_SHIFT_START = 1e-8

#: Newton decrements below this fraction of |E| are lost in the rounding
#: of the energy, so no line search can resolve them.
_ROUNDOFF = float(np.finfo(float).eps)

#: Past that resolution, a full Newton step is kept only when it cuts the
#: gradient norm by this factor: a step still converging cuts it by far
#: more, while steps at the rounding floor of the gradient only reshuffle
#: its noise and would be kept about half the time.
_ROUNDOFF_GAIN = 0.5

#: Number of levels in the profiles recorded by the experiments.
_PROFILE_LEVELS = 97

#: Dynamic range of the tail-branch profiles (levels down to max|u|/1e3).
_TAIL_SPAN = 1e3

#: Dynamic range of the exponential-branch profiles (down to max|u|/50).
_EXP_SPAN = 50.0


def _unit_levels(span: float) -> np.ndarray:
    levels = np.geomspace(1.0 / span, 1.0, _PROFILE_LEVELS)
    levels.setflags(write=False)
    return levels


#: The profile levels of a solution of peak 1 in each branch (see ``_profile_levels``).
_TAIL_LEVELS = _unit_levels(_TAIL_SPAN)
_EXP_LEVELS = _unit_levels(_EXP_SPAN)


class NonFiniteEnergyError(ArithmeticError):
    """Raised when the energy of the starting field, or of every line-search trial, is not finite.

    Also raised when the Hessian has entries that are not finite, so that
    no finite shift makes the Newton system positive definite.
    """


# --------------------------------------------------------------------------
# grid and fields
# --------------------------------------------------------------------------
class RadialGrid(Record, eq=False):
    """Uniform radial grid on the ball of the given radius in n dimensions.

    Set once from the fields, ``nodes`` are the cells + 1 radii,
    ``cell_measures[i]`` is the exact volume of the shell between ``nodes[i]``
    and ``nodes[i+1]``, and ``spacing`` is the uniform radial step.  A radius and
    dimension whose shell measures overflow or underflow to 0 raise :class:`ValueError`.
    """

    n: int
    radius: float
    cells: int

    def __post_init__(self) -> None:
        volume = unit_ball_volume(self.n)
        radius, cells = float(self.radius), self.cells
        if not math.isfinite(radius) or radius <= 0.0:
            raise ValueError("radius must be positive and finite")
        if not (isinstance(cells, numbers.Real) and 1 <= cells < math.inf and cells == int(cells)):
            raise ValueError("cells must be a positive integer")
        n, cells = int(self.n), int(cells)
        spacing = radius / cells
        # np.linspace(0, radius, cells + 1), bit for bit, in an array that owns its
        # memory, so that arrays built on the grid can keep it without a copy
        nodes = np.arange(cells + 1, dtype=float)
        nodes *= spacing
        nodes[-1] = radius
        # volume * diff(nodes ** n), the difference written straight into the measures
        with np.errstate(over="ignore", invalid="ignore"):
            powers = nodes**n
            measures = np.subtract(powers[1:], powers[:-1])
            measures *= volume
        if not (measures.min() > 0.0 and measures.max() < math.inf):  # NaN fails
            raise _float_range_error(radius, n)
        nodes.setflags(write=False)
        measures.setflags(write=False)
        for name, value in (("n", n), ("radius", radius), ("cells", cells), ("spacing", spacing),
                            ("nodes", nodes), ("cell_measures", measures)):
            object.__setattr__(self, name, value)


class DiscreteField(Record, eq=False):
    """Continuous piecewise-linear radial field with zero boundary trace.

    Read-only float64 nodal values that no writeable array shares memory
    with are kept, others copied once and frozen.  The level index of its
    last ``level_profile`` grid is kept with it (see there) and cannot go stale:
    neither its nodal values nor the grid's cell measures can be rebound or written to.
    """

    nodal_values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen(self.nodal_values)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a field needs at least two nodal values")
        if not np.isfinite(vals).all():
            raise ValueError("nodal values must be finite")
        if vals[-1] != 0.0:
            raise ValueError("the boundary trace must vanish")
        object.__setattr__(self, "nodal_values", vals)
        object.__setattr__(self, "_level_index", None)  # or (cell_measures, index): a cache, no field


class FunctionalSpec(Record, eq=False):
    """Problem parameters, cell-averaged source and gradient regularization.

    ``epsilon`` must be finite and nonnegative, with ``epsilon ** p`` a float.
    A read-only float64 source that no writeable array shares memory with is
    kept, others copied once and frozen.
    """

    params: ProblemParams
    source: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        source = _frozen(self.source)
        if source.ndim != 1:
            raise ValueError("source must be one-dimensional")
        if not np.isfinite(source).all():
            raise ValueError("source must be finite")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError("epsilon must be finite and nonnegative")
        try:
            self.epsilon ** self.params.p
        except OverflowError as exc:
            raise ValueError(
                f"epsilon ** p leaves the float range for epsilon = {self.epsilon},"
                f" p = {self.params.p}"
            ) from exc


def _check_nodes(u: np.ndarray, grid: RadialGrid) -> None:
    if u.size != grid.cells + 1:
        raise ValueError(f"field has {u.size} nodes but the grid has {grid.cells + 1}")


def _check_compatible(u: np.ndarray, grid: RadialGrid, spec: FunctionalSpec) -> None:
    _check_nodes(u, grid)
    if spec.source.size != grid.cells:
        raise ValueError(f"source has {spec.source.size} cells but the grid has {grid.cells}")


# --------------------------------------------------------------------------
# energy and its derivatives
# --------------------------------------------------------------------------
def _energy(u, h, meas, fbar, beta1, b, ap, p, eps) -> tuple:
    """Energy, cell i adding meas (a J - f ubar), and the cell arrays that the later tiers read."""
    ubar = 0.5 * (u[:-1] + u[1:])
    du = (u[1:] - u[:-1]) / h
    base = b + np.abs(ubar)
    a = beta1 / base**ap
    du2 = du * du
    q = eps * eps + du2
    je = q ** (p / 2) - eps**p
    energy = float((meas * (a * je - fbar * ubar)).sum())
    return energy, (ubar, du, base, a, du2, q, je)


def _gradient(cells, h, meas, fbar, beta1, b, ap, p, eps) -> tuple:
    """Gradient g over the free nodes: cell i adds half -/+ flux at (i, i+1)."""
    ubar, du, base, a, _, q, je = cells
    # a power that underflows to 0 reads as the smallest subnormal, so 0/0 at ubar = 0 is -0.0
    da = -ap * beta1 * np.sign(ubar) / np.maximum(base ** (ap + 1), 5e-324)
    q_power = q ** (p / 2 - 1)
    jp = p * du * q_power
    meas_a = meas * a
    half = 0.5 * meas * (da * je - fbar)
    flux = meas_a * jp / h
    g = np.zeros(ubar.size)
    g += half - flux
    g[1:] += half[:-1] + flux[:-1]
    return g, (da, q_power, jp, meas_a)


def _hessian(cells, more, h, meas, fbar, beta1, b, ap, p, eps) -> tuple:
    """Exact tridiagonal Hessian (diag, off) over the free nodes.

    Cell i adds, from its a''J, aJ'' and a'J' terms, w1 [[1,1],[1,1]]
    + w2 [[1,-1],[-1,1]] + w3 diag(-1,1).
    """
    _, _, base, _, du2, q, je = cells
    da, q_power, jp, meas_a = more
    dda = ap * (ap + 1) * beta1 / base ** (ap + 2)
    # J'' = p q^(p/2-1) (1 + (p-2) t^2/q), finite at q = 0 for p >= 2
    slope_share = np.divide(du2, q, out=np.zeros(q.shape), where=q > 0.0)
    jpp = p * q_power * (1.0 + (p - 2.0) * slope_share)
    # a''J is 0 on a flat cell (J = 0) whatever dda reads, inf too where (b + |u|)^(alpha p + 2) underflows
    w1 = np.multiply(0.25 * meas * dda, je, out=np.zeros(je.shape), where=je != 0.0)
    w2 = meas_a * jpp / (h * h)
    w12 = w1 + w2
    w3 = meas * da * jp / h
    diag = w12 - w3
    diag[1:] += (w12 + w3)[:-1]
    return diag, (w1 - w2)[:-1]


def _tridiagonal_solve(diag, off, rhs) -> Optional[np.ndarray]:
    """Solve a symmetric tridiagonal system by an LDL^T (Thomas) sweep.

    Returns None when a pivot is not positive, i.e. when the matrix is
    not positive definite.
    """
    d = diag.tolist()
    e = off.tolist()
    y = rhs.tolist()
    n = len(d)
    pivot = d[0]
    if not pivot > 0.0:
        return None
    pivots = [pivot] * n
    factors = [0.0] * n
    prev = y[0]
    for i in range(1, n):
        coupling = e[i - 1]
        factor = coupling / pivot
        pivot = d[i] - factor * coupling
        if not pivot > 0.0:
            return None
        factors[i] = factor
        pivots[i] = pivot
        prev = y[i] = y[i] - factor * prev
    x = y[n - 1] = prev / pivot
    for i in range(n - 2, -1, -1):
        x = y[i] = y[i] / pivots[i] - factors[i + 1] * x
    return np.array(y)


def _newton_direction(diag, off, metric, g) -> Optional[np.ndarray]:
    """Solve (H + sigma M) d = -g with the first positive definite shift.

    sigma = 0 is tried first; while a pivot is not positive, sigma starts
    at _SHIFT_START times the largest diag/metric ratio and doubles.
    Returns None when no finite shift helps (a non-finite Hessian).
    """
    rhs = -g
    direction = _tridiagonal_solve(diag, off, rhs)
    if direction is not None:
        return direction
    # a zero diagonal (epsilon = 0, p > 2, flat field) still needs a positive shift
    sigma = _SHIFT_START * float((np.abs(diag) / metric).max()) or _SHIFT_START
    while math.isfinite(sigma):
        direction = _tridiagonal_solve(diag + sigma * metric, off, rhs)
        if direction is not None:
            return direction
        sigma *= 2.0
    return None


def _coefficients(spec: FunctionalSpec) -> Tuple[float, float, float, float, float]:
    params = spec.params
    return params.beta1, params.b_const, params.alpha * params.p, params.p, spec.epsilon


#: The numpy error state of every tier call; a and the energy read inf where (b + |u|)^(alpha p) underflows.
_TIER_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _smooth_tier_args(u: np.ndarray, grid: RadialGrid, spec: FunctionalSpec) -> tuple:
    """The tier arguments after u; epsilon = 0 with p < 2 (a nonsmooth density) is rejected."""
    _check_compatible(u, grid, spec)
    beta1, b, ap, p, eps = _coefficients(spec)
    if eps == 0.0 and p < 2.0:
        raise ValueError("epsilon must be positive when p < 2 (nonsmooth density)")
    return grid.spacing, grid.cell_measures, spec.source, beta1, b, ap, p, eps


def assemble_energy(field: DiscreteField, grid: RadialGrid, spec: FunctionalSpec) -> float:
    """Discrete energy of the field, from the energy tier alone; exact for piecewise-linear test fields."""
    u = field.nodal_values
    _check_compatible(u, grid, spec)
    with np.errstate(**_TIER_ERRORS):
        return _energy(u, grid.spacing, grid.cell_measures, spec.source, *_coefficients(spec))[0]


def energy_gradient(field: DiscreteField, grid: RadialGrid, spec: FunctionalSpec) -> np.ndarray:
    """Euclidean gradient of the energy over the free (non-boundary) nodes.

    The energy and gradient tiers run, and no Hessian is built.  Entries read
    inf where (b + |u|)^(alpha p) underflows.  Rejects epsilon = 0 with p < 2,
    where the p-energy density is not differentiable at vanishing slope.
    """
    u = field.nodal_values
    args = _smooth_tier_args(u, grid, spec)
    with np.errstate(**_TIER_ERRORS):
        return _gradient(_energy(u, *args)[1], *args)[0]


# --------------------------------------------------------------------------
# minimization
# --------------------------------------------------------------------------
class SolverTolerances(Record):
    """Stopping parameters of the Newton solve: gradient norm and iteration cap.

    ``grad_tol`` bounds the L^2(mu)-dual norm sqrt(g . g / metric) of the
    Euclidean gradient g, with the nodal measures as metric.
    """

    grad_tol: float = 1e-6
    max_iters: int = 100_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "grad_tol", float(self.grad_tol))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if not math.isfinite(self.grad_tol) or self.grad_tol < 0.0:
            raise ValueError("grad_tol must be finite and nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


class MinimizeReport(Record):
    """Result of one Newton solve.

    ``status`` is "converged" (gradient norm reached grad_tol),
    "roundoff" (the Newton decrement fell below what the energy can
    resolve, about machine epsilon times |E|, and the full Newton step
    did not halve the gradient norm either, before it reached
    grad_tol), "stagnated" (no step above the step floor decreases the
    energy) or "max_iters".  A full Newton step taken past the energy's
    resolution counts as an iteration.  ``final_gradient_norm`` is the
    gradient norm at ``final_field``.  ``energy_trace`` is a tuple of the
    energy at the start and after every accepted iteration, so its length
    is iterations + 1.  ``backtracks`` counts the rejected line-search trials.
    """

    final_field: DiscreteField
    status: str
    iterations: int
    final_gradient_norm: float
    energy_trace: Tuple[float, ...]
    backtracks: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _dual_norm(g: np.ndarray, metric: np.ndarray) -> float:
    """L^2(mu)-dual norm sqrt(g . g / metric) of a Euclidean gradient."""
    return math.sqrt(float(g @ (g / metric)))


def _line_search(u, direction, energy, decrement, args) -> Tuple[int, Optional[tuple]]:
    """Armijo backtracking from the full step on trial energies alone.

    Returns (rejected trials, (field, energy, cells) or None below the floor); raises
    :class:`NonFiniteEnergyError` when no trial energy down to the floor is finite.
    """
    step, finite, rejected = 1.0, False, 0
    while step >= _STEP_FLOOR:
        trial = u.copy()
        trial[:-1] += step * direction
        trial_energy, cells = _energy(trial, *args)
        if math.isfinite(trial_energy) and energy - trial_energy >= _ARMIJO * step * decrement:
            return rejected, (trial, trial_energy, cells)
        finite = finite or math.isfinite(trial_energy)
        step *= 0.5
        rejected += 1
    if finite:
        return rejected, None
    raise NonFiniteEnergyError(
        "no line-search trial has a finite energy; the full Newton step reaches"
        f" max |u| = {float(np.max(np.abs(u[:-1] + direction))):.3g}"
    )


def minimize(
    grid: RadialGrid,
    spec: FunctionalSpec,
    initial: DiscreteField,
    tolerances: SolverTolerances,
) -> MinimizeReport:
    """Damped Newton method on the exact tridiagonal Hessian.

    Each iteration solves (H + sigma M) d = -g, where M holds the nodal
    measures (the Riesz map of the L^2(mu) inner product).  sigma = 0
    unless the noncoercive Hessian is indefinite; then a Levenberg shift
    is raised until the matrix is positive definite.  An Armijo
    backtracking line search from the full step then moves along d.
    When the Newton decrement -g.d is below the resolution of the energy
    (about machine epsilon times |E|), the energy cannot rank steps any
    more: the full step is then taken if it at least halves the
    L^2(mu)-dual gradient norm, and the solve ends "roundoff" if it does
    not.  On fine grids the last residual sits at the first nodes, whose
    tiny nodal measures make the gradient norm see an error the energy
    cannot.  The solve stops when the gradient norm reaches
    ``grad_tol``; see ``MinimizeReport`` for the statuses.  A line-search
    trial costs its energy alone, an accepted field its gradient too, and
    a Hessian is built only to solve for a Newton direction.  A starting
    energy, or every trial energy of a line search, that is not finite,
    and a Hessian that no finite shift makes positive definite raise
    :class:`NonFiniteEnergyError`.
    """
    u = initial.nodal_values.copy()
    args = _smooth_tier_args(u, grid, spec)

    # nodal measures: Riesz weights of the discrete L^2(mu) inner product
    metric = 0.5 * grid.cell_measures
    metric[1:] += 0.5 * grid.cell_measures[:-1]

    with np.errstate(**_TIER_ERRORS):
        energy, cells = _energy(u, *args)
        if not math.isfinite(energy):
            raise NonFiniteEnergyError(f"initial energy is {energy}")
        g, more = _gradient(cells, *args)
        trace = [energy]
        iterations = backtracks = 0
        while True:
            grad_norm = _dual_norm(g, metric)
            if grad_norm <= tolerances.grad_tol:
                status = "converged"
                break
            if iterations >= tolerances.max_iters:
                status = "max_iters"
                break
            diag, off = _hessian(cells, more, *args)
            direction = _newton_direction(diag, off, metric, g)
            if direction is None:
                raise NonFiniteEnergyError(
                    "no finite shift makes the Hessian positive definite;"
                    f" {np.count_nonzero(~np.isfinite(diag))} of {diag.size} diagonal and"
                    f" {np.count_nonzero(~np.isfinite(off))} of {off.size} off-diagonal entries"
                    " are not finite"
                )
            decrement = -float(g @ direction)
            if decrement <= _ROUNDOFF * abs(energy):
                # the energy cannot rank this step; the gradient norm can
                trial = u.copy()
                trial[:-1] += direction
                accepted = trial, *_energy(trial, *args)
                gradient = _gradient(accepted[2], *args) if math.isfinite(accepted[1]) else None
                if gradient is None or not _dual_norm(gradient[0], metric) <= _ROUNDOFF_GAIN * grad_norm:
                    status = "roundoff"
                    break
            else:
                rejected, accepted = _line_search(u, direction, energy, decrement, args)
                backtracks += rejected
                if accepted is None:
                    status = "stagnated"
                    break
                gradient = _gradient(accepted[2], *args)
            u, energy, cells = accepted
            g, more = gradient
            trace.append(energy)
            iterations += 1

    return MinimizeReport(
        final_field=DiscreteField(u),
        status=status,
        iterations=iterations,
        final_gradient_norm=grad_norm,
        energy_trace=tuple(trace),
        backtracks=backtracks,
    )


# --------------------------------------------------------------------------
# truncation
# --------------------------------------------------------------------------
def truncate(field: DiscreteField, level: float) -> DiscreteField:
    """Two-sided truncation T_k(u) = clamp(u, -k, k)."""
    level = float(level)
    if not math.isfinite(level) or level < 0.0:
        raise ValueError("truncation level must be finite and nonnegative")
    return DiscreteField(np.clip(field.nodal_values, -level, level))


def excess(field: DiscreteField, level: float) -> DiscreteField:
    """Excess G_k(u) = u - T_k(u), supported on {|u| >= k}."""
    truncated = truncate(field, level)
    return DiscreteField(field.nodal_values - truncated.nodal_values)


# --------------------------------------------------------------------------
# level-set geometry
# --------------------------------------------------------------------------
def _level_index(field: DiscreteField, grid: RadialGrid) -> _LevelIndex:
    """The field's kept level index on ``grid``, built from its midpoint values if not kept."""
    u = field.nodal_values
    _check_nodes(u, grid)
    kept = field._level_index
    if kept is None or kept[0] is not grid.cell_measures:
        midvalues = u[:-1] + u[1:]
        midvalues *= 0.5
        kept = (grid.cell_measures, _LevelIndex(midvalues, grid.cell_measures))
        object.__setattr__(field, "_level_index", kept)
    return kept[1]


def level_profile(field: DiscreteField, grid: RadialGrid, levels) -> DistributionProfile:
    """Distribution function of |u| at the given levels.

    The field acts through its cell midpoint values, each weighted with
    the exact shell measure, consistent with the rest of the module.  The
    midpoint values are indexed once per (field, ``grid.cell_measures``)
    and the index is kept with the field (8 bytes per cell of keys, plus
    the cumulative cell measure shared by every field on the grid), so
    later profiles of the field on that grid cost O(L log N) for L
    levels.  The index sorts by |midpoint value|, except for a field whose
    |midpoint values| already fall outward, as every radially decreasing
    one does: there one comparison pass replaces the sort.
    """
    return _level_index(field, grid).profile(levels)


class LevelsetReport(Record):
    """Residuals of the level-set inequality |A_h| <= (h^A |A_k|^B + |A_k|^C)/(h-k)^D.

    ``residuals`` is a tuple of (h, k, ratio) for every pair with
    |A_k| > 0, in the order of the pairs; pairs whose lower level already
    empties the superlevel set are in the tuple ``skipped``.
    ``constant`` is the smallest c making the inequality hold on the
    sampled pairs (the largest ratio), or 0.0 if none remain.
    """

    residuals: Tuple[Tuple[float, float, float], ...]
    skipped: Tuple[Tuple[float, float], ...]
    constant: float


def _pair_levels(pairs) -> np.ndarray:
    """The (h, k) pairs as a (P, 2) float array, as ``np.array(pairs, dtype=float)``
    reshaped gives it: in one ``np.fromiter`` pass where every pair is a tuple or
    list of two, else through ``np.array``, which raises its errors on anything else."""
    try:
        count = len(pairs)
        if set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) <= {2}:
            levels = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * count)
            return levels.reshape(-1, 2)
    except (TypeError, ValueError):
        pass
    return np.array(pairs, dtype=float).reshape(-1, 2)


def levelset_inequality_check(
    field: DiscreteField,
    grid: RadialGrid,
    spec: FunctionalSpec,
    pairs: Sequence[Tuple[float, float]],
) -> LevelsetReport:
    """Evaluate the level-set decay inequality on the given (h, k) pairs.

    The exponents (A, B, C, D) come from the problem parameters.  The
    measures of the 2P pair levels are read off the field's level index
    (the one ``level_profile`` keeps) by binary search, in pair order for
    a few pairs and as sorted distinct levels for many: O(P log N) for P
    pairs on N cells, plus the O(N log N) sort the first time the field is
    measured on the grid.  Ratios are computed from logs by the pair kernel
    of ``check_hypothesis`` with c1 = 1 (a ratio beyond the float range
    reads inf).  Every pair must satisfy h > k > 0 with h finite.
    """
    _check_compatible(field.nodal_values, grid, spec)
    hyp = compute_exponents(spec.params).hyp
    levels = _pair_levels(pairs)
    h, k = levels[:, 0], levels[:, 1]
    bad = np.flatnonzero(~((h > k) & (k > 0.0) & np.isfinite(h)))
    if bad.size:
        raise ValueError(f"pairs must satisfy h > k > 0, got ({h[bad[0]]}, {k[bad[0]]})")
    index = _level_index(field, grid)
    # From about 512 levels on, binary searches in sorted order save more than np.unique's
    # sort costs; a total measure past the float range raises in the profile's validation.
    if levels.size < 512 and math.isfinite(index.prefix[-1]):
        measures = index.measures(levels)
    else:
        unique, inverse = np.unique(levels, return_inverse=True)
        measures = index.profile(unique).measures[inverse].reshape(-1, 2)
    kept = measures[:, 1] > 0.0
    # tuple() of a list takes its exact size; of an iterator it grows and cuts back a tuple,
    # which then joins CPython's free list of its new size, up to 2000 kept tuples per size
    skipped = tuple([(float(a), float(b)) for a, b in levels[~kept]])
    if not kept.any():
        return LevelsetReport(residuals=(), skipped=skipped, constant=0.0)
    h, k = h[kept], k[kept]
    ratios, worst, _ = _pair_scan(
        h, k, measures[kept, 0], measures[kept, 1], 1.0, hyp.A, hyp.B, hyp.C, hyp.D
    )
    residuals = tuple(list(zip(h.tolist(), k.tolist(), ratios.tolist())))
    return LevelsetReport(
        residuals=residuals, skipped=skipped, constant=float(ratios[worst])
    )


# --------------------------------------------------------------------------
# regularity experiment
# --------------------------------------------------------------------------
class GridRun(Record):
    """One grid of an experiment ladder.

    ``report`` is the solve of ``spec`` on ``grid``; ``profile`` and
    ``max_u`` are the distribution function and peak max|u| of its minimizer.
    """

    grid: RadialGrid
    spec: FunctionalSpec
    report: MinimizeReport
    profile: DistributionProfile
    max_u: float


def _per_grid(path: str) -> property:
    """A read-only view: a new list of ``path`` read off each record of ``runs``."""
    read = operator.attrgetter(path)
    return property(lambda self: [read(run) for run in self.runs])


class ExperimentReport(Record):
    """Summary of a warm-started grid ladder of minimizations.

    ``runs`` holds one :class:`GridRun` per grid, coarsest first, and
    ``grid_cells`` their cell counts.  At most one of the trichotomy
    summaries is populated, according to the regime of the parameters:
    ``tail_fit`` with ``predicted_slope`` = -s (power-law tail of the
    distribution function) or ``exp_fit`` with ``theta``
    (stretched-exponential tail), both from ``summarize`` of the finest
    profile, or ``stabilization_ratio`` (relative change of max|u| on the
    last refinement, on a ladder of two or more grids).  Below the range
    none is.  ``grids``, ``specs``, ``final_fields``, ``reports``,
    ``profiles``, ``max_u`` and ``statuses`` read one field per grid off
    ``runs``, each time into a new list.
    """

    grid_cells: Tuple[int, ...]
    regime: Regime
    runs: Tuple[GridRun, ...]
    predicted_slope: Optional[float]
    theta: Optional[float]
    tail_fit: Optional[FitResult]
    exp_fit: Optional[FitResult]
    stabilization_ratio: Optional[float]

    grids = _per_grid("grid")
    specs = _per_grid("spec")
    final_fields = _per_grid("report.final_field")
    reports = _per_grid("report")
    profiles = _per_grid("profile")
    max_u = _per_grid("max_u")
    statuses = _per_grid("report.status")


class ProfileSummary(Record):
    """The regime's reading of one level profile.

    ``fit`` names the reading: "tail" (the two power-tail regimes:
    ``tail_fit`` with ``predicted_slope`` = -s), "exp" (r = n/p:
    ``exp_fit`` with exponent ``theta``) or "none" (bounded, or r below
    the range).  Fields of the other readings are None, and so is a fit
    of a profile with too few points.
    """

    regime: Regime
    fit: str
    predicted_slope: Optional[float] = None
    theta: Optional[float] = None
    tail_fit: Optional[FitResult] = None
    exp_fit: Optional[FitResult] = None


def _profile_levels(regime: Regime, peak: float) -> np.ndarray:
    """``_PROFILE_LEVELS`` geometric levels from peak / span up to exactly ``peak``.

    They are ``peak`` times the branch's unit grid, which
    ``np.geomspace(1 / span, 1, _PROFILE_LEVELS)`` builds once: no level
    overflows, even at the largest float peak.  The span is ``_EXP_SPAN``
    at r = n/p and ``_TAIL_SPAN`` otherwise.  A peak of 0 has no levels.
    The levels are read-only, so the profile keeps them without a copy.
    """
    if peak <= 0.0:
        return np.empty(0)
    levels = peak * (_EXP_LEVELS if regime is Regime.EXPONENTIAL_INTEGRABILITY else _TAIL_LEVELS)
    levels.setflags(write=False)
    return levels


def summarize(profile: DistributionProfile, exps: ExponentSet) -> ProfileSummary:
    """Fit the profile the way the regime of ``exps`` predicts it decays."""
    regime = exps.regime
    if regime in (Regime.GRADIENT_MARCINKIEWICZ, Regime.SOBOLEV_W1P):
        return ProfileSummary(
            regime, "tail", predicted_slope=-exps.s, tail_fit=tail_fit_of(profile)
        )
    if regime is Regime.EXPONENTIAL_INTEGRABILITY:
        return ProfileSummary(
            regime, "exp", theta=exps.theta, exp_fit=exp_fit_of(profile, exps.theta)
        )
    return ProfileSummary(regime, "none")


def tail_fit_of(profile: DistributionProfile) -> Optional[FitResult]:
    """Power-law fit over the top decade of positive levels with positive measure.

    Returns None when there are no such levels or too few points.
    """
    positive = profile.levels[(profile.measures > 0.0) & (profile.levels > 0.0)]
    if positive.size == 0:
        return None
    k_top = float(positive[-1])
    try:
        return tail_exponent_fit(profile, k_top / 10.0, k_top)
    except InsufficientPointsError:
        return None


def exp_fit_of(profile: DistributionProfile, theta: float) -> Optional[FitResult]:
    """Stretched-exponential fit ln mu vs k**theta over the whole profile.

    Returns None when the profile is empty or has too few points.
    """
    if profile.levels.size == 0:
        return None
    try:
        return exp_integrability_fit(profile, theta, float(profile.levels[0]))
    except InsufficientPointsError:
        return None


def experiment_regularity(
    params: ProblemParams,
    grid_cells: Sequence[int],
    tolerances: SolverTolerances,
    *,
    radius: float = 1.0,
    source_scale: float = 1.0,
    epsilon: float = 1e-6,
) -> ExperimentReport:
    """Minimize over a ladder of grids and summarize the level-set geometry.

    Each grid is warm-started by linear interpolation of the previous
    minimizer.  The source is the radial power field of the parameters'
    integrability exponent r, scaled by ``source_scale``.  The summary
    branch is selected by the regime of the parameters; see
    ``ExperimentReport``.  Every cell count is checked before the first solve.
    """
    grids = [RadialGrid(n=params.n, radius=radius, cells=cells) for cells in grid_cells]
    if not grids:
        raise ValueError("need at least one grid")
    exps = compute_exponents(params)

    runs: List[GridRun] = []
    for grid in grids:
        source = power_source(grid.nodes, n=params.n, r=params.r, scale=source_scale)
        spec = FunctionalSpec(params=params, source=source.cell_values, epsilon=epsilon)
        start = np.zeros(grid.cells + 1)
        if runs:
            last = runs[-1]
            start = np.interp(grid.nodes, last.grid.nodes, last.report.final_field.nodal_values)
            start[-1] = 0.0
        report = minimize(grid, spec, DiscreteField(start), tolerances)
        solution = report.final_field
        peak = float(np.abs(solution.nodal_values).max())
        profile = level_profile(solution, grid, _profile_levels(exps.regime, peak))
        runs.append(GridRun(grid, spec, report, profile, peak))

    summary = summarize(runs[-1].profile, exps)
    stabilization_ratio: Optional[float] = None
    if exps.regime is Regime.BOUNDED and len(runs) >= 2 and runs[-2].max_u > 0.0:
        stabilization_ratio = abs(runs[-1].max_u - runs[-2].max_u) / runs[-2].max_u

    return ExperimentReport(
        grid_cells=tuple(grid.cells for grid in grids),
        regime=exps.regime,
        runs=tuple(runs),
        predicted_slope=summary.predicted_slope,
        theta=summary.theta,
        tail_fit=summary.tail_fit,
        exp_fit=summary.exp_fit,
        stabilization_ratio=stabilization_ratio,
    )
