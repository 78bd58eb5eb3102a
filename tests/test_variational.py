"""Oracle tests for the radial minimizer of the noncoercive functional.

Independent oracles: hand integrals for the energy, central finite
differences for the gradient and the Hessian, a direct tridiagonal
solve (scipy, test-only) for the linear regime alpha = 0, p = 2,
per-pair mask sums for the level-set inequality check, and a fresh
``distribution_function`` of the midpoints for the kept level index.
Earlier forms of the energy kernel, the tridiagonal solve, the shift
loop and the level-set check are kept as bitwise oracles of their
leaner successors.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import solve_banded

import leveldecay
from conftest import TRICHOTOMY_GRIDS, TRICHOTOMY_TOL
from leveldecay import variational
from leveldecay.exponents import ProblemParams, compute_exponents, holder_conjugate
from leveldecay.lemma import _pair_scan
from leveldecay.marcinkiewicz import (
    DistributionProfile,
    distribution_function,
    power_source,
    unit_ball_volume,
)
from leveldecay.variational import (
    DiscreteField,
    FunctionalSpec,
    NonFiniteEnergyError,
    RadialGrid,
    SolverTolerances,
    assemble_energy,
    energy_gradient,
    excess,
    experiment_regularity,
    level_profile,
    levelset_inequality_check,
    minimize,
    tail_fit_of,
    truncate,
)
from leveldecay.variational import _coefficients, _evaluate, _newton_direction, _tridiagonal_solve


def make_spec(grid, *, n=4, p=2.0, alpha=0.25, r=1.75, beta1=1.0, b_const=1.0,
              scale=1.0, epsilon=1e-6):
    params = ProblemParams(n=n, p=p, alpha=alpha, r=r, beta1=beta1, b_const=b_const)
    source = power_source(grid.nodes, n=n, r=r, scale=scale).cell_values
    return FunctionalSpec(params=params, source=source, epsilon=epsilon)


def constant_spec(grid, *, n=2, p=2.0, alpha=0.0, r=2.0, beta1=1.0, f_const=0.0,
                  epsilon=1e-6):
    params = ProblemParams(n=n, p=p, alpha=alpha, r=r, beta1=beta1, b_const=1.0)
    source = np.full(grid.cells, float(f_const))
    return FunctionalSpec(params=params, source=source, epsilon=epsilon)


# ---------------------------------------------------------------- grid & field
def test_radial_grid_measures_sum_to_ball():
    grid = RadialGrid(n=4, radius=1.3, cells=77)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(1.3, rel=1e-15)
    assert np.all(grid.cell_measures > 0)
    total = unit_ball_volume(4) * 1.3**4
    assert float(np.sum(grid.cell_measures)) == pytest.approx(total, rel=1e-12)
    assert grid.spacing == pytest.approx(1.3 / 77, rel=1e-14)


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(n=4, radius=1.0, cells=0)
    with pytest.raises(ValueError):
        RadialGrid(n=4, radius=0.0, cells=8)
    with pytest.raises(ValueError):
        RadialGrid(n=0, radius=1.0, cells=8)
    # (1/32)**400 underflows: the inner shells would have measure 0
    with pytest.raises(ValueError, match=r"leave the float range for radius = 1.0, n = 400$"):
        RadialGrid(n=400, radius=1.0, cells=32)


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_radial_grid_checks_the_dimension_first(n):
    with pytest.raises(ValueError, match="^dimension must be a positive integer$"):
        RadialGrid(n=n, radius=-1.0, cells=0)


def test_radial_grid_checks_the_ball_volume_before_the_radius():
    with pytest.raises(ValueError, match="^the unit ball volume underflows to 0 in dimension n = 2000$"):
        RadialGrid(n=2000, radius=-1.0, cells=8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_radial_grid_shells_difference_one_power_pass_bitwise(n):
    grid = RadialGrid(n=n, radius=1.0, cells=2**18)
    nodes = grid.nodes
    assert nodes.size == 2**18 + 1
    twice = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
    assert np.array_equal(grid.cell_measures, twice)


def test_discrete_field_zero_trace_enforced():
    DiscreteField([1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        DiscreteField([1.0, 0.5, 0.1])
    with pytest.raises(ValueError):
        DiscreteField([math.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteField([0.0])


# ---------------------------------------------------------------- energy
def test_energy_zero_field_is_zero():
    grid = RadialGrid(n=4, radius=1.0, cells=16)
    spec = make_spec(grid)
    assert assemble_energy(DiscreteField(np.zeros(17)), grid, spec) == 0.0


def test_energy_nonnegative_without_source():
    grid = RadialGrid(n=4, radius=1.0, cells=16)
    spec = make_spec(grid, scale=0.0)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.uniform(-2.0, 2.0, 17)
        u[-1] = 0.0
        assert assemble_energy(DiscreteField(u), grid, spec) >= 0.0


def test_energy_closed_form_linear_cone():
    # [DERIVED]: u = 1 - r on the unit disk, a = beta1 (alpha = 0), f = 0:
    # energy = beta1 * |Omega| * |u'|^2 = beta1 * pi, exact for the
    # piecewise-linear field (u' = -1 on every cell).
    beta1 = 2.5
    grid = RadialGrid(n=2, radius=1.0, cells=40)
    spec = constant_spec(grid, beta1=beta1)
    u = DiscreteField(1.0 - grid.nodes)
    assert assemble_energy(u, grid, spec) == pytest.approx(beta1 * math.pi, rel=1e-12)


def test_energy_dimension_mismatch():
    grid = RadialGrid(n=4, radius=1.0, cells=16)
    spec = make_spec(grid)
    with pytest.raises(ValueError):
        assemble_energy(DiscreteField(np.zeros(10)), grid, spec)
    short = FunctionalSpec(params=spec.params, source=spec.source[:-1], epsilon=1e-6)
    with pytest.raises(ValueError):
        assemble_energy(DiscreteField(np.zeros(17)), grid, short)


# ---------------------------------------------------------------- gradient
def test_gradient_zero_field_is_pure_source_term():
    grid = RadialGrid(n=4, radius=1.0, cells=12)
    spec = make_spec(grid)
    g = energy_gradient(DiscreteField(np.zeros(13)), grid, spec)
    m, f = grid.cell_measures, spec.source
    assert g.shape == (12,)
    assert g[0] == pytest.approx(-0.5 * m[0] * f[0], rel=1e-14)
    for i in range(1, 12):
        assert g[i] == pytest.approx(-0.5 * (m[i - 1] * f[i - 1] + m[i] * f[i]), rel=1e-14)


def test_gradient_matches_finite_differences():
    grid = RadialGrid(n=4, radius=1.0, cells=64)
    spec = make_spec(grid)
    rng = np.random.default_rng(3)
    for trial in range(10):
        u = rng.uniform(-1.0, 1.0, 65) * (5.0 if trial % 3 == 0 else 1.0)
        u[-1] = 0.0
        field = DiscreteField(u)
        ga = energy_gradient(field, grid, spec)
        gfd = np.empty_like(ga)
        for i in range(64):
            t = 1e-6 * max(1.0, abs(u[i]))
            up, um = u.copy(), u.copy()
            up[i] += t
            um[i] -= t
            ep = assemble_energy(DiscreteField(up), grid, spec)
            em = assemble_energy(DiscreteField(um), grid, spec)
            gfd[i] = (ep - em) / (2 * t)
        scale = float(np.max(np.abs(gfd)))
        assert float(np.max(np.abs(ga - gfd))) <= 1e-6 * scale, f"trial {trial}"


def test_gradient_sign_flip_antisymmetry():
    grid = RadialGrid(n=4, radius=1.0, cells=32)
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, 33)
    u[-1] = 0.0
    spec = make_spec(grid)
    flipped = FunctionalSpec(params=spec.params, source=-spec.source, epsilon=spec.epsilon)
    ga = energy_gradient(DiscreteField(u), grid, spec)
    gb = energy_gradient(DiscreteField(-u), grid, flipped)
    assert np.array_equal(gb, -ga)


def test_gradient_requires_epsilon_below_quadratic():
    grid = RadialGrid(n=2, radius=1.0, cells=8)
    params = ProblemParams(n=2, p=1.5, alpha=0.2, r=1.2)
    source = np.ones(8)
    bad = FunctionalSpec(params=params, source=source, epsilon=0.0)
    u = DiscreteField(np.linspace(1.0, 0.0, 9))
    with pytest.raises(ValueError):
        energy_gradient(u, grid, bad)
    ok = FunctionalSpec(params=params, source=source, epsilon=1e-6)
    energy_gradient(u, grid, ok)  # smooth j_eps: no error


@pytest.mark.parametrize("p, epsilon", [(2.0, 1e300), (3.0, 1e150)])
def test_functional_spec_rejects_an_epsilon_whose_power_overflows(p, epsilon):
    grid = RadialGrid(n=4, radius=1.0, cells=8)
    with pytest.raises(ValueError, match="epsilon \\*\\* p"):
        make_spec(grid, p=p, alpha=0.1, epsilon=epsilon)
    make_spec(grid, p=p, alpha=0.1, epsilon=1e100)  # epsilon ** p is a float


# ---------------------------------------------------------------- hessian
@given(
    p=st.sampled_from([1.5, 2.0, 3.0]),
    alpha=st.floats(min_value=0.0, max_value=0.5),
    epsilon=st.floats(min_value=1e-3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(p=1.5, alpha=0.0, epsilon=0.015625, seed=9001)
@settings(max_examples=40, deadline=None)
def test_hessian_matches_finite_differences(p, alpha, epsilon, seed):
    assume(alpha * holder_conjugate(p) < 1.0)
    cells = 12
    grid = RadialGrid(n=3, radius=1.0, cells=cells)
    spec = make_spec(grid, n=3, p=p, alpha=alpha, r=1.5, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    u = np.zeros(cells + 1)
    u[:-1] = rng.uniform(0.1, 3.0, cells)  # positive: no cell midpoint at the kink of a
    _, _, diag, off = _evaluate(u, grid.spacing, grid.cell_measures, spec.source, *_coefficients(spec))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    hfd = np.empty((cells, cells))
    for i in range(cells):
        # the density bends in a cell slope over a width of epsilon, and a
        # node step t moves the slope by t / h: a step coarser than
        # epsilon * h reads that bend as Hessian error
        t = 1e-4 * min(1.0, epsilon * grid.spacing) * max(1.0, abs(u[i]))
        up, um = u.copy(), u.copy()
        up[i] += t
        um[i] -= t
        gp = energy_gradient(DiscreteField(up), grid, spec)
        gm = energy_gradient(DiscreteField(um), grid, spec)
        hfd[:, i] = (gp - gm) / (2 * t)
    scale = float(np.max(np.abs(hfd)))
    assert float(np.max(np.abs(dense - hfd))) <= 1e-6 * scale


def _energy_oracle(u, h, meas, fbar, beta1, b, ap, p, eps):
    """The separate energy kernel the solver used before ``_evaluate``."""
    ubar = 0.5 * (u[:-1] + u[1:])
    du = (u[1:] - u[:-1]) / h
    a = beta1 / (b + np.abs(ubar)) ** ap
    je = (eps * eps + du * du) ** (p / 2) - eps**p
    return float(np.sum(meas * (a * je - fbar * ubar)))


def _gradient_oracle(u, h, meas, fbar, beta1, b, ap, p, eps):
    """The separate gradient kernel the solver used before ``_derivatives``."""
    ubar = 0.5 * (u[:-1] + u[1:])
    du = (u[1:] - u[:-1]) / h
    absu = np.abs(ubar)
    a = beta1 / (b + absu) ** ap
    da = -ap * beta1 * np.sign(ubar) / (b + absu) ** (ap + 1)
    je = (eps * eps + du * du) ** (p / 2) - eps**p
    jp = p * du * (eps * eps + du * du) ** (p / 2 - 1)
    half = 0.5 * meas * (da * je - fbar)
    flux = meas * a * jp / h
    g = np.zeros(u.size - 1)
    g += half - flux
    g[1:] += half[:-1] + flux[:-1]
    return g


def _hessian_oracle(u, h, meas, fbar, beta1, b, ap, p, eps):
    """The separate Hessian kernel the solver used before ``_derivatives``."""
    ubar = 0.5 * (u[:-1] + u[1:])
    du = (u[1:] - u[:-1]) / h
    absu = np.abs(ubar)
    a = beta1 / (b + absu) ** ap
    da = -ap * beta1 * np.sign(ubar) / (b + absu) ** (ap + 1)
    dda = ap * (ap + 1) * beta1 / (b + absu) ** (ap + 2)
    q = eps * eps + du * du
    je = q ** (p / 2) - eps**p
    jp = p * du * q ** (p / 2 - 1)
    slope_share = np.divide(du * du, q, out=np.zeros_like(q), where=q > 0.0)
    jpp = p * q ** (p / 2 - 1) * (1.0 + (p - 2.0) * slope_share)
    w1 = 0.25 * meas * dda * je
    w2 = meas * a * jpp / (h * h)
    w3 = meas * da * jp / h
    diag = w1 + w2 - w3
    diag[1:] += (w1 + w2 + w3)[:-1]
    return diag, (w1 - w2)[:-1]


# node values from a small set give flat cells (equal neighbours) and
# vanishing midpoints (opposite neighbours); the floats give sign changes
_NODE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0]),
    st.floats(min_value=-5.0, max_value=5.0),
)


@given(
    p=st.sampled_from([1.5, 2.0, 3.0]),
    alpha=st.floats(min_value=0.0, max_value=0.6),
    epsilon=st.sampled_from([0.0, 1e-6, 1e-3, 0.25, 1.0]),
    n=st.integers(min_value=2, max_value=4),
    scale=st.sampled_from([0.0, 1.0, -2.0]),
    free=st.lists(_NODE_VALUES, min_size=1, max_size=40),
)
@example(p=2.0, alpha=0.25, epsilon=0.0, n=4, scale=0.0, free=[0.0, 0.0, 0.0])
@example(p=3.0, alpha=0.1, epsilon=0.0, n=3, scale=1.0, free=[1.0, -1.0, 1.0, 1.0, 0.5])
@example(p=1.5, alpha=0.2, epsilon=1e-6, n=4, scale=1.0, free=[-0.5, 0.5, 0.5, -3.0])
@settings(max_examples=200, deadline=None)
def test_derivatives_match_separate_gradient_and_hessian(p, alpha, epsilon, n, scale, free):
    assume(p <= n and alpha * holder_conjugate(p) < 1.0)
    assume(epsilon > 0.0 or p >= 2.0)
    cells = len(free)
    grid = RadialGrid(n=n, radius=1.0, cells=cells)
    spec = make_spec(grid, n=n, p=p, alpha=alpha, r=1.5, scale=abs(scale), epsilon=epsilon)
    source = math.copysign(1.0, scale) * spec.source
    u = np.array(free + [0.0])
    args = (u, grid.spacing, grid.cell_measures, source, *_coefficients(spec))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _evaluate(*args)
        want = (_energy_oracle(*args), _gradient_oracle(*args), *_hessian_oracle(*args))
    for mine, oracle in zip(got, want):
        assert np.array_equal(mine, oracle)
        assert np.array_equal(np.signbit(mine), np.signbit(oracle))


def test_newton_direction_shifts_indefinite_hessian():
    diag = np.array([2.0, -1.0, 3.0, 1.0])
    off = np.array([0.5, 0.5, -0.25])
    metric = np.array([1.0, 2.0, 0.5, 1.0])
    g = np.array([1.0, -2.0, 0.5, 3.0])
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.linalg.eigvalsh(dense).min() < 0.0
    d = _newton_direction(diag, off, metric, g)
    # d solves (H + sigma M) d = -g for one positive definite shift sigma
    sigmas = (-g - dense @ d) / (metric * d)
    sigma = float(sigmas[0])
    assert sigma > 0.0
    assert np.allclose(sigmas, sigma, rtol=1e-10)
    assert np.linalg.eigvalsh(dense + sigma * np.diag(metric)).min() > 0.0
    assert float(g @ d) < 0.0
    # a positive definite Hessian is solved unshifted
    spd = dense + 4.0 * np.eye(4)
    d0 = _newton_direction(np.diag(spd).copy(), off, metric, g)
    assert np.allclose(spd @ d0, -g, rtol=0.0, atol=1e-12)


def _evaluate_before(u, h, meas, fbar, beta1, b, ap, p, eps):
    """``_evaluate`` before b + |ubar|, du^2, meas a and w1 + w2 were each taken once."""
    ubar = 0.5 * (u[:-1] + u[1:])
    du = (u[1:] - u[:-1]) / h
    absu = np.abs(ubar)
    a = beta1 / (b + absu) ** ap
    da = -ap * beta1 * np.sign(ubar) / (b + absu) ** (ap + 1)
    dda = ap * (ap + 1) * beta1 / (b + absu) ** (ap + 2)
    q = eps * eps + du * du
    q_power = q ** (p / 2 - 1)
    je = q ** (p / 2) - eps**p
    energy = float(np.sum(meas * (a * je - fbar * ubar)))
    jp = p * du * q_power
    half = 0.5 * meas * (da * je - fbar)
    flux = meas * a * jp / h
    g = np.zeros(u.size - 1)
    g += half - flux
    g[1:] += half[:-1] + flux[:-1]
    slope_share = np.divide(du * du, q, out=np.zeros_like(q), where=q > 0.0)
    jpp = p * q_power * (1.0 + (p - 2.0) * slope_share)
    w1 = 0.25 * meas * dda * je
    w2 = meas * a * jpp / (h * h)
    w3 = meas * da * jp / h
    diag = w1 + w2 - w3
    diag[1:] += (w1 + w2 + w3)[:-1]
    return energy, g, diag, (w1 - w2)[:-1]


def _tridiagonal_solve_before(diag, off, rhs):
    """The Thomas sweep before it kept y[i - 1] in a local."""
    d = diag.tolist()
    e = off.tolist()
    y = rhs.tolist()
    n = len(d)
    pivots = [0.0] * n
    factors = [0.0] * n
    pivot = d[0]
    if not pivot > 0.0:
        return None
    pivots[0] = pivot
    for i in range(1, n):
        factor = e[i - 1] / pivot
        pivot = d[i] - factor * e[i - 1]
        if not pivot > 0.0:
            return None
        factors[i] = factor
        pivots[i] = pivot
        y[i] -= factor * y[i - 1]
    x = y[n - 1] / pivots[n - 1]
    y[n - 1] = x
    for i in range(n - 2, -1, -1):
        x = y[i] / pivots[i] - factors[i + 1] * x
        y[i] = x
    return np.array(y)


def _newton_direction_before(diag, off, metric, g):
    """The shift loop before sigma = 0 was tried on ``diag`` itself, ahead of the first shift."""
    sigma = 0.0
    first = variational._SHIFT_START * float(np.max(np.abs(diag) / metric)) or variational._SHIFT_START
    while math.isfinite(sigma):
        direction = _tridiagonal_solve_before(diag + sigma * metric, off, -g)
        if direction is not None:
            return direction
        sigma = 2.0 * sigma if sigma else first
    return None


def _same_bits(mine, oracle):
    if mine is None or oracle is None:
        return mine is None and oracle is None
    return np.asarray(mine).tobytes() == np.asarray(oracle).tobytes()


@given(
    p=st.sampled_from([1.5, 2.0, 3.0]),
    epsilon=st.sampled_from([0.0, 1e-6]),
    alpha=st.floats(min_value=0.0, max_value=0.3),
    b_const=st.sampled_from([1.0, 1e-3, 1e-12, 1e-300]),
    scale=st.sampled_from([0.0, 1.0, -2.0]),
    free=st.lists(_NODE_VALUES, min_size=1, max_size=40),
)
@example(p=3.0, epsilon=0.0, alpha=0.3, b_const=1e-300, scale=1.0, free=[0.0, -0.0, 0.5, -0.5])
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_kernel_before_bitwise(p, epsilon, alpha, b_const, scale, free):
    # tobytes() compares every bit, so a -0.0 for a 0.0 or another NaN fails
    assume(epsilon > 0.0 or p >= 2.0)
    grid = RadialGrid(n=4, radius=1.0, cells=len(free))
    spec = make_spec(grid, p=p, alpha=alpha, b_const=b_const, scale=abs(scale), epsilon=epsilon)
    u = np.array(free + [0.0])
    args = (u, grid.spacing, grid.cell_measures, math.copysign(1.0, scale) * spec.source, *_coefficients(spec))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got, want = _evaluate(*args), _evaluate_before(*args)
    assert all(_same_bits(mine, oracle) for mine, oracle in zip(got, want))


def _first_failing_pivot(solve, diag, off, rhs):
    """Size of the smallest leading block whose solve returns None, or None."""
    for m in range(1, diag.size + 1):
        if solve(diag[:m], off[: m - 1], rhs[:m]) is None:
            return m
    return None


_HESSIAN_BREAKS = st.sampled_from([-1.0, 0.0, -0.0, 1e-300, math.inf, -math.inf, math.nan])


@given(
    size=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    breaks=st.lists(st.tuples(st.integers(min_value=0, max_value=29), _HESSIAN_BREAKS), max_size=3),
    shift=st.sampled_from([0.0, 2.5, 5.0]),
)
@settings(max_examples=200, deadline=None)
def test_newton_direction_and_solve_match_the_kernels_before_bitwise(size, seed, breaks, shift):
    # shift 0 draws indefinite matrices, 5 mostly definite ones; the breaks
    # put non-positive or non-finite entries on the diagonal
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1.0, 3.0, size) + shift
    for at, value in breaks:
        diag[at % size] = value
    off = rng.uniform(-2.0, 2.0, size - 1)
    metric = rng.uniform(1e-6, 2.0, size)
    g = rng.normal(size=size)
    g[rng.random(size) < 0.2] = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert _same_bits(_tridiagonal_solve(diag, off, -g), _tridiagonal_solve_before(diag, off, -g))
        assert _first_failing_pivot(_tridiagonal_solve, diag, off, -g) == _first_failing_pivot(
            _tridiagonal_solve_before, diag, off, -g
        )
        assert _same_bits(_newton_direction(diag, off, metric, g), _newton_direction_before(diag, off, metric, g))


# ---------------------------------------------------------------- minimize
def test_minimize_trivial_global_minimum():
    grid = RadialGrid(n=4, radius=1.0, cells=16)
    spec = make_spec(grid, scale=0.0)
    rep = minimize(grid, spec, DiscreteField(np.zeros(17)), SolverTolerances())
    assert rep.converged
    assert rep.status == "converged"
    assert rep.iterations == 0
    assert rep.final_gradient_norm == 0.0
    assert list(rep.energy_trace) == [0.0]
    assert np.all(rep.final_field.nodal_values == 0.0)


def test_minimize_monotone_energy_trace():
    grid = RadialGrid(n=4, radius=1.0, cells=64)
    spec = make_spec(grid)
    rep = minimize(grid, spec, DiscreteField(np.zeros(65)),
                   SolverTolerances(max_iters=300))
    assert len(rep.energy_trace) == rep.iterations + 1
    assert np.all(np.diff(rep.energy_trace) <= 0.0)
    assert rep.energy_trace[-1] < 0.0  # source term pays off from the start


def _tridiag_solve(n, radius, cells, beta1, f_const):
    """Direct solve of the linear (alpha=0, p=2) discrete system; scipy oracle."""
    grid = RadialGrid(n=n, radius=radius, cells=cells)
    meas = grid.cell_measures
    h = grid.spacing
    fbar = np.full(cells, f_const)
    c = 2.0 * beta1 / (h * h)
    lo = np.zeros(cells)
    di = np.zeros(cells)
    up = np.zeros(cells)
    rhs = np.zeros(cells)
    di[0] = c * meas[0]
    up[0] = -c * meas[0]
    rhs[0] = meas[0] * fbar[0] / 2.0
    for i in range(1, cells):
        di[i] = c * (meas[i - 1] + meas[i])
        lo[i] = -c * meas[i - 1]
        if i < cells - 1:
            up[i] = -c * meas[i]
        rhs[i] = (meas[i - 1] * fbar[i - 1] + meas[i] * fbar[i]) / 2.0
    ab = np.zeros((3, cells))
    ab[0, 1:] = up[:-1]
    ab[1, :] = di
    ab[2, :-1] = lo[1:]
    sol = solve_banded((1, 1), ab, rhs)
    return np.concatenate([sol, [0.0]]), grid


def test_minimize_linear_oracle():
    # [DERIVED]: alpha=0, p=2, n=2, f=1 is a linear problem; the direct
    # tridiagonal solve is the oracle.  Continuum solution u = (1-rho^2)/8.
    uref, grid = _tridiag_solve(2, 1.0, 64, 1.0, 1.0)
    assert abs(uref[0] - 0.125) <= 5e-4
    spec = constant_spec(grid, f_const=1.0)
    rep = minimize(grid, spec, DiscreteField(np.zeros(65)),
                   SolverTolerances(grad_tol=1e-12, max_iters=2_000_000))
    err = float(np.max(np.abs(rep.final_field.nodal_values - uref)))
    assert err <= 1e-6


def test_minimize_linear_regime_is_one_newton_solve():
    # The criterion-10 problem is quadratic, so an exact Hessian reaches
    # the tolerance in one Newton step (two allow for rounding).
    grid = RadialGrid(n=2, radius=1.0, cells=128)
    spec = constant_spec(grid, f_const=1.0)
    rep = minimize(grid, spec, DiscreteField(np.zeros(129)), SolverTolerances(grad_tol=1e-12))
    assert rep.status == "converged"
    assert rep.iterations <= 2
    assert rep.final_gradient_norm <= 1e-12


def test_minimize_scaling_equivariance():
    # In the linear regime the whole Newton trajectory is equivariant under
    # f -> sigma f, so fixed-iteration runs must match to rounding error.
    grid = RadialGrid(n=2, radius=1.0, cells=64)
    tol = SolverTolerances(grad_tol=0.0, max_iters=500)
    u0 = DiscreteField(np.zeros(65))
    rep1 = minimize(grid, constant_spec(grid, f_const=1.0), u0, tol)
    rep3 = minimize(grid, constant_spec(grid, f_const=3.0), u0, tol)
    u1 = rep1.final_field.nodal_values
    u3 = rep3.final_field.nodal_values
    scale = float(np.max(np.abs(3.0 * u1)))
    assert float(np.max(np.abs(u3 - 3.0 * u1))) <= 1e-8 * scale
    assert rep1.iterations == rep3.iterations


@pytest.mark.parametrize(
    "p, alpha, r, cells, extra",
    [
        (2.0, 0.25, 3.0, TRICHOTOMY_GRIDS, "roundoff checks"),
        (3.0, 0.1, 1.25, (64, 128, 256), "rejected trials"),
    ],
)
def test_minimize_evaluates_each_field_once(monkeypatch, p, alpha, r, cells, extra):
    fields, norms = [], []
    evaluate, dual_norm = variational._evaluate, variational._dual_norm

    def recording_evaluate(u, *args):
        fields.append(u.tobytes())
        return evaluate(u, *args)

    def counting_dual_norm(g, metric):
        norms.append(g.size)
        return dual_norm(g, metric)

    monkeypatch.setattr(variational, "_evaluate", recording_evaluate)
    monkeypatch.setattr(variational, "_dual_norm", counting_dual_norm)
    params = ProblemParams(n=4, p=p, alpha=alpha, r=r, beta1=1.0, b_const=1.0)
    report = experiment_regularity(params, cells, TRICHOTOMY_TOL)
    assert report.statuses == ["converged"] * len(cells)
    assert len(set(fields)) == len(fields)
    # every solve evaluates its start and each accepted field, and takes
    # one gradient norm at each; a roundoff check takes one more norm,
    # a rejected line-search trial one more evaluation
    accepted = len(cells) + sum(run.iterations for run in report.reports)
    if extra == "roundoff checks":
        assert len(norms) > accepted and len(fields) == accepted
    else:
        assert len(fields) > accepted and len(norms) == accepted


def test_minimize_nonfinite_initial_energy():
    grid = RadialGrid(n=4, radius=1.0, cells=8)
    spec = make_spec(grid)
    u = np.zeros(9)
    u[:-1] = np.where(np.arange(8) % 2 == 0, 1e200, -1e200)  # du^2 overflows
    with pytest.raises(NonFiniteEnergyError):
        minimize(grid, spec, DiscreteField(u), SolverTolerances(max_iters=5))


def test_trichotomy_solves_meet_their_tolerance(trichotomy_runs):
    # A reported minimizer meets its stopping tolerance: every grid
    # converges, including those where the Newton decrement falls below
    # the energy's resolution before the gradient norm reaches grad_tol.
    for report in trichotomy_runs.values():
        for run in report.reports:
            assert run.status == "converged"
            assert run.final_gradient_norm <= TRICHOTOMY_TOL.grad_tol


def test_package_import_is_numpy_only():
    # scipy is a test-only oracle; importing it would slow every start-up.
    src = os.path.dirname(os.path.dirname(leveldecay.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, leveldecay; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- truncation
def test_truncate_examples():
    u = DiscreteField([-3.0, 1.0, 2.0, 0.0])
    t = truncate(u, 2.0)
    assert list(t.nodal_values) == [-2.0, 1.0, 2.0, 0.0]
    g = excess(u, 2.0)
    assert list(g.nodal_values) == [-1.0, 0.0, 0.0, 0.0]


def test_truncate_algebra():
    rng = np.random.default_rng(23)
    u = rng.uniform(-10.0, 10.0, 50)
    u[-1] = 0.0
    field = DiscreteField(u)
    for k in (0.0, 0.7, 2.5, 9.0, 20.0):
        t = truncate(field, k)
        g = excess(field, k)
        assert np.all(np.abs(t.nodal_values) <= k)
        # idempotence and exact decomposition
        assert np.array_equal(truncate(t, k).nodal_values, t.nodal_values)
        assert np.array_equal(t.nodal_values + g.nodal_values, u)
        # excess supported on {|u| >= k}
        assert np.all(g.nodal_values[np.abs(u) < k] == 0.0)
    assert np.all(truncate(field, 0.0).nodal_values == 0.0)
    assert np.array_equal(truncate(field, 20.0).nodal_values, u)
    with pytest.raises(ValueError):
        truncate(field, -1.0)
    with pytest.raises(ValueError):
        excess(field, -1.0)


def test_truncate_commutes_with_sign_flip():
    u = DiscreteField([-3.0, 1.5, 0.25, 0.0])
    a = truncate(DiscreteField(-u.nodal_values), 1.0).nodal_values
    b = -truncate(u, 1.0).nodal_values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- profiles
def test_level_profile_zero_field():
    grid = RadialGrid(n=2, radius=1.0, cells=10)
    zero = DiscreteField(np.zeros(11))
    prof = level_profile(zero, grid, [1.0, 2.0])
    assert list(prof.measures) == [0.0, 0.0]
    prof0 = level_profile(zero, grid, [0.0])
    assert prof0.measures[0] == pytest.approx(math.pi, rel=1e-12)


def test_level_profile_crossing_radius():
    # [DERIVED]: u = 1 - rho on the unit disk, level 0.5: the cells with
    # average >= 0.5 are exactly those inside rho = 0.5, measure pi/4.
    grid = RadialGrid(n=2, radius=1.0, cells=10)
    u = DiscreteField(1.0 - grid.nodes)
    prof = level_profile(u, grid, [0.5])
    assert prof.measures[0] == pytest.approx(math.pi * 0.25, rel=1e-12)


def _profile_oracle(field, grid, levels):
    """One fresh sort of the midpoint values per call."""
    u = field.nodal_values
    return distribution_function(np.abs(0.5 * (u[:-1] + u[1:])), grid.cell_measures, levels)


def _assert_same_profile(got, want):
    assert np.array_equal(got.levels, want.levels)
    assert np.array_equal(got.measures, want.measures)
    assert got.total_measure == want.total_measure


def _random_field(rng, cells):
    values = rng.normal(size=cells + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    values[rng.random(cells + 1) < 0.2] = 0.0  # tied cells
    values[-1] = 0.0
    return DiscreteField(values)


def _random_levels(rng, field):
    top = float(np.max(np.abs(field.nodal_values))) * 1.5 + 1e-3
    draws = rng.uniform(0.0, top, size=int(rng.integers(0, 30)))
    u = field.nodal_values
    ties = np.abs(0.5 * (u[:-1] + u[1:]))[: rng.integers(0, 4)]  # levels hit exactly
    return np.unique(np.concatenate([draws, [0.0], ties]))


@settings(max_examples=80, deadline=None)
@given(cells=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_level_profile_reuse_matches_a_fresh_sort(cells, seed):
    # Several level sets in a row on one field, then the same field on two
    # grids of equal cell count but different radii, interleaved: every
    # profile equals a fresh distribution_function bit for bit.
    rng = np.random.default_rng(seed)
    field = _random_field(rng, cells)
    small = RadialGrid(n=3, radius=1.0, cells=cells)
    large = RadialGrid(n=3, radius=2.5, cells=cells)
    for grid in (small, small, small, large, small, large, large, small):
        levels = _random_levels(rng, field)
        _assert_same_profile(level_profile(field, grid, levels), _profile_oracle(field, grid, levels))


def test_level_profile_sorts_once_per_grid():
    grid = RadialGrid(n=4, radius=1.0, cells=64)
    field = DiscreteField(1.0 - grid.nodes**2)
    level_profile(field, grid, [0.5])
    index = field._level_index
    level_profile(field, grid, [0.1, 0.9])
    levelset_inequality_check(field, grid, make_spec(grid), [(0.8, 0.4)])
    assert field._level_index is index
    # an equal grid holds another measures array, so it gets its own index
    level_profile(field, RadialGrid(n=4, radius=1.0, cells=64), [0.5])
    assert field._level_index is not index


@settings(max_examples=40, deadline=None)
@given(cells=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_levelset_check_cold_and_warm_index_agree(cells, seed):
    rng = np.random.default_rng(seed)
    values = _random_field(rng, cells).nodal_values
    grid = RadialGrid(n=4, radius=1.0, cells=cells)
    spec = make_spec(grid)
    top = float(np.max(np.abs(values))) * 1.5 + 1e-3
    draws = np.sort(rng.uniform(1e-6 * top, top, size=(12, 2)), axis=1)
    pairs = [(float(h), float(k)) for k, h in draws if h > k]
    cold = levelset_inequality_check(DiscreteField(values), grid, spec, pairs)
    warm_field = DiscreteField(values)
    level_profile(warm_field, RadialGrid(n=4, radius=2.0, cells=cells), [top / 2.0])
    level_profile(warm_field, grid, [top / 2.0])
    assert levelset_inequality_check(warm_field, grid, spec, pairs) == cold
    assert levelset_inequality_check(warm_field, grid, spec, pairs) == cold


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_level_profile_overflowing_midpoints_keep_no_index(sign):
    grid = RadialGrid(n=2, radius=1.0, cells=3)
    field = DiscreteField([sign * 1e308, sign * 9e307, 1.0, 0.0])
    for _ in range(3):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="values and weights must be finite"):
            level_profile(field, grid, [1.0])
        assert field._level_index is None


# ---------------------------------------------------------------- level-set inequality
def _step_field_and_spec():
    grid = RadialGrid(n=4, radius=1.0, cells=8)
    vals = np.array([4.0, 3.0, 2.5, 1.8, 1.2, 0.7, 0.3, 0.1, 0.0])
    spec = make_spec(grid)
    return DiscreteField(vals), grid, spec


def test_levelset_check_rejects_bad_pairs():
    field, grid, spec = _step_field_and_spec()
    with pytest.raises(ValueError):
        levelset_inequality_check(field, grid, spec, [(1.0, 2.0)])
    with pytest.raises(ValueError):
        levelset_inequality_check(field, grid, spec, [(1.0, 1.0)])
    with pytest.raises(ValueError):
        levelset_inequality_check(field, grid, spec, [(2.0, 0.0)])


def test_levelset_check_rejects_infinite_level():
    field, grid, spec = _step_field_and_spec()
    with pytest.raises(ValueError):
        levelset_inequality_check(field, grid, spec, [(math.inf, 1.0)])


def test_levelset_check_bounded_regime_trivial():
    field, grid, spec = _step_field_and_spec()
    rep = levelset_inequality_check(field, grid, spec, [(20.0, 10.0), (40.0, 30.0)])
    assert rep.skipped == [(20.0, 10.0), (40.0, 30.0)]
    assert rep.residuals == []
    assert rep.constant == 0.0


def test_levelset_check_against_hand_formula():
    # [DERIVED]: exponents frozen by hand for (n=4, p=2, alpha=1/4, r=7/4):
    # A = 3/2, B = 11/14, C = 4/7, D = 3.
    field, grid, spec = _step_field_and_spec()
    A, B, C, D = 1.5, 11.0 / 14.0, 4.0 / 7.0, 3.0
    pairs = [(2.0, 1.0), (3.0, 1.5)]
    vals = np.abs(0.5 * (field.nodal_values[:-1] + field.nodal_values[1:]))
    expected = []
    for h, k in pairs:
        mh = float(np.sum(grid.cell_measures[vals >= h]))
        mk = float(np.sum(grid.cell_measures[vals >= k]))
        rhs = (h**A * mk**B + mk**C) / (h - k) ** D
        expected.append(mh / rhs)
    rep = levelset_inequality_check(field, grid, spec, pairs)
    assert len(rep.residuals) == 2
    for (h, k, ratio), want in zip(rep.residuals, expected):
        assert ratio == pytest.approx(want, rel=1e-12)
    assert rep.constant == pytest.approx(max(expected), rel=1e-12)
    assert rep.skipped == []


def _levelset_oracle(field, grid, spec, pairs):
    """The per-pair mask sums that levelset_inequality_check ran before."""
    hyp = compute_exponents(spec.params).hyp
    u = field.nodal_values
    mid = np.abs(0.5 * (u[:-1] + u[1:]))
    meas = grid.cell_measures
    residuals, skipped = [], []
    for h, k in pairs:
        measure_k = float(np.sum(meas[mid >= k]))
        if measure_k == 0.0:
            skipped.append((h, k))
            continue
        measure_h = float(np.sum(meas[mid >= h]))
        rhs = (h**hyp.A * measure_k**hyp.B + measure_k**hyp.C) / (h - k) ** hyp.D
        residuals.append((h, k, measure_h / rhs))
    return residuals, skipped


@settings(max_examples=60, deadline=None)
@given(
    cells=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.integers(0, 40),
    r=st.sampled_from([1.75, 2.0, 3.0]),
)
def test_levelset_check_matches_mask_oracle(cells, seed, n_pairs, r):
    rng = np.random.default_rng(seed)
    grid = RadialGrid(n=4, radius=1.0, cells=cells)
    spec = make_spec(grid, r=r)
    values = rng.normal(size=cells + 1) * 10.0 ** rng.uniform(-2.0, 2.0)
    values[-1] = 0.0
    field = DiscreteField(values)
    # levels around the field's range, some repeated, some above its peak
    top = float(np.max(np.abs(values))) * 1.5 + 1e-3
    draws = np.sort(rng.uniform(1e-6 * top, top, size=(n_pairs, 2)), axis=1)
    pairs = [(float(h), float(k)) for k, h in draws if h > k]
    if pairs and n_pairs % 3 == 0:
        pairs.append(pairs[0])
    rep = levelset_inequality_check(field, grid, spec, pairs)
    residuals, skipped = _levelset_oracle(field, grid, spec, pairs)
    assert rep.skipped == skipped
    assert [(h, k) for h, k, _ in rep.residuals] == [(h, k) for h, k, _ in residuals]
    for (_, _, got), (_, _, want) in zip(rep.residuals, residuals):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    want_constant = max((ratio for _, _, ratio in residuals), default=0.0)
    assert rep.constant == pytest.approx(want_constant, rel=1e-12, abs=0.0)


def _levelset_by_unique_levels(field, grid, spec, pairs):
    """The check as it read its measures before: one level_profile of the
    np.unique of the pair levels, spread back to the pairs."""
    hyp = compute_exponents(spec.params).hyp
    levels = np.array(pairs, dtype=float).reshape(-1, 2)
    h, k = levels[:, 0], levels[:, 1]
    unique, index = np.unique(levels, return_inverse=True)
    measures = level_profile(field, grid, unique).measures[index].reshape(-1, 2)
    kept = measures[:, 1] > 0.0
    skipped = [(float(a), float(b)) for a, b in levels[~kept]]
    if not kept.any():
        return [], skipped, 0.0
    ratios, worst, _ = _pair_scan(
        h[kept], k[kept], measures[kept, 0], measures[kept, 1], 1.0, hyp.A, hyp.B, hyp.C, hyp.D
    )
    return list(zip(h[kept].tolist(), k[kept].tolist(), ratios.tolist())), skipped, float(ratios[worst])


@settings(max_examples=80, deadline=None)
@given(
    cells=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    copies=st.sampled_from([1, 1, 40]),
)
@example(cells=64, seed=1, picks=[(i, j) for i in range(12) for j in range(12)], copies=10)
def test_levelset_check_reads_the_index_as_the_unique_levels_did(cells, seed, picks, copies):
    # Pairs drawn from a pool of 12 levels, so levels repeat and are shared
    # between pairs, in no order: cell values hit exactly, levels above the
    # peak (skipped pairs) and a k below every nonzero cell.  Repeated 40
    # times, most lists pass 512 levels, where the check sorts them first.
    rng = np.random.default_rng(seed)
    grid = RadialGrid(n=4, radius=1.0, cells=cells)
    spec = make_spec(grid)
    field = _random_field(rng, cells)
    mid = np.abs(0.5 * (field.nodal_values[:-1] + field.nodal_values[1:]))
    top = float(mid.max()) + 1e-3
    pool = np.concatenate([rng.uniform(0.0, top, 6), rng.choice(mid, 3), [1e-300, 2.0 * top, 3.0 * top]])
    pairs = [(float(pool[i]), float(pool[j])) for i, j in picks if pool[i] > pool[j] > 0.0] * copies
    got = levelset_inequality_check(field, grid, spec, pairs)
    assert (got.residuals, got.skipped, got.constant) == _levelset_by_unique_levels(field, grid, spec, pairs)


def test_levelset_check_total_measure_past_the_float_range_rejected_as_before():
    # Each shell is finite but the four sum past the float range.
    grid = RadialGrid(n=3, radius=6e307 ** (1.0 / 3.0), cells=4)
    spec = make_spec(grid, n=3, alpha=0.25)
    field = DiscreteField([3.0, 1.0, 1.0, 1.0, 0.0])
    for pairs in ([(2.5, 1.0)], [(2.5, 1e-300)], []):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as before:
                _levelset_by_unique_levels(field, grid, spec, pairs)
            with pytest.raises(ValueError, match=f"^{before.value}$"):
                levelset_inequality_check(field, grid, spec, pairs)


def test_levelset_constant_stable_under_refinement(trichotomy_runs):
    # Spec-level check: the fitted constant of the level-set inequality for
    # the r = 7/4 minimizer drifts < 10% from 1024 to 4096 cells.
    report = trichotomy_runs[1.75]
    idx1024 = report.grid_cells.index(1024)
    idx4096 = report.grid_cells.index(4096)
    mx = report.max_u[idx1024]
    ks = np.geomspace(mx / 50.0, mx / 8.0, 10)
    pairs = [(2.0 * k, k) for k in ks]
    cs = []
    for idx in (idx1024, idx4096):
        rep = levelset_inequality_check(
            report.final_fields[idx], report.grids[idx], report.specs[idx], pairs
        )
        assert rep.skipped == []
        assert math.isfinite(rep.constant) and rep.constant > 0.0
        cs.append(rep.constant)
    assert abs(cs[1] - cs[0]) / cs[0] < 0.10


# ---------------------------------------------------------------- experiments
def test_tail_fit_of_ignores_level_zero():
    assert tail_fit_of(DistributionProfile([0.0], [1.0], 1.0)) is None
    ks = np.geomspace(1.0, 10.0, 20)
    fit = tail_fit_of(DistributionProfile(np.append(0.0, ks), np.append(1.0, ks**-3.0), 1.0))
    assert fit.slope == pytest.approx(-3.0, rel=1e-12)


def test_experiment_tail_branch_structure():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    rep = experiment_regularity(params, (64, 128), SolverTolerances(max_iters=1500))
    assert rep.grid_cells == (64, 128)
    assert len(rep.profiles) == 2
    assert len(rep.reports) == 2
    assert rep.max_u[1] > rep.max_u[0] > 0.0  # spike sharpens under refinement
    assert rep.predicted_slope == pytest.approx(-7.0, rel=1e-12)
    assert rep.tail_fit is not None
    assert math.isfinite(rep.tail_fit.slope)
    assert rep.exp_fit is None
    assert rep.stabilization_ratio is None
    for mrep in rep.reports:
        assert mrep.status in {"converged", "max_iters", "stagnated"}


def test_experiment_exp_branch_structure():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=2.0)
    rep = experiment_regularity(params, (64,), SolverTolerances(max_iters=1500))
    assert rep.theta == pytest.approx(0.5, rel=1e-12)
    assert rep.exp_fit is not None
    assert rep.tail_fit is None
    assert rep.stabilization_ratio is None


def test_experiment_bounded_branch_structure():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=3.0)
    rep = experiment_regularity(params, (32, 64, 128), SolverTolerances(max_iters=1500))
    assert rep.stabilization_ratio is not None
    assert rep.stabilization_ratio >= 0.0
    assert rep.tail_fit is None
    assert rep.exp_fit is None


def test_experiment_zero_source():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    rep = experiment_regularity(
        params, (32,), SolverTolerances(max_iters=100), source_scale=0.0
    )
    assert rep.max_u == [0.0]
    assert rep.tail_fit is None
    assert len(rep.profiles[0].levels) == 0
