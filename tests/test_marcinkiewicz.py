"""Oracle tests for the weak-space machinery.

Analytic distribution functions of radial powers serve as the main
oracle; scipy quadrature double-checks the closed-form cell averages,
and the ascending-sort suffix-sum form of ``distribution_function`` is
the oracle of its one-sort prefix-sum form, whose argsort path is in turn
the oracle of the sort-free path for already ordered fields.
"""
import math

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from leveldecay.marcinkiewicz import (
    DistributionProfile,
    _LevelIndex,
    InsufficientPointsError,
    distribution_function,
    exp_integrability_fit,
    integral_bound_check,
    power_source,
    summability_test,
    tail_exponent_fit,
    unit_ball_volume,
    weak_norm_estimate,
)


# ---------------------------------------------------------------- geometry
def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-14)


def test_unit_ball_volume_past_the_gamma_overflow():
    # up to n = 341 the volume is the plain quotient, bit for bit
    for n in range(1, 342):
        assert unit_ball_volume(n) == math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    with pytest.raises(OverflowError):
        math.gamma(342 / 2.0 + 1.0)
    mpmath.mp.dps = 30
    for n in (342, 400, 440):
        exact = mpmath.pi ** (n / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
        assert unit_ball_volume(n) == pytest.approx(float(exact), rel=1e-11)
    assert 0.0 < unit_ball_volume(450) < 1e-320  # a subnormal volume is still a volume
    for n in (500, 1300):  # pi**(n/2) overflows too from n = 1242
        with pytest.raises(ValueError, match=rf"underflows to 0 in dimension n = {n}$"):
            unit_ball_volume(n)


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_dimension_is_checked_before_the_other_arguments(n):
    with pytest.raises(ValueError, match="^dimension must be a positive integer$"):
        unit_ball_volume(n)
    # nodes, r and scale are all invalid too
    with pytest.raises(ValueError, match="^dimension must be a positive integer$"):
        power_source([1.0, 0.5], n=n, r=0.5, scale=-1.0)


# ---------------------------------------------------------------- distribution
def test_distribution_constant_field():
    prof = distribution_function(
        values=[5.0], weights=[1.0], levels=[1.0, 5.0, 6.0]
    )
    assert list(prof.measures) == [1.0, 1.0, 0.0]
    assert prof.total_measure == 1.0


def test_distribution_empty_levels():
    prof = distribution_function(values=[1.0, 2.0], weights=[0.5, 0.5], levels=[])
    assert len(prof.levels) == 0
    assert prof.total_measure == 1.0


def test_distribution_length_mismatch():
    with pytest.raises(ValueError):
        distribution_function(values=[1.0, 2.0], weights=[1.0], levels=[1.0])


def test_distribution_uses_geq_convention():
    prof = distribution_function(
        values=[1.0, 2.0, 3.0], weights=[1.0, 1.0, 1.0], levels=[2.0]
    )
    assert prof.measures[0] == 2.0  # ties at the level are counted


def test_distribution_level_zero_and_above_max():
    vals = [0.3, 1.7, 0.0]
    w = [0.2, 0.3, 0.5]
    prof = distribution_function(vals, w, [0.0, 5.0])
    assert prof.measures[0] == pytest.approx(sum(w), rel=1e-15)
    assert prof.measures[1] == 0.0


def test_distribution_monotone_under_level_insertion():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 10, 500)
    w = rng.uniform(0.1, 1.0, 500)
    base = distribution_function(vals, w, [2.0, 6.0])
    mid = distribution_function(vals, w, [2.0, 4.0, 6.0])
    assert base.measures[1] <= mid.measures[1] <= base.measures[0]


def test_distribution_matches_analytic_power_source():
    n, r = 2, 2.0
    N = 2000
    nodes = np.linspace(0.0, 1.0, N + 1)
    src = power_source(nodes, n=n, r=r, scale=1.0)
    w = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
    levels = np.geomspace(1.5, 50.0, 40)
    prof = distribution_function(src.cell_values, w, levels)
    for k, m in zip(prof.levels, prof.measures):
        exact = src.analytic_distribution(k)
        # quadrature error: one cell of the crossing radius
        crossing = (1.0 / k) ** (r / n)
        cell = unit_ball_volume(n) * ((crossing + 1 / N) ** n - crossing**n)
        assert abs(m - exact) <= 2 * cell + 1e-12


def _oracle_distribution(values, weights, levels):
    """The ascending sort with reversed suffix sums that distribution_function ran before."""
    av = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    order = np.argsort(av, kind="stable")
    suffix = np.zeros(av.size + 1)
    if av.size:
        suffix[:-1] = np.cumsum(w[order][::-1])[::-1]
    idx = np.searchsorted(av[order], np.asarray(levels, dtype=float), side="left")
    return suffix[idx], float(suffix[0]) if av.size else 0.0


@st.composite
def _fields_and_levels(draw, weights):
    """Values with negatives, zeros and repeats; levels at values, 0 and above the maximum."""
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    values = draw(st.lists(st.sampled_from(pool + [0.0]), max_size=60))
    w = draw(st.lists(weights, min_size=len(values), max_size=len(values)))
    top = max((abs(v) for v in values), default=0.0)
    picked = draw(st.lists(st.sampled_from([abs(v) for v in pool] + [0.0, top + 1.0])))
    extra = draw(st.lists(st.floats(0.0, 2e3), max_size=5))
    levels = sorted(set(picked + extra))
    return values, w, levels


@settings(max_examples=200, deadline=None)
@given(drawn=_fields_and_levels(st.integers(0, 2**20).map(float)))
def test_distribution_matches_sorted_suffix_oracle_exactly_on_integer_weights(drawn):
    # Every partial sum of integer weights is exact, so summation order cannot show.
    values, w, levels = drawn
    prof = distribution_function(values, w, levels)
    measures, total = _oracle_distribution(values, w, levels)
    assert np.array_equal(prof.measures, measures)
    assert prof.total_measure == total


@settings(max_examples=200, deadline=None)
@given(drawn=_fields_and_levels(st.floats(0.0, 1e3)))
def test_distribution_matches_sorted_suffix_oracle_on_float_weights(drawn):
    values, w, levels = drawn
    prof = distribution_function(values, w, levels)
    measures, total = _oracle_distribution(values, w, levels)
    assert prof.measures == pytest.approx(measures, rel=1e-12, abs=0.0)
    assert prof.total_measure == pytest.approx(total, rel=1e-12, abs=0.0)


def _argsort_index(values, weights):
    """keys and prefix as the stable argsort of -|v| gives them, for any input order."""
    neg = -np.abs(np.asarray(values, dtype=float))
    order = np.argsort(neg, kind="stable")
    prefix = np.zeros(neg.size + 1)
    np.cumsum(np.asarray(weights, dtype=float)[order], out=prefix[1:])
    return neg[order], prefix


@st.composite
def _ordered_fields(draw):
    """|v| nonincreasing with ties, zeros and both signs; optionally a last value out of order."""
    magnitudes = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 3.0, 1e300]) | st.floats(0.0, 1e3),
                               min_size=1, max_size=60))
    magnitudes.sort(reverse=True)
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(magnitudes), max_size=len(magnitudes)))
    values = [s * m for s, m in zip(signs, magnitudes)]
    if len(values) > 1 and draw(st.booleans()):
        values[-1] = -(abs(values[0]) + 1.0)  # out of order only at the last element
    weights = draw(st.lists(st.floats(0.0, 1e3), min_size=len(values), max_size=len(values)))
    return np.array(values), np.array(weights)


@settings(max_examples=200, deadline=None)
@given(drawn=_ordered_fields())
def test_level_index_ordered_input_matches_argsort_path_bitwise(drawn):
    values, weights = drawn
    index = _LevelIndex(values, weights)
    keys, prefix = _argsort_index(values, weights)
    # tobytes also tells -0.0 from 0.0
    assert index.keys.tobytes() == keys.tobytes()
    assert index.prefix.tobytes() == prefix.tobytes()


def test_level_index_last_element_out_of_order_is_sorted():
    values = np.array([5.0, -4.0, 4.0, 0.0, -0.0, 6.0])
    weights = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    index = _LevelIndex(values, weights)
    assert index.keys.tolist() == [-6.0, -5.0, -4.0, -4.0, -0.0, -0.0]
    assert index.prefix.tolist() == [0.0, 32.0, 33.0, 35.0, 39.0, 47.0, 63.0]
    assert distribution_function(values, weights, [4.0, 6.0]).measures.tolist() == [39.0, 32.0]


def _profile_error_before(levels, measures, total_measure):
    """First message of ``DistributionProfile``'s validation as written with
    the np.all/np.any/np.diff wrappers, or None when it accepts."""
    levels = np.array(levels, dtype=float)
    measures = np.array(measures, dtype=float)
    total_measure = float(total_measure)
    if levels.ndim != 1 or measures.ndim != 1:
        return "levels and measures must be one-dimensional"
    if levels.shape != measures.shape:
        return "levels and measures must have equal length"
    if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(measures))):
        return "levels and measures must be finite"
    if levels.size:
        if np.any(levels < 0.0):
            return "levels must be nonnegative"
        if np.any(np.diff(levels) <= 0.0):
            return "levels must be strictly increasing"
    if np.any(measures < 0.0):
        return "measures must be nonnegative"
    if measures.size > 1:
        rises = measures[1:] - measures[:-1]
        if np.any(rises > 1e-12 * np.maximum(measures[:-1], 1.0)):
            return "measures must be nonincreasing in the level"
    if not math.isfinite(total_measure) or total_measure < 0.0:
        return "total_measure must be finite and nonnegative"
    if measures.size and measures[0] > total_measure * (1.0 + 1e-12):
        return "measures cannot exceed the total measure"
    return None


def _level_index_error_before(values, weights):
    """First message of ``_LevelIndex``'s validation as written with np.all/np.any."""
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if vals.ndim != 1 or w.ndim != 1:
        return "values and weights must be one-dimensional"
    if vals.shape != w.shape:
        return "values and weights must have equal length"
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(w))):
        return "values and weights must be finite"
    if np.any(w < 0.0):
        return "weights must be nonnegative"
    return None


def _error(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


_SPECIAL = st.sampled_from([0.0, -0.0, -1.0, -1e-300, 1e-300, 1e308, math.nan, math.inf, -math.inf])


@st.composite
def _profile_inputs(draw):
    """Levels and measures that are sorted, tied or decreasing, with rises
    inside and past the slack, a special value, empty inputs and mismatched
    or two-dimensional shapes."""
    size = draw(st.integers(0, 8))
    levels = draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size))
    order = draw(st.sampled_from(["increasing", "increasing", "raw", "decreasing"]))
    if order != "raw":
        levels.sort(reverse=order == "decreasing")
    if size > 1 and draw(st.integers(0, 3)) == 0:
        levels[1] = levels[0]  # a tie
    measures = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=size, max_size=size)), reverse=True)
    if size > 1 and draw(st.booleans()):
        at = draw(st.integers(1, size - 1))
        gain = draw(st.sampled_from([0.0, 0.5e-12, 1e-12, 2e-12, 1e-6, 1.0]))
        measures[at] = measures[at - 1] + gain * max(measures[at - 1], 1.0)
    if size and draw(st.booleans()):
        values = draw(st.sampled_from([levels, measures]))
        values[draw(st.integers(0, size - 1))] = draw(_SPECIAL)
    shape = draw(st.sampled_from(["equal"] * 5 + ["longer", "shorter", "2-d"]))
    if shape == "longer":
        measures.append(0.0)
    elif shape == "shorter" and measures:
        measures.pop()
    elif shape == "2-d":
        levels = [levels]
    top = max(measures, default=0.0)
    total = draw(st.sampled_from([top, top * (1.0 + 0.5e-12), top * (1.0 + 2e-12), 0.0, -1.0, math.nan, math.inf]))
    return levels, measures, total


@settings(max_examples=400, deadline=None)
@given(drawn=_profile_inputs())
@example(drawn=([], [], 0.0))
@example(drawn=([1.0, 2.0], [1.0, 1.0 + 0.5e-12], 1.0))  # a rise inside the slack
@example(drawn=([1.0, 2.0], [1.0, 1.0 + 2e-12], 1.0 + 2e-12))  # and past it
@example(drawn=([1.0, 2.0], [-1e-300, -1e-300], 0.0))
@example(drawn=([1.0], [-1.0], 1.0))
@example(drawn=([1.0], [2.0], 1.0))
def test_validators_accept_and_reject_as_before(drawn):
    levels, measures, total = drawn
    with np.errstate(over="ignore", invalid="ignore"):
        want = _profile_error_before(levels, measures, total)
        assert _error(lambda: DistributionProfile(levels, measures, total)) == want
        # the same arrays as the values and weights of a level index
        assert _error(lambda: _LevelIndex(levels, measures)) == _level_index_error_before(levels, measures)


# ---------------------------------------------------------------- weak norm
def test_weak_norm_power_source_disk():
    # [DERIVED]: |{|x|^{-1} > t}| = pi * t^{-2} on the unit disk, so the
    # M^2 norm^2 estimate is pi up to mesh effects.  The exact cell
    # averages slightly exceed the pointwise right-node values, so the
    # discrete estimate overshoots pi by a factor (1 + k h / 2)^2 at
    # level k on a mesh of width h; re-derivation gives est/pi = 1.0124
    # for k <= 50, h = 1/4000 (at k = 1e3 the overshoot reaches 1.23,
    # which is a property of the averaged field, not an estimator bug).
    n, r = 2, 2.0
    N = 4000
    nodes = np.linspace(0.0, 1.0, N + 1)
    src = power_source(nodes, n=n, r=r, scale=1.0)
    w = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
    levels = np.geomspace(1.0, 50.0, 10_000)
    prof = distribution_function(src.cell_values, w, levels)
    est = weak_norm_estimate(prof, r)
    assert est.norm_estimate == pytest.approx(math.pi, rel=0.02)
    assert est.norm_estimate <= math.pi * (1 + 50.0 / (2 * N)) ** 2


def test_weak_norm_constant_field():
    prof = distribution_function([3.0], [2.0], [0.5, 1.0, 2.0, 2.5, 3.5])
    est = weak_norm_estimate(prof, 2.0)
    # attained at the top level not exceeding the constant
    assert est.attained_at == 2.5
    assert est.norm_estimate == pytest.approx(2.5**2 * 2.0, rel=1e-14)


def test_weak_norm_zero_field():
    prof = distribution_function([0.0, 0.0], [1.0, 1.0], [0.5, 1.0])
    est = weak_norm_estimate(prof, 2.0)
    assert est.norm_estimate == 0.0


def test_weak_norm_monotone_under_refinement():
    n, r = 2, 2.0
    nodes = np.linspace(0.0, 1.0, 1001)
    src = power_source(nodes, n=n, r=r, scale=1.0)
    w = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
    coarse = distribution_function(src.cell_values, w, np.geomspace(1, 100, 50))
    fine = distribution_function(src.cell_values, w, np.geomspace(1, 100, 500))
    assert weak_norm_estimate(fine, r).norm_estimate >= weak_norm_estimate(coarse, r).norm_estimate


# ---------------------------------------------------------------- fits
def test_tail_fit_exact_power():
    levels = np.geomspace(1.0, 1e4, 60)
    prof = DistributionProfile(levels=levels, measures=levels**-7.0, total_measure=1.0)
    fit = tail_exponent_fit(prof, 1.0, 1e4)
    assert fit.slope == pytest.approx(-7.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_tail_fit_model_mismatch_detected():
    levels = np.geomspace(1.0, 30.0, 40)
    prof = DistributionProfile(levels=levels, measures=np.exp(-levels), total_measure=1.0)
    fit = tail_exponent_fit(prof, 1.0, 30.0)
    assert fit.r_squared < 0.95


def test_tail_fit_insufficient_points():
    levels = np.geomspace(1.0, 100.0, 20)
    measures = np.where(levels < 2.0, 1.0, 0.0)
    prof = DistributionProfile(levels=levels, measures=measures, total_measure=1.0)
    with pytest.raises(InsufficientPointsError):
        tail_exponent_fit(prof, 1.0, 100.0)


def test_exp_fit_exact():
    lam, theta = 1.0, 0.5
    levels = np.geomspace(1.0, 400.0, 80)
    measures = math.e * 1.0 * np.exp(-2 * lam * levels**theta)
    prof = DistributionProfile(levels=levels, measures=measures, total_measure=math.e)
    fit = exp_integrability_fit(prof, theta, 1.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_exp_fit_discriminates_power_law():
    levels = np.geomspace(10.0, 1e4, 60)
    prof = DistributionProfile(levels=levels, measures=levels**-7.0, total_measure=1.0)
    fit = exp_integrability_fit(prof, 0.5, 10.0)
    assert fit.r_squared < 0.99


def test_exp_fit_insufficient_points():
    prof = DistributionProfile(
        levels=np.array([1.0, 2.0, 3.0]), measures=np.array([0.5, 0.2, 0.1]), total_measure=1.0
    )
    with pytest.raises(InsufficientPointsError):
        exp_integrability_fit(prof, 0.5, 1.0)


# ---------------------------------------------------------------- summability
def test_summability_inverse_square_converges():
    # [DERIVED]: S_K = e|Omega| sum k^{-2} -> e|Omega| pi^2/6.
    omega = 2.0
    k_top = 10_000
    levels = np.arange(1.0, k_top + 1.0)
    measures = math.e * omega * levels**-2.0
    prof = DistributionProfile(levels=levels, measures=measures, total_measure=math.e * omega)
    res = summability_test(prof, r=1.0, k_top=k_top)
    target = math.e * omega * math.pi**2 / 6
    assert res.partial_sums[-1] < target
    assert res.partial_sums[-1] == pytest.approx(target, rel=1e-3)
    assert res.convergent


def test_summability_constant_diverges():
    k_top = 1000
    levels = np.arange(1.0, k_top + 1.0)
    prof = DistributionProfile(
        levels=levels, measures=np.full(k_top, 3.0), total_measure=3.0
    )
    res = summability_test(prof, r=1.0, k_top=k_top)
    assert not res.convergent
    # linear growth of the partial sums
    assert res.partial_sums[-1] == pytest.approx(3.0 * k_top, rel=1e-12)


def test_summability_harmonic_flagged_divergent():
    k_top = 1_000_000
    levels = np.arange(1.0, k_top + 1.0)
    prof = DistributionProfile(levels=levels, measures=1.0 / levels, total_measure=1.0)
    res = summability_test(prof, r=1.0, k_top=k_top)
    assert not res.convergent


def test_summability_step_convention():
    # sparse profile: integer levels are read off by the step convention
    prof = DistributionProfile(
        levels=np.array([1.0, 10.0]), measures=np.array([1.0, 0.25]), total_measure=1.0
    )
    res = summability_test(prof, r=1.0, k_top=20)
    # S_20 = 9 levels at 1.0 (k=1..9) + 11 levels at 0.25 (k=10..20)
    assert res.partial_sums[-1] == pytest.approx(9 * 1.0 + 11 * 0.25, rel=1e-12)


# ---------------------------------------------------------------- integral bound
def test_integral_bound_empty_set():
    chk = integral_bound_check(
        values=np.array([1.0, 2.0]),
        weights=np.array([0.5, 0.5]),
        mask=np.array([False, False]),
        r=2.0,
        norm_const=1.0,
    )
    assert chk.passed
    assert chk.lhs == 0.0


def test_integral_bound_constant_field():
    # f = c on E of measure m with norm_const = c |Omega|^{1/r}:
    # ratio = (m/|Omega|)^{1/r} <= 1.
    c, total = 3.0, 4.0
    w = np.full(8, total / 8)
    vals = np.full(8, c)
    mask = np.zeros(8, dtype=bool)
    mask[:3] = True
    m = w[:3].sum()
    chk = integral_bound_check(vals, w, mask, r=2.0, norm_const=c * total ** (1 / 2.0))
    assert chk.passed
    assert chk.ratio == pytest.approx((m / total) ** 0.5, rel=1e-12)


def test_integral_bound_power_source_worst_sets():
    # Worst E for the bound is a small ball at the origin; the analytic
    # constant of the weak-type integral inequality is r/(r-1) * norm^{1/r}.
    n, r = 2, 2.0
    N = 5000
    nodes = np.linspace(0.0, 1.0, N + 1)
    src = power_source(nodes, n=n, r=r, scale=1.0)
    w = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
    norm_r = math.pi  # M^2 norm^r on the unit disk
    bound_const = (r / (r - 1)) * norm_r ** (1 / r)
    for frac in (0.001, 0.01, 0.1, 1.0):
        mask = nodes[1:] <= frac  # small central balls
        chk = integral_bound_check(src.cell_values, w, mask, r, bound_const)
        assert chk.passed, frac


# ---------------------------------------------------------------- power source
def test_power_source_cell_average_against_quadrature():
    n, r, scale = 4, 1.75, 1.3
    nodes = np.linspace(0.0, 1.0, 33)
    src = power_source(nodes, n=n, r=r, scale=scale)
    for i in (0, 1, 7, 31):
        r1, r2 = nodes[i], nodes[i + 1]
        num, _ = quad(lambda t: t ** (n - 1) * scale * t ** (-n / r), r1, r2)
        den, _ = quad(lambda t: t ** (n - 1), r1, r2)
        assert src.cell_values[i] == pytest.approx(num / den, rel=1e-10)


def test_power_source_matches_two_power_expression_bitwise():
    n, r, scale = 4, 1.75, 1.3
    nodes = np.linspace(0.0, 1.0, 1025) ** 1.7  # non-uniform, finest at the origin
    m = n * (1.0 - 1.0 / r)
    r1, r2 = nodes[:-1], nodes[1:]
    want = scale * (n / m) * (r2**m - r1**m) / (r2**n - r1**n)
    assert np.array_equal(power_source(nodes, n=n, r=r, scale=scale).cell_values, want)


def test_power_source_analytic_distribution_cap():
    n, r, scale = 2, 2.0, 1.0
    nodes = np.linspace(0.0, 1.0, 11)
    src = power_source(nodes, n=n, r=r, scale=scale)
    omega = unit_ball_volume(n)
    assert src.analytic_distribution(10.0) == pytest.approx(omega * 10.0**-r, rel=1e-14)
    assert src.analytic_distribution(1e-6) == pytest.approx(omega, rel=1e-14)  # capped at |Omega|


def test_power_source_zero_scale():
    nodes = np.linspace(0.0, 1.0, 11)
    src = power_source(nodes, n=2, r=2.0, scale=0.0)
    assert np.all(src.cell_values == 0.0)


def test_power_source_domain_errors():
    nodes = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        power_source(nodes, n=2, r=1.0, scale=1.0)
    with pytest.raises(ValueError):
        power_source(nodes, n=2, r=2.0, scale=-1.0)


def test_embedding_sanity_lr_diverges_lr_minus_eps_converges():
    # L^r fails (log divergence toward the origin) while L^{r-eps} converges
    # under refinement.  [DERIVED]: the L^{r-eps} growth per refinement step
    # scales like h^{n eps / r}, so the growth between double-refinements
    # shrinks by 16^{-n eps / r}; eps = 0.75 gives 16^{-0.75} = 0.125, a 2x
    # margin against the 1/4 threshold (eps = 0.1 would only give 0.76 and
    # cannot show a 4x tail-off on this ladder).
    n, r = 2, 2.0
    eps = 0.75
    lr = []
    lr_eps = []
    for N in (64, 256, 1024, 4096):
        nodes = np.linspace(0.0, 1.0, N + 1)
        src = power_source(nodes, n=n, r=r, scale=1.0)
        w = unit_ball_volume(n) * (nodes[1:] ** n - nodes[:-1] ** n)
        lr.append(float(np.sum(w * np.abs(src.cell_values) ** r)))
        lr_eps.append(float(np.sum(w * np.abs(src.cell_values) ** (r - eps))))
    growth = np.diff(lr)
    assert np.all(growth > 0.1)  # keeps growing by O(ln 4) per refinement
    eps_growth = np.diff(lr_eps)
    assert eps_growth[-1] < eps_growth[0] / 4  # Cauchy-like tail-off
