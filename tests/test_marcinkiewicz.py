"""Oracle tests for the weak-space machinery.

Analytic distribution functions of radial powers serve as the main
oracle; scipy quadrature double-checks the closed-form cell averages,
and the ascending-sort suffix-sum form of ``distribution_function`` is
the oracle of its one-sort prefix-sum form, whose argsort path is in turn
the oracle of the sort-free path for already ordered fields.
"""
import gc
import math
import re
import tracemalloc
import warnings
import weakref
from unittest import mock

import mpmath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from leveldecay import marcinkiewicz
from leveldecay.marcinkiewicz import (
    _BLOCK,
    _PREFIXES,
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
from leveldecay.variational import RadialGrid


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


@pytest.mark.parametrize("n", [0, -1, 2.5, math.inf, -math.inf, math.nan])
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


#: Cell counts around the block length of the level index and power_source passes.
_SEAM_CELLS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


def _falling_values(cells):
    """|v| strictly falling from 3 toward 0, with both signs."""
    values = np.linspace(3.0, 0.0, cells + 1)[:-1]
    values[1::3] *= -1.0
    return values


@pytest.mark.parametrize("cells", _SEAM_CELLS)
@pytest.mark.parametrize("defect", [None, "tie", "out of order", "nan"])
def test_level_index_at_block_seams_matches_the_argsort_path(cells, defect):
    values = _falling_values(cells)
    weights = np.linspace(1.0, 2.0, cells)
    # the first cell past each seam, or the last cell where there is no seam
    for at in range(_BLOCK, cells, _BLOCK) if cells > _BLOCK else [cells - 1]:
        if defect == "tie":
            values[at] = -values[at - 1]
        elif defect == "out of order":
            values[at] = -(abs(values[at - 1]) + 1.0)
        elif defect == "nan":
            values[at] = math.nan
    if defect == "nan":
        assert _error(lambda: _LevelIndex(values, weights)) == "values and weights must be finite"
        assert _level_index_error_before(values, weights) == "values and weights must be finite"
        return
    index = _LevelIndex(values, weights)
    keys, prefix = _argsort_index(values, weights)
    assert index.keys.tobytes() == keys.tobytes()
    assert index.prefix.tobytes() == prefix.tobytes()


@st.composite
def _ordered_fields_with_a_defect(draw):
    """``_ordered_fields`` with one value anywhere made larger in |v| than all before it."""
    values, weights = draw(_ordered_fields())
    if values.size > 1 and draw(st.booleans()):
        at = draw(st.integers(1, values.size - 1))
        values[at] = abs(values[:at]).max() + 1.0
    return values, weights


@settings(max_examples=200, deadline=None)
@given(drawn=_ordered_fields_with_a_defect(), block=st.integers(1, 5))
def test_level_index_in_short_blocks_matches_argsort_path_bitwise(drawn, block):
    # blocks of a few cells put seams everywhere in small fields
    values, weights = drawn
    with mock.patch.object(marcinkiewicz, "_BLOCK", block):
        index = _LevelIndex(values, weights)
    keys, prefix = _argsort_index(values, weights)
    assert index.keys.tobytes() == keys.tobytes()
    assert index.prefix.tobytes() == prefix.tobytes()


def test_level_indexes_on_one_keepable_weight_array_share_its_prefix():
    grid = RadialGrid(n=4, radius=1.0, cells=64)
    first = _LevelIndex(_falling_values(64), grid.cell_measures)
    second = distribution_function(2.0 * _falling_values(64), grid.cell_measures, [1.0])
    third = _LevelIndex(-_falling_values(64), grid.cell_measures)
    assert third.prefix is first.prefix and not first.prefix.flags.writeable
    assert second.total_measure == first.prefix[-1]
    assert first.prefix.tobytes() == _argsort_index(_falling_values(64), grid.cell_measures)[1].tobytes()
    # the argsort path gathers the weights, so it has its own prefix
    assert _LevelIndex(_falling_values(64)[::-1], grid.cell_measures).prefix is not first.prefix


def _writeable_owner(weights):
    return weights, weights


def _read_only_view(weights):
    view = weights.view()
    view.setflags(write=False)
    return weights, view


def _read_only_over_a_buffer(weights):
    buffer = bytearray(weights.tobytes())
    array = np.frombuffer(buffer, dtype=float)
    array.setflags(write=False)
    return np.frombuffer(buffer, dtype=float), array  # the second view writes to the buffer


@pytest.mark.parametrize("make", [_writeable_owner, _read_only_view, _read_only_over_a_buffer])
def test_no_prefix_is_kept_for_weights_that_a_writeable_array_shares(make):
    values = _falling_values(40)
    levels = [0.5, 1.0, 2.0]
    base, weights = make(np.linspace(1.0, 2.0, 40))
    before = distribution_function(values, weights, levels)
    assert id(weights) not in _PREFIXES
    base[:] = np.linspace(5.0, 3.0, 40)
    after = distribution_function(values, weights, levels)
    fresh = distribution_function(values, np.linspace(5.0, 3.0, 40), levels)
    assert after.measures.tobytes() == fresh.measures.tobytes() and after.total_measure == fresh.total_measure
    assert not np.array_equal(after.measures, before.measures)
    assert _LevelIndex(values, weights).prefix.tobytes() == _argsort_index(values, base)[1].tobytes()


def test_kept_prefix_goes_with_its_weight_array():
    weights = np.linspace(1.0, 2.0, 40).copy()  # an array that owns its memory
    weights.setflags(write=False)
    key, entries = id(weights), len(_PREFIXES)
    prefix = weakref.ref(_LevelIndex(_falling_values(40), weights).prefix)
    assert key in _PREFIXES and len(_PREFIXES) == entries + 1 and prefix() is not None
    del weights
    gc.collect()
    assert key not in _PREFIXES and len(_PREFIXES) == entries and prefix() is None


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


@pytest.mark.parametrize("levels, measures", [
    ([1.0, 2.0], [1.0, math.inf]),
    ([1.0, 2.0], [math.inf, 1.0]),
    ([1.0, 2.0], [math.inf, math.inf]),  # inf - inf in the rises would warn
    ([1.0, 2.0], [1.0, math.nan]),
    ([1.0, 2.0], [-math.inf, -math.inf]),
    ([1.0, math.inf], [1.0, 0.5]),
    ([-math.inf, 1.0], [1.0, 0.5]),
    ([math.nan], [1.0]),
])
def test_validators_name_a_non_finite_entry_first(levels, measures):
    assert _profile_error_before(levels, measures, 3.0) == "levels and measures must be finite"
    assert _error(lambda: DistributionProfile(levels, measures, 3.0)) == "levels and measures must be finite"
    for values, weights in ((levels, measures), (measures, levels)):
        assert _error(lambda: _LevelIndex(values, weights)) == _level_index_error_before(values, weights)


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


def test_weak_norm_empty_levels_contribute_zero():
    # 1e200^2 overflows, and inf * 0 read NaN; the supremum sampled is 2 at level 1
    est = weak_norm_estimate(DistributionProfile([1.0, 1e200], [2.0, 0.0], 3.0), 2.0)
    assert (est.norm_estimate, est.attained_at) == (2.0, 1.0)
    # 1e400 * 1e-300 is 1e100, inside the float range
    est = weak_norm_estimate(DistributionProfile([1.0, 1e200], [2.0, 1e-300], 3.0), 2.0)
    assert est.norm_estimate == pytest.approx(1e100, rel=1e-12) and est.attained_at == 1e200



def test_weak_norm_reads_underflowing_powers_through_logs():
    # (1e-200)^2 underflows to 0, while k^r mu = 1e-100
    est = weak_norm_estimate(DistributionProfile([1e-200], [1e300], 1e300), 2.0)
    assert est.norm_estimate == pytest.approx(1e-100, rel=1e-12) and est.attained_at == 1e-200


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


def _mp_line(x, y):
    """Slope, intercept and r^2 of the least squares line through the floats (x, y), at 60 digits."""
    with mpmath.workdps(60):
        xs = [mpmath.mpf(float(v)) for v in x]
        ys = [mpmath.mpf(float(v)) for v in y]
        mean_x, mean_y = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        ss_x = mpmath.fsum((a - mean_x) ** 2 for a in xs)
        slope = mpmath.fsum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys)) / ss_x
        intercept = mean_y - slope * mean_x
        ss_res = mpmath.fsum((b - slope * a - intercept) ** 2 for a, b in zip(xs, ys))
        ss_tot = mpmath.fsum((b - mean_y) ** 2 for b in ys)
        r_squared = 1 if ss_tot == 0 else 1 - ss_res / ss_tot
        return float(slope), float(intercept), float(r_squared)


def _assert_line(fit, want):
    slope, intercept, r_squared = want
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)
    assert fit.r_squared == pytest.approx(r_squared, abs=1e-9)


@st.composite
def _falling_lines(draw):
    """Levels 10^e t with t rising from 1 to 10, and ln mu falling from a positive
    top through a noisy line to a positive bottom, so that no coefficient of the
    fit is a difference of nearly equal terms."""
    count = draw(st.integers(8, 40))
    exponent = draw(st.floats(-300.0, 300.0))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=count - 1, max_size=count - 1)))
    t = np.concatenate(([1.0], 1.0 + 9.0 * np.cumsum(gaps) / gaps.sum()))
    noise = np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=count - 1, max_size=count - 1)))
    drops = draw(st.floats(1e-3, 30.0)) * np.diff(t) * noise
    bottom = draw(st.floats(0.1, 100.0))
    logs = bottom + np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    measures = np.exp(logs)
    return exponent, DistributionProfile(10.0**exponent * t, measures, measures[0])


@settings(max_examples=300, deadline=None)
@given(case=_falling_lines())
@example(case=(300.0, DistributionProfile(1e300 * np.linspace(1.0, 10.0, 8), np.exp(np.arange(8.0, 0.0, -1.0)),
                                          math.exp(8.0))))
@example(case=(-300.0, DistributionProfile(1e-300 * np.linspace(1.0, 10.0, 8), np.exp(np.arange(8.0, 0.0, -1.0)),
                                           math.exp(8.0))))
def test_fits_match_a_60_digit_least_squares_oracle(case):
    exponent, prof = case
    levels, logs = prof.levels, np.log(prof.measures)
    fits = [(exp_integrability_fit(prof, 1.0, 0.0), levels)]
    if exponent >= 0.0:  # the logs of levels >= 1 are >= 0, so the intercept is a sum again
        fits.append((tail_exponent_fit(prof, levels[0], levels[-1]), np.log(levels)))
    for fit, x in fits:
        _assert_line(fit, _mp_line(x, logs))
        if abs(exponent) <= 100.0:  # np.polyfit, the fit before the closed form, squares x
            slope, intercept = np.polyfit(x, logs, 1)
            assert fit.slope == pytest.approx(slope, rel=1e-9)
            assert fit.intercept == pytest.approx(intercept, rel=1e-9)


@pytest.mark.parametrize("low, high", [(1e150, 1e160), (1e-300, 1e-290)])
def test_exp_fit_at_the_ends_of_the_float_range(low, high):
    # np.polyfit squared these levels: it returned slope 0.0 with an overflow
    # warning on the first range and raised LinAlgError on the second
    levels = np.geomspace(low, high, 20)
    logs = 5.0 - levels / high
    prof = DistributionProfile(levels, np.exp(logs), math.exp(5.0))
    fit = exp_integrability_fit(prof, 1.0, 0.0)
    _assert_line(fit, _mp_line(levels, np.log(prof.measures)))
    assert fit.slope == pytest.approx(-1.0 / high, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_tail_fit_of_a_narrow_band_of_levels():
    # the logs of these levels spread over 2e-9 around 690.8: a scale of the
    # abscissae that rounds each by 1e-16 of its size would move the slope by
    # about 1e-5, and np.polyfit was off by 6e-7
    levels = 1e300 * (1.0 + np.arange(20) * 1e-10)
    measures = (levels / 1e300) ** -3.0
    fit = tail_exponent_fit(DistributionProfile(levels, measures, measures[0]), levels[0], levels[-1])
    _assert_line(fit, _mp_line(np.log(levels), np.log(measures)))


def test_fit_of_abscissae_that_are_one_float_reports_too_few_points():
    # ten distinct levels whose logs round to one float: no slope is fixed
    levels = 1e300 * (1.0 + np.arange(10) * 2.3e-16)
    assert np.unique(levels).size == 10 and np.unique(np.log(levels)).size == 1
    prof = DistributionProfile(levels, np.linspace(1.0, 0.5, 10), 1.0)
    with pytest.raises(InsufficientPointsError, match="abscissae are all one float"):
        tail_exponent_fit(prof, 1e299, 1.7e308)


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


def test_summability_empty_levels_contribute_zero():
    # k^399 overflows from k = 6 on, where mu(k) = 0: each such term is 0, not inf * 0 = NaN
    res = summability_test(DistributionProfile([1.0, 2.0], [2.0, 0.0], 3.0), 400.0, 10)
    assert res.partial_sums.tolist() == [2.0] * 10 and res.convergent


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.floats(0.0, 60.0), max_size=12, unique=True).map(sorted),
    r=st.floats(0.1, 5.0),
    k_top=st.integers(10, 80),
)
def test_summability_step_convention_matches_the_masked_lookup_bitwise(levels, r, k_top):
    measures = np.linspace(2.0, 0.0, len(levels))
    prof = DistributionProfile(levels, measures, 2.5)
    ks = np.arange(1, k_top + 1, dtype=float)
    idx = np.searchsorted(prof.levels, ks, side="right") - 1
    mus = np.where(idx >= 0, measures[np.maximum(idx, 0)], 2.5) if levels else np.full(k_top, 2.5)
    want = np.cumsum(ks ** (r - 1.0) * mus)
    assert summability_test(prof, r, k_top).partial_sums.tobytes() == want.tobytes()


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


def test_integral_bound_gathers_two_cell_sized_arrays():
    # the selected weights and the selected values, which take |.| and the
    # weights in place: 16 bytes a selected cell
    cells = 2**16
    values = _falling_values(cells)
    weights = np.full(cells, 1.0 / cells)
    mask = np.ones(cells, dtype=bool)
    want = float(np.sum(np.abs(values) * weights))
    peak, chk = _traced_peak(lambda: integral_bound_check(values, weights, mask, 2.0, 1.0))
    assert chk.lhs == want
    assert peak < 20 * cells


# ---------------------------------------------------------------- domains and edges
_PROFILE = DistributionProfile([1.0, 2.0, 4.0], [3.0, 2.0, 1.0], 3.0)


@pytest.mark.parametrize(
    "call, args, message",
    [
        *[(weak_norm_estimate, (_PROFILE, r), "^r must be positive and finite$") for r in (0.0, -1.0, math.nan, math.inf)],
        (tail_exponent_fit, (_PROFILE, 0.0, 2.0), r"^need 0 < k_min < k_max$"),
        (tail_exponent_fit, (_PROFILE, 2.0, 2.0), r"^need 0 < k_min < k_max$"),
        (tail_exponent_fit, (_PROFILE, math.nan, 2.0), r"^need 0 < k_min < k_max$"),
        *[(exp_integrability_fit, (_PROFILE, theta, 1.0), r"^theta must lie in \(0, 1\]$") for theta in (0.0, 1.5, math.nan)],
        *[(exp_integrability_fit, (_PROFILE, 0.5, k_min), "^k_min must be finite and nonnegative$") for k_min in (-1.0, math.inf, math.nan)],
        *[(summability_test, (_PROFILE, r, 10), "^r must be positive and finite$") for r in (0.0, math.nan, math.inf)],
        (summability_test, (_PROFILE, 2.0, 9), "^k_top must be at least 10$"),
        (integral_bound_check, ([1.0, 2.0], [0.5], [True, True], 2.0, 1.0), "^values, weights and mask must share one shape$"),
        (integral_bound_check, ([[1.0]], [[0.5]], [[True]], 2.0, 1.0), "^values, weights and mask must share one shape$"),
        *[(integral_bound_check, ([1.0], [0.5], [True], r, 1.0), "^r must exceed 1$") for r in (1.0, math.nan, math.inf)],
        *[(integral_bound_check, ([1.0], [0.5], [True], 2.0, c), "^norm_const must be finite and nonnegative$")
          for c in (-1.0, math.nan, math.inf)],
    ],
)
def test_marcinkiewicz_domain_errors(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_marcinkiewicz_edge_values():
    # a profile without levels has a weak norm of 0, attained nowhere
    est = weak_norm_estimate(DistributionProfile([], [], 3.0), 2.0)
    assert (est.norm_estimate, est.attained_at) == (0.0, None)
    # abscissae near 1e-300 scale the slope 1e10 * 2^995 past the float range
    x = np.array([1e-300, 2e-300, 3e-300])
    for sign in (1.0, -1.0):
        fit = marcinkiewicz._ols_line(x, sign * np.array([0.0, 1e10, 2e10]))
        assert fit.slope == sign * math.inf and fit.r_squared == 1.0
    # rhs 0 with lhs > 0 gives the ratio inf
    chk = integral_bound_check([1.0, 2.0], [0.5, 0.5], [True, False], 2.0, 0.0)
    assert (chk.lhs, chk.rhs, chk.ratio, chk.passed) == (0.5, 0.0, math.inf, False)
    # |{f > t}| is the whole ball for t <= 0, and empty for every t > 0 at scale 0
    nodes = np.linspace(0.0, 1.0, 11)
    for scale in (1.0, 0.0):
        src = power_source(nodes, n=2, r=2.0, scale=scale)
        assert src.analytic_distribution(0.0) == src.analytic_distribution(-1.0) == src.total_measure
    assert src.analytic_distribution(1e-300) == 0.0


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


def _power_source_error_before(nodes, n, r, scale):
    """First message of ``power_source``'s checks as run one by one, in order, or None."""
    try:
        unit_ball_volume(n)
    except ValueError as exc:
        return str(exc)
    nodes = np.array(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        return "nodes must be a one-dimensional grid with >= 2 entries"
    if not np.all(np.isfinite(nodes)):
        return "nodes must be finite"
    if nodes[0] < 0.0 or np.any(np.diff(nodes) <= 0.0):
        return "nodes must be nonnegative and strictly increasing"
    if not math.isfinite(r) or r <= 1.0:
        return "r must exceed 1"
    if not math.isfinite(scale) or scale < 0.0:
        return "scale must be finite and nonnegative"
    with np.errstate(over="ignore", invalid="ignore"):
        shells = np.diff(nodes ** int(n))
    if not np.all((shells > 0.0) & (shells < math.inf)):
        return f"shell measures leave the float range for radius = {nodes[-1]}, n = {int(n)}"
    return None


@st.composite
def _node_inputs(draw):
    """Zero to three nodes, sorted, tied or decreasing, with a special value, or as a 2-d array."""
    nodes = draw(st.lists(st.floats(0.0, 10.0), max_size=3))
    order = draw(st.sampled_from(["increasing", "increasing", "raw", "decreasing"]))
    if order != "raw":
        nodes.sort(reverse=order == "decreasing")
    if len(nodes) > 1 and draw(st.integers(0, 3)) == 0:
        nodes[1] = nodes[0]  # a tie
    if nodes and draw(st.booleans()):
        nodes[draw(st.integers(0, len(nodes) - 1))] = draw(_SPECIAL)
    if draw(st.integers(0, 7)) == 0:
        nodes = [nodes]
    n = draw(st.sampled_from([1, 2, 4, 4, 0, 2.5]))
    r = draw(st.sampled_from([1.75, 1.75, 3.0, 1.0, math.nan]))
    scale = draw(st.sampled_from([1.0, 1.0, 0.0, -1.0, math.inf]))
    return nodes, n, r, scale


@settings(max_examples=400, deadline=None)
@given(drawn=_node_inputs())
@example(drawn=([math.nan, 1.0], 4, 1.75, 1.0))
@example(drawn=([0.0, math.inf], 4, 1.75, 1.0))
@example(drawn=([-math.inf, 1.0], 4, 1.75, 1.0))
@example(drawn=([-1.0, 1.0, math.nan], 4, 1.75, 1.0))  # nonnegativity fails first, finiteness is checked first
@example(drawn=([0.0, 1.0, 1.0], 4, 1.75, 1.0))
@example(drawn=([[0.0, 1.0, 2.0]], 4, 1.75, 1.0))
@example(drawn=([0.0, 1e308], 2, 1.75, 1.0))
def test_power_source_rejects_as_its_checks_in_order(drawn):
    nodes, n, r, scale = drawn
    assert _error(lambda: power_source(nodes, n, r, scale)) == _power_source_error_before(nodes, n, r, scale)


def _power_source_reference(nodes, n, r, scale):
    """Cell values and total measure as the two-power expression computes them."""
    m = n * (1.0 - 1.0 / r)
    r1, r2 = nodes[:-1], nodes[1:]
    values = scale * (n / m) * (r2**m - r1**m) / (r2**n - r1**n)
    return values, unit_ball_volume(n) * float(nodes[-1] ** n - nodes[0] ** n)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    radius=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    cells=st.integers(1, 3000),
    r=st.floats(1.05, 8.0),
    scale=st.floats(0.0, 10.0),
    free=st.booleans(),
)
def test_power_source_matches_the_two_power_expression_on_grids(n, radius, cells, r, scale, free):
    nodes = RadialGrid(n=n, radius=radius, cells=cells).nodes
    if free:  # a non-uniform, writeable node array
        nodes = nodes * np.linspace(0.5, 1.0, nodes.size)
    values, total = _power_source_reference(nodes, n, r, scale)
    src = power_source(nodes, n=n, r=r, scale=scale)
    assert src.cell_values.tobytes() == values.tobytes()
    assert src.total_measure == total


@pytest.mark.parametrize("cells", _SEAM_CELLS)
@pytest.mark.parametrize("free", [False, True])
def test_power_source_at_block_seams_matches_the_two_power_expression(cells, free):
    nodes = RadialGrid(n=4, radius=1.0, cells=cells).nodes
    if free:  # a non-uniform, writeable node array
        nodes = nodes * np.linspace(0.5, 1.0, nodes.size)
    values, total = _power_source_reference(nodes, 4, 1.75, 0.8)
    src = power_source(nodes, n=4, r=1.75, scale=0.8)
    assert src.cell_values.tobytes() == values.tobytes()
    assert src.total_measure == total


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 8),
    cells=st.integers(1, 40),
    r=st.floats(1.05, 8.0),
    scale=st.floats(0.0, 10.0),
    block=st.integers(1, 5),
)
def test_power_source_in_short_blocks_matches_the_two_power_expression(n, cells, r, scale, block):
    nodes = np.linspace(0.0, 2.0, cells + 1) ** 1.5
    values, total = _power_source_reference(nodes, n, r, scale)
    with mock.patch.object(marcinkiewicz, "_BLOCK", block):
        src = power_source(nodes, n=n, r=r, scale=scale)
    assert src.cell_values.tobytes() == values.tobytes()
    assert src.total_measure == total


def test_power_source_names_a_late_shell_past_the_float_range_before_an_early_overflow():
    # The fourth powers of these nodes are subnormal and about 1e-321 apart, so
    # every cell average overflows from the first block on; a node one ulp above
    # its neighbour in the fourth block has the same fourth power, a shell of 0.
    cells = 3 * _BLOCK + 5
    nodes = (np.arange(cells + 1) * 1e-321) ** 0.25
    overflow = "cell averages leave the float range for scale = 1e+100, r = 1.5"
    assert _error(lambda: power_source(nodes, 4, 1.5, 1e100)) == overflow
    at = 3 * _BLOCK + 2
    nodes[at + 1] = np.nextafter(nodes[at], 1.0)
    shells = f"shell measures leave the float range for radius = {nodes[-1]}, n = 4"
    assert _power_source_error_before(nodes, 4, 1.5, 1e100) == shells
    assert _error(lambda: power_source(nodes, 4, 1.5, 1e100)) == shells


def _traced_peak(call):
    """Bytes that ``call()`` held at its peak over what was allocated before it, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_measure_layer_calls_allocate_only_what_they_return_or_keep():
    # numpy reports its data buffers to tracemalloc; blocks of scratch stay far below 1 MiB
    cells = 2**18
    grid = RadialGrid(n=4, radius=1.0, cells=cells)
    values = _falling_values(cells)
    levels = np.geomspace(1e-3, 2.0, 97)
    peak, src = _traced_peak(lambda: power_source(grid.nodes, n=4, r=1.75, scale=1.0))
    assert src.nodes is grid.nodes
    assert peak <= src.cell_values.nbytes + 2**20
    distribution_function(values, grid.cell_measures, levels)  # keeps the prefix of the grid's measures
    peak, prof = _traced_peak(lambda: distribution_function(values, grid.cell_measures, levels))
    # the level index's keys, 8 bytes a cell, are the one cell-sized array the call makes
    assert peak <= 8 * cells + prof.levels.nbytes + prof.measures.nbytes + 2**20


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), exponent=st.floats(-80.0, 80.0), cells=st.integers(1, 64))
def test_power_source_works_on_every_grid_radial_grid_accepts(n, exponent, cells):
    try:
        grid = RadialGrid(n=n, radius=10.0**exponent, cells=cells)
    except ValueError:
        return
    src = power_source(grid.nodes, n=n, r=1.75, scale=1.0)
    assert np.isfinite(src.cell_values).all() and (src.cell_values > 0.0).all()


@pytest.mark.parametrize("nodes, radius", [([0.0, 1.0, 1e100], 1e100), ([0.0, 1e-100, 1.0], 1.0)])
def test_power_source_rejects_shells_past_the_float_range(nodes, radius):
    # the fourth powers overflow (1e400) or underflow to a zero shell (1e-400);
    # RuntimeWarnings are errors here, so none is emitted either
    message = f"shell measures leave the float range for radius = {radius}, n = 4"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        power_source(nodes, 4, 1.5, 1.0)


@pytest.mark.parametrize("r, scale", [(1.0000001, 1e300), (1.5, 1e308)])
def test_power_source_rejects_cell_averages_past_the_float_range(r, scale):
    # about 1e307 / 0.25**4 in the first cell's divide; 3e308 = scale * n/m before any cell
    message = f"cell averages leave the float range for scale = {scale}, r = {r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            power_source(np.linspace(0.0, 1.0, 5), 4, r, scale)


def _read_only(values):
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


def test_measure_constructors_keep_read_only_arrays():
    grid = RadialGrid(n=4, radius=1.0, cells=8)
    src = power_source(grid.nodes, n=4, r=1.75, scale=1.0)
    assert src.nodes is grid.nodes and not src.cell_values.flags.writeable
    levels, measures = _read_only([1.0, 2.0]), _read_only([2.0, 1.0])
    prof = DistributionProfile(levels, measures, 3.0)
    assert prof.levels is levels and prof.measures is measures
    index = _LevelIndex(src.cell_values, grid.cell_measures)
    assert not (index.keys.flags.writeable or index.prefix.flags.writeable)
    prof = index.profile(levels)
    assert prof.levels is levels and not prof.measures.flags.writeable
    assert distribution_function(src.cell_values, grid.cell_measures, levels).levels is levels


def test_measure_constructors_copy_writeable_inputs_and_convert_lists():
    nodes, levels, measures = np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0]), np.array([2.0, 1.0])
    src = power_source(nodes, n=2, r=2.0, scale=1.0)
    prof = DistributionProfile(levels, measures, 3.0)
    index = _LevelIndex(measures, levels)  # as values and weights
    index_profile = index.profile(levels)
    before = [src.nodes.copy(), prof.levels.copy(), prof.measures.copy(), index.keys.copy(),
              index.prefix.copy(), index_profile.levels.copy()]
    for array in (nodes, levels, measures):
        array[:] = -7.0
    after = [src.nodes, prof.levels, prof.measures, index.keys, index.prefix, index_profile.levels]
    for old, new in zip(before, after):
        assert np.array_equal(old, new) and not new.flags.writeable
    src = power_source([0, 1, 2], n=2, r=2, scale=1)
    assert src.nodes.dtype == np.float64 and src.cell_values.tolist() == pytest.approx([2.0, 2 / 3])
    prof = DistributionProfile([1, 2], [2, 1], 3)
    assert prof.levels.dtype == prof.measures.dtype == np.float64 and not prof.levels.flags.writeable
    assert distribution_function([3, 1], [1, 2], [1, 3]).measures.tolist() == [3.0, 1.0]


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
