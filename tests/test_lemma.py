"""Oracle tests for the decay-lemma engine.

Envelope-constant expectations are frozen from hand evaluation of the
closed formulas; recursion oracles come from exact rational iteration;
the vectorized log-space pair checks and the array PsiTable validator
are compared with the scalar loops they replaced.
"""
import contextlib
import math
import random
from bisect import bisect_right
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leveldecay import lemma
from leveldecay.lemma import (
    AllKnotPairs,
    CaseTag,
    DecayHypothesis,
    Doubling,
    PsiTable,
    WrongCaseError,
    check_envelope,
    check_hypothesis,
    classify,
    envelope,
    envelope_constants,
    exp_decay_tau,
    giusti_recursion,
    level_sequence,
    power_decay_constants,
    vanishing_level,
)


# ---------------------------------------------------------------- hypothesis type
def test_decay_hypothesis_validation():
    DecayHypothesis(c1=1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    with pytest.raises(ValueError):
        DecayHypothesis(c1=0.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    with pytest.raises(ValueError):
        DecayHypothesis(c1=1.0, A=3.0, B=1.0, C=1.0, D=2.0, k0=0.0)  # A >= D
    with pytest.raises(ValueError):
        DecayHypothesis(c1=1.0, A=1.0, B=-1.0, C=1.0, D=2.0, k0=0.0)
    with pytest.raises(ValueError):
        DecayHypothesis(c1=1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=-1.0)
    with pytest.raises(ValueError):
        DecayHypothesis(c1=math.inf, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)


# ---------------------------------------------------------------- classification
def test_classify_power_decay():
    case = classify(DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0), tol=1e-9)
    assert case.tag is CaseTag.POWER_DECAY
    # (D-A)/(1-B) = 2/0.25 = 8 and D/(1-C) = 4/0.5 = 8
    assert case.detail == pytest.approx(0.0, abs=1e-12)


def test_classify_exponential():
    case = classify(DecayHypothesis(1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0), tol=1e-9)
    assert case.tag is CaseTag.EXPONENTIAL_DECAY


def test_classify_vanishing():
    case = classify(DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=0.0), tol=1e-9)
    assert case.tag is CaseTag.VANISHING


def test_classify_unclassified_unbalanced():
    # max(B, C) < 1 but the two candidate exponents disagree
    case = classify(DecayHypothesis(1.0, A=2.0, B=0.75, C=0.25, D=4.0, k0=0.0), tol=1e-9)
    assert case.tag is CaseTag.UNCLASSIFIED


def test_classify_unclassified_mixed():
    # B < 1 < C matches no case
    case = classify(DecayHypothesis(1.0, A=1.0, B=0.5, C=2.0, D=2.0, k0=0.0), tol=1e-9)
    assert case.tag is CaseTag.UNCLASSIFIED


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_classify_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # a NaN tol read an ExponentialDecay hypothesis as Unclassified, an infinite
    # one an unbalanced hypothesis as ExponentialDecay
    for B, C in ((1.0, 1.0), (0.5, 0.25)):
        with pytest.raises(ValueError, match="^tol must be finite and positive, got "):
            classify(DecayHypothesis(1.0, A=0.5, B=B, C=C, D=2.0), tol=tol)


# ---------------------------------------------------------------- case i constants
def test_power_decay_constants_frozen_k0_zero():
    # [DERIVED]: lambda = 8; rho(k0) = 0; M = 1 * 2^{(8+2+1)/(1/4)} = 2^44;
    # c_bar = 2^8 * M = 2^52.
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0)
    env = power_decay_constants(hyp, psi_at_k0=1.0)
    assert env.case.tag is CaseTag.POWER_DECAY
    assert env.lam == pytest.approx(8.0, rel=1e-13)
    assert env.M == pytest.approx(2.0**44, rel=1e-12)
    assert env.c_bar == pytest.approx(2.0**52, rel=1e-12)


def test_power_decay_constants_frozen_k0_one():
    # [DERIVED]: rho(k0) = 1^8 * 1 = 1 so the extra factor is (1+1)^{3/4}.
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    env = power_decay_constants(hyp, psi_at_k0=1.0)
    assert env.M == pytest.approx(2.0**44 * 2.0**0.75, rel=1e-12)


def test_power_decay_constants_c1_clamped():
    # c1 < 1 is clamped to 1 (the proof's normalization), so constants match c1=1.
    hyp_small = DecayHypothesis(0.25, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0)
    hyp_one = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0)
    assert power_decay_constants(hyp_small, 1.0).M == pytest.approx(
        power_decay_constants(hyp_one, 1.0).M, rel=1e-14
    )


def test_power_decay_wrong_case():
    with pytest.raises(WrongCaseError):
        power_decay_constants(DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, 0.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(
    B=st.floats(0.05, 0.95),
    D=st.floats(0.5, 4.0),
    a_over_d=st.floats(0.01, 0.99),
    log_k0=st.floats(-2.0, 3.0),
    log_psi0=st.floats(-3.0, 3.0),
    log_c1=st.floats(-2.0, 2.0),
)
@example(B=0.5, D=3.0, a_over_d=1.0 / 3.0, log_k0=3.0, log_psi0=0.0, log_c1=0.0)
def test_power_envelope_covers_psi_at_k0_below_2k0(B, D, a_over_d, log_k0, log_psi0, log_c1):
    # On [k0, 2 k0) only psi(k) <= psi(k0) is known, below the dyadic chain's
    # first level, so the envelope there must reach psi(k0) itself; in the
    # example rho(k0) = 1e12 tops M = 4.1e9, and 2^lam M alone misses it.
    A = a_over_d * D
    C = 1.0 - D * (1.0 - B) / (D - A)  # the balance (D-A)/(1-B) = D/(1-C)
    assume(C > 0.0)
    hyp = DecayHypothesis(10.0**log_c1, A=A, B=B, C=C, D=D, k0=10.0**log_k0)
    assume(classify(hyp).tag is CaseTag.POWER_DECAY)
    psi0 = 10.0**log_psi0
    for k in (hyp.k0, 1.5 * hyp.k0, 2.0 * hyp.k0):
        assert envelope(hyp, psi0, k) >= psi0 * (1.0 - 1e-12)


# ---------------------------------------------------------------- case ii constants
def test_exp_decay_tau_frozen():
    # [DERIVED]: inner = 2e * 2^{((4-1)*1)/1} * 1^2/2^2 = 2e*8/4 = 4e; exponent 1.
    env = exp_decay_tau(DecayHypothesis(1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0))
    assert env.case.tag is CaseTag.EXPONENTIAL_DECAY
    assert env.tau == pytest.approx(4 * math.e, abs=1e-12)


def test_exp_decay_tau_k0_branch():
    env = exp_decay_tau(DecayHypothesis(1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=100.0))
    assert env.tau == pytest.approx(101.0, abs=1e-12)


def test_exp_decay_tau_monotone_in_c1():
    taus = [
        exp_decay_tau(DecayHypothesis(c1, 1.0, 1.0, 1.0, 2.0, 0.0)).tau
        for c1 in (0.5, 1.0, 2.0, 8.0, 64.0)
    ]
    assert all(t2 >= t1 for t1, t2 in zip(taus, taus[1:]))


def test_exp_decay_tau_wrong_case():
    with pytest.raises(WrongCaseError):
        exp_decay_tau(DecayHypothesis(1.0, 2.0, 0.75, 0.5, 4.0, 0.0))


# ---------------------------------------------------------------- case iii constants
def test_vanishing_level_frozen():
    # [DERIVED]: terms {1, 0, (2^3)^1 = 8, (2^{3+4+2})^{1/2} = 2^{9/2}} -> 2^{9/2}.
    env = vanishing_level(DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=0.0), psi_at_k0=0.0)
    assert env.case.tag is CaseTag.VANISHING
    assert env.L == pytest.approx(2.0**4.5, abs=1e-12)


def test_vanishing_level_2k0_branch():
    env = vanishing_level(DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=20.0), psi_at_k0=0.0)
    assert env.L == pytest.approx(40.0, abs=1e-12)


def test_vanishing_level_swap_normalization():
    # Internally B := max, C := min, so swapping the fields gives the same L.
    a = vanishing_level(DecayHypothesis(1.0, 1.0, 3.0, 2.0, 2.0, 0.0), 0.7)
    b = vanishing_level(DecayHypothesis(1.0, 1.0, 2.0, 3.0, 2.0, 0.0), 0.7)
    assert a.L == pytest.approx(b.L, rel=1e-14)


def test_vanishing_level_monotone_in_c1_and_psi():
    hyps = [DecayHypothesis(c1, 1.0, 3.0, 2.0, 2.0, 0.0) for c1 in (0.5, 1.0, 4.0, 32.0)]
    ls = [vanishing_level(h, 1.0).L for h in hyps]
    assert all(l2 >= l1 for l1, l2 in zip(ls, ls[1:]))
    ls_psi = [vanishing_level(hyps[1], v).L for v in (0.0, 0.5, 1.0, 10.0)]
    assert all(l2 >= l1 for l1, l2 in zip(ls_psi, ls_psi[1:]))


def test_vanishing_level_wrong_case():
    with pytest.raises(WrongCaseError):
        vanishing_level(DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, 0.0), 1.0)


# ---------------------------------------------------------------- constants dispatch
def test_envelope_constants_dispatches_by_case():
    power = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    expo = DecayHypothesis(1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=1.0)
    vanish = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=1.0)
    assert envelope_constants(power, 0.5) == power_decay_constants(power, 0.5)
    assert envelope_constants(expo, 0.5) == exp_decay_tau(expo)
    assert envelope_constants(vanish, 0.5) == vanishing_level(vanish, 0.5)
    with pytest.raises(WrongCaseError):
        envelope_constants(DecayHypothesis(1.0, 2.0, 0.75, 0.25, 4.0, 0.0), 0.5)


def test_constants_beyond_float_range_read_inf():
    # D - A = 1e-3 raises the power products to the 1000th power.
    assert exp_decay_tau(DecayHypothesis(1e3, 1.0, 1.0, 1.0, 1.001, 0.0)).tau == math.inf
    assert vanishing_level(DecayHypothesis(1e3, 1.0, 3.0, 2.0, 1.001, 0.0), 1.0).L == math.inf
    # B = C = 1e300: (C - 1)**2 is past the float range, B log 2 is not
    assert vanishing_level(DecayHypothesis(1.0, 1.0, 1e300, 1e300, 2.0), 1.0).L == math.inf
    env = power_decay_constants(DecayHypothesis(2.0, 1.0, 0.999, 0.998, 2.0, 0.0), 1.0)
    assert env.lam == pytest.approx(1000.0, rel=1e-12)
    assert env.M == env.c_bar == math.inf


# ---------------------------------------------------------------- envelope
def test_envelope_power_decay_values():
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0)
    # [DERIVED]: c_bar = 2^52, lambda = 8, k = 2^7 -> 2^{52-56} = 1/16.
    assert envelope(hyp, 1.0, 2.0**7) == pytest.approx(2.0**-4, rel=1e-12)
    assert envelope(hyp, 1.0, 0.0) == math.inf


def test_envelope_exponential_at_k0():
    hyp = DecayHypothesis(1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    psi0 = 0.37
    assert envelope(hyp, psi0, 0.0) == psi0 * math.e


def test_envelope_vanishing_step():
    # the step must sit at 2L computed with the same psi_at_k0 the
    # envelope is evaluated with (L grows with psi_at_k0)
    hyp = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=0.0)
    big_l = vanishing_level(hyp, 0.25).L
    assert envelope(hyp, 0.25, 2 * big_l) == 0.0
    assert envelope(hyp, 0.25, 2 * big_l * (1 - 1e-12)) == 0.25
    assert envelope(hyp, 0.25, 0.5) == 0.25


@pytest.mark.parametrize("psi_at_k0", [math.nan, -1.0, math.inf])
def test_psi_at_k0_must_be_finite_and_nonnegative(psi_at_k0):
    power = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=0.0)
    exponential = DecayHypothesis(100.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=1.0)
    vanishing = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=0.0)
    table = PsiTable([1.0, 2.0, 3.0], [math.exp(-1.0), math.exp(-2.0), math.exp(-3.0)], k0=1.0)
    calls = [
        lambda: power_decay_constants(power, psi_at_k0),
        lambda: vanishing_level(vanishing, psi_at_k0),
        lambda: check_envelope(table, exponential, psi_at_k0),
        lambda: envelope(exponential, psi_at_k0, 2.0),
    ]
    for hyp in (power, exponential, vanishing):
        calls.append(lambda hyp=hyp: envelope_constants(hyp, psi_at_k0))
    for call in calls:
        with pytest.raises(ValueError, match="psi_at_k0 must be finite and nonnegative"):
            call()


def test_envelope_nonincreasing_all_cases():
    cases = [
        DecayHypothesis(1.0, 2.0, 0.75, 0.5, 4.0, 0.0),
        DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, 0.0),
        DecayHypothesis(1.0, 1.0, 3.0, 2.0, 2.0, 0.0),
    ]
    for hyp in cases:
        ks = [0.001 + 0.5 * i for i in range(200)]
        vals = [envelope(hyp, 1.0, k) for k in ks]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))


def test_envelope_below_k0_rejected():
    hyp = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=5.0)
    with pytest.raises(ValueError):
        envelope(hyp, 1.0, 4.0)


# ---------------------------------------------------------------- psi tables
def test_psi_table_validation():
    PsiTable(knots=[1.0, 2.0, 4.0], values=[1.0, 0.5, 0.25], k0=1.0)
    with pytest.raises(ValueError):
        PsiTable(knots=[1.0, 1.0, 4.0], values=[1.0, 0.5, 0.25], k0=1.0)
    with pytest.raises(ValueError):
        PsiTable(knots=[2.0, 1.0], values=[1.0, 0.5], k0=1.0)
    with pytest.raises(ValueError):
        PsiTable(knots=[1.0, 2.0], values=[0.5, 1.0], k0=1.0)  # increasing values
    with pytest.raises(ValueError):
        PsiTable(knots=[1.0, 2.0], values=[0.5, -0.1], k0=1.0)  # negative
    with pytest.raises(ValueError):
        PsiTable(knots=[0.5, 2.0], values=[1.0, 0.5], k0=1.0)  # knot below k0
    with pytest.raises(ValueError):
        PsiTable(knots=[], values=[], k0=0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        PsiTable(knots=[[1.0, 2.0]], values=[[1.0, 0.5]], k0=1.0)


def test_psi_table_rounding_slack():
    # nonincreasing up to 1e-12 relative slack is accepted
    v = 0.5
    PsiTable(knots=[1.0, 2.0], values=[v, v * (1 + 1e-13)], k0=1.0)
    with pytest.raises(ValueError):
        PsiTable(knots=[1.0, 2.0], values=[v, v * (1 + 1e-9)], k0=1.0)


def test_psi_table_step_evaluation():
    t = PsiTable(knots=[1.0, 2.0, 4.0], values=[1.0, 0.5, 0.25], k0=1.0)
    assert t.evaluate(1.0) == 1.0
    assert t.evaluate(1.999) == 1.0
    assert t.evaluate(2.0) == 0.5
    assert t.evaluate(3.0) == 0.5
    assert t.evaluate(4.0) == 0.25
    assert t.evaluate(100.0) == 0.25
    with pytest.raises(ValueError):
        t.evaluate(0.5)


def _scalar_table_check(knots, values, k0):
    """The scalar validator PsiTable ran before it kept arrays (oracle).

    Returns the accepted (knots, values, k0) as tuples of floats and a
    float, or raises the ValueError PsiTable must raise.
    """
    knots = tuple(float(k) for k in knots)
    values = tuple(float(v) for v in values)
    if len(knots) == 0:
        raise ValueError("table must contain at least one knot")
    if len(knots) != len(values):
        raise ValueError(
            f"knots and values differ in length: {len(knots)} vs {len(values)}"
        )
    if not (math.isfinite(k0) and k0 >= 0.0):
        raise ValueError(f"k0 must be finite and nonnegative, got {float(k0)}")
    if not all(math.isfinite(k) for k in knots):
        raise ValueError("knots must be finite")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("values must be finite")
    if knots[0] < k0:
        raise ValueError(f"first knot {knots[0]} lies below k0={float(k0)}")
    for a, b in zip(knots, knots[1:]):
        if not b > a:
            raise ValueError(f"knots must be strictly increasing, got {a} then {b}")
    for v in values:
        if v < 0.0:
            raise ValueError(f"values must be nonnegative, got {v}")
    for a, b in zip(values, values[1:]):
        if b > a + lemma._MONOTONE_SLACK * a:
            raise ValueError(f"values must be nonincreasing, got {a} then {b}")
    return knots, values, float(k0)


_SLACK = lemma._MONOTONE_SLACK
_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, -1.0, -1e-300, 5e-324, 1e308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan]
)


@st.composite
def _raw_tables(draw):
    """Knots, values and k0 near the edge of every PsiTable check.

    Knots step up, now and then tie or step down; values tie, fall, drop
    to 0 or by 1, rise by exactly the 1e-12 relative slack or by one ulp
    more; about one entry in twelve is an edge value (negative, zero,
    huge or non-finite).  k0 is the first knot, 0, an int or a drawn
    float, and the lengths differ now and then.
    """

    def rare(usual):
        return _EDGE_FLOATS if draw(st.integers(0, 11)) == 0 else usual

    n = draw(st.integers(min_value=1, max_value=6))
    knot = draw(rare(st.floats(0.0, 4.0)))
    value = draw(rare(st.floats(0.0, 4.0)))
    knots, values = [], []
    for _ in range(n):
        knots.append(knot)
        values.append(value)
        if draw(st.integers(0, 7)) == 0:
            knot = draw(st.sampled_from([knot, knot - 0.5]))
        else:
            knot = draw(rare(
                st.builds(lambda step: knot + step, st.floats(1e-3, 3.0))
                | st.just(math.nextafter(knot, math.inf))
            ))
        exact = value + _SLACK * value
        value = draw(rare(
            st.sampled_from(
                [value, 0.0, value - 1.0, exact, math.nextafter(exact, math.inf)]
            )
            | st.builds(lambda share: value * share, st.floats(0.0, 1.0))
        ))
    if draw(st.integers(min_value=0, max_value=11)) == 0:
        values = values[:-1] if draw(st.booleans()) else values + [0.5]
    k0 = draw(rare(st.sampled_from([knots[0], 0.0, 0, 1, -1]) | st.floats(0.0, 1.0)))
    return knots, values, k0


@given(_raw_tables())
@example(([1.0, 2.0], [0.5, 0.5 + _SLACK * 0.5], 1.0))
@example(([1.0, 2.0], [0.5, math.nextafter(0.5 + _SLACK * 0.5, math.inf)], 1.0))
@example(([1.0, 2.0], [1.7976931348623157e308] * 2, 1.0))
@example(([1.0, 2.0], [1.0, -0.0], 1.0))
@example(([1.0, 1.0, 3.0], [1.0, 0.5, 0.25], 0))
@example(([1.0], [1.0], -1))
@example(([2.0, 3.0], [1.0, 0.5], 3))
@example(([], [], 0.0))
@example(([1.0, 2.0, 2.0, 3.0, 3.0], [1.0] * 5, 1.0))
@example(([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0, 3.0], 1.0))
@example(([1.0, 2.0, 3.0], [1.0, -1.0, -2.0], 1.0))
@settings(max_examples=200, deadline=None)
def test_psi_table_validation_matches_scalar_oracle(raw):
    knots, values, k0 = raw
    try:
        want = _scalar_table_check(knots, values, k0)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            PsiTable(knots, values, k0)
        assert str(got.value) == str(exc)
        return
    table = PsiTable(knots, values, k0)
    for array, expected in ((table.knots, want[0]), (table.values, want[1])):
        assert array.dtype == np.float64 and not array.flags.writeable
        assert array.tobytes() == np.array(expected).tobytes()
    assert type(table.k0) is float and table.k0 == want[2]


def test_psi_table_arrays_are_read_only_copies():
    knots, values = np.array([1.0, 2.0, 4.0]), [1.0, 0.5, 0.25]
    table = PsiTable(knots, values, k0=1.0)
    with pytest.raises(ValueError):
        table.knots[0] = 2.0
    with pytest.raises(ValueError):
        table.values[0] = 2.0
    knots[0] = 0.5
    assert table.knots.tolist() == [1.0, 2.0, 4.0]
    with pytest.raises(AttributeError):
        table.k0 = 2.0
    assert len(table) == 3
    assert repr(table) == "PsiTable(3 knots on [1.0, 4.0], k0=1.0)"


def test_psi_table_keeps_read_only_arrays_and_copies_read_only_views_of_writeable_ones():
    knots, base = np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.5, 0.25])
    knots.setflags(write=False)
    view = base.view()
    view.setflags(write=False)
    table = PsiTable(knots, view, k0=1.0)
    assert table.knots is knots and table.values is not view
    base[0] = 9.0
    assert table.values.tolist() == [1.0, 0.5, 0.25] and not table.values.flags.writeable


@given(
    st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8, unique=True),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_psi_table_evaluate_matches_bisect(knots, data):
    knots = sorted(knots)
    values = [1.0 / (1.0 + i) for i in range(len(knots))]
    table = PsiTable(knots, values, k0=knots[0])
    k = data.draw(
        st.sampled_from(knots)
        | st.floats(-1.0, 200.0)
        | st.sampled_from([math.inf, math.nan])
    )
    if k < knots[0]:
        with pytest.raises(ValueError) as got:
            table.evaluate(k)
        assert str(got.value) == f"level {k} is below the first knot {knots[0]}"
        return
    got = table.evaluate(k)
    assert type(got) is float
    assert got == values[bisect_right(knots, k) - 1]


# ---------------------------------------------------------------- hypothesis checks
def _power_table(k0=1.0, per_octave=2, octaves=10, V=1.0, K=1.0, lam=3.0):
    knots = [k0 * 2 ** (j / per_octave) for j in range(per_octave * octaves + 1)]
    values = [min(V, K * k**-lam) for k in knots]
    return PsiTable(knots=knots, values=values, k0=k0)


def _brute_force_c1(table, hyp_exponents):
    """Smallest c1 making every knot pair satisfy the inequality (independent oracle)."""
    A, B, C, D = hyp_exponents
    c1 = 0.0
    knots, values = list(table.knots), list(table.values)
    for i in range(len(knots)):
        for j in range(i + 1, len(knots)):
            k, h = knots[i], knots[j]
            lhs = values[j]
            structure = (h**A * values[i] ** B + values[i] ** C) / (h - k) ** D
            if structure > 0:
                c1 = max(c1, lhs / structure)
    return c1


def test_check_hypothesis_constant_table_passes_with_big_c1():
    t = PsiTable(knots=[0.0, 2.0, 5.0, 10.0], values=[3.0, 3.0, 3.0, 3.0], k0=0.0)
    hyp = DecayHypothesis(1e9, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    rep = check_hypothesis(t, hyp, AllKnotPairs())
    assert rep.max_ratio <= 1.0
    assert rep.passed


def test_check_hypothesis_constant_table_violates_at_distant_pairs():
    knots = [0.0] + [float(10**j) for j in range(7)]
    t = PsiTable(knots=knots, values=[1.0] * len(knots), k0=0.0)
    hyp = DecayHypothesis(1.0, A=0.5, B=1.0, C=1.0, D=2.0, k0=0.0)
    rep = check_hypothesis(t, hyp, AllKnotPairs())
    assert rep.max_ratio > 1.0
    assert not rep.passed
    h_worst, k_worst = rep.worst_pair
    assert h_worst > k_worst


def test_check_hypothesis_empty_pairs_error():
    t = PsiTable(knots=[1.0], values=[1.0], k0=1.0)
    with pytest.raises(ValueError, match="^pair strategy produced no pairs on this table$"):
        check_hypothesis(t, DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, 0.0), AllKnotPairs())


def test_checks_reject_a_table_below_the_hypothesis_origin():
    table = PsiTable(knots=[0.5, 1.0, 2.0], values=[1.0, 0.5, 0.25], k0=0.5)
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    message = r"^table origin k0=0\.5 lies below hypothesis k0=1\.0$"
    with pytest.raises(ValueError, match=message):
        check_hypothesis(table, hyp, AllKnotPairs())
    with pytest.raises(ValueError, match=message):
        check_envelope(table, hyp, psi_at_k0=1.0)


def test_all_pairs_implies_doubling_on_dyadic_grids():
    # Remark direction (16) => (29): fit c1 on all knot pairs, then the
    # doubling check with c2 = c1 must pass. On dyadic-closed grids the
    # doubling pairs are a subset of the knot pairs, so this is exact.
    rng = random.Random(123)
    for _ in range(10):
        per_octave = rng.choice([1, 2, 4])
        octaves = rng.randint(4, 8)
        k0 = rng.uniform(0.5, 2.0)
        knots = [k0 * 2 ** (j / per_octave) for j in range(per_octave * octaves + 1)]
        values = []
        v = rng.uniform(0.5, 4.0)
        for _ in knots:
            values.append(v)
            v *= rng.uniform(0.3, 1.0)
        table = PsiTable(knots=knots, values=values, k0=k0)
        A, B, C, D = 1.0, 0.5, 0.75, 2.0
        c1 = _brute_force_c1(table, (A, B, C, D)) * (1 + 1e-12)
        hyp = DecayHypothesis(c1, A, B, C, D, k0)
        full = check_hypothesis(table, hyp, AllKnotPairs())
        assert full.max_ratio <= 1.0 + 1e-12
        dbl = check_hypothesis(table, hyp, Doubling())
        assert dbl.max_ratio <= 1.0 + 1e-12


def test_scale_covariance_exponential_case():
    # With B = C = 1 both sides scale linearly in psi, so ratios are invariant.
    t = _power_table(per_octave=1, octaves=8, lam=2.0)
    scaled = PsiTable(
        knots=list(t.knots), values=[97.0 * v for v in t.values], k0=t.k0
    )
    hyp = DecayHypothesis(2.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=1.0)
    r1 = check_hypothesis(t, hyp, AllKnotPairs())
    r2 = check_hypothesis(scaled, hyp, AllKnotPairs())
    assert r2.max_ratio == pytest.approx(r1.max_ratio, rel=1e-12)


# ---------------------------------------------------------------- scalar oracle
# The scalar pair loop that check_hypothesis ran before its vectorized
# log-space kernel, with the pair orders of the two strategies.
def _oracle_all_pairs(table):
    knots, values = table.knots, table.values
    for i in range(len(knots)):
        for j in range(i + 1, len(knots)):
            yield knots[j], knots[i], values[j], values[i]


def _oracle_doubling(table):
    top = table.knots[-1]
    for k, v in zip(table.knots, table.values):
        h = 2.0 * k
        if h > top or h <= k:
            continue
        yield h, k, table.evaluate(h), v


def _oracle_ratios(table, hyp, pairs):
    """(h, k, ratio) per pair, in linear space: 0/0 -> 0, positive/0 -> inf."""
    out = []
    for h, k, psi_h, psi_k in pairs(table):
        structure = (h**hyp.A * psi_k**hyp.B + psi_k**hyp.C) / (h - k) ** hyp.D
        rhs = hyp.c1 * structure
        if rhs > 0.0:
            ratio = psi_h / rhs
        elif psi_h == 0.0:
            ratio = 0.0
        else:
            ratio = math.inf
        out.append((h, k, ratio))
    return out


def _oracle_report(rows):
    max_ratio = -math.inf
    worst_pair = first_violation = None
    for h, k, ratio in rows:
        if ratio > max_ratio:
            max_ratio = ratio
            worst_pair = (h, k)
        if ratio > 1.0 and first_violation is None:
            first_violation = (h, k)
    return max_ratio, worst_pair, first_violation


@st.composite
def _tables_and_hypotheses(draw):
    """Nonincreasing tables on knots 10**(e/4) up to 1e150, with zero tails.

    Values stay in {0} U [1e-6, 1] and exponents in [0.05, 1.5], so no
    linear-space power of the oracle leaves the normal float range.
    """
    exps = draw(st.lists(st.integers(-8, 600), min_size=1, max_size=40, unique=True))
    knots = [10.0 ** (e / 4.0) for e in sorted(exps)]
    if draw(st.booleans()):
        values = [0.0] * len(knots)
    else:
        v = 10.0 ** -draw(st.floats(0.0, 2.0))
        values = []
        for _ in knots:
            values.append(v)
            v *= 10.0 ** -draw(st.floats(0.0, 0.1))
        tail = draw(st.integers(0, len(knots)))
        values[len(knots) - tail:] = [0.0] * tail
    A = draw(st.floats(0.05, 1.4))
    hyp = DecayHypothesis(
        c1=10.0 ** draw(st.floats(-3.0, 3.0)),
        A=A,
        B=draw(st.floats(0.1, 1.5)),
        C=draw(st.floats(0.1, 1.5)),
        D=draw(st.floats(A + 0.05, 1.5)),
        k0=0.0,
    )
    return PsiTable(knots, values, k0=0.0), hyp


_STRATEGY_PAIRS = {
    "all": (AllKnotPairs(), _oracle_all_pairs),
    "doubling": (Doubling(), _oracle_doubling),
}


@settings(max_examples=150, deadline=None)
@given(
    drawn=_tables_and_hypotheses(),
    name=st.sampled_from(sorted(_STRATEGY_PAIRS)),
)
def test_check_hypothesis_matches_scalar_oracle(drawn, name):
    table, hyp = drawn
    strategy, oracle_pairs = _STRATEGY_PAIRS[name]
    rows = _oracle_ratios(table, hyp, oracle_pairs)
    if not rows:
        with pytest.raises(ValueError):
            check_hypothesis(table, hyp, strategy)
        return
    max_ratio, worst_pair, first_violation = _oracle_report(rows)
    assert math.isfinite(max_ratio)
    # no near-ties: the worst pair and the side of 1 are well defined
    ratios = sorted(ratio for _, _, ratio in rows)
    assume(max_ratio == 0.0 or len(ratios) == 1 or ratios[-2] < max_ratio * (1.0 - 1e-9))
    assume(all(abs(ratio - 1.0) > 1e-9 for ratio in ratios))
    rep = check_hypothesis(table, hyp, strategy)
    assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0.0)
    assert rep.pair_count == len(rows)
    assert rep.passed == (max_ratio <= 1.0)
    assert rep.worst_pair == worst_pair
    assert rep.first_violation == first_violation


def _drop_table(seed):
    """Decaying head, a 1e-6 drop at a knot past row 2**16 // N, flat after it.

    With B = C = 1 the flat part's ratios (h-k)^D / (c1 (h^A + 1)) top
    every other pair, so the worst pair and the first violation sit in
    the first flat row.
    """
    rng = random.Random(seed)
    n = rng.randint(400, 600)
    knots = [1.0 + j + rng.uniform(0.0, 0.5) for j in range(n)]
    drop = rng.randint(n // 2, n - 150)
    values = [math.exp(-0.05 * j) for j in range(drop)] + [1e-6 * math.exp(-0.05 * drop)] * (n - drop)
    hyp = DecayHypothesis(40.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    return PsiTable(knots, values, k0=0.0), hyp, drop


def _zero_tail_table(seed):
    """Random geometric decay with a zero tail from a knot past row 2**16 // N."""
    rng = random.Random(seed)
    n = rng.randint(400, 600)
    knots, values = [], []
    k, v = 1.0, 1.0
    for _ in range(n):
        knots.append(k)
        values.append(v)
        k += rng.uniform(0.1, 2.0)
        v *= rng.uniform(0.97, 1.0)
    tail = rng.randint(n // 2, n - 20)
    values[tail:] = [0.0] * (n - tail)
    hyp = DecayHypothesis(
        10.0 ** rng.uniform(-1.0, 1.0), A=0.5, B=rng.uniform(0.3, 1.4),
        C=rng.uniform(0.3, 1.4), D=rng.uniform(0.8, 1.5), k0=0.0,
    )
    return PsiTable(knots, values, k0=0.0), hyp, tail


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", [_drop_table, _zero_tail_table])
def test_check_hypothesis_matches_scalar_oracle_over_several_batches(make, seed):
    table, hyp, start = make(seed)
    assert start >= lemma._BATCH_PAIRS // len(table)
    oracle = _oracle_ratios(table, hyp, _oracle_all_pairs)
    max_ratio, worst_pair, first_violation = _oracle_report(oracle)
    rep = check_hypothesis(table, hyp, AllKnotPairs())
    assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0.0)
    assert rep.pair_count == len(oracle) == len(table) * (len(table) - 1) // 2
    assert rep.worst_pair == worst_pair
    assert rep.first_violation == first_violation
    if make is _drop_table:
        assert list(table.knots).index(rep.worst_pair[1]) == start
        assert list(table.knots).index(rep.first_violation[1]) == start


def test_check_hypothesis_ratio_of_exactly_one_is_no_violation():
    # (1, 0) reads exactly 1 / (0.5 * (1 + 1)) = 1; the first ratio above 1 is (3, 0).
    table = PsiTable([0.0, 1.0, 3.0], [1.0, 1.0, 1.0], k0=0.0)
    hyp = DecayHypothesis(0.5, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)
    rep = check_hypothesis(table, hyp, AllKnotPairs())
    assert rep.first_violation == (3.0, 0.0)
    assert rep.max_ratio == pytest.approx(4.5, rel=1e-15)


def test_check_hypothesis_all_zero_table_reads_zero():
    knots = [1.0 + 0.5 * j for j in range(600)]
    table = PsiTable(knots, [0.0] * len(knots), k0=1.0)
    hyp = DecayHypothesis(1.0, A=1.0, B=0.5, C=2.0, D=3.0, k0=1.0)
    rep = _same_as_enumeration(table, hyp)
    assert rep.max_ratio == 0.0 and rep.passed
    assert rep.worst_pair == (knots[1], knots[0])
    assert rep.first_violation is None
    assert rep.pair_count == 600 * 599 // 2
    assert rep.pairs_evaluated == 0  # every psi(h) is 0: every ratio is known to be 0


# ---------------------------------------------------------------- branch-and-bound
# check_hypothesis prunes AllKnotPairs with tile bounds; every knot pair
# checked as one 1-D batch of another strategy, which prunes nothing, is
# its oracle.  Every field is compared with ==.
class _Enumerated:
    """Every knot pair in row-major order, as one batch, so nothing is pruned."""

    def pair_arrays(self, table):
        k, h = np.triu_indices(len(table), 1)
        return table.knots[h], table.knots[k], table.values[h], table.values[k]


def _same_as_enumeration(table, hyp, batch_pairs=None):
    """The pruned report, after checking that it agrees with the oracle.

    ``batch_pairs`` stands in for the tile search's ``_BATCH_PAIRS``; None
    keeps the real one.
    """
    want = check_hypothesis(table, hyp, _Enumerated())
    real = batch_pairs is None
    with contextlib.nullcontext() if real else mock.patch.object(lemma, "_BATCH_PAIRS", batch_pairs):
        got = check_hypothesis(table, hyp, AllKnotPairs())
    assert replace(got, pairs_evaluated=None) == replace(want, pairs_evaluated=None)
    assert want.pairs_evaluated == want.pair_count == len(table) * (len(table) - 1) // 2
    assert 0 <= got.pairs_evaluated <= got.pair_count
    return got


@st.composite
def _pruning_inputs(draw):
    """Nonincreasing tables on knots from 1e-300 to 1e300, zero tails included.

    N = 2 and 3 and sizes that are not a multiple of the tile width are
    drawn with a small ``batch_pairs``, and 71 to 362 knots, up to 2**16
    pairs, with the real batch (None); knots come geometric, linear or at
    random decades, values span 1e-300 to 1e300, with flat runs and rises
    within the table's 1e-12 slack.  ``scale`` puts c1 at that multiple of
    the largest ratio at c1 = 1, so that the maximum sits near 1.
    """
    batch_pairs = draw(st.sampled_from([None, 1, 5, 64, 1000]))
    if batch_pairs is None:
        size = draw(st.integers(71, 362))
    else:
        size = draw(st.one_of(st.sampled_from([2, 3, 15, 16, 17, 33]), st.integers(2, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    low, high = sorted(rng.uniform(-300.0, 300.0, 2))
    knots = {
        "geometric": np.geomspace(10.0**low, 10.0**high, size),
        "linear": np.linspace(10.0**low, 10.0**high, size),
        "random": 10.0 ** np.sort(rng.uniform(-300.0, 300.0, size)),
    }[draw(st.sampled_from(["geometric", "linear", "random"]))]
    if draw(st.booleans()):
        knots[0] = 0.0
    assume(np.all(np.diff(knots) > 0.0))
    # steps: flat, a rise within the slack (not among subnormals, where the
    # slack rounds to 0), or a drop of up to 30 decades
    steps = rng.choice([1.0, 1.0 + 5e-13, 0.0], size)
    drops = steps == 0.0
    steps[drops] = 10.0 ** -rng.uniform(0.0, 30.0, np.count_nonzero(drops))
    values = [10.0 ** rng.uniform(-300.0, 300.0)]
    for step in steps[1:]:
        values.append(values[-1] * step if step < 1.0 or values[-1] > 1e-300 else values[-1])
    values = np.array(values)
    values[size - draw(st.integers(0, size)):] = 0.0
    A, C = rng.uniform(0.05, 3.0, 2)
    hyp = DecayHypothesis(
        c1=1.0, A=A, B=draw(st.sampled_from([C, rng.uniform(0.05, 3.0)])), C=C,
        D=A + rng.uniform(0.05, 3.0), k0=0.0,
    )
    scale = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    return PsiTable(knots, values, k0=0.0), hyp, batch_pairs, scale


@settings(max_examples=200, deadline=None)
@given(drawn=_pruning_inputs())
def test_pruned_all_pairs_matches_enumeration(drawn):
    table, hyp, batch_pairs, scale = drawn
    top = check_hypothesis(table, hyp, _Enumerated()).max_ratio
    if scale is not None and 1e-300 < top < 1e300:
        hyp = replace(hyp, c1=top * scale)
    _same_as_enumeration(table, hyp, batch_pairs)


@st.composite
def _unbounded_inputs(draw):
    """Tables whose tile bounds have an infinite rounding margin.

    A or D lies near the float max, so A log h or D log(h - k) leaves the
    float range on most pairs; or B does, so (B - C) log psi(k) reads
    +inf or -inf and the pairs whose psi(k) is small keep finite ratios.
    Values come with flat runs (ties), drops and zero tails, and may be
    all zero.  Tables of 363 to 380 knots, past 2**16 pairs, are drawn with
    the real batch next to small tables checked with a smaller batch.
    ``scale`` puts c1 at that multiple of the largest finite ratio at
    c1 = 1, so that the maximum sits near 1.
    """
    batch_pairs = draw(st.sampled_from([None, 1, 5, 64, 1000]))
    size = draw(st.integers(363, 380) if batch_pairs is None else st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    knots = {
        "integer": np.arange(size, dtype=float) + draw(st.sampled_from([0.0, 1.0])),
        "geometric": np.geomspace(1e-3, 1e3, size),
        "random": 10.0 ** np.sort(rng.uniform(-5.0, 5.0, size)),
    }[draw(st.sampled_from(["integer", "geometric", "random"]))]
    assume(np.all(np.diff(knots) > 0.0))
    big = draw(st.sampled_from(["A", "D", "B"]))
    steps = rng.choice([1.0, 1.0, 0.5, 1e-30], size)
    # with B near the float max, (B - C) log psi(k) is +inf only where psi(k) > 6 or so
    values = np.cumprod(steps) * 10.0 ** rng.uniform(1.0 if big == "B" else -3.0, 3.0)
    values[size - draw(st.integers(0, size)):] = 0.0
    near_max = float(rng.uniform(1e308, 1.7e308))
    A, B, C, D = rng.uniform(0.05, 3.0, 4)
    if big == "A":
        A, D = 1e308, near_max
    elif big == "D":
        D = near_max
    else:
        B, D = near_max, A + D
    if big != "B" and draw(st.booleans()):
        B = C
    hyp = DecayHypothesis(c1=10.0 ** rng.uniform(-3.0, 3.0), A=A, B=B, C=C, D=D, k0=0.0)
    scale = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    return PsiTable(knots, values, k0=0.0), hyp, batch_pairs, scale


@settings(max_examples=100, deadline=None)
@given(drawn=_unbounded_inputs())
def test_all_pairs_with_an_infinite_margin_matches_enumeration(drawn):
    table, hyp, batch_pairs, scale = drawn
    top = check_hypothesis(table, hyp, _Enumerated()).max_ratio
    if scale is not None and 1e-300 < top < 1e300:
        hyp = replace(hyp, c1=top * scale)
    knots, values = table.knots, table.values
    # the error state that check_hypothesis sets around the tile search
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_terms, k_terms = lemma._knot_logs(knots, values, values, hyp.c1, hyp.A, hyp.B, hyp.C)
        margin = lemma._bound_margin(knots, h_terms, k_terms, hyp.D)
    assume(margin == math.inf)
    _same_as_enumeration(table, hyp, batch_pairs)


def _flat(n, bump=None):
    """psi = 1 on n knots, with A and D so small that every ratio rounds alike.

    h^A rounds to 1 and D log(h - k) to nothing beside log 2, so with
    B = C = 1 and c1 = 1/2 every pair reads exactly ratio 1, or psi(h)
    where the values at the given ``bump`` knots are raised.
    """
    values = np.ones(n)
    for at, value in (bump or {}).items():
        values[at:] = value
    table = PsiTable(np.linspace(1.0, 100.0, n), values, k0=1.0)
    return table, DecayHypothesis(0.5, A=1e-18, B=1.0, C=1.0, D=2e-18, k0=1.0)


@pytest.mark.parametrize("n, batch_pairs", [(400, None), (45, 1), (45, 300)])
def test_pruned_all_pairs_tied_maxima_keep_the_first_pair(n, batch_pairs):
    table, hyp = _flat(n)
    rep = _same_as_enumeration(table, hyp, batch_pairs)
    assert rep.max_ratio == 1.0 and rep.passed and rep.first_violation is None
    assert rep.worst_pair == (table.knots[1], table.knots[0])
    # every tile can reach the maximum: nothing is pruned
    assert rep.pairs_evaluated == rep.pair_count


@pytest.mark.parametrize("n, batch_pairs", [(400, None), (45, 1)])
def test_pruned_all_pairs_ratio_of_one_next_to_one_just_above(n, batch_pairs):
    # ratios are exactly 1, except against the last knot, raised by one ulp
    table, hyp = _flat(n, {n - 1: math.nextafter(1.0, 2.0)})
    rep = _same_as_enumeration(table, hyp, batch_pairs)
    assert rep.max_ratio == math.nextafter(1.0, 2.0) and not rep.passed
    assert rep.first_violation == rep.worst_pair == (table.knots[-1], table.knots[0])


@pytest.mark.parametrize("n, batch_pairs", [(400, None), (45, 1)])
def test_pruned_all_pairs_keeps_violations_within_the_rounding_margin(n, batch_pairs):
    # two rises within the 1e-12 slack: the first violation reads 1 + 1e-13,
    # below the bounds' rounding margin, and the maximum (1 + 1e-13)(1 + 1e-12)
    # lies further along row 0
    first, top = n // 3, 2 * n // 3
    table, hyp = _flat(n, {first: 1.0 + 1e-13, top: (1.0 + 1e-13) * (1.0 + 1e-12)})
    rep = _same_as_enumeration(table, hyp, batch_pairs)
    assert rep.first_violation == (table.knots[first], table.knots[0])
    assert rep.worst_pair == (table.knots[top], table.knots[0])


@pytest.mark.parametrize("n, batch_pairs", [(400, None), (200, 64)])
def test_pruned_all_pairs_finds_a_violation_in_a_tile_before_the_worst_pair(n, batch_pairs):
    # psi = 1 and B = C = 1: ratio (h - k)^3 / (c1 (h^0.01 + 1)) peaks at the
    # widest pair; c1 puts it at 8, so row 0 crosses 1 near its middle, in a
    # tile whose bound lies far below the maximum
    table = PsiTable(np.linspace(1.0, 2.0 * n, n), np.ones(n), k0=1.0)
    hyp = DecayHypothesis(1.0, A=0.01, B=1.0, C=1.0, D=3.0, k0=1.0)
    top = check_hypothesis(table, hyp, _Enumerated()).max_ratio
    rep = _same_as_enumeration(table, replace(hyp, c1=top / 8.0), batch_pairs)
    assert rep.worst_pair == (table.knots[-1], table.knots[0])
    h, k = rep.first_violation
    assert k == table.knots[0] and table.knots[n // 3] < h < table.knots[2 * n // 3]
    assert rep.pairs_evaluated < rep.pair_count // 10


def test_pruned_all_pairs_skips_most_pairs_of_a_smooth_table():
    # a power-law table of 1000 knots, as verify reads them
    rng = np.random.default_rng(11)
    knots = np.geomspace(1.0, 1024.0, 1000)
    lam = rng.uniform(0.8, 5.0)
    values = np.minimum(0.7, 0.7 * (knots / 2.5) ** -lam)
    u = 0.3
    B = rng.uniform(1.0 - u + 0.05, 0.95)
    D = lam * u
    hyp = DecayHypothesis(1.0, A=D - lam * (1.0 - B), B=B, C=1.0 - u, D=D, k0=1.0)
    rep = _same_as_enumeration(PsiTable(knots, values, k0=1.0), hyp)
    assert rep.pair_count == 499500
    assert rep.pairs_evaluated < rep.pair_count // 20


def test_pairs_evaluated_is_pair_count_where_nothing_is_pruned():
    table, hyp = _flat(400)
    # h^A leaves the float range: the bounds' margin is inf and every pair is checked
    huge = DecayHypothesis(1.0, A=1e308, B=1.0, C=1.0, D=1.7e308, k0=1.0)
    for strategy, h in ((AllKnotPairs(), huge), (Doubling(), hyp)):
        rep = check_hypothesis(table, h, strategy)
        assert rep.pairs_evaluated == rep.pair_count
    small, hyp = _flat(300)  # every ratio is 1: every tile can reach the maximum
    assert check_hypothesis(small, hyp, AllKnotPairs()).pairs_evaluated == 44850


def test_log_sum_matches_logaddexp():
    inf = math.inf
    special = np.array([-inf, -800.0, -1.0, -0.0, 0.0, 0.5, 700.0, 800.0, inf])
    x, y = (a.ravel() for a in np.meshgrid(special, special))
    rng = np.random.default_rng(3)
    base = rng.uniform(-1e3, 1e3, 2000)
    gap = np.concatenate([np.zeros(100), rng.uniform(-800.0, 800.0, 1900)])
    x = np.concatenate([x, base])
    y = np.concatenate([y, base + gap])
    want = np.logaddexp(x, y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as the kernel's callers
        got = lemma._log_sum(x.copy(), y)
    infinite = ~np.isfinite(want)
    assert infinite.sum() == 18  # the 17 pairs holding +inf, and (-inf, -inf)
    assert np.array_equal(got[infinite], want[infinite])
    finite = ~infinite
    scale = np.maximum(np.abs(np.maximum(x, y)[finite]), 1.0)
    assert np.all(np.abs(got[finite] - want[finite]) <= 4.0 * np.spacing(scale))
    equal = x == y
    assert equal.sum() >= 100 and np.array_equal(got[equal], want[equal])


# The pair kernel's formula as written, with no term taken once per knot:
# one two-term log-sum of A log h + B log psi(k) and C log psi(k) per pair.
def _pair_scan_oracle(h, k, lhs, base, c1, A, B, C, D):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_base = np.log(base)
        log_lhs = np.log(lhs) - math.log(c1)
        log_sum = lemma._log_sum(A * np.log(h) + B * log_base, C * log_base)
        log_ratios = np.subtract(h, k)
        np.log(log_ratios, out=log_ratios)
        log_ratios *= D
        log_ratios -= log_sum
        log_ratios += log_lhs
        return lemma._scan(log_ratios)


def _psi(draw, size):
    """psi values in {0} U [1e-300, 1]: zeros, tiny and moderate values."""
    return np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)),
        min_size=size, max_size=size,
    )))


@st.composite
def _pair_kernel_inputs(draw):
    """Kernel arguments in 1-D or row-against-column shape.

    Knots span 1e-300 to 1e300 and A reaches 3, so h**A and
    psi(k)**(B-C) leave the float range on some entries, where only
    their logs are finite; B is drawn below, equal to or above C.
    """
    exponents = st.floats(-300.0, 300.0)
    if draw(st.booleans()):
        size = draw(st.integers(1, 30))
        shape_h = shape_k = (size,)
    else:
        shape_h, shape_k = (1, draw(st.integers(1, 12))), (draw(st.integers(1, 8)), 1)
    h = 10.0 ** np.array(draw(st.lists(exponents, min_size=shape_h[-1], max_size=shape_h[-1])))
    k = 10.0 ** np.array(draw(st.lists(exponents, min_size=shape_k[0], max_size=shape_k[0])))
    if shape_h == shape_k and draw(st.booleans()):
        k = h * draw(st.floats(0.0, 0.999))  # every 1-D pair has h > k
    A = draw(st.floats(0.05, 3.0))
    C = draw(st.floats(0.05, 3.0))
    B = draw(st.sampled_from([C, draw(st.floats(0.05, 3.0))]))
    c1 = 10.0 ** draw(st.floats(-3.0, 3.0))
    D = draw(st.floats(A + 0.05, 4.0))
    lhs = _psi(draw, h.size).reshape(shape_h)
    base = _psi(draw, k.size).reshape(shape_k)
    return h.reshape(shape_h), k.reshape(shape_k), lhs, base, c1, A, B, C, D


@settings(max_examples=300, deadline=None)
@given(args=_pair_kernel_inputs())
@example(args=(np.array([1e300, 1e200, 2.0]), np.array([1.0, 1.0, 1.0]),
               np.array([1e-300, 0.5, 1e-300]), np.array([0.0, 1e-300, 1e-300]),
               1.0, 3.0, 0.5, 2.9, 3.5))
def test_pair_scan_matches_per_pair_log_sum_oracle(args):
    ratios, worst, over = lemma._pair_scan(*args)
    want, want_worst, want_over = _pair_scan_oracle(*args)
    assert ratios.shape == want.shape

    def at_float_edge(r):
        return np.any(np.isfinite(r) & (r > 0.0) & ((r < 1e-300) | (r > 1e300)))

    # a ratio at the edge of the float range may round to 0 or inf on one side only
    assume(not at_float_edge(want) and not at_float_edge(ratios))
    # 0/0 -> 0, positive/0 -> inf and the h <= k entries read the same
    assert np.array_equal(ratios == 0.0, want == 0.0)
    assert np.array_equal(np.isinf(ratios), np.isinf(want))
    finite = np.isfinite(want)
    assert ratios[finite] == pytest.approx(want[finite], rel=1e-12, abs=0.0)
    max_ratio = want.flat[want_worst]
    assert ratios.flat[worst] == pytest.approx(max_ratio, rel=1e-12, abs=0.0)
    # the worst entry is well defined unless a finite maximum is nearly tied
    second = np.sort(want, axis=None)[-2] if want.size > 1 else 0.0
    if not (0.0 < max_ratio < math.inf) or second < max_ratio * (1.0 - 1e-9):
        assert worst == want_worst
    if not np.any(np.abs(want - 1.0) <= 1e-9):
        assert over == want_over


def test_pair_scan_terms_beyond_the_float_range():
    # h**A = 1e900 and psi(k)**(B-C) = 1e720 leave the float range, and
    # psi(k) = 0 has log -inf; the kernel takes each term as a log.
    h = np.array([[2.0, 1e300]])
    k = np.array([[1.0], [1.0], [1.0]])
    lhs = np.array([[0.5, 1e-300]])
    base = np.array([[1e-300], [0.0], [0.5]])
    args = (h, k, lhs, base, 1.0, 3.0, 0.5, 2.9, 3.5)
    ratios, worst, over = lemma._pair_scan(*args)
    want, want_worst, want_over = _pair_scan_oracle(*args)
    assert ratios[1].tolist() == [math.inf, math.inf]
    assert np.all(np.isfinite(ratios[[0, 2]]))
    assert ratios[[0, 2]] == pytest.approx(want[[0, 2]], rel=1e-12, abs=0.0)
    assert (worst, over) == (want_worst, want_over) == (2, 0)
    # h**A = 1e-750 would read 0 and psi(k)**(B-C) = 1e750 inf, but their
    # product is 1: the log-sum of the two terms must be log 2, not 0 or nan
    args = (np.array([1e-250]), np.array([0.0]), np.array([1.0]), np.array([1e-300]),
            1.0, 3.0, 0.1, 2.6, 3.5)
    ratios, _, _ = lemma._pair_scan(*args)
    assert ratios == pytest.approx(_pair_scan_oracle(*args)[0], rel=1e-12, abs=0.0)
    # (h - k)**D / (2 psi(k)**C) = 1e-875 / (2e-780)
    assert ratios[0] == pytest.approx(5e-96, rel=1e-11)


def test_check_hypothesis_far_knot_has_finite_ratio():
    # h = 1e200 with A = 2 overflows h**A in linear space; the log-space
    # ratio psi(h) (h-k)^D / (h^A psi(k)^B + psi(k)^C) is about 1e200.
    table = PsiTable([1.0, 2.0, 1e200], [1.0, 0.5, 1e-200], k0=1.0)
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    rep = check_hypothesis(table, hyp, AllKnotPairs())
    assert rep.pair_count == 3
    assert rep.worst_pair == (1e200, 2.0)
    # h - k = h and psi(k)^C is below h^A psi(k)^B by 400 decades
    assert rep.max_ratio == pytest.approx(1e-200 * 1e200 * 1e200 / 0.5**0.75, rel=1e-12)
    assert rep.first_violation == (1e200, 1.0)


# ---------------------------------------------------------------- envelope checks
def test_check_envelope_power_min_table():
    # psi(k) = min(1, k^-8) is dominated by any power envelope with
    # c_bar >= 1 and lambda = 8.
    knots = [2 ** (j / 2) for j in range(0, 21)]
    values = [min(1.0, k**-8.0) for k in knots]
    t = PsiTable(knots=knots, values=values, k0=1.0)
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    rep = check_envelope(t, hyp, psi_at_k0=1.0)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-12


def test_check_envelope_zero_table_passes_every_case():
    for hyp in (
        DecayHypothesis(1.0, 2.0, 0.75, 0.5, 4.0, 1.0),
        DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, 1.0),
        DecayHypothesis(1.0, 1.0, 3.0, 2.0, 2.0, 1.0),
    ):
        t = PsiTable(knots=[1.0, 2.0, 4.0], values=[0.0, 0.0, 0.0], k0=1.0)
        rep = check_envelope(t, hyp, psi_at_k0=0.0)
        assert rep.passed


def test_check_envelope_reports_first_violation():
    # A table equal to the envelope except bumped above it at one knot.
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    knots = [float(2**j) for j in range(8)]
    values = [envelope(hyp, 1.0, k) * 0.5 for k in knots]
    # envelope drops by 2^8 per octave, so a 1.5x bump keeps the table nonincreasing
    values[3] = envelope(hyp, 1.0, knots[3]) * 1.5
    t = PsiTable(knots=knots, values=values, k0=1.0)
    rep = check_envelope(t, hyp, psi_at_k0=1.0)
    assert not rep.passed
    assert rep.first_violation == knots[3]
    assert rep.max_ratio >= 1.5 - 1e-9


def test_check_envelope_far_tail_does_not_underflow():
    # c_bar * k**-8 underflows to 0 at k = 1e41 in linear space, which
    # would make the representable psi there an infinite ratio.
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    c_bar = power_decay_constants(hyp, 1.0).c_bar
    t = PsiTable(knots=[1.0, 1e41], values=[1.0, 2e-313], k0=1.0)
    rep = check_envelope(t, hyp, psi_at_k0=1.0)
    assert rep.passed
    want = math.exp(math.log(2e-313) - math.log(c_bar) + 8.0 * math.log(1e41))
    assert rep.max_ratio == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------- giusti recursion
def test_giusti_exact_dyadic_example():
    # [DERIVED]: x0 = 1/2 is exactly the premise boundary for (1, 2, 2);
    # iterates 1/2, 1/4, 1/8, 1/16 meet the bound with equality.
    res = giusti_recursion(c_bar=1.0, m=2.0, beta=2.0, x0=0.5, steps=3)
    assert res.xs == (0.5, 0.25, 0.125, 0.0625)
    assert res.premise_holds
    assert res.bound_holds
    assert res.first_violation is None


def test_giusti_zero_start():
    res = giusti_recursion(1.0, 2.0, 2.0, 0.0, 5)
    assert res.xs == (0.0,) * 6
    assert res.premise_holds
    assert res.bound_holds


def test_giusti_premise_violated():
    res = giusti_recursion(1.0, 2.0, 2.0, 1.0, 3)
    assert not res.premise_holds
    assert not res.bound_holds
    assert res.first_violation == 1  # x1 = 1 > 2^{-1} * 1


def test_giusti_premise_beyond_float_range():
    # c_bar**(-1/(beta-1)) = 10**300000 overflows; the premise compares
    # logs.  The threshold is 10**-1030 at m = 2 and 10**123909 at m = 1.5.
    res = giusti_recursion(1e-300, 2.0, 1.001, 1.0, 3)
    assert not res.premise_holds
    assert res.first_violation == 1
    res = giusti_recursion(1e-300, 1.5, 1.001, 1.0, 3)
    assert res.premise_holds
    assert res.bound_holds
    # (beta - 1)**2 overflows at beta = 1e200, where the threshold is 1
    assert giusti_recursion(1.0, 2.0, 1e200, 0.5, 3).premise_holds


def test_giusti_domain_errors():
    with pytest.raises(ValueError):
        giusti_recursion(1.0, 2.0, 1.0, 0.5, 3)  # beta must exceed 1
    with pytest.raises(ValueError):
        giusti_recursion(1.0, 0.5, 2.0, 0.5, 3)  # m must exceed 1
    with pytest.raises(ValueError):
        giusti_recursion(0.0, 2.0, 2.0, 0.5, 3)
    with pytest.raises(ValueError):
        giusti_recursion(1.0, 2.0, 2.0, -0.5, 3)


def test_giusti_iterate_past_the_float_range_reads_inf():
    # x1 = (1e200)^2 overflows; x2 = 2 inf^2 stays inf
    res = giusti_recursion(1.0, 2.0, 2.0, 1e200, 2)
    assert res.xs == (1e200, math.inf, math.inf)
    assert (res.premise_holds, res.bound_holds, res.first_violation) == (False, False, 1)


_EXP_HYP = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=0.0)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (PsiTable, ([1.0, math.inf], [1.0, 0.5], 1.0), "^knots must be finite$"),
        (PsiTable, ([1.0, math.nan], [1.0, 0.5], 1.0), "^knots must be finite$"),
        (PsiTable, ([1.0, 2.0], [math.nan, 0.5], 1.0), "^values must be finite$"),
        (giusti_recursion, (1.0, 2.0, 2.0, 0.5, -1), "^steps must be nonnegative, got -1$"),
        (level_sequence, (_EXP_HYP, exp_decay_tau(_EXP_HYP), -1), "^count must be nonnegative, got -1$"),
        *[(giusti_recursion, (1.0, 2.0, 2.0, 0.5, steps), "^steps must be an integer$") for steps in (1.5, "2", math.inf)],
        *[(level_sequence, (_EXP_HYP, exp_decay_tau(_EXP_HYP), count), "^count must be an integer$")
          for count in (1.5, "2", math.nan)],
    ],
)
def test_lemma_domain_errors(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_whole_float_counts_are_counts():
    # steps and count follow the count rule: a finite real number equal to its int
    assert len(giusti_recursion(1.0, 2.0, 2.0, 0.5, 2.0).xs) == 3
    assert giusti_recursion(1.0, 2.0, 2.0, 0.5, np.float64(2.0)) == giusti_recursion(1.0, 2.0, 2.0, 0.5, 2)
    env = exp_decay_tau(_EXP_HYP)
    assert level_sequence(_EXP_HYP, env, 3.0) == level_sequence(_EXP_HYP, env, 3)


# ---------------------------------------------------------------- level sequences
def test_level_sequence_vanishing():
    hyp = DecayHypothesis(1.0, 1.0, 3.0, 2.0, 2.0, 0.0)
    env = vanishing_level(hyp, 0.0)
    # 2L(1 - 2^{-i-1}) with L scaled to 1 for the oracle
    seq = level_sequence(hyp, env, 3)
    L = env.L
    assert seq == pytest.approx([L, 1.5 * L, 1.75 * L], rel=1e-14)


def test_level_sequence_exponential():
    hyp = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=0.0)
    env = exp_decay_tau(hyp)
    tau = env.tau
    seq = level_sequence(hyp, env, 3)
    # k_s = k0 + tau * s^{D/(D-A)} = tau * s^2
    assert seq == pytest.approx([0.0, tau, 4.0 * tau], rel=1e-14)


def test_level_sequence_empty_and_wrong_case():
    hyp = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=0.0)
    env = exp_decay_tau(hyp)
    assert level_sequence(hyp, env, 0) == []
    power_hyp = DecayHypothesis(1.0, 2.0, 0.75, 0.5, 4.0, 0.0)
    env_p = power_decay_constants(power_hyp, 1.0)
    with pytest.raises(WrongCaseError):
        level_sequence(power_hyp, env_p, 3)


# ---------------------------------------------------------------- acceptance-3 style
def test_envelope_dominance_synthetic_instances():
    # For truncated-power tables with a brute-force-fitted c1 the explicit
    # envelope dominates the table at every knot (the lemma, executably).
    rng = random.Random(2024)
    for trial in range(10):
        lam = rng.uniform(0.8, 5.0)
        V = 10 ** rng.uniform(-1, 2)
        K = 10 ** rng.uniform(-1, 2)
        u = rng.uniform(0.35, 0.85)
        D = lam * u
        C = 1.0 - u
        B = rng.uniform(1.0 - u + 0.05, 0.95)
        A = D - lam * (1.0 - B)
        assert 0 < A < D
        per_octave = rng.choice([2, 3])
        octaves = 9
        k0 = 1.0
        knots = [k0 * 2 ** (j / per_octave) for j in range(per_octave * octaves + 1)]
        values = [min(V, K * k**-lam) for k in knots]
        table = PsiTable(knots=knots, values=values, k0=k0)
        c1 = _brute_force_c1(table, (A, B, C, D)) * (1 + 1e-12)
        hyp = DecayHypothesis(c1, A, B, C, D, k0)
        assert classify(hyp, 1e-9).tag is CaseTag.POWER_DECAY
        hrep = check_hypothesis(table, hyp, AllKnotPairs())
        assert hrep.max_ratio <= 1.0 + 1e-12, f"trial {trial}"
        erep = check_envelope(table, hyp, psi_at_k0=values[0])
        assert erep.passed, f"trial {trial}: ratio {erep.max_ratio}"
