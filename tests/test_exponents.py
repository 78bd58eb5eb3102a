"""Oracle tests for the exponent calculus.

Expected values are frozen from independent hand/rational arithmetic
(fractions module used to re-derive them inside the tests where practical).
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leveldecay.exponents import (
    ProblemParams,
    Regime,
    classify_regime,
    compute_exponents,
    holder_conjugate,
    sobolev_conjugate,
)


# ---------------------------------------------------------------- conjugates
def test_sobolev_conjugate_values():
    assert sobolev_conjugate(2, 4) == pytest.approx(4.0, abs=1e-14)
    # nq/(n-q) with q = 12/7, n = 4: (48/7)/(16/7) = 3
    assert sobolev_conjugate(12 / 7, 4) == pytest.approx(3.0, abs=1e-12)
    assert sobolev_conjugate(1, 2) == pytest.approx(2.0, abs=1e-14)


def test_sobolev_conjugate_domain_error():
    with pytest.raises(ValueError):
        sobolev_conjugate(4, 4)
    with pytest.raises(ValueError):
        sobolev_conjugate(5, 4)
    with pytest.raises(ValueError):
        sobolev_conjugate(0.5, 4)


def test_holder_conjugate_values():
    assert holder_conjugate(2) == pytest.approx(2.0, abs=1e-14)
    assert holder_conjugate(3) == pytest.approx(1.5, abs=1e-14)
    assert holder_conjugate(4) == pytest.approx(4 / 3, abs=1e-14)


def test_holder_conjugate_involution():
    for t in (1.2, 1.5, 2.0, 3.7, 11.0):
        assert holder_conjugate(holder_conjugate(t)) == pytest.approx(t, rel=1e-13)


def test_holder_conjugate_domain_error():
    with pytest.raises(ValueError):
        holder_conjugate(1.0)
    with pytest.raises(ValueError):
        holder_conjugate(0.5)


# ---------------------------------------------------------------- params type
def test_problem_params_validation():
    ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)  # valid
    with pytest.raises(ValueError):
        ProblemParams(n=1, p=0.9, alpha=0.25, r=2.0)  # n too small
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=1.0, alpha=0.25, r=2.0)  # p must exceed 1
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=5.0, alpha=0.25, r=2.0)  # p must not exceed n
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=2.0, alpha=0.6, r=2.0)  # alpha*p' >= 1
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=2.0, alpha=0.25, r=1.0)  # r must exceed 1
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=2.0, alpha=0.25, r=2.0, beta1=0.0)
    with pytest.raises(ValueError):
        ProblemParams(n=4, p=2.0, alpha=0.25, r=2.0, b_const=-1.0)


def test_problem_params_allows_linear_regime():
    # alpha = 0 and p = n are accepted by the type so the linear-regime
    # solver oracle can be expressed; the exponent calculus itself rejects them.
    params = ProblemParams(n=2, p=2.0, alpha=0.0, r=2.0)
    with pytest.raises(ValueError):
        compute_exponents(params)
    with pytest.raises(ValueError):
        classify_regime(params)


# ---------------------------------------------------------------- frozen oracles
def test_exponents_at_r_equals_n_over_p():
    # [DERIVED]: q = 4*2*(3/4)/(4 - 1/2) = 6/(7/2) = 12/7; q* = 3;
    # A = (1/4)*2*3/(2-1) = 3/2; D = 3; B = (1 - 6/7 + 3/7)*(7/4) = 1; C = 1.
    ex = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=2.0))
    assert ex.q == pytest.approx(12 / 7, rel=1e-14)
    assert ex.q_star == pytest.approx(3.0, rel=1e-13)
    assert ex.hyp.A == pytest.approx(1.5, rel=1e-13)
    assert ex.hyp.D == pytest.approx(3.0, rel=1e-13)
    assert ex.hyp.B == pytest.approx(1.0, abs=1e-12)
    assert ex.hyp.C == pytest.approx(1.0, abs=1e-12)


def test_exponents_balance_identity_frozen():
    # [DERIVED] rational re-derivation: with q = 12/7, r = 7/4:
    # B = (1 - 48/49 + 21/49) * 3 / (12/7) = (22/49)*(7/4) = 11/14
    # C = (5/7 - 48/49 + 21/49) * 3 / (6/7) = (24/49)*(7/2) = 4/7
    # s = 4*(7/4)*(1/2) / (4 - 7/2) = 7
    q = Fraction(4 * 2, 1) * Fraction(3, 4) / (4 - Fraction(1, 4) * 2)
    assert q == Fraction(12, 7)
    b_expected = (1 - q / Fraction(7, 4) + q / 4) * 3 / q
    c_expected = (q - 1 - q / Fraction(7, 4) + q / 4) * 3 / (q * Fraction(1, 2))
    assert b_expected == Fraction(11, 14)
    assert c_expected == Fraction(4, 7)

    ex = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75))
    assert ex.hyp.B == pytest.approx(11 / 14, rel=1e-12)
    assert ex.hyp.C == pytest.approx(4 / 7, rel=1e-12)
    assert ex.s == pytest.approx(7.0, rel=1e-12)
    lam_b = (ex.hyp.D - ex.hyp.A) / (1 - ex.hyp.B)
    lam_c = ex.hyp.D / (1 - ex.hyp.C)
    assert lam_b == pytest.approx(7.0, rel=1e-10)
    assert lam_c == pytest.approx(7.0, rel=1e-10)


def test_rho_at_r_mid_endpoint():
    # [DERIVED]: rho = n r [p(1-a)-1] / (n - r(1+ap)) = 4*(8/5)*(1/2)/(4-(8/5)(3/2))
    #          = (16/5)/(8/5) = 2 = p at the endpoint r = r_mid.
    ex = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.6))
    assert ex.rho == pytest.approx(2.0, rel=1e-12)


def test_thresholds_frozen():
    # [DERIVED]: p* = 4; p*(1-a) = 3 -> conjugate 3/2; p*/(1+ap) = 8/3 -> 8/5; n/p = 2.
    ex = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75))
    assert ex.p_star == pytest.approx(4.0, rel=1e-13)
    assert ex.r_low == pytest.approx(1.5, rel=1e-13)
    assert ex.r_mid == pytest.approx(1.6, rel=1e-13)
    assert ex.r_high == pytest.approx(2.0, rel=1e-13)


def test_s_rho_optional_outside_ranges():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=3.0)  # above r_high
    ex = compute_exponents(params)
    assert ex.s is None
    assert ex.rho is None
    ex_mid = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75))
    assert ex_mid.s is not None
    assert ex_mid.rho is None  # above r_mid
    ex_low = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.55))
    assert ex_low.s is not None
    assert ex_low.rho is not None


def test_paper_ordering_conflict_values_recorded():
    # The source claims B > C > 1 above n/p; the printed formulas give
    # B = 7/4 < C = 5/2 at (4, 2, 1/4, 4). We pin the computed values and
    # only rely on min(B, C) > 1.
    ex = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=4.0))
    assert ex.hyp.B == pytest.approx(7 / 4, rel=1e-12)
    assert ex.hyp.C == pytest.approx(5 / 2, rel=1e-12)
    assert min(ex.hyp.B, ex.hyp.C) > 1


# ---------------------------------------------------------------- classifier
def test_classify_regime_examples():
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 2.0)) is Regime.EXPONENTIAL_INTEGRABILITY
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 3.0)) is Regime.BOUNDED
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 1.75)) is Regime.SOBOLEV_W1P
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 1.55)) is Regime.GRADIENT_MARCINKIEWICZ
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 1.6)) is Regime.GRADIENT_MARCINKIEWICZ
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 1.5)) is Regime.BELOW_RANGE
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 1.2)) is Regime.BELOW_RANGE


def test_classify_regime_labels():
    assert Regime.GRADIENT_MARCINKIEWICZ.value == "GradientMarcinkiewicz"
    assert Regime.SOBOLEV_W1P.value == "SobolevW1p"
    assert Regime.EXPONENTIAL_INTEGRABILITY.value == "ExponentialIntegrability"
    assert Regime.BOUNDED.value == "Bounded"
    assert Regime.BELOW_RANGE.value == "BelowRange"


def test_classify_regime_threshold_tolerance():
    # absolute tolerance 1e-12 on r - threshold
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 2.0 + 5e-13)) is Regime.EXPONENTIAL_INTEGRABILITY
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 2.0 - 5e-13)) is Regime.EXPONENTIAL_INTEGRABILITY
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 2.0 + 1e-9)) is Regime.BOUNDED
    assert classify_regime(ProblemParams(4, 2.0, 0.25, 2.0 - 1e-9)) is Regime.SOBOLEV_W1P


# ---------------------------------------------------------------- properties
@given(
    n=st.integers(min_value=2, max_value=8),
    pfrac=st.floats(min_value=0.05, max_value=0.95),
    afrac=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_identity_a_over_d_and_unit_bc_at_npr(n, pfrac, afrac):
    p = 1.0 + pfrac * (n - 1.0 - 1e-6)
    p_prime = p / (p - 1.0)
    alpha = afrac / p_prime
    params = ProblemParams(n=n, p=p, alpha=alpha, r=n / p)
    ex = compute_exponents(params)
    assert abs(ex.hyp.A / ex.hyp.D - alpha * p_prime) <= 1e-12
    assert abs(ex.hyp.B - 1.0) <= 1e-10
    assert abs(ex.hyp.C - 1.0) <= 1e-10


@given(
    n=st.integers(min_value=2, max_value=8),
    pfrac=st.floats(min_value=0.05, max_value=0.95),
    afrac=st.floats(min_value=0.05, max_value=0.95),
    rpick=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=60, deadline=None)
def test_balance_identity_inside_range(n, pfrac, afrac, rpick):
    p = 1.0 + pfrac * (n - 1.0 - 1e-6)
    p_prime = p / (p - 1.0)
    alpha = afrac / p_prime
    probe = compute_exponents(ProblemParams(n=n, p=p, alpha=alpha, r=n / p))
    r = probe.r_low + rpick * (probe.r_high - probe.r_low)
    if r <= probe.r_low + 1e-9 or r >= probe.r_high - 1e-9:
        return
    ex = compute_exponents(ProblemParams(n=n, p=p, alpha=alpha, r=r))
    lam_b = (ex.hyp.D - ex.hyp.A) / (1.0 - ex.hyp.B)
    lam_c = ex.hyp.D / (1.0 - ex.hyp.C)
    assert abs(lam_b - lam_c) <= 1e-9 * max(1.0, abs(lam_b))
    assert ex.s == pytest.approx(lam_b, rel=1e-9)


@given(
    n=st.integers(min_value=2, max_value=8),
    pfrac=st.floats(min_value=0.05, max_value=0.95),
    afrac=st.floats(min_value=0.05, max_value=0.95),
    rfac=st.floats(min_value=1.01, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_vanishing_exponents_above_n_over_p(n, pfrac, afrac, rfac):
    p = 1.0 + pfrac * (n - 1.0 - 1e-6)
    p_prime = p / (p - 1.0)
    alpha = afrac / p_prime
    ex = compute_exponents(ProblemParams(n=n, p=p, alpha=alpha, r=rfac * n / p))
    assert min(ex.hyp.B, ex.hyp.C) > 1.0


def test_b_c_strictly_increasing_in_r():
    rs = [1.3, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 8.0]
    exs = [compute_exponents(ProblemParams(4, 2.0, 0.25, r)) for r in rs]
    bs = [e.hyp.B for e in exs]
    cs = [e.hyp.C for e in exs]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    assert all(c2 > c1 for c1, c2 in zip(cs, cs[1:]))


def test_q_below_p():
    for n, p, alpha in [(4, 2.0, 0.25), (3, 1.5, 0.3), (6, 2.5, 0.3)]:
        ex = compute_exponents(ProblemParams(n, p, alpha, 1.2))
        assert ex.q < p


# ---------------------------------------------------------------- regime and theta in ExponentSet
@pytest.mark.parametrize(
    "r",
    [2.0 + 5e-13, 2.0 - 5e-13, 2.0 + 1e-9, 2.0 - 1e-9, 1.2, 1.5, 1.55, 1.6, 1.75, 3.0],
)
def test_exponent_set_regime_is_the_classified_regime(r):
    params = ProblemParams(4, 2.0, 0.25, r)
    assert compute_exponents(params).regime is classify_regime(params)


def test_theta_at_the_paper_parameters():
    assert compute_exponents(ProblemParams(4, 2.0, 0.25, 2.0)).theta == 0.5
    # theta depends on p and alpha only
    assert compute_exponents(ProblemParams(4, 2.0, 0.25, 1.2)).theta == 0.5
    assert compute_exponents(ProblemParams(3, 1.5, 0.3, 1.2)).theta == pytest.approx(
        float((Fraction(3, 2) * Fraction(7, 10) - 1) / Fraction(1, 2)), rel=1e-14
    )


@given(
    n=st.integers(min_value=2, max_value=8),
    pfrac=st.floats(min_value=0.05, max_value=0.95),
    afrac=st.floats(min_value=0.05, max_value=0.95),
    rfac=st.floats(min_value=0.2, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_s_is_defined_in_every_regime_below_n_over_p(n, pfrac, afrac, rfac):
    # the tail summaries read -s without a guard
    p = 1.0 + pfrac * (n - 1.0 - 1e-6)
    alpha = afrac * (p - 1.0) / p
    r = max(1.0 + 1e-9, rfac * n / p)
    ex = compute_exponents(ProblemParams(n=n, p=p, alpha=alpha, r=r))
    below = ex.regime in (
        Regime.BELOW_RANGE, Regime.GRADIENT_MARCINKIEWICZ, Regime.SOBOLEV_W1P
    )
    assert (ex.s is not None) == below
