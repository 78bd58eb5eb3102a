"""Oracle tests for the exponent calculus.

Expected values are frozen from independent hand/rational arithmetic
(fractions module used to re-derive them inside the tests where practical).
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize(
    "name, value, message",
    [
        *[(name, value, f"^{name} must be finite{bound}, got {value}$")
          for name, bound in (("p", " and above 1"), ("alpha", " and nonnegative"), ("r", " and above 1"),
                              ("beta1", " and positive"), ("b_const", " and positive"))
          for value in (math.nan, math.inf)],
        ("alpha", -math.inf, "^alpha must be finite and nonnegative, got -inf$"),
        ("alpha", -0.25, "^alpha must be finite and nonnegative, got -0.25$"),
    ],
)
def test_problem_params_domain_errors(name, value, message):
    with pytest.raises(ValueError, match=message):
        ProblemParams(**{"n": 4, "p": 2.0, "alpha": 0.25, "r": 1.75, name: value})


def test_problem_params_take_any_integral_dimension():
    # any integral n, as RadialGrid takes it, is stored as an int
    params = ProblemParams(n=np.int64(4), p=2.0, alpha=0.25, r=1.75)
    plain = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    assert type(params.n) is int and params == plain and hash(params) == hash(plain)
    assert repr(params) == repr(plain) and compute_exponents(params) is compute_exponents(plain)
    for n in (True, 4.0):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 2, got {n}$"):
            ProblemParams(n=n, p=2.0, alpha=0.25, r=1.75)


def test_problem_params_allows_linear_regime():
    # alpha = 0 and p = n are accepted by the type so the linear-regime
    # solver oracle can be expressed; the exponent calculus itself rejects them.
    params = ProblemParams(n=2, p=2.0, alpha=0.0, r=2.0)
    with pytest.raises(ValueError):
        compute_exponents(params)
    with pytest.raises(ValueError):
        classify_regime(params)


def test_exponent_calculus_rejects_p_equal_to_n():
    params = ProblemParams(n=4, p=4.0, alpha=0.25, r=2.0)
    with pytest.raises(ValueError, match="^exponent calculus requires p < n$"):
        compute_exponents(params)


def test_compute_exponents_returns_one_result_per_parameter_set():
    first = compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75))
    assert compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)) is first
    assert compute_exponents(ProblemParams(n=4, p=2.0, alpha=0.25, r=1.6)) is not first


@pytest.mark.parametrize(
    "params, message",
    [
        ((2, 2.0, 0.0, 2.0), "^exponent calculus requires alpha > 0$"),
        ((4, 4.0, 0.25, 2.0), "^exponent calculus requires p < n$"),
        ((3, 1.0000001, 9.99999900583876e-08, 2.0), "C is unbounded"),
        ((2, 1.0891160533213218, 0.08182420326057739, 1.836351593478845), "rho is unbounded"),
    ],
    ids=["alpha", "p", "C", "rho"],
)
def test_compute_exponents_raises_again_on_a_second_call(params, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            compute_exponents(ProblemParams(*params))


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


def _exponents_oracle(n, p, alpha, r):
    """compute_exponents before its zero-denominator guards, field by field."""
    if alpha <= 0.0 or p >= n:
        raise ValueError("exponent calculus requires alpha > 0 and p < n")
    q = n * p * (1.0 - alpha) / (n - alpha * p)
    q_star = sobolev_conjugate(q, n)
    p_star = sobolev_conjugate(p, n)
    r_low = holder_conjugate(p_star * (1.0 - alpha))
    r_mid = holder_conjugate(p_star / (1.0 + alpha * p))
    r_high = n / p
    A = alpha * p * q_star / (p - 1.0)
    B = (p - 1.0 - q / r + q / n) * q_star / (q * (p - 1.0))
    C = (q - 1.0 - q / r + q / n) * q_star / (q * (p * (1.0 - alpha) - 1.0))
    s = rho = None
    if r_high - r > 1e-12:
        s = n * r * (p * (1.0 - alpha) - 1.0) / (n - r * p)
    if r <= r_mid + 1e-12:
        rho = n * r * (p * (1.0 - alpha) - 1.0) / (n - r * (1.0 + alpha * p))
    theta = (p * (1.0 - alpha) - 1.0) / (p - 1.0)
    return (q, q_star, p_star, r_low, r_mid, r_high, s, rho, A, B, C, q_star, theta)


@st.composite
def _params_near_the_alpha_edge(draw):
    """n, p, alpha and r with p (1 - alpha) - 1 often within a few ulps of 0
    and r often at n / (1 + alpha p), where the denominators vanish."""
    n = draw(st.integers(min_value=2, max_value=6))
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    p = 1.0 + (n - 1.0) * draw(unit) ** draw(st.sampled_from([1, 8, 30]))
    p = max(p, math.nextafter(1.0, 2.0))
    alpha = (p - 1.0) / p * (1.0 - 10.0 ** draw(st.floats(min_value=-16.0, max_value=-0.01)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        alpha = math.nextafter(alpha, 0.0)
    r = draw(
        st.one_of(
            st.floats(min_value=1.0, max_value=4.0 * n, exclude_min=True),
            st.just(n / (1.0 + alpha * p)),
            st.just(n / p),
        )
    )
    return n, p, alpha, r


@given(_params_near_the_alpha_edge())
@example((3, 1.0000001, 9.99999900583876e-08, 2.0))
@example((2, 1.0891160533213218, 0.08182420326057739, 1.836351593478845))
@settings(max_examples=400, deadline=None)
def test_compute_exponents_returns_the_formulas_or_raises_value_error(values):
    # every admitted parameter set either returns the unguarded formulas bit
    # for bit or, where one of their denominators rounds to 0, raises ValueError
    try:
        params = ProblemParams(*values)
    except ValueError:
        return
    try:
        expected = _exponents_oracle(*values)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="rounds to"):
            compute_exponents(params)
        return
    except ValueError:  # outside the calculus's domain, as compute_exponents has it
        with pytest.raises(ValueError):
            compute_exponents(params)
        return
    ex = compute_exponents(params)
    got = (
        ex.q, ex.q_star, ex.p_star, ex.r_low, ex.r_mid, ex.r_high, ex.s, ex.rho,
        ex.hyp.A, ex.hyp.B, ex.hyp.C, ex.hyp.D, ex.theta,
    )
    assert [None if v is None else v.hex() for v in got] == [
        None if v is None else v.hex() for v in expected
    ]


@pytest.mark.parametrize(
    "params, message",
    [
        ((3, 1.0000001, 9.99999900583876e-08, 2.0), "C is unbounded"),
        ((2, 1.0891160533213218, 0.08182420326057739, 1.836351593478845), "rho is unbounded"),
    ],
    ids=["C", "rho"],
)
def test_compute_exponents_rejects_a_zero_denominator(params, message):
    with pytest.raises(ValueError, match=message):
        compute_exponents(ProblemParams(*params))
