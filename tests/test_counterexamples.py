"""Oracle tests for the doubling counterexample machinery.

Closed-form identities are checked to a few ulps; levels where the
floats underflow are certified through the log-value fields.
"""
import copy
import math
import os
import pickle
import random
import subprocess
import sys

import pytest

from leveldecay import counterexamples
from leveldecay.counterexamples import (
    LOG_SQUARE_C2,
    LOG_SQUARE_C2_ALIAS,
    NamedPsi,
    equivalence_constant,
    exp_power_psi,
    find_envelope_violation,
    k0_for_exp_power,
    log_square_psi,
    psi_exp_power,
    psi_log_square,
)
from leveldecay.lemma import (
    AllKnotPairs,
    CaseTag,
    DecayHypothesis,
    Doubling,
    PsiTable,
    WrongCaseError,
    check_hypothesis,
    classify,
    giusti_recursion,
    power_decay_constants,
)


# ---------------------------------------------------------------- log-square family
def test_psi_log_square_values():
    assert psi_log_square(1.0) == 1.0
    assert psi_log_square(math.e) == pytest.approx(math.exp(-1.0), rel=1e-15)
    with pytest.raises(ValueError):
        psi_log_square(0.5)


def test_psi_log_square_doubling_identity():
    # [DERIVED]: psi(2k) = psi(k) * (2k^2)^{-ln 2}; at k = 2 both sides are
    # evaluated independently and must agree to 4 ulps.
    lhs = psi_log_square(4.0)
    rhs = psi_log_square(2.0) * (2.0 * 4.0) ** (-math.log(2.0))
    assert abs(lhs - rhs) <= 4 * math.ulp(max(lhs, rhs))


def test_certified_doubling_constant():
    assert LOG_SQUARE_C2 == pytest.approx(2.0 ** (-math.log(2.0)), rel=1e-15)
    assert LOG_SQUARE_C2 == pytest.approx(0.6185, abs=5e-5)
    # the constant printed in the source's remark, kept as an alias
    assert LOG_SQUARE_C2_ALIAS == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-15)
    assert LOG_SQUARE_C2 < LOG_SQUARE_C2_ALIAS


def test_log_square_named_psi_log_evaluator():
    psi = log_square_psi()
    assert psi.k0 == 1.0
    k = math.exp(30.0)  # psi underflows to 0.0 here
    assert psi.evaluator(k) == 0.0
    assert psi.log_evaluator(k) == pytest.approx(-900.0, rel=1e-12)


# ---------------------------------------------------------------- exp-power family
def test_psi_exp_power_values():
    # [DERIVED]: p = log2(2*2) = 2, so psi(1) = e^{-1} and psi(2) = e^{-4} = psi(1)^4.
    assert psi_exp_power(1.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert psi_exp_power(2.0, 2.0) == pytest.approx(math.exp(-4.0), rel=1e-14)
    assert psi_exp_power(2.0, 2.0) == pytest.approx(psi_exp_power(1.0, 2.0) ** 4, rel=1e-13)
    with pytest.raises(ValueError):
        psi_exp_power(0.5, 2.0)
    with pytest.raises(ValueError):
        psi_exp_power(2.0, 1.0)  # c_exp must exceed 1


def test_psi_exp_power_doubling_identity():
    # psi(2k) = (e^{-k^p})^C * psi(k)^C for several k
    c_exp = 2.0
    p = math.log2(2 * c_exp)
    for k in (1.0, 1.5, 2.0, 3.0):
        lhs = psi_exp_power(2 * k, c_exp)
        rhs = (math.exp(-(k**p)) * psi_exp_power(k, c_exp)) ** c_exp
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_psi_exp_power_monotone_to_zero():
    vals = [psi_exp_power(k, 2.0) for k in (1.0, 2.0, 4.0, 8.0, 16.0, 40.0)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] == 0.0  # underflow far out; the math limit is 0


def test_exp_power_past_float_range_reads_zero_and_minus_inf():
    # p = log2(2e10) = 34.2, so k**p passes the float range near k = 1e9
    psi = exp_power_psi(1e10)
    assert psi_exp_power(2.0**40, 1e10) == 0.0
    assert psi.evaluator(2.0**40) == 0.0
    assert psi.log_evaluator(2.0**40) == -math.inf
    assert psi.log_evaluator(math.inf) == -math.inf
    # in range the log is -(k**p) exactly
    assert psi.log_evaluator(8.0) == -(8.0 ** psi.parameters["p"])
    assert psi_exp_power(8.0, 1e10) == math.exp(-(8.0 ** psi.parameters["p"]))
    with pytest.raises(ValueError):
        psi.log_evaluator(0.5)


def test_frozen_results_hold_no_mutable_container():
    res = giusti_recursion(1.0, 2.0, 2.0, 0.5, 3)
    with pytest.raises(AttributeError):
        res.xs.append(1.0)
    for psi in (exp_power_psi(2.0), log_square_psi()):
        with pytest.raises(TypeError):
            psi.parameters["p"] = 0


@pytest.mark.parametrize("make", [log_square_psi, lambda: exp_power_psi(2.0)])
def test_named_psi_hashes_pickles_and_copies(make):
    psi = make()
    assert hash(psi) == hash(psi) and psi == psi and psi != make()
    assert psi.parameters is not make().parameters
    for made in (pickle.loads(pickle.dumps(psi)), copy.deepcopy(psi), copy.copy(psi)):
        assert type(made) is NamedPsi and made is not psi
        assert made.parameters == psi.parameters and made.parameters is not psi.parameters
        with pytest.raises(TypeError):
            made.parameters["p"] = 0
        for k in (1.0, 1.5, 8.0, 1e3, 2.0**40):
            assert made.evaluator(k) == psi.evaluator(k)
            assert made.log_evaluator(k) == psi.log_evaluator(k)
    if psi.parameters:  # the evaluators are psi_exp_power and its log, bit for bit
        c_exp, p = psi.parameters["c_exp"], psi.parameters["p"]
        for k in (1.0, 1.5, 8.0, 1e3):
            assert psi.evaluator(k) == psi_exp_power(k, c_exp)
            assert psi.log_evaluator(k) == -(k**p)


def test_vanishing_violation_none_when_log_at_2l_is_below_float_range():
    # C = 1000 puts 2L near 1.8e137, and (2L)**p with p = 11 past the float range
    psi = exp_power_psi(1000.0)
    hyp = DecayHypothesis(1.0, A=1.0, B=1000.0, C=1000.0, D=2.0, k0=1.0)
    assert find_envelope_violation(psi, hyp, psi.evaluator(1.0), k_max=1e300) is None


# ---------------------------------------------------------------- k0 search
def test_k0_for_exp_power_trivial():
    # [DERIVED]: (D=2, C=2): 2k^2 >= 2 ln k for all k >= 1, so k0 = 1.
    assert k0_for_exp_power(2.0, 2.0) == 1.0


def test_k0_for_exp_power_tiny_d():
    assert k0_for_exp_power(1e-9, 2.0) == 1.0


def test_k0_for_exp_power_large_d():
    # [DERIVED]: g(k) = 2k^2 - 100 ln k has its largest root in (10.9, 11.0).
    k0 = k0_for_exp_power(100.0, 2.0)
    assert 10.9 < k0 < 11.0
    # post-check: the defining inequality holds and is monotone past k0
    c_exp, d_exp = 2.0, 100.0
    p = math.log2(2 * c_exp)
    prev = None
    for i in range(200):
        k = k0 * (1 + 9 * i / 199)  # sweep [k0, 10*k0]
        g = c_exp * k**p - d_exp * math.log(k)
        assert g >= -1e-6
        if prev is not None:
            assert g >= prev - 1e-9
        prev = g
    # just below the root the inequality must fail (k0 is minimal)
    k_before = k0 * (1 - 1e-4)
    assert c_exp * k_before**p - d_exp * math.log(k_before) < 0


_K0_CHILD = """
from leveldecay.counterexamples import k0_for_exp_power
for d_exp, c_exp in [(1e5, 1.0001), (1e6, 1.0001), (1e306, 1.0001), (1.7e308, 1.5)]:
    try:
        print(repr(k0_for_exp_power(d_exp, c_exp)))
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""


def test_k0_for_exp_power_ends_past_the_float_spacing_and_range():
    # past about 9e6 adjacent floats are more than 1e-9 apart, so a bisection
    # to 1e-9 alone never ends, nor does one whose bracket doubled to inf; a
    # child process lets the test fail instead of hang
    src = os.path.dirname(os.path.dirname(counterexamples.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _K0_CHILD], env=env, capture_output=True, text=True, timeout=10
    )
    assert run.returncode == 0, run.stderr
    below, above, doubled_to_inf, overflowed = run.stdout.splitlines()
    assert float(below) == 1413098.0818289483  # what the bisection to 1e-9 returns
    p = math.log2(2 * 1.0001)

    def g(k):
        return 1.0001 * k**p - 1e6 * math.log(k)

    # the root is bracketed by adjacent floats
    k0 = float(above)
    assert g(k0) >= 0.0 > g(math.nextafter(k0, 0.0))
    # (1e306, 1.0001) doubles the bracket to inf; (1.7e308, 1.5) overflows k**p
    assert doubled_to_inf.startswith("ValueError") and "float range" in doubled_to_inf
    assert overflowed.startswith("ValueError") and "float range" in overflowed


def test_k0_for_exp_power_with_c_exp_next_to_one():
    # p = log2(2 c_exp) is barely above 1, so the root of g for d_exp = 1e306 lies past the float max
    message = r"^the root of g for d_exp=1e\+306, c_exp=1\.0000001 leaves the float range$"
    with pytest.raises(ValueError, match=message):
        k0_for_exp_power(1e306, 1.0000001)
    # a root near 1.8e11 ends at adjacent floats: g reads 0.0 at k0 and is negative just below
    k0 = k0_for_exp_power(1e10, 1.01)
    assert k0 == 176802698588.37207
    p = math.log2(2 * 1.01)

    def g(k):
        return 1.01 * k**p - 1e10 * math.log(k)

    assert g(k0) == 0.0 > g(math.nextafter(k0, 0.0))


# ---------------------------------------------------------------- violations, case ii
def _canonical_log_square_hyp():
    return DecayHypothesis(
        c1=LOG_SQUARE_C2, A=1.0, B=1.0, C=1.0, D=2.0 * math.log(2.0), k0=1.0
    )


def test_doubling_soundness_log_square_dyadic():
    knots = [2.0**j for j in range(0, 41)]
    values = [psi_log_square(k) for k in knots]
    table = PsiTable(knots=knots, values=values, k0=1.0)
    rep = check_hypothesis(table, _canonical_log_square_hyp(), Doubling())
    assert rep.max_ratio <= 1.0 + 1e-12


def test_find_envelope_violation_log_square_canonical():
    psi = log_square_psi()
    hyp = _canonical_log_square_hyp()
    cert = find_envelope_violation(psi, hyp, psi_at_k0=1.0, k_max=1e16)
    assert cert is not None
    # [DERIVED]: direct evaluation of the tau formula gives tau = 886.63
    # (the k0+1 branch does not dominate), and the 64-per-decade sweep first
    # crosses at k* = 5.233e13, where (ln k*)^2 = 997.8.
    assert 1e13 < cert.level < 1e14
    assert cert.psi_log > cert.envelope_log
    # psi(k*) = e^{-997.8} underflows double precision: only the log fields
    # can carry the certificate, which is exactly why they exist
    assert cert.psi_value == 0.0
    assert math.isfinite(cert.psi_log)


def test_find_envelope_violation_tau_override_monotone():
    psi = log_square_psi()
    hyp = _canonical_log_square_hyp()
    levels = []
    for tau in (1.0, 10.0, 100.0):
        cert = find_envelope_violation(psi, hyp, psi_at_k0=1.0, k_max=1e16, tau_override=tau)
        assert cert is not None
        assert cert.psi_log > cert.envelope_log
        levels.append(cert.level)
    # larger tau weakens the envelope's decay, postponing the crossing
    assert levels[0] < levels[1] < levels[2]


def test_find_envelope_violation_none_below_small_kmax():
    psi = log_square_psi()
    hyp = _canonical_log_square_hyp()
    assert find_envelope_violation(psi, hyp, psi_at_k0=1.0, k_max=1e4) is None


def test_find_envelope_violation_envelope_beyond_float_range():
    # at k0 the envelope log is log(1e308) + 1 > log(max float)
    big = NamedPsi("big", 1.0, lambda k: math.inf, lambda k: 800.0)
    hyp = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=1.0)
    cert = find_envelope_violation(big, hyp, 1e308, k_max=10.0)
    assert cert.level == 1.0
    assert cert.psi_log == 800.0
    assert cert.envelope_log == math.log(1e308) + 1.0
    assert cert.envelope_value == math.inf


def test_find_envelope_violation_rejects_sweeps_that_cannot_end():
    flat = NamedPsi("flat", 0.0, lambda k: 0.0, lambda k: -math.inf)
    hyp = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0)  # k0 = 0: the sweep stays at 0
    with pytest.raises(ValueError, match="origin"):
        find_envelope_violation(flat, hyp, 1.0, k_max=1e300)
    at_one = NamedPsi("flat", 1.0, lambda k: 0.0, lambda k: -math.inf)
    for k_max in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="k_max"):
            find_envelope_violation(at_one, hyp, 1.0, k_max=k_max)
    # from 1.0 the sweep reaches 10**308.25 <= k_max, and the next level overflows
    with pytest.raises(ValueError, match="float range"):
        find_envelope_violation(at_one, hyp, 1.0, k_max=1.79e308)
    assert find_envelope_violation(at_one, hyp, 1.0, k_max=1.7e308) is None


@pytest.mark.parametrize("psi_at_k0", [math.nan, -1.0, math.inf])
def test_find_envelope_violation_rejects_a_bad_psi_at_k0(psi_at_k0):
    exponential = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=1.0)
    vanishing = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=1.0)
    for psi, hyp in ((log_square_psi(), exponential), (exp_power_psi(2.0), vanishing)):
        with pytest.raises(ValueError, match="psi_at_k0 must be finite and nonnegative"):
            find_envelope_violation(psi, hyp, psi_at_k0, k_max=1e16)


def test_find_envelope_violation_wrong_case():
    psi = log_square_psi()
    hyp = DecayHypothesis(1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)
    with pytest.raises(WrongCaseError):
        find_envelope_violation(psi, hyp, psi_at_k0=1.0, k_max=1e6)


# ---------------------------------------------------------------- violations, case iii
def test_doubling_soundness_exp_power():
    k0 = k0_for_exp_power(2.0, 2.0)
    assert k0 == 1.0
    knots = [k0 * 2.0**j for j in range(0, 5)]
    values = [psi_exp_power(k, 2.0) for k in knots]
    table = PsiTable(knots=knots, values=values, k0=k0)
    hyp = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=k0)
    rep = check_hypothesis(table, hyp, Doubling())
    assert rep.max_ratio <= 1.0 + 1e-12


def test_vanishing_certificate_exp_power():
    psi = exp_power_psi(2.0)
    hyp = DecayHypothesis(1.0, A=1.0, B=3.0, C=2.0, D=2.0, k0=1.0)
    assert classify(hyp, 1e-9).tag is CaseTag.VANISHING
    psi0 = psi_exp_power(1.0, 2.0)
    cert = find_envelope_violation(psi, hyp, psi_at_k0=psi0, k_max=1e16)
    assert cert is not None
    # independent evaluation of Eq.-(22)-style L for the frozen arithmetic
    one_plus = (1.0 + psi0) ** 3
    third = (1.0 * 2.0 ** (1 + 2) * one_plus) ** (1.0 / (2.0 - 1.0))
    fourth = (1.0 * one_plus * 2.0 ** (2 + 1 + 4 / 1 + 2 / 1)) ** (1.0 / 2.0)
    L = max(1.0, 2.0, third, fourth)
    assert cert.level == pytest.approx(2 * L, rel=1e-12)
    # psi(2L) underflows in float but the log certificate is finite: psi(2L) > 0
    assert math.isfinite(cert.psi_log)
    assert cert.psi_log == pytest.approx(-((2 * L) ** 2), rel=1e-12)
    assert cert.envelope_value == 0.0


# ---------------------------------------------------------------- equivalence constant
def test_equivalence_constant_values():
    assert equivalence_constant(c2=1.0, d_exp=2.0, c_bar=1.0, b_exp=0.5) == 16.0
    assert equivalence_constant(c2=1e-30, d_exp=2.0, c_bar=100.0, b_exp=0.5) == pytest.approx(
        10.0, rel=1e-14
    )
    with pytest.raises(ValueError):
        equivalence_constant(c2=1.0, d_exp=2.0, c_bar=1.0, b_exp=1.5)


def test_equivalence_round_trip():
    # Doubling constant + power envelope imply the full inequality with
    # c1 = max(4^D c2, c_bar^{1-B}).
    rng = random.Random(99)
    for _ in range(6):
        lam = rng.uniform(1.0, 4.0)
        u = rng.uniform(0.4, 0.8)
        D = lam * u
        C = 1.0 - u
        B = rng.uniform(1.0 - u + 0.05, 0.95)
        A = D - lam * (1.0 - B)
        K = 10 ** rng.uniform(-1, 1)
        V = 10 ** rng.uniform(-1, 1)
        per_octave = 2
        knots = [2 ** (j / per_octave) for j in range(per_octave * 9 + 1)]
        values = [min(V, K * k**-lam) for k in knots]
        table = PsiTable(knots=knots, values=values, k0=1.0)

        # brute-force doubling constant (independent oracle)
        c2 = 0.0
        for i, k in enumerate(knots):
            if 2 * k > knots[-1]:
                break
            lhs = table.evaluate(2 * k)
            structure = ((2 * k) ** A * values[i] ** B + values[i] ** C) / k**D
            c2 = max(c2, lhs / structure)
        c2 *= 1 + 1e-12

        env = power_decay_constants(DecayHypothesis(c2, A, B, C, D, 1.0), values[0])
        c1 = equivalence_constant(c2, D, env.c_bar, B)
        full = check_hypothesis(table, DecayHypothesis(c1, A, B, C, D, 1.0), AllKnotPairs())
        assert full.max_ratio <= 1.0 + 1e-9, full.max_ratio


def _tau_override_search(tau):
    return find_envelope_violation(log_square_psi(), _canonical_log_square_hyp(), 1.0, 1e16, tau_override=tau)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (k0_for_exp_power, (0.0, 2.0), r"^d_exp must be finite and positive, got 0\.0$"),
        (k0_for_exp_power, (-1.0, 2.0), r"^d_exp must be finite and positive, got -1\.0$"),
        (k0_for_exp_power, (math.nan, 2.0), r"^d_exp must be finite and positive, got nan$"),
        # the bracket doubles from about 1e194 until k**p overflows
        (k0_for_exp_power, (1.7e308, 1.5), r"^the root of g for d_exp=1\.7e\+308, c_exp=1\.5 leaves the float range$"),
        (_tau_override_search, (0.0,), r"^tau_override must be finite and positive, got 0\.0$"),
        (_tau_override_search, (-1.0,), r"^tau_override must be finite and positive, got -1\.0$"),
        (_tau_override_search, (math.nan,), r"^tau_override must be finite and positive, got nan$"),
        (equivalence_constant, (0.0, 2.0, 1.0, 0.5), r"^c2 must be finite and positive, got 0\.0$"),
        (equivalence_constant, (1.0, -2.0, 1.0, 0.5), r"^d_exp must be finite and positive, got -2\.0$"),
        (equivalence_constant, (1.0, 2.0, math.nan, 0.5), "^c_bar must be finite and positive, got nan$"),
        (equivalence_constant, (1.0, 2.0, 1.0, 0.0), r"^b_exp must be finite and positive, got 0\.0$"),
    ],
)
def test_counterexample_domain_errors(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
