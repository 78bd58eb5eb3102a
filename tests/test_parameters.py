"""The scalar rule: every float parameter is checked and stored by ``_records._real``.

A parameter takes a finite real number within its domain, stored as a plain
``float``; anything else, a string or ``None`` included, raises ``ValueError``
with the message ``"{name} must be finite[ and <bound>], got {value}"``.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from leveldecay import (
    DecayHypothesis,
    DiscreteField,
    DistributionProfile,
    FunctionalSpec,
    ProblemParams,
    PsiTable,
    RadialGrid,
    SolverTolerances,
    check_envelope,
    classify,
    envelope,
    envelope_constants,
    equivalence_constant,
    exp_integrability_fit,
    exp_power_psi,
    find_envelope_violation,
    giusti_recursion,
    integral_bound_check,
    k0_for_exp_power,
    log_square_psi,
    power_decay_constants,
    power_source,
    summability_test,
    tail_exponent_fit,
    truncate,
    vanishing_level,
    weak_norm_estimate,
)

_PARAMS = {"n": 4, "p": 2.0, "alpha": 0.25, "r": 1.75}
_HYP = {"c1": 1.0, "A": 1.0, "B": 1.0, "C": 1.0, "D": 2.0, "k0": 0.0}
_POWER = DecayHypothesis(1.0, 2.0, 0.75, 0.5, 4.0)
_EXPONENTIAL = DecayHypothesis(**_HYP)
_VANISHING = DecayHypothesis(1.0, 1.0, 3.0, 2.0, 2.0)
_PROFILE = DistributionProfile([1.0, 2.0, 4.0], [3.0, 2.0, 1.0], 3.0)
_SEARCH_HYP = DecayHypothesis(1.0, 1.0, 1.0, 1.0, 2.0, k0=1.0)
_BELOW_ZERO = -5e-324  # the float next below a bound of 0 that is in the domain


def _search(psi_at_k0=1.0, k_max=1e16, tau_override=None):
    return find_envelope_violation(log_square_psi(), _SEARCH_HYP, psi_at_k0, k_max, tau_override)


#: (id, name, call, edge, whole): each float parameter, a call passing a value as it,
#: the edge of its domain that lies outside it (the bound itself, or the float below
#: a bound of 0 that the domain includes), and for a record field a whole value in
#: the domain, else None.
PARAMETERS = [
    *[(f"ProblemParams.{name}", name, lambda x, name=name: ProblemParams(**{**_PARAMS, name: x}), edge, whole)
      for name, edge, whole in (("p", 1.0, 2), ("alpha", _BELOW_ZERO, 0), ("r", 1.0, 2),
                                ("beta1", 0.0, 1), ("b_const", 0.0, 1))],
    *[(f"DecayHypothesis.{name}", name, lambda x, name=name: DecayHypothesis(**{**_HYP, name: x}), edge, _HYP[name])
      for name, edge in (("c1", 0.0), ("A", 0.0), ("B", 0.0), ("C", 0.0), ("D", 0.0), ("k0", _BELOW_ZERO))],
    ("classify.tol", "tol", lambda x: classify(_EXPONENTIAL, tol=x), 0.0, None),
    ("power_decay_constants.psi_at_k0", "psi_at_k0", lambda x: power_decay_constants(_POWER, x), _BELOW_ZERO, None),
    ("envelope_constants.psi_at_k0", "psi_at_k0", lambda x: envelope_constants(_EXPONENTIAL, x), _BELOW_ZERO, None),
    ("vanishing_level.psi_at_k0", "psi_at_k0", lambda x: vanishing_level(_VANISHING, x), _BELOW_ZERO, None),
    ("PsiTable.k0", "k0", lambda x: PsiTable([1.0, 2.0], [1.0, 0.5], x), _BELOW_ZERO, 1),
    ("giusti_recursion.c_bar", "c_bar", lambda x: giusti_recursion(x, 2.0, 2.0, 0.5, 3), 0.0, None),
    ("giusti_recursion.m", "m", lambda x: giusti_recursion(1.0, x, 2.0, 0.5, 3), 1.0, None),
    ("giusti_recursion.beta", "beta", lambda x: giusti_recursion(1.0, 2.0, x, 0.5, 3), 1.0, None),
    ("giusti_recursion.x0", "x0", lambda x: giusti_recursion(1.0, 2.0, 2.0, x, 3), _BELOW_ZERO, None),
    ("DistributionProfile.total_measure", "total_measure",
     lambda x: DistributionProfile([1.0, 2.0], [2.0, 1.0], x), _BELOW_ZERO, 3),
    ("weak_norm_estimate.r", "r", lambda x: weak_norm_estimate(_PROFILE, x), 0.0, None),
    ("summability_test.r", "r", lambda x: summability_test(_PROFILE, x, 10), 0.0, None),
    ("integral_bound_check.r", "r", lambda x: integral_bound_check([1.0], [0.5], [True], x, 1.0), 1.0, None),
    ("integral_bound_check.norm_const", "norm_const",
     lambda x: integral_bound_check([1.0], [0.5], [True], 2.0, x), _BELOW_ZERO, None),
    ("power_source.r", "r", lambda x: power_source(np.linspace(0.0, 1.0, 5), 4, x, 1.0), 1.0, None),
    ("power_source.scale", "scale", lambda x: power_source(np.linspace(0.0, 1.0, 5), 4, 1.75, x), _BELOW_ZERO, None),
    ("tail_exponent_fit.k_min", "k_min", lambda x: tail_exponent_fit(_PROFILE, x, 4.0), 0.0, None),
    ("tail_exponent_fit.k_max", "k_max", lambda x: tail_exponent_fit(_PROFILE, 1.0, x), 1.0, None),
    ("exp_integrability_fit.theta", "theta", lambda x: exp_integrability_fit(_PROFILE, x, 1.0), 0.0, None),
    ("exp_integrability_fit.k_min", "k_min", lambda x: exp_integrability_fit(_PROFILE, 0.5, x), _BELOW_ZERO, None),
    ("RadialGrid.radius", "radius", lambda x: RadialGrid(n=4, radius=x, cells=8), 0.0, 1),
    ("FunctionalSpec.epsilon", "epsilon",
     lambda x: FunctionalSpec(ProblemParams(**_PARAMS), np.ones(8), x), _BELOW_ZERO, 0),
    ("SolverTolerances.grad_tol", "grad_tol", lambda x: SolverTolerances(grad_tol=x), _BELOW_ZERO, 0),
    ("truncate.level", "level", lambda x: truncate(DiscreteField([1.0, 0.0]), x), _BELOW_ZERO, None),
    ("exp_power_psi.c_exp", "c_exp", exp_power_psi, 1.0, None),
    ("k0_for_exp_power.c_exp", "c_exp", lambda x: k0_for_exp_power(1.0, x), 1.0, None),
    ("k0_for_exp_power.d_exp", "d_exp", lambda x: k0_for_exp_power(x, 2.0), 0.0, None),
    ("find_envelope_violation.psi_at_k0", "psi_at_k0", lambda x: _search(psi_at_k0=x), _BELOW_ZERO, None),
    ("find_envelope_violation.k_max", "k_max", lambda x: _search(k_max=x), 0.0, None),
    ("find_envelope_violation.tau_override", "tau_override", lambda x: _search(tau_override=x), 0.0, None),
    *[(f"equivalence_constant.{name}", name,
       lambda x, at=at: equivalence_constant(*[x if i == at else v for i, v in enumerate((1.0, 2.0, 1.0, 0.5))]),
       0.0, None)
      for at, name in enumerate(("c2", "d_exp", "c_bar", "b_exp"))],
]


@pytest.mark.parametrize("value", ["1", None, math.nan, math.inf, -math.inf, "edge"])
@pytest.mark.parametrize("ident, name, call, edge, whole", PARAMETERS, ids=[p[0] for p in PARAMETERS])
def test_every_float_parameter_takes_one_rule(ident, name, call, edge, whole, value):
    value = edge if value == "edge" else value
    if value is None and name == "tau_override":  # its default: the envelope's own scale
        assert call(value).level > 1.0
        return
    shown = repr(value) if isinstance(value, (str, type(None))) else float(value)
    with pytest.raises(ValueError, match=f"^{name} must be finite") as raised:
        call(value)
    assert str(raised.value).endswith(f", got {shown}")


@pytest.mark.parametrize("kind", [np.float64, int, Fraction], ids=lambda kind: kind.__name__)
@pytest.mark.parametrize(
    "ident, name, call, whole",
    [(ident, name, call, whole) for ident, name, call, _, whole in PARAMETERS if whole is not None],
    ids=[p[0] for p in PARAMETERS if p[4] is not None],
)
def test_record_fields_hold_plain_floats(ident, name, call, whole, kind):
    stored = getattr(call(kind(whole)), name)
    assert type(stored) is float and stored == whole


def test_a_record_repr_shows_plain_floats():
    hyp = DecayHypothesis(np.float64(1.0), 1, Fraction(1), np.float32(1.0), 2)
    assert repr(hyp) == "DecayHypothesis(c1=1.0, A=1.0, B=1.0, C=1.0, D=2.0, k0=0.0)"
    assert hyp == _EXPONENTIAL and hash(hyp) == hash(_EXPONENTIAL)


@pytest.mark.parametrize("hyp", [_POWER, _EXPONENTIAL, _VANISHING], ids=["power", "exponential", "vanishing"])
@pytest.mark.parametrize("kind", [np.float64, int, Fraction], ids=lambda kind: kind.__name__)
def test_envelopes_read_psi_at_k0_as_its_float(hyp, kind):
    # a Fraction psi(k0) reached numpy's log as an object and raised TypeError
    table = PsiTable([1.0, 2.0, 4.0], [1.0, 0.5, 0.25], 0.0)
    assert check_envelope(table, hyp, kind(1)) == check_envelope(table, hyp, 1.0)
    assert envelope(hyp, kind(1), 2.0) == envelope(hyp, 1.0, 2.0)
