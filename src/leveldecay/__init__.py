"""Executable level-set decay machinery.

The package turns a generalized Stampacchia-type level-set decay lemma
into runnable code: classify a decay hypothesis, compute its explicit
envelope constants, verify tabulated functions against hypothesis and
envelope, exhibit counterexamples at the case boundaries, estimate weak
(Marcinkiewicz) norms of discrete profiles, and reproduce a regularity
trichotomy by minimizing a noncoercive p-growth functional on radial
grids.

Modules
-------
``lemma``
    The decay hypothesis, case classification, envelope constants, and
    tabulated verification.
``exponents``
    The exponent calculus mapping problem parameters to hypothesis
    exponents and regularity regimes.
``counterexamples``
    Closed-form families that defeat stronger claimed envelopes.
``marcinkiewicz``
    Distribution functions, weak-norm estimates, and tail fits.
``variational``
    The radial minimizer, level profiles, and the regularity
    experiment.
``cli``
    The config-driven command line interface.
"""

from .counterexamples import (
    LOG_SQUARE_C2,
    Certificate,
    NamedPsi,
    equivalence_constant,
    exp_power_psi,
    find_envelope_violation,
    k0_for_exp_power,
    log_square_psi,
    psi_exp_power,
    psi_log_square,
)
from .exponents import (
    ExponentAssignment,
    ExponentSet,
    ProblemParams,
    Regime,
    classify_regime,
    compute_exponents,
    holder_conjugate,
    sobolev_conjugate,
)
from .lemma import (
    CLASSIFY_TOL,
    AllKnotPairs,
    CaseClass,
    CaseTag,
    CheckReport,
    DecayHypothesis,
    Doubling,
    EnvelopeConstants,
    EnvelopeReport,
    GiustiResult,
    PsiTable,
    RandomPairs,
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
from .marcinkiewicz import (
    MIN_FIT_POINTS,
    DistributionProfile,
    FitResult,
    InsufficientPointsError,
    IntegralBoundCheck,
    PowerSource,
    SummabilityResult,
    WeakNormEstimate,
    distribution_function,
    exp_integrability_fit,
    integral_bound_check,
    power_source,
    summability_test,
    tail_exponent_fit,
    unit_ball_volume,
    weak_norm_estimate,
)
from .variational import (
    DiscreteField,
    ExperimentReport,
    FunctionalSpec,
    LevelsetReport,
    MinimizeReport,
    NonFiniteEnergyError,
    RadialGrid,
    SolverTolerances,
    assemble_energy,
    energy_gradient,
    excess,
    exp_fit_of,
    experiment_regularity,
    level_profile,
    levelset_inequality_check,
    minimize,
    tail_fit_of,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "AllKnotPairs",
    "CLASSIFY_TOL",
    "CaseClass",
    "CaseTag",
    "Certificate",
    "CheckReport",
    "DecayHypothesis",
    "DiscreteField",
    "DistributionProfile",
    "Doubling",
    "EnvelopeConstants",
    "EnvelopeReport",
    "ExperimentReport",
    "ExponentAssignment",
    "ExponentSet",
    "FitResult",
    "FunctionalSpec",
    "GiustiResult",
    "InsufficientPointsError",
    "IntegralBoundCheck",
    "LOG_SQUARE_C2",
    "LevelsetReport",
    "MIN_FIT_POINTS",
    "MinimizeReport",
    "NamedPsi",
    "NonFiniteEnergyError",
    "PowerSource",
    "ProblemParams",
    "PsiTable",
    "RadialGrid",
    "RandomPairs",
    "Regime",
    "SolverTolerances",
    "SummabilityResult",
    "WeakNormEstimate",
    "WrongCaseError",
    "assemble_energy",
    "check_envelope",
    "check_hypothesis",
    "classify",
    "classify_regime",
    "compute_exponents",
    "distribution_function",
    "energy_gradient",
    "envelope",
    "envelope_constants",
    "equivalence_constant",
    "excess",
    "exp_decay_tau",
    "exp_fit_of",
    "exp_integrability_fit",
    "exp_power_psi",
    "experiment_regularity",
    "find_envelope_violation",
    "giusti_recursion",
    "holder_conjugate",
    "integral_bound_check",
    "k0_for_exp_power",
    "level_profile",
    "level_sequence",
    "levelset_inequality_check",
    "log_square_psi",
    "minimize",
    "power_decay_constants",
    "power_source",
    "psi_exp_power",
    "psi_log_square",
    "sobolev_conjugate",
    "summability_test",
    "tail_exponent_fit",
    "tail_fit_of",
    "truncate",
    "unit_ball_volume",
    "vanishing_level",
    "weak_norm_estimate",
]
