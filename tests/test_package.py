"""The package's public names: one list, taken from the library modules."""
import leveldecay
from leveldecay import counterexamples, exponents, lemma, marcinkiewicz, variational

#: Every name the package exported before it took its list from the modules.
PINNED_NAMES = """
AllKnotPairs CLASSIFY_TOL CaseClass CaseTag Certificate CheckReport DecayHypothesis
DiscreteField DistributionProfile Doubling EnvelopeConstants EnvelopeReport
ExperimentReport ExponentAssignment ExponentSet FitResult FunctionalSpec GiustiResult
InsufficientPointsError IntegralBoundCheck LOG_SQUARE_C2 LevelsetReport MIN_FIT_POINTS
MinimizeReport NamedPsi NonFiniteEnergyError PowerSource ProblemParams PsiTable
RadialGrid RandomPairs Regime SolverTolerances SummabilityResult WeakNormEstimate
WrongCaseError assemble_energy check_envelope check_hypothesis classify classify_regime
compute_exponents distribution_function energy_gradient envelope envelope_constants
equivalence_constant excess exp_decay_tau exp_fit_of exp_integrability_fit exp_power_psi
experiment_regularity find_envelope_violation giusti_recursion holder_conjugate
integral_bound_check k0_for_exp_power level_profile level_sequence
levelset_inequality_check log_square_psi minimize power_decay_constants power_source
psi_exp_power psi_log_square sobolev_conjugate summability_test tail_exponent_fit
tail_fit_of truncate unit_ball_volume vanishing_level weak_norm_estimate
""".split()

MODULES = (counterexamples, exponents, lemma, marcinkiewicz, variational)


def test_pinned_names_are_still_exported_and_resolve():
    assert len(PINNED_NAMES) == 75
    assert set(PINNED_NAMES) <= set(leveldecay.__all__)
    for name in PINNED_NAMES:
        assert getattr(leveldecay, name) is not None


def test_package_names_are_the_module_names():
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names))
    assert sorted(leveldecay.__all__) == sorted(module_names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(leveldecay, name) is getattr(module, name)
    for name in ("CLASSIFY_TOL", "LOG_SQUARE_C2_ALIAS", "summarize", "ProfileSummary"):
        assert name in leveldecay.__all__
