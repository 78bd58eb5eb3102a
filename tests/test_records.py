"""The package's records against the frozen dataclasses they stand in for.

Each result and parameter type derives from ``leveldecay._records.Record``.
Its ``repr``, ``==``, ``hash``, signature, argument errors and frozenness
are compared with a twin built by ``dataclasses.make_dataclass(...,
frozen=True)`` from the same fields; the records that hold arrays compare
and hash by identity instead.
"""
import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import leveldecay
from leveldecay import (
    AllKnotPairs,
    DecayHypothesis,
    DistributionProfile,
    FitResult,
    FunctionalSpec,
    NamedPsi,
    DiscreteField,
    PowerSource,
    ProblemParams,
    PsiTable,
    RadialGrid,
    SolverTolerances,
    SummabilityResult,
    check_envelope,
    check_hypothesis,
    classify,
    compute_exponents,
    distribution_function,
    envelope_constants,
    exp_power_psi,
    experiment_regularity,
    find_envelope_violation,
    giusti_recursion,
    integral_bound_check,
    levelset_inequality_check,
    log_square_psi,
    power_source,
    summability_test,
    summarize,
    weak_norm_estimate,
)
from leveldecay._records import Record
from leveldecay.cli import _COMMANDS

#: The records that hold numpy arrays, where ``==`` on the fields is ambiguous,
#: and ``NamedPsi``, whose read-only ``parameters`` mapping does not hash.
IDENTITY_RECORDS = (
    DiscreteField, DistributionProfile, FunctionalSpec, NamedPsi, PowerSource, PsiTable,
    RadialGrid, SummabilityResult,
)

#: The methods a record takes from ``Record``, or writes in its own class body.
SHARED_METHODS = ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def _samples() -> dict:
    """One instance of every record, most of them made by the library."""
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    exps = compute_exponents(params)
    hyp = DecayHypothesis(c1=1.0, A=2.0, B=0.75, C=0.5, D=4.0)
    table = PsiTable(knots=[1.0, 2.0, 4.0, 8.0], values=[1.0, 0.5, 0.2, 0.0], k0=1.0)
    log_square = log_square_psi()
    canonical = DecayHypothesis(c1=1.0, A=1.0, B=1.0, C=1.0, D=2.0 * math.log(2.0), k0=1.0)
    values = np.linspace(3.0, 0.5, 16)
    weights = np.full(16, 0.25)
    profile = distribution_function(values, weights, [0.5, 1.0, 2.0])
    experiment = experiment_regularity(params, (16, 32), SolverTolerances())
    run = experiment.runs[-1]
    samples = [
        params, exps, exps.hyp, hyp, classify(hyp), envelope_constants(hyp, 1.0), table,
        check_hypothesis(table, hyp, AllKnotPairs()), check_envelope(table, hyp, 1.0),
        giusti_recursion(1.0, 2.0, 2.0, 0.5, 3), exp_power_psi(2.0),
        find_envelope_violation(log_square, canonical, psi_at_k0=1.0, k_max=1e16),
        profile, weak_norm_estimate(profile, 2.0), FitResult(1.0, 2.0, 0.9, 10),
        summability_test(profile, 2.0, 10),
        integral_bound_check(values, weights, values > 1.0, 2.0, 1.0),
        power_source(np.linspace(0.0, 1.0, 9), 4, 1.75, 1.0),
        run.spec, SolverTolerances(grad_tol=1e-7, max_iters=50), run.report,
        levelset_inequality_check(
            run.report.final_field, run.grid, run.spec, [(0.5 * run.max_u, 0.25 * run.max_u)]
        ),
        run, experiment, summarize(run.profile, exps), run.grid, run.report.final_field,
        _COMMANDS["verify"],
    ]
    return {type(sample): sample for sample in samples}


@pytest.fixture(scope="module")
def samples() -> dict:
    return _samples()


def _twin(cls: type) -> type:
    """``cls`` rebuilt as a plain ``dataclass(frozen=True)`` from its fields."""
    specs = []
    for f in dataclasses.fields(cls):
        default = {"default": f.default} if f.default is not dataclasses.MISSING else {}
        if f.default_factory is not dataclasses.MISSING:
            default = {"default_factory": f.default_factory}
        specs.append((f.name, f.type, dataclasses.field(**default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)


def _field_values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _package_dataclasses():
    for info in pkgutil.iter_modules(leveldecay.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"leveldecay.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_record_has_a_sample(samples):
    assert set(samples) == set(RECORDS)
    assert set(IDENTITY_RECORDS) <= set(RECORDS)
    assert samples[DistributionProfile].levels.size > 1


def _written_in_its_module(cls: type, name: str) -> bool:
    """Whether ``cls`` defines ``name`` in its module's source, not in generated code."""
    method = vars(cls).get(name)
    return hasattr(method, "__code__") and method.__code__.co_filename == inspect.getfile(cls)


def test_package_dataclasses_share_the_record_methods():
    found = list(_package_dataclasses())
    assert set(found) == set(RECORDS)
    for cls in found:
        assert issubclass(cls, Record), cls
        shared = {name: getattr(Record, name) for name in SHARED_METHODS}
        if cls in IDENTITY_RECORDS:
            shared.update(__eq__=object.__eq__, __hash__=object.__hash__)
        for name, method in shared.items():
            assert getattr(cls, name) is method or _written_in_its_module(cls, name), (cls, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_acts_as_its_frozen_dataclass_twin(samples, cls):
    twin = _twin(cls)
    values = _field_values(samples[cls])
    first, other = cls(**values), cls(**values)
    twin_first, twin_other = twin(**values), twin(**values)
    if cls.__repr__ is Record.__repr__:
        assert repr(first) == repr(twin_first)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__
    if cls not in IDENTITY_RECORDS:  # those are checked below
        assert _outcome(lambda: first == other) == _outcome(lambda: twin_first == twin_other)
        assert _outcome(lambda: hash(first)) == _outcome(lambda: hash(twin_first))
    assert first != twin_first and twin_first != first  # another class: NotImplemented both ways

    name = dataclasses.fields(cls)[0].name
    calls = [lambda make: make(**values, no_such_field=1.0), lambda make: make(values[name], **values)]
    required = [
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if required:
        missing = {key: value for key, value in values.items() if key != required[-1]}
        calls.append(lambda make: make(**missing))
    for call in calls:
        outcome = _outcome(lambda: call(cls))
        assert outcome[0] is TypeError and outcome == _outcome(lambda: call(twin))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen(samples, cls):
    twin = _twin(cls)
    record = samples[cls]
    twin_record = twin(**_field_values(record))
    for name in (dataclasses.fields(cls)[0].name, "no_such_field"):
        for change in (lambda obj: setattr(obj, name, 1.0), lambda obj: delattr(obj, name)):
            outcome = _outcome(lambda: change(record))
            assert outcome[0] is dataclasses.FrozenInstanceError
            assert outcome == _outcome(lambda: change(twin_record))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_round_trips(samples, cls):
    record = samples[cls]
    for made in (dataclasses.replace(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(made) is cls and made is not record
        # the pickled object graph: equal for a faithful copy, whatever its types' ``==``
        assert pickle.dumps(made) == pickle.dumps(record)
    if cls not in IDENTITY_RECORDS:  # the same field objects
        assert dataclasses.replace(record) == record


@pytest.mark.parametrize(
    "cls", (DiscreteField, DistributionProfile, FunctionalSpec, PowerSource, PsiTable, RadialGrid,
            SummabilityResult),
    ids=lambda cls: cls.__name__,
)
def test_record_copies_hold_only_read_only_arrays(samples, cls):
    # a copy is rebuilt through the constructor, which freezes the arrays it keeps
    record = samples[cls]
    for made in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        arrays = [value for value in vars(made).values() if isinstance(value, np.ndarray)]
        assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_built_from_writeable_arrays_hold_only_read_only_arrays(samples, cls):
    # Record's __init__ freezes every np.ndarray field, whoever builds the record
    values = _field_values(samples[cls])
    made = cls(**{key: value.copy() if isinstance(value, np.ndarray) else value for key, value in values.items()})
    arrays = [value for value in vars(made).values() if isinstance(value, np.ndarray)]
    assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_array_field_is_annotated_as_one(samples, cls):
    # the kept-array rule reads the annotation: a misspelled one would skip it
    for f in dataclasses.fields(cls):
        if isinstance(getattr(samples[cls], f.name), np.ndarray):
            assert f.type == "np.ndarray", (cls, f.name, f.type)


def test_default_factory_gives_each_record_its_own_default():
    psi = log_square_psi()
    first = NamedPsi(psi.name, psi.k0, psi.evaluator, psi.log_evaluator)
    second = NamedPsi(psi.name, psi.k0, psi.evaluator, psi.log_evaluator)
    assert dict(first.parameters) == {} and first.parameters is not second.parameters


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda cls: cls.__name__)
def test_records_that_hold_arrays_compare_and_hash_by_identity(samples, cls):
    record = samples[cls]
    values = _field_values(record)
    copies = {key: value.copy() if isinstance(value, np.ndarray) else value for key, value in values.items()}
    equal = cls(**copies)
    assert record == record and not record != record
    assert record != equal and not record == equal
    assert hash(record) == object.__hash__(record)
    assert len({record, equal, record}) == 2


def test_functional_spec_equality_does_not_read_its_source():
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    first = FunctionalSpec(params, np.ones(4), 0.0)
    second = FunctionalSpec(params, np.ones(4), 0.0)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)

