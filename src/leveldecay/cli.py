"""Config-driven command line interface.

Every subcommand reads an INI config file (sections and keys are
validated strictly: unknown names are errors, as are missing required
ones) and prints either a small CSV table or ``key=value`` lines to
stdout.  Every value is read as its key's type when the file is loaded,
whether or not the subcommand uses it.  Floats are rendered with
``repr`` so emitted tables round-trip bit-identically through
:func:`load_psi_table`.

Subcommands
-----------
constants
    Classify a ``[lemma]`` hypothesis and print its envelope constants.
exponents
    Print the derived exponents and regime for a ``[problem]`` set.
verify
    Check a tabulated psi (``--psi`` CSV) against the hypothesis over
    all knot pairs, then against the case's decay envelope.
counterexample
    Emit a named counterexample table (``--name log_square`` or
    ``exp_power``) plus a violation certificate.
minimize
    Run the radial Newton-solver ladder and write ``field.csv``,
    ``profile.csv`` and ``report.csv`` to the output directory; exits 1
    when no grid of the ladder converged.
analyze
    Fit a stored level profile (``--profile`` CSV) according to the
    regime predicted by the ``[problem]`` section: ``fit=tail`` (power
    law, with the predicted slope), ``fit=exp`` (stretched exponential,
    with theta) or ``fit=none`` (with the top level).
sweep
    Run the ladder for several source integrabilities (``--r-values``)
    and print one summary row per value.

Exit codes: 0 success (checks passed), 1 a verification or convergence
check failed, 2 malformed config/table, parameter domain error or
arithmetic that leaves the float range.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, Tuple

import numpy as np

from ._records import Record
from .counterexamples import (
    LOG_SQUARE_C2,
    exp_power_psi,
    find_envelope_violation,
    k0_for_exp_power,
    log_square_psi,
)
from .exponents import ProblemParams, compute_exponents
from .lemma import (
    AllKnotPairs,
    CaseTag,
    DecayHypothesis,
    Doubling,
    EnvelopeConstants,
    PsiTable,
    check_envelope,
    check_hypothesis,
    classify,
    envelope_constants,
    vanishing_level,
)
from .marcinkiewicz import DistributionProfile, FitResult
from .variational import (
    ExperimentReport,
    SolverTolerances,
    experiment_regularity,
    summarize,
)

__all__ = ["ConfigError", "load_psi_table", "main"]


class ConfigError(Exception):
    """A malformed config file, table file, or out-of-domain parameter."""


# --------------------------------------------------------------------------
# config schemas: section -> (required, {key -> (kind, required)})

_Schema = Dict[str, Tuple[bool, Dict[str, Tuple[type, bool]]]]
_Config = Dict[str, Dict[str, Any]]  # section -> {key -> value of its kind}

_LEMMA_KEYS = {
    "c1": (float, True), "A": (float, True), "B": (float, True), "C": (float, True),
    "D": (float, True), "k0": (float, False), "psi_at_k0": (float, False),
}
_PROBLEM_KEYS = {
    "n": (int, True), "p": (float, True), "alpha": (float, True), "r": (float, True),
    "beta1": (float, False), "b_const": (float, False), "source_scale": (float, False),
}
_GRID_KEYS = {"cells": (int, True), "radius": (float, False), "refinements": (int, False)}
_SOLVER_KEYS = {"grad_tol": (float, False), "max_iters": (int, False), "epsilon": (float, False)}
_OUTPUT_KEYS = {"directory": (str, False)}
_LEMMA: _Schema = {"lemma": (True, _LEMMA_KEYS)}
_PROBLEM: _Schema = {"problem": (True, _PROBLEM_KEYS)}
_LADDER: _Schema = {**_PROBLEM, "grid": (True, _GRID_KEYS), "solver": (False, _SOLVER_KEYS)}


def _required(values: Mapping[str, Any], section: str, key: str) -> Any:
    """The value of ``key`` in ``section``, which must set it."""
    if key not in values:
        raise ConfigError(f"missing required key {key} in section [{section}]")
    return values[key]


def _load_config(path: str, schema: _Schema) -> _Config:
    """The config at ``path`` as {section: {key: value of the key's kind}}.

    Names are checked first; then every value present is converted in
    schema order, used or not.  An absent optional section reads as {}.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # type: ignore[method-assign]  # exponent names are case sensitive
    try:
        loaded = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    for section, (required, _) in schema.items():
        if required and not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}] in {path}")
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unexpected section [{section}] in {path}")
        _, keys = schema[section]
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(f"unexpected key {key} in section [{section}]")
        for key, (_, key_required) in keys.items():
            if key_required:
                _required(parser[section], section, key)
    config: _Config = {section: {} for section in schema}
    for section, (_, keys) in schema.items():
        for key, (kind, _) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    config[section][key] = kind(raw)
                except ValueError as exc:
                    noun = "a number" if kind is float else "an integer"
                    raise ConfigError(
                        f"key {key} in section [{section}] is not {noun}: {raw!r}"
                    ) from exc
    return config


def _pick(values: Mapping[str, Any], *keys: str) -> Dict[str, Any]:
    """The ``keys`` that ``values`` sets; the others keep the library's own defaults."""
    return {key: values[key] for key in keys if key in values}


# --------------------------------------------------------------------------
# shared parsing and formatting


def load_psi_table(path: str) -> PsiTable:
    """Load a two-column CSV table with header ``k,psi`` or ``k,measure``.

    The second column name is cosmetic: verification tables carry psi
    values, stored level profiles carry measures.  All rows are parsed by
    one ``np.loadtxt`` call, whose number parser rounds as Python's
    ``float`` does; a table it rejects is read again row by row, to name
    its first bad row or to take the forms only ``float`` reads, such as
    ``1_000``.  Raises :class:`ConfigError` for malformed files and
    propagates the ``PsiTable`` validation errors (unsorted knots, rising
    values).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in map(str.strip, handle) if line]
    except OSError as exc:
        raise ConfigError(f"cannot read table file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"table file {path} is empty")
    header = tuple(token.strip() for token in lines[0].split(","))
    if header not in (("k", "psi"), ("k", "measure")):
        raise ConfigError(
            f"unrecognized table header {lines[0]!r} in {path}"
            " (expected 'k,psi' or 'k,measure')"
        )
    rows = lines[1:]
    try:  # no rows at all go straight to the row loop, which names that error
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else None
    except ValueError:  # a ragged or non-numeric row
        data = None
    if data is None or data.shape[1] != 2:
        data = _parse_rows(rows, path)  # names the first bad row
    return PsiTable(data[:, 0], data[:, 1], k0=data[0, 0].item())


def _parse_rows(lines: List[str], path: str) -> np.ndarray:
    """The data rows as an (n, 2) array, parsed one row at a time.

    Raises :class:`ConfigError` naming the first malformed or non-numeric
    row, or for a table without data rows.
    """
    rows: List[Tuple[float, float]] = []
    for line in lines:
        tokens = line.split(",")
        if len(tokens) != 2:
            raise ConfigError(f"malformed table row {line!r} in {path}")
        try:
            rows.append((float(tokens[0]), float(tokens[1])))
        except ValueError as exc:
            raise ConfigError(f"non-numeric table row {line!r} in {path}") from exc
    if not rows:
        raise ConfigError(f"table file {path} has no data rows")
    return np.array(rows)


def _hypothesis_from(lemma: Mapping[str, Any]) -> DecayHypothesis:
    return DecayHypothesis(**_pick(lemma, "c1", "A", "B", "C", "D", "k0"))


def _params_from(problem: Mapping[str, Any], **given: float) -> ProblemParams:
    """The ``[problem]`` parameters; those in ``given`` replace the config's."""
    return ProblemParams(**{**_pick(problem, "n", "p", "alpha", "r", "beta1", "b_const"), **given})


def _grid_ladder(grid: Mapping[str, Any]) -> Tuple[int, ...]:
    cells = grid["cells"]
    refinements = grid.get("refinements", 1)
    if refinements < 1:
        raise ConfigError(f"refinements must be >= 1, got {refinements}")
    if cells < 1:
        raise ConfigError("cells must be a positive integer")
    if refinements > cells.bit_length():  # the coarsest grid would have no cell
        raise ConfigError(
            f"refinements must be at most {cells.bit_length()} for cells = {cells},"
            f" got {refinements}"
        )
    return tuple(cells // 2 ** (refinements - 1 - i) for i in range(refinements))


def _experiment(config: _Config, params: ProblemParams) -> ExperimentReport:
    """The grid-ladder experiment of ``params`` with the ``[grid]`` and
    ``[solver]`` sections."""
    solver = config["solver"]
    return experiment_regularity(
        params,
        _grid_ladder(config["grid"]),
        SolverTolerances(**_pick(solver, "grad_tol", "max_iters")),
        **_pick(config["grid"], "radius"),
        **_pick(config["problem"], "source_scale"),
        **_pick(solver, "epsilon"),
    )


def _output_directory(config: _Config) -> str:
    directory = config["output"].get("directory", ".")
    os.makedirs(directory, exist_ok=True)
    return directory


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr round-trips exactly and is stable across
        # numpy scalar types
        return repr(float(value))
    return str(value)


def _print_kv(pairs: Iterable[Tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


def _write_csv(
    handle: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write ``header`` and then each row as one comma-separated line."""
    for row in (header, *rows):
        handle.write(",".join(_fmt(value) for value in row) + "\n")


def _save_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, header, rows)


# --------------------------------------------------------------------------
# subcommands


def _cmd_constants(config: _Config, args: argparse.Namespace) -> int:
    hyp = _hypothesis_from(config["lemma"])
    psi_at_k0 = config["lemma"].get("psi_at_k0", 0.0)
    case = classify(hyp)
    if case.tag is CaseTag.UNCLASSIFIED:
        env = EnvelopeConstants(case)
    else:
        env = envelope_constants(hyp, psi_at_k0)
    _write_csv(
        sys.stdout,
        ("case", "lambda", "M", "c_bar", "tau", "L"),
        [(case.tag.value, env.lam, env.M, env.c_bar, env.tau, env.L)],
    )
    return 0


def _cmd_exponents(config: _Config, args: argparse.Namespace) -> int:
    params = _params_from(config["problem"])
    exps = compute_exponents(params)
    header = (
        "n", "p", "alpha", "r",
        "q", "q_star", "p_star", "r_low", "r_mid", "r_high",
        "A", "B", "C", "D", "s", "rho", "regime",
    )
    row = (
        params.n, params.p, params.alpha, params.r,
        exps.q, exps.q_star, exps.p_star, exps.r_low, exps.r_mid, exps.r_high,
        exps.hyp.A, exps.hyp.B, exps.hyp.C, exps.hyp.D, exps.s, exps.rho,
        exps.regime.value,
    )
    _write_csv(sys.stdout, header, [row])
    return 0


def _cmd_verify(config: _Config, args: argparse.Namespace) -> int:
    hyp = _hypothesis_from(config["lemma"])
    table = load_psi_table(args.psi)
    psi_at_k0 = config["lemma"].get("psi_at_k0", table.values[0])
    case = classify(hyp)
    if case.tag is CaseTag.UNCLASSIFIED:
        raise ConfigError(
            "hypothesis is Unclassified (unbalanced exponents): no envelope to verify"
        )
    hyp_report = check_hypothesis(table, hyp, AllKnotPairs())
    env_report = check_envelope(table, hyp, psi_at_k0)
    passed = hyp_report.passed and env_report.passed
    _print_kv(
        [
            ("case", case.tag.value),
            ("pair_count", hyp_report.pair_count),
            ("hypothesis_passed", hyp_report.passed),
            ("hypothesis_max_ratio", hyp_report.max_ratio),
            ("envelope_passed", env_report.passed),
            ("envelope_max_ratio", env_report.max_ratio),
            ("first_violation", env_report.first_violation),
            ("result", "pass" if passed else "violation"),
        ]
    )
    return 0 if passed else 1


def _cmd_counterexample(config: _Config, args: argparse.Namespace) -> int:
    name = args.name
    directory = _output_directory(config)
    if name == "log_square":
        psi = log_square_psi()
        hyp = DecayHypothesis(
            c1=LOG_SQUARE_C2, A=1.0, B=1.0, C=1.0, D=2.0 * math.log(2.0), k0=1.0
        )
        psi_at_k0 = 1.0
        cert = find_envelope_violation(psi, hyp, psi_at_k0, k_max=1e16)
        extra: List[Tuple[str, object]] = []
        if cert is not None:
            extra = [
                ("k_star", cert.level),
                ("psi_log_at_k_star", cert.psi_log),
                ("envelope_log_at_k_star", cert.envelope_log),
            ]
    elif name == "exp_power":
        c_exp = _required(config["lemma"], "lemma", "C")
        d_exp = _required(config["lemma"], "lemma", "D")
        psi = exp_power_psi(c_exp)
        k0 = k0_for_exp_power(d_exp, c_exp)
        hyp = DecayHypothesis(c1=1.0, A=1.0, B=c_exp, C=c_exp, D=d_exp, k0=k0)
        psi_at_k0 = psi.evaluator(k0)
        cert = find_envelope_violation(psi, hyp, psi_at_k0, k_max=1e300)
        extra = [("k0", k0), ("L", vanishing_level(hyp, psi_at_k0).L)]
        if cert is not None:
            extra += [
                ("level", cert.level),
                ("psi_log_at_level", cert.psi_log),
                ("envelope_at_level", cert.envelope_value),
            ]
    else:
        raise ConfigError(
            f"unknown counterexample name {name!r} (expected log_square or exp_power)"
        )
    knots = [hyp.k0 * 2.0**j for j in range(41)]
    values = [psi.evaluator(k) for k in knots]
    table = PsiTable(knots, values, k0=knots[0])
    doubling = check_hypothesis(table, hyp, Doubling())
    path = os.path.join(directory, f"counterexample_{name}.csv")
    _save_csv(path, ("k", "psi"), zip(knots, values))
    _print_kv(
        [
            ("name", name),
            ("doubling_passed", doubling.passed),
            ("doubling_max_ratio", doubling.max_ratio),
            *extra,
            ("violation_found", cert is not None),
            ("table", path),
        ]
    )
    return 0 if doubling.passed and cert is not None else 1


def _cmd_minimize(config: _Config, args: argparse.Namespace) -> int:
    params = _params_from(config["problem"])
    report = _experiment(config, params)
    exps = compute_exponents(params)
    directory = _output_directory(config)

    last = report.runs[-1]
    field = last.report.final_field.nodal_values
    _save_csv(os.path.join(directory, "field.csv"), ("radius", "u"), zip(last.grid.nodes, field))
    _save_csv(
        os.path.join(directory, "profile.csv"),
        ("k", "measure"),
        zip(last.profile.levels, last.profile.measures),
    )

    rows = []
    for run in report.runs:
        summary = summarize(run.profile, exps)
        fit = summary.tail_fit
        rows.append(
            (
                run.grid.cells,
                run.report.status,
                run.report.iterations,
                run.report.energy_trace[-1],
                run.max_u,
                -summary.predicted_slope if summary.predicted_slope is not None else None,
                fit.slope if fit is not None else None,
            )
        )
    _save_csv(
        os.path.join(directory, "report.csv"),
        ("cells", "status", "iterations", "energy", "max_u", "predicted_s", "fitted_slope"),
        rows,
    )

    _print_kv(
        [
            ("regime", report.regime.value),
            ("status", last.report.status),
            ("max_u", last.max_u),
            ("directory", directory),
        ]
    )
    return 0 if any(run.report.converged for run in report.runs) else 1


def _fit_pairs(fit: FitResult) -> List[Tuple[str, object]]:
    return [
        ("slope", fit.slope),
        ("intercept", fit.intercept),
        ("r_squared", fit.r_squared),
        ("n_points", fit.n_points),
    ]


def _cmd_analyze(config: _Config, args: argparse.Namespace) -> int:
    params = _params_from(config["problem"])
    table = load_psi_table(args.profile)
    profile = DistributionProfile(table.knots, table.values, table.values[0])
    summary = summarize(profile, compute_exponents(params))
    pairs: List[Tuple[str, object]] = [
        ("regime", summary.regime.value),
        ("fit", summary.fit),
    ]
    if summary.fit == "tail":
        if summary.tail_fit is None:
            raise ConfigError("profile has too few positive tail points to fit")
        pairs += _fit_pairs(summary.tail_fit)
        pairs.append(("predicted_slope", summary.predicted_slope))
    elif summary.fit == "exp":
        if summary.exp_fit is None:
            raise ConfigError("profile has too few positive points to fit")
        pairs.append(("theta", summary.theta))
        pairs += _fit_pairs(summary.exp_fit)
    else:
        pairs.append(("top_level", table.knots[-1]))
    _print_kv(pairs)
    return 0


def _cmd_sweep(config: _Config, args: argparse.Namespace) -> int:
    tokens = [token.strip() for token in args.r_values.split(",") if token.strip()]
    if not tokens:
        raise ConfigError("--r-values must list at least one value")
    try:
        r_values = [float(token) for token in tokens]
    except ValueError as exc:
        raise ConfigError(f"--r-values must be comma-separated numbers: {exc}") from exc
    # every r is validated before the first (costly) ladder runs; the
    # config's own r is replaced
    param_sets = [_params_from(config["problem"], r=r_value) for r_value in r_values]
    rows = []
    for params in param_sets:
        report = _experiment(config, params)
        last = report.runs[-1]
        rows.append((params.r, report.regime.value, last.max_u, last.report.status))
    _write_csv(sys.stdout, ("r", "regime", "max_u", "status"), rows)
    return 0


# --------------------------------------------------------------------------
# entry point


class _Command(Record):
    """One subcommand: its handler, help text, config schema and own option."""

    handler: Callable[[_Config, argparse.Namespace], int]
    help: str
    schema: _Schema
    option: Optional[Tuple[str, str]] = None  # required (flag, help), if any


_COMMANDS: Dict[str, _Command] = {
    "constants": _Command(
        _cmd_constants, "print envelope constants for a [lemma] hypothesis", _LEMMA
    ),
    "exponents": _Command(
        _cmd_exponents, "print derived exponents for a [problem] parameter set", _PROBLEM
    ),
    "verify": _Command(
        _cmd_verify, "check a tabulated psi against hypothesis and envelope", _LEMMA,
        ("--psi", "CSV table with header k,psi"),
    ),
    "counterexample": _Command(
        _cmd_counterexample, "emit a named counterexample table",
        {"lemma": (False, {"C": (float, False), "D": (float, False)}), "output": (False, _OUTPUT_KEYS)},
        ("--name", "counterexample family: log_square or exp_power"),
    ),
    "minimize": _Command(
        _cmd_minimize, "run the radial Newton-solver ladder and write CSV outputs",
        {**_LADDER, "output": (False, _OUTPUT_KEYS)},
    ),
    "analyze": _Command(
        _cmd_analyze, "fit a stored level profile per the predicted regime", _PROBLEM,
        ("--profile", "CSV table with header k,measure"),
    ),
    "sweep": _Command(
        _cmd_sweep, "run the ladder across several source integrabilities", _LADDER,
        ("--r-values", "comma-separated list of r values"),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="leveldecay",
        description="Level-set decay lemma toolkit: envelope constants, "
        "tabulated verification, counterexamples and the radial minimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        command_parser.add_argument(
            "--config", required=True, help="path to the INI config file"
        )
        if command.option is not None:
            flag, help_text = command.option
            command_parser.add_argument(flag, required=True, help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        command = _COMMANDS[args.command]
        return command.handler(_load_config(args.config, command.schema), args)
    except (ConfigError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
