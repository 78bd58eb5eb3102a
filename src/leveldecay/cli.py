"""Config-driven command line interface.

Every subcommand reads an INI config file (sections and keys are
validated strictly: unknown names are errors, as are missing required
ones) and prints either a small CSV table or ``key=value`` lines to
stdout.  Floats are rendered with ``repr`` so emitted tables round-trip
bit-identically through :func:`load_psi_table`.

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
check failed, 2 malformed config/table or parameter domain error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

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
# config schemas: section -> (required, {key -> required})

_Schema = Dict[str, Tuple[bool, Dict[str, bool]]]

_LEMMA_KEYS = {
    "c1": True,
    "A": True,
    "B": True,
    "C": True,
    "D": True,
    "k0": False,
    "psi_at_k0": False,
}
_PROBLEM_KEYS = {
    "n": True,
    "p": True,
    "alpha": True,
    "r": True,
    "beta1": False,
    "b_const": False,
    "source_scale": False,
}
_GRID_KEYS = {"cells": True, "radius": False, "refinements": False}
_SOLVER_KEYS = {"grad_tol": False, "max_iters": False, "epsilon": False}
_OUTPUT_KEYS = {"directory": False}

_SCHEMAS: Dict[str, _Schema] = {
    "constants": {"lemma": (True, _LEMMA_KEYS)},
    "exponents": {"problem": (True, _PROBLEM_KEYS)},
    "verify": {"lemma": (True, _LEMMA_KEYS)},
    "counterexample": {
        "lemma": (False, {"C": False, "D": False}),
        "output": (False, _OUTPUT_KEYS),
    },
    "minimize": {
        "problem": (True, _PROBLEM_KEYS),
        "grid": (True, _GRID_KEYS),
        "solver": (False, _SOLVER_KEYS),
        "output": (False, _OUTPUT_KEYS),
    },
    "analyze": {"problem": (True, _PROBLEM_KEYS)},
    "sweep": {
        "problem": (True, _PROBLEM_KEYS),
        "grid": (True, _GRID_KEYS),
        "solver": (False, _SOLVER_KEYS),
    },
}


def _load_config(path: str, schema: _Schema) -> configparser.ConfigParser:
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
        for key, key_required in keys.items():
            if key_required and key not in parser[section]:
                raise ConfigError(
                    f"missing required key {key} in section [{section}]"
                )
    return parser


def _read(
    cfg: configparser.ConfigParser,
    section: str,
    key: str,
    kind: type = float,
    default: Optional[float] = None,
) -> Any:
    """The value of ``key`` in ``section`` as ``kind`` (float or int).

    An absent key reads ``default``, and is an error without one.
    """
    if not cfg.has_option(section, key):
        if default is None:
            raise ConfigError(f"missing required key {key} in section [{section}]")
        return default
    raw = cfg.get(section, key)
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(
            f"key {key} in section [{section}] is not {noun}: {raw!r}"
        ) from exc


# --------------------------------------------------------------------------
# shared parsing and formatting


def load_psi_table(path: str) -> PsiTable:
    """Load a two-column CSV table with header ``k,psi`` or ``k,measure``.

    The second column name is cosmetic: verification tables carry psi
    values, stored level profiles carry measures.  Raises
    :class:`ConfigError` for malformed files and propagates the
    ``PsiTable`` validation errors (unsorted knots, rising values).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
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
    knots: List[float] = []
    values: List[float] = []
    for line in lines[1:]:
        tokens = line.split(",")
        if len(tokens) != 2:
            raise ConfigError(f"malformed table row {line!r} in {path}")
        try:
            knots.append(float(tokens[0]))
            values.append(float(tokens[1]))
        except ValueError as exc:
            raise ConfigError(f"non-numeric table row {line!r} in {path}") from exc
    if not knots:
        raise ConfigError(f"table file {path} has no data rows")
    return PsiTable(knots, values, k0=knots[0])


def _hypothesis_from(cfg: configparser.ConfigParser) -> DecayHypothesis:
    return DecayHypothesis(
        c1=_read(cfg, "lemma", "c1"),
        A=_read(cfg, "lemma", "A"),
        B=_read(cfg, "lemma", "B"),
        C=_read(cfg, "lemma", "C"),
        D=_read(cfg, "lemma", "D"),
        k0=_read(cfg, "lemma", "k0", float, 0.0),
    )


def _params_from(cfg: configparser.ConfigParser, r_value: Optional[float] = None) -> ProblemParams:
    return ProblemParams(
        n=_read(cfg, "problem", "n", int),
        p=_read(cfg, "problem", "p"),
        alpha=_read(cfg, "problem", "alpha"),
        r=_read(cfg, "problem", "r") if r_value is None else r_value,
        beta1=_read(cfg, "problem", "beta1", float, 1.0),
        b_const=_read(cfg, "problem", "b_const", float, 1.0),
    )


def _grid_ladder(cfg: configparser.ConfigParser) -> Tuple[int, ...]:
    cells = _read(cfg, "grid", "cells", int)
    refinements = _read(cfg, "grid", "refinements", int, 1)
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


def _tolerances_from(cfg: configparser.ConfigParser) -> SolverTolerances:
    return SolverTolerances(
        grad_tol=_read(cfg, "solver", "grad_tol", float, 1e-6),
        max_iters=_read(cfg, "solver", "max_iters", int, 100_000),
    )


def _experiment(cfg: configparser.ConfigParser, params: ProblemParams) -> ExperimentReport:
    """The grid-ladder experiment of ``params`` with the ``[grid]`` and
    ``[solver]`` sections."""
    return experiment_regularity(
        params,
        _grid_ladder(cfg),
        _tolerances_from(cfg),
        radius=_read(cfg, "grid", "radius", float, 1.0),
        source_scale=_read(cfg, "problem", "source_scale", float, 1.0),
        epsilon=_read(cfg, "solver", "epsilon", float, 1e-6),
    )


def _output_directory(cfg: configparser.ConfigParser) -> str:
    directory = cfg.get("output", "directory", fallback=".")
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


def _print_csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(value) for value in row))


def _print_kv(pairs: Iterable[Tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


def _write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# subcommands


def _cmd_constants(cfg: configparser.ConfigParser) -> int:
    hyp = _hypothesis_from(cfg)
    psi_at_k0 = _read(cfg, "lemma", "psi_at_k0", float, 0.0)
    case = classify(hyp)
    if case.tag is CaseTag.UNCLASSIFIED:
        env = EnvelopeConstants(case)
    else:
        env = envelope_constants(hyp, psi_at_k0)
    _print_csv(
        ("case", "lambda", "M", "c_bar", "tau", "L"),
        [(case.tag.value, env.lam, env.M, env.c_bar, env.tau, env.L)],
    )
    return 0


def _cmd_exponents(cfg: configparser.ConfigParser) -> int:
    params = _params_from(cfg)
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
    _print_csv(header, [row])
    return 0


def _cmd_verify(cfg: configparser.ConfigParser, psi_path: str) -> int:
    hyp = _hypothesis_from(cfg)
    table = load_psi_table(psi_path)
    psi_at_k0 = _read(cfg, "lemma", "psi_at_k0", float, table.values[0])
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


def _cmd_counterexample(
    cfg: configparser.ConfigParser, name: str, directory: str
) -> int:
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
        c_exp = _read(cfg, "lemma", "C")
        d_exp = _read(cfg, "lemma", "D")
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
    _write_csv(path, ("k", "psi"), zip(knots, values))
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


def _cmd_minimize(cfg: configparser.ConfigParser) -> int:
    params = _params_from(cfg)
    report = _experiment(cfg, params)
    exps = compute_exponents(params)
    directory = _output_directory(cfg)

    nodes = report.grids[-1].nodes
    field = report.final_fields[-1].nodal_values
    _write_csv(os.path.join(directory, "field.csv"), ("radius", "u"), zip(nodes, field))

    profile = report.profiles[-1]
    _write_csv(
        os.path.join(directory, "profile.csv"),
        ("k", "measure"),
        zip(profile.levels, profile.measures),
    )

    rows = []
    for i, cells in enumerate(report.grid_cells):
        run = report.reports[i]
        summary = summarize(report.profiles[i], exps)
        fit = summary.tail_fit
        rows.append(
            (
                cells,
                run.status,
                run.iterations,
                run.energy_trace[-1],
                report.max_u[i],
                -summary.predicted_slope if summary.predicted_slope is not None else None,
                fit.slope if fit is not None else None,
            )
        )
    _write_csv(
        os.path.join(directory, "report.csv"),
        ("cells", "status", "iterations", "energy", "max_u", "predicted_s", "fitted_slope"),
        rows,
    )

    _print_kv(
        [
            ("regime", report.regime.value),
            ("status", report.reports[-1].status),
            ("max_u", report.max_u[-1]),
            ("directory", directory),
        ]
    )
    return 0 if any(run.converged for run in report.reports) else 1


def _fit_pairs(fit: FitResult) -> List[Tuple[str, object]]:
    return [
        ("slope", fit.slope),
        ("intercept", fit.intercept),
        ("r_squared", fit.r_squared),
        ("n_points", fit.n_points),
    ]


def _cmd_analyze(cfg: configparser.ConfigParser, profile_path: str) -> int:
    params = _params_from(cfg)
    table = load_psi_table(profile_path)
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


def _cmd_sweep(cfg: configparser.ConfigParser, r_values_raw: str) -> int:
    tokens = [token.strip() for token in r_values_raw.split(",") if token.strip()]
    if not tokens:
        raise ConfigError("--r-values must list at least one value")
    try:
        r_values = [float(token) for token in tokens]
    except ValueError as exc:
        raise ConfigError(f"--r-values must be comma-separated numbers: {exc}") from exc
    # every r is validated before the first (costly) ladder runs
    param_sets = [_params_from(cfg, r_value) for r_value in r_values]
    rows = []
    for params in param_sets:
        report = _experiment(cfg, params)
        rows.append(
            (
                params.r,
                report.regime.value,
                report.max_u[-1],
                report.reports[-1].status,
            )
        )
    _print_csv(("r", "regime", "max_u", "status"), rows)
    return 0


# --------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="leveldecay",
        description="Level-set decay lemma toolkit: envelope constants, "
        "tabulated verification, counterexamples and the radial minimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text)
        command.add_argument(
            "--config", required=True, help="path to the INI config file"
        )
        return command

    add("constants", "print envelope constants for a [lemma] hypothesis")
    add("exponents", "print derived exponents for a [problem] parameter set")
    verify = add("verify", "check a tabulated psi against hypothesis and envelope")
    verify.add_argument("--psi", required=True, help="CSV table with header k,psi")
    counter = add("counterexample", "emit a named counterexample table")
    counter.add_argument(
        "--name", required=True, help="counterexample family: log_square or exp_power"
    )
    add("minimize", "run the radial Newton-solver ladder and write CSV outputs")
    analyze = add("analyze", "fit a stored level profile per the predicted regime")
    analyze.add_argument(
        "--profile", required=True, help="CSV table with header k,measure"
    )
    sweep = add("sweep", "run the ladder across several source integrabilities")
    sweep.add_argument(
        "--r-values",
        dest="r_values",
        required=True,
        help="comma-separated list of r values",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_config(args.config, _SCHEMAS[args.command])
        if args.command == "constants":
            return _cmd_constants(cfg)
        if args.command == "exponents":
            return _cmd_exponents(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg, args.psi)
        if args.command == "counterexample":
            return _cmd_counterexample(cfg, args.name, _output_directory(cfg))
        if args.command == "minimize":
            return _cmd_minimize(cfg)
        if args.command == "analyze":
            return _cmd_analyze(cfg, args.profile)
        return _cmd_sweep(cfg, args.r_values)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
