"""The benchmark workloads: seeded inputs, one pass, and output checks.

Each workload has an input generator, which takes the seed and writes any
files the package reads, and a pass, which calls into the package and
checks every result.  The package receives only the generated inputs.

An operation *fails* when it raises, ends with an unexpected exit code or
solver status, or produces an output that a check rejects.  Only the last
kind also makes the pass *incorrect*: crashes and unconverged solves are
known defects that count as failures, not as wrong answers.

Why these workloads:

* ``trichotomy`` is the paper's regularity experiment, on a three-grid
  ladder of 32 to 128 cells; ``variational.minimize`` does almost all of
  its work and none in the other workload.  The paper's own ladder (256
  to 4096 cells) takes 80 to 110 s per pass with the descent solver, one
  sample per run whose run-to-run spread on a shared 2-vCPU host went past
  25%; the coarse ladder keeps the problem, solver, tolerances and gates
  (criteria 11 and 12 still hold at 128 cells) and takes about 3 s on a
  quiet host, so a run repeats it and reports the mean pass.
* ``lemma_geometry`` bypasses the solver.  Its lemma part drives the CLI
  over large psi tables, so the scalar pair loop of
  ``lemma.check_hypothesis`` (millions of knot pairs) does most of that
  part's work.  Its geometry part measures fields with a closed-form
  distribution on fine grids: few inequality pairs over many cells, the
  opposite pair shape, and the main user of ``distribution_function``.
  The two parts share one workload so that each run measures both for
  twice as long; the run record keeps every operation's time, so a
  change that helps one pair shape and costs the other still shows.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from leveldecay import cli, exponents, marcinkiewicz, variational

#: The model problem of the paper's experiment and README configs.
N_DIM, P_EXP, ALPHA = 4, 2.0, 0.25


@dataclass
class PassOutcome:
    """What one pass did: operation counts, check failures and quality figures."""

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    pairs: int = 0
    quality: Dict[str, float] = field(default_factory=dict)
    #: SHA-256 of each output, to compare a traced pass with an untraced one.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Wall time of each operation of the pass (each ladder in trichotomy).
    seconds: Dict[str, float] = field(default_factory=dict)
    #: Called before each timed operation; samples the host's speed.
    probe: Optional[Callable[[], None]] = None

    def start(self) -> float:
        """Start timing an operation, after the probe if there is one."""
        if self.probe is not None:
            self.probe()
        return time.perf_counter()

    def operation(self, name: str, problems: List[str], *, wrong: bool) -> None:
        """Count one operation; ``problems`` empty means it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            target = self.wrong if wrong else self.errors
            target.extend(f"{name}: {problem}" for problem in problems)


def _problem(r: float) -> exponents.ProblemParams:
    return exponents.ProblemParams(n=N_DIM, p=P_EXP, alpha=ALPHA, r=r, beta1=1.0, b_const=1.0)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _write_table(path: str, header: str, knots, values) -> str:
    rows = [header] + [f"{float(k)!r},{float(v)!r}" for k, v in zip(knots, values)]
    return _write(path, "\n".join(rows) + "\n")


def _ini(sections: Dict[str, Dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part, dtype=float).tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# trichotomy
# --------------------------------------------------------------------------
TRICHOTOMY_R = (1.75, 2.0, 3.0)
TRICHOTOMY_LADDER = (32, 64, 128)
TRICHOTOMY_TOL = dict(grad_tol=1e-6, max_iters=150_000)
EXPECTED_REGIME = {1.75: "SobolevW1p", 2.0: "ExponentialIntegrability", 3.0: "Bounded"}
#: Ladder levels whose solutions get the doubling-pair level-set check.
LEVELSET_CELLS = (64, 128)


def trichotomy_inputs(seed: int, workdir: str) -> List[exponents.ProblemParams]:
    """The paper's experiment; the seed does not change it."""
    return [_problem(r) for r in TRICHOTOMY_R]


def _criterion_11_12(r: float, report: variational.ExperimentReport) -> Tuple[List[str], Dict[str, float]]:
    """The acceptance gates of criteria 11 and 12 for one source exponent."""
    problems: List[str] = []
    quality: Dict[str, float] = {}
    if r == 1.75:
        fit = report.tail_fit
        if fit is None or report.predicted_slope is None:
            problems.append("no tail fit")
        else:
            quality["slope_rel_err"] = abs(fit.slope - report.predicted_slope) / abs(report.predicted_slope)
            if not -8.75 <= fit.slope <= -5.25:
                problems.append(f"tail slope {fit.slope} outside [-8.75, -5.25]")
        field_, grid, spec = report.final_fields[-1], report.grids[-1], report.specs[-1]
        e_u = variational.assemble_energy(field_, grid, spec)
        for factor in (0.5, 1.0, 2.0, 4.0):
            level = factor * report.max_u[-1] / 8.0
            e_t = variational.assemble_energy(variational.truncate(field_, level), grid, spec)
            if not e_u <= e_t + 1e-10 * abs(e_u):
                problems.append(f"truncation at k={level} lowers the energy")
    elif r == 2.0:
        fit = report.exp_fit
        if fit is None or report.theta != 0.5:
            problems.append(f"no exponential fit with theta=1/2 (theta={report.theta})")
        else:
            quality["exp_fit_r2"] = fit.r_squared
            if not fit.r_squared >= 0.9:
                problems.append(f"exp-fit r^2 {fit.r_squared} < 0.9")
    else:
        drift = report.stabilization_ratio
        if drift is None:
            problems.append("no stabilization ratio")
        else:
            quality["max_u_drift"] = drift
            if not drift < 0.02:
                problems.append(f"max|u| drift {drift} >= 0.02")
    return problems, quality


def _doubling_levelset(report: variational.ExperimentReport) -> Tuple[List[str], int]:
    problems: List[str] = []
    pairs_checked = 0
    for i, cells in enumerate(report.grid_cells):
        if cells not in LEVELSET_CELLS:
            continue
        peak = report.max_u[i]
        pairs = [(peak * 2.0 ** -j, peak * 2.0 ** -(j + 1)) for j in range(12)]
        levelset = variational.levelset_inequality_check(
            report.final_fields[i], report.grids[i], report.specs[i], pairs
        )
        pairs_checked += len(pairs)
        if len(levelset.residuals) + len(levelset.skipped) != len(pairs):
            problems.append(f"level-set check at {cells} cells lost pairs")
        if not (math.isfinite(levelset.constant) and levelset.constant > 0.0):
            problems.append(f"level-set constant {levelset.constant} at {cells} cells")
    return problems, pairs_checked


def trichotomy_pass(inputs: List[exponents.ProblemParams], outcome: PassOutcome) -> None:
    """Run the ladder per r; each grid solve is one operation."""
    for params in inputs:
        r = params.r
        began = outcome.start()
        report = variational.experiment_regularity(
            params, TRICHOTOMY_LADDER, variational.SolverTolerances(**TRICHOTOMY_TOL), epsilon=1e-6
        )
        outcome.fingerprints[f"r={r}"] = _fingerprint(*(f.nodal_values for f in report.final_fields))
        wrong, quality = _criterion_11_12(r, report)
        outcome.quality.update(quality)
        if report.regime.value != EXPECTED_REGIME[r]:
            wrong.append(f"regime {report.regime.value}, expected {EXPECTED_REGIME[r]}")
        if tuple(report.grid_cells) != TRICHOTOMY_LADDER:
            wrong.append(f"grid ladder {report.grid_cells}")
        levelset_wrong, pairs = _doubling_levelset(report)
        wrong += levelset_wrong
        outcome.pairs += pairs
        outcome.seconds[f"r={r}"] = time.perf_counter() - began
        for cells, run in zip(report.grid_cells, report.reports):
            name = f"r={r} cells={cells}"
            if wrong:
                outcome.operation(name, wrong, wrong=True)
            else:
                status = [] if run.status == "converged" else [
                    f"status {run.status} after {run.iterations} iterations, "
                    f"gradient norm {run.final_gradient_norm:.3g}"
                ]
                outcome.operation(name, status, wrong=False)


# --------------------------------------------------------------------------
# lemma_geometry, lemma part
# --------------------------------------------------------------------------
#: Knots per large verification table: 499,500 knot pairs each.  Each call
#: takes well under a second, so a run repeats every call several times;
#: 2000-knot tables (0.6 to 1.2 s per call) would leave room for few passes.
TABLE_KNOTS = 1000
#: Knots of the small table whose last knot sits at 1e200.
OVERFLOW_KNOTS = 64


@dataclass(frozen=True)
class CliCase:
    """One CLI call and the outcome that is known by construction."""

    name: str
    argv: Tuple[str, ...]
    accept_exit: Tuple[int, ...]
    expect: Dict[str, str]
    pair_count: Optional[int] = None


def _max_ratio(knots: np.ndarray, values: np.ndarray, a: float, b: float, c: float, d: float) -> float:
    """Exact largest lhs/rhs of the hypothesis at c1 = 1 over all knot pairs.

    Row by row, so memory stays linear in the table size.
    """
    h_pow = knots**a
    best = 0.0
    for i in range(knots.size - 1):
        num = values[i + 1:] * (knots[i + 1:] - knots[i]) ** d
        den = h_pow[i + 1:] * values[i] ** b + values[i] ** c
        best = max(best, float(np.max(num / den)))
    return best


def _power_table(rng: np.random.Generator):
    # Balanced exponents as in acceptance criterion 3: lambda = (D-A)/(1-B) = D/(1-C).
    lam = rng.uniform(0.8, 5.0)
    u = rng.uniform(0.11, 0.45)
    b = rng.uniform(1.0 - u + 0.05, 0.95)
    c, d = 1.0 - u, lam * u
    a = d - lam * (1.0 - b)
    knots = np.geomspace(1.0, 1024.0, TABLE_KNOTS)
    # psi <= V e^lam k^-lam <= 4^lam k^-lam <= c_bar k^-lam: the envelope holds.
    scale, elbow = rng.uniform(0.3, 1.0), rng.uniform(1.5, 4.0)
    values = np.minimum(scale, scale * (knots / elbow) ** -lam)
    return "PowerDecay", (a, b, c, d), knots, values


def _exponential_table(rng: np.random.Generator):
    a = rng.uniform(0.5, 1.5)
    d = a + rng.uniform(0.5, 2.0)
    theta = (d - a) / d
    knots = np.geomspace(1.0, 1000.0, TABLE_KNOTS)
    # Decay on the scale k0 + 1 <= tau: psi lies below the envelope.
    scale = rng.uniform(0.3, 1.0)
    values = scale * np.exp(-(((knots - 1.0) / 2.0) ** theta))
    return "ExponentialDecay", (a, 1.0, 1.0, d), knots, values


def _vanishing_table(rng: np.random.Generator):
    a = rng.uniform(0.5, 1.5)
    d = a + rng.uniform(0.5, 2.0)
    b, c = rng.uniform(1.2, 2.5), rng.uniform(1.2, 2.5)
    # Every knot lies below 4 <= 2L, where the envelope is psi(k0).
    knots = np.geomspace(1.0, 3.9, TABLE_KNOTS)
    scale = rng.uniform(0.3, 1.0)
    values = scale * knots ** -rng.uniform(1.0, 3.0)
    return "Vanishing", (a, b, c, d), knots, values


def lemma_inputs(seed: int, workdir: str) -> List[CliCase]:
    """Seeded verify tables with known outcomes, counterexamples and two overflow inputs."""
    rng = np.random.default_rng([seed, 1])
    cases: List[CliCase] = []
    pairs = TABLE_KNOTS * (TABLE_KNOTS - 1) // 2
    for make in (_power_table, _exponential_table, _vanishing_table):
        for verdict in ("pass", "violation"):
            tag, (a, b, c, d), knots, values = make(rng)
            worst = _max_ratio(knots, values, a, b, c, d)
            # Just above the worst pair passes; half of it doubles the worst ratio.
            c1 = worst * (1.0 + 1e-6) if verdict == "pass" else worst / 2.0
            stem = os.path.join(workdir, f"{tag}-{verdict}")
            psi = _write_table(stem + ".csv", "k,psi", knots, values)
            cfg = _write(stem + ".ini", _ini({"lemma": dict(c1=c1, A=a, B=b, C=c, D=d, k0=1.0)}))
            expect = {"case": tag, "result": verdict}
            if verdict == "violation":
                expect["hypothesis_passed"] = "False"
            cases.append(CliCase(f"verify {tag} {verdict}", ("verify", "--config", cfg, "--psi", psi),
                                 (0,) if verdict == "pass" else (1,), expect, pairs))

    out = os.path.join(workdir, "counterexamples")
    os.makedirs(out, exist_ok=True)
    found = {"doubling_passed": "True", "violation_found": "True"}
    cfg = _write(os.path.join(workdir, "log_square.ini"), _ini({"output": {"directory": out}}))
    cases.append(CliCase("counterexample log_square", ("counterexample", "--config", cfg, "--name", "log_square"),
                         (0,), found))
    c_exp, d_exp = rng.uniform(1.5, 3.0), rng.uniform(1.0, 3.0)
    cfg = _write(os.path.join(workdir, "exp_power.ini"),
                 _ini({"lemma": dict(C=c_exp, D=d_exp), "output": {"directory": out}}))
    cases.append(CliCase("counterexample exp_power", ("counterexample", "--config", cfg, "--name", "exp_power"),
                         (0,), found))

    # Extreme but valid inputs: the answer must be an exit code, never a traceback.
    cfg = _write(os.path.join(workdir, "overflow-constants.ini"),
                 _ini({"lemma": dict(c1=2.0, A=1.0, B=0.999, C=0.998, D=2.0)}))
    cases.append(CliCase("constants B=0.999 C=0.998", ("constants", "--config", cfg), (0, 2), {"case": "PowerDecay"}))
    knots = np.append(np.geomspace(1.0, 1000.0, OVERFLOW_KNOTS - 1), 1e200)
    values = np.minimum(1.0, rng.uniform(0.5, 2.0) / knots)
    psi = _write_table(os.path.join(workdir, "overflow-verify.csv"), "k,psi", knots, values)
    cfg = _write(os.path.join(workdir, "overflow-verify.ini"),
                 _ini({"lemma": dict(c1=1.0, A=2.0, B=0.75, C=0.5, D=4.0, k0=1.0)}))
    cases.append(CliCase("verify knot at 1e200", ("verify", "--config", cfg, "--psi", psi), (0, 1, 2),
                         {"case": "PowerDecay"}, OVERFLOW_KNOTS * (OVERFLOW_KNOTS - 1) // 2))
    return cases


def _parse_output(text: str) -> Dict[str, str]:
    """``key=value`` lines, or the first data row of a CSV table keyed by its header."""
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and "=" not in lines[0] and "," in lines[0]:
        header = lines[0].split(",")
        return dict(zip(header, lines[1].split(","))) if len(lines) > 1 else {}
    return dict(line.split("=", 1) for line in lines if "=" in line)


def lemma_pass(cases: List[CliCase], outcome: PassOutcome) -> None:
    """Each CLI call is one operation; stdout is captured and checked."""
    for case in cases:
        stdout, stderr = io.StringIO(), io.StringIO()
        began = outcome.start()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(list(case.argv))
        except Exception as exc:  # a traceback is the failure being counted
            outcome.operation(case.name, [f"uncaught {type(exc).__name__}: {exc}"], wrong=False)
            outcome.fingerprints[case.name] = _fingerprint(type(exc).__name__)
            continue
        finally:
            outcome.seconds[case.name] = time.perf_counter() - began
        text = stdout.getvalue()
        outcome.fingerprints[case.name] = _fingerprint(str(code), text)
        problems: List[str] = []
        if code not in case.accept_exit:
            problems.append(f"exit {code}, expected {case.accept_exit}: {stderr.getvalue().strip()}")
        elif code != 2:
            fields = _parse_output(text)
            for key, value in case.expect.items():
                if fields.get(key) != value:
                    problems.append(f"{key}={fields.get(key)}, expected {value}")
            if case.pair_count is not None:
                if fields.get("pair_count") != str(case.pair_count):
                    problems.append(f"pair_count={fields.get('pair_count')}, expected {case.pair_count}")
                elif not problems:
                    outcome.pairs += case.pair_count
        outcome.operation(case.name, problems, wrong=True)


# --------------------------------------------------------------------------
# lemma_geometry, geometry part
# --------------------------------------------------------------------------
#: Grid sizes of the fields of one pass; the sizes, not the seed, set the work.
GEOMETRY_CELLS = (2**16, 2**17, 2**18, 2**18)
#: Level pairs of the level-set check: every pair of 64 levels.
GEOMETRY_LEVELS = 64
#: Exponent of the summability test: the critical integrability n/p.
SUMMABILITY_R = N_DIM / P_EXP
SUMMABILITY_TOP = 1000


@dataclass(frozen=True)
class RadialField:
    """u = min(cap, scale |x|^(-n/r)) - scale on the unit ball.

    Its distribution function is closed-form:
    |{u >= t}| = omega_n (scale / (t + scale))^r for 0 < t <= cap - scale.
    """

    r: float
    scale: float
    cap: float
    grid: variational.RadialGrid
    field: variational.DiscreteField
    workdir: str

    @property
    def peak(self) -> float:
        return self.cap - self.scale

    def level_at(self, radius: float) -> float:
        return self.scale * radius ** (-N_DIM / self.r) - self.scale

    def closed_form(self, levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Exact measures at ``levels`` and the slack one boundary cell allows."""
        omega = marcinkiewicz.unit_ball_volume(N_DIM)
        radius = np.where(levels <= self.peak, (self.scale / (levels + self.scale)) ** (self.r / N_DIM), 0.0)
        radius = np.minimum(radius, 1.0)
        cell = np.clip(np.searchsorted(self.grid.nodes, radius), 1, self.grid.cells)
        meas = self.grid.cell_measures
        # the cell holding the boundary radius and its inner neighbour may go either way
        slack = meas[cell - 1] + meas[np.maximum(cell - 2, 0)]
        return omega * radius**N_DIM, slack + 1e-12 * float(np.sum(meas))


def geometry_inputs(seed: int, workdir: str) -> List[RadialField]:
    """Capped power fields with r alternating below and above n/p = 2."""
    rng = np.random.default_rng([seed, 2])
    fields = []
    for i, cells in enumerate(GEOMETRY_CELLS):
        r = rng.uniform(1.55, 1.9) if i % 2 == 0 else rng.uniform(3.5, 4.5)
        scale = rng.uniform(0.5, 1.0)
        cap = scale * rng.uniform(0.01, 0.02) ** (-N_DIM / r)
        grid = variational.RadialGrid(n=N_DIM, radius=1.0, cells=cells)
        with np.errstate(divide="ignore"):
            nodal = np.minimum(cap, scale * grid.nodes ** (-N_DIM / r)) - scale
        fields.append(RadialField(r, scale, cap, grid, variational.DiscreteField(nodal),
                                  os.path.join(workdir, f"field{i}")))
    return fields


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    x0, y0 = x - x.mean(), y - y.mean()
    return float(np.sum(x0 * y0) / np.sum(x0 * x0))


def _close(name: str, got: float, want: float, rel: float) -> List[str]:
    return [] if abs(got - want) <= rel * abs(want) else [f"{name} {got}, closed form {want}"]


def _summability_share(levels: np.ndarray, measures: np.ndarray, total: float, r: float, k_top: int) -> float:
    """Share of the last decade in sum k^(r-1) mu(k), mu read by summability_test's step convention."""
    ks = np.arange(1, k_top + 1, dtype=float)
    idx = np.searchsorted(levels, ks, side="right") - 1
    mu = np.where(idx >= 0, measures[np.maximum(idx, 0)], total)
    sums = np.cumsum(ks ** (r - 1.0) * mu)
    return float((sums[-1] - sums[k_top // 10 - 1]) / sums[-1])


def _analyze_field(f: RadialField, outcome: PassOutcome, name: str) -> Tuple[List[str], int, str]:
    """Check one field; the level-set check and the rest are timed apart."""
    seconds = outcome.seconds
    began = outcome.start()
    problems: List[str] = []
    grid, u = f.grid, f.field.nodal_values
    mid = np.abs(0.5 * (u[:-1] + u[1:]))
    lo, hi = f.level_at(0.5), f.level_at(2.0 * (f.scale / f.cap) ** (f.r / N_DIM))
    coarse = np.geomspace(lo, hi, 97)
    # up past the field's peak and the summability range, so that the step
    # convention of summability_test reads the empty superlevel sets there
    fine = np.geomspace(f.peak * 1e-6, 2.0 * max(f.peak, SUMMABILITY_TOP), 10_000)

    profiles, exact, slack = {}, {}, {}
    for label, levels in (("coarse", coarse), ("fine", fine)):
        profiles[label] = variational.level_profile(f.field, grid, levels)
        direct = marcinkiewicz.distribution_function(mid, grid.cell_measures, levels)
        if not np.array_equal(profiles[label].measures, direct.measures):
            problems.append(f"level_profile and distribution_function differ at the {label} levels")
        exact[label], slack[label] = f.closed_form(levels)
        off = np.abs(profiles[label].measures - exact[label]) > slack[label]
        if np.any(off):
            problems.append(f"{int(np.sum(off))} of the {levels.size} {label} levels off the closed form")

    weak = marcinkiewicz.weak_norm_estimate(profiles["fine"], f.r)
    low = fine**f.r * np.maximum(exact["fine"] - slack["fine"], 0.0)
    high = fine**f.r * (exact["fine"] + slack["fine"])
    if not float(np.max(low)) <= weak.norm_estimate <= float(np.max(high)):
        problems.append(f"weak norm {weak.norm_estimate} outside its closed-form band")

    tail = marcinkiewicz.tail_exponent_fit(profiles["coarse"], lo, hi)
    problems += _close("tail slope", tail.slope, _ols_slope(np.log(coarse), np.log(exact["coarse"])), 1e-2)
    expo = marcinkiewicz.exp_integrability_fit(profiles["coarse"], 0.5, lo)
    problems += _close("exp-fit slope", expo.slope, _ols_slope(coarse**0.5, np.log(exact["coarse"])), 1e-2)

    omega = marcinkiewicz.unit_ball_volume(N_DIM)
    share = _summability_share(fine, exact["fine"], omega, SUMMABILITY_R, SUMMABILITY_TOP)
    summable = marcinkiewicz.summability_test(profiles["fine"], SUMMABILITY_R, SUMMABILITY_TOP)
    if summable.convergent != (share < 0.01):
        problems.append(f"summability verdict {summable.convergent}, closed-form tail share {share:.4g}")

    # Balls are the extremal sets of a radially decreasing field in M^r.
    weak_const = f.scale * omega ** (1.0 / f.r) * f.r / (f.r - 1.0)
    ball = mid >= f.level_at(0.1)
    for factor, passes in ((1.05, True), (0.25, False)):
        bound = marcinkiewicz.integral_bound_check(mid, grid.cell_measures, ball, f.r, factor * weak_const)
        if bound.passed != passes:
            problems.append(f"integral bound with {factor} x weak constant: passed={bound.passed}")

    seconds[f"{name} profiles and fits"] = time.perf_counter() - began
    began = outcome.start()
    source = marcinkiewicz.power_source(grid.nodes, n=N_DIM, r=f.r, scale=f.scale)
    spec = variational.FunctionalSpec(params=_problem(1.75), source=source.cell_values, epsilon=1e-6)
    levels = np.geomspace(lo, hi, GEOMETRY_LEVELS)
    pairs = [(levels[j], levels[i]) for i in range(GEOMETRY_LEVELS) for j in range(i + 1, GEOMETRY_LEVELS)]
    levelset = variational.levelset_inequality_check(f.field, grid, spec, pairs)
    if len(levelset.residuals) + len(levelset.skipped) != len(pairs):
        problems.append("level-set check lost pairs")
    if not (math.isfinite(levelset.constant) and levelset.constant > 0.0):
        problems.append(f"level-set constant {levelset.constant}")

    seconds[f"{name} level-set check"] = time.perf_counter() - began
    began = outcome.start()
    os.makedirs(f.workdir, exist_ok=True)
    profile_csv = _write_table(os.path.join(f.workdir, "profile.csv"), "k,measure",
                               profiles["coarse"].levels, profiles["coarse"].measures)
    cfg = _write(os.path.join(f.workdir, "problem.ini"),
                 _ini({"problem": dict(n=N_DIM, p=P_EXP, alpha=ALPHA, r=f.r)}))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["analyze", "--config", cfg, "--profile", profile_csv])
    fit = _parse_output(stdout.getvalue()).get("fit")
    expected_fit = "tail" if f.r < N_DIM / P_EXP else "none"
    if code != 0 or fit != expected_fit:
        problems.append(f"analyze exit {code} fit={fit}, expected exit 0 fit={expected_fit}")
    seconds[f"{name} analyze"] = time.perf_counter() - began
    outputs = _fingerprint(profiles["fine"].measures, np.array([weak.norm_estimate, tail.slope, expo.slope,
                                                                 levelset.constant]), stdout.getvalue())
    return problems, len(pairs), outputs


def geometry_pass(fields: List[RadialField], outcome: PassOutcome) -> None:
    """Each field analysis is one operation."""
    for i, f in enumerate(fields):
        name = f"field {i} ({f.grid.cells} cells, r={f.r:.3f})"
        try:
            problems, pairs, outcome.fingerprints[name] = _analyze_field(f, outcome, name)
        except Exception as exc:  # counted as a failed operation, the pass goes on
            outcome.operation(name, [f"uncaught {type(exc).__name__}: {exc}"], wrong=False)
            continue
        outcome.pairs += pairs
        outcome.operation(name, problems, wrong=True)


Part = Tuple[Callable[[int, str], object], Callable[[object, PassOutcome], None]]


@dataclass(frozen=True)
class Workload:
    """Input generators and pass functions; one pass runs every part once."""

    parts: Tuple[Part, ...]

    def inputs(self, seed: int, workdir: str) -> list:
        return [make(seed, workdir) for make, _ in self.parts]

    def run(self, inputs: list, probe: Optional[Callable[[], None]] = None) -> PassOutcome:
        outcome = PassOutcome(probe=probe)
        for (_, run_part), data in zip(self.parts, inputs):
            run_part(data, outcome)
        return outcome


WORKLOADS: Dict[str, Workload] = {
    "lemma_geometry": Workload(((lemma_inputs, lemma_pass), (geometry_inputs, geometry_pass))),
    "trichotomy": Workload(((trichotomy_inputs, trichotomy_pass),)),
}
