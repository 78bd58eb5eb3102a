"""End-to-end tests of the config-driven command line interface.

All commands are invoked in-process through ``main(argv)`` so exit codes
and emitted CSV are asserted directly.
"""
import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from leveldecay import cli
from leveldecay.cli import load_psi_table, main
from leveldecay.exponents import ProblemParams
from leveldecay.variational import SolverTolerances, experiment_regularity


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and "," not in line:
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def parse_csv(out):
    rows = [line for line in out.splitlines() if "," in line]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


LEMMA_POWER = """
[lemma]
c1 = 1.0
A = 2.0
B = 0.75
C = 0.5
D = 4.0
k0 = 0.0
"""

PROBLEM_SOBOLEV = """
[problem]
n = 4
p = 2.0
alpha = 0.25
r = 1.75
"""


# ---------------------------------------------------------------- config errors
def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", LEMMA_POWER + "bogus = 2\n")
    assert main(["constants", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", LEMMA_POWER + "[wat]\nx = 1\n")
    assert main(["constants", "--config", cfg]) == 2
    assert "wat" in capsys.readouterr().err


def test_missing_section_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 2.0\n")
    assert main(["constants", "--config", cfg]) == 2
    assert "lemma" in capsys.readouterr().err


LADDER_32 = PROBLEM_SOBOLEV + "[grid]\ncells = 32\n"


# (config text, or None for no file; command and options after --config;
# first stderr line), with {dir} standing for the test's directory
@pytest.mark.parametrize(
    "config, argv, message",
    [
        pytest.param(
            "[lemma]\nc1 = 1.0\nA = 1.0\nB = 0.5\nC = 0.5\nD = 2.0\n",
            ["verify", "--psi", "{dir}/psi.csv"],
            "error: hypothesis is Unclassified (unbalanced exponents): no envelope to verify",
            id="verify-unclassified",
        ),
        pytest.param(
            "[lemma]\nD = 2.0\n[output]\ndirectory = {dir}\n",
            ["counterexample", "--name", "exp_power"],
            "error: missing required key C in section [lemma]",
            id="exp_power-without-C",
        ),
        pytest.param(
            LADDER_32, ["sweep", "--r-values", ","],
            "error: --r-values must list at least one value",
            id="sweep-no-r",
        ),
        pytest.param(
            LADDER_32, ["sweep", "--r-values", "1.5,abc"],
            "error: --r-values must be comma-separated numbers:"
            " could not convert string to float: 'abc'",
            id="sweep-non-numeric-r",
        ),
        pytest.param(
            PROBLEM_SOBOLEV + "[grid]\ncells = 32\nrefinements = 0\n", ["minimize"],
            "error: refinements must be >= 1, got 0",
            id="zero-refinements",
        ),
        pytest.param(
            None, ["constants"], "error: cannot read config file {dir}/c.ini",
            id="missing-config",
        ),
        pytest.param(
            "c1 = 1.0\n", ["constants"],
            "error: cannot parse config {dir}/c.ini: File contains no section headers.",
            id="no-section-header",
        ),
        pytest.param(
            LEMMA_POWER, ["verify", "--psi", "{dir}/missing.csv"],
            "error: cannot read table file {dir}/missing.csv:"
            " [Errno 2] No such file or directory: '{dir}/missing.csv'",
            id="missing-psi",
        ),
    ],
)
def test_bad_input_exits_2_with_its_message(tmp_path, capsys, config, argv, message):
    cfg = str(tmp_path / "c.ini")
    if config is not None:
        write(tmp_path / "c.ini", config.format(dir=tmp_path))
    write(tmp_path / "psi.csv", "k,psi\n1.0,1.0\n2.0,0.5\n")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert capsys.readouterr().err.splitlines()[0] == message.format(dir=tmp_path)


# ---------------------------------------------------------------- subcommands
# each subcommand's own required option, as its usage line shows it
COMMAND_OPTIONS = {
    "constants": "",
    "exponents": "",
    "verify": " --psi PSI",
    "counterexample": " --name NAME",
    "minimize": "",
    "analyze": " --profile PROFILE",
    "sweep": " --r-values R_VALUES",
}


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_subcommand_without_options_prints_its_usage(capsys, name):
    assert main([name]) == 2
    usage = capsys.readouterr().err
    assert usage.startswith(
        f"usage: leveldecay {name} [-h] --config CONFIG{COMMAND_OPTIONS[name]}\n"
    )


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_subcommand_help_exits_zero(capsys, name):
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: leveldecay {name} ")


def test_unknown_subcommand_rejected(capsys):
    assert main(["bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# ---------------------------------------------------------------- constants
def test_constants_power_decay(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", LEMMA_POWER)
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["case"] == "PowerDecay"
    assert float(rows[0]["lambda"]) == pytest.approx(8.0, rel=1e-12)
    assert float(rows[0]["M"]) == pytest.approx(2.0**44, rel=1e-12)
    assert float(rows[0]["c_bar"]) == pytest.approx(2.0**52, rel=1e-12)
    assert rows[0]["tau"] == ""
    assert rows[0]["L"] == ""


def test_constants_exponential_decay(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 1.0\nA = 1.0\nB = 1.0\nC = 1.0\nD = 2.0\nk0 = 0.0\n",
    )
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["case"] == "ExponentialDecay"
    assert float(rows[0]["tau"]) == pytest.approx(4 * math.e, rel=1e-12)
    assert rows[0]["lambda"] == ""
    assert rows[0]["L"] == ""


def test_constants_missing_key_named(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[lemma]\nc1 = 1.0\nA = 1.0\nB = 1.0\nC = 1.0\n")
    assert main(["constants", "--config", cfg]) == 2
    assert "D" in capsys.readouterr().err


def test_constants_beyond_float_range_read_inf(tmp_path, capsys):
    # lambda = 1000 puts M = 2^1000 * 2^1002000 far past the float range.
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 2.0\nA = 1.0\nB = 0.999\nC = 0.998\nD = 2.0\n",
    )
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["case"] == "PowerDecay"
    assert float(rows[0]["lambda"]) == pytest.approx(1000.0, rel=1e-12)
    assert rows[0]["M"] == "inf"
    assert rows[0]["c_bar"] == "inf"


def test_constants_vanishing_with_exponents_near_float_max(tmp_path, capsys):
    # (C - 1)**2 overflows at C = 1e300; L = 2**((D+1) (C-1)/((D-A) C)) = 8
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 1\nA = 1\nB = 1e300\nC = 1e300\nD = 2\n",
    )
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["case"] == "Vanishing"
    assert float(rows[0]["L"]) == pytest.approx(8.0, rel=1e-12)


def test_constants_unclassified_prints_empty_row(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 1.0\nA = 2.0\nB = 0.75\nC = 0.25\nD = 4.0\n",
    )
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows[0] == {
        "case": "Unclassified", "lambda": "", "M": "", "c_bar": "", "tau": "", "L": ""
    }


# ---------------------------------------------------------------- exponents
def test_exponents_sobolev_row(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV)
    assert main(["exponents", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    row = rows[0]
    assert float(row["s"]) == pytest.approx(7.0, rel=1e-10)
    assert float(row["q"]) == pytest.approx(12.0 / 7.0, rel=1e-12)
    assert float(row["q_star"]) == pytest.approx(3.0, rel=1e-12)
    assert row["regime"] == "SobolevW1p"


def test_exponents_exp_integrability_row(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 2.0\n")
    assert main(["exponents", "--config", cfg]) == 0
    row = parse_csv(capsys.readouterr().out)[0]
    assert abs(float(row["B"]) - 1.0) <= 1e-12
    assert abs(float(row["C"]) - 1.0) <= 1e-12
    assert row["regime"] == "ExponentialIntegrability"
    assert row["s"] == ""
    assert row["rho"] == ""


def test_exponents_invalid_alpha(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[problem]\nn = 4\np = 2.0\nalpha = 0.6\nr = 2.0\n")
    assert main(["exponents", "--config", cfg]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem, message",
    [
        # p (1 - alpha) - 1 rounds to 0, so C divides by it
        ("n = 3\np = 1.0000001\nalpha = 9.99999900583876e-08\nr = 2.0\n", "C is unbounded"),
        # n - r (1 + alpha p) is 0, so rho divides by it
        (
            "n = 2\np = 1.0891160533213218\nalpha = 0.08182420326057739\n"
            "r = 1.836351593478845\n",
            "rho is unbounded",
        ),
    ],
    ids=["C", "rho"],
)
def test_exponents_zero_denominator_exits_2(tmp_path, capsys, problem, message):
    cfg = write(tmp_path / "c.ini", "[problem]\n" + problem)
    assert main(["exponents", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- verify
def _brute_c1(knots, values, A, B, C, D):
    worst = 0.0
    for i, k in enumerate(knots):
        for j in range(i + 1, len(knots)):
            h = knots[j]
            num = values[j] * (h - k) ** D
            den = h**A * values[i] ** B + values[i] ** C
            worst = max(worst, num / den)
    return worst * (1.0 + 1e-9)


def _write_psi_csv(path, knots, values):
    lines = ["k,psi"] + [f"{repr(k)},{repr(v)}" for k, v in zip(knots, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_verify_synthetic_pass(tmp_path, capsys):
    # dyadic-closed truncated power table with its brute-forced constant
    knots = [2.0 ** (j / 2.0) for j in range(21)]
    values = [min(0.8, k**-3.0) for k in knots]
    A, B, C, D = 0.75, 0.75, 0.5, 1.5  # balanced: (D-A)/(1-B) = D/(1-C) = 3
    c1 = _brute_c1(knots, values, A, B, C, D)
    psi = _write_psi_csv(tmp_path / "psi.csv", knots, values)
    cfg = write(
        tmp_path / "c.ini",
        f"[lemma]\nc1 = {repr(c1)}\nA = {A}\nB = {B}\nC = {C}\nD = {D}\n"
        f"k0 = 1.0\npsi_at_k0 = 0.8\n",
    )
    assert main(["verify", "--config", cfg, "--psi", psi]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert out["hypothesis_passed"] == "True"
    assert out["envelope_passed"] == "True"
    assert out["case"] == "PowerDecay"
    assert out["result"] == "pass"


def test_verify_log_square_vs_exp_envelope(tmp_path, capsys):
    # A = 0.9 keeps the formula tau small (85.39) so the envelope crossing
    # lands at knot 2^32 where both psi and envelope are still representable
    # floats; with A = 1.0 the crossing sits past the underflow horizon and
    # a tabulated check cannot see it (the log-space sweep can).
    knots = [2.0**j for j in range(41)]
    values = [math.exp(-math.log(k) ** 2) for k in knots]
    psi = _write_psi_csv(tmp_path / "psi.csv", knots, values)
    c2 = 2.0 ** (-math.log(2.0))
    d = 2.0 * math.log(2.0)
    cfg = write(
        tmp_path / "c.ini",
        f"[lemma]\nc1 = {repr(c2)}\nA = 0.9\nB = 1.0\nC = 1.0\nD = {repr(d)}\n"
        f"k0 = 1.0\npsi_at_k0 = 1.0\n",
    )
    assert main(["verify", "--config", cfg, "--psi", psi]) == 1
    out = parse_kv(capsys.readouterr().out)
    assert out["envelope_passed"] == "False"
    level = float(out["first_violation"])
    # [DERIVED]: tau = 85.39, first violating knot is 2^32 = 4.295e9
    assert 1e9 < level < 1e11
    assert out["result"] == "violation"


def test_verify_knot_at_1e200(tmp_path, capsys):
    # h**A and the power envelope at k = 1e200 leave the float range in
    # linear space; the log-space checks report a finite hypothesis ratio.
    # The envelope ratio there is about e^3190, so it reads inf.
    knots = np.append(np.geomspace(1.0, 1000.0, 63), 1e200).tolist()
    values = [min(1.0, 1.3 / k) for k in knots]
    psi = _write_psi_csv(tmp_path / "psi.csv", knots, values)
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 1.0\nA = 2.0\nB = 0.75\nC = 0.5\nD = 4.0\nk0 = 1.0\n",
    )
    assert main(["verify", "--config", cfg, "--psi", psi]) in (0, 1)
    out = parse_kv(capsys.readouterr().out)
    assert out["pair_count"] == "2016"
    assert math.isfinite(float(out["hypothesis_max_ratio"]))
    assert out["hypothesis_passed"] == "False"
    assert out["envelope_max_ratio"] == "inf"
    assert out["result"] == "violation"


def test_verify_power_envelope_holds_between_k0_and_2k0(tmp_path, capsys):
    # rho(k0) = 1000^4 * 1 = 1e12 tops M = 4.096e9, so c_bar = 2^4 rho(k0) and
    # the envelope at k0 reads 16 psi(k0), where 2^4 M would read psi(k0) / 15.26
    psi = _write_psi_csv(tmp_path / "psi.csv", [1000.0, 1e6], [1.0, 0.0])
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 1\nA = 1\nB = 0.5\nC = 0.25\nD = 3\nk0 = 1000\npsi_at_k0 = 1\n",
    )
    assert main(["verify", "--config", cfg, "--psi", psi]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert out["hypothesis_passed"] == "True"
    assert out["envelope_passed"] == "True"
    assert float(out["envelope_max_ratio"]) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert main(["constants", "--config", cfg]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert float(rows[0]["M"]) == pytest.approx(4.096e9, rel=1e-12)
    assert float(rows[0]["c_bar"]) == pytest.approx(1.6e13, rel=1e-12)


@pytest.mark.parametrize("psi_at_k0", ["nan", "-1.0"])
def test_verify_rejects_a_bad_psi_at_k0(tmp_path, capsys, psi_at_k0):
    knots = [float(k) for k in range(1, 31)]
    psi = _write_psi_csv(tmp_path / "psi.csv", knots, [math.exp(-k) for k in knots])
    cfg = write(
        tmp_path / "c.ini",
        "[lemma]\nc1 = 100\nA = 1\nB = 1\nC = 1\nD = 2\nk0 = 1\n"
        f"psi_at_k0 = {psi_at_k0}\n",
    )
    assert main(["verify", "--config", cfg, "--psi", psi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psi_at_k0 must be finite and nonnegative" in captured.err


@pytest.mark.parametrize(
    "exponents",
    ["A = 2\nB = 0.75\nC = 0.5\nD = 4", "A = 1\nB = 3\nC = 2\nD = 2"],
    ids=["PowerDecay", "Vanishing"],
)
def test_constants_rejects_a_nan_psi_at_k0(tmp_path, capsys, exponents):
    cfg = write(tmp_path / "c.ini", f"[lemma]\nc1 = 1\n{exponents}\npsi_at_k0 = nan\n")
    assert main(["constants", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psi_at_k0 must be finite and nonnegative" in captured.err


def test_verify_unsorted_csv(tmp_path, capsys):
    psi = _write_psi_csv(tmp_path / "psi.csv", [4.0, 2.0, 1.0], [0.1, 0.5, 1.0])
    cfg = write(tmp_path / "c.ini", LEMMA_POWER)
    assert main(["verify", "--config", cfg, "--psi", psi]) == 2


def test_verify_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "psi.csv"
    bad.write_text("k;psi\n1;2\n", encoding="utf-8")
    cfg = write(tmp_path / "c.ini", LEMMA_POWER)
    assert main(["verify", "--config", cfg, "--psi", str(bad)]) == 2


# ---------------------------------------------------------------- counterexample
def test_counterexample_log_square(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", f"[output]\ndirectory = {tmp_path}\n")
    assert main(["counterexample", "--config", cfg, "--name", "log_square"]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert out["doubling_passed"] == "True"
    k_star = float(out["k_star"])
    # [DERIVED]: formula tau = 886.63 for the canonical hypothesis puts the
    # first sweep crossing at 5.233e13
    assert 1e13 < k_star < 1e14
    table = (tmp_path / "counterexample_log_square.csv").read_text(encoding="utf-8")
    assert table.startswith("k,psi")


def test_counterexample_exp_power(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        f"[lemma]\nC = 2.0\nD = 2.0\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["counterexample", "--config", cfg, "--name", "exp_power"]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert float(out["k0"]) == 1.0
    assert out["doubling_passed"] == "True"
    level = float(out["level"])
    assert level == pytest.approx(2.0 * float(out["L"]), rel=1e-12)
    psi_log = float(out["psi_log_at_level"])
    assert math.isfinite(psi_log) and psi_log < 0.0
    assert float(out["envelope_at_level"]) == 0.0
    assert (tmp_path / "counterexample_exp_power.csv").exists()


@pytest.mark.parametrize("c_exp", ["1e5", "1000", "1e10"])
def test_counterexample_exp_power_past_float_range(tmp_path, capsys, c_exp):
    # psi(2L) = exp(-(2L)**p) has a log below the float range: no certificate.
    # At C = 1000 that happens in the log evaluator at 2L; at C = 1e10
    # already in the tabulated values, which read 0.0.
    cfg = write(
        tmp_path / "c.ini",
        f"[lemma]\nC = {c_exp}\nD = 2.0\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["counterexample", "--config", cfg, "--name", "exp_power"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    out = parse_kv(captured.out)
    assert out["doubling_passed"] == "True"
    assert out["violation_found"] == "False"


def test_counterexample_exp_power_requires_c_above_one(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[lemma]\nC = 1.0\nD = 2.0\n")
    assert main(["counterexample", "--config", cfg, "--name", "exp_power"]) == 2


def test_counterexample_unknown_name(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "")
    assert main(["counterexample", "--config", cfg, "--name", "bogus"]) == 2


def test_counterexample_exp_power_with_a_large_d_ends(tmp_path):
    # D = 1e6 puts k0 where floats are wider apart than the bisection
    # tolerance; D = 1e306 doubles the bracket to inf. A child process lets
    # the test fail instead of hang.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = []
    for d_exp in ("1e6", "1e306"):
        cfg = write(
            tmp_path / f"c{d_exp}.ini",
            f"[lemma]\nC = 1.0001\nD = {d_exp}\n[output]\ndirectory = {tmp_path}\n",
        )
        argv = ["counterexample", "--config", cfg, "--name", "exp_power"]
        runs.append(
            subprocess.run(
                [sys.executable, "-m", "leveldecay", *argv],
                env=env, capture_output=True, text=True, timeout=10,
            )
        )
    answer, beyond = runs
    assert answer.returncode == 1 and answer.stderr == ""
    assert float(parse_kv(answer.stdout)["k0"]) > 9e6
    assert beyond.returncode == 2 and beyond.stdout == ""
    assert beyond.stderr.startswith("error: ") and "float range" in beyond.stderr
    assert beyond.stderr.count("\n") == 1


# ---------------------------------------------------------------- minimize
MINIMIZE_CFG = """
[problem]
n = 4
p = 2.0
alpha = 0.25
r = 1.75

[grid]
radius = 1.0
cells = 64
refinements = 2

[solver]
max_iters = 1
grad_tol = 1e-6
"""


def test_minimize_outputs_and_determinism(tmp_path, capsys):
    outputs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        cfg = write(d / "c.ini", MINIMIZE_CFG + f"\n[output]\ndirectory = {d}\n")
        # one iteration cannot reach grad_tol on any grid: exit 1
        assert main(["minimize", "--config", cfg]) == 1
        capsys.readouterr()
        outputs[tag] = {
            name: (d / name).read_bytes()
            for name in ("field.csv", "profile.csv", "report.csv")
        }
    assert outputs["one"] == outputs["two"]
    field = outputs["one"]["field.csv"].decode("utf-8").splitlines()
    assert field[0] == "radius,u"
    assert len(field) == 66  # header + 65 nodes of the finest grid
    report = list(csv.DictReader(io.StringIO(outputs["one"]["report.csv"].decode("utf-8"))))
    assert [row["cells"] for row in report] == ["32", "64"]
    assert float(report[-1]["predicted_s"]) == pytest.approx(7.0, rel=1e-10)
    assert report[-1]["fitted_slope"] != ""
    assert all(row["status"] == "max_iters" for row in report)


def test_minimize_zero_scale(tmp_path, capsys):
    d = tmp_path / "run"
    d.mkdir()
    cfg = write(
        d / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\nsource_scale = 0.0\n"
        "[grid]\ncells = 32\n"
        f"[output]\ndirectory = {d}\n",
    )
    assert main(["minimize", "--config", cfg]) == 0
    capsys.readouterr()
    field = list(csv.DictReader(io.StringIO((d / "field.csv").read_text("utf-8"))))
    assert all(float(row["u"]) == 0.0 for row in field)
    profile = (d / "profile.csv").read_text("utf-8").splitlines()
    assert profile[0] == "k,measure"
    assert len(profile) == 1  # no positive level has positive measure


@pytest.mark.parametrize("command", ["minimize", "sweep"])
@pytest.mark.parametrize(
    "problem, solver, message",
    [
        # eps**p overflows a Python float
        ("n = 4\np = 2.0\nalpha = 0.25\n", "epsilon = 1e300\n", "epsilon ** p"),
        ("n = 4\np = 3.0\nalpha = 0.1\n", "epsilon = 1e150\n", "epsilon ** p"),
        # (b_const + |u|)^(alpha p) underflows to 0, so the energy reads inf
        (
            "n = 5\np = 4.0\nalpha = 0.7\nb_const = 1e-300\n",
            "",
            "initial energy is inf",
        ),
    ],
    ids=["epsilon-1e300-p2", "epsilon-1e150-p3", "b_const-1e-300"],
)
def test_ladder_leaving_the_float_range_exits_2(
    tmp_path, capsys, command, problem, solver, message
):
    cfg = write(
        tmp_path / "c.ini",
        f"[problem]\n{problem}r = 1.75\n[grid]\ncells = 32\n[solver]\n{solver}",
    )
    argv = [command, "--config", cfg] + (["--r-values", "1.75"] if command == "sweep" else [])
    assert main(argv) == 2  # before minimize writes any output
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_minimize_invalid_cells(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n[grid]\ncells = 0\n",
    )
    assert main(["minimize", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "cells, refinements, message",
    [
        (64, 10**9, "refinements must be at most 7 for cells = 64, got 1000000000"),
        (64, 8, "refinements must be at most 7 for cells = 64, got 8"),
        (0, 10**9, "cells must be a positive integer"),
    ],
)
def test_minimize_rejects_refinements_that_empty_the_coarsest_grid(
    tmp_path, capsys, cells, refinements, message
):
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n"
        f"[grid]\ncells = {cells}\nrefinements = {refinements}\n",
    )
    assert main(["minimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("r, tail", [(1.75, True), (2.0, False), (3.0, False)])
def test_minimize_report_fills_slopes_only_in_tail_regimes(tmp_path, capsys, r, tail):
    d = tmp_path / "run"
    d.mkdir()
    problem = PROBLEM_SOBOLEV.replace("r = 1.75", f"r = {r}")
    cfg = write(
        d / "c.ini",
        problem + "[grid]\ncells = 64\nrefinements = 2\n" f"[output]\ndirectory = {d}\n",
    )
    assert main(["minimize", "--config", cfg]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO((d / "report.csv").read_text("utf-8"))))
    assert [row["cells"] for row in rows] == ["32", "64"]
    for row in rows:
        assert (row["predicted_s"] != "") is tail
        assert (row["fitted_slope"] != "") is tail


def test_minimize_radius_beyond_float_range_exits_2(tmp_path, capsys, recwarn):
    # nodes**4 overflows at radius 1e100: the grid names the radius, not the source
    cfg = write(
        tmp_path / "c.ini",
        MINIMIZE_CFG.replace("radius = 1.0", "radius = 1e100") + f"\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["minimize", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shell measures leave the float range for radius = 1e+100, n = 4\n"
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "n, message",
    [
        # the ball's volume is 3.4e-276, but (r/R)**400 underflows in the inner shells
        (400, "shell measures leave the float range for radius = 1.0, n = 400"),
        (600, "the unit ball volume underflows to 0 in dimension n = 600"),
    ],
)
def test_minimize_in_high_dimension_names_the_cause(tmp_path, capsys, recwarn, n, message):
    cfg = write(
        tmp_path / "c.ini",
        MINIMIZE_CFG.replace("n = 4", f"n = {n}") + f"\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["minimize", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(recwarn) == 0
    assert not (tmp_path / "report.csv").exists()


def test_minimize_whose_every_trial_energy_is_nan_exits_2(tmp_path, capsys, recwarn):
    # From u = 0 the full Newton step reaches |u| ~ 3e300 and every halving
    # down to the step floor still has a NaN energy: not a stagnated solve.
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\nsource_scale = 1e300\n"
        f"[grid]\ncells = 32\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["minimize", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no line-search trial has a finite energy;"
        " the full Newton step reaches max |u| = 3.24e+300\n"
    )
    assert len(recwarn) == 0
    assert not (tmp_path / "report.csv").exists()


def test_minimize_with_a_non_finite_hessian_exits_2(tmp_path, capsys, recwarn):
    # At u = 0 the gradient is finite but beta1 = 1e308 overflows most Hessian
    # entries to inf, so no finite shift helps: not a stagnated solve.
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\nbeta1 = 1e308\n"
        f"[grid]\ncells = 32\n[output]\ndirectory = {tmp_path}\n",
    )
    assert main(["minimize", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no finite shift makes the Hessian positive definite;"
        " 29 of 32 diagonal and 27 of 31 off-diagonal entries are not finite\n"
    )
    assert len(recwarn) == 0
    assert not (tmp_path / "report.csv").exists()


# ---------------------------------------------------------------- analyze
def test_analyze_exact_power_profile(tmp_path, capsys):
    ks = np.geomspace(1.0, 1e3, 60)
    lines = ["k,measure"] + [f"{repr(float(k))},{repr(float(k**-7.0))}" for k in ks]
    prof = tmp_path / "profile.csv"
    prof.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV)
    assert main(["analyze", "--config", cfg, "--profile", str(prof)]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert out["fit"] == "tail"
    assert float(out["slope"]) == pytest.approx(-7.0, abs=1e-9)
    assert float(out["r_squared"]) == pytest.approx(1.0, abs=1e-9)
    assert float(out["predicted_slope"]) == pytest.approx(-7.0, rel=1e-12)


def test_analyze_fits_a_profile_at_the_top_of_the_float_range(tmp_path, capsys):
    # k^(1/2) reaches 1.3e154, whose square np.polyfit overflowed: it printed
    # slope=0.0 and r_squared=0.0 with a warning on stderr
    ks = np.geomspace(1e306, 1.7e308, 40)
    rows = [f"{float(k)!r},{float(m)!r}" for k, m in zip(ks, np.exp(-np.sqrt(ks) / 1.3e154))]
    prof = write(tmp_path / "profile.csv", "k,measure\n" + "\n".join(rows) + "\n")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV.replace("r = 1.75", "r = 2.0"))
    assert main(["analyze", "--config", cfg, "--profile", prof]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = parse_kv(captured.out)
    assert out["fit"] == "exp" and float(out["theta"]) == 0.5
    assert float(out["slope"]) == pytest.approx(-1.0 / 1.3e154, rel=1e-9)
    assert float(out["r_squared"]) >= 1.0 - 1e-12


def test_analyze_profile_whose_fit_abscissae_are_one_float(tmp_path, capsys):
    # ten distinct levels near 1e300 whose logs are one float fix no tail slope
    rows = [f"{1e300 * (1.0 + j * 2.3e-16)!r},{1.0 - j / 20.0!r}" for j in range(10)]
    prof = write(tmp_path / "profile.csv", "k,measure\n" + "\n".join(rows) + "\n")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV)
    assert main(["analyze", "--config", cfg, "--profile", prof]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: profile has too few positive tail points to fit\n"


def test_analyze_profile_with_only_level_zero(tmp_path, capsys):
    prof = write(tmp_path / "profile.csv", "k,measure\n0.0,1.0\n")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV)
    assert main(["analyze", "--config", cfg, "--profile", prof]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: profile has too few positive tail points to fit\n"


def test_analyze_malformed_profile(tmp_path, capsys):
    prof = tmp_path / "profile.csv"
    prof.write_text("nonsense\n", encoding="utf-8")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV)
    assert main(["analyze", "--config", cfg, "--profile", str(prof)]) == 2


# ---------------------------------------------------------------- sweep
def test_sweep_rows(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n"
        "[grid]\ncells = 32\n[solver]\nmax_iters = 100\n",
    )
    assert main(["sweep", "--config", cfg, "--r-values", "1.75,3.0"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["regime"] == "SobolevW1p"
    assert rows[1]["regime"] == "Bounded"
    assert float(rows[0]["max_u"]) > 0.0


def test_sweep_invalid_r(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n[grid]\ncells = 32\n",
    )
    assert main(["sweep", "--config", cfg, "--r-values", "1.0"]) == 2


def test_sweep_rejects_a_bad_r_before_any_ladder(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return experiment_regularity(*args, **kwargs)

    monkeypatch.setattr(cli, "experiment_regularity", counted)
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n[grid]\ncells = 32\n",
    )
    assert main(["sweep", "--config", cfg, "--r-values", "1.75,0.5"]) == 2
    captured = capsys.readouterr()
    assert "r must exceed 1, got 0.5" in captured.err
    assert captured.out == ""
    assert calls == []


# ---------------------------------------------------------------- one parser per process
def test_main_runs_in_sequence_as_alone(tmp_path, capsys):
    # main reuses one argument parser; a usage error must not leak into the
    # calls after it, so each call matches a fresh process
    knots = [2.0 ** (j / 2.0) for j in range(21)]
    values = [min(0.8, k**-3.0) for k in knots]
    psi = _write_psi_csv(tmp_path / "psi.csv", knots, values)
    c1 = _brute_c1(knots, values, 0.75, 0.75, 0.5, 1.5)
    verify_cfg = write(
        tmp_path / "v.ini",
        f"[lemma]\nc1 = {repr(c1)}\nA = 0.75\nB = 0.75\nC = 0.5\nD = 1.5\n"
        f"k0 = 1.0\npsi_at_k0 = 0.8\n",
    )
    calls = [
        ["constants"],
        ["constants", "--config", write(tmp_path / "c.ini", LEMMA_POWER)],
        ["verify", "--config", verify_cfg, "--psi", psi],
    ]
    in_sequence = []
    for argv in calls:
        code = main(argv)
        in_sequence.append((code, capsys.readouterr().out))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    alone = [
        subprocess.run([sys.executable, "-m", "leveldecay", *argv], env=env, capture_output=True, text=True)
        for argv in calls
    ]
    assert in_sequence == [(run.returncode, run.stdout) for run in alone]
    assert [code for code, _ in in_sequence] == [2, 0, 0]


# ---------------------------------------------------------------- round trip
def test_profile_round_trip_bit_identical(tmp_path, capsys):
    d = tmp_path / "run"
    d.mkdir()
    cfg = write(
        d / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n"
        "[grid]\ncells = 32\n[solver]\nmax_iters = 100\n"
        f"[output]\ndirectory = {d}\n",
    )
    main(["minimize", "--config", cfg])
    capsys.readouterr()
    table = load_psi_table(str(d / "profile.csv"))
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    rerun = experiment_regularity(params, (32,), SolverTolerances(max_iters=100))
    prof = rerun.profiles[-1]
    assert np.array_equal(np.asarray(table.knots), np.asarray(prof.levels))
    assert np.array_equal(np.asarray(table.values), np.asarray(prof.measures))


def _row_parser(path):
    """The row loop that load_psi_table ran before its one array conversion."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    knots, values = [], []
    for line in lines[1:]:
        k, v = line.split(",")
        knots.append(float(k))
        values.append(float(v))
    return np.array(knots), np.array(values)


@pytest.mark.parametrize(
    "text",
    [
        "k,psi\n1.0,1.0\n",
        "k,measure\n 1 , 2 \n\n2.5,+.5\n  \n3_000,1e-3\n1e300,5e-324\n",
        "k, psi\r\n0,-0.0\r\n0.1,-0\r\n",
        "k,psi\n" + "".join(f"{k!r},{v!r}\n" for k, v in zip(
            np.geomspace(1.0, 1024.0, 1000).tolist(), (0.7 * np.geomspace(1.0, 1024.0, 1000) ** -1.3).tolist())),
    ],
    ids=["one-row", "spaces-blank-lines-forms", "crlf-signed-zeros", "repr-1000-rows"],
)
def test_load_psi_table_matches_row_parser_bitwise(tmp_path, text):
    path = write(tmp_path / "psi.csv", text)
    table = load_psi_table(path)
    knots, values = _row_parser(path)
    assert table.knots.tobytes() == knots.tobytes()
    assert table.values.tobytes() == values.tobytes()
    assert table.k0 == knots[0] and type(table.k0) is float


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "table file {path} is empty"),
        ("\n  \n", "table file {path} is empty"),
        ("k;psi\n1;2\n", "unrecognized table header 'k;psi' in {path} (expected 'k,psi' or 'k,measure')"),
        ("k,psi\n", "table file {path} has no data rows"),
        ("k,psi\n1,2\n3\n", "malformed table row '3' in {path}"),
        ("k,psi\n1,2,3\n4,5,6\n", "malformed table row '1,2,3' in {path}"),
        ("k,psi\n1\n2\n", "malformed table row '1' in {path}"),
        ("k,psi\n1,0.5\n2,abc\n", "non-numeric table row '2,abc' in {path}"),
        ("k,psi\n1,\n2,0.5\n", "non-numeric table row '1,' in {path}"),
        ("k,psi\n1,0.5\n2,x\n3\n", "non-numeric table row '2,x' in {path}"),
        ("k,psi\n1,0.5\n2\n3,x\n", "malformed table row '2' in {path}"),
    ],
)
def test_load_psi_table_error_messages(tmp_path, text, message):
    path = write(tmp_path / "psi.csv", text)
    with pytest.raises(cli.ConfigError) as info:
        load_psi_table(path)
    assert str(info.value) == message.format(path=path)


# ---------------------------------------------------------------- config values
def test_integer_key_given_as_float_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV + "[grid]\ncells = 1e3\n")
    assert main(["minimize", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: key cells in section [grid] is not an integer: '1e3'\n"
    )


def test_non_numeric_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", LEMMA_POWER.replace("c1 = 1.0", "c1 = abc"))
    assert main(["constants", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: key c1 in section [lemma] is not a number: 'abc'\n"
    )


# every value is read as its key's type when the file is loaded, also one
# that the subcommand never uses
@pytest.mark.parametrize(
    "config, argv, key",
    [
        pytest.param(
            PROBLEM_SOBOLEV + "source_scale = {value}\n", ["exponents"],
            "source_scale in section [problem]", id="exponents-source_scale",
        ),
        pytest.param(
            PROBLEM_SOBOLEV + "source_scale = {value}\n",
            ["analyze", "--profile", "{dir}/profile.csv"],
            "source_scale in section [problem]", id="analyze-source_scale",
        ),
        pytest.param(
            "[lemma]\nC = {value}\n[output]\ndirectory = {dir}\n",
            ["counterexample", "--name", "log_square"],
            "C in section [lemma]", id="log_square-C",
        ),
        pytest.param(
            LADDER_32.replace("r = 1.75", "r = {value}"), ["sweep", "--r-values", "1.75"],
            "r in section [problem]", id="sweep-r",
        ),
    ],
)
def test_unused_malformed_value_exits_2(tmp_path, capsys, config, argv, key):
    write(tmp_path / "profile.csv", "k,measure\n" + "".join(
        f"{1.1**i!r},{1.1 ** (-7.0 * i)!r}\n" for i in range(40)))
    argv = [arg.format(dir=tmp_path) for arg in argv]
    cfg = write(tmp_path / "c.ini", config.format(dir=tmp_path, value="abc"))
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: key {key} is not a number: 'abc'\n")
    write(tmp_path / "c.ini", config.format(dir=tmp_path, value="1.5"))  # a number runs
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 0


# names are checked before any value; values are then read section by
# section and key by key in schema order, not in the file's order
@pytest.mark.parametrize(
    "config, argv, message",
    [
        pytest.param(
            LEMMA_POWER.replace("c1 = 1.0", "c1 = abc") + "bogus = 1\n", ["constants"],
            "error: unexpected key bogus in section [lemma]",
            id="unexpected-key-before-value",
        ),
        pytest.param(
            LEMMA_POWER.replace("c1 = 1.0", "c1 = abc").replace("D = 4.0\n", ""), ["constants"],
            "error: missing required key D in section [lemma]",
            id="missing-key-before-value",
        ),
        pytest.param(
            "[lemma]\nD = abc\nC = 0.5\nB = 0.75\nA = 2.0\nc1 = xyz\n", ["constants"],
            "error: key c1 in section [lemma] is not a number: 'xyz'",
            id="keys-in-schema-order",
        ),
        pytest.param(
            "[solver]\nmax_iters = 1.5\n[grid]\ncells = 1e3\n"
            + PROBLEM_SOBOLEV.replace("alpha = 0.25", "alpha = abc"),
            ["minimize"],
            "error: key alpha in section [problem] is not a number: 'abc'",
            id="sections-in-schema-order",
        ),
        pytest.param(
            LEMMA_POWER + "psi_at_k0 = abc\n", ["verify", "--psi", "{dir}/missing.csv"],
            "error: key psi_at_k0 in section [lemma] is not a number: 'abc'",
            id="verify-psi_at_k0-before-table",
        ),
    ],
)
def test_first_config_error_is_a_name_then_a_value_in_schema_order(
    tmp_path, capsys, config, argv, message
):
    cfg = write(tmp_path / "c.ini", config)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert capsys.readouterr() == ("", message + "\n")


# ---------------------------------------------------------------- regime branches
PARITY_LADDER = (32, 64)


@pytest.mark.parametrize(
    "r, fit_label",
    [(1.75, "tail"), (2.0, "exp"), (3.0, "none")],
)
def test_analyze_matches_the_experiment_report(tmp_path, capsys, r, fit_label):
    d = tmp_path / "run"
    d.mkdir()
    problem = PROBLEM_SOBOLEV.replace("r = 1.75", f"r = {r}")
    cfg = write(
        d / "c.ini",
        problem + "[grid]\ncells = 64\nrefinements = 2\n" f"[output]\ndirectory = {d}\n",
    )
    assert main(["minimize", "--config", cfg]) == 0
    capsys.readouterr()
    analyze_cfg = write(d / "a.ini", problem)
    assert main(["analyze", "--config", analyze_cfg, "--profile", str(d / "profile.csv")]) == 0
    out = parse_kv(capsys.readouterr().out)

    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=r)
    report = experiment_regularity(params, PARITY_LADDER, SolverTolerances())
    assert out["regime"] == report.regime.value
    assert out["fit"] == fit_label
    fit = report.tail_fit if fit_label == "tail" else report.exp_fit
    if fit_label == "none":
        assert fit is None and report.predicted_slope is None and report.theta is None
        assert float(out["top_level"]) == float(report.profiles[-1].levels[-1])
        assert set(out) == {"regime", "fit", "top_level"}
        return
    assert float(out["slope"]) == fit.slope
    assert float(out["intercept"]) == fit.intercept
    assert float(out["r_squared"]) == fit.r_squared
    assert int(out["n_points"]) == fit.n_points
    if fit_label == "tail":
        assert report.theta is None and "theta" not in out
        assert float(out["predicted_slope"]) == report.predicted_slope
    else:
        assert report.predicted_slope is None and "predicted_slope" not in out
        assert float(out["theta"]) == report.theta == 0.5


@pytest.mark.parametrize(
    "r, message",
    [
        (1.75, "error: profile has too few positive tail points to fit\n"),
        (2.0, "error: profile has too few positive points to fit\n"),
    ],
)
def test_analyze_rejects_a_profile_too_short_to_fit(tmp_path, capsys, r, message):
    # seven positive-measure levels: one short of MIN_FIT_POINTS
    rows = [f"{float(k)!r},{float(k) ** -7.0!r}" for k in range(1, 8)]
    prof = write(tmp_path / "profile.csv", "k,measure\n" + "\n".join(rows) + "\n8.0,0.0\n")
    cfg = write(tmp_path / "c.ini", PROBLEM_SOBOLEV.replace("r = 1.75", f"r = {r}"))
    assert main(["analyze", "--config", cfg, "--profile", prof]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
