"""End-to-end tests of the config-driven command line interface.

All commands are invoked in-process through ``main(argv)`` so exit codes
and emitted CSV are asserted directly.
"""
import csv
import io
import math

import numpy as np
import pytest

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


def test_counterexample_exp_power_requires_c_above_one(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "[lemma]\nC = 1.0\nD = 2.0\n")
    assert main(["counterexample", "--config", cfg, "--name", "exp_power"]) == 2


def test_counterexample_unknown_name(tmp_path, capsys):
    cfg = write(tmp_path / "c.ini", "")
    assert main(["counterexample", "--config", cfg, "--name", "bogus"]) == 2


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


def test_minimize_invalid_cells(tmp_path, capsys):
    cfg = write(
        tmp_path / "c.ini",
        "[problem]\nn = 4\np = 2.0\nalpha = 0.25\nr = 1.75\n[grid]\ncells = 0\n",
    )
    assert main(["minimize", "--config", cfg]) == 2


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
