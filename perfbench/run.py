"""Benchmark of the leveldecay package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run repeats passes of the workload for
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics named in ``BENCHMARK.json``.  ``wall_s`` is the mean time of a
pass after the first and ``setup_s`` the median set-up time, both taken
to the reference host's speed with ``SpeedProbe``; the raw times are
printed beside them.  ``attempted`` and ``failed`` count the operations
of the first pass, so they do not depend on how many passes fit the
window; every later pass must repeat its outputs.  With ``--trace 1`` it
runs one untraced and one traced pass, reports the per-layer metrics,
the tracing overhead and standalone kernel timings, and writes the spans
to ``.perfbench/``.  Every output is checked; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``perfbench/metrics.json`` lists every metric with its
unit, direction, workloads and, for layer metrics, the end-to-end metric
it should move.
"""
from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
#: Set-up repetitions; set-up time is their median.
SETUP_REPS = 11
#: Steps of the speed probe's loop, samples taken before each timed
#: operation or after each input generation, and the loop's mean time on the
#: reference host (a quiet 2-vCPU Intel Xeon virtual machine, Python 3.11,
#: numpy 2.4).
PROBE_STEPS = 1000
PROBE_SAMPLES = 4
REFERENCE_PROBE_S = 0.004
#: Time of ``import numpy`` with one BLAS thread on the reference host.
REFERENCE_NUMPY_IMPORT_S = 0.08
#: Times ``import leveldecay`` and, as its first part, ``import numpy``.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import numpy; n = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[1]); import leveldecay; print(time.perf_counter() - t, n)"
)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_seconds() -> tuple:
    """Time of ``import leveldecay`` (numpy included) in a fresh interpreter.

    Returns the time and the slowdown against the reference host, read
    from the part of it that imports numpy.
    """
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    seconds, numpy_s = (float(x) for x in done.stdout.strip().splitlines()[-1].split())
    return seconds, numpy_s / REFERENCE_NUMPY_IMPORT_S


class SpeedProbe:
    """Samples how fast the host runs this process.

    Other tenants of a shared host slow every process down; on a 2-vCPU
    virtual machine they did so by up to 1.8x for minutes on end, longer
    than a run.  The probe times a fixed
    loop of small numpy calls and interpreted arithmetic, the instruction
    mix of the package's solver and pair loops.  Its samples are taken
    between the timed operations, so their mean over ``REFERENCE_PROBE_S``
    is how much slower than the reference host the host ran meanwhile.
    The benchmark owns the loop, so a change to the package cannot move it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._u = np.linspace(0.0, 1.0, 129)
        self.samples: list = []

    def _loop(self) -> float:
        total = 0.0
        for i in range(PROBE_STEPS):
            step = self._np.diff(self._u) * 1.0001
            total += float(step @ step) + i * 0.5
        return total

    def __call__(self) -> None:
        for _ in range(PROBE_SAMPLES):
            began = time.perf_counter()
            self._loop()
            self.samples.append(time.perf_counter() - began)


def _slowdown(samples) -> float:
    return statistics.fmean(samples) / REFERENCE_PROBE_S


def _median(values):
    return statistics.median(values) if values else 0.0


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "leveldecay" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'leveldecay'}", file=sys.stderr)
        return 1
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((Path(__file__).parent / "metrics.json").read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    reps = SETUP_REPS if not args.trace else 1
    imports = [_import_seconds() for _ in range(reps)]
    sys.path.insert(0, str(SRC))
    import numpy
    import leveldecay
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        generates = []
        for _ in range(reps):
            start = time.perf_counter()
            inputs = workload.inputs(args.seed, workdir)
            seconds = time.perf_counter() - start
            probe = SpeedProbe()
            probe()
            probe()
            generates.append((seconds, _slowdown(probe.samples)))
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "leveldecay": leveldecay.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
        }
        if args.trace:
            report = _traced(args, workload, inputs, contract, record)
        else:
            # Each set-up step is taken to the reference speed by a gauge of
            # its own kind: the import by the numpy import inside it, input
            # generation by the probe run right after it.  The probe loop
            # is a poor gauge for the import: on a 2-vCPU virtual machine
            # the import time moved far less than the probe's.
            setup_s, raw_setup_s = (
                _median([t / slow if scaled else t for t, slow in imports])
                + _median([t / slow if scaled else t for t, slow in generates])
                for scaled in (True, False)
            )
            record["setup_steps"] = {"import_s_and_slowdown": imports, "generate_s_and_slowdown": generates}
            report = _untraced(args, workload, inputs, contract, catalogue, record, setup_s, raw_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps(report))
    return 0


def _result(outcomes, contract_metrics, values) -> dict:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for label, lines in (("WRONG", [l for o in outcomes for l in o.wrong]),
                         ("FAILED", [l for o in outcomes for l in o.errors])):
        for line, count in Counter(lines).items():
            print(f"# {label} x{count}: {line}")
    return {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in contract_metrics},
    }


def _untraced(args, workload, inputs, contract, catalogue, record, setup_s, raw_setup_s) -> dict:
    walls, outcomes, probe = [], [], SpeedProbe()
    start = time.perf_counter()
    # Start another pass only while it is expected to end inside the window.
    while not walls or time.perf_counter() - start + _median(walls) <= args.seconds:
        began = time.perf_counter()
        outcomes.append(workload.run(inputs, probe))
        walls.append(time.perf_counter() - began)
        if len(outcomes) == 1:
            warm_probes = len(probe.samples)
    first = outcomes[0]
    for i, o in enumerate(outcomes[1:], start=2):
        if o.fingerprints != first.fingerprints or o.failed != first.failed:
            first.wrong.append(f"pass {i} gave other outputs than pass 1")
    # The first pass warms caches and is not timed when others follow.  The
    # mean operation time and the mean probe time average the same
    # interference from other tenants, so their ratio holds steady where
    # either alone does not.
    timed = outcomes[1:] or outcomes
    probes = probe.samples[warm_probes:] or probe.samples
    raw_wall = statistics.fmean(sum(o.seconds.values()) for o in timed)
    values = {
        "setup_s": setup_s,
        "wall_s": raw_wall / _slowdown(probes),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall,
        "host_speed": 1.0 / _slowdown(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": first.failed / first.attempted,
        "pairs_per_s": first.pairs / raw_wall,
    }
    values.update(first.quality)
    print(f"# {args.workload}: {len(walls)} pass(es), {len(timed)} timed, seed {args.seed}, "
          f"pass time quartiles {_quartiles(walls)}")
    record["probe"] = {"samples": len(probes), "mean_s": statistics.fmean(probes), "fastest_s": min(probes),
                       "reference_s": REFERENCE_PROBE_S}
    record["pass_walls"] = walls
    record["op_seconds"] = [o.seconds for o in outcomes]
    record["end_to_end"] = {}
    for metric in catalogue["end_to_end"]:
        if args.workload in metric["workloads"] and metric["name"] in values:
            record["end_to_end"][metric["name"]] = values[metric["name"]]
            print(f"# {metric['name']:<14} {values[metric['name']]:<22.6g} {metric['unit']}")
    # Operations are counted once per run: every pass repeats the first.
    return _result([first], contract["end_to_end"], values)


def _quartiles(values):
    if len(values) < 2:
        return [round(v, 4) for v in values]
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def _traced(args, workload, inputs, contract, record) -> dict:
    import layers
    from spans import SpanRecorder

    kernels, sizes = layers.kernel_timings(args.seed)
    record["kernel_sizes"] = sizes
    recorder = SpanRecorder(layers.ANNOTATORS)
    workload.run(inputs)  # warm-up, so that neither timed pass pays for first calls
    began = time.perf_counter()
    reference = workload.run(inputs)
    untraced_s = time.perf_counter() - began
    recorder.install("leveldecay")
    began = time.perf_counter()
    try:
        traced = workload.run(inputs)
    finally:
        recorder.uninstall()
    overhead = time.perf_counter() - began - untraced_s
    # trichotomy fingerprints hash every final field of the ladder
    identical = traced.fingerprints == reference.fingerprints
    if not identical:
        traced.wrong.append("traced outputs differ from the untraced run")

    values = layers.layer_metrics(recorder)
    values.update(kernels)
    values["trace.overhead_s"] = overhead
    names = [m["name"] for m in contract["per_layer"]]
    absent = layers.absent_layers(recorder, names)
    record["absent"] = absent
    record["untraced_reference_s"] = untraced_s
    record["outputs_identical"] = identical
    print(f"# {args.workload}: traced pass, {len(recorder.spans)} spans, "
          f"overhead {overhead:.4f} s over {untraced_s:.3f} s untraced, outputs identical: {identical}")
    for name in names:
        shown = "absent" if name in absent else f"{values[name]:.6g}"
        print(f"# {name:<52} {shown}")
    recorder.dump(str(RESULTS / f"{args.workload}-seed{args.seed}-trace.json"), record)
    return _result([traced], contract["per_layer"], values)


if __name__ == "__main__":
    sys.exit(main())
