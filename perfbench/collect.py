"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads lemma_geometry,trichotomy --seeds 1-10 --out FILE

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
from the root of the checkout, and prints every metric of every workload
by name with its unit.  For each metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, and writes all runs and the summary to FILE.
``--trace 1`` does the same for the per-layer metrics of traced runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("# record "))[len("# record "):])
    return {"seed": seed, "result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    catalogue = json.loads((Path(__file__).parent / "metrics.json").read_text())
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in catalogue[kind]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            shown = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items() if k in ("wall_s", "setup_s")}
            shown.update({k: round(v, 4) for k, v in runs[-1]["record"].get("end_to_end", {}).items() if k in ("raw_wall_s", "host_speed")})
            print(f"  {workload} seed {seed}: {shown}", flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            metrics[name] = summarize([run["result"]["metrics"][name]["value"] for run in runs])
        extra = {}
        for name in runs[0]["record"].get("end_to_end", {}):
            extra[name] = summarize([run["record"]["end_to_end"][name] for run in runs])
        report["workloads"][workload] = {
            "correct": all(run["result"]["correct"] for run in runs),
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "metrics": metrics,
            "summary_metrics": extra,
            "record": runs[0]["record"],
            "runs": runs,
        }
        print(f"{workload}: correct={report['workloads'][workload]['correct']} "
              f"failed {report['workloads'][workload]['failed']}/{report['workloads'][workload]['attempted']}")
        for name, stats in {**metrics, **extra}.items():
            print(f"  {name:<54} median {stats['median']:<12.6g} {units.get(name, ''):<6} "
                  f"spread {stats['spread']:.4f}")
        sys.stdout.flush()
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
