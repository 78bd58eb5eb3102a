"""Per-layer metrics: span annotations, their reduction, standalone kernels.

A layer is one package module.  Times named ``<layer>.<function>.s`` are
self times, summed over the calls of one traced pass: a span's duration
minus the part its child spans cover, so the layer times of a pass add
up to the part of its wall time spent inside the package.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

from leveldecay import exponents, marcinkiewicz, variational
from spans import Span, SpanRecorder


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _minimize(args, kwargs, report) -> dict:
    grid, spec, initial = (_arg(args, kwargs, i, n) for i, n in enumerate(("grid", "spec", "initial")))
    return {
        "cells": grid.cells,
        "r": spec.params.r,
        "cold": not np.any(initial.nodal_values),
        "iterations": report.iterations,
        "status": report.status,
        "grad_norm": report.final_gradient_norm,
    }


def _distribution(args, kwargs, profile) -> dict:
    return {"cells": len(_arg(args, kwargs, 0, "values")), "levels": int(profile.levels.size)}


ANNOTATORS = {
    "variational.minimize": _minimize,
    "variational.levelset_inequality_check": lambda a, k, rep: {"pairs": len(rep.residuals) + len(rep.skipped)},
    "marcinkiewicz.distribution_function": _distribution,
    "lemma.check_hypothesis": lambda a, k, rep: {"pairs": rep.pair_count},
    "lemma.check_envelope": lambda a, k, rep: {"knots": len(_arg(a, k, 0, "table"))},
}

#: Trichotomy source exponents and their metric suffixes.
R_TAGS = ((1.75, "r1_75"), (2.0, "r2_0"), (3.0, "r3_0"))
#: Metrics that add up several functions of one layer.
GROUPS = {
    "marcinkiewicz.fits": ("marcinkiewicz.tail_exponent_fit", "marcinkiewicz.exp_integrability_fit"),
    "lemma.constants": ("lemma.power_decay_constants", "lemma.exp_decay_tau", "lemma.vanishing_level"),
}


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics."""
    own = recorder.self_seconds()
    calls: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(recorder.spans):
        calls[span.name].append(i)

    def spans(name: str) -> List[Span]:
        return [recorder.spans[i] for i in calls[name]]

    def seconds(*names: str, where: Callable[[Span], bool] = lambda s: True) -> float:
        return sum(own[i] for name in names for i in calls[name] if where(recorder.spans[i]))

    def attr_sum(name: str, key: str, where: Callable[[Span], bool] = lambda s: True) -> int:
        return sum(s.attrs.get(key, 0) for s in spans(name) if where(s))

    def per(numerator: float, denominator: float, factor: float) -> float:
        return factor * numerator / denominator if denominator else 0.0

    m: Dict[str, float] = {}
    mini = "variational.minimize"
    cold = lambda s: s.attrs.get("cold", False)
    warm = lambda s: not s.attrs.get("cold", True)
    m[f"{mini}.s"] = seconds(mini)
    m[f"{mini}.s.cold"] = seconds(mini, where=cold)
    m[f"{mini}.s.warm"] = seconds(mini, where=warm)
    for r, tag in R_TAGS:
        m[f"{mini}.s.{tag}"] = seconds(mini, where=lambda s, r=r: s.attrs.get("r") == r)
    m[f"{mini}.iters"] = attr_sum(mini, "iterations")
    m[f"{mini}.iters.cold"] = attr_sum(mini, "iterations", cold)
    m[f"{mini}.iters.warm"] = attr_sum(mini, "iterations", warm)
    m[f"{mini}.us_per_iter"] = per(m[f"{mini}.s"], m[f"{mini}.iters"], 1e6)
    for status in ("converged", "stagnated", "max_iters"):
        m[f"{mini}.{status}"] = sum(1 for s in spans(mini) if s.attrs.get("status") == status)
    norms = [s.attrs["grad_norm"] for s in spans(mini) if math.isfinite(s.attrs.get("grad_norm", math.nan))]
    m[f"{mini}.max_grad_norm"] = max(norms, default=0.0)

    m["variational.experiment_regularity.self_s"] = seconds("variational.experiment_regularity")
    for name in ("tail_fit_of", "exp_fit_of", "level_profile"):
        m[f"variational.{name}.s"] = seconds(f"variational.{name}")
    levelset = "variational.levelset_inequality_check"
    m[f"{levelset}.s"] = seconds(levelset)
    m[f"{levelset}.pairs"] = attr_sum(levelset, "pairs")
    m[f"{levelset}.us_per_pair"] = per(m[f"{levelset}.s"], m[f"{levelset}.pairs"], 1e6)

    dist = "marcinkiewicz.distribution_function"
    m[f"{dist}.s"] = seconds(dist)
    m[f"{dist}.calls"] = len(calls[dist])
    for name in ("power_source", "weak_norm_estimate", "summability_test", "integral_bound_check"):
        m[f"marcinkiewicz.{name}.s"] = seconds(f"marcinkiewicz.{name}")
    m["marcinkiewicz.fits.s"] = seconds(*GROUPS["marcinkiewicz.fits"])

    hyp = "lemma.check_hypothesis"
    completed = lambda s: not s.failed
    m[f"{hyp}.s"] = seconds(hyp)
    m[f"{hyp}.pairs"] = attr_sum(hyp, "pairs")
    m[f"{hyp}.ns_per_pair"] = per(seconds(hyp, where=completed), m[f"{hyp}.pairs"], 1e9)
    m[f"{hyp}.failed"] = sum(1 for s in spans(hyp) if s.failed)
    m["lemma.check_envelope.s"] = seconds("lemma.check_envelope")
    m["lemma.check_envelope.knots"] = attr_sum("lemma.check_envelope", "knots")
    constants = GROUPS["lemma.constants"]
    m["lemma.constants.s"] = seconds(*constants)
    m["lemma.constants.failed"] = sum(1 for name in constants for s in spans(name) if s.failed)

    m["counterexamples.find_envelope_violation.s"] = seconds("counterexamples.find_envelope_violation")
    m["cli.load_psi_table.s"] = seconds("cli.load_psi_table")
    m["cli.main.self_s"] = seconds("cli.main")
    m["trace.spans"] = len(recorder.spans)
    return m


def absent_layers(recorder: SpanRecorder, names) -> List[str]:
    """Metric names whose function had no recorded call in the traced pass."""
    called = {span.name for span in recorder.spans}
    absent = []
    for name in names:
        if name.startswith("trace.") or ".us.c" in name:
            continue  # tracing itself and the standalone kernels are part of every traced run
        function = ".".join(name.split(".")[:2])
        if not called.intersection(GROUPS.get(function, (function,))):
            absent.append(name)
    return absent


# --------------------------------------------------------------------------
# standalone kernel timings
# --------------------------------------------------------------------------
KERNEL_CELLS = (4096, 2**18)
LEVEL_COUNTS = (97, 10_000)
#: Time each kernel is repeated for; the reported figure is the median call.
KERNEL_BUDGET_S = 0.2


def _median_us(call: Callable[[], object]) -> tuple:
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    reps = max(7, min(2001, int(KERNEL_BUDGET_S / max(once, 1e-7))))
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples), reps


def kernel_timings(seed: int) -> tuple:
    """Time energy, gradient and distribution function on fixed array sizes.

    Returns the metrics and, per metric, the array sizes it ran on.
    """
    rng = np.random.default_rng([seed, 3])
    params = exponents.ProblemParams(n=4, p=2.0, alpha=0.25, r=1.75)
    metrics: Dict[str, float] = {}
    sizes: Dict[str, dict] = {}
    for cells in KERNEL_CELLS:
        grid = variational.RadialGrid(n=4, radius=1.0, cells=cells)
        source = marcinkiewicz.power_source(grid.nodes, n=4, r=1.75, scale=1.0).cell_values
        spec = variational.FunctionalSpec(params=params, source=source, epsilon=1e-6)
        field = variational.DiscreteField(rng.uniform(0.5, 2.0) * (1.0 - grid.nodes**2))
        for name, fn in (("assemble_energy", variational.assemble_energy),
                         ("energy_gradient", variational.energy_gradient)):
            key = f"variational.{name}.us.c{cells}"
            metrics[key], reps = _median_us(lambda fn=fn: fn(field, grid, spec))
            sizes[key] = {"cells": cells, "nodes": cells + 1, "reps": reps}
    cells = KERNEL_CELLS[-1]
    grid = variational.RadialGrid(n=4, radius=1.0, cells=cells)
    with np.errstate(divide="ignore"):
        values = np.minimum(1e4, grid.nodes[1:] ** -rng.uniform(1.0, 2.5))
    for count in LEVEL_COUNTS:
        levels = np.geomspace(1e-2, 1e4, count)
        key = f"marcinkiewicz.distribution_function.us.c{cells}_l{count}"
        metrics[key], reps = _median_us(
            lambda levels=levels: marcinkiewicz.distribution_function(values, grid.cell_measures, levels)
        )
        sizes[key] = {"cells": cells, "levels": count, "reps": reps}
    return metrics, sizes
