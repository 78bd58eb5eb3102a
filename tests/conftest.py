"""Shared fixtures.

The regularity-trichotomy experiment (three warm-started grid ladders up
to 4096 cells, a few Newton iterations per grid) runs once per session
and is shared by the acceptance gate, the refinement-stability tests and
the solver-tolerance test.
"""
import time

import pytest

from leveldecay.exponents import ProblemParams
from leveldecay.variational import SolverTolerances, experiment_regularity

TRICHOTOMY_GRIDS = (256, 512, 1024, 2048, 4096)
TRICHOTOMY_TOL = SolverTolerances(grad_tol=1e-6, max_iters=150_000)


class TrichotomyRuns(dict):
    """r -> ExperimentReport, with the total wall time attached."""

    wall_seconds: float = 0.0


@pytest.fixture(scope="session")
def trichotomy_runs():
    runs = TrichotomyRuns()
    start = time.perf_counter()
    for r in (1.75, 2.0, 3.0):
        params = ProblemParams(n=4, p=2.0, alpha=0.25, r=r, beta1=1.0, b_const=1.0)
        runs[r] = experiment_regularity(params, TRICHOTOMY_GRIDS, TRICHOTOMY_TOL)
    runs.wall_seconds = time.perf_counter() - start
    return runs
