"""The radial reference solution, an oracle for the discrete minimizer.

A radial minimizer u(rho) of E(u) = int [a(u) |u'|^p - f u] dx on the ball
of radius R, with u(R) = 0, solves the Euler-Lagrange equation as a first
order system in u and the flux q = rho^(n-1) a(u) p |u'|^(p-2) u':

    u' = -(|q| / (p rho^(n-1) a(u)))^(1/(p-1)),
    q' = rho^(n-1) (a'(u) |u'|^p - f).

It is integrated inward in s = -ln(rho / R), from u = 0 and q = Q at the
boundary down to rho = 1e-8, by DOP853 (scipy, a test extra) at rtol
1e-11.  Q is bisected on [-10, 0]: a shot whose flux reaches 0 before the
origin has |Q| too small.  The equation sets epsilon = 0, and the source
is the exact power field f = scale |x|^(-n/r) (H. B. Keller, *Numerical
Methods for Two-Point Boundary-Value Problems*, 1968).
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from leveldecay import ProblemParams, SolverTolerances, experiment_regularity

#: The radii where the discrete solution meets the reference, away from the
#: singular origin: rho = 1e-3 is left out, since at r = 1.75 its error is not
#: monotone in the refinement.
RADII = (0.1, 1e-2)

#: The refinement ladder: the error falls about 3.7x per 4x refinement at
#: r = 1.55, order about 0.95, limited by the singular origin.
LADDER = (4096, 16384, 65536)

#: Boundary fluxes Q of the reference at (n, p, alpha) = (4, 2, 0.25), beta1 = b = scale = 1.
PINNED_FLUX = {1.55: -0.776832221261, 1.75: -0.613015743487}


def _shoot(params: ProblemParams, flux: float, s_eval, *, scale=1.0, radius=1.0, rho_min=1e-8):
    """One inward shot from (u, q) = (0, flux) at the boundary; ends early where q reaches 0."""
    n, p, r = params.n, params.p, params.r
    beta1, b, ap = params.beta1, params.b_const, params.alpha * params.p

    def rhs(s, y):
        u, q = y
        rho = radius * math.exp(-s)
        base = b + abs(u)
        a = beta1 / base**ap
        da = -ap * beta1 * math.copysign(1.0, u) / base ** (ap + 1)
        slope = (abs(q) / (p * rho ** (n - 1) * a)) ** (1.0 / (p - 1))  # |u'|
        return [rho * slope, rho**n * (scale * rho ** (-n / r) - da * slope**p)]

    def flux_vanishes(s, y):
        return y[1]

    flux_vanishes.terminal = True
    flux_vanishes.direction = 1
    return solve_ivp(
        rhs, (0.0, math.log(radius / rho_min)), [0.0, flux], method="DOP853",
        rtol=1e-11, atol=1e-14, events=flux_vanishes, t_eval=s_eval,
    )


def radial_reference(params: ProblemParams, radii, *, radius=1.0):
    """The boundary flux Q of the reference and its u at ``radii`` (decreasing), by 60 bisections."""
    s_eval = [math.log(radius / rho) for rho in radii]
    too_large, too_small = -10.0, 0.0
    for _ in range(60):
        flux = 0.5 * (too_large + too_small)
        if _shoot(params, flux, s_eval, radius=radius).status == 1:  # the flux vanished early
            too_small = flux
        else:
            too_large = flux
    shot = _shoot(params, too_large, s_eval, radius=radius)
    assert shot.status == 0
    return too_large, dict(zip(radii, shot.y[0].tolist()))


@pytest.fixture(scope="module", params=sorted(PINNED_FLUX))
def reference_case(request):
    params = ProblemParams(n=4, p=2.0, alpha=0.25, r=request.param, beta1=1.0, b_const=1.0)
    flux, u_ref = radial_reference(params, RADII)
    ladder = experiment_regularity(params, LADDER, SolverTolerances())
    return params, flux, u_ref, ladder


def test_reference_flux_is_pinned(reference_case):
    params, flux, _, _ = reference_case
    assert flux == pytest.approx(PINNED_FLUX[params.r], rel=1e-10)


def test_discrete_solution_converges_to_the_reference_at_first_order(reference_case):
    params, _, u_ref, ladder = reference_case
    for rho in RADII:
        errors = [
            abs(np.interp(rho, run.grid.nodes, run.report.final_field.nodal_values) / u_ref[rho] - 1.0)
            for run in ladder.runs
        ]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert min(ratios) >= 3.0, (params.r, rho, errors)
