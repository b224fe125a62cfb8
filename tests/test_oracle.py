"""The solver against the mesh-free shooting oracle of ``tests/oracle.py``."""

import math

import pytest
from oracle import rho_at, shoot

from mfelab.greens import WeightSpec
from mfelab.radial_solver import newton_solve, solver_mesh


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("s", [2.0, 8.0, 14.0, 18.0])
def test_oracle_matches_the_constant_weight_closed_form(alpha, s):
    # hstar = 1: w = log(8m / (1 + m t^2)^2) with m = e^s / 8, so
    # rho = 8 pi beta m / (1 + m) and lambda = log(beta (1 + m) / pi)
    beta = 1.0 + alpha
    m = math.exp(s) / 8.0
    rho, lam = shoot(WeightSpec(alpha=alpha), s)
    assert abs(rho / (8.0 * math.pi * beta * m / (1.0 + m)) - 1.0) <= 1e-13
    lam_exact = math.log(beta * (1.0 + m) / math.pi)
    assert abs(lam - lam_exact) <= 1e-13 * max(1.0, abs(lam_exact))


#: the solver's rho at 512 nodes against the oracle, relative, per alpha: the
#: error is round-off for alpha <= 0.5 and falls only at order 2.6-2.8 with
#: the nodes for beta > 1, where hstar(t^(1/beta)) is not smooth at t = 0
ORACLE_RTOL = {0.3: 1e-11, 0.5: 1e-11, 1.5: 5e-10, 2.4: 3e-9}


@pytest.mark.parametrize("lam", [8.0, 14.0])
@pytest.mark.parametrize("coef", [0.25, -0.25])
@pytest.mark.parametrize("alpha", sorted(ORACLE_RTOL))
def test_solver_rho_matches_the_oracle(alpha, coef, lam):
    spec = WeightSpec(alpha=alpha, kind="gaussian", coef=coef)
    pt = newton_solve(spec, solver_mesh(512, 1.0 + alpha, lam), lam=lam)
    assert abs(pt.rho / rho_at(spec, lam) - 1.0) <= ORACLE_RTOL[alpha]


#: poly weights: without an |x|^2 term (ell = 0) hstar(t^(1/beta)) is
#: smooth enough at t = 0 that the error is round-off at every alpha; with
#: one, the error follows the gaussian weights' ORACLE_RTOL
POLY_RTOL = {
    (1.0, 0.0, 0.5): dict.fromkeys(ORACLE_RTOL, 1e-11),
    (1.0, -0.25, 0.1): ORACLE_RTOL,
}


@pytest.mark.parametrize("lam", [8.0, 14.0])
@pytest.mark.parametrize("coeffs", sorted(POLY_RTOL))
@pytest.mark.parametrize("alpha", sorted(ORACLE_RTOL))
def test_solver_rho_matches_the_oracle_on_poly_weights(alpha, coeffs, lam):
    spec = WeightSpec(alpha=alpha, kind="poly", coeffs=list(coeffs))
    pt = newton_solve(spec, solver_mesh(512, 1.0 + alpha, lam), lam=lam)
    assert abs(pt.rho / rho_at(spec, lam) - 1.0) <= POLY_RTOL[coeffs][alpha]
