"""A mesh-free shooting oracle for the radial problem.

Every radial solution is fixed by its centre value s.  In tau = log t the
shifted field w = u + log(rho / (beta^2 M)) solves

    w_tautau + e^(2 tau) hstar(e^(tau / beta)) e^w = 0,

with w -> s and w_tau -> 0 as tau -> -inf.  One adaptive integration from a
series start to tau = 0 (t = 1, where u = 0) gives rho = -2 pi beta w_tau(0),
M = -(2 pi / beta) e^(-w(0)) w_tau(0) and lambda = s - w(0) - log M.  No mesh,
stencil or quadrature of mfelab is involved, so the solver's rho can be held
to it for any weight.
"""

from __future__ import annotations

import math

from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def shoot(spec, s: float) -> tuple[float, float]:
    """(rho, lambda) of the radial solution of ``spec`` with centre value s."""
    beta = 1.0 + spec.alpha
    h0 = math.exp(s) * float(spec.hstar(0.0))
    # series start w = s - h0 t^2 / 4, where the t^4 term is below round-off
    t0 = min(1e-3, 1e-4 * math.exp(-s / 2.0))

    def rhs(tau, y):
        return [y[1], -math.exp(2.0 * tau + y[0]) * float(spec.hstar(math.exp(tau / beta)))]

    start = [s - h0 * t0 * t0 / 4.0, -h0 * t0 * t0 / 2.0]
    w, w_tau = solve_ivp(rhs, (math.log(t0), 0.0), start, method="DOP853",
                         rtol=1e-13, atol=1e-15).y[:, -1]
    log_mass = math.log(-2.0 * math.pi / beta * w_tau) - w
    return -2.0 * math.pi * beta * w_tau, s - w - log_mass


def rho_at(spec, lam: float) -> float:
    """rho of the radial solution of ``spec`` at height lambda: s is
    root-found on [lambda - 2, lambda + 12], at scipy's least rtol."""
    s = brentq(lambda s: shoot(spec, s)[1] - lam, lam - 2.0, lam + 12.0,
               xtol=1e-14, rtol=4.0 * 2.0**-52)
    return shoot(spec, s)[0]
