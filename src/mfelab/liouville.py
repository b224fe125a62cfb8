"""Closed-form singular Liouville bubbles and their linearized operator.

The bubble with strength alpha and scale mu is

    v_mu(r) = log(8(1+alpha)^2 e^mu) - 2 log(1 + e^mu r^(2(1+alpha))),

the entire radial solution of Dv + r^(2 alpha) e^v = 0.  Everything here is
a pure function; arrays are accepted wherever a radius appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError
from .meshing import RadialMesh, band_matvec

#: reject alpha this close to an integer
ALPHA_TOL = 1e-12


def validate_alpha(alpha: float) -> float:
    """Return alpha as float; positive non-integer strengths only (integer
    strengths produce non-simple blow up and are outside scope)."""
    a = float(alpha)
    if not np.isfinite(a) or a <= 0.0:
        raise ParameterDomainError("alpha must be positive")
    if abs(a - round(a)) <= ALPHA_TOL:
        raise ParameterDomainError("alpha must be non-integer")
    return a


def _log_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(~np.isfinite(r) & (r != np.inf)):
        raise ParameterDomainError("radius must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        return np.log(r)


def bubble_profile(alpha: float, mu: float, r):
    """v_mu at radius r.  Stable for any mu: the log(1 + e^x) term is
    evaluated by logaddexp, so large scales never overflow."""
    a = validate_alpha(alpha)
    beta = 1.0 + a
    x = mu + 2.0 * beta * _log_r(r)
    out = np.log(8.0 * beta * beta) + mu - 2.0 * np.logaddexp(0.0, x)
    return out if out.ndim else float(out)


def bubble_mass(alpha: float, mu: float, R) -> float:
    """Mass of the bubble over B_R: integral of r^(2 alpha) e^(v_mu).

    Closed form 8 pi (1+alpha) s/(1+s) with s = e^mu R^(2(1+alpha));
    R = inf gives the full mass 8 pi (1+alpha) exactly.  Integer strengths
    are admitted here: the closed form is regular in alpha, and the
    excluded-regime rule concerns kernel structure, not masses.
    """
    a = float(alpha)
    if not np.isfinite(a) or a <= 0.0:
        raise ParameterDomainError(f"alpha must be positive, got {alpha!r}")
    beta = 1.0 + a
    R = float(R)
    if not R > 0.0:
        raise ParameterDomainError("cutoff radius must be positive")
    if np.isinf(R):
        return 8.0 * np.pi * beta
    from scipy.special import expit

    x = mu + 2.0 * beta * np.log(R)
    return 8.0 * np.pi * beta * float(expit(x))


def kernel_Y0(alpha: float, r):
    """The bounded kernel element (1 - r^(2(1+alpha)))/(1 + r^(2(1+alpha))).

    Equals -tanh((1+alpha) log r), which is what is evaluated; exact at
    r = 0 (value 1) and stable as r -> inf (value -1).
    """
    a = validate_alpha(alpha)
    out = -np.tanh((1.0 + a) * _log_r(r))
    return out if out.ndim else float(out)


@dataclass
class FieldResult:
    """Sampled field plus any accuracy warnings raised during evaluation."""

    values: np.ndarray
    warnings: list[str] = field(default_factory=list)


def entire_linearized_apply(alpha: float, phi, mesh_r) -> FieldResult:
    """Apply L phi = D phi + 8(1+alpha)^2 r^(2 alpha) (1+r^(2(1+alpha)))^-2 phi.

    ``phi`` is sampled on the strictly increasing positive radii ``mesh_r``.
    Derivatives are taken in the substituted variable t = r^(1+alpha), where
    the radial Laplacian is beta^2 t^(2-2/beta) (g'' + g'/t) and profiles
    smooth in the natural inner variable stay smooth at the origin.  A probe
    function with known Laplacian estimates the stencil error; if it exceeds
    1e-6 a coarse-mesh warning is attached to the result.
    """
    a = validate_alpha(alpha)
    beta = 1.0 + a
    r = np.asarray(mesh_r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if r.ndim != 1 or phi.shape != r.shape:
        raise ParameterDomainError("phi and mesh_r must be 1-d with equal length")
    mesh = RadialMesh(r**beta, beta)
    t = mesh.t
    lap_t = mesh.lap_band(1.0)
    # radial Laplacian in r equals beta^2 t^(2 - 2/beta) (g_tt + g_t / t)
    jac = beta * beta * t ** (2.0 - 2.0 / beta)
    potential = 8.0 * beta * beta * r ** (2.0 * a) / (1.0 + t**2) ** 2
    values = jac * band_matvec(lap_t, phi) + potential * phi

    warnings = []
    probe = np.cos(t)
    probe_err = np.max(np.abs(band_matvec(lap_t, probe) - (-np.cos(t) - np.sin(t) / t)))
    if probe_err > 1e-6:
        warnings.append(
            f"mesh too coarse: probe Laplacian error {probe_err:.2e} > 1e-06"
        )
    return FieldResult(values=values, warnings=warnings)
