"""The entire-plane limit: closed-form singular Liouville bubbles, their
linearized operator, and its mode operators truncated to a disk of the plane.

The bubble with strength alpha and scale mu is

    v_mu(r) = log(8(1+alpha)^2 e^mu) - 2 log(1 + e^mu r^(2(1+alpha))),

the entire radial solution of Dv + r^(2 alpha) e^v = 0.  The mode-k
operator linearized around it has, against the weight 8/(1+s^2)^2 in
s = r^beta, the eigenvalues 1 - l(l+1)/2 with l = k/beta + j, j >= 0
(``mode_limits``).  No command of the package reaches this layer: the
tests hold it as the reference that the disk branches approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.special import expit

from mfelab import linearization
from mfelab.errors import ParameterDomainError
from mfelab.greens import validate_alpha
from mfelab.linearization import ModeOperator, _interior_block
from mfelab.meshing import RadialMesh, band_matvec, derivative_bands
from mfelab.radial_solver import SolutionPoint


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
    t = r**beta
    d1_band, d2_band = derivative_bands(t)
    # RadialMesh.lap_band(1.0), without the mesh's quadrature
    lap_t = d2_band + (1.0 / t)[:, None] * d1_band
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


def mode_limits(alpha: float, k: int) -> np.ndarray:
    """The two values of 1 - l(l+1)/2, l = k/beta + j, nearest 0.

    These are eigenvalues of the mode-k limit operator on the plane; for
    k = 0 they are the kernel's 0 (j = 1) and the constants' 1.  The
    values fall with l from 1 at l = 0 and cross 0 at l = 1, so the two
    nearest 0 are those of j = 0 and j = 1.
    """
    l = k / (1.0 + alpha) + np.arange(2)
    values = 1.0 - l * (l + 1.0) / 2.0
    return values[np.argsort(np.abs(values))[:2]]


def mode_mesh(n: int, beta: float, t_max: float) -> RadialMesh:
    """The sinh-graded mesh of the truncated operators on (0, t_max].

    The first node sits near 2 t_max (strength / n) e^(-strength), and
    t_max = radius^beta grows with beta.  A fixed strength 10 put it at
    t = 0.71 for alpha = 2.4 on |y| <= 50, inside the bubble core t < 1,
    where mode 0 read -0.23 for its kernel's 0.  Strength
    max(10, 20 beta / 3) keeps 10 up to beta = 1.5 and resolves the core
    beyond.
    """
    strength = max(10.0, 20.0 * beta / 3.0)
    i = np.arange(1, n + 1, dtype=float)
    return RadialMesh(t_max * np.sinh(strength * i / n) / np.sinh(strength), beta)


class TruncatedOperator(ModeOperator):
    """A mode operator cut at a far-field row.

    The far-field row is eliminated: the boundary unknown is
    ``rank_one[1] @`` the interior unknowns, and ``rank_one[0]`` is its
    coupling column.
    """


def mode_spectrum(op: ModeOperator, count: int = 8, **kwargs):
    """``linearization.mode_spectrum``, and for a ``TruncatedOperator`` an
    eigenvector whose last entry is the far-field value, not the Dirichlet 0."""
    spec = linearization.mode_spectrum(op, count, **kwargs)
    if isinstance(op, TruncatedOperator):
        vec = spec.eigenvector_0
        vec[-1] = float(op.rank_one[1] @ vec[:-1])
    return spec


def _truncated_operator(
    mesh: RadialMesh, V: np.ndarray, k: int, kappa: float
) -> TruncatedOperator:
    # far-field row: Neumann for k = 0, Robin g' + (2 kappa / S) g = 0 for
    # k >= 1 (the decaying mode of the folded equation); eliminating the
    # boundary unknown leaves a rank-one update on the interior block
    S = mesh.t[-1]
    bw = mesh.bandwidth
    bc = np.zeros(mesh.n)
    bc[-bw - 1 :] = mesh.d1_band[-1, : bw + 1]
    if k >= 1:
        bc[-1] += 2.0 * kappa / S
    elim = -bc[:-1] / bc[-1]
    band, coupling = _interior_block(mesh, mesh.lap_band(2.0 * kappa + 1.0), V)
    return TruncatedOperator(
        k=int(k),
        mesh=mesh,
        band=band,
        weight=V[:-1],
        rank_one=(coupling, elim),
    )


def entire_mode_operator(
    alpha: float,
    k: int,
    radius: float = 50.0,
    n: int = 768,
) -> TruncatedOperator:
    """Mode-k entire-space limit operator truncated to |y| <= radius.

    In s = |y|^beta the potential is 8 (1 + s^2)^-2 and there is no
    nonlocal term; the truncation uses the decay boundary condition of the
    bounded solution at s = radius^beta.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ParameterDomainError("mode index must be a non-negative integer")
    if radius <= 1.0:
        raise ParameterDomainError("truncation radius must exceed 1")
    beta = 1.0 + alpha
    kappa = k / beta
    mesh = mode_mesh(n, beta, radius**beta)
    s = mesh.t
    V = 8.0 / (1.0 + s * s) ** 2
    return _truncated_operator(mesh, V, k, kappa)


def inner_mode_operator(point: SolutionPoint, k: int, radius: float = 8.0) -> TruncatedOperator:
    """Mode-k operator of the point restricted to the inner blow-up window.

    The window is |y| <= radius in the inner variable y = x/s where the
    core scale satisfies s^(2 beta) = 1/(gamma e^lambda).  The local
    potential is carried over from the point (no nonlocal term at inner
    order) and the far edge uses the decay condition, so the spectrum is
    directly comparable with entire_mode_operator on the same window,
    whose 768-node mesh it shares.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ParameterDomainError("mode index must be a non-negative integer")
    spec = point.spec
    beta = 1.0 + spec.alpha
    kappa = k / beta
    m_eff = point.gamma * np.exp(point.lam)
    sig_t = 1.0 / np.sqrt(m_eff)
    S = radius**beta
    t_cut = S * sig_t
    if t_cut > 0.9:
        raise ParameterDomainError(
            f"inner window reaches t = {t_cut:.3f}; the point is not "
            "concentrated enough for this radius"
        )
    zmesh = mode_mesh(768, beta, S)
    t_eval = zmesh.t * sig_t
    # u is even-analytic in t, so interpolate in t^2; the window sits in
    # the well-resolved core of the source mesh
    u_spline = make_interp_spline(point.mesh.t**2, point.u_tilde, k=5)
    u_at = u_spline(t_eval**2)
    hstar = np.asarray(spec.hstar(t_eval ** (1.0 / beta)), dtype=float)
    V = point.rho * hstar * np.exp(u_at) / beta**2 / m_eff
    return _truncated_operator(zmesh, V, k, kappa)
