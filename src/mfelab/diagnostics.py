"""Quantitative checks along blow-up branches.

Every formula the solver family is supposed to obey is probed here as a
number: the rate law rho - 8 pi beta ~ ell e^(-lambda/beta), the matching
identity tying the peak height to the Green function, the outer profile
u ~ rho G away from the peak, and the boundary-bulk (Pohozaev) identity
for pairs of solutions and for linearized fields.  All checks reduce to
one-dimensional quadratures in the radial variable t = r^beta; tests carry
a two-dimensional tensor-product cross-check of the reduction.

The one-term fits are unweighted least squares on log|value| against
lambda, over a lambda window that defaults to [8, 14].  Inside that window
the e^(-lambda) next-order term is still 3-22% of the leading term on the
gaussian coef=0.25 branch and bends the one-term line; the tests' two-term
fit carries that term explicitly and reads the leading law off the same
window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .greens import TWO_PI, ell_coefficient, regular_part
from .linearization import b0_projection, kernel_candidate
from .meshing import band_matvec
from .radial_solver import (
    EIGHT_PI,
    Branch,
    SolutionPoint,
    find_fold_pair,
)

__all__ = [
    "FitResult",
    "MonotonicityVerdict",
    "DiagnosticsReport",
    "log_linear_fit",
    "rate_law_fit",
    "local_rate_law_fit",
    "matching_residual",
    "outer_profile_residual",
    "pohozaev_residual",
    "pohozaev_residual_linearized",
    "pohozaev_rows",
    "psi1_gradient_check",
    "uniqueness_probe",
    "check_window",
    "build_report",
]

R2_FLOOR = 0.99
#: the entries build_report can compute; a run config enables a subset
DIAGNOSTIC_NAMES = ("rate", "local_rate", "matching", "outer", "pohozaev", "uniqueness")
_WINDOW_SLACK = 1e-6  # branch targets land on window edges up to solver tol


@dataclass(frozen=True)
class FitResult:
    """Log-linear fit log|value| = slope * lambda + intercept.

    Unpacks as (slope, intercept, r_squared); window and count record the
    lambda range and the number of points actually used.
    """

    slope: float
    intercept: float
    r_squared: float
    window: tuple
    count: int

    def __iter__(self):
        return iter((self.slope, self.intercept, self.r_squared))

    @property
    def ok(self) -> bool:
        return self.r_squared >= R2_FLOOR

    def to_dict(self, r2_floor: float = R2_FLOOR) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "count": self.count,
            "r2_ok": self.r_squared >= r2_floor,
        }


def _in_window(lams, window) -> np.ndarray:
    """Which of ``lams`` lie in the window, each edge widened by _WINDOW_SLACK."""
    lams = np.asarray(lams, dtype=float)
    return (lams >= float(window[0]) - _WINDOW_SLACK) & (lams <= float(window[1]) + _WINDOW_SLACK)


def _window_points(lams, values, window):
    """(lambdas, values, lo, hi) of the nonzero samples inside the window."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ParameterDomainError(f"empty fit window [{lo}, {hi}]")
    keep = _in_window(lams, window) & (values != 0.0)
    if int(keep.sum()) < 5:
        raise ParameterDomainError(
            f"only {int(keep.sum())} usable points in the window [{lo}, {hi}]; "
            "a fit needs at least 5"
        )
    return lams[keep], values[keep], lo, hi


def _r_squared(y, model) -> float:
    resid = y - model
    total = y - y.mean()
    ss_tot = float(total @ total)
    return 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot


def log_linear_fit(lams, values, window) -> FitResult:
    """Least-squares line through log|values| against lambda over the window.

    Zero values are skipped; fewer than 5 usable points raise
    ParameterDomainError.
    """
    x, v, lo, hi = _window_points(lams, values, window)
    y = np.log(np.abs(v))
    slope, intercept = np.polyfit(x, y, 1)
    r2 = _r_squared(y, slope * x + intercept)
    return FitResult(float(slope), float(intercept), r2, (lo, hi), x.size)


def rate_law_fit(branch: Branch, window=(8.0, 14.0)) -> FitResult:
    """Fit log|rho - 8 pi beta| against lambda over the window.

    The predicted slope is -1/beta where the gradient coefficient ell is
    nonzero; when ell vanishes the universal e^(-lambda) correction takes
    over and the slope steepens to -1.
    """
    beta = 1.0 + branch.spec.alpha
    return log_linear_fit(branch.lambdas, branch.rhos - EIGHT_PI * beta, window)


def local_rate_law_fit(branch: Branch, r0: float, window=(8.0, 14.0)) -> FitResult:
    """Same fit on the local mass over B(0, r0) instead of the full rho.

    The outer tail rho - rho_1 is itself of order e^(-lambda) with an
    r0-dependent constant, so the local fit only reproduces the global law
    once lambda is large enough for the gradient term to dominate it.
    """
    vals = [pt.local_mass(r0) for pt in branch.points]
    beta = 1.0 + branch.spec.alpha
    return log_linear_fit(branch.lambdas, np.asarray(vals) - EIGHT_PI * beta, window)


def matching_residual(point: SolutionPoint) -> float:
    """Peak-height matching: lambda - log mass + 2 log gamma + 8 pi beta R(p, p).

    R(p, p) = R(0, 0) = 0 on the disk, so that term is omitted.  log mass
    is read off the boundary value of the normalized profile (u - log mass
    vanishes at r = 1 only in the Dirichlet gauge), which makes the
    residual invariant under u -> u + const.  On the exact disk
    family the residual equals 2 log(m / (1 + m)) identically; along
    generic branches it decays at least like sigma.
    """
    return float(point.lam + point.u_tilde[-1] + 2.0 * np.log(point.gamma))


def _du_dr(point: SolutionPoint) -> np.ndarray:
    """du/dr at the mesh nodes; du/dr = beta t^(1 - 1/beta) du/dt."""
    mesh = point.mesh
    beta = 1.0 + point.spec.alpha
    dudt = band_matvec(mesh.d1_band, point.u)
    return beta * mesh.t ** (1.0 - 1.0 / beta) * dudt


def outer_profile_residual(point: SolutionPoint, r0: float, gradient: bool = False) -> float:
    """sup over mesh radii r >= r0 of |u - rho G(., 0)| (or radial gradients).

    The comparison field is the full-mass multiple of the Green function,
    which shares the Dirichlet boundary values, so the residual vanishes
    at r = 1 and measures how fast the bubble's influence dies off.  On the
    disk G(x, 0) = -log(r)/(2 pi), with radial derivative -1/(2 pi r).
    """
    if not 0.0 < r0 < 1.0:
        raise ParameterDomainError(f"r0 = {r0} must lie in (0, 1)")
    r = point.mesh.r
    keep = r >= r0
    if not np.any(keep):
        raise ParameterDomainError(f"no mesh nodes at radius >= {r0}")
    rk = r[keep]
    if not gradient:
        g = -np.log(rk) / TWO_PI
        return float(np.max(np.abs(point.u[keep] - point.rho * g)))
    dur = _du_dr(point)
    dg = -1.0 / (2.0 * np.pi * rk)
    return float(np.max(np.abs(dur[keep] - point.rho * dg)))


def _identity_residual(point: SolutionPoint, w, xi, f, r: float) -> float:
    """Reduced boundary-bulk identity LHS - RHS at radius r.

    w is the sum field whose radial derivative enters the boundary energy,
    xi the test field, f the difference-quotient field multiplying rho h.
    All three live on the t-mesh; the circle integrals collapse to 2 pi
    times the radial values and s^(2 alpha) s ds = (1/beta) t dt.
    """
    spec = point.spec
    mesh = point.mesh
    beta = 1.0 + spec.alpha
    rho = point.rho
    tr = r**beta
    rows = mesh.point_rows(tr, 1)
    lhs = -np.pi * beta**2 * tr**2 * float(rows[1] @ w) * float(rows[1] @ xi)
    bnd = 2.0 * np.pi * rho * spec.hstar(r) * tr**2 * float(rows[0] @ f)
    rp = mesh.r
    fac = 2.0 + 2.0 * spec.alpha + rp * spec.dlog_hstar(rp)
    hs = spec.hstar(rp)
    bulk = -(2.0 * np.pi / beta) * float(mesh.quad_to(tr) @ (rho * hs * f * fac * mesh.t))
    return lhs - (bnd + bulk)


def pohozaev_residual(point_a: SolutionPoint, point_b: SolutionPoint, r: float) -> float:
    """Boundary-bulk identity defect for two solutions at the same rho.

    The two profiles are normalized and differenced; the difference quotient is scaled by its sup norm, which
    is how the identity is applied to fold pairs.  For actual solutions
    the residual sits at quadrature round-off; fields that merely differ
    by a constant are not solutions of the same problem and produce an
    order-one residual.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"identity radius r = {r} must lie in (0, 1)")
    if point_a.spec != point_b.spec:
        raise ParameterDomainError("the two points must share one weight")
    if not np.array_equal(point_a.mesh.t, point_b.mesh.t):
        raise ParameterDomainError("the two points must share one mesh")
    scale = max(1.0, abs(point_a.rho))
    if abs(point_a.rho - point_b.rho) > 1e-10 * scale:
        raise ParameterDomainError(
            f"rho mismatch {point_a.rho - point_b.rho:.3e}; the identity needs a "
            "matched pair (rho equal to 1e-10)"
        )
    v1 = point_a.u_tilde
    v2 = point_b.u_tilde
    diff = v1 - v2
    nrm = float(np.max(np.abs(diff)))
    if nrm == 0.0:
        raise ParameterDomainError("the two profiles coincide; nothing to compare")
    xi = diff / nrm
    f = (np.exp(v1) - np.exp(v2)) / nrm
    w = v1 + v2
    return _identity_residual(point_a, w, xi, f, r)


def pohozaev_residual_linearized(point: SolutionPoint, xi, r: float) -> float:
    """Boundary-bulk identity defect for a linearized field xi.

    The difference quotient degenerates to c xi with c = e^(u - log mass),
    and the sum field to twice the solution.  A field solving the local
    mode-0 linearized equation (kernel_candidate provides one) drives the
    residual to quadrature round-off; any other smooth field gives a
    computable nonzero value, which is itself useful as a scale reference.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"identity radius r = {r} must lie in (0, 1)")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != point.u.shape:
        raise ParameterDomainError(
            f"xi has shape {xi.shape}, expected {point.u.shape}"
        )
    if not np.all(np.isfinite(xi)):
        raise ParameterDomainError("xi carries non-finite entries")
    v = point.u_tilde
    return _identity_residual(point, 2.0 * v, xi, np.exp(v) * xi, r)


def pohozaev_rows(branch: Branch, r: float):
    """The branch's boundary-bulk identity residuals at radius r.

    Returns (kind, rows, pairs) with rows of (lambda, residual).  A
    fold-flagged branch gets kind "pair": each fold pair is solved once,
    on a solver mesh of the branch's node count, and gives one row at its
    upper lambda; pairs holds the (lower, upper) points for reuse.  A
    branch without folds gets kind "eigenfield": the linearized identity
    on the local kernel candidate at every point, with no pairs.
    """
    if branch.fold_flags:
        pairs = [find_fold_pair(branch, which) for which in range(len(branch.fold_flags))]
        return "pair", [(hi.lam, pohozaev_residual(lo, hi, r)) for lo, hi in pairs], pairs
    rows = [
        (pt.lam, pohozaev_residual_linearized(pt, kernel_candidate(pt), r))
        for pt in branch.points
    ]
    return "eigenfield", rows, []


def psi1_gradient_check(point: SolutionPoint, at=(0.0, 0.0), step: float = 1e-5) -> float:
    """|grad log(hbar1 e^(R1 + psi))| at a point, by central differences.

    R1(x) = rho_1 R(x, p) with rho_1 the mass inside B(p, 1/2), and the
    harmonic correction psi vanishes identically for radial data, so the
    gradient at the origin is a direct stationarity check on the peak
    location.  Radial weights give 0 at the origin to round-off.
    """
    spec = point.spec
    ax = float(np.hypot(at[0], at[1]))
    if ax + 2.0 * step >= 1.0:
        raise ParameterDomainError(f"evaluation point |x| = {ax} too close to the boundary")
    rho1 = point.local_mass(0.5)

    def field(x, y):
        hb = spec.hbar1((x, y))
        if hb <= 0.0:
            raise ParameterDomainError("hbar1 must be positive at the evaluation point")
        return float(np.log(hb) + rho1 * regular_part((x, y), (0.0, 0.0)))

    x0, y0 = float(at[0]), float(at[1])
    gx = (field(x0 + step, y0) - field(x0 - step, y0)) / (2.0 * step)
    gy = (field(x0, y0 + step) - field(x0, y0 - step)) / (2.0 * step)
    return float(np.hypot(gx, gy))


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Sign pattern of drho/dlambda over a window, against the predicted one.

    expected_sign is -sign(ell) when the gradient coefficient is nonzero;
    with ell = 0 the e^(-lambda) law takes over and rho climbs toward the
    limit, so the expectation flips to +1.
    """

    monotone: bool
    sign: int
    expected_sign: int
    derivatives: tuple

    @property
    def ok(self) -> bool:
        return self.monotone and self.sign == self.expected_sign


def _table_points(lams, window) -> np.ndarray:
    """Which of ``lams`` the uniqueness table uses: those in the window, at least 4."""
    keep = _in_window(lams, window)
    if int(keep.sum()) < 4:
        lo, hi = float(window[0]), float(window[1])
        raise ParameterDomainError(f"only {int(keep.sum())} branch points in [{lo}, {hi}]; "
                                   "the derivative table needs at least 4")
    return keep


def check_window(lams, window, diagnostics) -> None:
    """Raise, before any point at ``lams`` is solved, the error too few of
    them in ``window`` give verify: in the rate and local_rate fits, the
    uniqueness table, then the matching and outer decay gates."""
    on = set(diagnostics)
    ones = np.ones(len(lams))
    if on & {"rate", "local_rate"}:
        _window_points(lams, ones, window)
    if "uniqueness" in on:
        _table_points(lams, window)
    if on & {"matching", "outer"}:
        _window_points(lams, ones, window)


def uniqueness_probe(branch: Branch, window=(8.0, 14.0)) -> MonotonicityVerdict:
    """Finite-difference drho/dlambda table and its sign verdict.

    A branch that stays monotone in the window cannot carry two solutions
    at one rho there; the expected sign comes from the rate law.
    """
    lams = branch.lambdas
    rhos = branch.rhos
    keep = _table_points(lams, window)
    lk = lams[keep]
    rk = rhos[keep]
    order = np.argsort(lk)
    lk, rk = lk[order], rk[order]
    der = np.diff(rk) / np.diff(lk)
    signs = np.sign(der)
    monotone = bool(np.all(signs == signs[0]) and signs[0] != 0.0)
    spec = branch.spec
    ell = ell_coefficient(spec.alpha, spec.hbar1((0.0, 0.0)), spec.lap_log_hstar0())
    expected = -int(np.sign(ell)) if ell != 0.0 else 1
    return MonotonicityVerdict(
        monotone=monotone,
        sign=int(signs[0]) if monotone else 0,
        expected_sign=expected,
        derivatives=tuple(float(v) for v in der),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of branch diagnostics with a stable JSON shape.

    A diagnostic that was not enabled is None and serializes as null.
    ``outer_gradient`` and ``uniqueness`` feed the verify gates and are not
    part of the JSON shape.
    """

    rate_fit: FitResult | None
    local_rate_fit: FitResult | None
    matching: tuple | None
    outer: tuple | None
    outer_gradient: tuple | None
    pohozaev: tuple | None
    pohozaev_kind: str | None
    b0: tuple | None
    uniqueness: MonotonicityVerdict | None
    window: tuple
    r0: float
    config_hash: str
    r2_floor: float

    def to_dict(self) -> dict:
        local = None
        if self.local_rate_fit is not None:
            local = self.local_rate_fit.to_dict(self.r2_floor)
            local["r0"] = self.r0
        poh = None
        if self.pohozaev is not None:
            poh = {"kind": self.pohozaev_kind, "radius": self.r0, "values": list(self.pohozaev)}
        return {
            "rate_fit": None if self.rate_fit is None else self.rate_fit.to_dict(self.r2_floor),
            "local_rate_fit": local,
            "matching": None if self.matching is None else list(self.matching),
            "outer": None if self.outer is None else list(self.outer),
            "pohozaev": poh,
            "b0": None if self.b0 is None else list(self.b0),
            "window": list(self.window),
            "config_hash": self.config_hash,
        }


def build_report(
    branch: Branch,
    window=(8.0, 14.0),
    r0: float = 0.25,
    outer_radius: float = 0.5,
    config_hash: str = "",
    diagnostics=DIAGNOSTIC_NAMES,
    r2_floor: float = R2_FLOOR,
) -> DiagnosticsReport:
    """Run the enabled diagnostics on one branch.

    ``diagnostics`` lists the enabled entries of DIAGNOSTIC_NAMES; the
    others stay None.  r0 is both the local-mass radius and the identity
    radius.  The identity block comes from pohozaev_rows; on a fold-flagged
    branch the b0 estimates are projections of the same fold pairs'
    normalized differences, and a branch without folds gets no b0 values.
    The fits' ``r2_ok`` flags compare r^2 with ``r2_floor``, which the
    CLI takes from the config's ``thresholds.r2_floor``, as its gate does.
    """
    on = set(diagnostics)
    pts = branch.points
    rate = rate_law_fit(branch, window) if "rate" in on else None
    local = local_rate_law_fit(branch, r0, window) if "local_rate" in on else None
    matching = outer = outer_gradient = poh = kind = b0 = verdict = None
    if "matching" in on:
        matching = tuple(matching_residual(pt) for pt in pts)
    if "outer" in on:
        outer = tuple(outer_profile_residual(pt, outer_radius) for pt in pts)
        outer_gradient = tuple(
            outer_profile_residual(pt, outer_radius, gradient=True) for pt in pts
        )
    if "pohozaev" in on:
        kind, rows, pairs = pohozaev_rows(branch, r0)
        poh = tuple(res for _, res in rows)
        b0 = []
        for lo_pt, hi_pt in pairs:
            diff = hi_pt.u_tilde - lo_pt.u_tilde
            b0.append(b0_projection(diff / np.max(np.abs(diff)), hi_pt))
        b0 = tuple(b0)
    if "uniqueness" in on:
        verdict = uniqueness_probe(branch, window)
    return DiagnosticsReport(
        rate_fit=rate,
        local_rate_fit=local,
        matching=matching,
        outer=outer,
        outer_gradient=outer_gradient,
        pohozaev=poh,
        pohozaev_kind=kind,
        b0=b0,
        uniqueness=verdict,
        window=(float(window[0]), float(window[1])),
        r0=float(r0),
        config_hash=config_hash,
        r2_floor=r2_floor,
    )
