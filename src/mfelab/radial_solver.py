"""Radial solver and continuation for the nonlocal mean field equation.

The problem is -Delta u = rho h e^u / int_D h e^u with u = 0 on the unit
circle and h = hstar(x) |x|^(2 alpha).  In the compressed variable
t = r^(1+alpha) the singular weight disappears:

    u_tt + u_t/t + (rho / beta^2) hstar(t^(1/beta)) e^u / M = 0,

with beta = 1 + alpha and M the total mass integral.  Newton iterations
carry the exact rank-one Jacobian of the nonlocal term, so convergence
stays quadratic arbitrarily close to blow up; ``RadialMesh.band_solver``
owns the band LU and the Sherman-Morrison step of that rank-one term.  The
continuation parameter is lambda = max of the normalized solution, which
stays monotone through folds in rho; so every solve fixes lambda and
carries rho as the extra unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    NotApplicableError,
    ParameterDomainError,
    SolverError,
)
from .greens import WeightSpec
from .meshing import RadialMesh, band_matvec
from .workers import shared

EIGHT_PI = 8.0 * np.pi

#: continuation sub-step floor; below this a failing step aborts the branch
MIN_STEP = 1e-3

#: continuation targets at or above this height start Newton from
#: ``blowup_initial_guess``, not from the previous point
COLD_START = 4.0

#: fewest cold targets a continuation hands to ``workers.shared`` as items;
#: a shorter cold tail is solved in the block, since a fork costs more
COLD_ROWS_MIN = 3

#: Newton iteration cap and residual tolerance of ``newton_solve``
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-11

#: Brent root finder: relative tolerance and iteration cap of scipy's brentq
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


def solver_mesh(nodes: int, beta: float, lam: float) -> RadialMesh:
    """The solver's mesh of ``nodes`` nodes at blow-up height ``lam``.

    The sinh strength max(2, lam/2 + 2) keeps the first node below the
    bubble core scale, which shrinks like e^(-lam/2) in t, without starving
    the mid-range where curvature actually lives.  Solver meshes never go
    below 64 nodes.
    """
    if nodes < 64:
        raise ParameterDomainError("solver meshes need at least 64 nodes")
    return RadialMesh.graded(nodes, beta, max(2.0, lam / 2.0 + 2.0))


def _log_weight(spec: WeightSpec, mesh: RadialMesh) -> np.ndarray:
    """log((2 pi / beta) t hstar) at the nodes: M = int_D h e^u is the
    quadrature of exp(_log_weight + u) over t."""
    beta = 1.0 + spec.alpha
    return np.log(2.0 * np.pi / beta * mesh.t * np.asarray(spec.hstar(mesh.r)))


def _log_mass(logs: np.ndarray, mesh: RadialMesh) -> float:
    """log of the quadrature of exp(logs), in scaled-exponential form so
    large peaks never overflow."""
    top = float(np.max(logs))
    s = float(mesh.quad @ np.exp(logs - top))
    if not s > 0.0:
        raise SolverError("mass integral lost positivity")
    return top + np.log(s)


def mass_integral(u: np.ndarray, spec: WeightSpec, mesh: RadialMesh):
    """log and value of M = int_D h e^u."""
    log_mass = _log_mass(_log_weight(spec, mesh) + u, mesh)
    return log_mass, np.exp(log_mass)


class SolutionPoint:
    """One converged radial solution with its derived scalars.

    Immutable once constructed; field arrays are write-locked so points can
    be shared freely between diagnostics and with the forked workers that
    inherit them (the package runs no threads).
    """

    def __init__(
        self,
        spec: WeightSpec,
        mesh: RadialMesh,
        u: np.ndarray,
        rho: float,
        res_norm: float,
        newton_iters: int,
    ):
        self.spec = spec
        self.mesh = mesh
        self.u = np.array(u, dtype=float)
        self.u.setflags(write=False)
        self.rho = float(rho)
        self.res_norm = float(res_norm)
        self.newton_iters = int(newton_iters)
        self.log_mass, self.mass_total = mass_integral(self.u, spec, mesh)

    @cached_property
    def u_tilde(self) -> np.ndarray:
        v = self.u - self.log_mass
        v.setflags(write=False)
        return v

    @cached_property
    def lam(self) -> float:
        u0 = float(self.mesh.point_rows(0.0, 0)[0] @ self.u)
        return u0 - self.log_mass

    @cached_property
    def gamma(self) -> float:
        beta = 1.0 + self.spec.alpha
        return self.rho * self.spec.hstar(0.0) / (8.0 * beta * beta)

    @cached_property
    def sigma(self) -> float:
        return float(np.exp(-self.lam / (2.0 * (1.0 + self.spec.alpha))))

    def local_mass(self, r0: float) -> float:
        """rho times the mass fraction of B(0, r0): rho int_{B_r0} h e^(u~)."""
        if not 0.0 < r0 <= 1.0:
            raise ParameterDomainError("r0 must lie in (0, 1]")
        q = self.mesh.quad_to(r0 ** (1.0 + self.spec.alpha))
        logs = _log_weight(self.spec, self.mesh) + self.u
        return self.rho * float(q @ np.exp(logs - self.log_mass))


@dataclass(frozen=True)
class Branch:
    """Ordered lambda-increasing family of solutions of one configuration.

    ``nodes`` is the node count of the solver meshes the points were solved
    on; fold pairs are solved on a mesh of that count too.
    """

    spec: WeightSpec
    points: tuple[SolutionPoint, ...]
    fold_flags: tuple[int, ...] = ()
    failure: dict | None = None
    nodes: int = 512

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def rhos(self) -> np.ndarray:
        return np.array([p.rho for p in self.points])


# assembly ----------------------------------------------------------------


@lru_cache(maxsize=1)
def _residual_map(spec: WeightSpec, mesh: RadialMesh):
    """The t-form equation on ``mesh``: ``(parts, lap_band, e0)``.

    ``parts`` maps (u, rho) -> (G, d, mw, scale, log_mass): G = lap u + d
    is the residual with d the nonlinear term, mw the mass-derivative
    weights dM/du_j / M (they sum to 1) and scale the row scales
    |lap| |u| + |d|.  ``lap_band`` is the Laplacian's row band and ``e0``
    the row that evaluates u at the origin, the mesh-only parts of Newton's
    system.  lap u is ``RadialMesh.slab_matvec``'s product, the dense BLAS
    matvec's bits without the n x n matrix, because a band matvec sums in
    another order and the fold root finding amplifies that to ~1e-9 in
    lambda; the row scales come from a band matvec.  The last map is
    cached: a fold root's Brent solves all run on one mesh and share it.
    """
    beta = 1.0 + spec.alpha
    lap_band = mesh.lap_band(1.0)
    lap = mesh.slab_matvec(lap_band)
    abs_band = np.abs(lap_band)
    hstar = np.asarray(spec.hstar(mesh.r))
    log_weight = _log_weight(spec, mesh)
    e0 = mesh.point_rows(0.0, 0)[0]
    for arr in (lap_band, e0):
        arr.setflags(write=False)

    def parts(u, rho):
        logs = log_weight + u
        log_mass = _log_mass(logs, mesh)
        d = (rho / beta**2) * hstar * np.exp(u - log_mass)
        G = lap(u) + d
        scale = band_matvec(abs_band, np.abs(u)) + np.abs(d) + 1e-30
        return G, d, mesh.quad * np.exp(logs - log_mass), scale, log_mass

    return parts, lap_band, e0


def residual(u, rho, spec: WeightSpec, mesh: RadialMesh) -> np.ndarray:
    """Pointwise residual Delta u + rho h e^u / M in the plane variables."""
    u = np.asarray(u, dtype=float)
    if u.shape != mesh.t.shape:
        raise ParameterDomainError("field and mesh sizes differ")
    if abs(float(u[-1])) > 1e-9:
        raise ParameterDomainError("field must vanish at r = 1")
    beta = 1.0 + spec.alpha
    G = _residual_map(spec, mesh)[0](u, rho)[0]
    return (beta**2 * mesh.t ** (2.0 - 2.0 / beta)) * G


def _norm_rows(G, scale, u_last):
    return max(float(np.max(np.abs(G[:-1]) / scale[:-1])), abs(float(u_last)))


def newton_solve(
    spec: WeightSpec,
    mesh: RadialMesh,
    *,
    lam: float,
    initial: np.ndarray | None = None,
) -> SolutionPoint:
    """Solve the discrete problem at fixed lambda, from ``initial`` or else
    ``blowup_initial_guess``, with rho as the extra unknown closed by
    u~(0) = lambda; the solve holds through folds in rho.

    Residuals are measured componentwise against the row magnitude, so the
    convergence criterion is a backward-relative one at NEWTON_TOL.  Raw
    residual fields are available through ``residual``.  The residual map,
    the Laplacian band and the origin row come from ``_residual_map``, so
    solves in a row on one mesh build them once.
    """
    if not math.isfinite(lam):
        raise ParameterDomainError(f"lam must be finite, got {lam!r}")
    bw = mesh.bandwidth
    parts, lap_band, e0 = _residual_map(spec, mesh)
    on_diag = np.arange(2 * bw + 1) == bw

    if initial is None:
        u = blowup_initial_guess(lam, spec, mesh)
    else:
        u = np.array(initial, dtype=float)
        if u.shape != (mesh.n,) or not np.all(np.isfinite(u)):
            raise ParameterDomainError("initial guess must be finite on the mesh")
    u[-1] = 0.0
    rho = EIGHT_PI * (1.0 + spec.alpha)

    def full_residual(u_, rho_):
        G, d, mw, scale, log_mass = parts(u_, rho_)
        C = float(e0 @ u_) - log_mass - lam
        rn = max(_norm_rows(G, scale, u_[-1]), abs(C) / (1.0 + abs(lam)))
        return G, d, mw, rn, C

    G, d, mw, rn, C = full_residual(u, rho)
    trace = [rn]
    iters = 0
    # the row-scaled residual can fall below NEWTON_TOL after an update
    # above sqrt(NEWTON_TOL) (1 + max|u|), as the first one from a close
    # ansatz often does; that update leaves an error of its size squared,
    # so convergence also requires the last update to be small
    step_norm = np.inf
    for _ in range(NEWTON_MAX_ITER):
        if rn <= NEWTON_TOL and step_norm <= np.sqrt(NEWTON_TOL) * (1.0 + np.max(np.abs(u))):
            break
        # the Jacobian is lap + diag(d) - d mw^T with a Dirichlet last row;
        # each row is scaled by the largest entry of its band part
        A = lap_band + np.where(on_diag, d[:, None], 0.0)
        A[-1] = 0.0
        A[-1, bw] = 1.0
        s = np.max(np.abs(A), axis=1)
        dcol = d.copy()
        dcol[-1] = 0.0
        rhs = -G
        rhs[-1] = -u[-1]
        # rho's column d / rho, eliminated through u(0) - log M = lam
        b = d / rho
        b[-1] = 0.0
        solve, denom, info = mesh.band_solver(A / s[:, None], (-dcol / s, mw))
        if info < 0:
            raise SolverError("Newton system is not finite", trace)
        if info > 0:
            raise SolverError(f"band LU of the Newton matrix failed (dgbtrf info {info})", trace)
        if not 1e-12 <= abs(denom) < math.inf:
            raise SolverError("singular Jacobian in lambda mode", trace)
        du, x2 = solve(np.column_stack([rhs / s, b / s])).T
        c = e0 - mw
        c_x2 = float(c @ x2)
        if c_x2 == 0.0:
            raise SolverError("degenerate lambda constraint", trace)
        drho = (C + float(c @ du)) / c_x2
        du = du - drho * x2
        if not np.all(np.isfinite(du)):
            raise SolverError("singular Jacobian in lambda mode", trace)

        step = 1.0
        accepted = False
        for _ in range(40):
            u_try = u + step * du
            rho_try = rho + step * drho
            if rho_try > 0.0 and np.all(np.isfinite(u_try)):
                try:
                    G_t, d_t, mw_t, rn_t, C_t = full_residual(u_try, rho_try)
                except (SolverError, FloatingPointError):
                    rn_t = np.inf
                if rn_t <= NEWTON_TOL or rn_t <= (1.0 - 0.25 * step) * rn:
                    u, rho = u_try, rho_try
                    G, d, mw, rn, C = G_t, d_t, mw_t, rn_t, C_t
                    step_norm = step * max(float(np.max(np.abs(du))), abs(drho))
                    accepted = True
                    break
            step *= 0.5
        iters += 1
        trace.append(rn)
        if not accepted:
            raise SolverError(f"line search stalled at residual {rn:.3e}", trace)
    else:
        raise SolverError(f"no convergence in {NEWTON_MAX_ITER} iterations", trace)

    return SolutionPoint(spec, mesh, u, rho, rn, iters)


# closed-form family and initial data --------------------------------------


def exact_disk_family(
    alpha: float,
    m: float,
    mesh: RadialMesh | None = None,
    spec: WeightSpec | None = None,
) -> SolutionPoint:
    """The analytic branch for constant hstar:

        u(r) = 2 log((1+m)/(1+m r^(2 beta))),
        rho(m) = 8 pi beta m/(1+m),  lambda(m) = log(beta (1+m)/pi).

    Exact for any positive constant factor (it cancels in the mass ratio).
    """
    if spec is None:
        spec = WeightSpec(alpha=alpha)
    if spec.kind != "constant":
        raise NotApplicableError("the closed-form family needs constant hstar")
    if spec.alpha != alpha:
        raise ParameterDomainError("spec.alpha disagrees with alpha")
    if not m > 0.0:
        raise ParameterDomainError("the family parameter m must be positive")
    beta = 1.0 + alpha
    lam = np.log(beta * (1.0 + m) / np.pi)
    if mesh is None:
        mesh = solver_mesh(512, beta, lam)
    u = 2.0 * (np.log1p(m) - np.log1p(m * mesh.t**2))
    rho = EIGHT_PI * beta * m / (1.0 + m)
    G, _, _, scale, _ = _residual_map(spec, mesh)[0](u, rho)
    return SolutionPoint(spec, mesh, u, rho, _norm_rows(G, scale, u[-1]), 0)


def approximate_profile(lam: float, spec: WeightSpec, r):
    """The inner bubble ansatz at height lambda on the normalized scale:

        U(r) = lambda - 2 log(1 + gamma e^lambda r^(2 beta)),

    with gamma evaluated at the limit mass rho = 8 pi beta.  U(0) = lambda
    and U decreases strictly in r.
    """
    beta = 1.0 + spec.alpha
    gamma = np.pi * float(spec.hstar(0.0)) / beta
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        x = np.log(gamma) + lam + 2.0 * beta * np.log(r)
    out = lam - 2.0 * np.logaddexp(0.0, x)
    return out if out.ndim else float(out)


def blowup_initial_guess(lam: float, spec: WeightSpec, mesh: RadialMesh) -> np.ndarray:
    """Newton initial data: the bubble ansatz raised to the raw scale and
    blended into the Green-function far field over [0.25, 0.5]."""
    beta = 1.0 + spec.alpha
    gamma = np.pi * float(spec.hstar(0.0)) / beta
    r = mesh.r
    inner = approximate_profile(lam, spec, r) + lam + 2.0 * np.log(gamma)
    outer = -4.0 * beta * np.log(r)
    s = np.clip((r - 0.25) / 0.25, 0.0, 1.0)
    w = 1.0 - s * s * (3.0 - 2.0 * s)
    u = w * inner + (1.0 - w) * outer
    u[-1] = 0.0
    return u


# continuation --------------------------------------------------------------


def _warm_guess(prev: SolutionPoint | None, lam: float, mesh) -> np.ndarray | None:
    """``prev`` on ``mesh``; None (Newton's ansatz start) without it or from COLD_START on."""
    if prev is None or lam >= COLD_START:
        return None
    u = np.interp(mesh.t, prev.mesh.t, prev.u)
    u[-1] = 0.0
    return u


def branch_targets(lambda_start: float, lambda_end: float, steps: int) -> list[float]:
    """The uniform lambda grid of ``continue_branch``, endpoints included."""
    if steps < 1:
        raise ParameterDomainError("steps must be at least 1")
    if lambda_end < lambda_start:
        raise ParameterDomainError("lambda_end must not precede lambda_start")
    if steps == 1 and lambda_end > lambda_start:
        raise ParameterDomainError("one step reaches lambda_start only; lambda_end needs steps >= 2")
    count = steps if lambda_end > lambda_start else 1
    return np.linspace(lambda_start, lambda_end, count).tolist()


def continue_branch(
    lambda_start: float,
    lambda_end: float,
    steps: int,
    spec: WeightSpec,
    nodes: int = 512,
) -> Branch:
    """March the branch over a uniform lambda grid (inclusive endpoints).

    Each point is solved on ``solver_mesh(nodes, beta, lambda)``, so the
    mesh follows the shrinking core scale; fewer than 64 nodes is a
    ParameterDomainError.  Failing targets are bridged by bisecting
    sub-steps down to MIN_STEP; if that floor is hit, the partial branch
    is returned with failure diagnostics instead of raising.

    Targets below COLD_START start Newton from the previous point, the
    others from ``blowup_initial_guess``.  The first target and the warm
    ones run here, as the block of one ``workers.shared`` job whose items
    are the remaining, cold targets, when there are at least COLD_ROWS_MIN
    of them (a shorter cold tail runs in the block too): each item is one
    Newton solve's point, mesh included, so no process rebuilds a mesh
    another one built, or None where the solve failed.
    The points are then taken in target order; a target whose solve failed
    goes through ``_advance`` (the same solve again, then bisection), so
    the branch is the serial march's bit for bit.  A failed prefix leaves
    the block by its exception, so no item is computed; past it, every
    item is computed before a failed cold target is met.
    """
    beta = 1.0 + spec.alpha
    targets = branch_targets(lambda_start, lambda_end, steps)
    warm = max(1, sum(target < COLD_START for target in targets))
    if len(targets) - warm < COLD_ROWS_MIN:
        warm = len(targets)

    def cold(i: int) -> SolutionPoint | None:
        target = targets[warm + i]
        try:
            return newton_solve(spec, solver_mesh(nodes, beta, target), lam=target)
        except SolverError:
            return None

    points: list[SolutionPoint] = []
    failure = None
    state: SolutionPoint | None = None
    target = targets[0]
    try:
        with shared(cold, len(targets) - warm) as solved:
            for target in targets[:warm]:
                state = _advance(state, target, spec, nodes, beta)
                points.append(state)
        for target, pt in zip(targets[warm:], solved):
            state = pt or _advance(state, target, spec, nodes, beta)
            points.append(state)
    except SolverError as err:
        failure = {
            "lambda_target": target,
            "reason": str(err),
            "trace": list(getattr(err, "trace", [])),
        }

    rhos = np.array([p.rho for p in points])
    signs = np.sign(np.diff(rhos))
    flips = [i for i in range(1, len(signs)) if signs[i] != 0 and signs[i - 1] != 0 and signs[i] != signs[i - 1]]
    return Branch(spec, tuple(points), tuple(flips), failure, nodes)


def _advance(state, target, spec, nodes, beta) -> SolutionPoint:
    pending = [target]
    current = state
    while pending:
        lam_next = pending[-1]
        mesh = solver_mesh(nodes, beta, lam_next)
        try:
            pt = newton_solve(spec, mesh, lam=lam_next, initial=_warm_guess(current, lam_next, mesh))
        except SolverError:
            # with no previous point, bisect toward a fixed floor below the target
            base = current.lam if current is not None else target - 1.0
            if lam_next - base <= MIN_STEP:
                raise
            pending.append(0.5 * (base + lam_next))
            continue
        pending.pop()
        current = pt
    return current


def find_fold_pair(branch: Branch, which: int = 0):
    """Two solutions sharing one rho across a fold, on a common mesh.

    Root-finds rho(lambda) = rho_target on both sides of the flagged fold;
    the returned pair matches in rho to ~1e-12 relative, which is what the
    pairwise boundary-bulk identity checks require.  The mesh is the
    solver mesh of the branch's own node count, graded for the flag's
    upper neighbour.  The two roots are found at once, through
    ``workers.shared``: a forked worker claims the lower root while this
    process takes the upper one, each handed back as field, rho, residual
    and Newton count, and both points are rebuilt here on the one mesh.
    Inside another job (verify's, whose block builds the report) nothing
    forks, and this process finds both roots in turn.
    """
    if not branch.fold_flags:
        raise NotApplicableError("branch carries no fold flags")
    k = branch.fold_flags[which]
    spec = branch.spec
    beta = 1.0 + spec.alpha
    lams, rhos = branch.lambdas, branch.rhos
    if not 0 < k < len(lams) - 1:
        raise NotApplicableError("fold flag sits at the branch edge")
    # one shared mesh, resolved for the larger lambda side
    mesh = solver_mesh(branch.nodes, beta, float(lams[k + 1]))
    rho_target = 0.5 * (float(rhos[k]) + max(float(rhos[k - 1]), float(rhos[k + 1])))

    cache: dict[float, SolutionPoint] = {}

    def rho_at(lam: float) -> float:
        pt = newton_solve(spec, mesh, lam=lam)
        cache[lam] = pt
        return pt.rho - rho_target

    def root(i: int):
        # root 0 below the fold flag, root 1 above it; _brentq returns an
        # abscissa it evaluated, so the root is cached
        pt = cache[_brentq(rho_at, float(lams[k - 1 + i]), float(lams[k + i]), xtol=1e-13)]
        return pt.u, pt.rho, pt.res_norm, pt.newton_iters

    with shared(root, 2) as roots:
        pass
    pa, pb = (SolutionPoint(spec, mesh, *fields) for fields in roots)
    if abs(pa.rho - pb.rho) > 1e-9 * abs(rho_target):
        raise SolverError(
            f"fold pair rho mismatch {abs(pa.rho - pb.rho):.3e}"
        )
    return pa, pb


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq.c`` with its defaults
    (rtol = 4 eps, 100 iterations), so it evaluates f at the same points
    and returns the same float.  A bracket without a sign change, a NaN
    value or an exhausted iteration budget raises SolverError.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError(f"root finder met NaN at x = {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError(
            f"no sign change on [{xpre!r}, {xcur!r}]: f = {fpre!r}, {fcur!r}"
        )
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an inf or NaN here, which the test below bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError(f"no root within {BRENT_MAXITER} Brent iterations; last x = {xcur!r}")
