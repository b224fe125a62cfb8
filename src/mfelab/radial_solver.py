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
stays monotone through folds in rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

#: fewest cold targets a continuation hands to ``workers.shared`` as rows;
#: a shorter cold tail is solved in the block, since a fork costs more
COLD_ROWS_MIN = 3

#: Newton iteration cap of ``newton_solve``
NEWTON_MAX_ITER = 50

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


def _residual_map(spec: WeightSpec, mesh: RadialMesh):
    """The t-form equation on ``mesh`` as a map (u, rho) -> (G, d, mw, scale, log_mass).

    G = lap u + d is the residual with d the nonlinear term, mw the
    mass-derivative weights dM/du_j / M (they sum to 1) and scale the row
    scales |lap| |u| + |d|.  G is a dense BLAS matvec on rows that live as
    long as the map, because a band matvec sums in another order and the
    fold root finding amplifies that to ~1e-9 in lambda; the row scales
    come from a band matvec.
    """
    beta = 1.0 + spec.alpha
    lap_band = mesh.lap_band(1.0)
    lap = mesh.dense(lap_band)
    abs_band = np.abs(lap_band)
    hstar = np.asarray(spec.hstar(mesh.r))
    log_weight = _log_weight(spec, mesh)

    def parts(u, rho):
        logs = log_weight + u
        log_mass = _log_mass(logs, mesh)
        d = (rho / beta**2) * hstar * np.exp(u - log_mass)
        G = lap @ u + d
        scale = band_matvec(abs_band, np.abs(u)) + np.abs(d) + 1e-30
        return G, d, mesh.quad * np.exp(logs - log_mass), scale, log_mass

    return parts


def residual(u, rho, spec: WeightSpec, mesh: RadialMesh) -> np.ndarray:
    """Pointwise residual Delta u + rho h e^u / M in the plane variables."""
    u = np.asarray(u, dtype=float)
    if u.shape != mesh.t.shape:
        raise ParameterDomainError("field and mesh sizes differ")
    if abs(float(u[-1])) > 1e-9:
        raise ParameterDomainError("field must vanish at r = 1")
    beta = 1.0 + spec.alpha
    G = _residual_map(spec, mesh)(u, rho)[0]
    return (beta**2 * mesh.t ** (2.0 - 2.0 / beta)) * G


def _norm_rows(G, scale, u_last):
    return max(float(np.max(np.abs(G[:-1]) / scale[:-1])), abs(float(u_last)))


def newton_solve(
    spec: WeightSpec,
    mesh: RadialMesh,
    *,
    rho: float | None = None,
    lam: float | None = None,
    initial: np.ndarray | None = None,
    tol: float = 1e-11,
) -> SolutionPoint:
    """Solve the discrete problem at fixed rho, or at fixed lambda with rho
    as the extra unknown closed by u~(0) = lambda (fold-robust mode).

    Residuals are measured componentwise against the row magnitude, so the
    convergence criterion is a backward-relative one; convergence also
    requires the final Newton update to be sqrt(tol)-small, which guards
    the ill-conditioned fixed-rho solves near the mass asymptote.  Raw
    residual fields are available through ``residual``.
    """
    if (rho is None) == (lam is None):
        raise ParameterDomainError("fix exactly one of rho or lam")
    for name, value in (("rho", rho), ("lam", lam)):
        if value is not None and not math.isfinite(value):
            raise ParameterDomainError(f"{name} must be finite, got {value!r}")
    beta = 1.0 + spec.alpha
    bw = mesh.bandwidth
    n = mesh.n

    if rho is not None and rho == 0.0:
        return SolutionPoint(spec, mesh, np.zeros(n), 0.0, 0.0, 0)

    parts = _residual_map(spec, mesh)
    lap_band = mesh.lap_band(1.0)
    on_diag = np.arange(2 * bw + 1) == bw

    if initial is None:
        if lam is not None:
            u = blowup_initial_guess(lam, spec, mesh)
        else:
            u = np.zeros(n)
    else:
        u = np.array(initial, dtype=float)
        if u.shape != (n,) or not np.all(np.isfinite(u)):
            raise ParameterDomainError("initial guess must be finite on the mesh")
    u[-1] = 0.0
    rho_cur = float(rho) if rho is not None else EIGHT_PI * beta

    e0 = mesh.point_rows(0.0, 0)[0] if lam is not None else None
    singular = (
        "Jacobian is singular at fixed rho (possible fold); "
        "use the lambda-parameterized solve instead"
        if lam is None
        else "singular Jacobian in lambda mode"
    )

    def full_residual(u_, rho_):
        G, d, mw, scale, log_mass = parts(u_, rho_)
        rn = _norm_rows(G, scale, u_[-1])
        if lam is not None:
            C = float(e0 @ u_) - log_mass - lam
            rn = max(rn, abs(C) / (1.0 + abs(lam)))
        else:
            C = 0.0
        return G, d, mw, rn, C

    G, d, mw, rn, C = full_residual(u, rho_cur)
    trace = [rn]
    iters = 0
    # a small residual alone is not enough near the mass asymptote: the
    # fixed-rho Jacobian is nearly singular along the family direction and
    # hides O(sqrt(tol)) errors behind an O(tol) residual, so convergence
    # also requires the last Newton update to be small
    step_norm = np.inf
    for _ in range(NEWTON_MAX_ITER):
        if rn <= tol and step_norm <= np.sqrt(tol) * (1.0 + np.max(np.abs(u))):
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
        columns = [rhs / s]
        if lam is not None:
            # rho is the extra unknown: its column d / rho, eliminated
            # through the constraint u(0) - log M = lam
            b = d / rho_cur
            b[-1] = 0.0
            columns.append(b / s)
        solve, denom, info = mesh.band_solver(A / s[:, None], (-dcol / s, mw))
        if info < 0:
            raise SolverError("Newton system is not finite", trace)
        if info > 0:
            raise SolverError(f"band LU of the Newton matrix failed (dgbtrf info {info})", trace)
        if not 1e-12 <= abs(denom) < math.inf:
            raise SolverError(singular, trace)
        x = solve(np.column_stack(columns)).T
        du = x[0]
        drho = 0.0
        if lam is not None:
            x2 = x[1]
            c = e0 - mw
            c_x2 = float(c @ x2)
            if c_x2 == 0.0:
                raise SolverError("degenerate lambda constraint", trace)
            drho = (C + float(c @ du)) / c_x2
            du = du - drho * x2
        if not np.all(np.isfinite(du)):
            raise SolverError(singular, trace)

        step = 1.0
        accepted = False
        for _ in range(40):
            u_try = u + step * du
            rho_try = rho_cur + step * drho
            if rho_try > 0.0 and np.all(np.isfinite(u_try)):
                try:
                    G_t, d_t, mw_t, rn_t, C_t = full_residual(u_try, rho_try)
                except (SolverError, FloatingPointError):
                    rn_t = np.inf
                if rn_t <= tol or rn_t <= (1.0 - 0.25 * step) * rn:
                    u, rho_cur = u_try, rho_try
                    G, d, mw, rn, C = G_t, d_t, mw_t, rn_t, C_t
                    step_norm = step * max(float(np.max(np.abs(du))), abs(drho))
                    accepted = True
                    break
            step *= 0.5
        iters += 1
        trace.append(rn)
        if not accepted:
            raise SolverError(
                f"line search stalled at residual {rn:.3e}"
                + (" (possible fold); use the lambda-parameterized solve" if lam is None else ""),
                trace,
            )
    else:
        raise SolverError(f"no convergence in {NEWTON_MAX_ITER} iterations", trace)

    return SolutionPoint(spec, mesh, u, rho_cur, rn, iters)


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
    G, _, _, scale, _ = _residual_map(spec, mesh)(u, rho)
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


def _warm_guess(prev: SolutionPoint | None, lam: float, spec, mesh) -> np.ndarray:
    if prev is None or lam >= COLD_START:
        return blowup_initial_guess(lam, spec, mesh)
    u = np.interp(mesh.t, prev.mesh.t, prev.u)
    u[-1] = 0.0
    return u


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
    ones run here, as the block of one ``workers.shared`` job whose rows
    are the remaining, cold targets, when there are at least COLD_ROWS_MIN
    of them (a shorter cold tail runs in the block too): each row is one
    Newton solve, packed as an ok flag, rho, residual, Newton count, field
    and ``RadialMesh.to_row``, so no process rebuilds a mesh another one
    built.
    The points are then taken in target order; a row whose solve failed
    goes through ``_advance`` (the same solve again, then bisection), so
    the branch is the serial march's bit for bit.  A failed prefix leaves
    the block by its exception, so no row is computed; past it, every row
    is computed before a failed cold row is met.
    """
    if steps < 1:
        raise ParameterDomainError("steps must be at least 1")
    if lambda_end < lambda_start:
        raise ParameterDomainError("lambda_end must not precede lambda_start")
    if steps == 1 and lambda_end > lambda_start:
        raise ParameterDomainError("one step reaches lambda_start only; lambda_end needs steps >= 2")
    beta = 1.0 + spec.alpha
    count = steps if lambda_end > lambda_start else 1
    targets = np.linspace(lambda_start, lambda_end, count).tolist()
    warm = max(1, sum(target < COLD_START for target in targets))
    if len(targets) - warm < COLD_ROWS_MIN:
        warm = len(targets)
    width = 4 + nodes + RadialMesh.row_size(nodes)

    def cold(i: int) -> np.ndarray:
        target = targets[warm + i]
        mesh = solver_mesh(nodes, beta, target)
        row = np.zeros(width)
        try:
            pt = newton_solve(spec, mesh, lam=target, initial=_warm_guess(None, target, spec, mesh))
        except SolverError:
            return row
        row[:4] = 1.0, pt.rho, pt.res_norm, pt.newton_iters
        row[4 : 4 + nodes] = pt.u
        row[4 + nodes :] = mesh.to_row()
        return row

    points: list[SolutionPoint] = []
    failure = None
    state: SolutionPoint | None = None
    target = targets[0]
    try:
        with shared(cold, len(targets) - warm, width) as table:
            for target in targets[:warm]:
                state = _advance(state, target, spec, nodes, beta)
                points.append(state)
        for target, row in zip(targets[warm:], table):
            if row[0]:
                mesh = RadialMesh.from_row(row[4 + nodes :], beta)
                state = SolutionPoint(spec, mesh, row[4 : 4 + nodes], row[1], row[2], int(row[3]))
            else:
                state = _advance(state, target, spec, nodes, beta)
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
            pt = newton_solve(
                spec, mesh, lam=lam_next, initial=_warm_guess(current, lam_next, spec, mesh)
            )
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
    process takes the upper one, each packed into a row as rho, residual,
    Newton count and field, and both points are rebuilt from the table.
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

    def root(i: int) -> np.ndarray:
        # root 0 below the fold flag, root 1 above it; _brentq returns an
        # abscissa it evaluated, so the root is cached
        pt = cache[_brentq(rho_at, float(lams[k - 1 + i]), float(lams[k + i]), xtol=1e-13)]
        return np.concatenate([[pt.rho, pt.res_norm, pt.newton_iters], pt.u])

    with shared(root, 2, 3 + mesh.n) as table:
        pass
    pa, pb = (SolutionPoint(spec, mesh, row[3:], row[0], row[1], int(row[2])) for row in table)
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
