"""Fourier-mode decomposition of the nonlocal linearized operator.

Angular mode k of the linearization at a solution point reduces, after the
substitution t = r^beta and the folding phi = t^kappa g with kappa = k/beta,
to

    R_k g = g'' + (2 kappa + 1) g'/t + V g,      V = rho hstar e^u / beta^2,

plus, for k = 0 only, the nonlocal rank-one term -V <g> where <g> is the
V-weighted average over the disk (the angular average of the nonlocal
coupling vanishes for k >= 1).  Reported eigenvalues are those of the
weighted problem R_k g = eps V g, which is invariant under rescaling of t
and therefore directly comparable between the disk, the inner blow-up
region and the entire-space limit operator.

The local block B is kept as the interior row band of the mesh (see
``meshing``) and factored once per spectrum by LAPACK's band LU
(``dgbtrf``).  The spectra are computed in standard shift-invert form:
ARPACK iterates with OP = (B + u v^T)^-1 W, where u v^T is the rank-one
part and W = diag(V), so each Arnoldi step is one multiply by the weight
and one band LU solve (``dgbtrs``, with a Sherman-Morrison correction).
ARPACK's generalized mode would orthogonalise in the W inner product and
spend extra weight products on every step for the same eigenvalues.  A
scan over modes starts each mode's Arnoldi run from the previous mode's
eigenvector at the same point, which lies close to the wanted
eigenvectors and saves restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spl
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import NotApplicableError, ParameterDomainError, SpectrumError
from .meshing import RadialMesh, band_matvec
from .radial_solver import SolutionPoint

__all__ = [
    "ModeOperator",
    "ModeSpectrum",
    "NondegeneracyScan",
    "b0_projection",
    "build_mode_operator",
    "entire_mode_operator",
    "inner_mode_operator",
    "kernel_candidate",
    "mode_spectrum",
    "nondegeneracy_scan",
]

KERNEL_FLAG_TOL = 1e-8


@dataclass(frozen=True)
class ModeOperator:
    """Discrete mode-k operator in folded form, with its eigenvalue weight.

    ``band`` is the interior part of the local operator (derivative rows
    plus the potential on the diagonal) as an (n - 1, 2 * bandwidth + 1)
    row band of ``mesh``: the rows and columns of the boundary unknown are
    left out, so ``mesh.dense(band)`` is the (n - 1) x (n - 1) interior
    block.  ``rank_one`` holds an optional (u, v) pair so that the full
    interior matrix is dense(band) + outer(u, v).  For the disk operator
    the pair carries the k = 0 nonlocal projection; for truncated
    far-field operators it carries the boundary-condition elimination.
    ``weight`` is the interior sample of V for the weighted eigenproblem;
    ``_lap`` holds the full-mesh operator rows as a mesh row band.
    """

    k: int
    kappa: float
    mesh: RadialMesh
    band: np.ndarray
    weight: np.ndarray
    boundary: str
    rank_one: tuple[np.ndarray, np.ndarray] | None = None
    bc_elim: np.ndarray | None = None
    _lap: np.ndarray | None = field(default=None, repr=False)
    _v_full: np.ndarray | None = field(default=None, repr=False)
    _nu: np.ndarray | None = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        """Dense interior matrix including any rank-one part."""
        block = self.mesh.dense(self.band)
        if self.rank_one is None:
            return block
        u, v = self.rank_one
        return block + np.outer(u, v)

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Differential action on a full-mesh field, interior rows only.

        The boundary row is a boundary condition, not a differential
        statement, so it is excluded.
        """
        phi = np.asarray(phi, dtype=float)
        if self._lap is None or self._v_full is None:
            raise NotApplicableError("operator was built without full-mesh rows")
        if phi.shape != (self._lap.shape[0],):
            raise ParameterDomainError("field length does not match the mesh")
        out = self.mesh.dense(self._lap) @ phi + self._v_full * phi
        if self._nu is not None:
            out = out - self._v_full * float(self._nu @ phi)
        return out[:-1]


@dataclass(frozen=True)
class ModeSpectrum:
    """Smallest-magnitude eigenvalues of a mode operator.

    Imaginary parts of the computed eigenvalues are numerical noise (the
    operator is self-adjoint in the weighted inner product); their maximum
    is reported in ``imag_noise``.
    """

    k: int
    eigenvalues: np.ndarray
    smallest_magnitude: float
    eigenvector_0: np.ndarray
    imag_noise: float


def _folded_lap(mesh: RadialMesh, kappa: float) -> np.ndarray:
    return mesh.lap_band(2.0 * kappa + 1.0)


def _interior_block(mesh: RadialMesh, lap: np.ndarray, V: np.ndarray):
    """The operator rows without the boundary unknown, from the band ``lap``.

    Returns the (n - 1)-row band of lap[:-1, :-1] + diag(V[:-1]) and the
    coupling column lap[:-1, -1], whose entries are cleared from the band.
    """
    n, bw = mesh.n, mesh.bandwidth
    band = lap[:-1].copy()
    band[:, bw] += V[:-1]
    # column n - 1 sits in slot n - 1 - i + bw of the last bw rows i
    rows = np.arange(n - 1 - bw, n - 1)
    slots = n - 1 - rows + bw
    coupling = np.zeros(n - 1)
    coupling[rows] = band[rows, slots]
    band[rows, slots] = 0.0
    return band, coupling


def _band_lu(mesh: RadialMesh, band: np.ndarray):
    """Solver for the matrix of an interior row band by LAPACK's band LU.

    Factors ``band`` once with ``dgbtrf`` (partial pivoting, no scaling)
    and returns x -> B^-1 x through ``dgbtrs``, or None when a pivot is
    exactly zero.
    """
    bw = mesh.bandwidth
    lu, piv, info = dgbtrf(mesh.diagonal_ordered(band), bw, bw, overwrite_ab=1)
    if info != 0:
        return None

    def solve(x):
        return dgbtrs(lu, bw, bw, x, piv)[0]

    return solve


def _potential(point: SolutionPoint) -> np.ndarray:
    beta = 1.0 + point.spec.alpha
    hstar = np.asarray(point.spec.hstar(point.mesh.r), dtype=float)
    return point.rho * hstar * np.exp(point.u_tilde) / beta**2


def build_mode_operator(point: SolutionPoint, k: int) -> ModeOperator:
    """Mode-k linearized operator at a converged disk solution.

    Dirichlet at r = 1 (the boundary unknown is dropped).  For k = 0 the
    nonlocal average uses the same order-6 quadrature as the solver; its
    normalization makes constants exact members of the nonlocal kernel, up
    to the boundary row.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ParameterDomainError("mode index must be a non-negative integer")
    beta = 1.0 + point.spec.alpha
    kappa = k / beta
    mesh = point.mesh
    V = _potential(point)
    lap = _folded_lap(mesh, kappa)
    band, _ = _interior_block(mesh, lap, V)
    rank_one = None
    nu = None
    if k == 0:
        nu = mesh.quad * mesh.t * V
        nu = nu / nu.sum()
        rank_one = (-V[:-1], nu[:-1])
    return ModeOperator(
        k=int(k),
        kappa=kappa,
        mesh=mesh,
        band=band,
        weight=V[:-1],
        boundary="dirichlet",
        rank_one=rank_one,
        _lap=lap,
        _v_full=V,
        _nu=nu,
    )


def _truncated_operator(
    mesh: RadialMesh, V: np.ndarray, k: int, kappa: float
) -> ModeOperator:
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
    lap = _folded_lap(mesh, kappa)
    band, coupling = _interior_block(mesh, lap, V)
    return ModeOperator(
        k=int(k),
        kappa=kappa,
        mesh=mesh,
        band=band,
        weight=V[:-1],
        boundary="neumann" if k == 0 else "robin",
        rank_one=(coupling, elim),
        bc_elim=elim,
        _lap=lap,
        _v_full=V,
    )


def entire_mode_operator(
    alpha: float,
    k: int,
    radius: float = 50.0,
    n: int = 768,
    strength: float = 10.0,
) -> ModeOperator:
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
    mesh = RadialMesh.graded(n, beta, strength, t_max=radius**beta)
    s = mesh.t
    V = 8.0 / (1.0 + s * s) ** 2
    return _truncated_operator(mesh, V, k, kappa)


def inner_mode_operator(
    point: SolutionPoint,
    k: int,
    radius: float = 8.0,
    n: int = 768,
    strength: float = 10.0,
) -> ModeOperator:
    """Mode-k operator of the point restricted to the inner blow-up window.

    The window is |y| <= radius in the inner variable y = x/s where the
    core scale satisfies s^(2 beta) = 1/(gamma e^lambda).  The local
    potential is carried over from the point (no nonlocal term at inner
    order) and the far edge uses the decay condition, so the spectrum is
    directly comparable with entire_mode_operator on the same window.
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
    zmesh = RadialMesh.graded(n, beta, strength, t_max=S)
    t_eval = zmesh.t * sig_t
    from scipy.interpolate import make_interp_spline

    # u is even-analytic in t, so interpolate in t^2; the window sits in
    # the well-resolved core of the source mesh
    u_spline = make_interp_spline(point.mesh.t**2, point.u_tilde, k=5)
    u_at = u_spline(t_eval**2)
    hstar = np.asarray(spec.hstar(t_eval ** (1.0 / beta)), dtype=float)
    V = point.rho * hstar * np.exp(u_at) / beta**2 / m_eff
    return _truncated_operator(zmesh, V, k, kappa)


def _dense_spectrum(op: ModeOperator, count: int):
    w, X = scipy.linalg.eig(op.matrix, np.diag(op.weight))
    finite = np.isfinite(w)
    w, X = w[finite], X[:, finite]
    idx = np.argsort(np.abs(w))[:count]
    return w[idx], X[:, idx]


def _shift_invert_spectrum(op: ModeOperator, lu_solve, count: int, v0, maxiter):
    band = op.band
    weight = op.weight
    n = band.shape[0]
    if op.rank_one is None:
        solve = lu_solve

        def apply(x):
            return band_matvec(band, x)

    else:
        u, v = op.rank_one
        Binv_u = lu_solve(u)
        denom = 1.0 + v @ Binv_u

        def solve(x):
            y = lu_solve(x)
            return y - Binv_u * (v @ y) / denom

        def apply(x):
            return band_matvec(band, x) + u * (v @ x)

    # standard form of (B + u v^T) x = eps W x: A = W^-1 (B + u v^T) and
    # OP = A^-1 = (B + u v^T)^-1 W; ARPACK calls only OP in shift-invert
    # mode, so A's division by the weight never runs
    A = spl.LinearOperator((n, n), matvec=lambda x: apply(x) / weight, dtype=float)
    OPinv = spl.LinearOperator((n, n), matvec=lambda x: solve(weight * x), dtype=float)
    w, X = spl.eigs(A, k=count, sigma=0.0, OPinv=OPinv, which="LM", v0=v0, maxiter=maxiter)
    idx = np.argsort(np.abs(w))
    return w[idx], X[:, idx]


def mode_spectrum(
    op: ModeOperator,
    count: int = 8,
    seed: int | None = None,
    maxiter: int | None = None,
    start: np.ndarray | None = None,
) -> ModeSpectrum:
    """The count smallest-magnitude eigenvalues of the weighted problem.

    Shift-invert at zero through one LAPACK band LU of ``op.band`` (plus a
    Sherman-Morrison correction for the rank-one part), which resolves
    near-kernel eigenvalues far below the reach of a dense solve on these
    ill-scaled matrices.  The weighted problem (B + u v^T) x = eps W x is
    handed to ARPACK in standard form, as the eigenvalues 1/eps of
    OP = (B + u v^T)^-1 W: no weight matrix is passed, so the Arnoldi
    basis is orthogonalised in the plain inner product and each step costs
    one weight multiply and one band LU solve.  An exactly singular band
    falls back to a dense QZ solve.

    ``start`` is ARPACK's start vector, one entry per interior node (e.g.
    another mode's ``eigenvector_0[:-1]``); ``seed`` is then not used.
    Without ``start`` the start vector is deterministic, or drawn from a
    generator seeded with ``seed``.
    """
    n = op.band.shape[0]
    if count < 1:
        raise ParameterDomainError("count must be positive")
    if start is not None:
        v0 = np.array(start, dtype=float)
        if v0.shape != (n,):
            raise ParameterDomainError("start must have one entry per interior node")
    elif seed is None:
        v0 = np.sin(1.0 + np.arange(n))
    else:
        v0 = np.random.default_rng(seed).standard_normal(n)
    lu_solve = None if count >= n - 1 else _band_lu(op.mesh, op.band)
    if lu_solve is not None:
        try:
            w, X = _shift_invert_spectrum(op, lu_solve, count, v0, maxiter)
        except spl.ArpackNoConvergence as exc:
            got = np.asarray(exc.eigenvalues)
            raise SpectrumError(
                f"eigensolver converged {got.size} of {count} requested "
                f"eigenvalues for mode k={op.k}"
            ) from exc
    else:
        # too few unknowns for ARPACK, or a singular local block (e.g. the
        # zero-matrix fixture)
        w, X = _dense_spectrum(op, count)
    imag_noise = float(np.max(np.abs(w.imag))) if w.size else 0.0
    eigenvalues = w.real.copy()
    vec = X[:, 0].real.copy()
    peak = int(np.argmax(np.abs(vec)))
    if vec[peak] != 0.0:
        vec = vec / vec[peak]
    if op.bc_elim is not None:
        vec = np.concatenate([vec, [float(op.bc_elim @ vec)]])
    else:
        vec = np.concatenate([vec, [0.0]])
    return ModeSpectrum(
        k=op.k,
        eigenvalues=eigenvalues,
        smallest_magnitude=float(np.abs(eigenvalues[0])),
        eigenvector_0=vec,
        imag_noise=imag_noise,
    )


@dataclass(frozen=True)
class NondegeneracyScan:
    """Per-point, per-mode smallest eigenvalue magnitudes along a branch.

    ``eig_min`` and ``eig_min_next`` have one row per branch point and one
    column per mode 0..k_max.  ``kernel_flags`` marks entries whose
    magnitude falls below the kernel-suspicion threshold.
    """

    lambdas: np.ndarray
    k_max: int
    eig_min: np.ndarray
    eig_min_next: np.ndarray
    kernel_flags: np.ndarray

    @property
    def min_magnitudes(self) -> np.ndarray:
        """Smallest |eigenvalue| over modes, one entry per branch point."""
        return np.min(np.abs(self.eig_min), axis=1)

    def rows(self):
        """Yield (lambda, k, eig_min, eig_min_next, kernel_flag) rows."""
        for i, lam in enumerate(self.lambdas):
            for k in range(self.k_max + 1):
                yield (
                    float(lam),
                    k,
                    float(self.eig_min[i, k]),
                    float(self.eig_min_next[i, k]),
                    bool(self.kernel_flags[i, k]),
                )


def nondegeneracy_scan(branch, k_max: int = 8, seed: int | None = None) -> NondegeneracyScan:
    """Scan the branch for near-kernel directions in modes 0..k_max.

    Flags any (point, mode) whose smallest eigenvalue magnitude drops
    below 1e-8.  At each point, mode 0's ARPACK run starts from the
    deterministic vector, or from one drawn with ``seed``; every later mode
    starts from the previous mode's eigenvector, since neighbouring modes
    have nearby eigenvectors and Arnoldi then converges in fewer steps.
    """
    if k_max < 0:
        raise ParameterDomainError("k_max must be non-negative")
    points = branch.points
    if not points:
        raise ParameterDomainError("branch has no points")
    P = len(points)
    eig_min = np.zeros((P, k_max + 1))
    eig_next = np.zeros((P, k_max + 1))
    for i, pt in enumerate(points):
        start = None
        for k in range(k_max + 1):
            spec_k = mode_spectrum(build_mode_operator(pt, k), count=2, seed=seed, start=start)
            start = spec_k.eigenvector_0[:-1]
            eig_min[i, k] = spec_k.eigenvalues[0]
            eig_next[i, k] = spec_k.eigenvalues[1]
    flags = np.abs(eig_min) < KERNEL_FLAG_TOL
    return NondegeneracyScan(
        lambdas=np.array([pt.lam for pt in points]),
        k_max=int(k_max),
        eig_min=eig_min,
        eig_min_next=eig_next,
        kernel_flags=flags,
    )


def kernel_candidate(point: SolutionPoint) -> np.ndarray:
    """Solve the local mode-0 linearized equation with unit boundary data.

    The returned field satisfies every interior row of the discrete
    operator exactly (up to round-off), so it probes identities that hold
    for true kernel elements without requiring one to exist.  Normalized
    to sup-norm 1 with positive peak.
    """
    mesh = point.mesh
    block, coupling = _interior_block(mesh, _folded_lap(mesh, 0.0), _potential(point))
    lu_solve = _band_lu(mesh, block)
    if lu_solve is None:
        raise SpectrumError("local mode-0 block is singular")
    xi_int = lu_solve(-coupling)
    xi = np.concatenate([xi_int, [1.0]])
    peak = int(np.argmax(np.abs(xi)))
    return xi / xi[peak]


def b0_projection(
    xi: np.ndarray,
    point: SolutionPoint,
    mode: int = 0,
    r0: float = 0.5,
) -> float:
    """Project a normalized field onto the inner kernel shape.

    In the inner variable z = r/sigma the reference shape is
    xi0(z) = (1 - gbar z^(2 beta))/(1 + gbar z^(2 beta)) with
    gbar = pi hbar1(0)/beta, and the projection uses the weight
    z^(2 alpha) (1 + gbar z^(2 beta))^-2 dz over z in [0, r0/sigma].
    Fields carrying an odd angular mode are orthogonal to the radial
    shape across the diameter, so odd ``mode`` returns exactly zero.
    """
    xi = np.asarray(xi, dtype=float)
    spec = point.spec
    beta = 1.0 + spec.alpha
    mesh = point.mesh
    if xi.shape != mesh.t.shape:
        raise ParameterDomainError("field length does not match the mesh")
    if np.max(np.abs(xi)) > 1.0 + 1e-9:
        raise ParameterDomainError("field must be normalized to sup-norm <= 1")
    if not 0.0 < r0 <= 1.0:
        raise ParameterDomainError("projection window must satisfy 0 < r0 <= 1")
    if point.lam < 2.0:
        warnings.warn(
            f"concentration scale sigma = {point.sigma:.3f} is large at "
            f"lambda = {point.lam:.2f} < 2; the projection window barely "
            "separates inner and outer scales",
            stacklevel=2,
        )
    if mode % 2 == 1:
        return 0.0
    gbar = np.pi * float(spec.hbar1(np.zeros(2))) / beta
    t = mesh.t
    q = mesh.quad_to(r0**beta)
    # z^(2 beta) = t^2 e^lambda and z^(2 alpha) dz is t^((2 alpha + 1)/beta - 1) dt
    # up to a constant factor that cancels in the ratio
    zb2 = t * t * np.exp(point.lam)
    xi0 = (1.0 - gbar * zb2) / (1.0 + gbar * zb2)
    wgt = q * t ** ((2.0 * spec.alpha + 1.0) / beta - 1.0) / (1.0 + gbar * zb2) ** 2
    num = float((wgt * xi * xi0).sum())
    den = float((wgt * xi0 * xi0).sum())
    return num / den
