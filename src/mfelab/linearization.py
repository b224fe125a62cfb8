"""Fourier-mode decomposition of the nonlocal linearized operator.

Angular mode k of the linearization at a solution point reduces, after the
substitution t = r^beta and the folding phi = t^kappa g with kappa = k/beta,
to

    R_k g = g'' + (2 kappa + 1) g'/t + V g,      V = rho hstar e^u / beta^2,

plus, for k = 0 only, the nonlocal rank-one term -V <g> where <g> is the
V-weighted average over the disk (the angular average of the nonlocal
coupling vanishes for k >= 1).  Reported eigenvalues are those of the
weighted problem R_k g = eps V g, which is invariant under rescaling of t
and therefore directly comparable with the entire-plane limit operator,
whose truncated form the tests hold as their reference.

The local block B is kept as the interior row band of the mesh and
factored once per spectrum by ``RadialMesh.band_solver``, which owns the
band LU and the Sherman-Morrison step for the rank-one part (see
``meshing``); no mode operator is formed densely.  The spectra are
computed in standard shift-invert form: ARPACK iterates with
OP = (B + u v^T)^-1 W, where u v^T is the rank-one part and W = diag(V),
so each Arnoldi step is one multiply by the weight and one band solve, and
a singular operator is a ``SpectrumError``.  ``_arnoldi`` drives ARPACK's
compiled reverse-communication routines, loaded from scipy's file by
``meshing.scipy_extension``, with the calls ``scipy.sparse.linalg.eigs``
makes, so the spectra are its bits without the 0.3 s import of
``scipy.sparse.linalg``.
ARPACK's generalized mode would orthogonalise in the W inner product and
spend extra weight products on every step for the same eigenvalues.  A
scan over modes starts each mode's Arnoldi run from the previous mode's
eigenvector at the same point, which lies close to the wanted
eigenvectors and saves restarts.

``nondegeneracy_scan`` shares the branch points among one process per
usable CPU through ``workers.shared``, the package's process layer: each
forked worker, on a CPU of its own, claims the lowest point no process
has claimed and the calling process the highest, until none is left,
with OpenBLAS held to one thread in all of them.  Each point comes back
as its chain's array of eig_min and eig_min_next, and the helper then
computes in the calling process every point that did not: a failing
point's chain runs twice, and a dead worker's points are computed again
rather than reported.  Each point's chain of modes stays in one
process and runs the operations of a serial scan, so the spectra are the
same bits for any W.  A profiler in the calling process sees only its own
share of the calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SpectrumError
from .meshing import RadialMesh, scipy_extension
from .radial_solver import SolutionPoint
from .workers import shared

_arpack = scipy_extension("scipy.sparse.linalg._eigen.arpack._arpacklib")

__all__ = [
    "ModeOperator",
    "ModeSpectrum",
    "NondegeneracyScan",
    "b0_projection",
    "build_mode_operator",
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
    interior matrix is dense(band) + outer(u, v); it carries the k = 0
    nonlocal projection.  ``weight`` is the interior sample of V for the
    weighted eigenproblem.  The operator is kept only as this band and
    pair; the package never builds it densely.
    """

    k: int
    mesh: RadialMesh
    band: np.ndarray
    weight: np.ndarray
    rank_one: tuple[np.ndarray, np.ndarray] | None = None


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
    mesh = point.mesh
    V = _potential(point)
    kappa = k / (1.0 + point.spec.alpha)
    band, _ = _interior_block(mesh, mesh.lap_band(2.0 * kappa + 1.0), V)
    rank_one = None
    if k == 0:
        nu = mesh.quad * mesh.t * V
        nu = nu / nu.sum()
        rank_one = (-V[:-1], nu[:-1])
    return ModeOperator(
        k=int(k),
        mesh=mesh,
        band=band,
        weight=V[:-1],
        rank_one=rank_one,
    )


def _arnoldi(apply, v0: np.ndarray, count: int, maxiter: int | None = None):
    """ARPACK's ``dnaupd``/``dneupd`` in shift-invert mode around zero.

    ``apply`` maps x to OP x; the ``count`` eigenvalues of OP largest in
    magnitude are turned back by ARPACK into the eigenvalues 1/mu nearest
    zero.  The calls are those ``scipy.sparse.linalg.eigs`` makes for
    ``sigma=0.0, which="LM", tol=0`` with a real ``OPinv`` and no ``M``
    (mode 3, bmat 'I', ncv = max(2 count + 1, 20), maxiter = 10 n by
    default), so the results are its bits without loading
    ``scipy.sparse``.  Returns (eigenvalues, eigenvectors, applications of
    OP) in ARPACK's order; raises ``SpectrumError`` when ARPACK reports a
    failure, with the number of converged eigenvalues when it ran out of
    iterations.
    """
    n = v0.size
    ncv = min(max(2 * count + 1, 20), n)
    state = {
        "tol": 0.0, "getv0_rnorm0": 0.0, "aitr_betaj": 0.0, "aitr_rnorm1": 0.0,
        "aitr_wnorm": 0.0, "aup2_rnorm": 0.0, "ido": 0, "which": 0, "bmat": 0,
        "info": 1, "iter": 0, "maxiter": 10 * n if maxiter is None else int(maxiter),
        "mode": 3, "n": n, "nconv": 0, "ncv": ncv, "nev": count, "np": 0,
        "shift": 1, "getv0_first": 0, "getv0_iter": 0, "getv0_itry": 0,
        "getv0_orth": 0, "aitr_iter": 0, "aitr_j": 0, "aitr_orth1": 0,
        "aitr_orth2": 0, "aitr_restart": 0, "aitr_step3": 0, "aitr_step4": 0,
        "aitr_ierr": 0, "aup2_initv": 0, "aup2_iter": 0, "aup2_getv0": 0,
        "aup2_cnorm": 0, "aup2_kplusp": 0, "aup2_nev": 0, "aup2_nev0": 0,
        "aup2_np0": 0, "aup2_numcnv": 0, "aup2_update": 0, "aup2_ushift": 0,
    }
    resid = np.array(v0, dtype=float)
    v = np.zeros((n, ncv))
    workd = np.zeros(3 * n)
    workl = np.zeros(3 * ncv * (ncv + 2))
    ipntr = np.zeros(14, dtype=np.int32)
    applications = 0
    rng = None
    while True:
        _arpack.dnaupd_wrap(state, resid, v, ipntr, workd, workl)
        ido = state["ido"]
        y = slice(ipntr[1], ipntr[1] + n)
        if ido in (1, 5):
            # ido 1 hands over B x, which is x for bmat 'I'
            x = ipntr[2] if ido == 1 else ipntr[0]
            workd[y] = apply(workd[x : x + n])
            applications += 1
        elif ido == 4:
            # a restart after an invariant subspace: a fresh start vector,
            # drawn as scipy draws it but from a fixed seed
            rng = rng or np.random.default_rng(0)
            resid[:] = rng.uniform(-1.0, 1.0, n)
        elif ido == 99:
            break
        else:
            raise SpectrumError(f"ARPACK asked for unsupported request ido={ido}")
    info = state["info"]
    if info not in (0, 1):
        raise SpectrumError(f"ARPACK dnaupd failed with info {info}")
    # info 1 ran out of iterations: what converged is extracted to be counted
    try:
        d, z = _extract(state, count, resid, v, ipntr, workd, workl)
    except SpectrumError:
        if info == 0:
            raise
        d = np.zeros(0)
    if info == 1:
        raise SpectrumError(f"eigensolver converged {d.size} of {count} requested eigenvalues")
    return d, z, applications


def _extract(state, count, resid, v, ipntr, workd, workl):
    """``dneupd`` with every Ritz vector, sorted out as ``eigs`` does it.

    A complex pair fills two columns (real, imaginary) of ARPACK's real
    eigenvector array, and ARPACK may return one value more than asked;
    the extra one goes by magnitude of 1/eps.
    """
    n, ncv = resid.size, state["ncv"]
    state["info"] = 0
    dr = np.zeros(count + 1)
    di = np.zeros(count + 1)
    zr = np.zeros((n, count + 1), order="F")
    _arpack.dneupd_wrap(
        state, True, 0, np.zeros(ncv, dtype=np.int32), dr, di, zr, 0.0, 0.0,
        np.zeros(3 * ncv), resid, v, ipntr, workd, workl,
    )
    if state["info"] != 0:
        raise SpectrumError(f"ARPACK dneupd failed with info {state['info']}")
    returned = state["nconv"]
    d = dr + 1.0j * di
    z = zr.astype(complex)
    i = 0
    while i <= count:
        if d[i].imag != 0:
            if i < count:
                z[:, i] = zr[:, i] + 1.0j * zr[:, i + 1]
                z[:, i + 1] = z[:, i].conjugate()
                i += 1
            else:
                # the pair's second column was not returned
                returned -= 1
        i += 1
    if returned <= count:
        return d[:returned], z[:, :returned]
    keep = np.argsort(abs(1 / d))[-count:][::-1]
    return d[keep], z[:, keep]


def mode_spectrum(
    op: ModeOperator,
    count: int = 8,
    maxiter: int | None = None,
    start: np.ndarray | None = None,
) -> ModeSpectrum:
    """The count smallest-magnitude eigenvalues of the weighted problem.

    Shift-invert at zero through one ``RadialMesh.band_solver`` of
    ``op.band`` and ``op.rank_one``, which resolves
    near-kernel eigenvalues far below the reach of a dense solve on these
    ill-scaled matrices.  The weighted problem (B + u v^T) x = eps W x is
    handed to ARPACK (``_arnoldi``) in standard form, as the eigenvalues
    1/eps of OP = (B + u v^T)^-1 W: no weight matrix is passed, so the
    Arnoldi basis is orthogonalised in the plain inner product and each
    step costs one weight multiply and one band LU solve.  ``count`` must
    lie in [1, m - 2] for m interior unknowns, ARPACK's bound.  A
    non-finite entry in the band, the weight or the rank-one pair, an
    exact zero pivot of the band, and a Sherman-Morrison denominator
    1 + v . B^-1 u that is zero or not finite raise ``SpectrumError``; a
    small nonzero denominator is kept, since a nearly singular operator is
    what a scan looks for.

    ``start`` is ARPACK's start vector, one entry per interior node (e.g.
    another mode's ``eigenvector_0[:-1]``); it must be finite and not
    zero, and defaults to the deterministic sin(1 + i).  ``maxiter`` caps
    ARPACK's restarts (default 10 n); running out of them, like any other
    ARPACK failure, raises ``SpectrumError``.

    ``eigenvector_0`` is the eigenvector of the eigenvalue nearest zero,
    scaled to peak 1, with the Dirichlet 0 of the boundary node appended.
    """
    n = op.band.shape[0]
    if not 1 <= count <= n - 2:
        raise ParameterDomainError(f"count must lie in [1, {n - 2}] for {n} interior unknowns")
    if start is not None:
        v0 = np.array(start, dtype=float)
        if v0.shape != (n,):
            raise ParameterDomainError("start must have one entry per interior node")
        if not np.all(np.isfinite(v0)) or not np.any(v0):
            raise ParameterDomainError("start must be finite and not zero")
    else:
        v0 = np.sin(1.0 + np.arange(n))
    if not all(np.all(np.isfinite(a)) for a in (op.band, op.weight, *(op.rank_one or ()))):
        # caught here: ARPACK's LAPACK would print its complaint to stdout
        raise SpectrumError(f"mode k={op.k} operator has a non-finite entry")
    solve, denom, info = op.mesh.band_solver(op.band, op.rank_one)
    if solve is None or not 0.0 < abs(denom) < np.inf:
        raise SpectrumError(f"mode k={op.k} operator is singular (info {info}, denom {denom!r})")
    try:
        w, X, _ = _arnoldi(lambda x: solve(op.weight * x), v0, count, maxiter)
    except SpectrumError as exc:
        raise SpectrumError(f"{exc} for mode k={op.k}") from None
    idx = np.argsort(np.abs(w))
    w, X = w[idx], X[:, idx]
    imag_noise = float(np.max(np.abs(w.imag)))
    eigenvalues = w.real.copy()
    vec = X[:, 0].real.copy()
    peak = int(np.argmax(np.abs(vec)))
    if vec[peak] != 0.0:
        vec = vec / vec[peak]
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


def _mode_chain(point: SolutionPoint, k_max: int) -> np.ndarray:
    """eig_min (row 0) and eig_min_next (row 1) of modes 0..k_max at ``point``.

    Mode 0's ARPACK run starts from the deterministic vector and every
    later mode from the previous mode's eigenvector.
    """
    rows = np.empty((2, k_max + 1))
    start = None
    for k in range(k_max + 1):
        spec_k = mode_spectrum(build_mode_operator(point, k), count=2, start=start)
        start = spec_k.eigenvector_0[:-1]
        rows[:, k] = spec_k.eigenvalues[:2]
    return rows


def nondegeneracy_scan(branch, k_max: int = 8) -> NondegeneracyScan:
    """Scan the branch for near-kernel directions in modes 0..k_max.

    Flags any (point, mode) whose smallest eigenvalue magnitude drops
    below 1e-8.  At each point, mode 0's ARPACK run starts from the
    deterministic vector; every later mode starts from the previous mode's
    eigenvector, since neighbouring modes have nearby eigenvectors and
    Arnoldi then converges in fewer steps.  The points are shared among
    one process per usable CPU (``workers.shared``), each claiming the next
    free point as it finishes one, so a process that runs slower takes
    fewer points; each point's chain of modes is computed in one process as
    in a serial scan, so the result does not depend on the number of CPUs
    or on who took which point.
    """
    if k_max < 0:
        raise ParameterDomainError("k_max must be non-negative")
    points = branch.points
    if not points:
        raise ParameterDomainError("branch has no points")
    with shared(lambda i: _mode_chain(points[i], k_max), len(points)) as chains:
        pass
    eig_min, eig_next = np.array(chains).swapaxes(0, 1)
    return NondegeneracyScan(
        lambdas=np.array([pt.lam for pt in points]),
        k_max=int(k_max),
        eig_min=eig_min,
        eig_min_next=eig_next,
        kernel_flags=np.abs(eig_min) < KERNEL_FLAG_TOL,
    )


def kernel_candidate(point: SolutionPoint) -> np.ndarray:
    """Solve the local mode-0 linearized equation with unit boundary data.

    The returned field satisfies every interior row of the discrete
    operator exactly (up to round-off), so it probes identities that hold
    for true kernel elements without requiring one to exist.  Normalized
    to sup-norm 1 with positive peak.
    """
    mesh = point.mesh
    block, coupling = _interior_block(mesh, mesh.lap_band(1.0), _potential(point))
    solve = mesh.band_solver(block)[0]
    if solve is None:
        raise SpectrumError("local mode-0 block is singular")
    xi_int = solve(-coupling)
    xi = np.concatenate([xi_int, [1.0]])
    peak = int(np.argmax(np.abs(xi)))
    return xi / xi[peak]


def b0_projection(
    xi: np.ndarray,
    point: SolutionPoint,
    r0: float = 0.5,
) -> float:
    """Project a normalized field onto the inner kernel shape.

    In the inner variable z = r/sigma the reference shape is
    xi0(z) = (1 - gbar z^(2 beta))/(1 + gbar z^(2 beta)) with
    gbar = pi hbar1(0)/beta, and the projection uses the weight
    z^(2 alpha) (1 + gbar z^(2 beta))^-2 dz over z in [0, r0/sigma].
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
