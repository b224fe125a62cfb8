import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from mfelab.errors import ParameterDomainError, SpectrumError
from mfelab.linearization import (
    ModeOperator,
    b0_projection,
    build_mode_operator,
    entire_mode_operator,
    inner_mode_operator,
    kernel_candidate,
    mode_spectrum,
    nondegeneracy_scan,
)
from mfelab.liouville import kernel_Y0
from mfelab.meshing import RadialMesh
from mfelab.radial_solver import (
    MeshPolicy,
    WeightSpec,
    continue_branch,
    exact_disk_family,
    newton_solve,
)

ALPHA = 0.5
BETA = 1.5


@pytest.fixture(scope="module")
def family100():
    return exact_disk_family(ALPHA, 100.0)


@pytest.fixture(scope="module")
def family1e4():
    return exact_disk_family(ALPHA, 1e4)


@pytest.fixture(scope="module")
def gauss12():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    mesh = MeshPolicy(n=512).build(BETA, 12.0)
    return newton_solve(spec, mesh, lam=12.0)


def _generalized_spectrum(op, count):
    """Reference: ARPACK's generalized shift-invert mode with M = diag(weight),
    on a SuperLU factor of the interior block without its rank-one part."""
    band = sp.csc_matrix(op.mesh.dense(op.band))
    n = band.shape[0]
    lu = spl.splu(band)
    u, v = op.rank_one if op.rank_one is not None else (np.zeros(n), np.zeros(n))
    Binv_u = lu.solve(u)
    denom = 1.0 + v @ Binv_u

    def solve(x):
        y = lu.solve(x)
        return y - Binv_u * (v @ y) / denom

    A = spl.LinearOperator((n, n), matvec=lambda x: band @ x + u * (v @ x))
    OPinv = spl.LinearOperator((n, n), matvec=solve)
    w, _ = spl.eigs(
        A,
        k=count,
        M=sp.diags(op.weight),
        sigma=0.0,
        OPinv=OPinv,
        which="LM",
        v0=np.sin(1.0 + np.arange(n)),
    )
    return w[np.argsort(np.abs(w))].real


def test_constants_annihilated_by_nonlocal_part(family100):
    op = build_mode_operator(family100, 0)
    rows = op.apply(np.ones(family100.mesh.t.size))
    scale = np.abs(op._lap).sum(axis=1)[:-1]
    assert np.max(np.abs(rows) / scale) < 1e-13


def test_mode1_has_no_nonlocal_term(family100):
    op = build_mode_operator(family100, 1)
    assert op.rank_one is None
    mesh = family100.mesh
    phi = np.sin(2.0 * mesh.t) * (1.0 - mesh.t**2)
    lap = mesh.lap_rows(2.0 / BETA + 1.0)
    V = family100.rho * np.exp(family100.u_tilde) / BETA**2
    expected = (lap @ phi + V * phi)[:-1]
    got = op.apply(phi)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_mode_operator_rejects_bad_k(family100):
    with pytest.raises(ParameterDomainError):
        build_mode_operator(family100, -1)


def test_matrix_property_includes_rank_one(family100):
    op = build_mode_operator(family100, 0)
    u, v = op.rank_one
    assert np.allclose(op.matrix, op.mesh.dense(op.band) + np.outer(u, v))


def test_row_band_matches_dense_block(family100):
    mesh = family100.mesh
    for k in (0, 3):
        op = build_mode_operator(family100, k)
        assert type(op.band) is np.ndarray
        assert op.band.shape == (mesh.n - 1, 2 * mesh.bandwidth + 1)
        V = family100.rho * np.exp(family100.u_tilde) / BETA**2
        dense = mesh.lap_rows(2.0 * k / BETA + 1.0)[:-1, :-1]
        idx = np.arange(mesh.n - 1)
        dense[idx, idx] += V[:-1]
        assert np.array_equal(mesh.dense(op.band), dense)
        # the boundary column is split off: no band slot holds it
        assert np.count_nonzero(op.band) == np.count_nonzero(dense)


def test_exact_family_mode0_eigenvalue(family100, family1e4):
    w100 = mode_spectrum(build_mode_operator(family100, 0), count=2)
    w1e4 = mode_spectrum(build_mode_operator(family1e4, 0), count=2)
    # the near-kernel direction of the nonlocal operator scales like -3/(4m)
    assert abs(w100.eigenvalues[0] * 100.0 + 0.75) < 5e-3
    assert abs(w1e4.eigenvalues[0] * 1e4 + 0.75) < 1e-3
    assert w100.imag_noise <= 1e-9
    assert w1e4.imag_noise <= 1e-9


@pytest.mark.parametrize("k", [0, 1, 8])
@pytest.mark.parametrize("which", ["family100", "gauss12"])
def test_standard_form_matches_generalized_arpack(which, k, request):
    op = build_mode_operator(request.getfixturevalue(which), k)
    got = mode_spectrum(op, count=4).eigenvalues
    ref = _generalized_spectrum(op, 4)
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))


@pytest.mark.parametrize(
    "which, k",
    # gauss12 at k = 0 is left out: there eps is 3.8e-5, and round-off in
    # the matvec alone is 1e-7 of |eps| |W x|, for any eigensolver
    [("family100", 0), ("family100", 1), ("family100", 8), ("gauss12", 1), ("gauss12", 8)],
)
def test_eigenpair_residual(which, k, request):
    op = build_mode_operator(request.getfixturevalue(which), k)
    s = mode_spectrum(op, count=2)
    x = s.eigenvector_0[:-1]
    eps = s.eigenvalues[0]
    wx = op.weight * x
    res = op.matrix @ x - eps * wx
    assert np.linalg.norm(res) <= 1e-8 * abs(eps) * np.linalg.norm(wx)


def test_spectrum_deterministic(family100):
    a = mode_spectrum(build_mode_operator(family100, 0), count=4)
    b = mode_spectrum(build_mode_operator(family100, 0), count=4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvector_0, b.eigenvector_0)


def test_spectrum_mesh_stability(family1e4):
    mesh2 = MeshPolicy(n=1024).build(BETA, family1e4.lam)
    refined = exact_disk_family(ALPHA, 1e4, mesh=mesh2)
    e1 = mode_spectrum(build_mode_operator(family1e4, 0), count=2).eigenvalues[0]
    e2 = mode_spectrum(build_mode_operator(refined, 0), count=2).eigenvalues[0]
    assert abs(e1 - e2) <= 1e-3 * abs(e2)


def test_weighted_self_adjointness(family100):
    op = build_mode_operator(family100, 0)
    mesh = family100.mesh
    A = op.matrix
    wq = (mesh.quad * mesh.t)[:-1]
    tt = mesh.t[:-1]
    rng = np.random.default_rng(7)
    for _ in range(4):
        c1 = rng.standard_normal(4)
        c2 = rng.standard_normal(4)
        f = (1.0 - tt**2) * sum(c * tt ** (2 * j) for j, c in enumerate(c1))
        g = (1.0 - tt**2) * sum(c * tt ** (2 * j) for j, c in enumerate(c2))
        lhs = float((wq * (A @ f) * g).sum())
        rhs = float((wq * f * (A @ g)).sum())
        assert abs(lhs - rhs) <= 1e-7 * (abs(lhs) + abs(rhs))


def test_mode_monotonicity(family100):
    mags = []
    for k in range(2, 9):
        s = mode_spectrum(build_mode_operator(family100, k), count=2)
        mags.append(s.smallest_magnitude)
    diffs = np.diff(mags)
    assert np.all(diffs >= -1e-9 * np.abs(mags[:-1]))


def test_rayleigh_growth_in_k(family100):
    m20 = mode_spectrum(build_mode_operator(family100, 20), count=2)
    m40 = mode_spectrum(build_mode_operator(family100, 40), count=2)
    ratio = m40.smallest_magnitude / m20.smallest_magnitude
    assert 3.2 <= ratio <= 4.8


def test_zero_operator_fixture():
    mesh = RadialMesh.graded(12, BETA, 2.0)
    n = mesh.t.size - 1
    op = ModeOperator(
        k=0,
        kappa=0.0,
        mesh=mesh,
        band=np.zeros((n, 2 * mesh.bandwidth + 1)),
        weight=np.ones(n),
        boundary="dirichlet",
    )
    s = mode_spectrum(op, count=3)
    assert np.all(s.eigenvalues == 0.0)
    assert s.smallest_magnitude == 0.0


def test_eigensolver_nonconvergence_reported(family100):
    op = build_mode_operator(family100, 0)
    with pytest.raises(SpectrumError):
        mode_spectrum(op, count=8, maxiter=1)


def test_entire_operator_kernel_structure():
    s0 = mode_spectrum(entire_mode_operator(ALPHA, 0), count=8)
    small = np.abs(s0.eigenvalues) <= 1e-4
    assert small.sum() == 1
    mesh = entire_mode_operator(ALPHA, 0).mesh
    y0 = kernel_Y0(ALPHA, mesh.t ** (1.0 / BETA))
    v = s0.eigenvector_0
    cos = abs(v @ y0) / (np.linalg.norm(v) * np.linalg.norm(y0))
    assert cos >= 0.999
    for k in (1, 2, 5, 8):
        sk = mode_spectrum(entire_mode_operator(ALPHA, k), count=2)
        assert sk.smallest_magnitude >= 0.1


def test_entire_operator_validation():
    with pytest.raises(ParameterDomainError):
        entire_mode_operator(ALPHA, 0, radius=0.5)
    with pytest.raises(ParameterDomainError):
        entire_mode_operator(ALPHA, -3)


def test_inner_operator_matches_entire_on_family(family100, family1e4):
    we = mode_spectrum(entire_mode_operator(ALPHA, 0, radius=4.0), count=2)
    w100 = mode_spectrum(inner_mode_operator(family100, 0, radius=4.0), count=2)
    w1e4 = mode_spectrum(inner_mode_operator(family1e4, 0, radius=4.0), count=2)
    # the family potential restricted to the window is the entire one exactly
    assert abs(w100.eigenvalues[0] - we.eigenvalues[0]) < 1e-9
    assert abs(w1e4.eigenvalues[0] - we.eigenvalues[0]) < 1e-9


def test_inner_operator_gaussian_approaches_entire(gauss12):
    wi = mode_spectrum(inner_mode_operator(gauss12, 0, radius=8.0), count=2)
    we = mode_spectrum(entire_mode_operator(ALPHA, 0, radius=8.0), count=2)
    assert abs(wi.eigenvalues[0] - we.eigenvalues[0]) < 5e-4


def test_inner_kernel_correspondence(family1e4):
    op = inner_mode_operator(family1e4, 0, radius=8.0)
    s = mode_spectrum(op, count=2)
    zmesh = op.mesh
    y0 = kernel_Y0(ALPHA, zmesh.t ** (1.0 / BETA))
    wgt = zmesh.quad * zmesh.t * np.concatenate([op.weight, [0.0]])
    v = s.eigenvector_0
    c = float((wgt * v * y0).sum() / (wgt * y0 * y0).sum())
    err = np.sqrt(float((wgt * (v / c - y0) ** 2).sum() / (wgt * y0 * y0).sum()))
    assert err <= 0.05


def test_inner_window_must_fit_in_disk(family100):
    with pytest.raises(ParameterDomainError):
        inner_mode_operator(family100, 0, radius=8.0)


def test_kernel_candidate_solves_local_equation(family100):
    xi = kernel_candidate(family100)
    assert np.max(np.abs(xi)) == 1.0
    mesh = family100.mesh
    V = family100.rho * np.exp(family100.u_tilde) / BETA**2
    lap = mesh.lap_rows(1.0)
    rows = lap @ xi + V * xi
    assert np.max(np.abs(rows[:-1])) <= 1e-8 * np.max(V)
    assert abs(b0_projection(xi, family100)) >= 0.5


@pytest.mark.parametrize("which", ["family100", "gauss12"])
def test_kernel_candidate_matches_dense_solve(which, request):
    point = request.getfixturevalue(which)
    mesh = point.mesh
    beta = 1.0 + point.spec.alpha
    V = point.rho * point.spec.hstar(mesh.r) * np.exp(point.u_tilde) / beta**2
    A = mesh.lap_rows(1.0)
    idx = np.arange(mesh.n)
    A[idx, idx] += V
    xi = np.concatenate([np.linalg.solve(A[:-1, :-1], -A[:-1, -1]), [1.0]])
    xi = xi / xi[np.argmax(np.abs(xi))]
    assert np.max(np.abs(kernel_candidate(point) - xi)) <= 1e-10


def test_b0_projects_reference_shape_to_one(family100):
    spec = family100.spec
    gbar = np.pi * float(spec.hbar1(np.zeros(2))) / BETA
    zb2 = family100.mesh.t**2 * np.exp(family100.lam)
    xi0 = (1.0 - gbar * zb2) / (1.0 + gbar * zb2)
    assert abs(b0_projection(xi0, family100) - 1.0) < 1e-10


def test_b0_odd_mode_orthogonal(family100):
    xi = family100.mesh.t * (1.0 - family100.mesh.t**2)
    xi = xi / np.max(np.abs(xi))
    assert b0_projection(xi, family100, mode=1) == 0.0


def test_b0_lambda_tangent_bounded_away_from_zero(family100):
    t = family100.mesh.t
    m = 100.0
    dm = 1e-4 * (1.0 + m)

    def family_u(mm):
        return 2.0 * np.log((1.0 + mm) / (1.0 + mm * t * t))

    tang = family_u(m + dm) - family_u(m)
    tang = tang / np.max(np.abs(tang))
    b0 = b0_projection(tang, family100)
    assert b0 >= 0.5


def test_b0_warns_at_weak_concentration():
    pt = exact_disk_family(ALPHA, 5.0)
    xi = np.zeros(pt.mesh.t.size)
    with pytest.warns(UserWarning, match="sigma"):
        b0_projection(xi, pt)


def test_b0_validates_input(family100):
    with pytest.raises(ParameterDomainError):
        b0_projection(np.ones(7), family100)
    with pytest.raises(ParameterDomainError):
        b0_projection(2.0 * np.ones(family100.mesh.t.size), family100)
    with pytest.raises(ParameterDomainError):
        b0_projection(np.zeros(family100.mesh.t.size), family100, r0=0.0)


@pytest.fixture(scope="module")
def short_branch():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    return continue_branch(6.0, 8.0, 5, spec, MeshPolicy(n=384))


def test_scan_no_flags_on_gaussian_branch(short_branch):
    scan = nondegeneracy_scan(short_branch, k_max=4)
    assert scan.eig_min.shape == (5, 5)
    assert not scan.kernel_flags.any()
    assert np.all(scan.min_magnitudes >= 1e-6)
    rows = list(scan.rows())
    assert len(rows) == 25
    lam, k, emin, enext, flag = rows[0]
    assert lam == pytest.approx(short_branch.points[0].lam)
    assert k == 0 and not flag
    assert abs(emin) <= abs(enext)


def test_scan_reports_ell_zero_without_assertions():
    spec = WeightSpec(alpha=ALPHA)
    branch = continue_branch(5.0, 6.0, 3, spec, MeshPolicy(n=384))
    scan = nondegeneracy_scan(branch, k_max=2)
    assert scan.eig_min.shape == (3, 3)
    assert np.all(np.isfinite(scan.eig_min))


def test_scan_single_point_branch():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(7.0, 7.0, 1, spec, MeshPolicy(n=384))
    scan = nondegeneracy_scan(branch, k_max=3)
    assert scan.eig_min.shape == (1, 4)
    assert len(list(scan.rows())) == 4



def _counting_eigs(monkeypatch):
    """Wrap ``spl.eigs`` so that every OP application is counted."""
    real = spl.eigs
    calls = []

    def eigs(A, *args, OPinv, **kwargs):
        def matvec(x):
            calls.append(1)
            return OPinv.matvec(x)

        counted = spl.LinearOperator(OPinv.shape, matvec=matvec, dtype=OPinv.dtype)
        return real(A, *args, OPinv=counted, **kwargs)

    monkeypatch.setattr(spl, "eigs", eigs)
    return calls


def test_scan_warm_start_matches_cold_spectra(monkeypatch):
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(6.0, 8.0, 3, spec, MeshPolicy(n=384))
    k_max = 16
    calls = _counting_eigs(monkeypatch)
    scan = nondegeneracy_scan(branch, k_max=k_max, seed=7)
    warm_ops = len(calls)
    calls.clear()
    # each mode on its own, from the seeded start vector
    cold = np.array([
        [mode_spectrum(build_mode_operator(pt, k), count=2, seed=7).eigenvalues
         for k in range(k_max + 1)]
        for pt in branch.points
    ])
    cold_ops = len(calls)
    assert np.all(np.abs(scan.eig_min - cold[..., 0]) <= 1e-9 * np.abs(cold[..., 0]))
    assert np.all(np.abs(scan.eig_min_next - cold[..., 1]) <= 1e-8 * np.abs(cold[..., 1]))
    # measured: 21.0 OP applications per spectrum warm, 29.7 cold
    assert warm_ops < cold_ops


def test_start_vector_length_checked(family100):
    op = build_mode_operator(family100, 1)
    with pytest.raises(ParameterDomainError):
        mode_spectrum(op, count=2, start=np.ones(op.band.shape[0] + 1))
