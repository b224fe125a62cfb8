import dataclasses
import mmap
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from mfelab import linearization, workers
from mfelab.errors import ParameterDomainError, SpectrumError
from mfelab.linearization import (
    ModeOperator,
    _arnoldi,
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
    WeightSpec,
    continue_branch,
    exact_disk_family,
    newton_solve,
    solver_mesh,
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
    mesh = solver_mesh(512, BETA, 12.0)
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


def _dense(op):
    """The interior matrix of a mode operator, dense: band plus rank-one part."""
    block = op.mesh.dense(op.band)
    return block if op.rank_one is None else block + np.outer(*op.rank_one)


def _boundary_column(point, k):
    """The interior rows' coefficients of the boundary unknown, which the
    mode operator leaves out: the Laplacian's coupling and, for k = 0, the
    nonlocal average's weight on the last node."""
    mesh = point.mesh
    col = mesh.lap_rows(2.0 * k / BETA + 1.0)[:-1, -1]
    if k == 0:
        V = point.rho * np.exp(point.u_tilde) / BETA**2
        nu = mesh.quad * mesh.t * V
        col = col - V[:-1] * (nu[-1] / nu.sum())
    return col


def test_constants_annihilated_by_nonlocal_part(family100):
    op = build_mode_operator(family100, 0)
    rows = _dense(op) @ np.ones(family100.mesh.n - 1) + _boundary_column(family100, 0)
    scale = np.abs(family100.mesh.lap_rows(1.0)).sum(axis=1)[:-1]
    assert np.max(np.abs(rows) / scale) < 1e-13


def test_mode1_has_no_nonlocal_term(family100):
    op = build_mode_operator(family100, 1)
    assert op.rank_one is None
    mesh = family100.mesh
    phi = np.sin(2.0 * mesh.t) * (1.0 - mesh.t**2)
    # the local operator alone, with V on the diagonal as the band stores it
    V = family100.rho * np.exp(family100.u_tilde) / BETA**2
    local = mesh.lap_rows(2.0 / BETA + 1.0) + np.diag(V)
    assert np.array_equal(_dense(op), local[:-1, :-1])
    expected = (local @ phi)[:-1]
    got = _dense(op) @ phi[:-1] + _boundary_column(family100, 1) * phi[-1]
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_mode_operator_rejects_bad_k(family100):
    with pytest.raises(ParameterDomainError):
        build_mode_operator(family100, -1)


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
    res = _dense(op) @ x - eps * wx
    assert np.linalg.norm(res) <= 1e-8 * abs(eps) * np.linalg.norm(wx)


def test_spectrum_deterministic(family100):
    a = mode_spectrum(build_mode_operator(family100, 0), count=4)
    b = mode_spectrum(build_mode_operator(family100, 0), count=4)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvector_0, b.eigenvector_0)


def test_spectrum_mesh_stability(family1e4):
    mesh2 = solver_mesh(1024, BETA, family1e4.lam)
    refined = exact_disk_family(ALPHA, 1e4, mesh=mesh2)
    e1 = mode_spectrum(build_mode_operator(family1e4, 0), count=2).eigenvalues[0]
    e2 = mode_spectrum(build_mode_operator(refined, 0), count=2).eigenvalues[0]
    assert abs(e1 - e2) <= 1e-3 * abs(e2)


def test_weighted_self_adjointness(family100):
    op = build_mode_operator(family100, 0)
    mesh = family100.mesh
    A = _dense(op)
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


def _small_operator(diagonal, rank_one=None):
    """A 12-node operator whose band is ``diagonal`` times the identity."""
    mesh = RadialMesh.graded(12, BETA, 2.0)
    n = mesh.t.size - 1
    band = np.zeros((n, 2 * mesh.bandwidth + 1))
    band[:, mesh.bandwidth] = diagonal
    return ModeOperator(k=0, mesh=mesh, band=band, weight=np.ones(n), rank_one=rank_one)


def test_zero_band_is_spectrum_error(capfd):
    # an exact zero pivot: there is no shift-invert solve at zero
    with pytest.raises(SpectrumError, match=r"mode k=0 operator is singular \(info 1,"):
        mode_spectrum(_small_operator(0.0), count=3)
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("scale, sign", [(1.0, -1.0), (1e300, 1.0)])
def test_singular_sherman_morrison_denominator_is_spectrum_error(capfd, scale, sign):
    # B = I with u = s e0, v = sign s e0: 1 + v . B^-1 u is 0 for the first
    # pair and overflows to inf for the second
    e0 = np.eye(11)[0]
    op = _small_operator(1.0, rank_one=(scale * e0, sign * scale * e0))
    with pytest.raises(SpectrumError, match=r"mode k=0 operator is singular \(info 0, denom (0\.0|inf)\)"):
        mode_spectrum(op, count=2)
    assert capfd.readouterr().out == ""


def test_count_outside_arpack_range_is_parameter_error(capfd):
    op = _small_operator(1.0)
    assert mode_spectrum(op, count=9).eigenvalues.size == 9
    for count in (0, 10, 11):
        with pytest.raises(ParameterDomainError, match=r"count must lie in \[1, 9\] for 11 interior"):
            mode_spectrum(op, count=count)
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("k, field", [(1, "band"), (1, "weight"), (0, "rank_one")])
def test_non_finite_operator_is_spectrum_error(family100, capfd, k, field):
    op = build_mode_operator(family100, k)
    if field == "rank_one":
        bad = (op.rank_one[0].copy(), op.rank_one[1])
        bad[0][3] = np.nan
    else:
        bad = getattr(op, field).copy()
        bad[3] = np.nan
    bad_op = dataclasses.replace(op, **{field: bad})
    with pytest.raises(SpectrumError, match=rf"mode k={k} operator has a non-finite entry"):
        mode_spectrum(bad_op, count=2)
    # a count past ARPACK's bound is refused before the entries are read
    with pytest.raises(ParameterDomainError, match=r"count must lie in \[1, "):
        mode_spectrum(bad_op, count=op.band.shape[0])
    assert capfd.readouterr().out == ""


def test_eigensolver_nonconvergence_reported(family100):
    op = build_mode_operator(family100, 0)
    with pytest.raises(SpectrumError, match=r"converged \d of 8 requested eigenvalues for mode k=0"):
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
    return continue_branch(6.0, 8.0, 5, spec, nodes=384)


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
    branch = continue_branch(5.0, 6.0, 3, spec, nodes=384)
    scan = nondegeneracy_scan(branch, k_max=2)
    assert scan.eig_min.shape == (3, 3)
    assert np.all(np.isfinite(scan.eig_min))


@pytest.fixture(scope="module")
def one_point_branch():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    return continue_branch(7.0, 7.0, 1, spec, nodes=384)


def test_scan_single_point_branch(one_point_branch):
    scan = nondegeneracy_scan(one_point_branch, k_max=3)
    assert scan.eig_min.shape == (1, 4)
    assert len(list(scan.rows())) == 4



def _with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("which", ["short_branch", "one_point_branch"])
def test_scan_results_do_not_depend_on_workers(which, request, monkeypatch):
    branch = request.getfixturevalue(which)
    scans = []
    for cpus in (1, 3):
        _with_cpus(monkeypatch, cpus)
        scans.append(nondegeneracy_scan(branch, k_max=3))
        _assert_no_children()
    serial, forked = scans
    assert np.array_equal(serial.eig_min, forked.eig_min)
    assert np.array_equal(serial.eig_min_next, forked.eig_min_next)
    assert np.array_equal(serial.kernel_flags, forked.kernel_flags)


def test_scan_workers_follow_affinity(monkeypatch):
    assert workers._current_cpu() in os.sched_getaffinity(0)
    _with_cpus(monkeypatch, 3)
    monkeypatch.setattr(workers, "_current_cpu", lambda: 1)
    # one worker per CPU up to the number of points, none on the parent's CPU
    assert [workers._worker_cpus(p) for p in (1, 2, 5)] == [[], [0], [0, 2]]
    monkeypatch.setattr(workers, "_current_cpu", lambda: None)
    assert workers._worker_cpus(5) == [0, 1]
    monkeypatch.delattr(os, "fork")
    assert workers._worker_cpus(5) == []


def _before_each_operator(monkeypatch, hook):
    """Call hook(point) before each operator the scan builds, in whichever process builds it."""
    real = linearization.build_mode_operator

    def build(point, k):
        hook(point)
        return real(point, k)

    monkeypatch.setattr(linearization, "build_mode_operator", build)


@pytest.mark.parametrize("failures, first", [
    # on 3 CPUs the failing points may run in a worker, in the parent or both
    ({1: ParameterDomainError("at point 1"), 3: SpectrumError("at point 3")}, 1),
    ({0: SpectrumError("at point 0"), 2: ValueError("at point 2")}, 0),
    ({2: ValueError("at point 2"), 4: SpectrumError("at point 4")}, 2),
])
def test_scan_raises_the_serial_scans_first_failure(short_branch, monkeypatch, failures, first):
    def fail(point):
        i = [p is point for p in short_branch.points].index(True)
        if i in failures:
            raise failures[i]

    _before_each_operator(monkeypatch, fail)
    expected = failures[first]
    for cpus in (1, 3):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(type(expected)) as err:
            nondegeneracy_scan(short_branch, k_max=1)
        assert type(err.value) is type(expected)
        assert str(err.value) == str(expected)
        _assert_no_children()


def _assert_scan_is_serial(branch, monkeypatch, cpus):
    """With ``cpus`` CPUs the scan gives the one-CPU result bit for bit and leaves no child."""
    _with_cpus(monkeypatch, 1)
    serial = nondegeneracy_scan(branch, k_max=1)
    _with_cpus(monkeypatch, cpus)
    scan = nondegeneracy_scan(branch, k_max=1)
    _assert_no_children()
    assert np.array_equal(scan.eig_min, serial.eig_min)
    assert np.array_equal(scan.eig_min_next, serial.eig_min_next)


def test_scan_recomputes_the_points_of_a_worker_that_died(short_branch, monkeypatch):
    parent = os.getpid()

    def die_in_worker(point):
        if os.getpid() != parent:
            os._exit(7)

    _before_each_operator(monkeypatch, die_in_worker)
    _assert_scan_is_serial(short_branch, monkeypatch, 2)


def test_scan_ignores_a_failed_affinity_call(short_branch, monkeypatch):
    def refuse(pid, cpus):
        raise OSError("sched_setaffinity: invalid argument")

    parent = os.getpid()
    in_workers = np.frombuffer(mmap.mmap(-1, 8))  # operators built by workers, shared with them

    def count(point):
        if os.getpid() != parent:
            in_workers[0] += 1
        else:
            # the parent waits for a worker's first operator, so that an
            # unpinned worker that runs at all gets a point
            deadline = time.monotonic() + 10.0
            while not in_workers[0] and time.monotonic() < deadline:
                time.sleep(0.001)

    _with_cpus(monkeypatch, 1)
    serial = nondegeneracy_scan(short_branch, k_max=1)
    _before_each_operator(monkeypatch, count)
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    _with_cpus(monkeypatch, 3)
    scan = nondegeneracy_scan(short_branch, k_max=1)
    _assert_no_children()
    assert np.array_equal(scan.eig_min, serial.eig_min)
    assert np.array_equal(scan.eig_min_next, serial.eig_min_next)
    assert in_workers[0] > 0


def test_scan_interrupted_in_parent_stops_and_reaps_workers(short_branch, monkeypatch):
    parent = os.getpid()

    def interrupt_parent(point):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    _before_each_operator(monkeypatch, interrupt_parent)
    _with_cpus(monkeypatch, 3)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        nondegeneracy_scan(short_branch, k_max=1)
    assert time.monotonic() - t0 < 10.0
    _assert_no_children()


def test_scan_runs_a_group_itself_when_fork_fails(short_branch, monkeypatch):
    _with_cpus(monkeypatch, 1)
    serial = nondegeneracy_scan(short_branch, k_max=1)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    _with_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    scan = nondegeneracy_scan(short_branch, k_max=1)
    assert np.array_equal(scan.eig_min, serial.eig_min)
    assert np.array_equal(scan.eig_min_next, serial.eig_min_next)


def test_scan_workers_leave_through_os_exit(tmp_path):
    # a worker that left through the interpreter's exit would flush the
    # pending stdout buffer it inherited and run the atexit hooks
    marker = tmp_path / "atexit"
    script = (
        "import atexit, os, sys\n"
        "from mfelab import WeightSpec, continue_branch, nondegeneracy_scan\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"atexit.register(lambda: open({str(marker)!r}, 'a').write('exit\\n'))\n"
        "branch = continue_branch(7.0, 7.5, 2, WeightSpec(alpha=0.5), nodes=128)\n"
        "sys.stdout.write('pending\\n')\n"
        "nondegeneracy_scan(branch, k_max=1)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(env, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout == "pending\n"
    assert marker.read_text() == "exit\n"  # the parent's hook, once


def test_scan_warm_start_matches_cold_spectra(monkeypatch):
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(6.0, 8.0, 3, spec, nodes=384)
    k_max = 16
    ops = []

    def counted(*args, **kwargs):
        w, X, applications = _arnoldi(*args, **kwargs)
        ops.append(applications)
        return w, X, applications

    monkeypatch.setattr(linearization, "_arnoldi", counted)
    # the counter only sees the calls of its own process: one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    scan = nondegeneracy_scan(branch, k_max=k_max)
    assert len(ops) == len(branch.points) * (k_max + 1)
    warm_ops = sum(ops)
    ops.clear()
    # each mode on its own, from the deterministic start vector
    cold = np.array([
        [mode_spectrum(build_mode_operator(pt, k), count=2).eigenvalues
         for k in range(k_max + 1)]
        for pt in branch.points
    ])
    cold_ops = sum(ops)
    assert np.all(np.abs(scan.eig_min - cold[..., 0]) <= 1e-9 * np.abs(cold[..., 0]))
    assert np.all(np.abs(scan.eig_min_next - cold[..., 1]) <= 1e-8 * np.abs(cold[..., 1]))
    # measured: 21.0 OP applications per spectrum warm, 29.7 cold
    assert warm_ops < cold_ops


@pytest.fixture(scope="module")
def arnoldi_cases():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    point = newton_solve(spec, solver_mesh(384, BETA, 8.0), lam=8.0)
    return {
        "disk k=0": (build_mode_operator(point, 0), build_mode_operator(point, 1)),
        "disk k=3": (build_mode_operator(point, 3), build_mode_operator(point, 2)),
        "entire k=1": (entire_mode_operator(ALPHA, 1, n=384), entire_mode_operator(ALPHA, 2, n=384)),
    }


@pytest.mark.parametrize("count", [2, 8])
@pytest.mark.parametrize("warm", [False, True])
def test_arnoldi_matches_scipy_eigs_bit_for_bit(arnoldi_cases, count, warm):
    for name, (op, neighbour) in arnoldi_cases.items():
        n = op.band.shape[0]
        solve = op.mesh.band_solver(op.band, op.rank_one)[0]

        def apply(x):
            return solve(op.weight * x)

        if warm:
            v0 = mode_spectrum(neighbour, count=2).eigenvector_0[:-1]
        else:
            v0 = np.sin(1.0 + np.arange(n))
        w, X, ops = _arnoldi(apply, v0, count)
        # scipy calls OPinv only in shift-invert mode; A is never applied
        A = spl.LinearOperator((n, n), matvec=lambda x: x, dtype=float)
        OPinv = spl.LinearOperator((n, n), matvec=apply, dtype=float)
        w_ref, X_ref = spl.eigs(A, k=count, sigma=0.0, OPinv=OPinv, which="LM", v0=v0)
        assert np.array_equal(w, w_ref), name
        assert np.array_equal(X, X_ref), name
        assert ops >= count


def test_arnoldi_serves_restart_request(monkeypatch):
    # a rank-3 OP leaves an invariant Krylov subspace after three steps, so
    # ARPACK asks for a fresh start vector (ido 4)
    real = linearization._arpack
    requests = set()

    def dnaupd_wrap(state, *args):
        real.dnaupd_wrap(state, *args)
        requests.add(state["ido"])

    fake = types.SimpleNamespace(dnaupd_wrap=dnaupd_wrap, dneupd_wrap=real.dneupd_wrap)
    monkeypatch.setattr(linearization, "_arpack", fake)
    n = 60
    diag = np.r_[1.0, 2.0, 3.0, np.zeros(n - 3)]
    w, X, _ = _arnoldi(lambda x: diag * x, np.ones(n), 2)
    assert 4 in requests
    assert np.allclose(w, [1.0 / 3.0, 0.5], rtol=1e-12)
    assert np.allclose(np.abs(X[[2, 1]].real), np.eye(2), atol=1e-12)


def test_zero_or_non_finite_start_rejected(family100):
    op = build_mode_operator(family100, 1)
    n = op.band.shape[0]
    for start in (np.zeros(n), np.full(n, np.nan), np.r_[np.inf, np.ones(n - 1)]):
        with pytest.raises(ParameterDomainError):
            mode_spectrum(op, count=2, start=start)


def test_arpack_failures_become_spectrum_errors(family100, monkeypatch):
    op = build_mode_operator(family100, 1)
    n = op.band.shape[0]
    # dnaupd: info -9, a zero start vector
    with pytest.raises(SpectrumError, match="info -9"):
        _arnoldi(lambda x: x, np.zeros(n), 2)
    # dnaupd: info -4, no iterations allowed
    with pytest.raises(SpectrumError, match="info -4 for mode k=1"):
        mode_spectrum(op, count=2, maxiter=0)
    # dneupd: any nonzero info
    real = linearization._arpack

    def dneupd_wrap(state, *args):
        real.dneupd_wrap(state, *args)
        state["info"] = -14

    fake = types.SimpleNamespace(dnaupd_wrap=real.dnaupd_wrap, dneupd_wrap=dneupd_wrap)
    monkeypatch.setattr(linearization, "_arpack", fake)
    with pytest.raises(SpectrumError, match="dneupd failed with info -14 for mode k=1"):
        mode_spectrum(op, count=2)


def test_start_vector_length_checked(family100):
    op = build_mode_operator(family100, 1)
    with pytest.raises(ParameterDomainError):
        mode_spectrum(op, count=2, start=np.ones(op.band.shape[0] + 1))
