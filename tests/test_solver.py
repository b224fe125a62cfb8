"""Solver tests: the closed-form disk family is the oracle throughout."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from mfelab import radial_solver
from mfelab.errors import NotApplicableError, ParameterDomainError, SolverError
from mfelab.greens import WeightSpec, ell_coefficient
from mfelab.meshing import RadialMesh
from mfelab.radial_solver import (
    EIGHT_PI,
    Branch,
    SolutionPoint,
    _brentq,
    approximate_profile,
    continue_branch,
    exact_disk_family,
    find_fold_pair,
    newton_solve,
    solver_mesh,
)

ALPHA = 0.5
BETA = 1.5
CONST = WeightSpec(alpha=ALPHA)
LIMIT = EIGHT_PI * BETA


def family_field(m, t):
    return 2.0 * (np.log1p(m) - np.log1p(m * t**2))


@pytest.fixture(scope="module")
def gauss_branch():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    return continue_branch(2.0, 12.0, 26, spec)


# residual ------------------------------------------------------------------


def residual(u, rho, spec, mesh):
    """Pointwise residual Delta u + rho h e^u / M in the plane variables,
    from the t-form map that Newton solves."""
    beta = 1.0 + spec.alpha
    G = radial_solver._residual_map(spec, mesh)[0](np.asarray(u, dtype=float), rho)[0]
    return (beta**2 * mesh.t ** (2.0 - 2.0 / beta)) * G


def test_residual_zero_field_zero_rho():
    mesh = RadialMesh.graded(128, BETA, 3.0)
    out = residual(np.zeros(128), 0.0, CONST, mesh)
    assert np.all(out == 0.0)


def test_residual_exact_family_is_truncation_sized():
    pt = exact_disk_family(ALPHA, 10.0)
    raw = residual(pt.u, pt.rho, CONST, pt.mesh)
    assert pt.mesh.n == 512
    assert np.max(np.abs(raw)) <= 1e-8


def test_residual_uniform_field_quadrature_oracle():
    # u = 0, rho = 1: residual is h/int h = |x|^(2a) * (2a+2)/(2 pi),
    # i.e. 3 r / (2 pi) at alpha = 1/2
    mesh = RadialMesh.graded(256, BETA, 2.0)
    out = residual(np.zeros(256), 1.0, CONST, mesh)
    oracle = 3.0 * mesh.r / (2.0 * np.pi)
    assert np.max(np.abs(out - oracle) / oracle) <= 1e-10


# exact family ---------------------------------------------------------------


def test_exact_family_scalar_values():
    pt = exact_disk_family(ALPHA, 1.0)
    assert pt.rho == pytest.approx(6.0 * np.pi, rel=1e-14)
    assert pt.lam == pytest.approx(np.log(3.0 / np.pi), abs=1e-9)
    u0 = float(pt.mesh.point_rows(0.0)[0] @ pt.u)
    assert u0 == pytest.approx(2.0 * np.log(2.0), abs=1e-10)

    pt = exact_disk_family(ALPHA, 100.0)
    assert pt.rho == pytest.approx(12.0 * np.pi * 100.0 / 101.0, rel=1e-14)
    assert pt.lam == pytest.approx(np.log(151.5 / np.pi), abs=1e-9)


def test_exact_family_large_m_limit():
    pt = exact_disk_family(ALPHA, 1e8)
    assert abs(pt.rho - LIMIT) <= LIMIT * 1.1e-8


def test_exact_family_needs_positive_m():
    for m in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterDomainError):
            exact_disk_family(ALPHA, m)


# newton ---------------------------------------------------------------------


def test_newton_accepts_exact_initial():
    pt = exact_disk_family(ALPHA, 10.0)
    sol = newton_solve(CONST, pt.mesh, lam=pt.lam, initial=pt.u)
    assert sol.newton_iters <= 2
    assert np.max(np.abs(sol.u - pt.u)) <= 1e-9


def test_newton_step_guard_binds_at_fixed_lambda():
    # from the ansatz, the first update already brings the residual below
    # NEWTON_TOL on this mesh, but it is larger than sqrt(NEWTON_TOL)
    # (1 + max|u|), so the step guard asks for a second update
    mesh = solver_mesh(64, BETA, 10.0)
    pt = newton_solve(CONST, mesh, lam=10.0)
    assert pt.res_norm <= radial_solver.NEWTON_TOL
    assert pt.newton_iters == 2


@pytest.mark.parametrize("m", [10.0, 1e4])
def test_newton_cold_start_recovers_family(m):
    ex = exact_disk_family(ALPHA, m)
    lam = float(np.log(BETA * (1.0 + m) / np.pi))
    sol = newton_solve(CONST, ex.mesh, lam=lam)
    assert np.max(np.abs(sol.u - ex.u)) <= 1e-8
    assert abs(sol.rho - ex.rho) <= 1e-10 * ex.rho


def test_newton_small_solution_from_zero():
    # lambda = -0.7 is the family's m = 0.04, rho = 1.45: a small solution
    # just off the trivial one, which Newton reaches from the bubble ansatz
    lam = -0.7
    mesh = solver_mesh(512, BETA, lam)
    ex = exact_disk_family(ALPHA, np.pi * np.exp(lam) / BETA - 1.0, mesh=mesh)
    pt = newton_solve(CONST, mesh, lam=lam)
    assert pt.newton_iters <= 10
    assert np.all(pt.u[:-1] > 0.0)
    assert pt.u[-1] == 0.0
    assert np.max(np.abs(pt.u - ex.u)) <= 1e-8
    assert abs(pt.rho - ex.rho) <= 1e-10 * ex.rho


def test_newton_gaussian_blowup_matches_rate_law():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    mesh = solver_mesh(512, BETA, 8.0)
    pt = newton_solve(spec, mesh, lam=8.0)
    ell = ell_coefficient(ALPHA, spec.hbar1((0.0, 0.0)), spec.lap_log_hstar0())
    predicted = LIMIT + ell * np.exp(-8.0 / BETA)
    assert abs(pt.rho - predicted) <= 0.01 * predicted


def test_newton_parameter_validation():
    mesh = RadialMesh.graded(64, BETA, 2.0)
    with pytest.raises(TypeError):
        newton_solve(CONST, mesh)
    with pytest.raises(ParameterDomainError):
        newton_solve(CONST, mesh, lam=1.0, initial=np.full(64, np.nan))


@pytest.mark.parametrize("fixed", [{"lam": math.nan}, {"lam": -math.inf}, {"lam": math.inf}])
def test_newton_rejects_non_finite_parameter(fixed):
    mesh = RadialMesh.graded(64, BETA, 2.0)
    with pytest.raises(ParameterDomainError, match="must be finite"):
        newton_solve(CONST, mesh, **fixed)


def test_mesh_for_another_alpha_is_refused():
    # a beta = 2 mesh at alpha = 0.5: Newton converged on it (residual
    # 5.4e-14) to rho = 37.7844, against 37.7338 on the beta = 1.5 mesh
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    wrong = solver_mesh(512, 2.0, 8.0)
    message = "mesh built for beta = 2.0, but alpha = 0.5 needs 1.5"
    with pytest.raises(ParameterDomainError, match=message):
        newton_solve(spec, wrong, lam=8.0)
    pt = newton_solve(spec, solver_mesh(512, BETA, 8.0), lam=8.0)
    assert pt.rho == pytest.approx(37.7338, abs=1e-4)
    with pytest.raises(ParameterDomainError, match=message):
        SolutionPoint(spec, wrong, pt.u, pt.rho, pt.res_norm, pt.newton_iters)
    with pytest.raises(ParameterDomainError, match=message):
        exact_disk_family(ALPHA, 10.0, mesh=wrong)


def test_origin_row_built_once_per_mesh_and_lambda_keeps_its_bits(monkeypatch):
    # Newton's lambda constraint and the lambda its point computes on
    # construction read one cached origin row, the one-row Fornberg pass
    # bit for bit; the cache keeps the last mesh's row only
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    point_rows = RadialMesh.point_rows

    def counted(mesh, t_star, m=0):
        calls.append((mesh, t_star, m))
        return point_rows(mesh, t_star, m)

    monkeypatch.setattr(RadialMesh, "point_rows", counted)
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(6.0, 8.0, 3, spec, nodes=128)
    lams = branch.lambdas
    meshes = [p.mesh for p in branch.points]
    assert calls == [(mesh, 0.0, 0) for mesh in meshes]
    for p, lam in zip(branch.points, lams):
        row = point_rows(p.mesh, 0.0, 0)[0]
        assert lam == float(row @ p.u) - p.log_mass
    last = meshes[-1]
    assert radial_solver._origin_row(last) is radial_solver._origin_row(last)
    assert not radial_solver._origin_row(last).flags.writeable
    assert np.max(np.abs(lams - [6.0, 7.0, 8.0])) <= 1e-10


@pytest.mark.parametrize(
    "fill, message", [(0.0, "dgbtrf info 11"), (math.nan, "Newton system is not finite")]
)
def test_newton_bad_band_is_solver_error(monkeypatch, fill, message):
    mesh = RadialMesh.graded(64, BETA, 2.0)
    pack = mesh.diagonal_ordered

    def broken(band):
        ab = pack(band)
        ab[:, 10] = fill  # column 10 of the Newton matrix
        return ab

    monkeypatch.setattr(mesh, "diagonal_ordered", broken)
    with pytest.raises(SolverError, match=message) as err:
        newton_solve(CONST, mesh, lam=1.0)
    assert len(err.value.trace) == 1


def test_newton_holds_one_dense_array():
    # the dense Laplacian rows behind G = lap @ u are the only n x n array
    n = 1024
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    mesh = solver_mesh(n, BETA, 8.0)
    tracemalloc.start()
    try:
        newton_solve(spec, mesh, lam=8.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


# mass bookkeeping -----------------------------------------------------------


def test_mass_quadrature_identity():
    pt = exact_disk_family(ALPHA, 100.0)
    # rho h e^(u~) integrates to rho
    assert pt.local_mass(1.0) == pytest.approx(pt.rho, rel=1e-9)
    # closed-form mass fraction of B(0, r0): T^2 (1+m)/(1+m T^2), T = r0^beta
    T2 = 0.5 ** (2.0 * BETA)
    frac = T2 * 101.0 / (1.0 + 100.0 * T2)
    assert pt.local_mass(0.5) == pytest.approx(pt.rho * frac, rel=1e-9)
    with pytest.raises(ParameterDomainError):
        pt.local_mass(0.0)


def test_normalize_constant_shift_invariance():
    from mfelab.radial_solver import SolutionPoint

    pt = exact_disk_family(ALPHA, 10.0)
    shifted = SolutionPoint(CONST, pt.mesh, pt.u + 3.7, pt.rho, pt.res_norm, 0)
    assert np.max(np.abs(pt.u_tilde - shifted.u_tilde)) <= 1e-12
    assert abs(pt.lam - shifted.lam) <= 1e-12


def test_normalize_sigma_lambda_relation():
    mesh = solver_mesh(512, BETA, 3.0)
    pt = newton_solve(CONST, mesh, lam=3.0)
    assert pt.lam == pytest.approx(3.0, abs=1e-10)
    assert pt.sigma == pytest.approx(np.exp(-1.0), rel=1e-10)
    assert pt.gamma == pytest.approx(pt.rho / (8.0 * BETA**2), rel=1e-14)


# mesh convergence -----------------------------------------------------------


def test_solve_error_decays_at_design_order():
    m = 1000.0
    lam = float(np.log(BETA * (1.0 + m) / np.pi))
    ns = [96, 144, 216, 324]
    errs = []
    for n in ns:
        mesh = RadialMesh.graded(n, BETA, 5.0)
        exact = family_field(m, mesh.t)
        sol = newton_solve(CONST, mesh, lam=lam, initial=exact)
        err = sol.u - exact
        errs.append(float(np.sqrt(mesh.quad @ err**2)))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 5.5 <= slope <= 6.5


# profile and continuation ----------------------------------------------------


def test_approximate_profile_shape():
    r = np.linspace(0.01, 1.0, 200)
    U = approximate_profile(5.0, CONST, r)
    assert approximate_profile(5.0, CONST, 0.0) == pytest.approx(5.0)
    assert np.all(np.diff(U) < 0.0)


def test_approximate_profile_tracks_normalized_family():
    pt = exact_disk_family(ALPHA, 100.0)
    sel = pt.mesh.r < 0.25
    U = approximate_profile(pt.lam, CONST, pt.mesh.r[sel])
    assert np.max(np.abs(pt.u_tilde[sel] - U)) <= 3.0


def test_branch_constant_weight_matches_family_law():
    br = continue_branch(0.0, 6.0, 60, CONST)
    assert br.failure is None
    assert len(br.points) == 60
    assert np.all(np.diff(br.rhos) > 0.0)
    assert br.fold_flags == ()
    for p in br.points:
        m = np.pi * np.exp(p.lam) / BETA - 1.0
        assert abs(p.rho - LIMIT * m / (1.0 + m)) <= 1e-6
        assert p.res_norm <= 1e-10


def test_branch_single_point():
    br = continue_branch(2.0, 2.0, 5, CONST)
    assert len(br.points) == 1
    assert br.points[0].lam == pytest.approx(2.0, abs=1e-10)


def test_branch_gives_up_when_its_first_point_fails(monkeypatch):
    calls = []

    def refuse(spec, mesh, **kwargs):
        calls.append(kwargs["lam"])
        if len(calls) > 200:
            raise RuntimeError("continuation does not give up")
        raise SolverError("refused")

    monkeypatch.setattr(radial_solver, "newton_solve", refuse)
    br = continue_branch(6.0, 8.0, 3, CONST, nodes=64)
    assert br.points == ()
    assert br.failure["lambda_target"] == 6.0
    assert br.failure["reason"] == "refused"
    # sub-targets bisect toward 5.0 until the gap reaches MIN_STEP
    assert min(calls) > 5.0


def _branch_arrays(branch):
    """Every array and scalar a branch carries, for comparison with ==."""
    pts = branch.points
    fields = {
        "lambda": branch.lambdas, "rho": branch.rhos,
        "res_norm": [p.res_norm for p in pts], "newton_iters": [p.newton_iters for p in pts],
        "u": [p.u for p in pts], "log_mass": [p.log_mass for p in pts],
    }
    for name in ("t", "r", "quad", "d1_band", "d2_band", "_intervals"):
        fields[name] = [getattr(p.mesh, name) for p in pts]
    return fields, branch.fold_flags, branch.failure, branch.nodes


def _same(a, b):
    fields_a, *rest_a = a
    fields_b, *rest_b = b
    assert rest_a == rest_b
    for name, values in fields_a.items():
        assert len(values) == len(fields_b[name]), name
        for x, y in zip(values, fields_b[name]):
            assert np.array_equal(x, y), name


def _refusing(monkeypatch, refuse):
    """newton_solve that raises SolverError where refuse(lam, process's calls) holds."""
    real, calls = radial_solver.newton_solve, []

    def solve(spec, mesh, **kwargs):
        lam = kwargs["lam"]
        if refuse(lam, calls):
            calls.append((lam, False))
            raise SolverError("refused")
        calls.append((lam, True))
        return real(spec, mesh, **kwargs)

    monkeypatch.setattr(radial_solver, "newton_solve", solve)
    return calls


SPLIT_WINDOW = (2.0, 8.0, 25)  # targets 2.0, 2.25, ..., 8.0; cold from 4.0 on
REFUSED = 6.5


def _refuse_until_bisected(lam, calls):
    # the cold target 6.5 fails until this process solved a sub-step just
    # below it: its item fails wherever it runs, and the continuation
    # retries, bisects and then solves it
    return lam == REFUSED and not any(REFUSED - 0.25 < x < REFUSED and ok for x, ok in calls)


@pytest.mark.parametrize("case", ["crosses_cold_start", "bisects_a_cold_target", "first_point_fails"])
def test_branch_does_not_depend_on_workers(case, monkeypatch):
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    refuse = {
        "crosses_cold_start": lambda lam, calls: False,
        "bisects_a_cold_target": _refuse_until_bisected,
        "first_point_fails": lambda lam, calls: lam <= SPLIT_WINDOW[0],
    }[case]
    runs = []
    for cpus in (1, 2, 3, None):
        with monkeypatch.context() as m:
            if cpus is None:
                m.delattr(os, "fork")
            else:
                m.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            calls = _refusing(m, refuse)
            runs.append(_branch_arrays(continue_branch(*SPLIT_WINDOW, spec, nodes=128)))
        if case == "bisects_a_cold_target":
            # the sub-steps run here, whichever process refused the item
            assert [ok for x, ok in calls if x == REFUSED][-1]
            assert any(REFUSED - 0.25 < x < REFUSED for x, _ in calls)
    for run in runs[1:]:
        _same(runs[0], run)
    fields, _, failure, _ = runs[0]
    if case == "first_point_fails":
        assert fields["lambda"].size == 0
        assert failure["lambda_target"] == SPLIT_WINDOW[0]
    else:
        assert failure is None
        assert len(fields["lambda"]) == SPLIT_WINDOW[2]


@pytest.mark.parametrize("case", ["holds", "bisects_a_cold_target", "branch_stops_short",
                                  "companion_stops_short"])
def test_companion_is_the_plain_branch_on_its_node_count(case, monkeypatch):
    # the companion marched in the branch's job is the plain continuation on
    # its node count bit for bit, with and without workers; a branch that
    # stops short comes back without one, and on one CPU solves none of its
    # points
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    refuse = {
        "holds": lambda n, lam: False,
        "bisects_a_cold_target": lambda n, lam: n == 128 and _refuse_until_bisected(
            lam, [(x, ok) for m, x, ok in calls if m == 128]),
        "branch_stops_short": lambda n, lam: n == 128 and lam > 6.0,
        "companion_stops_short": lambda n, lam: n == 64 and lam > 6.0,
    }[case]
    real, calls = radial_solver.newton_solve, []

    def solve(spec, mesh, **kwargs):
        ok = not refuse(mesh.n, kwargs["lam"])
        calls.append((mesh.n, kwargs["lam"], ok))
        if not ok:
            raise SolverError("refused")
        return real(spec, mesh, **kwargs)

    monkeypatch.setattr(radial_solver, "newton_solve", solve)
    plain = {n: _branch_arrays(continue_branch(*SPLIT_WINDOW, spec, nodes=n)) for n in (128, 64)}
    for cpus in (1, 2, None):
        calls.clear()
        with monkeypatch.context() as m:
            if cpus is None:
                m.delattr(os, "fork")
            else:
                m.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            branch = continue_branch(*SPLIT_WINDOW, spec, nodes=128, companion=64)
        _same(_branch_arrays(branch), plain[128])
        if case == "branch_stops_short":
            assert branch.companion is None
            if cpus == 1:
                assert {n for n, _, _ in calls} == {128}
        else:
            _same(_branch_arrays(branch.companion), plain[64])
    assert (branch.failure is None) == (case != "branch_stops_short")


def test_rows_go_only_to_cold_targets(monkeypatch):
    # the continuation's worker items are solved from Newton's own cold
    # start, so the warm guess must ignore the previous point at each of them
    counts, real = [], radial_solver.shared

    def recorded(compute, count):
        counts.append(count)
        return real(compute, count)

    monkeypatch.setattr(radial_solver, "shared", recorded)
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(*SPLIT_WINDOW, spec, nodes=128)
    prev = branch.points[0]
    assert counts == [17]
    for target in np.linspace(*SPLIT_WINDOW)[-counts[0]:]:
        target = float(target)
        assert target >= radial_solver.COLD_START
        mesh = solver_mesh(128, BETA, target)
        assert radial_solver._warm_guess(prev, target, mesh) is None
    # the first target is solved in the caller even when it is cold, and
    # a cold tail shorter than COLD_ROWS_MIN is solved there too
    assert radial_solver.COLD_ROWS_MIN == 3
    counts.clear()
    continue_branch(6.0, 7.5, 4, spec, nodes=128)
    continue_branch(6.0, 7.0, 3, spec, nodes=128)
    assert counts == [3, 0]


def test_branch_range_validation():
    with pytest.raises(ParameterDomainError):
        continue_branch(3.0, 2.0, 5, CONST)
    with pytest.raises(ParameterDomainError):
        continue_branch(0.0, 1.0, 0, CONST)
    # one step would solve lambda = 6 only and drop the end of the window
    with pytest.raises(ParameterDomainError, match="steps >= 2"):
        continue_branch(6.0, 14.0, 1, CONST)


def test_branch_positive_ell_crosses_limit_and_folds(gauss_branch):
    br = gauss_branch
    assert br.failure is None
    assert len(br.points) == 26
    assert br.fold_flags != ()
    assert np.max(br.rhos) > LIMIT
    tail = br.lambdas >= 8.0
    assert np.all(br.rhos[tail] > LIMIT)
    assert np.all(np.diff(br.rhos)[tail[1:]] < 0.0)


def test_branch_negative_ell_stays_below_limit():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=-0.25)
    br = continue_branch(6.0, 12.0, 13, spec)
    assert br.failure is None
    tail = br.lambdas >= 8.0
    assert np.all(br.rhos[tail] < LIMIT)
    assert np.all(np.diff(br.rhos)[tail[1:]] > 0.0)


def test_fold_pair_shares_rho(gauss_branch):
    pa, pb = find_fold_pair(gauss_branch)
    assert pa.lam < pb.lam
    assert abs(pa.rho - pb.rho) <= 1e-10 * pa.rho
    assert pa.mesh is pb.mesh
    no_fold = Branch(CONST, gauss_branch.points, ())
    with pytest.raises(NotApplicableError):
        find_fold_pair(no_fold)


def test_fold_pair_builds_its_residual_map_once(gauss_branch, monkeypatch):
    # forced serial, both roots' Brent solves run here on the pair's one
    # mesh and share one build of its slab operator; the pair is the one the
    # dense n x n Laplacian's BLAS matvec gives, bit for bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    builds = []
    slab_matvec = RadialMesh.slab_matvec

    def counted(mesh, band):
        builds.append(mesh)
        return slab_matvec(mesh, band)

    monkeypatch.setattr(RadialMesh, "slab_matvec", counted)
    pair = find_fold_pair(gauss_branch)
    assert len(builds) == 1 and builds[0] is pair[0].mesh
    monkeypatch.setattr(RadialMesh, "slab_matvec", lambda mesh, band: mesh.dense(band).__matmul__)
    dense_pair = find_fold_pair(gauss_branch)
    for p, q in zip(pair, dense_pair):
        assert (p.rho, p.res_norm, p.newton_iters) == (q.rho, q.res_norm, q.newton_iters)
        assert np.array_equal(p.u, q.u)


def test_fold_pair_on_branch_mesh_policy():
    # a non-default node count: the pair must sit on the branch's own
    # solver mesh, not on the default 512-node one
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(2.0, 8.0, 25, spec, nodes=256)
    assert branch.failure is None
    assert branch.nodes == 256
    assert branch.fold_flags[0] == 11
    lam_hi = float(branch.lambdas[branch.fold_flags[0] + 1])
    want = solver_mesh(256, BETA, lam_hi).t
    pa, pb = find_fold_pair(branch)
    assert np.array_equal(pa.mesh.t, want)
    assert np.array_equal(pb.mesh.t, want)
    assert abs(pa.rho - pb.rho) <= 1e-10 * pa.rho


def test_fold_pair_without_sign_change_is_solver_error():
    # a forced flag on a monotone branch: one bracket cannot straddle rho*
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(9.0, 12.0, 7, spec, nodes=128)
    assert branch.failure is None
    assert branch.fold_flags == ()
    with pytest.raises(SolverError, match="no sign change"):
        find_fold_pair(dataclasses.replace(branch, fold_flags=(3,)))


# Brent root finder ------------------------------------------------------------


def _recorded(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


BRENT_CASES = {
    "smooth": (lambda x: math.cos(x) - x, (0.0, 1.0)),
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, (3.0, 2.0)),
    "skewed": (lambda x: x**20 - 0.5, (0.0, 1.5)),
    "steep": (lambda x: math.tanh(1e4 * (x - 0.3137)), (-1.0, 2.0)),
    "noisy": (lambda x: x - 0.41 + 1e-6 * math.sin(1e8 * x), (0.0, 1.0)),
}


@pytest.mark.parametrize("xtol", [1e-13, 2e-12, 1e-6])
@pytest.mark.parametrize("name", sorted(BRENT_CASES))
def test_brentq_matches_scipy_bit_for_bit(name, xtol):
    f, (a, b) = BRENT_CASES[name]
    g_ref, xs_ref = _recorded(f)
    g, xs = _recorded(f)
    root = _brentq(g, a, b, xtol)
    assert root == brentq(g_ref, a, b, xtol=xtol)
    assert type(root) is float
    assert xs == xs_ref


def test_brentq_failures_match_scipy_evaluations():
    # saturated tanh on a huge bracket bisects and exhausts 100 iterations
    f = lambda x: math.tanh(x - 0.3)  # noqa: E731
    g_ref, xs_ref = _recorded(f)
    g, xs = _recorded(f)
    with pytest.raises(RuntimeError):
        brentq(g_ref, -1e200, 1e200, xtol=1e-13)
    with pytest.raises(SolverError, match="100 Brent iterations"):
        _brentq(g, -1e200, 1e200, 1e-13)
    assert len(xs_ref) == 102
    assert xs == xs_ref
    # no sign change: scipy's ValueError becomes a SolverError
    g_ref, xs_ref = _recorded(f)
    g, xs = _recorded(f)
    with pytest.raises(ValueError):
        brentq(g_ref, 1.0, 2.0)
    with pytest.raises(SolverError, match="no sign change"):
        _brentq(g, 1.0, 2.0, 2e-12)
    assert xs == xs_ref == [1.0, 2.0]
    # a NaN value stops both
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 1.0 else -1.0, 0.0, 2.0)
    with pytest.raises(SolverError, match="NaN"):
        _brentq(lambda x: math.nan if x > 1.0 else -1.0, 0.0, 2.0, 2e-12)


def test_mesh_policy_validation():
    # solver meshes need at least 64 nodes
    with pytest.raises(ParameterDomainError, match="64 nodes"):
        continue_branch(6.0, 7.0, 2, CONST, nodes=32)
    assert solver_mesh(64, BETA, 10.0).n == 64
