import importlib
import importlib.machinery
import json
import mmap
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgbsv

from mfelab import meshing, workers
from mfelab.errors import MfelabError
from mfelab.greens import WeightSpec
from mfelab.meshing import RadialMesh, band_matvec, fd_weights, scipy_extension
from mfelab.radial_solver import newton_solve


def test_fd_weights_exact_on_monomials():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-1.0, 1.0, 7))
    z = 0.3
    c = fd_weights(z, x, 2)
    for p in range(7):
        f = x**p
        assert c[0] @ f == pytest.approx(z**p, abs=1e-12)
        d1 = p * z ** (p - 1) if p >= 1 else 0.0
        assert c[1] @ f == pytest.approx(d1, abs=1e-11)
        d2 = p * (p - 1) * z ** (p - 2) if p >= 2 else 0.0
        assert c[2] @ f == pytest.approx(d2, abs=1e-10)


def test_fd_weights_rejects_bad_order():
    with pytest.raises(MfelabError):
        fd_weights(0.0, np.array([0.0, 1.0]), 2)
    with pytest.raises(MfelabError):
        fd_weights(0.0, np.array([]), 0)


def _sinh_nodes(n, a=3.0, t_max=1.0):
    i = np.arange(1, n + 1)
    return t_max * np.sinh(a * i / n) / np.sinh(a)


def test_quad_exact_on_cubics():
    # each cell integrates its own cubic interpolant, so global cubics are exact
    t = _sinh_nodes(40)
    q = RadialMesh(t, 1.5).quad
    f = 2.0 * t**3 - t**2 + 0.5 * t - 1.0
    exact = 2.0 / 4 - 1.0 / 3 + 0.5 / 2 - 1.0
    assert q @ f == pytest.approx(exact, abs=1e-14)


def test_quad_order_four():
    def F(t):
        return np.cos(3.0 * t) * np.exp(t)

    exact = -0.25402667531964007  # int_0^1 cos(3t) e^t dt
    errs = []
    for n in (64, 128, 256):
        t = _sinh_nodes(n)
        errs.append(abs(RadialMesh(t, 1.5).quad @ F(t) - exact))
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert order > 3.5
    assert errs[2] < 1e-8


def test_quad_partial_interval():
    def F(t):
        return np.cos(3.0 * t) * np.exp(t)

    def exact(b):
        # antiderivative of cos(3t) e^t
        return (np.cos(3.0 * b) + 3.0 * np.sin(3.0 * b)) * np.exp(b) / 10.0 - 0.1

    t = _sinh_nodes(256)
    mesh = RadialMesh(t, 1.5)
    for t_end in (0.3, 0.5, float(t[100]), 1.0):
        q = mesh.quad_to(t_end)
        assert q @ F(t) == pytest.approx(exact(t_end), abs=2e-8)
    # weights beyond the cut vanish
    q = mesh.quad_to(0.3)
    cut = int(np.searchsorted(t, 0.3))
    assert np.all(q[cut + 3 :] == 0.0)


def test_quad_rejects_bad_input():
    mesh = RadialMesh(_sinh_nodes(16), 1.5)
    with pytest.raises(MfelabError):
        mesh.quad_to(1.5)
    with pytest.raises(MfelabError):
        mesh.quad_to(0.0)
    with pytest.raises(MfelabError):
        RadialMesh(np.linspace(0.0, 1.0, 16), 1.5)


def test_derivative_matrices_order():
    beta = 1.5

    def g(t):
        return np.cos(2.0 * t**2) * np.exp(-(t**2))

    def g1(t):
        return np.exp(-(t**2)) * (-4.0 * t * np.sin(2.0 * t**2) - 2.0 * t * np.cos(2.0 * t**2))

    errs = []
    for n in (128, 256):
        mesh = RadialMesh.graded(n, beta, 4.0)
        errs.append(np.max(np.abs(mesh.dense(mesh.d1_band) @ g(mesh.t) - g1(mesh.t))))
    order = np.log2(errs[0] / errs[1])
    assert order > 4.5
    assert errs[1] < 1e-6


def test_even_reflection_near_origin():
    # stencils folded through t = 0 must stay accurate right at the first node
    mesh = RadialMesh.graded(256, 1.25, 5.0)
    t = mesh.t
    g = 1.0 / (1.0 + t**2)
    g1 = -2.0 * t / (1.0 + t**2) ** 2
    g2 = (6.0 * t**2 - 2.0) / (1.0 + t**2) ** 3
    w = mesh.halfwidth
    assert np.max(np.abs((mesh.dense(mesh.d1_band) @ g - g1)[:w])) < 1e-10
    assert np.max(np.abs((mesh.dense(mesh.d2_band) @ g - g2)[:w])) < 1e-7


def test_entire_bubble_kernel_identity():
    # (1 - t^2)/(1 + t^2) solves g'' + g'/t + 8 g/(1+t^2)^2 = 0 exactly
    mesh = RadialMesh(_sinh_nodes(256, 6.0, 10.0), 1.5)
    t = mesh.t
    y0 = (1.0 - t**2) / (1.0 + t**2)
    L = mesh.lap_rows(1.0) + np.diag(8.0 / (1.0 + t**2) ** 2)
    assert np.max(np.abs((L @ y0)[:-1])) < 5e-8


def test_point_rows_value_and_derivative():
    mesh = RadialMesh.graded(128, 1.5, 4.0)

    def g(t):
        return np.cos(2.0 * t**2) * np.exp(-(t**2))

    vals = g(mesh.t)
    at0 = mesh.point_rows(0.0, 0)
    assert at0[0] @ vals == pytest.approx(1.0, abs=1e-12)
    ts = 0.377
    rows = mesh.point_rows(ts, 1)
    assert rows[0] @ vals == pytest.approx(g(np.array([ts]))[0], abs=1e-11)
    d1 = np.exp(-(ts**2)) * (-4.0 * ts * np.sin(2.0 * ts**2) - 2.0 * ts * np.cos(2.0 * ts**2))
    assert rows[1] @ vals == pytest.approx(d1, abs=1e-8)
    with pytest.raises(MfelabError):
        mesh.point_rows(1.5)


def _solve_banded_layout(mesh, band):
    """The (2 bw + 1, n) diagonal-ordered packing that fed ``solve_banded``
    before bands went straight into gbsv storage."""
    bw = mesh.bandwidth
    rows, cols, vals = mesh.band_triplets(band)
    ab = np.zeros((2 * bw + 1, mesh.n))
    ab[bw + rows - cols, cols] = vals
    return ab


def _scaled_dirichlet_band(mesh, rows):
    """A row-scaled band of the Newton matrix's form, in ``rows`` rows."""
    bw = mesh.bandwidth
    band = mesh.lap_band(1.0)[:rows].copy()
    band[:, bw] += 1.0 + mesh.t[:rows]
    band[-1] = 0.0
    band[-1, bw] = 1.0
    return band / np.max(np.abs(band), axis=1)[:, None]


def test_band_matvec_matches_dense():
    rng = np.random.default_rng(2)
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    x = rng.standard_normal(mesh.n)
    # every row is checked: the Laplacian band has reflected windows in its
    # first rows and left-shifted windows in its last ones, and a random band
    # also fills the slots that fall outside the matrix, which must meet zeros
    noise = rng.standard_normal(mesh.d1_band.shape)
    for band in (mesh.lap_band(1.0), noise):
        y = band_matvec(band, x)
        exact = mesh.dense(band) @ x
        bound = 1e-14 * (mesh.dense(np.abs(band)) @ np.abs(x))
        assert np.all(np.abs(y - exact) <= bound)


def test_gbsv_layout_solve_equals_solve_banded():
    rng = np.random.default_rng(3)
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    bw, n = mesh.bandwidth, mesh.n
    band = _scaled_dirichlet_band(mesh, n)
    ab = mesh.diagonal_ordered(band)
    assert ab.shape == (3 * bw + 1, n)
    assert np.all(ab[:bw] == 0.0)
    dense = mesh.dense(band)
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= bw)
    assert np.array_equal(ab[2 * bw + i - j, j], dense[i, j])
    B = rng.standard_normal((n, 3))
    _, _, x, info = dgbsv(bw, bw, ab, B)
    assert info == 0
    assert np.array_equal(x, scipy.linalg.solve_banded((bw, bw), _solve_banded_layout(mesh, band), B))


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("rows", [96, 95])
def test_band_solver_matches_dense_solve(rows, rank_one):
    # full mesh bands (Newton) and (n - 1)-row interior blocks (mode spectra)
    rng = np.random.default_rng(4)
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    band = _scaled_dirichlet_band(mesh, rows)
    u, v, x, x2 = rng.standard_normal((4, rows))
    pair = (u, v) if rank_one else None
    solve, denom, info = mesh.band_solver(band, pair)
    assert info == 0
    dense = mesh.dense(band)
    exact = np.linalg.solve(dense + np.outer(u, v) if rank_one else dense, x)
    assert np.max(np.abs(solve(x) - exact)) <= 1e-12 * np.max(np.abs(exact))
    # a stack of columns is solved bit for bit as each column on its own
    solved = solve(np.column_stack([x, x2]))
    assert solved.shape == (rows, 2)
    assert np.array_equal(solved[:, 0], solve(x)) and np.array_equal(solved[:, 1], solve(x2))
    want = 1.0 + v @ np.linalg.solve(dense, u) if rank_one else 1.0
    assert denom == pytest.approx(want, rel=1e-12)


def test_band_solver_reports_singular_and_non_finite_bands():
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    solve, _, info = mesh.band_solver(np.zeros_like(mesh.d1_band))
    assert solve is None and info > 0
    band = _scaled_dirichlet_band(mesh, mesh.n)
    band[10, mesh.bandwidth] = np.nan
    solve, _, info = mesh.band_solver(band)
    assert solve is None and info == -5  # non-finite, never factored


_IMPORT_PROBE = """
import importlib.machinery, json, os, sys
seen = []
create = importlib.machinery.ExtensionFileLoader.create_module
def spy(self, spec):
    seen.append([spec.name, os.environ.get("OPENBLAS_THREAD_TIMEOUT")])
    return create(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = spy
imported = "numpy" in sys.modules
import mfelab
print(json.dumps([imported, seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


@pytest.mark.parametrize("preset", [None, "7"])
def test_package_imports_shorten_openblas_spin_only_while_importing(preset):
    # numpy's extensions (its OpenBLAS among them) and scipy's LAPACK load
    # under the short timeout, a value the environment sets wins, and the
    # environment is as it was once ``import mfelab`` returns
    timeout = "OPENBLAS_THREAD_TIMEOUT"
    env = {k: v for k, v in os.environ.items() if k != timeout}
    if preset is not None:
        env[timeout] = preset
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    imported, seen, after = json.loads(proc.stdout)
    assert not imported
    loaded = dict(seen)
    assert "numpy._core._multiarray_umath" in loaded and "scipy.linalg._flapack" in loaded
    blas = {name: value for name, value in loaded.items() if name.split(".")[0] in ("numpy", "scipy")}
    assert set(blas.values()) == {preset or "4"}
    assert after == preset


@pytest.mark.parametrize("n", [64, 65, 67, 127, 256, 512, 1024, 2048])
def test_slab_matvec_is_the_dense_product_bit_for_bit(n):
    # Newton's residual keeps the dense BLAS matvec's bits, which the fold
    # root finding would amplify to ~1e-9 in lambda; the bands are Newton's
    # Laplacian, a mode operator's and d/dt, the vectors of mixed magnitude
    rng = np.random.default_rng(n)
    mesh = RadialMesh.graded(n, 1.5, 6.0)
    xs = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (4, n))
    for band in (mesh.lap_band(1.0), mesh.lap_band(2.0 * 16 / 1.5 + 1.0), mesh.d1_band):
        matvec, dense = mesh.slab_matvec(band), mesh.dense(band)
        for x in xs:
            assert np.array_equal(matvec(x), dense @ x)


def test_slab_matvec_bits_do_not_depend_on_blas_threads():
    # at 2049 columns the dense product's bits can depend on OpenBLAS's
    # thread count; a slab is too small for BLAS to thread
    blas = workers._openblas_threads()
    if not blas:
        pytest.skip("the process maps no OpenBLAS with settable threads")
    rng = np.random.default_rng(5)
    mesh = RadialMesh.graded(2049, 1.5, 6.0)
    matvec = mesh.slab_matvec(mesh.lap_band(1.0))
    xs = rng.standard_normal((20, mesh.n)) * 10.0 ** rng.uniform(-8.0, 8.0, (20, mesh.n))
    before = [get() for get, _ in blas]
    products = []
    try:
        for threads in (1, 2):
            for _, set_ in blas:
                set_(threads)
            products.append(np.array([matvec(x) for x in xs]))
    finally:
        for (_, set_), count in zip(blas, before):
            set_(count)
    assert np.array_equal(products[0], products[1])


def test_scipy_extension_falls_back_when_loading_fails(monkeypatch):
    # an extension file that does not load leaves no half-made module behind
    # and hands over to an ordinary import
    name = "scipy.linalg._flapack"
    seen = []
    imported = object()

    def broken(self, module):
        raise ImportError("incompatible extension")

    def spy(module, *args):
        seen.append((module, module in sys.modules))
        return imported

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", broken)
    monkeypatch.setattr(importlib, "import_module", spy)
    monkeypatch.delitem(sys.modules, name)
    assert scipy_extension(name) is imported
    assert seen == [(name, False)]
    assert name not in sys.modules


def test_scipy_extension_falls_back_to_import(monkeypatch):
    # without the extension file the module comes from an ordinary import,
    # and its band LU gives the bits of the one meshing loaded
    name = "scipy.linalg._flapack"
    imported = []
    real_import = importlib.import_module

    def spy(module, *args):
        imported.append(module)
        return real_import(module, *args)

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.setattr(importlib, "import_module", spy)
    monkeypatch.delitem(sys.modules, name)
    fallback = scipy_extension(name)
    assert imported == [name]
    rng = np.random.default_rng(5)
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    bw = mesh.bandwidth
    # a full Newton band and an (n - 1)-row mode band
    for rows in (mesh.n, mesh.n - 1):
        ab = mesh.diagonal_ordered(_scaled_dirichlet_band(mesh, rows))
        x = rng.standard_normal(rows)
        lu, piv, info = meshing.dgbtrf(ab, bw, bw)
        lu_f, piv_f, info_f = fallback.dgbtrf(ab, bw, bw)
        assert info == info_f == 0
        assert np.array_equal(lu, lu_f) and np.array_equal(piv, piv_f)
        assert np.array_equal(
            meshing.dgbtrs(lu, bw, bw, x, piv)[0], fallback.dgbtrs(lu_f, bw, bw, x, piv_f)[0]
        )


def test_graded_mesh_shapes():
    mesh = RadialMesh.graded(64, 2.0, 5.0)
    assert mesh.t[-1] == pytest.approx(1.0)
    assert mesh.t[0] > 0.0
    assert np.all(np.diff(mesh.t) > 0.0)
    assert mesh.r[-1] == pytest.approx(1.0)
    # r = t**(1/beta)
    assert np.allclose(mesh.r**mesh.beta, mesh.t)
    uniform = RadialMesh.graded(16, 1.0, 0.0)
    assert np.allclose(np.diff(uniform.t), 1.0 / 16)
    with pytest.raises(MfelabError):
        RadialMesh.graded(4, 1.5, 3.0)
    with pytest.raises(MfelabError):
        RadialMesh.graded(64, 1.5, -1.0)


def _scalar_fornberg(z, x, m):
    # the scalar recursion, kept as the reference the vectorised pass must match
    n = x.size
    c = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def _reference_rows(mesh, i):
    # dense rows i of D1 and D2 from the scalar recursion on row i's window:
    # reflected nodes near t = 0, left-shifted windows in the tail
    w, n, t = mesh.halfwidth, mesh.n, mesh.t
    if i < w:
        neg = np.arange(w - i - 1, -1, -1)
        cols = np.concatenate([neg, np.arange(0, i + w + 1)])
        nodes = np.concatenate([-t[neg], t[: i + w + 1]])
    elif i >= n - w:
        cols = np.arange(n - 2 * w - 1, n)
        nodes = t[cols]
    else:
        cols = np.arange(i - w, i + w + 1)
        nodes = t[cols]
    c = _scalar_fornberg(float(t[i]), nodes, 2)
    d1, d2 = np.zeros(n), np.zeros(n)
    np.add.at(d1, cols, c[1])
    np.add.at(d2, cols, c[2])
    return d1, d2


@pytest.mark.parametrize("n", [16, 96, 1024])
@pytest.mark.parametrize("strength", [0.0, 3.0, 9.0])
@pytest.mark.parametrize("halfwidth", [2, 3])
def test_derivative_rows_bit_identical_to_scalar_recursion(n, strength, halfwidth):
    mesh = RadialMesh.graded(n, 1.5, strength, halfwidth=halfwidth)
    D1, D2 = mesh.dense(mesh.d1_band), mesh.dense(mesh.d2_band)
    for i in range(n):
        d1, d2 = _reference_rows(mesh, i)
        assert np.array_equal(D1[i], d1), i
        assert np.array_equal(D2[i], d2), i


def test_fd_weights_is_the_scalar_recursion():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1.0, 1.0, 7))
    for m in (0, 1, 2, 6):
        assert np.array_equal(fd_weights(0.3, x, m), _scalar_fornberg(0.3, x, m))


def _reference_quad(t, t_end, points=6):
    # the per-cell loop: one small Vandermonde solve per cell, summed in order
    def cell(nodes, a, b):
        c = 0.5 * (a + b)
        powers = np.arange(points)
        V = (nodes - c)[None, :] ** powers[:, None]
        mom = ((b - c) ** (powers + 1) - (a - c) ** (powers + 1)) / (powers + 1)
        return np.linalg.solve(V, mom)

    n = t.size
    q = np.zeros(n)
    back = (points - 2) // 2
    q[:points] += cell(t[:points], 0.0, min(t_end, float(t[0])))
    if t_end <= t[0]:
        return q
    for j in range(n - 1):
        if t[j] >= t_end:
            break
        k0 = min(max(j - back, 0), n - points)
        q[k0 : k0 + points] += cell(t[k0 : k0 + points], float(t[j]), min(float(t[j + 1]), t_end))
    return q


def test_quad_to_bit_identical_to_cell_loop():
    mesh = RadialMesh.graded(256, 1.5, 6.0)
    t = mesh.t
    for t_end in (0.4 * t[0], float(t[0]), float(t[40]), 0.5 * (t[100] + t[101]), float(t[-1])):
        assert np.array_equal(mesh.quad_to(t_end), _reference_quad(t, t_end))
    assert np.array_equal(mesh.quad, mesh.quad_to(float(t[-1])))


def test_mesh_holds_no_dense_operators():
    n = 1024
    mesh = RadialMesh.graded(n, 1.5, 6.0)
    floats = sum(v.size for v in vars(mesh).values() if isinstance(v, np.ndarray))
    assert floats < 64 * n


def _full_power_weights(nodes, a, b):
    # every exponent through ``**``, 0 and 1 included
    p = nodes.shape[1]
    c = 0.5 * (a + b)
    powers = np.arange(p)
    V = (nodes - c[:, None])[:, None, :] ** powers[:, None]
    mom = ((b - c)[:, None] ** (powers + 1) - (a - c)[:, None] ** (powers + 1)) / (powers + 1)
    return np.linalg.solve(V, mom[:, :, None])[:, :, 0]


@pytest.mark.parametrize("n", [64, 512, 2048])
@pytest.mark.parametrize("beta", [1.3, 2.0, 3.4])
@pytest.mark.parametrize("lam", [0.0, 9.0, 30.0])
def test_interval_table_equals_the_full_power_form(n, beta, lam):
    # exponents 0 and 1 are set directly, which pow() would give exactly
    t = RadialMesh.graded(n, beta, max(2.0, lam / 2.0 + 2.0)).t
    stencils = t[meshing._interval_starts(n, meshing.QUAD_POINTS)[:, None]
                 + np.arange(meshing.QUAD_POINTS)]
    lo = np.concatenate([[0.0], t[:-1]])
    assert np.array_equal(meshing._interval_table(t, meshing.QUAD_POINTS),
                          _full_power_weights(stencils, lo, t))


@pytest.mark.parametrize("halfwidth", [2, 3])
def test_point_round_trip_through_a_worker(halfwidth, monkeypatch):
    # a point a forked worker solved comes back with its mesh, bit for bit
    # and read-only, as numpy's in-band unpickling of read-only arrays gives
    if not workers._openblas_threads():
        pytest.skip("the process maps no OpenBLAS with settable threads, so nothing forks")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = WeightSpec(alpha=0.5, kind="gaussian", coef=0.25)
    parent = os.getpid()
    started = np.frombuffer(mmap.mmap(-1, 8))

    def solve(i):
        started[0] = 1.0
        mesh = RadialMesh.graded(200, 1.5, 6.0, halfwidth=halfwidth)
        return os.getpid(), newton_solve(spec, mesh, lam=7.0)

    with workers.shared(solve, 1) as items:
        deadline = time.monotonic() + 10.0
        while not started[0] and time.monotonic() < deadline:
            time.sleep(0.001)  # the worker claims the one item
    [(pid, back)] = items
    assert pid != parent
    point = solve(0)[1]
    mesh = point.mesh
    assert back.spec == spec
    assert (back.rho, back.lam, back.res_norm, back.newton_iters) == (
        point.rho, point.lam, point.res_norm, point.newton_iters)
    assert (back.mesh.n, back.mesh.beta, back.mesh.halfwidth, back.mesh.bandwidth) == (
        200, 1.5, halfwidth, 2 * halfwidth)
    arrays = [("u", back.u, point.u)] + [
        (name, getattr(back.mesh, name), getattr(mesh, name))
        for name in ("t", "r", "quad", "d1_band", "d2_band", "_intervals")
    ]
    assert sorted(vars(back.mesh)) == sorted(vars(mesh))
    for name, read, original in arrays:
        assert read.shape == original.shape, name
        assert np.array_equal(read, original), name
        assert not read.flags.writeable, name
    t_end = 0.5 * float(mesh.t[50] + mesh.t[51])
    assert np.array_equal(back.mesh.quad_to(t_end), mesh.quad_to(t_end))
    assert np.array_equal(back.mesh.point_rows(0.0, 1), mesh.point_rows(0.0, 1))
    assert np.array_equal(back.mesh.lap_band(1.0), mesh.lap_band(1.0))
