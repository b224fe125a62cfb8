import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dgbsv

from mfelab.errors import MfelabError
from mfelab.meshing import RadialMesh, band_matvec, fd_weights, quad_weights


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
    q = quad_weights(t)
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
        errs.append(abs(quad_weights(t) @ F(t) - exact))
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
    for t_end in (0.3, 0.5, float(t[100]), 1.0):
        q = quad_weights(t, t_end)
        assert q @ F(t) == pytest.approx(exact(t_end), abs=2e-8)
    # weights beyond the cut vanish
    q = quad_weights(t, 0.3)
    cut = int(np.searchsorted(t, 0.3))
    assert np.all(q[cut + 3 :] == 0.0)


def test_quad_rejects_bad_input():
    t = _sinh_nodes(16)
    with pytest.raises(MfelabError):
        quad_weights(t, 1.5)
    with pytest.raises(MfelabError):
        quad_weights(t, 0.0)
    with pytest.raises(MfelabError):
        quad_weights(np.array([0.0, 0.1, 0.2, 0.3]))


def test_derivative_matrices_order():
    beta = 1.5

    def g(t):
        return np.cos(2.0 * t**2) * np.exp(-(t**2))

    def g1(t):
        return np.exp(-(t**2)) * (-4.0 * t * np.sin(2.0 * t**2) - 2.0 * t * np.cos(2.0 * t**2))

    errs = []
    for n in (128, 256):
        mesh = RadialMesh.graded(n, beta, 4.0)
        errs.append(np.max(np.abs(mesh.D1 @ g(mesh.t) - g1(mesh.t))))
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
    assert np.max(np.abs((mesh.D1 @ g - g1)[:w])) < 1e-10
    assert np.max(np.abs((mesh.D2 @ g - g2)[:w])) < 1e-7


def test_entire_bubble_kernel_identity():
    # (1 - t^2)/(1 + t^2) solves g'' + g'/t + 8 g/(1+t^2)^2 = 0 exactly
    mesh = RadialMesh.graded(256, 1.5, 6.0, t_max=10.0)
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


def test_banded_solve_matches_dense():
    rng = np.random.default_rng(1)
    mesh = RadialMesh.graded(96, 1.5, 3.0)
    L = mesh.lap_rows(1.0) + np.diag(1.0 + mesh.t)
    L[-1] = 0.0
    L[-1, -1] = 1.0  # Dirichlet row
    rhs = rng.standard_normal(mesh.n)
    w = mesh.bandwidth
    # pack the dense rows into LAPACK diagonal-ordered form
    ab = np.zeros((2 * w + 1, mesh.n))
    for k in range(-w, w + 1):
        d = np.diagonal(L, offset=k)
        if k >= 0:
            ab[w - k, k:] = d
        else:
            ab[w - k, : mesh.n + k] = d
    x_banded = scipy.linalg.solve_banded((w, w), ab, rhs)
    x_dense = np.linalg.solve(L, rhs)
    assert np.max(np.abs(x_banded - x_dense)) < 1e-8 * max(1.0, np.max(np.abs(x_dense)))


def _solve_banded_layout(mesh, band):
    """The (2 bw + 1, n) diagonal-ordered packing that fed ``solve_banded``
    before bands went straight into gbsv storage."""
    bw = mesh.bandwidth
    rows, cols, vals = mesh.band_triplets(band)
    ab = np.zeros((2 * bw + 1, mesh.n))
    ab[bw + rows - cols, cols] = vals
    return ab


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
    band = mesh.lap_band(1.0)
    band[:, bw] += 1.0 + mesh.t
    band[-1] = 0.0
    band[-1, bw] = 1.0  # Dirichlet row
    band /= np.max(np.abs(band), axis=1)[:, None]
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
    D1, D2 = mesh.D1, mesh.D2
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


def test_quad_to_bit_identical_to_quad_weights():
    mesh = RadialMesh.graded(256, 1.5, 6.0)
    t = mesh.t
    for t_end in (0.4 * t[0], float(t[0]), float(t[40]), 0.5 * (t[100] + t[101]), float(t[-1])):
        q = mesh.quad_to(t_end)
        assert np.array_equal(q, quad_weights(t, t_end))
        assert np.array_equal(q, _reference_quad(t, t_end))
    assert np.array_equal(mesh.quad, quad_weights(t))


def test_mesh_holds_no_dense_operators():
    n = 1024
    mesh = RadialMesh.graded(n, 1.5, 6.0)
    floats = sum(v.size for v in vars(mesh).values() if isinstance(v, np.ndarray))
    assert floats < 64 * n
