import numpy as np
import pytest
from scipy.integrate import quad

from limit import bubble_mass, bubble_profile, entire_linearized_apply, kernel_Y0
from mfelab.errors import ParameterDomainError
from mfelab.greens import validate_alpha


def test_validate_alpha():
    assert validate_alpha(0.5) == 0.5
    assert validate_alpha(1.0 + 1e-6) == 1.0 + 1e-6
    for bad in (1.0, 2.0, -0.5, 0.0, 1.0 + 1e-13, np.inf):
        with pytest.raises(ParameterDomainError):
            validate_alpha(bad)


def test_bubble_profile_values():
    assert bubble_profile(0.5, 0.0, 0.0) == pytest.approx(np.log(18.0), abs=1e-14)
    assert bubble_profile(0.5, 0.0, 1.0) == pytest.approx(np.log(4.5), abs=1e-14)
    # value at 0 is log(8 (1+a)^2 e^mu) for any scale
    for mu in (-3.0, 0.0, 7.0):
        want = np.log(8.0 * 2.25) + mu
        assert bubble_profile(0.5, mu, 0.0) == pytest.approx(want, abs=1e-12)


def test_bubble_profile_solves_liouville():
    # finite-difference radial Laplacian oracle, step 1e-4
    alpha, mu = 0.5, 0.3
    h = 1e-4
    r = np.linspace(0.1, 4.9, 64)
    v0 = bubble_profile(alpha, mu, r)
    vp = bubble_profile(alpha, mu, r + h)
    vm = bubble_profile(alpha, mu, r - h)
    lap = (vp - 2.0 * v0 + vm) / h**2 + (vp - vm) / (2.0 * h * r)
    residual = lap + r ** (2.0 * alpha) * np.exp(v0)
    assert np.max(np.abs(residual)) <= 1e-5


def test_bubble_profile_scale_shift():
    # v_mu(r) = v_0(e^(mu/(2(1+a))) r) + mu
    rng = np.random.default_rng(2)
    for alpha in (0.5, 1.7):
        beta = 1.0 + alpha
        for mu in (-2.0, 1.3, 5.0):
            r = rng.uniform(0.0, 3.0, 16)
            lhs = bubble_profile(alpha, mu, r)
            rhs = bubble_profile(alpha, 0.0, np.exp(mu / (2.0 * beta)) * r) + mu
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_bubble_mass_values():
    assert bubble_mass(1.0, 0.0, np.inf) == pytest.approx(16.0 * np.pi, abs=1e-12)
    assert bubble_mass(0.5, 0.0, 1.0) == pytest.approx(6.0 * np.pi, abs=1e-12)
    assert bubble_mass(0.5, 0.0, np.inf) == pytest.approx(12.0 * np.pi, abs=1e-10)
    assert bubble_mass(2.5, -1.0, 1e-9) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterDomainError):
        bubble_mass(0.5, 0.0, 0.0)
    with pytest.raises(ParameterDomainError):
        bubble_mass(-0.5, 0.0, 1.0)


def test_bubble_mass_quadrature_oracle():
    for alpha, mu, R in ((0.5, 0.0, 1.0), (1.5, 0.7, 2.0), (0.3, -1.0, 5.0)):
        integrand = lambda r: r ** (2.0 * alpha) * np.exp(bubble_profile(alpha, mu, r)) * 2.0 * np.pi * r
        val, _ = quad(integrand, 0.0, R, epsabs=1e-12, epsrel=1e-12)
        assert bubble_mass(alpha, mu, R) == pytest.approx(val, rel=1e-9)


def test_bubble_mass_monotone():
    Rs = np.linspace(0.1, 3.0, 20)
    masses = [bubble_mass(0.5, 0.0, R) for R in Rs]
    assert np.all(np.diff(masses) > 0.0)
    mus = np.linspace(-2.0, 2.0, 20)
    masses = [bubble_mass(0.5, mu, 1.0) for mu in mus]
    assert np.all(np.diff(masses) > 0.0)


def test_kernel_y0_values():
    assert kernel_Y0(0.5, 0.0) == 1.0
    assert kernel_Y0(0.5, 1.0) == 0.0
    assert kernel_Y0(1.7, 1.0) == 0.0
    assert kernel_Y0(0.5, 1e8) == pytest.approx(-1.0, abs=1e-12)
    r = np.linspace(0.0, 10.0, 50)
    vals = kernel_Y0(0.5, r)
    assert np.all(vals <= 1.0) and np.all(vals >= -1.0)


def test_kernel_y0_is_mu_derivative():
    eps = 1e-5
    r = np.linspace(0.0, 5.0, 40)
    dmu = (bubble_profile(0.5, eps, r) - bubble_profile(0.5, -eps, r)) / (2.0 * eps)
    assert np.max(np.abs(dmu - kernel_Y0(0.5, r))) <= 1e-6


def _graded_radii(n, alpha, r_max=10.0, strength=6.0):
    beta = 1.0 + alpha
    i = np.arange(1, n + 1)
    t = r_max**beta * np.sinh(strength * i / n) / np.sinh(strength)
    return t ** (1.0 / beta)


def test_entire_linearized_annihilates_kernel():
    alpha = 0.5
    r = _graded_radii(2048, alpha)
    out = entire_linearized_apply(alpha, kernel_Y0(alpha, r), r)
    sel = r >= 0.05
    assert np.max(np.abs(out.values[sel])) <= 1e-6
    assert out.warnings == []


def test_entire_linearized_trivial_fields():
    alpha = 0.5
    r = _graded_radii(256, alpha)
    beta = 1.0 + alpha
    out = entire_linearized_apply(alpha, np.zeros_like(r), r)
    assert np.all(out.values == 0.0)
    out1 = entire_linearized_apply(alpha, np.ones_like(r), r)
    potential = 8.0 * beta**2 * r ** (2 * alpha) / (1.0 + r ** (2 * beta)) ** 2
    assert np.max(np.abs(out1.values - potential)) <= 1e-9


def test_entire_linearized_coarse_mesh_warns():
    alpha = 0.5
    r = _graded_radii(16, alpha)
    out = entire_linearized_apply(alpha, kernel_Y0(alpha, r), r)
    assert out.warnings and "coarse" in out.warnings[0]


def test_entire_linearized_error_decreases_with_refinement():
    alpha = 0.5
    errs = []
    for n in (256, 512):
        r = _graded_radii(n, alpha)
        out = entire_linearized_apply(alpha, kernel_Y0(alpha, r), r)
        errs.append(np.max(np.abs(out.values[r >= 0.05])))
    assert errs[1] < 0.25 * errs[0]
