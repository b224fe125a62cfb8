import numpy as np
import pytest

from mfelab.errors import ParameterDomainError, WeightSpecError
from mfelab.greens import WeightSpec, ell_coefficient, regular_part


def test_regular_part_center():
    rng = np.random.default_rng(6)
    for _ in range(20):
        r, th = np.sqrt(rng.uniform(0.0, 0.999)), rng.uniform(0.0, 2.0 * np.pi)
        assert regular_part((r * np.cos(th), r * np.sin(th)), (0.0, 0.0)) == 0.0
    assert regular_part((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_regular_part_diagonal():
    want = np.log(0.75) / (2.0 * np.pi)
    assert regular_part((0.5, 0.0), (0.5, 0.0)) == pytest.approx(want, abs=1e-14)


def test_weight_spec_hbar1():
    spec = WeightSpec(alpha=0.5)
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = rng.uniform(1e-3, 1.0)
        x = (r, 0.0)
        assert spec.hbar1(x) == 1.0
    gauss = WeightSpec(alpha=0.5, kind="gaussian", coef=0.25)
    assert gauss.hbar1((1.0, 0.0)) == pytest.approx(np.exp(0.25), abs=1e-12)


def test_weight_spec_validation():
    with pytest.raises(WeightSpecError):
        WeightSpec(alpha=0.5, kind="constant", coef=-1.0)
    with pytest.raises(WeightSpecError):
        WeightSpec(alpha=0.5, kind="poly", coeffs=(1.0, -2.0))
    with pytest.raises(WeightSpecError):
        WeightSpec(alpha=0.5, kind="nope")
    with pytest.raises(ParameterDomainError):
        WeightSpec(alpha=2.0)
    WeightSpec(alpha=0.5, kind="poly", coeffs=(1.0, 0.5))  # positive on disk


def test_ell_coefficient():
    assert ell_coefficient(0.5, 1.0, 0.0) == 0.0
    val = ell_coefficient(0.5, 1.0, 1.0)
    assert val == pytest.approx(9.2832, rel=2e-4)
    # power law in hbar1
    r = ell_coefficient(1.5, 2.0, 1.0) / ell_coefficient(1.5, 1.0, 1.0)
    assert r == pytest.approx(2.0 ** (-0.4), rel=1e-12)
    with pytest.raises(ParameterDomainError):
        ell_coefficient(1.0, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        ell_coefficient(0.5, -1.0, 1.0)


def test_ell_coefficient_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    beta = mp.mpf(3) / 2
    want = 2 * mp.pi**2 / (beta * mp.sin(mp.pi / beta)) * (beta / mp.pi) ** (1 / beta)
    assert ell_coefficient(0.5, 1.0, 1.0) == pytest.approx(float(want), rel=1e-13)


def test_gaussian_log_weight_analytics():
    spec = WeightSpec(alpha=0.5, kind="gaussian", coef=-0.25)
    r = np.linspace(0.0, 1.0, 11)
    assert np.allclose(spec.dlog_hstar(r), -0.5 * r)
    assert spec.lap_log_hstar0() == -1.0
    poly = WeightSpec(alpha=0.5, kind="poly", coeffs=(2.0, 1.0))
    assert poly.lap_log_hstar0() == pytest.approx(2.0)
    # 2d Laplacian of a radial f at 0 is 2 f''(0); even central difference
    h = 1e-4
    f = lambda s: np.log(poly.hstar(s))
    lap_num = 4.0 * (f(h) - f(0.0)) / h**2
    assert lap_num == pytest.approx(poly.lap_log_hstar0(), rel=1e-3)


@pytest.mark.parametrize("hstar, constant", [
    ({"kind": "constant", "coef": 2.0}, True),
    ({"kind": "gaussian", "coef": 0.0}, True),
    ({"kind": "poly", "coeffs": (3.0,)}, True),
    ({"kind": "poly", "coeffs": (1.0, 0.0, 0.0)}, True),
    ({"kind": "gaussian", "coef": -0.25}, False),
    ({"kind": "poly", "coeffs": (1.0, 0.0, 0.5)}, False),
])
def test_hstar_constant_names_one_weight_by_its_values(hstar, constant):
    spec = WeightSpec(alpha=0.5, **hstar)
    assert spec.hstar_constant is constant
    r = np.linspace(0.0, 1.0, 11)
    assert bool(np.all(spec.hstar(r) == spec.hstar(0.0))) is constant
