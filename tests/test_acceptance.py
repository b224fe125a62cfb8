"""End-to-end acceptance checklist for the bubbling laboratory.

One test per quantitative commitment, so `pytest -v` prints a pass/fail
line for each.  Targets are closed forms on the exact disk family where
one exists and frozen measured values elsewhere; tolerances are stated
inline.  Anything that fails here fails loudly with the measured numbers
in the message rather than being relaxed to pass.
"""

import json
import math

import numpy as np
import pytest

from mfelab import (
    Branch,
    WeightSpec,
    blowup_initial_guess,
    continue_branch,
    ell_coefficient,
    exact_disk_family,
    kernel_candidate,
    local_rate_law_fit,
    matching_residual,
    newton_solve,
    nondegeneracy_scan,
    outer_profile_residual,
    pohozaev_residual_linearized,
    rate_law_fit,
    uniqueness_probe,
)
from fits import two_term_fit
from limit import (
    entire_linearized_apply,
    entire_mode_operator,
    kernel_Y0,
    mode_limits,
    mode_spectrum,
)
from mfelab.cli import main
from mfelab.radial_solver import solver_mesh

ALPHA = 0.5
BETA = 1.0 + ALPHA
EIGHT_PI_BETA = 8.0 * np.pi * BETA
SIGMA_RATE = 1.0 / (2.0 * BETA)

PLUS = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
MINUS = WeightSpec(alpha=ALPHA, kind="gaussian", coef=-0.25)


@pytest.fixture(scope="module")
def branch_plus():
    return continue_branch(6.0, 15.0, 19, PLUS, nodes=512)


@pytest.fixture(scope="module")
def branch_minus():
    return continue_branch(6.0, 15.0, 19, MINUS, nodes=512)


def decay_exponent(lams, values, window=(8.0, 14.0)):
    """Fitted decay rate of |values| in lambda over the window."""
    lams = np.asarray(lams)
    vals = np.abs(np.asarray(values, dtype=float))
    mask = (lams >= window[0] - 1e-9) & (lams <= window[1] + 1e-9) & (vals > 0)
    slope = np.polyfit(lams[mask], np.log(vals[mask]), 1)[0]
    return -float(slope)


def test_01_exact_family_from_bubble_guess():
    # Newton at fixed lambda(m), started from the blended bubble ansatz,
    # lands on the closed-form disk solution.
    spec = WeightSpec(alpha=ALPHA)
    for m in (1.0, 10.0, 100.0, 1e4):
        lam = math.log(BETA * (1.0 + m) / math.pi)
        rho = EIGHT_PI_BETA * m / (1.0 + m)
        mesh = solver_mesh(512, BETA, lam)
        exact = exact_disk_family(ALPHA, m, mesh=mesh)
        guess = blowup_initial_guess(lam, spec, mesh)
        pt = newton_solve(spec, mesh, lam=lam, initial=guess)
        assert np.max(np.abs(pt.u - exact.u)) <= 1e-6
        assert abs(pt.rho - rho) <= 1e-8 * rho
        assert abs(pt.lam - lam) <= 1e-8 * abs(lam)


def test_02_rate_law_window_fit(branch_plus):
    # Committed targets: slope -1/beta within 2% and intercept log 9.2832
    # within 5% for the leading term of rho - 8 pi beta on [8,14], read off
    # a fit that carries the documented e^(-lambda) next-order term
    # explicitly (the exact family has rho - 8 pi beta = -8 beta^2
    # e^(-lambda)).  The local mass at r0 = 0.1 splits as
    # rho_1 - 8 pi beta = (rho - 8 pi beta) - (rho - rho_1); its tail
    # rho - rho_1 decays at the rate -1 < -1/beta, with its own next order
    # e^(-2 lambda) and the exact-family constant 8 beta^2 (r0^(-2 beta) - 1),
    # so the local mass inherits the global law.
    target_slope = -1.0 / BETA
    target_intercept = math.log(9.2832)
    r0 = 0.1
    tail_intercept = math.log(8.0 * BETA**2 * (r0 ** (-2.0 * BETA) - 1.0))
    lams = branch_plus.lambdas
    fit = two_term_fit(lams, branch_plus.rhos - EIGHT_PI_BETA, correction=1.0)
    tail = branch_plus.rhos - np.array([pt.local_mass(r0) for pt in branch_plus.points])
    tfit = two_term_fit(lams, tail, correction=2.0)
    one = rate_law_fit(branch_plus, window=(8.0, 14.0))
    lone = local_rate_law_fit(branch_plus, r0, window=(8.0, 14.0))
    msg = (
        "[8,14] two-term fit of rho - 8 pi beta: slope {:.7f} vs {:.7f} +-2%, "
        "intercept {:.7f} vs {:.7f} +-5%, r^2 {:.10f}; tail rho - rho_1 at "
        "r0=0.1: slope {:.7f} vs -1 +-2%, intercept {:.7f} vs {:.7f} +-5%.  "
        "One-term fits on the same window, bent by the next-order terms: "
        "rho - 8 pi beta slope {:.7f}, intercept {:.7f}, r^2 {:.6f}; local "
        "r0=0.1 slope {:.7f}, intercept {:.7f}, r^2 {:.6f}.  Measured on this "
        "branch: rho - 8 pi beta = 9.2826 exp(-2 lam/3) - 29.963 exp(-lam) "
        "+ O(exp(-4 lam/3)); the one-term fit over [12,18] still misses the "
        "intercept (2.0758 vs 2.2282), while the coef=-0.25 branch, where "
        "both terms pull together, meets both targets on [8,14]."
    ).format(
        fit.slope,
        target_slope,
        fit.intercept,
        target_intercept,
        fit.r_squared,
        tfit.slope,
        tfit.intercept,
        tail_intercept,
        one.slope,
        one.intercept,
        one.r_squared,
        lone.slope,
        lone.intercept,
        lone.r_squared,
    )
    assert abs(fit.slope - target_slope) <= 0.02 * abs(target_slope), msg
    assert abs(fit.intercept - target_intercept) <= 0.05 * abs(target_intercept), msg
    assert abs(tfit.slope + 1.0) <= 0.02, msg
    assert abs(tfit.intercept - tail_intercept) <= 0.05 * abs(tail_intercept), msg


def test_03_rate_sign_law(branch_plus, branch_minus):
    # sign(rho - 8 pi beta) agrees with the sign of the ell coefficient
    # on every branch point with lambda >= 8.
    for branch in (branch_plus, branch_minus):
        spec = branch.spec
        ell = ell_coefficient(ALPHA, spec.hbar1((0.0, 0.0)), spec.lap_log_hstar0())
        assert ell != 0.0
        sel = branch.lambdas >= 8.0 - 1e-9
        diffs = branch.rhos[sel] - EIGHT_PI_BETA
        assert np.all(np.sign(diffs) == np.sign(ell))


def test_04_matching_identity(branch_plus, branch_minus):
    # Exact family: the matching residual equals 2 log(m/(1+m)).
    for m in (1.0, 10.0, 100.0, 1e4):
        pt = exact_disk_family(ALPHA, m)
        target = 2.0 * math.log(m / (1.0 + m))
        assert abs(matching_residual(pt) - target) <= 1e-8
    # Gaussian branches: the residual decays at least at 90% of the
    # sigma rate 1/(2 beta).
    for branch in (branch_plus, branch_minus):
        vals = [matching_residual(pt) for pt in branch.points]
        assert decay_exponent(branch.lambdas, vals) >= 0.9 * SIGMA_RATE


def test_05_outer_profile_decay(branch_plus, branch_minus):
    # sup over r >= 0.5 of |u - rho (G + R)|, and the gradient variant,
    # both decay at least at 90% of the sigma rate on both branches.
    for branch in (branch_plus, branch_minus):
        for gradient in (False, True):
            vals = [
                outer_profile_residual(pt, 0.5, gradient=gradient)
                for pt in branch.points
            ]
            assert decay_exponent(branch.lambdas, vals) >= 0.9 * SIGMA_RATE


def test_06_entire_kernel_and_mode_gap():
    # The entire-plane linearization annihilates Y0 pointwise, its mode-0
    # spectrum has exactly one near-zero eigenvalue whose eigenvector is
    # Y0, and every k >= 1 mode keeps a gap of at least 0.1.
    n = 2048
    i = np.arange(1, n + 1)
    r = (10.0**BETA * np.sinh(6.0 * i / n) / np.sinh(6.0)) ** (1.0 / BETA)
    out = entire_linearized_apply(ALPHA, kernel_Y0(ALPHA, r), r)
    assert np.max(np.abs(out.values[r >= 0.05])) <= 1e-6

    op0 = entire_mode_operator(ALPHA, 0)
    s0 = mode_spectrum(op0, count=8)
    small = np.abs(s0.eigenvalues) <= 1e-4
    assert small.sum() == 1
    y0 = kernel_Y0(ALPHA, op0.mesh.t ** (1.0 / BETA))
    v = s0.eigenvector_0
    cos = abs(v @ y0) / (np.linalg.norm(v) * np.linalg.norm(y0))
    assert cos >= 0.999
    for k in (1, 2, 5, 8):
        sk = mode_spectrum(entire_mode_operator(ALPHA, k), count=2)
        assert abs(sk.eigenvalues[0]) >= 0.1


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.5, 2.4])
def test_06_entire_spectrum_matches_closed_form(alpha):
    # The truncated entire-plane operator reproduces the limit eigenvalues
    # 1 - l(l+1)/2, l = k/beta + j: for k >= 1 the two nearest 0 within
    # 1e-6 relative (measured worst 4.1e-7, alpha = 2.4, k = 8); for k = 0
    # the kernel's 0 within 2e-4, the truncation at |y| = 50 (measured
    # worst 1.15e-4, alpha = 0.3), and the constants' 1 next.
    eig = mode_spectrum(entire_mode_operator(alpha, 0), count=8).eigenvalues
    assert (np.abs(eig) <= 2e-4).sum() == 1, eig
    assert abs(eig[1] - 1.0) <= 1e-6, eig
    for k in (1, 2, 3, 5, 8):
        got = mode_spectrum(entire_mode_operator(alpha, k), count=2).eigenvalues[:2]
        want = mode_limits(alpha, k)
        assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want)), (k, got, want)


def test_07_nondegeneracy_scan():
    # Mode spectra along the branch: no kernel suspicion for k <= 8 on
    # lambda in [6,14], smallest magnitudes >= 1e-6, and the per-point
    # minima move by at most 1% when the mesh is doubled.
    coarse = continue_branch(6.0, 14.0, 9, PLUS, nodes=512)
    fine = continue_branch(6.0, 14.0, 9, PLUS, nodes=1024)
    scan = nondegeneracy_scan(coarse, k_max=8)
    scan2 = nondegeneracy_scan(fine, k_max=8)
    assert not scan.kernel_flags.any()
    assert scan.min_magnitudes.min() >= 1e-6
    rel = np.abs(scan2.min_magnitudes - scan.min_magnitudes) / scan.min_magnitudes
    assert rel.max() <= 0.01


def test_08_pohozaev_linearized(branch_plus):
    # Boundary-bulk identity for linearized fields: residual <= 1e-6 for
    # kernel candidates on the exact family and the gaussian branch,
    # r-independent up to the quadrature floor, and >= 1e-2 for a
    # manufactured non-solution field.
    fam = exact_disk_family(ALPHA, 1e4)
    xi = kernel_candidate(fam)
    exact_res = [abs(pohozaev_residual_linearized(fam, xi, r)) for r in (0.125, 0.25)]
    assert max(exact_res) <= 1e-6

    i = int(np.argmin(np.abs(branch_plus.lambdas - 12.0)))
    pt = branch_plus.points[i]
    xi_g = kernel_candidate(pt)
    g_res = [abs(pohozaev_residual_linearized(pt, xi_g, r)) for r in (0.125, 0.25)]
    assert max(g_res) <= 1e-6
    assert max(g_res) <= 2.0 * min(g_res)
    # exact-family residuals sit at the quadrature floor, where the ratio
    # is noise; accept either the ratio bound or the floor itself
    assert max(exact_res) <= 2.0 * min(exact_res) or max(exact_res) <= 1e-8

    bad = pohozaev_residual_linearized(fam, np.ones_like(fam.u), 0.25)
    assert abs(bad) >= 1e-2


def test_09_branch_monotonicity(branch_plus, branch_minus):
    # dRho/dLambda keeps one sign over [8,14], opposite to ell, on both
    # gaussian branches; the exact family is strictly increasing.
    vp = uniqueness_probe(branch_plus)
    assert vp.ok and vp.sign == -1
    vm = uniqueness_probe(branch_minus)
    assert vm.ok and vm.sign == 1

    pts = [
        exact_disk_family(ALPHA, (np.pi / BETA) * math.exp(lam) - 1.0)
        for lam in np.linspace(0.5, 16.0, 32)
    ]
    fam = Branch(pts[0].spec, tuple(pts))
    vf = uniqueness_probe(fam, window=(0.5, 16.0))
    assert vf.ok and vf.sign == 1
    assert np.min(vf.derivatives) > 1e-10


def test_10_local_mass_deficit(branch_plus):
    # At lambda = 14 the mass in any disk r0 in {0.1, 0.25, 0.5} is within
    # 1% of the full limit 8 pi beta.
    i = int(np.argmin(np.abs(branch_plus.lambdas - 14.0)))
    pt = branch_plus.points[i]
    for r0 in (0.1, 0.25, 0.5):
        deficit = abs(pt.local_mass(r0) - EIGHT_PI_BETA) / EIGHT_PI_BETA
        assert deficit <= 1e-2


def test_11_verify_rerun_is_byte_identical(tmp_path):
    # Two verify runs on one config write byte-identical reports.
    out = tmp_path / "out"
    cfg = {
        "schema": "mfelab/1",
        "alpha": ALPHA,
        "hstar": {"kind": "gaussian", "coef": 0.25},
        "window": {"start": 8.0, "end": 14.0, "steps": 7},
        "out": str(out),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    first = (out / "report.json").read_bytes()
    assert main(["verify", "--config", str(path)]) == 0
    assert (out / "report.json").read_bytes() == first
