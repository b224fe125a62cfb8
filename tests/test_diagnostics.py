"""Branch diagnostics: rate laws, matching, outer profiles, boundary-bulk
identities, and the report bundle.

The exact disk family supplies closed forms for every check; the gaussian
branches probe the generic-weight behavior measured against frozen values.
"""

import numpy as np
import pytest

from mfelab import (
    Branch,
    ParameterDomainError,
    SolutionPoint,
    WeightSpec,
    build_report,
    continue_branch,
    exact_disk_family,
    find_fold_pair,
    kernel_candidate,
    local_rate_law_fit,
    matching_residual,
    outer_profile_residual,
    pohozaev_residual,
    pohozaev_residual_linearized,
    psi1_gradient_check,
    rate_law_fit,
    uniqueness_probe,
)
from fits import two_term_fit
from mfelab.diagnostics import FitResult
from mfelab.radial_solver import solver_mesh

ALPHA = 0.5
BETA = 1.0 + ALPHA
EIGHT_PI_BETA = 8.0 * np.pi * BETA


def exact_branch(lo=8.0, hi=14.0, count=13):
    """Pseudo-branch of exact disk solutions with lambda on a uniform grid."""
    pts = []
    for lam in np.linspace(lo, hi, count):
        m = (np.pi / BETA) * np.exp(lam) - 1.0
        pts.append(exact_disk_family(ALPHA, m))
    return Branch(pts[0].spec, tuple(pts))


@pytest.fixture(scope="module")
def branch_plus():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    return continue_branch(6.0, 15.0, 19, spec, nodes=512)


@pytest.fixture(scope="module")
def branch_minus():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=-0.25)
    return continue_branch(6.0, 15.0, 19, spec, nodes=512)


@pytest.fixture(scope="module")
def fold_branch():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    return continue_branch(2.0, 8.0, 25, spec, nodes=512)


@pytest.fixture(scope="module")
def fold_pair(fold_branch):
    return find_fold_pair(fold_branch)


def window_fit(lams, vals, lo=8.0, hi=14.0):
    keep = (lams >= lo - 1e-6) & (lams <= hi + 1e-6)
    slope, intercept = np.polyfit(lams[keep], np.log(np.abs(np.asarray(vals)[keep])), 1)
    return slope, intercept


class TestFitResult:
    def test_unpacks_as_triple(self):
        fit = FitResult(-1.0, 2.0, 0.995, (8.0, 14.0), 13)
        slope, intercept, r2 = fit
        assert (slope, intercept, r2) == (-1.0, 2.0, 0.995)
        assert fit.ok

    def test_r2_flag(self):
        assert not FitResult(-1.0, 2.0, 0.90, (8.0, 14.0), 13).ok

    def test_dict_carries_window_and_flag(self):
        d = FitResult(-1.0, 2.0, 0.995, (8.0, 14.0), 13).to_dict()
        assert d["window"] == [8.0, 14.0]
        assert d["r2_ok"] is True
        assert d["count"] == 13


class TestRateLawFit:
    def test_exact_family_pure_exponential(self):
        # rho - 8 pi beta = -8 beta^2 e^(-lambda) exactly on this family
        fit = rate_law_fit(exact_branch())
        assert fit.count == 13
        assert abs(fit.slope + 1.0) < 1e-8
        assert abs(fit.intercept - np.log(8.0 * BETA**2)) < 1e-6
        assert fit.r_squared > 0.999999
        assert fit.ok

    def test_gaussian_minus_matches_gradient_law(self, branch_minus):
        # ell < 0 branch: slope -1/beta = -2/3 and the predicted constant,
        # here the e^(-lambda) correction reinforces instead of cancelling
        fit = rate_law_fit(branch_minus)
        assert abs(fit.slope + 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
        assert abs(fit.intercept - np.log(9.2832)) <= 0.05 * np.log(9.2832)
        assert fit.ok

    def test_gaussian_plus_slope_bent_by_correction(self, branch_plus):
        # ell > 0: the universal -8 beta^2 e^(-lambda) term opposes the
        # gradient term and flattens the window slope below 2/3
        fit = rate_law_fit(branch_plus)
        assert -0.67 < fit.slope < -0.60
        assert fit.ok

    def test_insufficient_data_raises(self, branch_plus):
        with pytest.raises(ParameterDomainError, match="at least 5"):
            rate_law_fit(branch_plus, window=(8.0, 9.0))

    def test_window_includes_edge_targets(self, branch_plus):
        # continuation lands on 8.0 and 14.0 only to solver tolerance
        assert rate_law_fit(branch_plus).count == 13

    def test_slope_mesh_stable(self, branch_plus):
        spec = branch_plus.spec
        refined = continue_branch(6.0, 15.0, 19, spec, nodes=768)
        s0 = rate_law_fit(branch_plus).slope
        s1 = rate_law_fit(refined).slope
        assert abs(s1 - s0) <= 0.005 * abs(s0)


class TestLocalRateLawFit:
    def test_exact_family_closed_form(self):
        # rho_1 - 8 pi beta = -8 pi beta / (1 + m t0^2), t0 = r0^beta
        fit = local_rate_law_fit(exact_branch(), 0.25)
        t0sq = 0.25 ** (2.0 * BETA)
        assert abs(fit.slope + 1.0) <= 0.01
        assert abs(fit.intercept - np.log(8.0 * BETA**2 / t0sq)) <= 0.02 * 7.0
        assert fit.ok

    def test_local_mass_below_total(self, branch_plus):
        for pt in branch_plus.points:
            assert pt.local_mass(0.25) < pt.rho

    def test_gaussian_tail_dominates_small_r0(self, branch_plus):
        # the excluded annulus carries ~ e^(-lambda) / r0^(2 beta) mass,
        # which out-scales the gradient term throughout the window
        fit = local_rate_law_fit(branch_plus, 0.1)
        assert fit.slope <= -0.9
        assert fit.ok


class TestTwoTermFit:
    LAMS = np.linspace(8.0, 14.0, 13)

    def test_recovers_leading_term_under_correction(self):
        vals = 9.2832 * np.exp(-2.0 * self.LAMS / 3.0) - 29.963 * np.exp(-self.LAMS)
        fit = two_term_fit(self.LAMS, vals, correction=1.0)
        assert abs(fit.slope + 2.0 / 3.0) <= 1e-6
        assert abs(fit.intercept - np.log(9.2832)) <= 1e-6
        assert fit.count == 13
        assert fit.ok

    def test_off_target_exponent_is_reported(self):
        # a leading exponent of -0.6 must come back as -0.6, outside the
        # 2% band around -2/3 that the acceptance test asserts
        vals = 9.2832 * np.exp(-0.6 * self.LAMS) - 29.963 * np.exp(-self.LAMS)
        fit = two_term_fit(self.LAMS, vals, correction=1.0)
        assert abs(fit.slope + 0.6) <= 1e-6
        assert abs(fit.slope + 2.0 / 3.0) > 0.02 * (2.0 / 3.0)

    def test_exact_family_has_no_leading_term(self):
        # ell = 0: rho - 8 pi beta = -8 beta^2 e^(-lambda), all correction
        branch = exact_branch()
        fit = two_term_fit(branch.lambdas, branch.rhos - EIGHT_PI_BETA, correction=1.0)
        assert np.exp(fit.intercept) <= 1e-9 * 8.0 * BETA**2

    def test_insufficient_data_raises(self):
        with pytest.raises(ParameterDomainError, match="at least 5"):
            two_term_fit(self.LAMS, np.exp(-self.LAMS), correction=1.0, window=(8.0, 9.0))


class TestMatchingResidual:
    def test_exact_family_closed_form(self):
        for m in (100.0, 1e4):
            pt = exact_disk_family(ALPHA, m)
            assert abs(matching_residual(pt) - 2.0 * np.log(m / (1.0 + m))) < 1e-8

    def test_shift_invariant(self):
        pt = exact_disk_family(ALPHA, 100.0)
        shifted = SolutionPoint(
            pt.spec, pt.mesh, pt.u + 0.7, pt.rho, pt.res_norm, pt.newton_iters
        )
        assert abs(matching_residual(shifted) - matching_residual(pt)) < 1e-12

    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_decays_at_least_sigma_rate(self, which, branch_plus, branch_minus):
        branch = branch_plus if which == "plus" else branch_minus
        vals = [matching_residual(pt) for pt in branch.points]
        slope, _ = window_fit(branch.lambdas, vals)
        # sigma rate is e^(-lambda / (2 beta)), exponent 1/3 here
        assert -slope >= 0.9 / (2.0 * BETA)


class TestOuterProfileResidual:
    def test_exact_family_closed_form_sup(self):
        pt = exact_disk_family(ALPHA, 100.0)
        mesh = pt.mesh
        r = mesh.t ** (1.0 / BETA)
        rk = r[r >= 0.5]
        u = 2.0 * np.log(101.0 / (1.0 + 100.0 * rk ** (2.0 * BETA)))
        g = -np.log(rk) / (2.0 * np.pi)
        closed = np.max(np.abs(u - pt.rho * g))
        got = outer_profile_residual(pt, 0.5)
        assert abs(got - closed) < 1e-9
        # the true scale at m = 100: the bubble still carries ~1% of its
        # mass outside r = 0.5, so the residual sits near 0.09
        assert 0.08 < got < 0.10

    def test_exact_family_closed_form_gradient(self):
        pt = exact_disk_family(ALPHA, 100.0)
        mesh = pt.mesh
        r = mesh.t ** (1.0 / BETA)
        rk = r[r >= 0.5]
        up = -4.0 * BETA * 100.0 * rk ** (2.0 * BETA - 1.0) / (1.0 + 100.0 * rk ** (2.0 * BETA))
        gp = -1.0 / (2.0 * np.pi * rk)
        closed = np.max(np.abs(up - pt.rho * gp))
        got = outer_profile_residual(pt, 0.5, gradient=True)
        assert abs(got - closed) < 1e-9

    def test_vanishes_at_boundary(self):
        # u and rho G share Dirichlet data, so the last node contributes 0
        pt = exact_disk_family(ALPHA, 100.0)
        assert outer_profile_residual(pt, 0.999) <= 1e-12

    @pytest.mark.parametrize("gradient", [False, True])
    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_decays_along_branch(self, which, gradient, branch_plus, branch_minus):
        branch = branch_plus if which == "plus" else branch_minus
        vals = [outer_profile_residual(pt, 0.5, gradient=gradient) for pt in branch.points]
        slope, _ = window_fit(branch.lambdas, vals)
        assert -slope >= 0.9 / (2.0 * BETA)

    def test_domain_errors(self):
        pt = exact_disk_family(ALPHA, 100.0)
        for bad in (0.0, 1.0, 1.5, -0.25):
            with pytest.raises(ParameterDomainError):
                outer_profile_residual(pt, bad)


class TestPohozaevPair:
    def test_fold_pair_identity_holds(self, fold_pair):
        lo, hi = fold_pair
        for r in (0.5, 0.25, 0.125):
            assert abs(pohozaev_residual(lo, hi, r)) <= 1e-8

    def test_manufactured_pair_rejected(self, fold_pair):
        _, hi = fold_pair
        fake = SolutionPoint(hi.spec, hi.mesh, hi.u + 0.3, hi.rho, hi.res_norm, hi.newton_iters)
        assert abs(pohozaev_residual(hi, fake, 0.25)) >= 1.0

    def test_rho_mismatch_raises(self, fold_pair):
        _, hi = fold_pair
        other = SolutionPoint(
            hi.spec, hi.mesh, hi.u, hi.rho * (1.0 + 1e-6), hi.res_norm, hi.newton_iters
        )
        with pytest.raises(ParameterDomainError, match="rho mismatch"):
            pohozaev_residual(hi, other, 0.25)

    def test_identical_points_raise(self, fold_pair):
        _, hi = fold_pair
        with pytest.raises(ParameterDomainError, match="coincide"):
            pohozaev_residual(hi, hi, 0.25)

    def test_radius_domain(self, fold_pair):
        lo, hi = fold_pair
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ParameterDomainError):
                pohozaev_residual(lo, hi, bad)

    def test_mesh_mismatch_raises(self):
        lam = float(np.log(BETA * 101.0 / np.pi))
        a = exact_disk_family(ALPHA, 100.0, mesh=solver_mesh(512, BETA, lam))
        b = exact_disk_family(ALPHA, 100.0, mesh=solver_mesh(384, BETA, lam))
        with pytest.raises(ParameterDomainError, match="mesh"):
            pohozaev_residual(a, b, 0.25)


class TestPohozaevLinearized:
    def test_kernel_candidate_exact_family(self):
        pt = exact_disk_family(ALPHA, 1e4)
        xi = kernel_candidate(pt)
        for r in (0.25, 0.125):
            assert abs(pohozaev_residual_linearized(pt, xi, r)) <= 1e-6

    def test_kernel_candidate_gaussian_r_stable(self, branch_plus):
        idx = int(np.argmin(np.abs(branch_plus.lambdas - 12.0)))
        pt = branch_plus.points[idx]
        xi = kernel_candidate(pt)
        ra = pohozaev_residual_linearized(pt, xi, 0.25)
        rb = pohozaev_residual_linearized(pt, xi, 0.125)
        assert abs(ra) <= 1e-6 and abs(rb) <= 1e-6
        assert max(abs(ra), abs(rb)) <= 2.0 * min(abs(ra), abs(rb))

    def test_constant_field_closed_form(self):
        # xi = 1 is not in the kernel; the defect reduces to the mass
        # mismatch between the boundary flux and the scaled bulk integral
        m = 1e4
        pt = exact_disk_family(ALPHA, m)
        val = pohozaev_residual_linearized(pt, np.ones_like(pt.u), 0.25)
        tr2 = 0.25 ** (2.0 * BETA)
        elam = BETA * (1.0 + m) / np.pi
        expected = 2.0 * np.pi * pt.rho * elam * tr2 * (
            1.0 / (1.0 + m * tr2) - 1.0 / (1.0 + m * tr2) ** 2
        )
        assert abs(val - expected) <= 1e-9 * abs(expected)

    def test_xi_validation(self):
        pt = exact_disk_family(ALPHA, 100.0)
        with pytest.raises(ParameterDomainError, match="shape"):
            pohozaev_residual_linearized(pt, np.ones(7), 0.25)
        bad = np.ones_like(pt.u)
        bad[3] = np.nan
        with pytest.raises(ParameterDomainError, match="finite"):
            pohozaev_residual_linearized(pt, bad, 0.25)

    def test_tensor_quadrature_cross_check(self):
        """Rebuild the identity as a genuine 2D integral and compare.

        Gauss-Legendre in radius times trapezoid in angle, with the
        gradients and normal products written out as vectors; this pins
        every 2 pi, Jacobian, and chain-rule factor of the reduced form.
        """
        m = 10.0
        pt = exact_disk_family(ALPHA, m)
        mesh, spec = pt.mesh, pt.spec
        xi_nodes = 1.0 / (1.0 + mesh.t**2)
        r = 0.5
        res1d = pohozaev_residual_linearized(pt, xi_nodes, r)

        lam, rho = pt.lam, pt.rho

        def u_tilde(s):
            return lam - 2.0 * np.log1p(m * s ** (2.0 * BETA))

        def du_tilde(s):
            return -4.0 * m * BETA * s ** (2.0 * BETA - 1.0) / (1.0 + m * s ** (2.0 * BETA))

        def xi_of(s):
            t = s**BETA
            return 1.0 / (1.0 + t * t)

        def dxi_of(s):
            t = s**BETA
            return BETA * s ** (BETA - 1.0) * (-2.0 * t / (1.0 + t * t) ** 2)

        M = 64
        thetas = np.linspace(0.0, 2.0 * np.pi, M, endpoint=False)
        wth = 2.0 * np.pi / M
        ws, xs, cr = 2.0 * du_tilde(r), dxi_of(r), np.exp(u_tilde(r))
        lhs = 0.0
        bnd = 0.0
        for th in thetas:
            nu = np.array([np.cos(th), np.sin(th)])
            dw, dxi = ws * nu, xs * nu
            lhs += wth * r * r * (0.5 * float(dw @ dxi) - float(nu @ dw) * float(nu @ dxi))
            bnd += wth * r * r * rho * spec.hstar(r) * r ** (2.0 * ALPHA) * cr * xi_of(r)
        gs, gw = np.polynomial.legendre.leggauss(96)
        snodes, swts = 0.5 * r * (gs + 1.0), 0.5 * r * gw
        bulk = 0.0
        for s, w in zip(snodes, swts):
            f = rho * spec.hstar(s) * s ** (2.0 * ALPHA) * np.exp(u_tilde(s)) * xi_of(s)
            for th in thetas:
                e = np.array([np.cos(th), np.sin(th)])
                fac = 2.0 + 2.0 * ALPHA + float((spec.dlog_hstar(s) * e) @ (s * e))
                bulk += wth * w * s * f * fac
        res2d = lhs - (bnd - bulk)
        assert abs(res1d - res2d) <= 1e-8 * max(1.0, abs(res1d))
        assert abs(res1d) > 1.0  # the check is non-vacuous


class TestPsi1Gradient:
    def test_radial_weight_origin(self):
        assert psi1_gradient_check(exact_disk_family(ALPHA, 100.0)) <= 1e-9

    def test_constant_weight_off_center(self):
        pt = exact_disk_family(ALPHA, 100.0)
        # R(x, 0) vanishes identically on the disk, so constant hstar
        # makes the whole field constant
        assert psi1_gradient_check(pt, at=(0.3, 0.0)) <= 1e-9

    def test_gaussian_weight_off_center(self, branch_plus):
        pt = branch_plus.points[0]
        got = psi1_gradient_check(pt, at=(0.3, 0.0))
        assert abs(got - 0.15) <= 1e-9

    def test_boundary_proximity_raises(self):
        pt = exact_disk_family(ALPHA, 100.0)
        with pytest.raises(ParameterDomainError):
            psi1_gradient_check(pt, at=(0.99999, 0.0))


class TestUniquenessProbe:
    def test_gaussian_plus_decreasing(self, branch_plus):
        v = uniqueness_probe(branch_plus)
        assert v.monotone and v.sign == -1 and v.expected_sign == -1
        assert v.ok

    def test_gaussian_minus_increasing(self, branch_minus):
        v = uniqueness_probe(branch_minus)
        assert v.monotone and v.sign == 1 and v.expected_sign == 1
        assert v.ok

    def test_exact_family_strictly_increasing(self):
        v = uniqueness_probe(exact_branch())
        assert v.ok and v.sign == 1
        assert all(d > 1e-10 for d in v.derivatives)

    def test_window_too_short_raises(self, branch_plus):
        with pytest.raises(ParameterDomainError, match="at least 4"):
            uniqueness_probe(branch_plus, window=(8.0, 8.6))


class TestReport:
    def test_fold_branch_pair_kind(self, fold_branch):
        rep = build_report(fold_branch, window=(2.0, 8.0))
        d = rep.to_dict()
        assert set(d) == {
            "rate_fit", "local_rate_fit", "matching", "outer",
            "pohozaev", "b0", "window", "config_hash",
        }
        assert d["pohozaev"]["kind"] == "pair"
        assert len(d["pohozaev"]["values"]) == 1
        assert abs(d["pohozaev"]["values"][0]) <= 1e-8
        assert len(d["b0"]) == 1
        assert abs(d["b0"][0] - 1.01358) <= 1e-4
        assert d["local_rate_fit"]["r0"] == 0.25
        assert len(d["matching"]) == len(fold_branch.points)

    def test_plain_branch_eigenfield_kind(self):
        rep = build_report(exact_branch(count=7))
        d = rep.to_dict()
        assert d["pohozaev"]["kind"] == "eigenfield"
        assert len(d["pohozaev"]["values"]) == 7
        assert max(abs(v) for v in d["pohozaev"]["values"]) <= 1e-6
        assert d["b0"] == []
        assert d["rate_fit"]["r2_ok"] is True
        assert d["window"] == [8.0, 14.0]
