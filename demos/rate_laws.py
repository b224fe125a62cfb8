"""Blow-up rate laws: rho - 8 pi beta against the height lambda.

On the exact disk family the deficit is -8 beta^2 e^(-lambda) exactly, so
the log-linear fit returns slope -1 and intercept log(8 beta^2) to solver
precision.  On gaussian branches the leading law has slope -1/beta with
coefficient ell; the fit window matters because the universal e^(-lambda)
correction is still visible at desk heights, which the printout shows.
"""

import numpy as np

from mfelab import (
    Branch,
    WeightSpec,
    continue_branch,
    ell_coefficient,
    exact_disk_family,
    local_rate_law_fit,
    rate_law_fit,
)

ALPHA = 0.5
BETA = 1.0 + ALPHA


def exact_branch(lo, hi, count):
    pts = []
    for lam in np.linspace(lo, hi, count):
        m = (np.pi / BETA) * np.exp(lam) - 1.0
        pts.append(exact_disk_family(ALPHA, m))
    return Branch(pts[0].spec, tuple(pts))


def main():
    fam = exact_branch(8.0, 14.0, 13)
    fit = rate_law_fit(fam)
    print("exact family, fit over [8, 14]:")
    print(f"  slope {fit.slope:+.8f} (law -1), intercept {fit.intercept:.8f}"
          f" (law log 8 beta^2 = {np.log(8.0 * BETA**2):.8f})")

    for coef in (0.25, -0.25):
        spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=coef)
        ell = ell_coefficient(ALPHA, spec.hbar1((0.0, 0.0)), spec.lap_log_hstar0())
        branch = continue_branch(6.0, 15.0, 19, spec, nodes=512)
        fit = rate_law_fit(branch)
        lfit = local_rate_law_fit(branch, 0.25)
        print(f"\ngaussian coef {coef:+.2f}: ell = {ell:+.4f}, "
              f"target slope {-1.0 / BETA:.4f}, target intercept {np.log(abs(ell)):.4f}")
        print(f"  [8, 14] fit:   slope {fit.slope:+.5f}, intercept {fit.intercept:.5f},"
              f" r^2 {fit.r_squared:.5f}")
        print(f"  local r0=0.25: slope {lfit.slope:+.5f}, intercept {lfit.intercept:.5f}")
        signs = np.sign(branch.rhos[branch.lambdas >= 8.0] - 8.0 * np.pi * BETA)
        print(f"  sign(rho - 8 pi beta) on lambda >= 8: {sorted(set(signs.tolist()))},"
              f" sign ell {np.sign(ell):+.0f}")
    print("\nthe positive-coef slope sits above the target at these heights:"
          " the e^(-lambda) correction has the opposite sign to ell there"
          " and bends the window; on the negative branch both terms pull"
          " together and the fitted law lands on target.")


if __name__ == "__main__":
    main()
