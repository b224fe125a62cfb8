"""Boundary-flux identities as solution certificates.

The boundary-bulk identity vanishes on true solution pairs across a fold
and on converged linearized kernel fields, stays flat in the cut radius,
and lights up on manufactured fields.  Matching and outer-profile
residuals decay along the branch at the documented sigma rate.
"""

import numpy as np

from mfelab import (
    WeightSpec,
    continue_branch,
    exact_disk_family,
    find_fold_pair,
    kernel_candidate,
    matching_residual,
    outer_profile_residual,
    pohozaev_residual,
    pohozaev_residual_linearized,
)

ALPHA = 0.5
BETA = 1.0 + ALPHA


def main():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    low = continue_branch(2.0, 8.0, 25, spec, nodes=512)
    lo, hi = find_fold_pair(low)
    print("pairwise identity across the fold:")
    for r in (0.5, 0.25, 0.125):
        print(f"  cut r = {r:5.3f}: residual {pohozaev_residual(lo, hi, r):+.3e}")

    fam = exact_disk_family(ALPHA, 1e4)
    xi = kernel_candidate(fam)
    print("\nlinearized identity, exact family at m = 1e4:")
    for r in (0.25, 0.125):
        res = pohozaev_residual_linearized(fam, xi, r)
        print(f"  cut r = {r:5.3f}: residual {res:+.3e}")
    bad = pohozaev_residual_linearized(fam, np.ones_like(fam.u), 0.25)
    print(f"  manufactured constant field: residual {bad:+.3e}")

    branch = continue_branch(6.0, 15.0, 10, spec, nodes=512)
    print("\nmatching and outer-profile residuals along the gaussian branch:")
    print("lambda   matching      outer sup     outer gradient")
    for pt in branch.points:
        mat = matching_residual(pt)
        sup = outer_profile_residual(pt, 0.5)
        grad = outer_profile_residual(pt, 0.5, gradient=True)
        print(f"{pt.lam:6.2f}   {mat:+.3e}   {sup:.3e}     {grad:.3e}")


if __name__ == "__main__":
    main()
