"""Linearized spectra along a branch: non-degeneracy at a glance.

For each branch point the scan assembles the nonlocal linearized operator
mode by mode and records the eigenvalue nearest zero after inner
rescaling.  No magnitude dips below the kernel threshold on this window,
which is the numerical face of non-degeneracy.
"""

from mfelab import WeightSpec, continue_branch, nondegeneracy_scan

ALPHA = 0.5


def main():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(6.0, 14.0, 9, spec, nodes=512)
    scan = nondegeneracy_scan(branch, k_max=8)

    print("lambda   min |eig| over k <= 8   nearest mode-0 eig   flags")
    for i, lam in enumerate(scan.lambdas):
        min_mag = scan.min_magnitudes[i]
        mode0 = scan.eig_min[i, 0]
        nflags = int(scan.kernel_flags[i].sum())
        print(f"{lam:6.2f}   {min_mag:.6e}        {mode0:+.6e}      {nflags}")
    print(f"\nkernel flags raised: {int(scan.kernel_flags.sum())}")
    print(f"smallest magnitude on the window: {scan.min_magnitudes.min():.3e}")


if __name__ == "__main__":
    main()
