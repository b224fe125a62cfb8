"""A bubbling branch approaching its entire-plane limit.

As lambda grows, the branch's mass tends to the plane bubble's 8 pi beta
and each mode's eigenvalue nearest 0 tends to its limit on the plane: the
value nearest 0 of 1 - l(l+1)/2 with l = k/beta + j, j >= 0.  For mode 0
(j = 1) that is the kernel's 0, carried by
Y0 = (1 - |y|^(2 beta))/(1 + |y|^(2 beta)).
"""

import numpy as np

from mfelab import WeightSpec, continue_branch, nondegeneracy_scan

ALPHA = 0.5
BETA = 1.0 + ALPHA
K_MAX = 4


def mode_limit(k: int) -> float:
    """The value nearest 0 of 1 - l(l+1)/2, l = k/beta + j; it has j <= 1,
    since the values fall with l and cross 0 at l = 1."""
    l = k / BETA + np.arange(2)
    values = 1.0 - l * (l + 1.0) / 2.0
    return float(values[np.argmin(np.abs(values))])


def main():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(10.0, 14.0, 3, spec, nodes=512)
    scan = nondegeneracy_scan(branch, k_max=K_MAX)
    plane = 8.0 * np.pi * BETA
    print(f"alpha = {ALPHA}, gaussian +0.25, 512 nodes; plane mass 8 pi beta = {plane:.6f}")
    print("mass deficit rho - 8 pi beta:")
    for lam, rho in zip(branch.lambdas, branch.rhos):
        print(f"  lambda = {lam:5.2f}: {rho - plane:+.6e}")
    print("eig_min per mode, beside its limit on the plane:")
    for k in range(K_MAX + 1):
        values = "  ".join(f"{v:+.5f}" for v in scan.eig_min[:, k])
        print(f"  k = {k}: {values}   limit {mode_limit(k):+.5f}")


if __name__ == "__main__":
    main()
