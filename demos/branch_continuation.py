"""March the blow-up branch in lambda and inspect a fold.

With a gaussian weight the branch runs out to lambda = 15 while rho
approaches 8 pi beta from one side.  Lower on the same branch rho turns
around at a fold; the two solutions sharing one rho there differ by a
field whose inner projection onto the kernel shape stays order one.
"""

import numpy as np

from mfelab import (
    WeightSpec,
    b0_projection,
    continue_branch,
    find_fold_pair,
)

ALPHA = 0.5
BETA = 1.0 + ALPHA
LIMIT = 8.0 * np.pi * BETA


def main():
    spec = WeightSpec(alpha=ALPHA, kind="gaussian", coef=0.25)
    branch = continue_branch(6.0, 15.0, 10, spec, nodes=512)
    print("lambda      rho           rho - 8 pi beta   residual")
    for pt in branch.points:
        print(f"{pt.lam:6.2f}   {pt.rho:.8f}   {pt.rho - LIMIT:+.4e}     {pt.res_norm:.1e}")

    low = continue_branch(2.0, 8.0, 25, spec, nodes=512)
    print(f"\nfold flags on the [2, 8] window: {low.fold_flags}")
    lo, hi = find_fold_pair(low)
    print(f"paired at rho = {hi.rho:.10f}: lambda {lo.lam:.4f} and {hi.lam:.4f}")
    diff = hi.u_tilde - lo.u_tilde
    b0 = b0_projection(diff / np.max(np.abs(diff)), hi)
    print(f"kernel-shape projection of the pair difference: {b0:.5f}")


if __name__ == "__main__":
    main()
