"""Numerical laboratory for bubbling branches of the singular mean field
equation on the unit disk.

Import rule: the package imports no scipy package, since every CLI
process pays for its imports before it reads its config and
``import scipy.linalg`` alone takes about 0.3 s; and no OpenSSL, since
``hashlib`` maps libcrypto, about 3.4 MB resident, for the one config
hash a run takes (``serialize`` hashes with CPython's own sha256).
``meshing.scipy_extension`` loads the three compiled modules the CLI
paths call straight from scipy's files: LAPACK (``scipy.linalg._flapack``,
whose band LU only ``meshing`` calls: ``RadialMesh.band_solver`` serves
Newton and the mode spectra), ARPACK
(``scipy.sparse.linalg._eigen.arpack._arpacklib``, driven by
``linearization._arnoldi``) and Brent's root finder
(``scipy.optimize._zeros``, which ``radial_solver._brentq`` calls for the
fold pairs).

OpenBLAS rule: numpy's and scipy's OpenBLAS each start their thread pool
when they are loaded, numpy's by ``import numpy`` and scipy's by the
LAPACK load in ``meshing``.  The package's own imports run with
``OPENBLAS_NUM_THREADS=1``, unless the environment sets it, and the
environment is restored once they are done.  So each library the package
loads first runs on one thread: no BLAS thread is created, none spins
after its work and none competes with a forked worker pinned to its CPU.
The only package work big enough for OpenBLAS to thread is ARPACK's BLAS
on the Arnoldi basis in the spectrum scan; Newton's products are 64-row
slabs, too small to thread.  One thread changes no output byte.  A
process that imported numpy before this package keeps numpy's thread
count.
"""

import os as _os

_unset = "OPENBLAS_NUM_THREADS" not in _os.environ
if _unset:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .diagnostics import (
        build_report,
        local_rate_law_fit,
        matching_residual,
        outer_profile_residual,
        pohozaev_residual,
        pohozaev_residual_linearized,
        psi1_gradient_check,
        rate_law_fit,
        uniqueness_probe,
    )
    from .errors import ParameterDomainError
    from .greens import WeightSpec, ell_coefficient
    from .linearization import (
        b0_projection,
        kernel_candidate,
        mode_spectrum,
        nondegeneracy_scan,
    )
    from .radial_solver import (
        Branch,
        SolutionPoint,
        blowup_initial_guess,
        continue_branch,
        exact_disk_family,
        find_fold_pair,
        newton_solve,
    )
finally:
    if _unset:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "Branch",
    "ParameterDomainError",
    "SolutionPoint",
    "WeightSpec",
    "b0_projection",
    "blowup_initial_guess",
    "build_report",
    "continue_branch",
    "ell_coefficient",
    "exact_disk_family",
    "find_fold_pair",
    "kernel_candidate",
    "local_rate_law_fit",
    "matching_residual",
    "mode_spectrum",
    "newton_solve",
    "nondegeneracy_scan",
    "outer_profile_residual",
    "pohozaev_residual",
    "pohozaev_residual_linearized",
    "psi1_gradient_check",
    "rate_law_fit",
    "uniqueness_probe",
]

__version__ = "0.1.0"
