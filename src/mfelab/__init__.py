"""Numerical laboratory for bubbling branches of the singular mean field
equation on the unit disk.

Import rule: the only scipy modules imported at module level are
``scipy.linalg`` (the LAPACK band solves of Newton and the mode spectra)
and ``scipy.sparse.linalg`` (ARPACK); ``scipy.sparse`` is loaded only
because ``scipy.sparse.linalg`` imports it.  Every CLI process pays for
its imports before it reads its config, so a function off the CLI paths
imports what else it needs (``scipy.optimize``, ``scipy.interpolate``,
``scipy.special``) in its own body, and the fold-pair root finder is a
port of scipy's Brent step (``radial_solver._brentq``) rather than a call
into ``scipy.optimize``.
"""

from .diagnostics import (
    build_report,
    local_rate_law_fit,
    matching_residual,
    outer_profile_residual,
    pohozaev_residual,
    pohozaev_residual_linearized,
    psi1_gradient_check,
    rate_law_fit,
    two_term_fit,
    uniqueness_probe,
)
from .errors import ParameterDomainError
from .greens import WeightSpec, ell_coefficient
from .linearization import (
    b0_projection,
    entire_mode_operator,
    kernel_candidate,
    mode_spectrum,
    nondegeneracy_scan,
)
from .liouville import (
    bubble_mass,
    bubble_profile,
    entire_linearized_apply,
    kernel_Y0,
)
from .radial_solver import (
    Branch,
    MeshPolicy,
    SolutionPoint,
    blowup_initial_guess,
    continue_branch,
    exact_disk_family,
    find_fold_pair,
    newton_solve,
)

__all__ = [
    "Branch",
    "MeshPolicy",
    "ParameterDomainError",
    "SolutionPoint",
    "WeightSpec",
    "b0_projection",
    "blowup_initial_guess",
    "bubble_mass",
    "bubble_profile",
    "build_report",
    "continue_branch",
    "ell_coefficient",
    "entire_linearized_apply",
    "entire_mode_operator",
    "exact_disk_family",
    "find_fold_pair",
    "kernel_Y0",
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
    "two_term_fit",
    "uniqueness_probe",
]

__version__ = "0.1.0"
