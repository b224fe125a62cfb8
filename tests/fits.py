"""The two-term rate-law fit, which only the tests use.

Inside the default window [8, 14] the e^(-lambda) next-order term is still
3-22% of the leading term on the gaussian coef=0.25 branch and bends the
one-term line of ``mfelab.diagnostics.rate_law_fit``; ``two_term_fit``
carries that term explicitly and reads the leading law off the same window.
"""

from __future__ import annotations

import numpy as np

from mfelab.diagnostics import FitResult, _r_squared, _window_points
from mfelab.errors import ParameterDomainError


def two_term_fit(lams, values, correction: float, window=(8.0, 14.0)) -> FitResult:
    """Fit values = a e^(s lambda) + b e^(-correction lambda) over the window.

    correction is the known rate q of the next-order term; the leading
    exponent s is free in (-q, 0).  For each s the coefficients (a, b)
    solve a linear least-squares problem on residuals relative to |values|
    (variable projection), and a bounded scalar search picks s.  Returns
    slope = s, intercept = log|a| and r^2 of log|values| against the
    two-term model, so the leading law reads off as in the one-term fit
    once the named correction is taken out.
    """
    from scipy.optimize import minimize_scalar

    q = float(correction)
    if not q > 0.0:
        raise ParameterDomainError(f"correction rate {q} must be positive")
    x, v, lo, hi = _window_points(lams, values, window)
    # centring lambda keeps both basis columns of order one
    centre = 0.5 * (lo + hi)
    xc = x - centre
    scale = 1.0 / np.abs(v)

    def coefficients(s):
        basis = np.column_stack((np.exp(s * xc), np.exp(-q * xc))) * scale[:, None]
        coef, *_ = np.linalg.lstsq(basis, v * scale, rcond=None)
        return coef, basis @ coef - v * scale

    def objective(s):
        _, resid = coefficients(s)
        return float(resid @ resid)

    s = float(
        minimize_scalar(
            objective, bounds=(-q, 0.0), method="bounded", options={"xatol": 1e-12}
        ).x
    )
    (a_c, b_c), _ = coefficients(s)
    model = a_c * np.exp(s * xc) + b_c * np.exp(-q * xc)
    with np.errstate(divide="ignore"):
        intercept = float(np.log(abs(a_c))) - s * centre
        r2 = _r_squared(np.log(np.abs(v)), np.log(np.abs(model)))
    return FitResult(s, intercept, r2, (lo, hi), x.size)
