"""Regular part of the unit disk's Green function, singular weights, the
admissible singular strengths alpha, and rate coefficients.

The domain is fixed: the unit disk with the singular point at the center.
The regular part is exact (method of images), which is what makes every
downstream identity testable against closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, WeightSpecError

TWO_PI = 2.0 * np.pi

#: reject alpha this close to an integer
ALPHA_TOL = 1e-12


def validate_alpha(alpha: float) -> float:
    """Return alpha as float; positive non-integer strengths only (integer
    strengths produce non-simple blow up and are outside scope)."""
    a = float(alpha)
    if not np.isfinite(a) or a <= 0.0:
        raise ParameterDomainError("alpha must be positive")
    if abs(a - round(a)) <= ALPHA_TOL:
        raise ParameterDomainError("alpha must be non-integer")
    return a


def _point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != 2 or not np.all(np.isfinite(p)):
        raise ParameterDomainError(f"expected a finite planar point, got {x!r}")
    return p


def regular_part(x, y) -> float:
    """R(x, y) = G(x, y) + (1/2 pi) log|x - y|.

    The log singularities cancel analytically, so the diagonal is evaluated
    directly: R(x, y) = (1/2 pi) log(|y| |x - y*|), R(y, y) =
    (1/2 pi) log(1 - |y|^2), and R(x, 0) = 0 identically on the disk.
    The singular point is fixed at the center, so the formulas that would
    add R(x, 0) (the Hamiltonian, the matching identity, the outer profile
    and the Pohozaev identities) omit that term.
    """
    xp, yp = _point(x), _point(y)
    ax, ay = np.hypot(*xp), np.hypot(*yp)
    if ax > 1.0 + 1e-14:
        raise ParameterDomainError(f"|x| = {ax} lies outside the closed disk")
    if ay >= 1.0:
        raise ParameterDomainError(f"|y| = {ay} must be interior")
    if ay == 0.0:
        return 0.0
    image = yp / ay**2
    return float(np.log(ay * np.hypot(*(xp - image))) / TWO_PI)


_KINDS = ("constant", "gaussian", "poly")


@dataclass(frozen=True)
class WeightSpec:
    """Weight h(x) = hstar(x) |x|^(2 alpha) with a radial smooth factor.

    kind "constant": hstar = coef (> 0).
    kind "gaussian": hstar = exp(coef |x|^2), either sign of coef.
    kind "poly":     hstar = sum coeffs[j] |x|^(2j), positive on the disk.

    On the unit disk exp(-4 pi alpha G(x, 0)) = |x|^(2 alpha) exactly, so
    this h agrees with the desingularized form with hbar1 = hstar.
    """

    alpha: float
    kind: str = "constant"
    coef: float = 1.0
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        validate_alpha(self.alpha)
        if self.kind not in _KINDS:
            raise WeightSpecError(f"unknown hstar kind {self.kind!r}")
        if self.kind == "constant" and not self.coef > 0.0:
            raise WeightSpecError("constant hstar must be positive")
        if self.kind == "poly":
            if not self.coeffs:
                raise WeightSpecError("poly hstar needs coefficients")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            if not self.coeffs[0] > 0.0:
                raise WeightSpecError("poly hstar must be positive at the origin")
            # coefficients scaled to hstar(0) = 1: a constant factor of hstar
            # drops out of log hstar's derivatives, so dlog_hstar and
            # lap_log_hstar0 read these ratios
            object.__setattr__(
                self, "_unit", tuple(c / self.coeffs[0] for c in self.coeffs)
            )
            s = np.linspace(0.0, 1.0, 1000) ** 2
            if np.any(self._poly(s) <= 0.0):
                raise WeightSpecError("poly hstar must be positive on the disk")

    def _poly(self, s, unit: bool = False):
        coeffs = self._unit if unit else self.coeffs
        out = np.zeros_like(np.asarray(s, dtype=float))
        for c in reversed(coeffs):
            out = out * s + c
        return out

    def _poly_deriv(self, s):
        out = np.zeros_like(np.asarray(s, dtype=float))
        for j in range(len(self.coeffs) - 1, 0, -1):
            out = out * s + j * self._unit[j]
        return out

    # radial evaluations -------------------------------------------------

    def hstar(self, r):
        """The smooth factor at radius r."""
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.full_like(r, self.coef)
        elif self.kind == "gaussian":
            out = np.exp(self.coef * r**2)
        else:
            out = self._poly(r**2)
        return out if out.ndim else float(out)

    def dlog_hstar(self, r):
        """Radial derivative of log hstar."""
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.zeros_like(r)
        elif self.kind == "gaussian":
            out = 2.0 * self.coef * r
        else:
            s = r**2
            out = 2.0 * r * self._poly_deriv(s) / self._poly(s, unit=True)
        return out if out.ndim else float(out)

    def lap_log_hstar0(self) -> float:
        """Laplacian of log hstar at the origin, analytic per kind."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "gaussian":
            return 4.0 * self.coef
        return 4.0 * self._unit[1] if len(self.coeffs) > 1 else 0.0

    # point evaluations ---------------------------------------------------

    def hbar1(self, x) -> float:
        """The desingularized factor h(x)/|x|^(2 alpha), exact on the disk."""
        return float(self.hstar(float(np.hypot(*_point(x)))))


def ell_coefficient(alpha: float, hbar1_at_p: float, lap_log_hstar_at_p: float) -> float:
    """Leading rate coefficient

        ell = 2 pi^2 / ((1+a) sin(pi/(1+a))) * ((1+a)/(pi hbar1))^(1/(1+a))
              * lap_log_hstar.
    """
    a = validate_alpha(alpha)
    if not hbar1_at_p > 0.0:
        raise ParameterDomainError("hbar1 at the blow-up point must be positive")
    beta = 1.0 + a
    front = 2.0 * np.pi**2 / (beta * np.sin(np.pi / beta))
    scale = (beta / (np.pi * hbar1_at_p)) ** (1.0 / beta)
    return float(front * scale * lap_log_hstar_at_p)
