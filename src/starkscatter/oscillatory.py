"""Airy-type oscillatory integral for the free generalized eigenfunction.

The eigenfunction is c * integral over zeta of xi(zeta) e^{i y.zeta} times
the eta-integral of e^{i(-eta^3/6 + (x + lambda - zeta^2/2) eta)}.  The
eta-integral reduces exactly to an Airy function by the substitution
eta = -2^{1/3} s; the two-term stationary-phase asymptote replaces the whole
double integral by contributions of the two real critical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import parabolic
from .errors import BudgetError, DomainError
from .quadrature import converge, loglog_fit
from .special import airy_ai

_CBRT2 = 2.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class EigenfunctionSample:
    x: float
    y: np.ndarray
    lam: float
    exact: complex
    asymptotic: complex

    @property
    def rel_error(self) -> float:
        if self.exact == 0:
            raise DomainError("relative error undefined for vanishing value")
        return abs(self.exact - self.asymptotic) / abs(self.exact)


class BumpProfile:
    """Smooth compactly supported profile exp(-1 / (1 - |z - z0|^2 / w^2))."""

    def __init__(self, center, width: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if width <= 0:
            raise DomainError("bump width must be positive")
        self.width = float(width)

    @property
    def support(self):
        return self.center - self.width, self.center + self.width

    def __call__(self, z) -> float:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        u2 = float(np.dot(z - self.center, z - self.center)) / self.width ** 2
        if u2 >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - u2))


def airy_reduction(x: float, zeta, lam: float = 0.0) -> complex:
    """The eta-integral as 2^{1/3} 2 pi Ai(-2^{1/3} (x + lam - zeta^2/2))."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    arg = x + lam - 0.5 * float(np.dot(zeta, zeta))
    return complex(_CBRT2 * 2.0 * math.pi * airy_ai(-_CBRT2 * arg))


def airy_reduction_quadrature(w, angle: float = math.pi / 8.0,
                              tol: float = 1e-12):
    """Oracle: the eta-integral at x + lam - zeta^2/2 = w by contour quadrature.

    The contour is bent at the origin, eta = u e^{-i angle} for u > 0 and
    eta = u e^{+i angle} for u < 0, which puts both ends into sectors where
    the cubic exponential decays like exp(-sin(3 angle) |u|^3 / 6).  Both
    rays are integrated over u in (0, inf) on mapped Gauss-Legendre panels
    (map power 1, scale 4) for all w at once, refined until every value
    changes by at most tol * max(1, |value|); BudgetError if it does not.
    w may be an array; kept for verification only.
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    # outgoing direction of each ray, and the sign of its contribution
    rays = ((np.exp(-1j * angle), 1.0), (-np.exp(1j * angle), -1.0))

    def one_pass(rule):
        total = 0.0
        for direction, sign in rays:
            eta = rule.t * direction
            total = total + sign * direction * np.sum(
                np.exp(1j * (-eta ** 3 / 6.0 + w_arr[:, None] * eta))
                * rule.w, axis=-1)
        return total

    value, _ = converge(one_pass, np.full(w_arr.size, 4.0), 1, tol,
                        "oscillatory", "airy_reduction_quadrature")
    return complex(value[0]) if np.ndim(w) == 0 else value


def free_eigenfunction(x: float, y, xi, lam: float = 0.0,
                       tol: float = 1e-10, d: int = 2) -> complex:
    """c * integral of xi(zeta) e^{i y.zeta} (Airy-reduced eta-integral).

    Supports d = 2 (scalar zeta) and d = 3 (tensor-product quadrature).
    xi must expose .support; use BumpProfile or TabulatedProfile.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != d - 1:
        raise DomainError("y block inconsistent with dimension")
    c = (2.0 * math.pi) ** (-(d + 1) / 2.0)
    lo, hi = xi.support
    if d == 2:
        def f(z):
            return (xi(z) * np.exp(1j * y[0] * z)
                    * airy_reduction(x, z, lam))
        val = _complex_quad(f, float(lo[0]), float(hi[0]), tol)
        return c * val
    if d == 3:
        def outer(z1):
            def inner(z2):
                zeta = np.array([z1, z2])
                return (xi(zeta) * np.exp(1j * float(np.dot(y, zeta)))
                        * airy_reduction(x, zeta, lam))
            return _complex_quad(inner, float(lo[1]), float(hi[1]), tol)
        val = _complex_quad(outer, float(lo[0]), float(hi[0]), tol)
        return c * val
    raise DomainError("free_eigenfunction supports d = 2 or 3")


def _complex_quad(f, a, b, tol):
    re, re_err = quad(lambda t: f(t).real, a, b, limit=800,
                      epsabs=tol, epsrel=tol)
    im, im_err = quad(lambda t: f(t).imag, a, b, limit=800,
                      epsabs=tol, epsrel=tol)
    if re_err + im_err > 100.0 * tol * max(1.0, abs(complex(re, im))):
        raise BudgetError("eigenfunction quadrature failed to converge",
                          module="oscillatory", operation="free_eigenfunction",
                          budget=tol)
    return complex(re, im)


def stationary_phase_eigenfunction(x: float, y, xi, lam: float = 0.0,
                                   d: int = 2) -> complex:
    """Two-term critical-point asymptote of the eigenfunction.

    Each term carries amplitude (2X)^{-d/4} / sqrt(2 pi), the phase factor
    e^{+-i theta1(X, y)} with X = x + lam, the quarter-turn factor
    e^{-+i pi d/4} and the profile evaluated at +-omega, omega = y / sqrt(2X).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != d - 1:
        raise DomainError("y block inconsistent with dimension")
    X = x + lam
    y_norm = float(np.linalg.norm(y))
    if not (X > 0.0 and y_norm < X):
        raise DomainError("caustic margin violated: need x + lam > |y|")
    theta1 = parabolic.theta1_value(X, y)
    omega = y / math.sqrt(2.0 * X)
    amp = (2.0 * X) ** (-d / 4.0) / math.sqrt(2.0 * math.pi)
    plus = np.exp(-1j * math.pi * d / 4.0) * np.exp(1j * theta1) * xi(omega)
    minus = np.exp(1j * math.pi * d / 4.0) * np.exp(-1j * theta1) * xi(-omega)
    return complex(amp * (plus + minus))


def eigenfunction_sample(x: float, y, xi, lam: float = 0.0,
                         tol: float = 1e-10, d: int = 2) -> EigenfunctionSample:
    return EigenfunctionSample(
        x=x, y=np.atleast_1d(np.asarray(y, dtype=float)), lam=lam,
        exact=free_eigenfunction(x, y, xi, lam, tol, d),
        asymptotic=stationary_phase_eigenfunction(x, y, xi, lam, d),
    )


def asymptotic_convergence(y_over_x: float, x_list, xi, lam: float = 0.0,
                           tol: float = 1e-10, d: int = 2):
    """Fit the decay exponent of the relative stationary-phase error.

    Returns (exponent, samples); the exponent should not exceed -1/2.
    """
    x_list = np.asarray(x_list, dtype=float)
    samples = []
    for x in x_list:
        y = np.full(d - 1, y_over_x * x / math.sqrt(d - 1))
        samples.append(eigenfunction_sample(x, y, xi, lam, tol, d))
    errs = np.array([s.rel_error for s in samples])
    if np.any(errs <= 0.0):
        raise DomainError("degenerate data: zero relative error")
    return loglog_fit(x_list, errs)[0], samples
