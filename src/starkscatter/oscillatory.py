"""Airy-type oscillatory integral for the free generalized eigenfunction.

The eigenfunction is c * integral over zeta of xi(zeta) e^{i y.zeta} times
the eta-integral of e^{i(-eta^3/6 + (x + lambda - zeta^2/2) eta)}.  The
eta-integral reduces exactly to an Airy function by the substitution
eta = -2^{1/3} s, and the zeta-integral is one tensor-product sum on the
panel rule of `quadrature` for d = 2 and 3; the two-term stationary-phase
asymptote replaces the whole double integral by contributions of the two
real critical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parabolic
from .errors import BudgetError, DomainError
from .quadrature import converge, half_line, loglog_fit, panels
from .special import airy_ai

_CBRT2 = 2.0 ** (1.0 / 3.0)
# free_eigenfunction: most radians of phase on one tile, most nodes a pass
_TILE_RADIANS = 128.0
_MAX_NODES = 2 ** 21


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
    """Smooth compactly supported profile exp(-1 / (1 - |z - z0|^2 / w^2)).

    Called on one point (a float) or on an (n, d - 1) array of points.
    """

    def __init__(self, center, width: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if width <= 0:
            raise DomainError("bump width must be positive")
        self.width = float(width)

    @property
    def support(self):
        return self.center - self.width, self.center + self.width

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        diff = z.reshape(-1, self.center.size) - self.center
        u2 = np.sum(diff * diff, axis=-1) / self.width ** 2
        inside = u2 < 1.0
        value = np.zeros(u2.shape)
        value[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
        return value if z.ndim == 2 else float(value[0])


def airy_reduction(x, zeta, lam: float = 0.0):
    """The eta-integral as 2^{1/3} 2 pi Ai(-2^{1/3} (x + lam - zeta^2/2)).

    x may be an array, or zeta an (n, d - 1) array of rows; then the result
    is an array, of their broadcast shape.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    arg = np.asarray(x, dtype=float) + lam - 0.5 * np.sum(zeta * zeta, axis=-1)
    value = _CBRT2 * 2.0 * math.pi * airy_ai(-_CBRT2 * arg)
    return complex(value) if np.ndim(arg) == 0 else value.astype(complex)


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

    value, _ = converge(one_pass, half_line(np.full(w_arr.size, 4.0), 1), tol,
                        "oscillatory", "airy_reduction_quadrature")
    return complex(value[0]) if np.ndim(w) == 0 else value


def free_eigenfunction(x: float, y, xi, lam: float = 0.0,
                       tol: float = 1e-10, d: int = 2) -> complex:
    """c * integral of xi(zeta) e^{i y.zeta} (Airy-reduced eta-integral).

    For d = 2 and 3: one tensor-product panel sum over the box xi.support
    = (lo, hi), refined by quadrature.converge.  The profile xi is called
    once per pass, on the (n, d - 1) array of nodes.  Axis i turns the phase
    by at most |y_i| + sqrt(2 max(x + lam, 0)) max|zeta_i| radians per unit
    and is cut into equal tiles of at most _TILE_RADIANS; a pass of more
    than _MAX_NODES nodes raises BudgetError before it is built.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if d not in (2, 3) or y.size != d - 1:
        raise DomainError("free_eigenfunction needs d = 2 or 3 and a y block "
                          "of d - 1 entries")
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in xi.support)
    rate = (np.abs(y) + math.sqrt(2.0 * max(x + lam, 0.0))
            * np.maximum(np.abs(lo), np.abs(hi)))
    tiles = np.maximum(1, np.ceil(rate * (hi - lo) / _TILE_RADIANS)).astype(int)

    def one_pass(axes):
        if math.prod(r.t.size for r in axes) > _MAX_NODES:
            raise BudgetError("eigenfunction grid exceeds the node budget",
                              module="oscillatory",
                              operation="free_eigenfunction", budget=tol)
        zeta = np.stack(np.meshgrid(*[a + (b - a) * r.t for a, b, r in
                                      zip(lo, hi, axes)], indexing="ij"),
                        axis=-1).reshape(-1, d - 1)
        w = math.prod(hi - lo) * math.prod(np.ix_(*[r.w for r in axes]))
        # Ai only where the profile is nonzero: a radial bump fills about
        # pi/4 of its box in d = 3
        profile = np.broadcast_to(xi(zeta), zeta.shape[:1])
        on = profile != 0.0
        zeta = zeta[on]
        return np.sum(profile[on] * np.exp(1j * (zeta @ y))
                      * airy_reduction(x, zeta, lam) * w.ravel()[on])

    value, _ = converge(one_pass, lambda n: [panels(n * k) for k in tiles],
                        tol, "oscillatory", "free_eigenfunction")
    return complex((2.0 * math.pi) ** (-(d + 1) / 2.0) * value)


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
