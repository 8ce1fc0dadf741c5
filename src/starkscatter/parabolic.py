"""Parabolic coordinates, the phase f^3/3 and the exact eikonal phase.

Coordinates are (f, g) with f = sqrt(mollify(r + x)) and g = y / f.  In the
identity regime r + x > 2 they satisfy f^2 + g^2 = 2r, f^2 - g^2 = 2x and
f |g| = |y|.  The exact phase solves the eikonal equation
|grad|^2 / 2 = x and is defined for x > 0, x^2 > y^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Relative margin below which x^2 - y^2 counts as caustic.
_CAUSTIC_MARGIN = 1e-12


@dataclass(frozen=True)
class ParabolicPoint:
    """f of shape S and g of shape S + (d - 1,); S is () for one point."""

    f: float | np.ndarray
    g: np.ndarray

    @property
    def d(self) -> int:
        return 1 + self.g.shape[-1]


@dataclass(frozen=True)
class PhaseData:
    """Value, gradient, Hessian and Laplacian of a phase function."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    laplacian: float


def _scalar_or_array(a):
    return float(a) if np.ndim(a) == 0 else a


def mollifier(t):
    """Smooth convex interpolation: 1 below 1/2, identity above 3/2.

    The blend is the integral of a quintic smoothstep, which makes the
    function C^2 and convex; its values inside the blend interval are an
    implementation detail no identity depends on.  t may be an array.
    """
    t = np.asarray(t, dtype=float)
    v, v2 = _blend_variable(t)
    return _scalar_or_array(
        np.where(t >= 1.5, t, 1.0 + v2 * v2 * (2.5 - 3.0 * v + v2)))


def mollifier_deriv(t):
    v, v2 = _blend_variable(np.asarray(t, dtype=float))
    # quintic smoothstep: 0 at v = 0, 1 at v = 1
    return _scalar_or_array(v * v2 * (10.0 - 15.0 * v + 6.0 * v2))


def _blend_variable(t):
    """v = t - 1/2 clipped to [0, 1], and v^2.

    Powers are products: numpy's vectorised power can differ in the last
    bit from its one-element loop, and batched rows must equal scalar calls.
    """
    v = np.clip(t, 0.5, 1.5) - 0.5
    return v, v * v


def _radius(x, y):
    """r = |(x, y)| for x of shape S and y of shape S + (d - 1,)."""
    return np.hypot(x, np.linalg.norm(y, axis=-1))


def to_parabolic(x, y) -> ParabolicPoint:
    """Map (x, y) to the mollified parabolic coordinates (f, g).

    x may be an array of shape (n,) with y of shape (n, d - 1); f is then an
    array of shape (n,) and g of shape (n, d - 1).
    """
    y = np.asarray(y, dtype=float)
    f = np.sqrt(mollifier(_radius(x, y) + x))
    return ParabolicPoint(f=_scalar_or_array(f), g=y / np.expand_dims(f, -1))


def _require_identity_regime(x, y):
    r = _radius(x, y)
    if np.any(r + x <= 2.0):
        raise DomainError("r + x <= 2: outside the parabolic identity regime")
    return r


def _identity_frame(x, y):
    """(y, d, r, f = sqrt(r + x)) in the identity regime, batches allowed.

    x has shape S and y shape S + (d - 1,); there r + x > 2, so the
    mollifier is the identity and f^2 = r + x exactly.
    """
    y = np.asarray(y, dtype=float)
    r = _require_identity_regime(x, y)
    return y, 1 + y.shape[-1], r, np.sqrt(r + x)


def grad_f(x, y) -> np.ndarray:
    """Gradient of f = sqrt(mollify(r + x)) in (x, y), batched like
    to_parabolic: shape S + (d,)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = _radius(x, y)
    fp = mollifier_deriv(r + x)
    two_f = 2.0 * np.sqrt(mollifier(r + x))
    # fp = 0 wherever r + x <= 1/2, the origin included, where r is 0
    r = np.where(r > 0.0, r, 1.0)
    gx = fp * (x / r + 1.0) / two_f
    gy = (np.expand_dims(fp, -1) * (y / np.expand_dims(r, -1))
          / np.expand_dims(two_f, -1))
    return np.concatenate([np.expand_dims(gx, -1), gy], axis=-1)


def grad_g(x: float, y) -> np.ndarray:
    """Jacobian of g = y / f: rows are components g_i, columns (x, y)."""
    y = np.asarray(y, dtype=float)
    f = to_parabolic(x, y).f
    gf = grad_f(x, y)
    n = y.size
    out = np.zeros((n, 1 + n))
    for i in range(n):
        out[i, :] = -y[i] / f ** 2 * gf
        out[i, 1 + i] += 1.0 / f
    return out


def jacobian_det(x, y):
    """|det| of the coordinate change (x, y) -> (f, g): f^{2-d}/(f^2+g^2).

    x may be an array of shape (n,) with y of shape (n, d - 1).
    """
    y, d, _, f = _identity_frame(x, y)
    g = y / f[..., None]
    return _scalar_or_array(f ** (2 - d) / (f * f + np.sum(g * g, axis=-1)))


def theta_laplacian(x, y):
    """Laplacian d f / (2 r) of f^3/3, batched like jacobian_det."""
    _, d, r, f = _identity_frame(x, y)
    return _scalar_or_array(0.5 * d * f / r)


def theta_calculus(x: float, y) -> PhaseData:
    """Value, gradient, Hessian and Laplacian of f^3/3 (identity regime)."""
    y, d, r, f = _identity_frame(x, y)

    value = f ** 3 / 3.0
    grad = np.empty(d)
    grad[0] = f ** 3 / (2.0 * r)
    grad[1:] = f * y / (2.0 * r)

    hess = np.empty((d, d))
    hess[0, 0] = -0.5 * x * f ** 3 / r ** 3 + 0.75 * f ** 3 / r ** 2
    mixed = -0.5 * y * f ** 3 / r ** 3 + 0.75 * y * f / r ** 2
    hess[0, 1:] = mixed
    hess[1:, 0] = mixed
    yy = np.outer(y, y)
    hess[1:, 1:] = (-0.5 * yy * f / r ** 3 + 0.25 * yy / (r ** 2 * f)
                    + 0.5 * f / r * np.eye(d - 1))
    return PhaseData(value=value, gradient=grad, hessian=hess,
                     laplacian=theta_laplacian(x, y))


def _eikonal_domain(x, y: np.ndarray):
    with np.errstate(over="ignore"):
        x_sq, y_sq = x * x, np.sum(y * y, axis=-1)
    if not np.all(np.isfinite(x_sq)):
        raise DomainError("x^2 overflows or is not finite: the eikonal phase "
                          "needs finite |x| below about 1.3e154")
    disc = x_sq - y_sq
    if np.any((x <= 0.0) | (disc <= _CAUSTIC_MARGIN * x * x)):
        raise DomainError("caustic region: requires x > 0 and x^2 > y^2")
    return np.sqrt(disc)


def theta1_calculus(x: float, y) -> PhaseData:
    """The exact eikonal phase with gradient and Hessian in closed form."""
    y = np.asarray(y, dtype=float)
    d = 1 + y.size
    w = _eikonal_domain(x, y)          # (x^2 - y^2)^{1/2}
    sp = np.sqrt(x + w)                # sqrt(x + w)
    sm = np.sqrt(max(x - w, 0.0))      # sqrt(x - w)

    value = (4.0 / 3.0) * sp * (x - 0.5 * w)
    grad = np.empty(d)
    grad[0] = sp
    grad[1:] = sp * y / (x + w)

    hess = np.empty((d, d))
    hess[0, 0] = 0.5 * sp / w
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        # axial limit: Hessian is sqrt(2x)/(2x) times the identity
        hess[:, :] = np.eye(d) * (0.5 * sp / w)
    else:
        yhat = y / ynorm
        mixed = -0.5 * yhat * sm / w
        hess[0, 1:] = mixed
        hess[1:, 0] = mixed
        proj = np.outer(yhat, yhat)
        hess[1:, 1:] = (0.5 * proj * sp / w
                        + sm / ynorm * (np.eye(d - 1) - proj))
    return PhaseData(value=value, gradient=grad, hessian=hess,
                     laplacian=float(np.trace(hess)))


def theta1_value(x: float, y) -> float:
    y = np.asarray(y, dtype=float)
    w = _eikonal_domain(x, y)
    return (4.0 / 3.0) * np.sqrt(x + w) * (x - 0.5 * w)


def theta1_minus_theta(x: float, y) -> float:
    """Difference between the exact phase and f^3/3; of order f^3 |y/x|^4."""
    y = np.asarray(y, dtype=float)
    return theta1_value(x, y) - theta_calculus(x, y).value


def eikonal_residual(x, y):
    """|grad|^2 / 2 - x for the exact phase; zero up to rounding.

    Evaluated in extended precision so the cancellation between |grad|^2 / 2
    and x does not swamp the residual at large x.  x may be an array of
    shape (n,) with y of shape (n, d - 1).
    """
    y = np.asarray(y, dtype=float)
    _eikonal_domain(x, y)
    xl = np.asarray(x, dtype=np.longdouble)
    yl = y.astype(np.longdouble)
    y_sq = np.sum(yl * yl, axis=-1)
    w = np.sqrt(xl * xl - y_sq)
    # |grad|^2 = (x + w) + y^2 / (x + w) for the closed-form gradient
    grad_sq = (xl + w) + y_sq / (xl + w)
    return _scalar_or_array((0.5 * grad_sq - xl).astype(float))
