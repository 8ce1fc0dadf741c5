"""Parabolic coordinates, the phase f^3/3 and the exact eikonal phase.

Coordinates are (f, g) with f = sqrt(mollify(r + x)) and g = y / f.  In the
identity regime r + x > 2 they satisfy f^2 + g^2 = 2r, f^2 - g^2 = 2x and
f |g| = |y|.  The exact phase solves the eikonal equation
|grad|^2 / 2 = x and is defined for x > 0, x^2 > y^2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .potentials import norm_squared, r_squared

# Relative margin below which x^2 - y^2 counts as caustic.
_CAUSTIC_MARGIN = 1e-12
# x^2 above this leaves the float range
_FLOAT_MAX = np.finfo(float).max


class ParabolicPoint(NamedTuple):
    """f of shape S and g of shape S + (d - 1,); S is () for one point."""

    f: float | np.ndarray
    g: np.ndarray

    @property
    def d(self) -> int:
        return 1 + self.g.shape[-1]


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
    """r = |(x, y)| for x of shape S and y of shape S + (d - 1,), with |y|
    from the columns of y (np.linalg.norm's value, bitwise)."""
    return np.hypot(x, np.sqrt(norm_squared(y)))


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


def jacobian_det(x, y):
    """|det| of the coordinate change (x, y) -> (f, g): f^{2-d}/(f^2+g^2).

    x may be an array of shape (n,) with y of shape (n, d - 1).
    """
    y, d, _, f = _identity_frame(x, y)
    g = y / f[..., None]
    return _scalar_or_array(f ** (2 - d) / r_squared(f, g))


def theta_laplacian(x, y):
    """Laplacian d f / (2 r) of f^3/3, batched like jacobian_det."""
    _, d, r, f = _identity_frame(x, y)
    return _scalar_or_array(0.5 * d * f / r)


def exact_phase(x, y):
    """The exact eikonal phase theta1 and its gradient, in long double.

    theta1 = (4/3) sqrt(x + w) (x - w/2) with w = (x^2 - y^2)^{1/2}, and
    grad theta1 = sqrt(x + w) (1, y / (x + w)).  x has shape S and y shape
    S + (d - 1,); returns theta1 (S) and the gradient (S + (d,)) as long
    double arrays.  DomainError unless every point has finite x^2 (|x|
    below about 1.3e154) and lies off the caustic, x > 0 and x^2 > y^2.
    """
    x, w, sp, grad = _phase_parts(x, y)
    return (4.0 / 3.0) * sp * (x - 0.5 * w), grad


def _phase_parts(x, y):
    """x, w, sqrt(x + w) and grad theta1 of exact_phase, in long double."""
    x = np.asarray(x, dtype=np.longdouble)
    # y and the gradient are held column by column, the short last axis
    # first, so that every operation runs over the batch
    y = np.array(np.rollaxis(np.asarray(y), -1), dtype=np.longdouble)
    x_sq = x * x
    disc = x_sq - norm_squared(np.rollaxis(y, 0, y.ndim))
    finite = x_sq <= _FLOAT_MAX
    if not (finite & (x > 0.0) & (disc > _CAUSTIC_MARGIN * x_sq)).all():
        if not finite.all():
            raise DomainError("x^2 overflows or is not finite: the eikonal "
                              "phase needs finite |x| below about 1.3e154")
        raise DomainError("caustic region: requires x > 0 and x^2 > y^2")
    w = np.sqrt(disc)
    x_w = x + w
    sp = np.sqrt(x_w)
    grad = np.empty((1 + len(y),) + sp.shape, np.longdouble)
    grad[0] = sp
    np.multiply(sp, y, out=grad[1:])
    grad[1:] /= x_w
    return x, w, sp, np.rollaxis(grad, 0, grad.ndim)


def eikonal_residual(x, y):
    """|grad|^2 / 2 - x for exact_phase's gradient; zero up to rounding.

    Evaluated in extended precision so the cancellation between |grad|^2 / 2
    and x does not swamp the residual at large x.  x may be an array of
    shape (n,) with y of shape (n, d - 1).
    """
    x, _, _, grad = _phase_parts(x, y)
    return _scalar_or_array((0.5 * norm_squared(grad) - x).astype(float))
