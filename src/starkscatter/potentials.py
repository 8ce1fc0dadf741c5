"""Short-range Stark potentials and their gradients.

Admissible potentials decay like r^{-alpha} with alpha > 1/2, the paper's
r^{-(1+2 delta)/2} at delta = min(alpha - 1/2, 1/2); the Coulomb potential
(alpha = 1) is the canonical slowly decaying member of the class.
Evaluation is split into the field direction x and the orthogonal block y,
matching the phase-space splitting used everywhere else in the library.

There are two kinds: the homogeneous kappa r^{-alpha} (Coulomb at alpha =
1) and a table potential given by a callable.  The free case q = 0 is the
homogeneous kind at kappa = 0, and goes through the same arithmetic.

Every kind is evaluated on arrays: x of shape S and y of shape S' + (d - 1,),
with S and S' broadcasting, give q at the broadcast shape.  A table
potential's callable follows the same contract, so a batch of nodes is one
call of it; eval_potential is the one-point case of force_rows, with its
checks.

The force law -grad q is written here once: force_rows evaluates it on
rows, checked, with the DomainError of a point outside the potential's
domain, and classical integrates orbits on it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Finite-difference step scale for table-defined gradients.
_FD_STEP = 1e-6
# The relative rounding error of those central differences: the shifted
# points round by half an ulp of z and func's two values by about as much
# of q, each about epsilon / (2 _FD_STEP) of the force where |q| is at
# most |grad q| max(1, r), as for r^-alpha tails.
FD_FORCE_ERROR = np.finfo(float).eps / _FD_STEP
# Points with r at most this are rejected where the softening is 0.
EXCLUSION_RADIUS = 1e-8


@dataclass(frozen=True)
class PotentialSpec:
    """Descriptor of the short-range potential q.

    kind       "homogeneous" or "table"
    kappa      coupling constant (homogeneous kind; 0 for the free case)
    alpha      decay exponent, q = O(r^-alpha), above 1/2: the homogeneity
               exponent of the homogeneous kind (1 for Coulomb), a declared
               bound for the table kind
    softening  regularization length near the origin (dynamics only)
    func       callable q(x, y) for the table kind, on arrays: x of shape S,
               y of shape S' + (d - 1,), q at the broadcast shape of S, S'
    """

    kind: str = "homogeneous"
    kappa: float = 0.0
    alpha: float = 1.0
    softening: float = 1e-3
    func: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("homogeneous", "table"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.alpha <= 0.5:
            raise DomainError("decay exponent alpha must exceed 1/2")
        if self.softening < 0.0:
            raise DomainError("softening must be nonnegative")
        if self.kind == "table" and self.func is None:
            raise DomainError("table kind requires a callable")

    def unsoftened(self) -> "PotentialSpec":
        """Copy with softening removed (exact power law, kernel formulas)."""
        return dataclasses.replace(self, softening=0.0)


def zero_potential() -> PotentialSpec:
    """The free case q = 0: the homogeneous kind at kappa = 0."""
    return homogeneous(0.0, 1.0)


def coulomb(kappa: float, softening: float = 1e-3) -> PotentialSpec:
    """Coulomb potential kappa / r: the homogeneous kind at alpha = 1."""
    return homogeneous(kappa, 1.0, softening=softening)


def homogeneous(kappa: float, alpha: float,
                softening: float = 1e-3) -> PotentialSpec:
    """Homogeneous potential kappa * r^(-alpha)."""
    return PotentialSpec(kind="homogeneous", kappa=kappa, alpha=alpha,
                         softening=softening)


def _check_ball(spec: PotentialSpec, r2) -> None:
    if spec.softening == 0.0 and np.any(r2 <= EXCLUSION_RADIUS ** 2):
        raise DomainError(
            "evaluation inside the origin exclusion ball with zero softening")


def _check_r2(spec: PotentialSpec, r2) -> None:
    """DomainError where r^2 is not finite, at a non-finite point or where
    it overflows, or inside the exclusion ball."""
    if not np.isfinite(r2).all():
        raise DomainError("potential evaluated at a non-finite point")
    _check_ball(spec, r2)


def _row(x: float, y) -> np.ndarray:
    """The point (x, y) as one row z of shape (1, d)."""
    return np.concatenate([[float(x)], np.asarray(y, dtype=float)])[None]


def norm_squared(y: np.ndarray):
    """|y|^2 over the last axis of y, squaring and adding the columns in
    order: np.sum(y * y, axis=-1) bitwise for fewer than 8 columns.  Each
    pass runs along the batch, also on a strided slice such as z[:, 1:d],
    where y * y would run numpy's inner loop over the short last axis."""
    if not y.shape[-1]:
        return np.zeros(y.shape[:-1], y.dtype)
    col = y[..., 0]
    y_sq = col * col
    for i in range(1, y.shape[-1]):
        col = y[..., i]
        y_sq = y_sq + col * col
    return y_sq


def r_squared(x, y: np.ndarray):
    """x^2 + |y|^2 for x of shape S and y of shape S' + (n,), at their
    broadcast shape."""
    return x * x + norm_squared(y)


def eval_potential(spec: PotentialSpec, x: float, y) -> float:
    """Potential energy q(x, y) at one point, with the checks of force_rows
    (the r^2 checks alone for the table kind)."""
    z = _row(x, y)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec.kind == "table":
            _check_r2(spec, r_squared(z[:, 0], z[:, 1:]))
        else:
            # DomainError where q or grad q is out of the double range
            force_rows(spec, z)
    return float(eval_potential_array(spec, z[:, 0], z[:, 1:])[0])


def force_rows(spec: PotentialSpec, z: np.ndarray, out=None) -> np.ndarray:
    """-grad q at the rows z (m, d), into out (m, d) or a new array.

    The homogeneous kind is the closed form f (x, y), with f = alpha kappa
    (r^2 + softening^2)^(-alpha/2 - 1), and one test: f has one sign and
    |f z_i| <= |f| max(1, r^2), so the sum f . r^2 is finite only where
    every f, r^2 and force component is, and is not finite where they are
    all finite only if the sum overflowed.
    Where the test fails, or with zero softening a row lies in the exclusion
    ball, the rows are checked: DomainError at a non-finite point, then in
    the exclusion ball, then where the force is not representable, and
    else the closed form is returned.  The table kind takes central
    differences with step _FD_STEP max(1, r), all 2 d m shifted points in
    one call of its func.  Floating-point warnings are left to the caller's
    np.errstate.
    """
    r2 = r_squared(z[:, 0], z[:, 1:])
    if spec.kind == "table":
        _check_r2(spec, r2)
        h = _FD_STEP * np.maximum(1.0, np.sqrt(r2))
        step = h[:, None, None] * np.eye(z.shape[1])            # (m, d, d)
        z = np.stack([z[:, None] + step, z[:, None] - step])    # (2, m, d, d)
        q = spec.func(z[..., 0], z[..., 1:])                    # (2, m, d)
        return np.divide(q[1] - q[0], 2 * h[:, None], out=out)
    f = spec.alpha * spec.kappa * (r2 + spec.softening ** 2) ** (
        -spec.alpha / 2.0 - 1.0)
    force = np.multiply(f[:, None], z, out=out)
    if math.isfinite(f.dot(r2)) and (spec.softening != 0.0 or (
            r2 > EXCLUSION_RADIUS ** 2).all()):
        return force
    _check_r2(spec, r2)
    bad = r2[~np.isfinite(force).all(axis=1)]
    if bad.size:
        raise DomainError(f"potential not representable at r^2 = {bad[0]:g} "
                          f"with softening {spec.softening:g}")
    return force


def eval_potential_array(spec: PotentialSpec, x, y):
    """q on arrays: x of shape S, y of shape S' + (d - 1,); q at the
    broadcast shape of S and S'."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = r_squared(x, y)
    _check_ball(spec, r2)
    if spec.kind == "table":
        return spec.func(x, y)
    return spec.kappa * (r2 + spec.softening ** 2) ** (-spec.alpha / 2.0)


def radial_jets(spec: PotentialSpec, x, y):
    """(q, grad q, Laplacian q, bi-Laplacian q) in closed form, vectorized.

    x has shape S, y shape S + (d - 1,) and grad q shape S + (d,).  With
    u = r^2 + softening^2, q = g(u) = kappa u^{-alpha/2} and g^(n+1) =
    c_n g^(n) / u, c_n = -alpha/2 - n: grad q = 2 g' (x, y), Laplacian q =
    2 d g' + 4 r^2 g'', and once more bi-Laplacian q = 4 d (d + 2) g'' +
    16 (d + 2) r^2 g''' + 16 r^4 g''''.  The table kind has no closed form:
    DomainError.
    """
    if spec.kind == "table":
        raise DomainError("closed-form jets need a radial potential kind")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = 1 + y.shape[-1]
    r2 = r_squared(x, y)
    _check_ball(spec, r2)
    u = r2 + spec.softening ** 2
    c = -spec.alpha / 2.0 - np.arange(4.0)
    q = spec.kappa * u ** (-spec.alpha / 2.0)
    g1 = c[0] * q / u
    g2 = c[1] * g1 / u
    # r^2 g^(n+1) = (r^2 / u) c_n g^(n), with the ratio in [0, 1]: far out on
    # a steep quadrature map r^2 overflows where g^(n) underflows, and
    # inf * 0 is nan; where u is inf the ratio is 1
    ratio = np.divide(r2, u, out=np.ones_like(u), where=np.isfinite(u))
    grad = 2.0 * g1[..., None] * np.concatenate([x[..., None], y], axis=-1)
    lap = g1 * (2.0 * d + 4.0 * c[1] * ratio)
    bilap = g2 * (4.0 * d * (d + 2) + 16.0 * (d + 2) * c[2] * ratio
                  + 16.0 * c[2] * c[3] * ratio * ratio)
    return q, grad, lap, bilap
