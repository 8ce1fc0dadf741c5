"""Short-range Stark potentials and their gradients.

Admissible potentials decay like r^{-(1+2*delta)/2} with delta in (0, 1/2];
the Coulomb potential (delta = 1/2) is the canonical slowly decaying member
of the class.  Evaluation is split into the field direction x and the
orthogonal block y, matching the phase-space splitting used everywhere else
in the library.

There are two kinds: the homogeneous kappa r^{-alpha} (Coulomb at alpha =
1) and a table potential given by a callable.  The free case q = 0 is the
homogeneous kind at kappa = 0, and goes through the same arithmetic.

Every kind is evaluated on arrays: x of shape S and y of shape S' + (d - 1,),
with S and S' broadcasting, give q at the broadcast shape.  A table
potential's callable follows the same contract, so a batch of nodes is one
call of it; eval_potential and grad_potential are the one-point case, with
the checks of the array functions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Finite-difference step scale for table-defined gradients.
_FD_STEP = 1e-6
# Points with r at most this are rejected where the softening is 0.
EXCLUSION_RADIUS = 1e-8


@dataclass(frozen=True)
class PotentialSpec:
    """Descriptor of the short-range potential q.

    kind       "homogeneous" or "table"
    kappa      coupling constant (homogeneous kind; 0 for the free case)
    alpha      homogeneity exponent (homogeneous kind; 1 for Coulomb)
    delta      decay parameter in (0, 1/2]
    softening  regularization length near the origin (dynamics only)
    func       callable q(x, y) for the table kind, on arrays: x of shape S,
               y of shape S' + (d - 1,), q at the broadcast shape of S, S'
    """

    kind: str = "homogeneous"
    kappa: float = 0.0
    alpha: float = 1.0
    delta: float = 0.5
    softening: float = 1e-3
    func: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("homogeneous", "table"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "homogeneous":
            if self.alpha <= 0.5:
                raise DomainError("homogeneous exponent must exceed 1/2")
        if not (0.0 < self.delta <= 0.5):
            raise DomainError("delta must lie in (0, 1/2]")
        if self.softening < 0.0:
            raise DomainError("softening must be nonnegative")
        if self.kind == "table" and self.func is None:
            raise DomainError("table kind requires a callable")

    @property
    def decay_rate(self) -> float:
        """a with q = O(r^-a): alpha, or the class bound 1/2 + delta for a
        table."""
        return 0.5 + self.delta if self.kind == "table" else self.alpha

    def unsoftened(self) -> "PotentialSpec":
        """Copy with softening removed (exact power law, kernel formulas)."""
        return dataclasses.replace(self, softening=0.0)


def zero_potential() -> PotentialSpec:
    """The free case q = 0: the homogeneous kind at kappa = 0."""
    return homogeneous(0.0, 1.0)


def coulomb(kappa: float, softening: float = 1e-3) -> PotentialSpec:
    """Coulomb potential kappa / r: the homogeneous kind at alpha = 1."""
    return homogeneous(kappa, 1.0, softening=softening)


def homogeneous(kappa: float, alpha: float, delta: Optional[float] = None,
                softening: float = 1e-3) -> PotentialSpec:
    """Homogeneous potential kappa * r^(-alpha).

    The decay parameter defaults to min(alpha - 1/2, 1/2), the largest value
    consistent with both the decay condition and the admissible range.
    """
    if delta is None:
        delta = min(alpha - 0.5, 0.5)
    return PotentialSpec(kind="homogeneous", kappa=kappa, alpha=alpha,
                         delta=delta, softening=softening)


def _check_ball(spec: PotentialSpec, r2) -> None:
    if spec.softening == 0.0 and np.any(r2 <= EXCLUSION_RADIUS ** 2):
        raise DomainError(
            "evaluation inside the origin exclusion ball with zero softening")


def _check_rows(spec: PotentialSpec, x, y) -> np.ndarray:
    """r^2 of the rows x (m,), y (m, d - 1); DomainError at a non-finite
    point, where r^2 overflows too, or inside the exclusion ball."""
    with np.errstate(over="ignore"):
        r2 = x * x + np.sum(y * y, axis=-1)
    if not np.isfinite(r2).all():
        raise DomainError("potential evaluated at a non-finite point")
    _check_ball(spec, r2)
    return r2


def eval_potential(spec: PotentialSpec, x: float, y) -> float:
    """Potential energy q(x, y) at one point, with the checks of
    grad_potential_array (the row checks alone for the table kind)."""
    x = np.array([float(x)])
    y = np.asarray(y, dtype=float)[None]
    if spec.kind == "table":
        _check_rows(spec, x, y)
    else:
        # DomainError where q or grad q is out of the double range
        grad_potential_array(spec, x, y)
    return float(eval_potential_array(spec, x, y)[0])


def grad_potential(spec: PotentialSpec, x: float, y) -> np.ndarray:
    """Gradient (d_x q, grad_y q) as a vector of length d."""
    y = np.asarray(y, dtype=float)
    return grad_potential_array(spec, [float(x)], y[None])[0]


def grad_potential_array(spec: PotentialSpec, x, y) -> np.ndarray:
    """Gradient on rows: x of shape (m,), y (m, d - 1); result (m, d).

    The homogeneous kind uses the closed form, with DomainError where it is
    out of the double range; the table kind takes central differences with
    step _FD_STEP max(1, r), all 2 d m shifted points in one call of its
    func.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = _check_rows(spec, x, y)
    z = np.concatenate([x[:, None], y], axis=1)
    if spec.kind == "table":
        h = _FD_STEP * np.maximum(1.0, np.sqrt(r2))
        step = h[:, None, None] * np.eye(z.shape[1])            # (m, d, d)
        z = np.stack([z[:, None] + step, z[:, None] - step])    # (2, m, d, d)
        q = spec.func(z[..., 0], z[..., 1:])                    # (2, m, d)
        return (q[0] - q[1]) / (2 * h[:, None])
    s = r2 + spec.softening ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pref = -spec.alpha * spec.kappa * s ** (-spec.alpha / 2.0 - 1.0)
        if not np.isfinite(pref).all():
            bad = float(r2[~np.isfinite(pref)][0])
            raise DomainError(f"potential not representable at r^2 = {bad:g} "
                              f"with softening {spec.softening:g}")
        return pref[:, None] * z


def eval_potential_array(spec: PotentialSpec, x, y):
    """q on arrays: x of shape S, y of shape S' + (d - 1,); q at the
    broadcast shape of S and S'."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = x * x + np.sum(y * y, axis=-1)
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
    r2 = x * x + np.sum(y * y, axis=-1)
    u = r2 + spec.softening ** 2
    c = -spec.alpha / 2.0 - np.arange(4.0)
    q = eval_potential_array(spec, x, y)
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
