"""Short-range Stark potentials and their gradients.

Admissible potentials decay like r^{-(1+2*delta)/2} with delta in (0, 1/2];
the Coulomb potential (delta = 1/2) is the canonical slowly decaying member
of the class.  Evaluation is split into the field direction x and the
orthogonal block y, matching the phase-space splitting used everywhere else
in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

# Finite-difference step scale for table-defined gradients.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    """Descriptor of the short-range potential q.

    kind       one of "zero", "homogeneous", "coulomb", "table"
    kappa      coupling constant
    alpha      homogeneity exponent (homogeneous kind; coulomb fixes 1)
    delta      decay parameter in (0, 1/2]
    softening  regularization length near the origin (dynamics only)
    func       callable q(x, y) for the table kind
    exclusion_radius  points with r below this and softening == 0 are rejected
    """

    kind: str = "zero"
    kappa: float = 0.0
    alpha: float = 1.0
    delta: float = 0.5
    softening: float = 1e-3
    func: Optional[Callable[[float, np.ndarray], float]] = None
    exclusion_radius: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("zero", "homogeneous", "coulomb", "table"):
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind == "coulomb":
            object.__setattr__(self, "alpha", 1.0)
            object.__setattr__(self, "delta", 0.5)
        if self.kind == "homogeneous":
            if self.alpha <= 0.5:
                raise DomainError("homogeneous exponent must exceed 1/2")
        if not (0.0 < self.delta <= 0.5):
            raise DomainError("delta must lie in (0, 1/2]")
        if self.softening < 0.0:
            raise DomainError("softening must be nonnegative")
        if self.kind == "table" and self.func is None:
            raise DomainError("table kind requires a callable")

    def unsoftened(self) -> "PotentialSpec":
        """Copy with softening removed (exact power law, kernel formulas)."""
        return PotentialSpec(
            kind=self.kind, kappa=self.kappa, alpha=self.alpha,
            delta=self.delta, softening=0.0, func=self.func,
            exclusion_radius=self.exclusion_radius,
        )


def zero_potential() -> PotentialSpec:
    return PotentialSpec(kind="zero", kappa=0.0)


def coulomb(kappa: float, softening: float = 1e-3) -> PotentialSpec:
    return PotentialSpec(kind="coulomb", kappa=kappa, softening=softening)


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


def _radius_sq(x, y):
    # a plain sum, as in radial_jets and the orbit rhs (BLAS dots round apart)
    y = np.asarray(y, dtype=float)
    return float(x) * float(x) + float(np.sum(y * y))


def _check_radius_sq(spec: PotentialSpec, r2: float) -> float:
    if not math.isfinite(r2):
        raise DomainError("potential evaluated at a non-finite point")
    if spec.softening == 0.0 and r2 <= spec.exclusion_radius ** 2:
        raise DomainError(
            "evaluation inside the origin exclusion ball with zero softening")
    return r2


def _radial_grad_prefactor(spec: PotentialSpec, r2: float) -> float:
    """Scalar c with grad q = c (x, y) for the radial kinds, r2 = x^2 + |y|^2.

    The point checks of eval_potential run first; then
    c = -alpha kappa (r^2 + softening^2)^(-alpha/2 - 1).
    """
    s = _check_radius_sq(spec, r2) + spec.softening ** 2
    return -spec.alpha * spec.kappa * s ** (-spec.alpha / 2.0 - 1.0)


def eval_potential(spec: PotentialSpec, x: float, y) -> float:
    """Potential energy q(x, y)."""
    if spec.kind == "zero":
        return 0.0
    y = np.asarray(y, dtype=float)
    _check_radius_sq(spec, _radius_sq(x, y))
    if spec.kind in ("homogeneous", "coulomb"):
        # a one-point batch, since numpy's SIMD power and Python's ** can
        # differ in the last bit
        return float(eval_potential_array(spec, [float(x)],
                                          [np.sum(y * y)])[0])
    return float(spec.func(float(x), y))


def grad_potential(spec: PotentialSpec, x: float, y) -> np.ndarray:
    """Gradient (d_x q, grad_y q) as a vector of length d."""
    y = np.asarray(y, dtype=float)
    d = 1 + y.size
    if spec.kind == "zero":
        return np.zeros(d)
    r2 = _radius_sq(x, y)
    if spec.kind in ("homogeneous", "coulomb"):
        pref = _radial_grad_prefactor(spec, r2)
        out = np.empty(d)
        out[0] = pref * x
        out[1:] = pref * y
        return out
    # table kind: central differences, step scaled with distance
    _check_radius_sq(spec, r2)
    h = _FD_STEP * max(1.0, np.sqrt(r2))
    out = np.empty(d)
    out[0] = (eval_potential(spec, x + h, y)
              - eval_potential(spec, x - h, y)) / (2 * h)
    for i in range(y.size):
        e = np.zeros_like(y)
        e[i] = h
        out[1 + i] = (eval_potential(spec, x, y + e)
                      - eval_potential(spec, x, y - e)) / (2 * h)
    return out


def eval_potential_array(spec: PotentialSpec, x, y_sq):
    """Vectorized q on arrays of x and |y|^2; the table kind is rejected."""
    x = np.asarray(x, dtype=float)
    y_sq = np.asarray(y_sq, dtype=float)
    if spec.kind == "zero":
        return np.zeros(np.broadcast(x, y_sq).shape)
    if spec.kind in ("homogeneous", "coulomb"):
        r2 = x * x + y_sq + spec.softening ** 2
        if spec.softening == 0.0 and np.any(r2 <= spec.exclusion_radius ** 2):
            raise DomainError(
                "evaluation inside the origin exclusion ball with zero softening")
        return spec.kappa * r2 ** (-spec.alpha / 2.0)
    raise DomainError("vectorized evaluation requires a built-in kind")


def radial_jets(spec: PotentialSpec, x, y):
    """(q, grad q, Laplacian q, bi-Laplacian q) in closed form, vectorized.

    x has shape S, y shape S + (d - 1,) and grad q shape S + (d,).  With
    u = r^2 + softening^2 and q = g(u) = kappa u^{-alpha/2}: grad q =
    2 g' (x, y), Laplacian q = 2 d g' + 4 r^2 g'', and once more
    bi-Laplacian q = 4 d (d + 2) g'' + 16 (d + 2) r^2 g''' + 16 r^4 g''''.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = 1 + y.shape[-1]
    if spec.kind == "zero":
        zeros = np.zeros(x.shape)
        return zeros, np.zeros(x.shape + (d,)), zeros, zeros
    y_sq = np.sum(y * y, axis=-1)
    r2 = x * x + y_sq
    u = r2 + spec.softening ** 2
    # g^(n+1) = g^(n) (-alpha/2 - n) / u; the first call checks kind and point
    g = [eval_potential_array(spec, x, y_sq)]
    for n in range(4):
        g.append(g[-1] * (-spec.alpha / 2.0 - n) / u)
    grad = 2.0 * g[1][..., None] * np.concatenate([x[..., None], y], axis=-1)
    lap = 2.0 * d * g[1] + 4.0 * r2 * g[2]
    bilap = (4.0 * d * (d + 2) * g[2] + 16.0 * (d + 2) * r2 * g[3]
             + 16.0 * r2 * r2 * g[4])
    return g[0], grad, lap, bilap
