"""The Airy function and the closed-form kernel constants.

Ai comes from scipy.special.airy and Gamma from math.gamma.  Both are
checked against 30-digit mpmath references in the tests: Ai to 1e-12
relative on [0, 15] and 1e-13 absolute on [-15, 15], c1 and c2 to 1e-14
relative.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import DomainError


def airy_ai(u):
    """Airy function Ai(u) of a float (returns a float) or of an array."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("airy_ai requires a finite argument")
    ai = scipy.special.airy(u)[0]
    return float(ai) if ai.ndim == 0 else ai


@contextmanager
def _representable(constant: str):
    """Turn a Gamma or power overflow into a DomainError naming the constant."""
    try:
        yield
    except OverflowError:
        raise DomainError(f"{constant} overflows double precision") from None


def c1_constant(alpha: float) -> float:
    """2^{-3/2} Gamma(1/4) Gamma(alpha/2 - 1/4) / Gamma(alpha/2).

    Closed form of 2^{-3/2} * integral_0^inf (t+1)^{-alpha/2} t^{-3/4} dt,
    convergent for alpha > 1/2.
    """
    if alpha <= 0.5:
        raise DomainError("c1 requires alpha > 1/2")
    with _representable(f"c1 at alpha = {alpha}"):
        return (2.0 ** -1.5 * math.gamma(0.25) * math.gamma(alpha / 2.0 - 0.25)
                / math.gamma(alpha / 2.0))


def _check_c2_domain(d: int, alpha: float) -> None:
    if d < 2:
        raise DomainError("dimension must be at least 2")
    if not (0.5 < alpha < d - 0.5):
        raise DomainError("c2 requires 1/2 < alpha < d - 1/2")


def c2_constant(d: int, alpha: float) -> complex:
    """-i (2 pi)^{(1-d)/2} 2^{(d-1)/2-alpha} G(1/4) G(d/2-1/4-a/2) / G(a/2)."""
    _check_c2_domain(d, alpha)
    with _representable(f"c2 at d = {d}, alpha = {alpha}"):
        mag = ((2.0 * math.pi) ** ((1 - d) / 2.0)
               * 2.0 ** ((d - 1) / 2.0 - alpha)
               * math.gamma(0.25) * math.gamma(d / 2.0 - 0.25 - alpha / 2.0)
               / math.gamma(alpha / 2.0))
    return -1j * mag


def c2_constant_from_c1(d: int, alpha: float) -> complex:
    """Same constant assembled from c1 and the transverse Fourier pair.

    Kept separate so the two routes can be compared against each other.
    """
    _check_c2_domain(d, alpha)
    with _representable(f"c2 at d = {d}, alpha = {alpha}"):
        return (c1_constant(alpha) * (2.0 * math.pi) ** (1 - d) * (-2j)
                * (2.0 * math.pi) ** ((d - 1) / 2.0) * 2.0 ** (d / 2.0 - alpha)
                * math.gamma((d - 0.5 - alpha) / 2.0)
                / math.gamma((alpha - 0.5) / 2.0))


@dataclass(frozen=True)
class KernelLaw:
    """Diagonal power-law singularity prefactor * |zeta - zeta'|^exponent."""

    prefactor: complex
    exponent: float
