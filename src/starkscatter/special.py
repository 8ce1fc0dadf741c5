"""Gamma and Airy functions plus the closed-form kernel constants.

The gamma function uses a Lanczos rational approximation (g = 7, 9 terms)
with reflection for arguments below 1/2.  The Airy function combines the
Maclaurin series on a central interval with the standard asymptotic
expansions beyond; the crossover is placed where both branches deliver the
target absolute accuracy of 1e-10 in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Lanczos coefficients, g = 7.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _sin_pi(x: float) -> float:
    """sin(pi * x) with argument reduction done on x, not on pi * x."""
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r) if r <= 0.5 else math.sin(math.pi * (1.0 - r))
    return s if n % 2 == 0 else -s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at x = {x}")
    if x < 0.5:
        # reflection formula
        return math.pi / (_sin_pi(x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc


# Series / asymptotics crossover for the Airy function.  Below the series
# suffers no harmful cancellation in double precision; above the divergent
# expansions reach ~1e-12 relative accuracy at optimal truncation.
_AIRY_CROSSOVER = 6.5
_AIRY_SERIES_MAX_TERMS = 200

# Ai(0) and -Ai'(0)
_AI0 = 3.0 ** (-2.0 / 3.0) / gamma_fn(2.0 / 3.0)
_AIP0 = 3.0 ** (-1.0 / 3.0) / gamma_fn(1.0 / 3.0)


def _airy_series(u: float) -> float:
    """Maclaurin series Ai(u) = Ai(0) f(u) + Ai'(0) g(u)."""
    u3 = u * u * u
    f_term = 1.0
    f_sum = 1.0
    g_term = u
    g_sum = u
    for k in range(1, _AIRY_SERIES_MAX_TERMS):
        f_term *= u3 / ((3 * k) * (3 * k - 1))
        g_term *= u3 / ((3 * k + 1) * (3 * k))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) < 1e-18 * abs(f_sum) and abs(g_term) < 1e-18 * max(abs(g_sum), 1e-300):
            break
    return _AI0 * f_sum - _AIP0 * g_sum


def _airy_asym_coeffs(zeta: float, nmax: int = 40):
    """Terms u_k / zeta^k of the asymptotic series, stopped at the least term."""
    terms = [1.0]
    c = 1.0
    prev = 1.0
    for k in range(1, nmax):
        c *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        t = c / zeta ** k
        if abs(t) >= abs(prev):
            break
        terms.append(t)
        prev = t
    return terms


def _airy_asym_pos(u: float) -> float:
    zeta = (2.0 / 3.0) * u ** 1.5
    terms = _airy_asym_coeffs(zeta)
    s = 0.0
    for k, t in enumerate(terms):
        s += t if k % 2 == 0 else -t
    return math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * u ** 0.25) * s


def _airy_asym_neg(u: float) -> float:
    v = -u
    zeta = (2.0 / 3.0) * v ** 1.5
    terms = _airy_asym_coeffs(zeta)
    s_cos = 0.0
    s_sin = 0.0
    for k, t in enumerate(terms):
        sign = 1.0 if (k // 2) % 2 == 0 else -1.0
        if k % 2 == 0:
            s_cos += sign * t
        else:
            s_sin += sign * t
    phase = zeta - 0.25 * math.pi
    return (math.cos(phase) * s_cos + math.sin(phase) * s_sin) / (
        math.sqrt(math.pi) * v ** 0.25)


def airy_ai(u: float) -> float:
    """Airy function Ai(u), absolute accuracy 1e-10 on [-20, 20] and beyond."""
    u = float(u)
    if not math.isfinite(u):
        raise DomainError("airy_ai requires a finite argument")
    if abs(u) <= _AIRY_CROSSOVER:
        return _airy_series(u)
    if u > 0:
        return _airy_asym_pos(u)
    return _airy_asym_neg(u)


def c1_constant(alpha: float) -> float:
    """2^{-3/2} Gamma(1/4) Gamma(alpha/2 - 1/4) / Gamma(alpha/2).

    Closed form of 2^{-3/2} * integral_0^inf (t+1)^{-alpha/2} t^{-3/4} dt,
    convergent for alpha > 1/2.
    """
    if alpha <= 0.5:
        raise DomainError("c1 requires alpha > 1/2")
    return (2.0 ** -1.5 * gamma_fn(0.25) * gamma_fn(alpha / 2.0 - 0.25)
            / gamma_fn(alpha / 2.0))


def _check_c2_domain(d: int, alpha: float) -> None:
    if d < 2:
        raise DomainError("dimension must be at least 2")
    if not (0.5 < alpha < d - 0.5):
        raise DomainError("c2 requires 1/2 < alpha < d - 1/2")


def c2_constant(d: int, alpha: float) -> complex:
    """-i (2 pi)^{(1-d)/2} 2^{(d-1)/2-alpha} G(1/4) G(d/2-1/4-a/2) / G(a/2)."""
    _check_c2_domain(d, alpha)
    mag = ((2.0 * math.pi) ** ((1 - d) / 2.0)
           * 2.0 ** ((d - 1) / 2.0 - alpha)
           * gamma_fn(0.25) * gamma_fn(d / 2.0 - 0.25 - alpha / 2.0)
           / gamma_fn(alpha / 2.0))
    return -1j * mag


def c2_constant_from_c1(d: int, alpha: float) -> complex:
    """Same constant assembled from c1 and the transverse Fourier pair.

    Kept separate so the two routes can be compared against each other.
    """
    _check_c2_domain(d, alpha)
    return (c1_constant(alpha) * (2.0 * math.pi) ** (1 - d) * (-2j)
            * (2.0 * math.pi) ** ((d - 1) / 2.0) * 2.0 ** (d / 2.0 - alpha)
            * gamma_fn((d - 0.5 - alpha) / 2.0)
            / gamma_fn((alpha - 0.5) / 2.0))


@dataclass(frozen=True)
class KernelLaw:
    """Diagonal power-law singularity prefactor * |zeta - zeta'|^exponent."""

    prefactor: complex
    exponent: float
