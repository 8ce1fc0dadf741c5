"""The Airy function, complex log-Gamma and the closed-form kernel constants.

Ai is computed in numpy.  On [-10, 10] it is a Taylor series of Ai'' = u Ai
about the nearest of the anchors spaced 0.25 apart.  The anchor values come
once, at import, from stepping that equation down from u = 10, the direction
in which Ai grows relative to Bi, so rounding errors do not grow.  Outside
the interval Ai is the asymptotic series of DLMF 9.7.5 and 9.7.9, whose
terms u_k follow the recurrence of DLMF 9.7.2.  `loggamma` is Stirling's
series for Re z > 0 (DLMF 5.11.1), after shifting |z| < 16 up by 16.  Gamma
of a real argument comes from math.gamma.  The tests check Ai against
30-digit mpmath references to 2e-14 absolute on [-30, 30] and 1e-13
relative on [0, 30], loggamma against mpmath.loggamma to 5e-14 of
max(1, |log Gamma|), and c1 and c2 to 1e-14 relative.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Taylor anchors -_TAYLOR_EDGE + j _ANCHOR_STEP; |u - anchor| <= 0.125, where
# _TAYLOR_TERMS terms leave a remainder of about (sqrt(10) 0.125)^14 / 14!
# = 3e-17 of the amplitude
_TAYLOR_EDGE = 10.0
_ANCHOR_STEP = 0.25
_TAYLOR_TERMS = 14
# terms of a step of _ANCHOR_STEP while the anchors are built
_STEP_TERMS = 24
# terms of the asymptotic series: at |u| = 10 (zeta = 21.1) the first term
# left out is 6e-17 of the sum
_ASYMPTOTIC_TERMS = 20
# below this the phase zeta = 2/3 |u|^{3/2} overflows
_MOST_NEGATIVE = -1e205


def _asymptotic_coefficients(n: int) -> np.ndarray:
    """u_0 .. u_{n-1} of DLMF 9.7.2."""
    u = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / ((2 * k - 1) * 216 * k))
    return np.array(u)


_U = _asymptotic_coefficients(_ASYMPTOTIC_TERMS)
# the series in (-1)^k / zeta^k of DLMF 9.7.5, and the even and odd parts of
# 9.7.9 as series in (-1)^k / zeta^{2k}, by rising powers
_SIGNED = _U * (-1.0) ** np.arange(_ASYMPTOTIC_TERMS)
_EVEN = _U[0::2] * (-1.0) ** np.arange(_U[0::2].size)
_ODD = _U[1::2] * (-1.0) ** np.arange(_U[1::2].size)


def _horner(coef, w):
    """sum_m coef[m] w^m, in place on one new array."""
    acc = np.full_like(w, coef[-1])
    for c in coef[-2::-1]:
        acc *= w
        acc += c
    return acc


def _taylor_coefficients(c: float, ai: float, aip: float, n: int) -> list:
    """The first n Taylor coefficients about c of the solution of y'' = u y
    with y(c) = ai, y'(c) = aip: (m + 2)(m + 1) a_{m+2} = c a_m + a_{m-1}."""
    a = [ai, aip]
    for m in range(n - 2):
        a.append((c * a[m] + (a[m - 1] if m else 0.0)) / ((m + 2) * (m + 1)))
    return a


def _anchor_table() -> np.ndarray:
    """Taylor coefficients of Ai: row m holds those of h^m at every anchor.

    Ai and Ai' at u = 10 come from DLMF 9.7.5 and 9.7.6 (v_k = -(6k + 1) /
    (6k - 1) u_k); each step to the next lower anchor sums _STEP_TERMS terms.
    """
    zeta = 2.0 / 3.0 * _TAYLOR_EDGE ** 1.5
    v = _SIGNED * [-(6 * k + 1) / (6 * k - 1) for k in range(_U.size)]
    scale = math.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = scale * _TAYLOR_EDGE ** -0.25 * float(_horner(_SIGNED, 1.0 / zeta))
    aip = -scale * _TAYLOR_EDGE ** 0.25 * float(_horner(v, 1.0 / zeta))
    n = round(2.0 * _TAYLOR_EDGE / _ANCHOR_STEP)
    rows = []
    for j in range(n, -1, -1):
        a = _taylor_coefficients(-_TAYLOR_EDGE + j * _ANCHOR_STEP, ai, aip,
                                 _STEP_TERMS)
        rows.append(a[:_TAYLOR_TERMS])
        h = -_ANCHOR_STEP
        ai = sum(a[m] * h ** m for m in range(_STEP_TERMS - 1, -1, -1))
        aip = sum(m * a[m] * h ** (m - 1)
                  for m in range(_STEP_TERMS - 1, 0, -1))
    return np.array(rows[::-1]).T.copy()


_ANCHORS = _anchor_table()


def airy_ai(u):
    """Airy function Ai(u) of a float (returns a float) or of an array.

    Raises DomainError unless every u is finite and at least -1e205.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)) or np.any(u < _MOST_NEGATIVE):
        raise DomainError("airy_ai requires a finite argument of at least "
                          f"{_MOST_NEGATIVE:g}, where 2/3 |u|^(3/2) overflows")
    flat = np.atleast_1d(u).ravel()
    ai = np.empty_like(flat)

    mid = np.abs(flat) <= _TAYLOR_EDGE
    um = flat[mid]
    j = np.rint((um + _TAYLOR_EDGE) / _ANCHOR_STEP).astype(np.intp)
    h = um - (j * _ANCHOR_STEP - _TAYLOR_EDGE)
    acc = _ANCHORS[-1].take(j)
    for row in _ANCHORS[-2::-1]:
        acc *= h
        acc += row.take(j)
    ai[mid] = acc

    # beyond u = 200 Ai is below the smallest double: clipping keeps zeta
    # finite up to the largest double
    pos = flat > _TAYLOR_EDGE
    z = np.minimum(flat[pos], 200.0)
    zeta = 2.0 / 3.0 * z * np.sqrt(z)
    ai[pos] = (np.exp(-zeta) / (2.0 * math.sqrt(math.pi) * np.sqrt(np.sqrt(z)))
               * _horner(_SIGNED, 1.0 / zeta))

    neg = flat < -_TAYLOR_EDGE
    z = -flat[neg]
    zeta = 2.0 / 3.0 * z * np.sqrt(z)
    r = 1.0 / zeta
    w = r * r
    phase = zeta - math.pi / 4.0
    ai[neg] = ((np.cos(phase) * _horner(_EVEN, w)
                + np.sin(phase) * _horner(_ODD, w) * r)
               / (math.sqrt(math.pi) * np.sqrt(np.sqrt(z))))

    ai = ai.reshape(u.shape)
    return float(ai) if ai.ndim == 0 else ai


# Stirling's series of loggamma: B_{2k} / (2k (2k - 1)), k = 1 .. 6; at
# |z| >= _SHIFT the next term is below 2e-18
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)
_SHIFT = 16


def loggamma(z):
    """Principal branch of log Gamma(z) for complex z with Re z > 0.

    Where |z| < 16, log Gamma(z) = log Gamma(z + 16) - sum_{j < 16} log(z + j);
    the principal logs of the sum keep the branch continuous in the right
    half-plane, as scipy.special.loggamma and mpmath.loggamma define it.
    Returns a complex for a scalar argument, else an array; a DomainError
    if some Re z <= 0.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(z.real > 0.0) or not np.all(np.isfinite(z)):
        raise DomainError("loggamma requires a finite z with Re z > 0")
    flat = np.atleast_1d(z).ravel()
    small = np.abs(flat) < _SHIFT
    w = flat + _SHIFT * small
    r = 1.0 / w
    value = ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
             + r * _horner(_STIRLING, r * r))
    logs = np.zeros(np.count_nonzero(small), dtype=complex)
    for j in range(_SHIFT):
        logs += np.log(flat[small] + j)
    value[small] -= logs
    value = value.reshape(z.shape)
    return complex(value) if value.ndim == 0 else value


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


class KernelLaw(NamedTuple):
    """Diagonal power-law singularity prefactor * |zeta - zeta'|^exponent."""

    prefactor: complex
    exponent: float
