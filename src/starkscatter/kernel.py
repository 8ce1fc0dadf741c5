"""Born-level scattering symbol and the diagonal kernel singularity.

The symbol is t(zeta, y) = -2i * integral_R^inf q(x, -y)/sqrt(2x + 2 lam
- zeta^2) dx.  For homogeneous potentials kappa r^{-alpha} it approaches
-2i kappa c1 |y|^{1/2 - alpha} at large |y|, and the kernel of S - I
develops the diagonal power law kappa c2 |zeta - zeta'|^{1/2 + alpha - d},
which `radial_kernel` and `fit_kernel_law` recover from the symbol.

`born_symbols` evaluates the symbol at a batch of transverse positions with
the mapped Gauss-Legendre rule of `quadrature`: x = R + c (s / (1 - s))^P
with c = max(|y|, R) and P chosen from the decay rate alpha + 1/2 of the
integrand, so every position converges on the same panel layout.  A pass
maps its panels once, at unit scale, on the nodes only.  The positions
with |y| <= R sit at the floor c = R and share one vector of x, square
roots and weights; every other position forms x = R + c (s / (1 - s))^P
and scales its weighted sum by c.  A pass takes blocks of positions of
2^14 nodes, one potential call a block, so that its temporaries on the
nodes stay under 1 MB whatever the batch size.

`radial_kernel` recovers the kernel from the radial Born profile with one
FFTLog transform (Talman, J. Comput. Phys. 29 (1978) 35; Hamilton, MNRAS
312 (2000) 257): the (d - 1)-dimensional Fourier transform of a radial
function is a Hankel transform of order (d - 3)/2, which `radial_transform`
evaluates on log-spaced radii with numpy's real FFT.  The profile is the
Born symbol out to sqrt(2) extent and its two-term tail beyond, and
`fit_kernel_law` fits the law together with the next-order term that the
cutoff R puts into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ConfigError, DomainError
from .potentials import PotentialSpec, eval_potential_array, norm_squared
from .quadrature import (brent_minimum, converge, map_half_line, map_power,
                         panels)
from .special import KernelLaw, c1_constant, c2_constant, loggamma


# nodes per block of rows of a born_symbols pass, 128 KB a float temporary:
# at 2^15 nodes every call on the kernel radii took some 700 fresh memory
# pages, also once warm, at 2^14 and 2^13 none, and 2^14 was the fastest
_BLOCK_NODES = 2 ** 14


def default_radius(zeta, lam: float) -> float:
    """Lower integration limit keeping the square root real and bounded."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    z2 = float(np.dot(zeta, zeta))
    return max(2.0, z2 - 2.0 * lam + 2.0)


def born_symbols(spec: PotentialSpec, zeta, ys, lam: float = 0.0,
                 R: float | None = None, tol: float = 1e-10):
    """-2i * integral_R^inf q(x, -y) / sqrt(2x + 2 lam - zeta^2) dx at every
    row y of ys, (n, d - 1), in one batched quadrature.

    Returns the symbols and, per symbol, the last refinement change of the
    panel rule, which stops once every change is at most tol * max(1, |t|).
    Each refinement pass evaluates the map g(s) = (s / (1 - s))^P and its
    weights on the nodes only.  Rows with |y| <= R share one x, square
    root and weight vector and evaluate only q per node; a block of rows
    that holds another row forms x = R + max(|y|, R) g per row.  The
    potential is evaluated _BLOCK_NODES nodes at a time, one call a block,
    and a row's value does not depend on the blocks.  The kernel formulas
    are statements about the exact power law, so the potential is
    evaluated unsoftened here.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    ys = np.asarray(ys, dtype=float)
    z2 = float(np.dot(zeta, zeta))
    if R is None:
        R = default_radius(zeta, lam)
    if 2.0 * R + 2.0 * lam - z2 <= 0.0:
        raise DomainError("R too small: square root not bounded away from 0")
    pot = spec.unsoftened()
    scale = np.maximum(np.sqrt(norm_squared(ys)), R)
    # the rows at the floor of the scale, which share their nodes
    floor = scale == R
    # q decays like x^{-alpha} and the square root adds x^{-1/2}.  The
    # square root varies on the scale R, reached at s ~ (R / c)^{1/P}: P >= 4
    # keeps that inside the first panels for |y| up to about 1e5 R.
    power = map_power(spec.alpha + 0.5, least=4)

    def one_pass(base):
        # the map at unit scale, g(s) and its weights, on the nodes only;
        # a row of scale c has x = R + c g and its weighted sum times c
        unit = map_half_line(base, 1.0, power)
        x_floor = R + R * unit.t
        w_floor = unit.w / np.sqrt(2.0 * x_floor + 2.0 * lam - z2)
        out = np.empty(len(ys), dtype=complex)
        rows = max(1, _BLOCK_NODES // base.t.size)
        for block in (slice(lo, lo + rows) for lo in range(0, len(ys), rows)):
            c = scale[block, None]
            if floor[block].all():
                x, w = x_floor, w_floor
            else:
                x = R + c * unit.t
                w = unit.w / np.sqrt(2.0 * x + 2.0 * lam - z2)
            q = eval_potential_array(pot, x, -ys[block, None, :])
            out[block] = -2j * (c[:, 0] * np.sum(q * w, axis=-1))
        return out

    return converge(one_pass, panels, tol, "kernel", "born_symbols")


def kernel_singularity_law(d: int, alpha: float, kappa: float) -> KernelLaw:
    """Power law of the kernel of S - I at the diagonal."""
    return KernelLaw(prefactor=kappa * c2_constant(d, alpha),
                     exponent=0.5 + alpha - d)


# ---------------------------------------------------------------------------
# transform and fit

_LN2 = math.log(2.0)
# Half-width in ln r of the radii of radial_kernel, about 17 decades on each
# side of extent.  Widening it to 60 moves the fitted exponent by under 1e-7
# and the prefactor by under 1e-6 relative (d = 2, 3; alpha 0.75 to 1.5).
_LN_HALF_SPAN = 40.0
# fewest window samples fit_kernel_law accepts: the half-sample refit of the
# four-parameter model keeps one degree of freedom
_MIN_FIT_SAMPLES = 10


def born_symbol_tail(spec: PotentialSpec, r, lam: float,
                     R: float | None = None) -> np.ndarray:
    """Im t(0, y) at large |y| = r: -2 kappa c1 r^{1/2-alpha} + c_R r^{-alpha}.

    integral_R^inf = integral_{-lam}^inf - integral_{-lam}^R.  The first part
    gives the asymptote -2 kappa c1 r^{1/2 - alpha} up to O(lam r^{-1/2 -
    alpha}), the second c_R r^{-alpha} (1 + O(R^2 / r^2)) with c_R =
    2 kappa sqrt(2 (R + lam)), the cutoff term the asymptote leaves out;
    with R None the tail is the asymptote alone.  DomainError unless every
    r is positive and the tail finite.
    """
    r = np.asarray(r, dtype=float)
    if not (r > 0.0).all():
        raise DomainError("asymptote undefined unless r > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        tail = (-2.0 * spec.kappa * c1_constant(spec.alpha)
                * r ** (0.5 - spec.alpha))
        if R is not None:
            c_R = 2.0 * spec.kappa * math.sqrt(2.0 * (R + lam))
            tail = tail + c_R * r ** -spec.alpha
    if not np.isfinite(tail).all():
        raise DomainError("asymptote overflows at r = "
                          f"{r[~np.isfinite(tail)].min():g}")
    return tail


def radial_transform(r: np.ndarray, f: np.ndarray, d: int,
                     bias: float) -> tuple[np.ndarray, np.ndarray]:
    """(2 pi)^{1-d} integral e^{i k.y} f(|y|) dy over R^{d-1}, by FFTLog.

    r holds n log-spaced radii and f the real profile at them.  The
    integral is (2 pi)^{(d-1)/2} k^{(3-d)/2} integral f(r) J_mu(k r)
    r^{(d-1)/2} dr with mu = (d - 3)/2, a Hankel transform of a = f
    r^{(d-1)/2}, which Hamilton's FFTLog evaluates at n log-spaced
    wavenumbers.  It biases a by r^{-bias}, takes one real FFT, multiplies
    by u_m = (k_c r_c)^{-2 pi i m / L} U(bias + 2 pi i m / L), with U(x) =
    2^x Gamma((mu + 1 + x)/2) / Gamma((mu + 1 - x)/2) and L = n dln the
    period in ln r, and takes one inverse FFT.  The wavenumbers satisfy
    k_j r_{n-1-j} = k_c r_c, whose log is the low-ringing offset nearest 0.
    The FFT treats a r^{-bias} as periodic in ln r, so the bias should make
    it equal, or small, at both ends.  |bias| < (d - 1)/2 keeps both Gamma
    arguments in Re > 0, where `loggamma` holds; outside, loggamma raises
    DomainError.  Returns (k, transform).
    """
    half = (d - 1) / 2.0
    mu = (d - 3) / 2.0
    n = r.size
    dln = math.log(r[-1] / r[0]) / (n - 1)
    x_plus, x_minus = (mu + 1.0 + bias) / 2.0, (mu + 1.0 - bias) / 2.0
    # the low-ringing offset, from the phase of U at the Nyquist frequency,
    # x = bias + i pi / dln
    nyquist = math.pi / (2.0 * dln)
    arg = (_LN2 / dln + (loggamma(x_plus + 1j * nyquist).imag
                         + loggamma(x_minus + 1j * nyquist).imag) / math.pi)
    offset = (arg - round(arg)) * dln
    y = np.linspace(0.0, math.pi * (n // 2) / (n * dln), n // 2 + 1)
    lg_plus = loggamma(x_plus + 1j * y)
    lg_minus = loggamma(x_minus + 1j * y)
    u = np.exp(lg_plus.real - lg_minus.real + _LN2 * bias
               + 1j * (lg_plus.imag + lg_minus.imag
                       + 2.0 * (_LN2 - offset) * y))
    ln_r = (np.arange(n) - (n - 1) / 2.0) * dln
    a = f * r ** half * np.exp(-bias * ln_r)
    transform = irfft(rfft(a) * u, n)[::-1] * np.exp(-bias * (ln_r + offset))
    k = math.exp(offset) / r[::-1]
    return k, (2.0 * math.pi * k) ** -half * transform


def radial_kernel(spec: PotentialSpec, d: int, n: int, extent: float,
                  lam: float, R: float,
                  tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """The kernel T(k) of the Born symbol at zeta = 0, by one FFTLog transform.

    The radii are n log-spaced points over extent e^{-40} .. extent e^{40};
    the profile Im t is one born_symbols call at those up to sqrt(2) extent
    (the corner of a grid of half-width extent) and born_symbol_tail beyond.
    The bias q makes f r^{(d-1)/2 - q} equal at the first and last radius, so
    its periodic continuation in ln r has no jump.  f keeps one sign, and q
    falls between the rates 1/2 - alpha + (d-1)/2 and (d-1)/2 of
    f r^{(d-1)/2} at large and small r (within 0.15 of their midpoint at
    extent 1e5 for alpha 0.75 to 1.5).  As 1/2 < alpha < d - 1/2, q lies
    inside (-(d-1)/2, (d-1)/2), where the Gamma arguments of
    radial_transform's coefficients have Re > 0.  Returns (k, T) with T = i
    times the transform of Im t.  A table potential, or kappa = 0, where the
    profile vanishes, is a ConfigError.
    """
    if spec.kind != "homogeneous" or spec.kappa == 0.0:
        raise ConfigError("radial kernel needs a homogeneous or coulomb "
                          "potential")
    dln = 2.0 * _LN_HALF_SPAN / n
    r = extent * np.exp((np.arange(n) - (n - 1) / 2.0) * dln)
    m = int(np.count_nonzero(r <= math.sqrt(2.0) * extent))
    ys = np.zeros((m, d - 1))
    ys[:, 0] = r[:m]
    profile = np.concatenate([
        born_symbols(spec, np.zeros(d - 1), ys, lam, R, tol)[0].imag,
        born_symbol_tail(spec, r[m:], lam, R)])
    ends = profile[[0, -1]] * r[[0, -1]] ** ((d - 1) / 2.0)
    k, transform = radial_transform(r, profile, d, bias=float(
        np.log(ends[1] / ends[0]) / np.log(r[-1] / r[0])))
    return k, 1j * transform


@dataclass(frozen=True)
class KernelFit:
    """|T| = A k^p + B s(k) + C fitted on the transform samples in a window.

    s(k) = k^{l + 1/2}, or log k where l + 1/2 = 0, is the transform of the
    cutoff term c_R r^{-alpha} of the profile; l is the law's exponent.
    """

    exponent: float           # p
    exponent_stderr: float
    prefactor_modulus: float  # A
    prefactor_stderr: float
    subleading: float         # B
    subleading_stderr: float
    k_window: tuple
    residual_rms: float       # of model / |T| - 1
    half_sample_change: dict  # of p and A when every other sample is dropped
    k: np.ndarray             # the samples fitted
    values: np.ndarray        # |T| at them
    model: np.ndarray         # A k^p + B s(k) + C at them


def fit_kernel_law(k: np.ndarray, T: np.ndarray, law: KernelLaw,
                   k_window: tuple) -> KernelFit:
    """Fit the law and its next-order term to the samples of T in k_window.

    The exponent p is fitted, not pinned: see _fit_powers.  The fit is
    repeated on every other sample, and the change is reported next to the
    standard errors.
    """
    k_lo, k_hi = k_window
    if not (k[0] <= k_lo < k_hi <= k[-1]):
        raise ConfigError("fit window outside the transformed wavenumbers")
    inside = (k >= k_lo) & (k <= k_hi)
    if np.count_nonzero(inside) < _MIN_FIT_SAMPLES:
        raise ConfigError("fit window too narrow: fewer than "
                          f"{_MIN_FIT_SAMPLES} samples")
    ks, values = k[inside], np.abs(T[inside])
    (p, a, b), (p_err, a_err, b_err), resid = _fit_powers(
        ks, values, law.exponent)
    (p_half, a_half, _), _, _ = _fit_powers(ks[::2], values[::2],
                                               law.exponent)
    return KernelFit(
        exponent=p, exponent_stderr=p_err, prefactor_modulus=a,
        prefactor_stderr=a_err, subleading=b, subleading_stderr=b_err,
        k_window=(k_lo, k_hi),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        half_sample_change={"exponent": abs(p_half - p),
                            "prefactor_modulus": abs(a_half - a)},
        k=ks, values=values, model=values * (1.0 + resid))


def _fit_powers(k: np.ndarray, y: np.ndarray, ell: float):
    """Least squares of A k^p + B s(k) + C against y, relative to y.

    Variable projection: at fixed p the fit is linear in (A, B, C), and p
    minimises the remaining residual over (l - 1/2, l + 1/2), the interval
    between the neighbouring exponents l - 1/2 and s's l + 1/2, found by
    Brent's method to 1e-12.  Returns (p, A, B), the standard errors of
    (p, A, B) from the Jacobian of the four-parameter model and the residual
    variance on n - 4 degrees of freedom, and the relative residuals.
    """
    sub = np.log(k) if abs(ell + 0.5) < 1e-12 else k ** (ell + 0.5)
    ones = np.ones_like(k)

    def linear(p):
        basis = np.column_stack([k ** p, sub, ones]) / y[:, None]
        coef = np.linalg.lstsq(basis, ones, rcond=None)[0]
        return coef, basis @ coef - 1.0

    p = brent_minimum(lambda p: float(np.sum(linear(p)[1] ** 2)),
                      ell - 0.5, ell + 0.5, 1e-12)
    (a, b, _), resid = linear(p)
    jac = np.column_stack([k ** p, sub, ones,
                           a * k ** p * np.log(k)]) / y[:, None]
    sigma2 = float(resid @ resid) / (k.size - 4)
    err = np.sqrt(sigma2 * np.diag(np.linalg.inv(jac.T @ jac)))
    return ((p, float(a), float(b)),
            (float(err[3]), float(err[0]), float(err[1])), resid)
