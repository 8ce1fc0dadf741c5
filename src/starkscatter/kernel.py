"""Born-level scattering symbol and the diagonal kernel singularity.

The symbol is t(zeta, y) = -2i * integral_R^inf q(x, -y)/sqrt(2x + 2 lam
- zeta^2) dx.  For homogeneous potentials kappa r^{-alpha} it approaches
-2i kappa c1 |y|^{1/2 - alpha} at large |y|, and the kernel of S - I
develops the diagonal power law kappa c2 |zeta - zeta'|^{1/2 + alpha - d},
which the FFT check recovers from a tapered grid of symbol values.

`born_symbols` evaluates the symbol at a batch of transverse positions in
one pass of the mapped Gauss-Legendre rule of `quadrature`: x = R + c (s /
(1 - s))^P with c = max(|y|, R) and P chosen from the decay rate alpha + 1/2
of the integrand, so every position converges on the same panel layout.
`born_symbol` is its one-position case and `populate_grid` computes its
whole radial profile in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError, DomainError
from .potentials import PotentialSpec, eval_potential, eval_potential_array
from .quadrature import converge, loglog_fit, map_power
from .special import KernelLaw, c1_constant, c2_constant


@dataclass
class SymbolGrid:
    """Regular symmetric grid of symbol values over transverse positions.

    extent is the half-width L; each axis holds n nodes with spacing
    2L/n, centered so the origin is a node (n even uses the FFT-natural
    layout -L, ..., L - spacing).
    """

    extent: float
    n: int
    values: np.ndarray
    zeta: np.ndarray
    lam: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def axes(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.spacing


def default_radius(zeta, lam: float) -> float:
    """Lower integration limit keeping the square root real and bounded."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    z2 = float(np.dot(zeta, zeta))
    return max(2.0, z2 - 2.0 * lam + 2.0)


def born_symbol(spec: PotentialSpec, zeta, y, lam: float = 0.0,
                R: float | None = None, tol: float = 1e-10) -> complex:
    """-2i * integral_R^inf q(x, -y) / sqrt(2x + 2 lam - zeta^2) dx.

    The kernel formulas are statements about the exact power law, so the
    potential is evaluated unsoftened here.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return complex(born_symbols(spec, zeta, y[None, :], lam, R, tol)[0][0])


def born_symbols(spec: PotentialSpec, zeta, ys, lam: float = 0.0,
                 R: float | None = None, tol: float = 1e-10):
    """born_symbol at every row of ys, (n, d - 1), in one batched quadrature.

    Returns the symbols and, per symbol, the last refinement change of the
    panel rule, which stops once every change is at most tol * max(1, |t|).
    The table kind is evaluated node by node with eval_potential.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    ys = np.asarray(ys, dtype=float)
    z2 = float(np.dot(zeta, zeta))
    if R is None:
        R = default_radius(zeta, lam)
    if 2.0 * R + 2.0 * lam - z2 <= 0.0:
        raise DomainError("R too small: square root not bounded away from 0")
    if spec.kind == "zero":
        return np.zeros(len(ys), dtype=complex), np.zeros(len(ys))
    pot = spec.unsoftened()
    y_sq = np.sum(ys * ys, axis=-1)

    def one_pass(rule):
        x = R + rule.t
        if pot.kind == "table":
            q = np.array([[eval_potential(pot, xi, -y) for xi in row]
                          for row, y in zip(x, ys)])
        else:
            q = eval_potential_array(pot, x, y_sq[:, None])
        return -2j * np.sum(q / np.sqrt(2.0 * x + 2.0 * lam - z2) * rule.w,
                            axis=-1)

    # q decays like x^{-alpha}, or x^{-(1/2 + delta)} for the table kind,
    # and the square root adds x^{-1/2}.  The square root varies on the
    # scale R, reached at s ~ (R / c)^{1/P}: P >= 4 keeps that inside the
    # first panels for |y| up to about 1e5 R.
    alpha = 0.5 + spec.delta if spec.kind == "table" else spec.alpha
    return converge(one_pass, np.maximum(np.sqrt(y_sq), R),
                    map_power(alpha + 0.5, least=4), tol, "kernel",
                    "born_symbol")


def homogeneous_symbol_asymptote(kappa: float, alpha: float, y) -> complex:
    """Large-|y| closed form -2i kappa c1(alpha) |y|^{1/2 - alpha}."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        raise DomainError("asymptote undefined at y = 0")
    return -2j * kappa * c1_constant(alpha) * y_norm ** (0.5 - alpha)


def kernel_singularity_law(d: int, alpha: float, kappa: float) -> KernelLaw:
    """Power law of the kernel of S - I at the diagonal."""
    return KernelLaw(prefactor=kappa * c2_constant(d, alpha),
                     exponent=0.5 + alpha - d)


def _grid_radii(grid_axes: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*grid_axes, indexing="ij", sparse=True)
    return np.sqrt(sum(a * a for a in mesh))


def populate_grid(spec: PotentialSpec, n: int, extent: float,
                  zeta=None, lam: float = 0.0, d: int = 3,
                  use_asymptote: bool = False, tol: float = 1e-9,
                  n_radial: int = 400, R: float | None = None) -> SymbolGrid:
    """Fill a (d-1)-dimensional grid with t(zeta, -y) values.

    The built-in potentials are radial in y, so the symbol is computed on a
    logarithmic radial profile and interpolated onto the grid (d = 2 gives a
    line of transverse positions, d = 3 a square).
    """
    if d not in (2, 3):
        raise ConfigError("symbol grids are implemented for d = 2 and 3")
    if zeta is None:
        zeta = np.zeros(d - 1)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    ax = (np.arange(n) - n // 2) * (2.0 * extent / n)
    rr = _grid_radii([ax] * (d - 1))
    r_min = max(rr[rr > 0].min() * 0.5, 1e-3)
    r_max = rr.max() * 1.001

    mask = rr > 0
    vals = np.zeros(rr.shape, dtype=complex)
    if use_asymptote:
        pref = -2j * spec.kappa * c1_constant(spec.alpha)
        vals[mask] = pref * rr[mask] ** (0.5 - spec.alpha)
        vals[~mask] = pref * _cell_average_power(
            ax[1] - ax[0], 0.5 - spec.alpha, d - 1)
    else:
        radii = np.geomspace(r_min, r_max, n_radial)
        ys = np.zeros((n_radial, d - 1))
        ys[:, 0] = radii
        profile = born_symbols(spec, zeta, ys, lam, R=R, tol=tol)[0].imag
        spline = CubicSpline(np.log(radii), profile)
        vals[mask] = 1j * spline(np.log(rr[mask]))
        vals[~mask] = 1j * spline(np.log(r_min))
    return SymbolGrid(extent=extent, n=n, values=vals, zeta=zeta, lam=lam)


def _cell_average_power(h: float, p: float, ndim: int) -> float:
    """Mean of |y|^p over the origin grid cell [-h/2, h/2]^ndim."""
    if ndim == 1:
        return (h / 2.0) ** p / (p + 1.0)
    from scipy.integrate import dblquad
    val, _ = dblquad(lambda b, a: (a * a + b * b) ** (p / 2.0),
                     0.0, h / 2.0, 0.0, h / 2.0)
    return 4.0 * val / h ** 2


def apply_taper(grid: SymbolGrid, taper_fraction: float = 0.2) -> SymbolGrid:
    """Cosine taper over the outer fraction of the grid radius."""
    ax = grid.axes
    rr = _grid_radii([ax] * grid.values.ndim)
    r0 = grid.extent * (1.0 - taper_fraction)
    r1 = grid.extent
    w = np.ones_like(rr)
    ramp = (rr >= r0) & (rr <= r1)
    w[ramp] = 0.5 * (1.0 + np.cos(math.pi * (rr[ramp] - r0) / (r1 - r0)))
    w[rr > r1] = 0.0
    return SymbolGrid(extent=grid.extent, n=grid.n,
                      values=grid.values * w, zeta=grid.zeta, lam=grid.lam)


def kernel_transform(grid: SymbolGrid) -> tuple[np.ndarray, np.ndarray]:
    """Discrete version of T(k) = (2 pi)^{1-d} integral e^{i k.y} t(-y) dy.

    Returns (k_axis, T) with the continuum normalization (2 pi)^{1-d},
    where d - 1 is the grid dimension.
    """
    n = grid.n
    dy = grid.spacing
    ndim = grid.values.ndim
    # e^{+i k.y} convention: inverse FFT times n^ndim, with the phase shift
    # for the grid origin at index n//2
    vals = np.fft.ifftshift(grid.values)
    T = (np.fft.ifftn(vals) * n ** ndim * dy ** ndim
         * (2.0 * math.pi) ** (-ndim))
    k_axis = 2.0 * math.pi * np.fft.fftfreq(n, d=dy)
    return k_axis, T


def radial_bins(k_axis: np.ndarray, T: np.ndarray, n_bins: int = 60,
                k_lo: float | None = None, k_hi: float | None = None):
    """Radially binned |T| on a logarithmic wavenumber grid."""
    kk = _grid_radii([k_axis] * T.ndim).ravel()
    tt = np.abs(T).ravel()
    if k_lo is None:
        k_lo = np.min(kk[kk > 0]) * 4.0
    if k_hi is None:
        k_hi = np.max(np.abs(k_axis)) / 4.0
    edges = np.geomspace(k_lo, k_hi, n_bins + 1)
    idx = np.digitize(kk, edges) - 1
    valid = (idx >= 0) & (idx < n_bins)
    sums = np.bincount(idx[valid], weights=tt[valid], minlength=n_bins)
    cnts = np.bincount(idx[valid], minlength=n_bins)
    centers = np.sqrt(edges[:-1] * edges[1:])
    mask = cnts > 0
    return centers[mask], sums[mask] / cnts[mask]


@dataclass(frozen=True)
class FftFit:
    exponent: float
    exponent_stderr: float
    prefactor_modulus: float
    prefactor_stderr: float
    k_window: tuple
    residual_rms: float
    bin_centers: np.ndarray  # the radially binned |T| the fit was made on
    bin_values: np.ndarray


def kernel_fft_check(grid: SymbolGrid, law: KernelLaw,
                     k_window: tuple | None = None,
                     n_bins: int = 40) -> FftFit:
    """Fit the diagonal power law from the transformed symbol grid.

    The window must avoid both the infrared cutoff 2 pi / L and the Nyquist
    band; the fit is least squares in log-log on radially binned |T|.
    """
    k_axis, T = kernel_transform(grid)
    k_ir = 2.0 * math.pi / grid.extent
    k_nyq = math.pi / grid.spacing
    if k_window is None:
        k_window = (3.0 * k_ir, min(30.0 * k_ir, 0.5 * k_nyq))
    k_lo, k_hi = k_window
    if not (k_ir <= k_lo < k_hi <= k_nyq):
        raise ConfigError("fit window outside the resolvable band")
    centers, binned = radial_bins(k_axis, T, n_bins=n_bins,
                                  k_lo=k_lo, k_hi=k_hi)
    if centers.size < 5:
        raise ConfigError("fit window too narrow: fewer than 5 bins")
    slope, intercept, slope_err, inter_err = loglog_fit(centers, binned)
    lk, lv = np.log(centers), np.log(binned)
    # prefactor read off inside the window with the law's exponent pinned,
    # so a small slope bias does not leak into the amplitude
    pref = math.exp(float(np.mean(lv - law.exponent * lk)))
    resid = lv - (slope * lk + intercept)
    return FftFit(exponent=slope, exponent_stderr=slope_err,
                  prefactor_modulus=pref,
                  prefactor_stderr=pref * inter_err,
                  k_window=(k_lo, k_hi),
                  residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                  bin_centers=centers, bin_values=binned)
