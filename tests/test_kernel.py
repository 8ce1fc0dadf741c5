"""Born-level symbol and the diagonal kernel power law via the FFT check."""

import math

import mpmath
import numpy as np
import pytest

from starkscatter import (
    DomainError,
    PotentialSpec,
    apply_taper,
    born_symbol,
    c1_constant,
    c2_constant,
    coulomb,
    homogeneous,
    homogeneous_symbol_asymptote,
    kernel_fft_check,
    kernel_singularity_law,
    kernel_transform,
    populate_grid,
    zero_potential,
)
from starkscatter.errors import ConfigError
from starkscatter.kernel import born_symbols, radial_bins


def _mpmath_born(q, R):
    """Oracle: -2i * integral_R^inf q(x) / sqrt(2x) dx (zeta = 0, lam = 0).

    Split at decades of x from R to 1e9 R and beyond that taken in
    x = T e^u; a single [R, 10 r, inf] split is inaccurate for alpha <= 0.6.
    """
    def f(x):
        return q(x) / mpmath.sqrt(2 * x)

    with mpmath.workdps(30):
        edges = [mpmath.mpf(R) * 10 ** k for k in range(10)]
        T = edges[-1]
        head = mpmath.quad(f, edges)
        tail = mpmath.quad(lambda u: f(T * mpmath.exp(u)) * T * mpmath.exp(u),
                           [0, 1, 4, 16, 64, mpmath.inf])
        return -2j * complex(head + tail)


# ---------------------------------------------------------------------------
# born symbol

def test_born_symbol_zero_potential():
    assert born_symbol(zero_potential(), [0.0, 0.0], [5.0, 0.0]) == 0.0


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5, 2.5])
def test_born_symbol_against_mpmath(alpha):
    # the default radius is R = 2 at zeta = 0, lam = 0
    spec = coulomb(1.0) if alpha == 1.0 else homogeneous(1.0, alpha)
    for r in (1e-2, 1.0, 50.0, 3.5e4, 1e5, 1.4e5):
        oracle = _mpmath_born(
            lambda x: (x * x + r * r) ** (-mpmath.mpf(alpha) / 2), 2.0)
        assert born_symbol(spec, [0.0], [r]) == pytest.approx(oracle,
                                                              rel=1e-9)


def test_born_symbol_table_kind_against_mpmath():
    # a Gaussian table potential goes through eval_potential node by node
    spec = PotentialSpec(kind="table", kappa=1.0, func=lambda x, y: math.exp(
        -(x * x + float(y @ y)) / 9.0))
    for y in ([0.5, 0.0], [1.0, -2.0]):
        y_sq = float(np.dot(y, y))
        # beyond x = 64 the integrand is below e^{-450}
        with mpmath.workdps(30):
            oracle = -2j * complex(mpmath.quad(
                lambda x: mpmath.exp(-(x * x + y_sq) / 9) / mpmath.sqrt(2 * x),
                [2, 4, 8, 16, 32, 64]))
        assert born_symbol(spec, [0.0, 0.0], y) == pytest.approx(oracle,
                                                                 rel=1e-9)


def test_born_symbols_report_the_achieved_refinement_change():
    # per radius: the last panel-doubling change is within the request
    # and, up to the rounding of the final sums, bounds the distance to
    # the mpmath value; the batch agrees with the one-radius calls
    spec = homogeneous(1.0, 0.75)
    radii = np.array([1e-2, 3.0, 1e3, 1.4e5])
    tol = 1e-6
    values, errors = born_symbols(spec, [0.0], radii[:, None], tol=tol)
    assert np.all(errors <= tol * np.maximum(1.0, np.abs(values)))
    assert errors[-1] > 1e-13
    for r, val, err in zip(radii, values, errors):
        oracle = _mpmath_born(
            lambda x: (x * x + r * r) ** (-mpmath.mpf(0.75) / 2), 2.0)
        assert abs(val - oracle) <= err + 4e-16 * abs(oracle)
        assert born_symbol(spec, [0.0], [r], tol=tol) == pytest.approx(
            val, rel=1e-12)


def test_born_symbol_linear_in_coupling():
    y = [3.0]
    a = born_symbol(coulomb(1.0), [0.0], y)
    b = born_symbol(coulomb(2.0), [0.0], y)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_born_symbol_negative_imaginary_for_positive_coupling():
    val = born_symbol(coulomb(1.0), [0.0], [3.0])
    assert val.real == 0.0
    assert val.imag < 0.0


def test_born_symbol_even_in_y():
    spec = homogeneous(1.0, 1.5)
    a = born_symbol(spec, [0.0], [4.0])
    b = born_symbol(spec, [0.0], [-4.0])
    assert a == pytest.approx(b, rel=1e-12)


def test_born_symbol_approaches_homogeneous_asymptote():
    spec = coulomb(1.0)
    ratios = []
    for r in (1e2, 1e3, 1e4):
        y = [r]
        val = born_symbol(spec, [0.0], y, R=1.0)
        asym = homogeneous_symbol_asymptote(1.0, 1.0, y)
        ratios.append(val.imag / asym.imag)
    assert abs(ratios[-1] - 1.0) < 0.02
    # and the approach is from flattening bias shrinking with |y|
    assert abs(ratios[2] - 1.0) < abs(ratios[0] - 1.0)


def test_born_symbol_insensitive_to_energy_and_zeta_at_large_y():
    spec = coulomb(1.0)
    y = [2e3]
    base = born_symbol(spec, [0.0], y, lam=0.0)
    shifted = born_symbol(spec, [0.4], y, lam=0.3)
    assert abs(shifted - base) < 0.02 * abs(base)


def test_born_symbol_domain_check():
    with pytest.raises(DomainError):
        born_symbol(coulomb(1.0), [3.0], [5.0], R=1.0)


def test_asymptote_value_and_scaling():
    y = [1e4]
    asym = homogeneous_symbol_asymptote(1.0, 1.0, y)
    assert asym == pytest.approx(-2j * c1_constant(1.0) * 1e-2, rel=1e-13)
    doubled = homogeneous_symbol_asymptote(1.0, 1.5, [2e4])
    single = homogeneous_symbol_asymptote(1.0, 1.5, y)
    assert abs(doubled / single) == pytest.approx(2.0 ** -1.0, rel=1e-12)
    with pytest.raises(DomainError):
        homogeneous_symbol_asymptote(1.0, 1.0, [0.0])


# ---------------------------------------------------------------------------
# diagonal law

def test_singularity_law_examples():
    law = kernel_singularity_law(3, 1.0, 1.0)
    assert law.exponent == pytest.approx(-1.5)
    assert law.prefactor == pytest.approx(-1j / math.sqrt(2.0 * math.pi),
                                          abs=1e-14)
    law2 = kernel_singularity_law(3, 1.0, 2.0)
    assert law2.prefactor == pytest.approx(2.0 * law.prefactor, rel=1e-13)
    law4 = kernel_singularity_law(4, 1.0, 1.0)
    assert law4.exponent == pytest.approx(-2.5)
    assert law4.prefactor == pytest.approx(c2_constant(4, 1.0), rel=1e-13)


# ---------------------------------------------------------------------------
# grids and transforms

def test_grid_geometry():
    grid = populate_grid(coulomb(1.0), 64, 100.0, d=3, use_asymptote=True)
    assert grid.values.shape == (64, 64)
    assert grid.spacing == pytest.approx(200.0 / 64)
    assert grid.axes[32] == 0.0


def test_taper_preserves_interior_and_kills_boundary():
    grid = populate_grid(coulomb(1.0), 64, 100.0, d=3, use_asymptote=True)
    tapered = apply_taper(grid, taper_fraction=0.2)
    np.testing.assert_allclose(tapered.values[32, 32:48],
                               grid.values[32, 32:48], rtol=1e-13)
    assert abs(tapered.values[32, 0]) < 1e-13


def test_transform_of_pure_power_recovers_fourier_pair():
    # |y|^{-1/2} input on a 2-d grid: the radial Fourier pair has the
    # closed-form modulus |c2(3, 1)| k^{-3/2} after the |kappa c1| rescale
    spec = coulomb(1.0)
    grid = apply_taper(populate_grid(spec, 1024, 1e5, d=3, use_asymptote=True))
    law = kernel_singularity_law(3, 1.0, 1.0)
    k_ir = 2.0 * math.pi / grid.extent
    fit = kernel_fft_check(grid, law, k_window=(10 * k_ir, 60 * k_ir))
    assert fit.exponent == pytest.approx(-1.5, abs=0.06)
    assert fit.prefactor_modulus == pytest.approx(abs(law.prefactor), rel=0.05)


@pytest.mark.parametrize("d,alpha", [(3, 1.0), (3, 1.5), (2, 1.0)])
def test_fft_exponent_matches_law(d, alpha):
    spec = coulomb(1.0) if alpha == 1.0 else homogeneous(1.0, alpha)
    n = 1024 if d == 3 else 4096
    grid = apply_taper(populate_grid(spec, n, 1e5, d=d, use_asymptote=True))
    law = kernel_singularity_law(d, alpha, 1.0)
    k_ir = 2.0 * math.pi / grid.extent
    fit = kernel_fft_check(grid, law, k_window=(10 * k_ir, 60 * k_ir))
    assert fit.exponent == pytest.approx(law.exponent, abs=0.1)


def test_radial_bins_monotone_grid():
    grid = apply_taper(populate_grid(coulomb(1.0), 256, 1e4, d=3,
                                     use_asymptote=True))
    k_axis, T = kernel_transform(grid)
    centers, binned = radial_bins(k_axis, T, n_bins=20)
    assert np.all(np.diff(centers) > 0)
    assert np.all(binned > 0)


def test_fft_check_window_validation():
    grid = apply_taper(populate_grid(coulomb(1.0), 128, 1e3, d=3,
                                     use_asymptote=True))
    law = kernel_singularity_law(3, 1.0, 1.0)
    with pytest.raises(ConfigError):
        kernel_fft_check(grid, law, k_window=(1e-9, 1e-8))
    with pytest.raises(ConfigError):
        kernel_fft_check(grid, law, k_window=(1.0, 1e3))


def test_populate_grid_dimension_check():
    with pytest.raises(ConfigError):
        populate_grid(coulomb(1.0), 32, 10.0, d=4)


def test_populated_profile_matches_direct_symbol():
    # interpolated grid values agree with direct quadrature off the profile
    spec = coulomb(1.0)
    grid = populate_grid(spec, 128, 1e3, d=2, n_radial=120, R=1.05)
    ax = grid.axes
    for idx in (70, 100, 127):
        direct = born_symbol(spec, [0.0], [abs(ax[idx])], R=1.05)
        assert grid.values[idx] == pytest.approx(direct, rel=1e-5)
