"""Born-level symbol and the diagonal kernel power law by FFTLog."""

import math

import mpmath
import numpy as np
import pytest
import scipy.fft

from starkscatter import (
    DomainError,
    KernelLaw,
    PotentialSpec,
    born_symbol_tail,
    c1_constant,
    c2_constant,
    coulomb,
    fit_kernel_law,
    homogeneous,
    kernel_singularity_law,
    radial_kernel,
    radial_transform,
    zero_potential,
)
from starkscatter.cli import cmd_kernel, load_config
from starkscatter.errors import ConfigError, ConvergenceError
from starkscatter import kernel
from starkscatter.kernel import born_symbols


def _born(spec, zeta, y, **kwargs):
    """born_symbols at the one row y."""
    return complex(born_symbols(spec, zeta, [y], **kwargs)[0][0])


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
    assert _born(zero_potential(), [0.0, 0.0], [5.0, 0.0]) == 0.0


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("d", [2, 3])
def test_born_symbols_vanish_at_kappa_zero(softening, d):
    ys = np.zeros((20, d - 1))
    ys[:, 0] = np.geomspace(1e-2, 1e4, 20)
    values, change = born_symbols(homogeneous(0.0, 1.0, softening=softening),
                                  np.zeros(d - 1), ys)
    assert np.all(values == 0.0) and np.all(change == 0.0)


@pytest.mark.parametrize("s", [2.0, 4.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_born_symbols_are_scaling_covariant(alpha, d, s):
    # y -> s^2 y, zeta -> s zeta, lam -> s^2 lam, R -> s^2 R and kappa ->
    # kappa s^{2 + 2 alpha} carry q / sqrt(2x + 2 lam - zeta^2) dx to s^3
    # times itself; a power of 2 scales exactly, the stop rule does not
    zeta = np.array([0.3, -0.2][:d - 1])
    ys = np.array([[5.0, -3.0], [40.0, 10.0], [300.0, -200.0]])[:, :d - 1]
    values, _ = born_symbols(homogeneous(1.0, alpha), zeta, ys, lam=0.25,
                             R=2.0, tol=1e-12)
    scaled, _ = born_symbols(homogeneous(s ** (2.0 + 2.0 * alpha), alpha),
                             s * zeta, s * s * ys, lam=s * s * 0.25,
                             R=s * s * 2.0, tol=1e-12)
    assert np.all(np.abs(scaled - s ** 3 * values)
                  <= 1e-13 * np.abs(s ** 3 * values))


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5, 2.5])
def test_born_symbol_against_mpmath(alpha):
    # the default radius is R = 2 at zeta = 0, lam = 0
    spec = coulomb(1.0) if alpha == 1.0 else homogeneous(1.0, alpha)
    for r in (1e-2, 1.0, 50.0, 3.5e4, 1e5, 1.4e5):
        oracle = _mpmath_born(
            lambda x: (x * x + r * r) ** (-mpmath.mpf(alpha) / 2), 2.0)
        assert _born(spec, [0.0], [r]) == pytest.approx(oracle, rel=1e-9)


def test_born_symbol_table_kind_against_mpmath():
    # a Gaussian table potential, called on all nodes of a pass at once
    spec = PotentialSpec(kind="table", kappa=1.0, func=lambda x, y: np.exp(
        -(x * x + np.sum(y * y, axis=-1)) / 9.0))
    for y in ([0.5, 0.0], [1.0, -2.0]):
        y_sq = float(np.dot(y, y))
        # beyond x = 64 the integrand is below e^{-450}
        with mpmath.workdps(30):
            oracle = -2j * complex(mpmath.quad(
                lambda x: mpmath.exp(-(x * x + y_sq) / 9) / mpmath.sqrt(2 * x),
                [2, 4, 8, 16, 32, 64]))
        assert _born(spec, [0.0, 0.0], y) == pytest.approx(oracle, rel=1e-9)


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
        assert _born(spec, [0.0], [r], tol=tol) == pytest.approx(
            val, rel=1e-12)


_BLOCKING_SPECS = {
    "homogeneous": homogeneous(1.0, 1.5),
    "table": PotentialSpec(kind="table", kappa=0.7, func=lambda x, y: (
        x * x + np.sum(y * y, axis=-1)) ** -0.5),
}


@pytest.mark.parametrize("kind", sorted(_BLOCKING_SPECS))
@pytest.mark.parametrize("d", [2, 3])
def test_born_symbols_do_not_depend_on_the_row_blocks(d, kind, monkeypatch):
    # 300 rows: 256 + 44 rows a block at 8 panels, 128 a block from 16.
    # More than a third of them lie at the floor |y| <= R = 2, one exactly
    # on it: the first 128, which fill whole blocks from 16 panels on and
    # share their nodes there, and every fourth row after them, which sits
    # in blocks with rows beyond R.  Blocks of one row and one block of
    # every row give the same bits.
    spec = _BLOCKING_SPECS[kind]
    rng = np.random.default_rng(d)
    ys = rng.uniform(-1e3, 1e3, size=(300, d - 1))
    floor = np.arange(300) < 128
    floor[128::4] = True
    ys[floor] = rng.uniform(-1.0, 1.0, size=(floor.sum(), d - 1))
    ys[0] = 0.0
    ys[0, 0] = 2.0
    assert np.count_nonzero(np.linalg.norm(ys, axis=1) <= 2.0) >= 100
    runs = []
    for block_nodes in (kernel._BLOCK_NODES, 1, 2 ** 40):
        monkeypatch.setattr(kernel, "_BLOCK_NODES", block_nodes)
        runs.append(born_symbols(spec, np.zeros(d - 1), ys))
    for values, errors in runs[1:]:
        np.testing.assert_array_equal(values.view(np.uint64),
                                      runs[0][0].view(np.uint64))
        np.testing.assert_array_equal(errors.view(np.uint64),
                                      runs[0][1].view(np.uint64))


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_born_symbols_floor_and_far_rows_in_one_batch_against_mpmath(alpha):
    # |y| = 1 lies below the floor R = 2 and shares the block's nodes, |y| =
    # 50 forms its own, in the one block of the batch
    spec = coulomb(1.0) if alpha == 1.0 else homogeneous(1.0, alpha)
    ys = np.array([[0.6, -0.8], [30.0, 40.0]])
    values, _ = born_symbols(spec, [0.0, 0.0], ys)
    for r, value in zip((1.0, 50.0), values):
        oracle = _mpmath_born(
            lambda x: (x * x + r * r) ** (-mpmath.mpf(alpha) / 2), 2.0)
        assert complex(value) == pytest.approx(oracle, rel=1e-9)


def test_born_symbol_linear_in_coupling():
    y = [3.0]
    a = _born(coulomb(1.0), [0.0], y)
    b = _born(coulomb(2.0), [0.0], y)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_born_symbol_negative_imaginary_for_positive_coupling():
    val = _born(coulomb(1.0), [0.0], [3.0])
    assert val.real == 0.0
    assert val.imag < 0.0


def test_born_symbol_even_in_y():
    spec = homogeneous(1.0, 1.5)
    a = _born(spec, [0.0], [4.0])
    b = _born(spec, [0.0], [-4.0])
    assert a == pytest.approx(b, rel=1e-12)


def test_born_symbol_approaches_homogeneous_asymptote():
    spec = coulomb(1.0)
    ratios = []
    for r in (1e2, 1e3, 1e4):
        val = _born(spec, [0.0], [r], R=1.0)
        ratios.append(val.imag / born_symbol_tail(spec, r, 0.0))
    assert abs(ratios[-1] - 1.0) < 0.02
    # and the approach is from flattening bias shrinking with |y|
    assert abs(ratios[2] - 1.0) < abs(ratios[0] - 1.0)


def test_born_symbol_insensitive_to_energy_and_zeta_at_large_y():
    spec = coulomb(1.0)
    y = [2e3]
    base = _born(spec, [0.0], y, lam=0.0)
    shifted = _born(spec, [0.4], y, lam=0.3)
    assert abs(shifted - base) < 0.02 * abs(base)


def test_born_symbol_domain_check():
    with pytest.raises(DomainError):
        _born(coulomb(1.0), [3.0], [5.0], R=1.0)


def test_asymptote_value_and_scaling():
    # R = None leaves the asymptote -2 kappa c1 r^{1/2 - alpha} alone; R
    # adds the cutoff term 2 kappa sqrt(2 (R + lam)) r^{-alpha}
    spec = coulomb(1.0)
    asym = born_symbol_tail(spec, 1e4, 0.0)
    assert asym == pytest.approx(-2.0 * c1_constant(1.0) * 1e-2, rel=1e-13)
    r = np.array([1e4, 2e4])
    doubled, single = born_symbol_tail(homogeneous(1.0, 1.5), r, 0.0)[::-1]
    assert doubled / single == pytest.approx(2.0 ** -1.0, rel=1e-12)
    assert born_symbol_tail(spec, 1e4, 0.3, R=2.0) == pytest.approx(
        asym + 2.0 * math.sqrt(2.0 * 2.3) * 1e-4, rel=1e-13)
    with pytest.raises(DomainError, match="unless r > 0"):
        born_symbol_tail(spec, [1.0, 0.0], 0.0)
    with pytest.raises(DomainError, match="overflows at r = 1e-300"):
        born_symbol_tail(homogeneous(1.0, 2.0), [1.0, 1e-300], 0.0)


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
# transform and fit

def _spec(alpha):
    return coulomb(1.0) if alpha == 1.0 else homogeneous(1.0, alpha)


@pytest.mark.parametrize("d,alpha", [(3, 0.75), (3, 1.0), (3, 1.5),
                                     (2, 0.75), (2, 1.0), (2, 1.25),
                                     (4, 1.5)])
def test_pure_power_profile_transforms_to_the_law(d, alpha):
    # the asymptote -2 kappa c1 r^{1/2 - alpha} alone, with the bias that
    # makes the biased input constant, transforms to kappa c2 k^l at every
    # wavenumber, phase included
    kappa = 0.7
    r = np.geomspace(1e-8, 1e12, 512)
    k, t = radial_transform(r, -2.0 * kappa * c1_constant(alpha)
                            * r ** (0.5 - alpha), d,
                            bias=0.5 - alpha + (d - 1) / 2.0)
    law = kernel_singularity_law(d, alpha, kappa)
    np.testing.assert_allclose(1j * t, law.prefactor * k ** law.exponent,
                               rtol=1e-11)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gaussian_profile_transforms_to_its_closed_form(d):
    # e^{-r^2/2} transforms to (2 pi)^{(1-d)/2} e^{-k^2/2} in d - 1
    # dimensions; unlike a pure power the Gaussian has a scale, so this also
    # checks the placement of the wavenumbers
    r = np.geomspace(1e-30, 1e2, 2048)
    k, t = radial_transform(r, np.exp(-r * r / 2.0), d, bias=0.0)
    inside = (k > 1e-2) & (k < 6.0)
    np.testing.assert_allclose(
        t[inside], (2.0 * math.pi) ** ((1 - d) / 2.0)
        * np.exp(-k[inside] ** 2 / 2.0), rtol=1e-7)


@pytest.mark.parametrize("s", [2.0, 4.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_radial_transform_is_scaling_covariant(d, s):
    # on the radii s r the same profile values transform to s^{d-1} times
    # the transform on r, at the wavenumbers k / s: bitwise where s^{(d-1)/2}
    # is a power of 2, and to rounding where it is sqrt(2) or 2 sqrt(2)
    r = np.geomspace(1e-30, 1e2, 2048)
    f = np.exp(-r * r / 2.0)
    k, t = radial_transform(r, f, d, bias=0.0)
    k_s, t_s = radial_transform(s * r, f, d, bias=0.0)
    assert np.array_equal(k_s, k / s)
    if ((d - 1) * math.log2(s)) % 2 == 0:
        assert np.array_equal(t_s, s ** (d - 1) * t)
    else:
        np.testing.assert_allclose(t_s, s ** (d - 1) * t, rtol=0.0,
                                   atol=1e-12 * np.abs(s ** (d - 1) * t).max())


def _scipy_radial_transform(r, f, d, bias):
    """radial_transform by scipy.fft.fht, as the library computed it before."""
    half, mu = (d - 1) / 2.0, (d - 3) / 2.0
    dln = math.log(r[-1] / r[0]) / (r.size - 1)
    offset = scipy.fft.fhtoffset(dln, mu, bias=bias)
    k = math.exp(offset) / r[::-1]
    return k, (2.0 * math.pi * k) ** -half * scipy.fft.fht(
        f * r ** half, dln, mu, offset=offset, bias=bias)


@pytest.mark.parametrize("d,alpha", [(3, 1.0), (3, 0.75), (3, 1.5),
                                     (2, 1.0), (2, 1.25), (4, 1.5)])
def test_radial_transform_matches_scipy_fht(monkeypatch, d, alpha):
    # on the profile radial_kernel transforms, over its fit window, and on
    # the pure power, which transforms to the law at every wavenumber;
    # elsewhere the kernel's transform falls to rounding noise
    inputs = []

    def recorded(r, f, d, bias):
        inputs.append((r, f, bias))
        return radial_transform(r, f, d, bias)

    monkeypatch.setattr(kernel, "radial_transform", recorded)
    spec, extent = _spec(alpha), 1e5
    radial_kernel(spec, d, 2048, extent, 0.0, 2.0)
    r, profile, bias = inputs[0]
    k, t = radial_transform(r, profile, d, bias)
    k_ref, t_ref = _scipy_radial_transform(r, profile, d, bias)
    np.testing.assert_allclose(k, k_ref, rtol=1e-15)
    window = (k > 10.0 * 2.0 * math.pi / extent) & (k < 60.0 * 2.0 * math.pi
                                                     / extent)
    np.testing.assert_allclose(t[window], t_ref[window], rtol=1e-12)
    power, power_bias = r ** (0.5 - alpha), 0.5 - alpha + (d - 1) / 2.0
    np.testing.assert_allclose(
        radial_transform(r, power, d, power_bias)[1],
        _scipy_radial_transform(r, power, d, power_bias)[1], rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_born_tail_coefficients(alpha):
    # at large r the Born profile is a r^{1/2 - alpha} + b r^{-alpha}; a fit
    # of the two coefficients gives -2 kappa c1(alpha) and 2 kappa sqrt(2R)
    # at lam = 0, and the tail matches the profile pointwise
    spec, R = _spec(alpha), 1.05
    r = np.geomspace(1e3, 1.4e5, 40)
    profile = born_symbols(spec, [0.0], r[:, None], R=R, tol=1e-12)[0].imag
    (a, b), *_ = np.linalg.lstsq(np.column_stack([np.ones_like(r), r ** -0.5]),
                                 profile * r ** (alpha - 0.5), rcond=None)
    assert a == pytest.approx(-2.0 * c1_constant(alpha), rel=1e-8)
    assert b == pytest.approx(2.0 * math.sqrt(2.0 * R), rel=1e-6)
    np.testing.assert_allclose(born_symbol_tail(spec, r, 0.0, R), profile,
                               rtol=1e-8)


@pytest.mark.parametrize("d,alpha", [(3, 0.75), (3, 1.0), (3, 1.5),
                                     (2, 0.75), (2, 1.0), (2, 1.25)])
def test_radial_kernel_recovers_the_law(d, alpha):
    # the default run: N = 2048, extent 1e5, window (10, 60) 2 pi / extent
    law = kernel_singularity_law(d, alpha, 1.0)
    k, T = radial_kernel(_spec(alpha), d, 2048, 1e5, 0.0, 1.05)
    k_ir = 2.0 * math.pi / 1e5
    fit = fit_kernel_law(k, T, law, (10.0 * k_ir, 60.0 * k_ir))
    assert fit.exponent == pytest.approx(law.exponent, abs=1e-4)
    assert fit.prefactor_modulus == pytest.approx(abs(law.prefactor),
                                                  rel=1e-4)
    assert fit.residual_rms < 1e-8
    assert fit.half_sample_change["exponent"] < 1e-6
    # p is a stationary point of the residual sum: the Jacobian of the
    # model is orthogonal to the residuals up to rounding, and refitting
    # the linear part at p +- 1e-6 leaves a larger sum
    ks, values, p = fit.k, fit.values, fit.exponent
    sub = np.log(ks) if law.exponent == -0.5 else ks ** (law.exponent + 0.5)
    resid = fit.model / values - 1.0
    jac = np.column_stack([ks ** p, sub, np.ones_like(ks),
                           fit.prefactor_modulus * ks ** p * np.log(ks)])
    jac /= values[:, None]
    assert (np.linalg.norm(jac.T @ resid)
            < 1e-5 * np.linalg.norm(jac) * np.linalg.norm(resid))
    for q in (p - 1e-6, p + 1e-6):
        basis = np.column_stack([ks ** q, sub, np.ones_like(ks)])
        basis /= values[:, None]
        coef = np.linalg.lstsq(basis, np.ones_like(ks), rcond=None)[0]
        moved = basis @ coef - 1.0
        assert moved @ moved > resid @ resid
    if alpha == 1.0:
        # the cutoff term c_R / |y| transforms to -c_R / (2 pi k) in the
        # plane and to (c_R / pi) log k on the line, c_R = 2 sqrt(2 R)
        c_R = 2.0 * math.sqrt(2.0 * 1.05)
        expected = -c_R / (2.0 * math.pi) if d == 3 else c_R / math.pi
        assert fit.subleading == pytest.approx(expected, rel=1e-3)


# at l = -1/2 the power k^{-0.2} is close to a combination of log k and 1
# over the window, which widens the error of p
@pytest.mark.parametrize("ell, offset, most_stderr", [
    (-1.5, 0.01, 1e-4), (-0.5, 0.01, 1e-4), (-1.5, 0.3, 1e-4),
    (-1.5, -0.3, 1e-4), (-0.5, 0.3, 1e-3), (-0.5, -0.3, 1e-4),
], ids=["-1.5", "-0.5", "-1.5+0.3", "-1.5-0.3", "-0.5+0.3", "-0.5-0.3"])
def test_fit_recovers_an_exponent_off_the_law(ell, offset, most_stderr):
    # synthetic |T| whose leading power is 0.01 or 0.3 off the law's, with
    # the subleading term of each case (k^{l + 1/2}, or log k at l = -1/2)
    # and 1e-6 relative noise: p is fitted, not snapped to l, and lies
    # within four standard errors of the truth
    law = KernelLaw(prefactor=-0.4j, exponent=ell)
    k = np.geomspace(1e-4, 1e-2, 120)
    sub = np.log(k) if ell == -0.5 else k ** (ell + 0.5)
    truth = 0.4 * k ** (ell + offset) - 0.46 * sub + 0.2
    noise = 1.0 + 1e-6 * np.random.default_rng(5).standard_normal(k.size)
    fit = fit_kernel_law(k, truth * noise, law, (6e-4, 3.8e-3))
    assert 0.0 < fit.exponent_stderr < most_stderr
    assert abs(fit.exponent - (ell + offset)) < 4.0 * fit.exponent_stderr
    assert abs(fit.prefactor_modulus - 0.4) < 4.0 * fit.prefactor_stderr
    assert abs(fit.subleading + 0.46) < 4.0 * fit.subleading_stderr


def test_fit_does_not_depend_on_the_scale_of_T():
    # the fit is relative to |T|: at 1e-300 times the samples the columns
    # divided by |T| would overflow, and p and the standard errors must
    # come out as at scale 1
    law = KernelLaw(prefactor=-0.4j, exponent=-1.5)
    k = np.geomspace(1e-4, 1e-2, 120)
    truth = 0.4 * k ** -1.49 - 0.46 * k ** -1.0 + 0.2
    truth *= 1.0 + 1e-6 * np.random.default_rng(5).standard_normal(k.size)
    fits = [fit_kernel_law(k, scale * truth, law, (6e-4, 3.8e-3))
            for scale in (1.0, 1e-300)]
    assert fits[1].exponent == pytest.approx(fits[0].exponent, abs=1e-12)
    assert fits[1].exponent_stderr == pytest.approx(fits[0].exponent_stderr,
                                                    rel=1e-6)
    assert fits[1].prefactor_modulus == pytest.approx(
        1e-300 * fits[0].prefactor_modulus, rel=1e-12)


@pytest.mark.parametrize("offset", [0.8, -0.8])
@pytest.mark.parametrize("ell", [-1.5, -0.5])
def test_fit_outside_its_bracket_raises(ell, offset):
    # a leading power 0.8 off the law's lies outside (l - 1/2, l + 1/2),
    # where the fit does not follow it
    k = np.geomspace(6e-4, 3.8e-3, 60)
    sub = np.log(k) if ell == -0.5 else k ** (ell + 0.5)
    with pytest.raises(ConvergenceError, match="kernel fit"):
        kernel._fit_powers(k, 0.4 * k ** (ell + offset) - 0.46 * sub + 0.2,
                           ell)


def test_fit_window_validation():
    law = kernel_singularity_law(3, 1.0, 1.0)
    k, T = radial_kernel(coulomb(1.0), 3, 256, 1e5, 0.0, 1.05)
    with pytest.raises(ConfigError):
        fit_kernel_law(k, T, law, (k[0] / 2, k[10]))
    with pytest.raises(ConfigError):  # fewer than 10 samples
        fit_kernel_law(k, T, law, (k[100], k[105]))


def test_cmd_kernel_memory(tmp_path):
    # the Born profile is evaluated in row blocks, so the peak does not grow
    # with the number of radii
    import tracemalloc
    for n in (2048, 8192):
        cfg = load_config(None, ["--dimension=3", f"--output_dir={tmp_path}",
                                 f"--kernel.n={n}"])
        tracemalloc.start()
        try:
            summary = cmd_kernel(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, n
        assert summary["fitted_exponent"] == pytest.approx(-1.5, abs=1e-4)
