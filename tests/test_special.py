"""The Airy function and the closed-form kernel constants.

The oracles are 30-digit mpmath references, closed forms and scipy quad.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from starkscatter import DomainError, airy_ai, c1_constant, c2_constant
from starkscatter.special import c2_constant_from_c1, loggamma


# ---------------------------------------------------------------------------
# airy

def test_airy_value_at_zero():
    exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert airy_ai(0.0) == pytest.approx(exact, rel=1e-12)


def test_airy_decays_on_positive_axis():
    assert 0.0 < airy_ai(10.0) < 1e-9
    assert airy_ai(30.0) < airy_ai(10.0)


def test_airy_ode_residual():
    # Ai'' = u Ai via fourth-order central differences
    h = 1e-2
    for u in np.linspace(-5.0, 5.0, 41):
        u = float(u)
        vals = [airy_ai(u + k * h) for k in (-2, -1, 0, 1, 2)]
        second = (-vals[0] + 16 * vals[1] - 30 * vals[2]
                  + 16 * vals[3] - vals[4]) / (12.0 * h * h)
        assert second == pytest.approx(u * airy_ai(u), abs=1e-6)


def test_airy_against_mpmath():
    # 30-digit reference on [-15, 15], with extra points around |u| = 6.5
    us = np.concatenate([np.linspace(-15.0, 15.0, 301),
                         np.linspace(6.3, 6.7, 81), np.linspace(-6.7, -6.3, 41)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(float(u))) for u in us])
    err = np.abs(np.array([airy_ai(float(u)) for u in us]) - ref)
    assert np.max(err) <= 1.5e-11
    assert np.max(err[np.abs(us) > 6.5]) <= 1e-11


def test_airy_relative_accuracy_against_mpmath():
    # on the decaying side Ai falls to 1e-15 by u = 15, where absolute
    # accuracy alone would not see a loss of digits; the extra points sit
    # around u = 6.5, where an earlier series/asymptotic split lost them
    us = np.concatenate([np.linspace(-15.0, 15.0, 301),
                         np.linspace(6.3, 6.7, 41)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(float(u))) for u in us])
    ai = airy_ai(us)
    assert np.max(np.abs(ai - ref)) <= 1e-13
    assert np.max(np.abs(ai / ref - 1.0)[us >= 0.0]) <= 1e-12


def test_airy_array_call_equals_scalar_calls():
    us = np.random.default_rng(3).uniform(-20.0, 20.0, (7, 9))
    batch = airy_ai(us)
    assert batch.shape == us.shape
    assert np.array_equal(batch, [[airy_ai(float(u)) for u in row]
                                  for row in us])
    assert type(airy_ai(1.5)) is float


def test_airy_rejects_nonfinite():
    with pytest.raises(DomainError):
        airy_ai(float("nan"))


def test_airy_rejects_a_nonfinite_array_entry():
    with pytest.raises(DomainError):
        airy_ai(np.array([0.0, 1.0, np.inf]))


def test_airy_rejects_an_argument_whose_phase_overflows():
    assert math.isfinite(airy_ai(-1e205))
    with pytest.raises(DomainError, match="overflows"):
        airy_ai(np.array([0.0, -1e300]))


def _mp_airy(us):
    with mpmath.workdps(30):
        return np.array([float(mpmath.airyai(float(u))) for u in us])


def test_airy_against_mpmath_across_every_switch():
    # Taylor series about anchors 0.25 apart serve |u| <= 10, each within
    # 0.125 of its anchor, and the asymptotic series serve |u| > 10: both
    # sides of every switch, and [-30, 30] between them, to within a few
    # roundings of zeta = 2/3 |u|^{3/2} (1e-14 relative at u = 30)
    switches = np.concatenate([np.arange(-9.875, 9.9, 0.25), [-10.0, 10.0]])
    us = np.concatenate([np.linspace(-30.0, 30.0, 1201), switches,
                         switches - 1e-9, switches + 1e-9])
    ai = airy_ai(us)
    ref = _mp_airy(us)
    assert np.max(np.abs(ai - ref)) <= 2e-14
    assert np.max(np.abs(ai / ref - 1.0)[us >= 0.0]) <= 1e-13


def test_airy_far_out_is_finite_without_a_warning():
    # filterwarnings = error makes any floating-point warning fail the test;
    # Ai(100) = 2.6e-291 is still a normal double, and Ai underflows to 0
    # well before |u|^{3/2} overflows
    far = airy_ai(np.array([100.0, -100.0, 1000.0, 1e300]))
    ref = _mp_airy([100.0, -100.0])
    assert np.all(np.isfinite(far))
    assert abs(far[0] / ref[0] - 1.0) <= 1e-12
    assert abs(far[1] - ref[1]) <= 1e-13
    assert np.all(far[2:] == 0.0)


@pytest.mark.parametrize("re", [0.125, 0.25, 0.75, 1.0])
def test_loggamma_against_mpmath(re):
    # Re z of the FFTLog's Gamma arguments, Im z up to 500, and both sides
    # of |z| = 16, below which the argument is shifted up by 16
    edge = math.sqrt(256.0 - re * re)
    im = np.concatenate([np.linspace(0.0, 500.0, 501), [edge - 1e-9, edge,
                         edge + 1e-9], -np.geomspace(1e-3, 500.0, 21)])
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.loggamma(mpmath.mpc(re, float(y))))
                        for y in im])
    got = loggamma(re + 1j * im)
    assert np.all(np.abs(got - ref) <= 5e-14 * np.maximum(1.0, np.abs(ref)))
    assert type(loggamma(re)) is complex


@pytest.mark.parametrize("z", [0.0, -0.5 + 2j, 1j, complex("nan")])
def test_loggamma_outside_the_right_half_plane_is_a_domain_error(z):
    with pytest.raises(DomainError):
        loggamma(np.array([1.0, z]))


# ---------------------------------------------------------------------------
# kernel constants

def test_c1_closed_form_values():
    assert c1_constant(2.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert c1_constant(1.0) == pytest.approx(
        2.0 ** -1.5 * math.gamma(0.25) * math.gamma(0.25) / math.gamma(0.5),
        rel=1e-12)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.0, 3.0])
def test_c1_against_quadrature(alpha):
    # head on [0, 1]; tail mapped to [0, 1] by t = 1/u so the slow algebraic
    # decay at infinity becomes an integrable endpoint singularity
    head, _ = quad(lambda t: (t + 1.0) ** (-alpha / 2.0) * t ** (-0.75),
                   0.0, 1.0, limit=400)
    tail, _ = quad(lambda u: (1.0 + u) ** (-alpha / 2.0)
                   * u ** (alpha / 2.0 - 1.25), 0.0, 1.0, limit=400)
    assert c1_constant(alpha) == pytest.approx(
        2.0 ** -1.5 * (head + tail), rel=1e-8)


def test_c1_alternative_integral_form():
    # substitution t = s^2 gives integral of (s^2+1)^{-alpha/2} / sqrt(2 s)
    alpha = 1.3
    val, _ = quad(lambda s: (s * s + 1.0) ** (-alpha / 2.0)
                  / math.sqrt(2.0 * s), 0.0, np.inf, limit=400)
    assert c1_constant(alpha) == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0, 1.5, 2.0, 3.0, 10.0])
def test_c1_against_mpmath(alpha):
    # 2^{-3/2} B(1/4, alpha/2 - 1/4), the beta-integral form of c1, at 30 digits
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        ref = float(mpmath.beta(0.25, a / 2 - 0.25) / mpmath.mpf(2) ** 1.5)
    assert abs(c1_constant(alpha) / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_c2_against_mpmath(d):
    for alpha in np.linspace(0.55, d - 0.55, 9):
        with mpmath.workdps(30):
            a = mpmath.mpf(float(alpha))
            ref = float((2 * mpmath.pi) ** (mpmath.mpf(1 - d) / 2)
                        * mpmath.mpf(2) ** (mpmath.mpf(d - 1) / 2 - a)
                        * mpmath.gamma(0.25)
                        * mpmath.gamma(mpmath.mpf(d) / 2 - 0.25 - a / 2)
                        / mpmath.gamma(a / 2))
        for route in (c2_constant, c2_constant_from_c1):
            value = route(d, float(alpha))
            assert value.real == 0.0
            assert abs(-value.imag / ref - 1.0) <= 1e-14


def test_constant_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="alpha = 400"):
        c1_constant(400.0)
    for route in (c2_constant, c2_constant_from_c1):
        with pytest.raises(DomainError, match="d = 400, alpha = 1.0"):
            route(400, 1.0)


def test_c1_domain():
    with pytest.raises(DomainError):
        c1_constant(0.5)


def test_c2_coulomb_three_dimensions():
    assert c2_constant(3, 1.0) == pytest.approx(
        -1j / math.sqrt(2.0 * math.pi), abs=1e-14)


def test_c2_is_negative_imaginary_for_small_alpha():
    val = c2_constant(2, 1.0)
    assert val.real == 0.0
    assert val.imag < 0.0


def test_c2_two_routes_agree():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.55, d - 0.55))
        a = c2_constant(d, alpha)
        b = c2_constant_from_c1(d, alpha)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_c2_domain():
    with pytest.raises(DomainError):
        c2_constant(3, 2.5)
    with pytest.raises(DomainError):
        c2_constant(1, 0.8)
    with pytest.raises(DomainError):
        c2_constant(2, 0.5)
