"""Gamma/Airy implementations and the closed-form kernel constants."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from starkscatter import DomainError, airy_ai, c1_constant, c2_constant, gamma_fn
from starkscatter.special import c2_constant_from_c1


# ---------------------------------------------------------------------------
# gamma

def test_gamma_known_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_quarter_against_quadrature():
    # independent integral representation of Gamma(1/4)
    val, _ = quad(lambda t: t ** (-0.75) * math.exp(-t), 0.0, np.inf, limit=200)
    assert gamma_fn(0.25) == pytest.approx(val, rel=1e-10)
    assert gamma_fn(0.25) == pytest.approx(3.6256099082, rel=1e-9)


def test_gamma_against_stdlib():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(0.05, 50.0)
        assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)


def test_gamma_reflection_formula():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-9.95, 0.45)
        if abs(x - round(x)) < 0.05:
            continue
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_gamma_recurrence():
    for x in np.linspace(0.1, 20.0, 64):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_gamma_poles_raise():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(DomainError):
            gamma_fn(x)


# ---------------------------------------------------------------------------
# airy

def test_airy_value_at_zero():
    exact = 3.0 ** (-2.0 / 3.0) / gamma_fn(2.0 / 3.0)
    assert airy_ai(0.0) == pytest.approx(exact, rel=1e-12)


def test_airy_against_scipy():
    for u in np.linspace(-20.0, 20.0, 401):
        assert airy_ai(float(u)) == pytest.approx(
            float(scipy.special.airy(u)[0]), abs=1e-10)


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


def test_airy_branch_crossover_is_seamless():
    # both branches are exercised near the crossover; values stay smooth
    for u0 in (6.5, -6.5):
        vals = np.array([airy_ai(u0 + s) for s in np.linspace(-0.2, 0.2, 81)])
        ref = np.array([float(scipy.special.airy(u0 + s)[0])
                        for s in np.linspace(-0.2, 0.2, 81)])
        np.testing.assert_allclose(vals, ref, atol=1e-10)


def test_airy_against_mpmath():
    # 30-digit reference on [-15, 15], finely through both sides of the
    # series/asymptotic crossover at |u| = 6.5.  The worst point is on the
    # series side, 1.02e-11 at u = 6.484: Ai is 2.9e-6 there and the
    # series' cancellation leaves a relative error of 3.5e-6
    us = np.concatenate([np.linspace(-15.0, 15.0, 301),
                         np.linspace(6.3, 6.7, 81), np.linspace(-6.7, -6.3, 41)])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.airyai(float(u))) for u in us])
    err = np.abs(np.array([airy_ai(float(u)) for u in us]) - ref)
    assert np.max(err) <= 1.5e-11
    assert np.max(err[np.abs(us) > 6.5]) <= 1e-11


def test_airy_rejects_nonfinite():
    with pytest.raises(DomainError):
        airy_ai(float("nan"))


# ---------------------------------------------------------------------------
# kernel constants

def test_c1_closed_form_values():
    assert c1_constant(2.0) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert c1_constant(1.0) == pytest.approx(
        2.0 ** -1.5 * gamma_fn(0.25) * gamma_fn(0.25) / gamma_fn(0.5),
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
