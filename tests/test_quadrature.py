"""The shared log-log least-squares fit."""

import math
import statistics

import numpy as np
import pytest

from starkscatter.quadrature import loglog_fit


def test_loglog_fit_against_stdlib_regression():
    rng = np.random.default_rng(5)
    x = np.geomspace(1.0, 1e4, 25)
    y = 3.0 * x ** -1.5 * np.exp(rng.normal(0.0, 0.05, x.size))
    slope, intercept, slope_err, intercept_err = loglog_fit(x, y)

    # oracle: stdlib regression and the textbook standard errors
    lx = [math.log(v) for v in x.tolist()]
    ly = [math.log(v) for v in y.tolist()]
    ref = statistics.linear_regression(lx, ly)
    n, mean = len(lx), statistics.fmean(lx)
    sxx = sum((a - mean) ** 2 for a in lx)
    s2 = sum((b - ref.intercept - ref.slope * a) ** 2
             for a, b in zip(lx, ly)) / (n - 2)
    assert slope == pytest.approx(ref.slope, rel=1e-12)
    assert intercept == pytest.approx(ref.intercept, rel=1e-12)
    assert slope_err == pytest.approx(math.sqrt(s2 / sxx), rel=1e-9)
    assert intercept_err == pytest.approx(
        math.sqrt(s2 * (1.0 / n + mean ** 2 / sxx)), rel=1e-9)
    assert 0.0 < slope_err < 0.05


def test_loglog_fit_of_an_exact_power_law():
    x = np.geomspace(1.0, 100.0, 9)
    slope, intercept, slope_err, intercept_err = loglog_fit(x, 3.0 * x ** -1.5)
    assert slope == pytest.approx(-1.5, abs=1e-14)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-14)
    # zero up to rounding
    assert slope_err < 1e-14 and intercept_err < 1e-14


def test_loglog_fit_of_two_points_has_no_error_estimate():
    slope, intercept, slope_err, intercept_err = loglog_fit([1.0, 4.0],
                                                            [2.0, 8.0])
    assert slope == pytest.approx(1.0, rel=1e-14)
    assert intercept == pytest.approx(math.log(2.0), rel=1e-14)
    assert slope_err == 0.0 and intercept_err == 0.0
