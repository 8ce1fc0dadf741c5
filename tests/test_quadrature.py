"""The panel refinement loop, the shared log-log least-squares fit and the
one-dimensional minimiser."""

import math
import statistics

import numpy as np
import pytest

from starkscatter import BudgetError
from starkscatter.quadrature import (MAX_PANELS, brent_minimum, converge,
                                     half_line, loglog_fit, panels)


def test_plain_panels_converge_on_an_oscillatory_integral():
    # int_0^1 cos(w s) ds = sin(w) / w, for a batch of frequencies
    w = np.array([1.0, 40.0, 400.0])
    value, change = converge(lambda r: np.cos(w[:, None] * r.t) @ r.w,
                             panels, 1e-13, "test", "cos")
    assert np.allclose(value, np.sin(w) / w, rtol=0.0, atol=1e-14)
    assert np.all(change <= 1e-13)


def test_half_line_rule_integrates_a_power_law():
    # int_0^inf c^2 / (t + c)^3 dt = 1/2 for every scale c
    scale = np.array([0.1, 1.0, 30.0])
    value, _ = converge(lambda r: np.sum(scale[:, None] ** 2
                                         / (r.t + scale[:, None]) ** 3
                                         * r.w, axis=-1),
                        half_line(scale, 1), 1e-13, "test", "power")
    assert np.allclose(value, 0.5, rtol=1e-13, atol=0.0)


def test_panel_cap_raises_budget_error():
    seen = []

    def one_pass(rule):
        seen.append(rule.t.size)
        return np.cos(1e4 * rule.t) @ rule.w

    with pytest.raises(BudgetError):
        converge(one_pass, panels, 1e-12, "test", "cos")
    assert seen[-1] == 16 * MAX_PANELS


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


# at most 60 evaluations, about what golden-section steps alone take on these
# brackets (2 + ceil(log(1e-12 / width) / log 0.618), 60 or 61); at most 40
# where parabolic steps fit
@pytest.mark.parametrize("f, lo, hi, xmin, most_calls", [
    # minima that rounding resolves: the value at the minimum is 0
    (lambda x: (x - math.log(2.0)) ** 2, 0.0, 2.0, math.log(2.0), 40),
    (lambda x: (x - 1.2) ** 4, 0.0, 2.0, 1.2, 40),
    # parabolas do not fit a kink, nor a minimum at the end of the bracket:
    # golden-section steps carry the search there
    (lambda x: abs(math.sin(x - 1.0 / 3.0)) * math.exp(x), -0.4, 1.5,
     1.0 / 3.0, 60),
    (lambda x: math.exp(-x), 0.5, 1.5, 1.5, 60),
], ids=["quadratic", "quartic", "kink", "bracket-end"])
def test_brent_minimum_finds_the_minimum_to_tol(f, lo, hi, xmin, most_calls):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x = brent_minimum(counted, lo, hi, 1e-12)
    assert abs(x - xmin) <= 1e-12
    assert all(lo <= c <= hi for c in calls)
    assert len(calls) <= most_calls
