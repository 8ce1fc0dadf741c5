"""The panel refinement loop, the shared log-log least-squares fit and the
one-dimensional minimiser."""

import math
import statistics

import numpy as np
import pytest

from starkscatter import BudgetError, DomainError, quadrature
from starkscatter.quadrature import (MAX_PANELS, brent_minimum, converge,
                                     half_line, loglog_fit, panels)


def test_gauss_rule_is_numpys_bitwise():
    # numpy.polynomial is the oracle only: the library holds the rule
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(quadrature._GL_NODES, nodes)
    assert np.array_equal(quadrature._GL_WEIGHTS, weights)


def test_tail_matrix_against_legendre_integration():
    # the integral over [node j, 1] of node i's Lagrange polynomial, from
    # its Legendre coefficients, which the Gauss rule gives exactly
    leg = np.polynomial.legendre
    nodes, weights = leg.leggauss(16)
    coef = leg.legvander(nodes, 15).T * weights * (np.arange(16) + 0.5)[:, None]
    ref = -leg.legval(nodes, leg.legint(coef, lbnd=1.0)).T
    assert np.max(np.abs(quadrature._GL_TAIL - ref)) <= 1e-15


def test_running_integrals_on_panels_of_unequal_width():
    # f = (c_0 .. c_15) in Legendre terms on each of three panels, of
    # widths 2, -0.5 (backward) and 1e-3, and two columns: the integrals
    # from each panel's start are the Legendre antiderivative's, the last
    # coefficient is c_15
    leg = np.polynomial.legendre
    nodes = quadrature._GL_NODES
    half = np.array([[1.0], [-0.25], [5e-4]])
    coef = np.random.default_rng(3).normal(size=(3, 2, 16))
    f = np.stack([[leg.legval(nodes, c) for c in panel] for panel in coef])
    head, whole, last = quadrature.running(np.moveaxis(f, -1, 0), half)
    anti = np.stack([[leg.legval(np.append(nodes, 1.0),
                                 leg.legint(c, lbnd=-1.0)) for c in panel]
                     for panel in coef]) * half[:, :, None]
    assert np.max(np.abs(head - np.moveaxis(anti[..., :16], -1, 0))) <= 1e-14
    assert np.max(np.abs(whole - anti[..., 16])) <= 1e-14
    assert np.max(np.abs(last - coef[..., 15])) <= 1e-13


def test_running_rows_at_any_point_of_a_panel():
    # the integrals from -1 to s of the node values' interpolant, against
    # the Legendre antiderivative of its coefficients; at the nodes and at
    # the ends they are the rows `running` applies
    leg = np.polynomial.legendre
    nodes, weights = leg.leggauss(16)
    coef = leg.legvander(nodes, 15).T * weights * (np.arange(16) + 0.5)[:, None]
    s = np.concatenate([[-1.0, 1.0], np.random.default_rng(5).uniform(
        -1.0, 1.0, 500)])
    ref = leg.legval(s, leg.legint(coef, lbnd=-1.0)).T
    rows = quadrature.running_rows(s)
    assert rows.shape == (502, 16)
    assert np.max(np.abs(rows - ref)) <= 1e-15
    at_nodes = quadrature.running_rows(nodes)
    assert np.max(np.abs(at_nodes - quadrature._GL_RUNNING[:16])) <= 1e-15
    assert np.max(np.abs(rows[1] - quadrature._GL_RUNNING[16])) <= 1e-15


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


@pytest.mark.parametrize("x, y", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
    ([2.0], [3.0]),
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    ([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, -2.0, 3.0]),
    ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0, math.inf]),
    ([-math.inf, 2.0, 3.0], [1.0, 2.0, 3.0]),
], ids=["equal-x", "one-point", "x-zero", "x-negative", "y-zero",
        "y-negative", "x-inf", "y-nan", "x-nan", "y-inf", "x-minus-inf"])
def test_loglog_fit_rejects_what_it_cannot_fit(x, y):
    with pytest.raises(DomainError):
        loglog_fit(x, y)


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
