"""Parabolic coordinates, the phase f^3/3 and the exact eikonal phase."""

import math

import numpy as np
import pytest

from starkscatter import (
    DomainError,
    eikonal_residual,
    jacobian_det,
    theta1_calculus,
    theta1_value,
    theta_calculus,
    to_parabolic,
)
from starkscatter.parabolic import (
    grad_f,
    grad_g,
    mollifier,
    mollifier_deriv,
    theta1_minus_theta,
    theta_laplacian,
)


def _random_identity_points(rng, n, d=2):
    pts = []
    while len(pts) < n:
        x = 10.0 ** rng.uniform(0.3, 5.0)
        y = rng.uniform(-0.6, 0.6, size=d - 1) * x
        r = math.hypot(x, float(np.linalg.norm(y)))
        if r + x > 2.5:
            pts.append((x, y, r))
    return pts


# ---------------------------------------------------------------------------
# coordinates

def test_to_parabolic_example():
    p = to_parabolic(3.0, [4.0])
    assert p.f == pytest.approx(math.sqrt(8.0), rel=1e-14)
    np.testing.assert_allclose(p.g, [math.sqrt(2.0)], rtol=1e-14)


def test_to_parabolic_on_negative_axis():
    # r + x = 0 there, so the mollifier pins f to 1
    p = to_parabolic(-5.0, [0.0])
    assert p.f == 1.0
    np.testing.assert_allclose(p.g, [0.0])


def test_coordinate_identities():
    rng = np.random.default_rng(10)
    for x, y, r in _random_identity_points(rng, 500, d=3):
        p = to_parabolic(x, y)
        g_sq = float(p.g @ p.g)
        assert p.f ** 2 + g_sq == pytest.approx(2.0 * r, rel=1e-12)
        assert p.f ** 2 - g_sq == pytest.approx(2.0 * x, rel=1e-11, abs=1e-11)
        assert p.f * np.linalg.norm(p.g) == pytest.approx(
            np.linalg.norm(y), rel=1e-12)


def test_gradient_identities():
    # 2 r |grad f|^2 = 1 and grad f . grad g_i = 0 in the identity regime
    rng = np.random.default_rng(11)
    for x, y, r in _random_identity_points(rng, 200, d=3):
        gf = grad_f(x, y)
        assert 2.0 * r * float(gf @ gf) == pytest.approx(1.0, rel=1e-12)
        gg = grad_g(x, y)
        for i in range(gg.shape[0]):
            assert float(gf @ gg[i]) == pytest.approx(0.0, abs=1e-12)


def test_grad_f_matches_finite_differences():
    rng = np.random.default_rng(12)
    for x, y, r in _random_identity_points(rng, 50, d=2):
        gf = grad_f(x, y)
        h = 1e-6 * max(1.0, r)
        fd = np.empty(2)
        fd[0] = (to_parabolic(x + h, y).f - to_parabolic(x - h, y).f) / (2 * h)
        fd[1] = (to_parabolic(x, y + h).f - to_parabolic(x, y - h).f) / (2 * h)
        np.testing.assert_allclose(gf, fd, rtol=1e-6, atol=1e-10)


def test_f_squared_is_convex():
    # f^2 = mollify(r + x): second differences along random lines stay
    # nonnegative, including across the blend interval
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.uniform(-10.0, 10.0)
        y = rng.uniform(-10.0, 10.0, size=2)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        h = 1e-3

        def f2(s):
            return to_parabolic(x + s * u[0], y + s * u[1:]).f ** 2

        second = (f2(h) - 2.0 * f2(0.0) + f2(-h)) / (h * h)
        assert second > -1e-5


def test_mollifier_plateau_identity_and_smoothness():
    assert mollifier(0.2) == 1.0
    assert mollifier(3.0) == 3.0
    assert mollifier_deriv(0.2) == 0.0
    assert mollifier_deriv(3.0) == 1.0
    # C^1 match of the tabulated derivative across the blend
    for t in np.linspace(0.4, 1.6, 61):
        h = 1e-6
        fd = (mollifier(t + h) - mollifier(t - h)) / (2 * h)
        assert fd == pytest.approx(mollifier_deriv(float(t)), abs=1e-8)
    # convexity of the blend
    for t in np.linspace(0.45, 1.55, 45):
        h = 1e-4
        second = (mollifier(t + h) - 2 * mollifier(t) + mollifier(t - h)) / h ** 2
        assert second > -1e-6


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_examples():
    assert jacobian_det(3.0, [4.0], 2) == pytest.approx(0.1, rel=1e-13)
    assert jacobian_det(3.0, [4.0, 0.0], 3) == pytest.approx(
        8.0 ** -0.5 / 10.0, rel=1e-13)


def test_jacobian_closed_form_identity():
    rng = np.random.default_rng(14)
    for x, y, r in _random_identity_points(rng, 200, d=3):
        p = to_parabolic(x, y)
        jac = jacobian_det(x, y)
        assert jac * p.f ** (p.d - 2) * (p.f ** 2 + float(p.g @ p.g)) == \
            pytest.approx(1.0, rel=1e-12)


def test_jacobian_matches_numeric_determinant():
    rng = np.random.default_rng(15)
    for x, y, r in _random_identity_points(rng, 50, d=2):
        h = 1e-6 * max(1.0, r)
        cols = []
        for j in range(2):
            dx = h if j == 0 else 0.0
            dy = np.array([h]) if j == 1 else np.array([0.0])
            pp = to_parabolic(x + dx, y + dy)
            pm = to_parabolic(x - dx, y - dy)
            cols.append([(pp.f - pm.f) / (2 * h),
                         float(pp.g[0] - pm.g[0]) / (2 * h)])
        num = abs(np.linalg.det(np.array(cols).T))
        assert jacobian_det(x, y) == pytest.approx(num, rel=1e-6)


def test_jacobian_dimension_check():
    with pytest.raises(DomainError):
        jacobian_det(3.0, [4.0], 3)


def test_jacobian_outside_identity_regime():
    with pytest.raises(DomainError):
        jacobian_det(-5.0, [0.1])


# ---------------------------------------------------------------------------
# the phase f^3/3

def test_theta_value_and_laplacian_example():
    data = theta_calculus(3.0, [4.0])
    f = math.sqrt(8.0)
    assert data.value == pytest.approx(f ** 3 / 3.0, rel=1e-13)
    assert data.laplacian == pytest.approx(f / 5.0, rel=1e-13)
    d3 = theta_calculus(3.0, [4.0, 0.0])
    assert d3.laplacian == pytest.approx(1.5 * f / 5.0, rel=1e-13)


def test_theta_gradient_and_hessian_by_finite_differences():
    rng = np.random.default_rng(16)
    for x, y, r in _random_identity_points(rng, 30, d=3):
        data = theta_calculus(x, y)
        h = 1e-5 * max(1.0, r)

        def value(dx, dy):
            return theta_calculus(x + dx, y + dy).value

        d = 1 + y.size
        for j in range(d):
            dx = h if j == 0 else 0.0
            dy = np.zeros(y.size)
            if j > 0:
                dy[j - 1] = h
            fd = (value(dx, dy) - value(-dx, -dy)) / (2 * h)
            assert fd == pytest.approx(data.gradient[j], rel=1e-7, abs=1e-9)

        num_hess = np.empty((d, d))
        for j in range(d):
            dx = h if j == 0 else 0.0
            dy = np.zeros(y.size)
            if j > 0:
                dy[j - 1] = h
            gp = theta_calculus(x + dx, y + dy).gradient
            gm = theta_calculus(x - dx, y - dy).gradient
            num_hess[:, j] = (gp - gm) / (2 * h)
        np.testing.assert_allclose(data.hessian, num_hess,
                                   rtol=1e-5, atol=1e-9)
        assert data.laplacian == pytest.approx(np.trace(data.hessian),
                                               rel=1e-12)


# ---------------------------------------------------------------------------
# the exact eikonal phase

def test_theta1_on_axis():
    x = 7.0
    data = theta1_calculus(x, [0.0])
    assert data.value == pytest.approx((2.0 * x) ** 1.5 / 3.0, rel=1e-13)
    np.testing.assert_allclose(data.gradient, [math.sqrt(2.0 * x), 0.0],
                               rtol=1e-13)


def test_eikonal_equation_residual():
    rng = np.random.default_rng(17)
    for _ in range(500):
        x = 10.0 ** rng.uniform(1.0, 6.0)
        y = rng.uniform(-0.1, 0.1, size=2) * x / math.sqrt(2.0)
        assert abs(eikonal_residual(x, y)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_batched_phase_functions_match_scalar_calls(d):
    # the eikonal sweep's batched calls against one call per point
    rng = np.random.default_rng(19 + d)
    x = 10.0 ** rng.uniform(1.0, 6.0, size=400)
    y = rng.uniform(-0.5, 0.5, size=(400, d - 1)) * x[:, None]
    res = eikonal_residual(x, y)
    assert np.max(np.abs(res)) <= 1e-10
    np.testing.assert_array_max_ulp(
        res, [eikonal_residual(a, b) for a, b in zip(x, y)], maxulp=4)
    np.testing.assert_array_max_ulp(
        jacobian_det(x, y, d), [jacobian_det(a, b, d) for a, b in zip(x, y)],
        maxulp=4)
    np.testing.assert_array_max_ulp(
        theta_laplacian(x, y, d),
        [theta_calculus(a, b, d).laplacian for a, b in zip(x, y)], maxulp=4)


@pytest.mark.parametrize("d", [2, 3])
def test_batched_coordinates_equal_scalar_calls_bitwise(d):
    # rows of the batched to_parabolic, grad_f and mollifier against one
    # call per point, in the identity regime, on the plateau r + x < 1/2
    # and inside the blend interval 1/2 < r + x < 3/2
    rng = np.random.default_rng(40 + d)
    n = 300
    x = 10.0 ** rng.uniform(0.5, 4.0, size=n)
    y = rng.uniform(-0.5, 0.5, size=(n, d - 1)) * x[:, None]
    # r + x = t for |y| = rho when x = (t^2 - rho^2) / (2 t)
    t = rng.uniform(0.5, 1.5, size=n)
    rho = rng.uniform(0.0, 5.0, size=n)
    yb = rng.normal(size=(n, d - 1))
    yb *= (rho / np.linalg.norm(yb, axis=1))[:, None]
    x = np.concatenate([x, (t * t - rho * rho) / (2.0 * t), -x])
    y = np.concatenate([y, yb, 0.1 * y])
    s = np.hypot(x, np.linalg.norm(y, axis=1)) + x
    assert np.count_nonzero((s > 0.5) & (s < 1.5)) > n // 2
    assert np.count_nonzero(s < 0.5) > n // 2

    p = to_parabolic(x, y)
    gf = grad_f(x, y)
    for k in range(x.size):
        q = to_parabolic(float(x[k]), y[k])
        assert type(q.f) is float and q.d == d
        assert q.f == p.f[k]
        np.testing.assert_array_equal(q.g, p.g[k], strict=True)
        np.testing.assert_array_equal(grad_f(float(x[k]), y[k]), gf[k],
                                      strict=True)
    # f is constant near the origin, where r = 0
    np.testing.assert_array_equal(grad_f(0.0, np.zeros(d - 1)), np.zeros(d))
    m = mollifier(s)
    assert m.shape == s.shape
    for k in range(s.size):
        assert mollifier(float(s[k])) == m[k]


def test_batched_caustic_and_regime_inputs_raise():
    x = np.array([10.0, 5.0])
    with pytest.raises(DomainError):
        eikonal_residual(x, np.array([[1.0], [6.0]]))
    with pytest.raises(DomainError):
        eikonal_residual(np.array([10.0, -1.0]), np.zeros((2, 1)))
    with pytest.raises(DomainError):
        jacobian_det(np.array([10.0, -5.0]), np.array([[1.0], [0.1]]))
    with pytest.raises(DomainError):
        theta_laplacian(x, np.zeros((2, 2)), 2)


def test_theta1_gradient_solves_eikonal_directly():
    rng = np.random.default_rng(18)
    for _ in range(100):
        x = 10.0 ** rng.uniform(0.5, 3.0)
        y = np.array([rng.uniform(-0.3, 0.3) * x])
        g = theta1_calculus(x, y).gradient
        assert 0.5 * float(g @ g) == pytest.approx(x, rel=1e-11)


def test_theta1_hessian_by_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(30):
        x = 10.0 ** rng.uniform(1.0, 3.0)
        y = rng.uniform(-0.2, 0.2, size=2) * x / math.sqrt(2.0)
        data = theta1_calculus(x, y)
        h = 1e-5 * x
        num = np.empty((3, 3))
        for j in range(3):
            dx = h if j == 0 else 0.0
            dy = np.zeros(2)
            if j > 0:
                dy[j - 1] = h
            gp = theta1_calculus(x + dx, y + dy).gradient
            gm = theta1_calculus(x - dx, y - dy).gradient
            num[:, j] = (gp - gm) / (2 * h)
        np.testing.assert_allclose(data.hessian, num, rtol=1e-5, atol=1e-9)


def test_theta1_hessian_leading_form():
    # on the axis the Hessian is (2x)^{-1/2} times the identity
    x = 250.0
    data = theta1_calculus(x, [0.0, 0.0])
    np.testing.assert_allclose(data.hessian,
                               np.eye(3) / math.sqrt(2.0 * x), rtol=1e-12)
    # slightly off axis it stays within O(y/x) of that form
    off = theta1_calculus(x, [1.0, 0.0]).hessian
    assert np.max(np.abs(off - np.eye(3) / math.sqrt(2.0 * x))) < 2.0 / x


def test_theta1_caustic_domain():
    with pytest.raises(DomainError):
        theta1_value(1.0, [2.0])
    with pytest.raises(DomainError):
        theta1_value(-1.0, [0.0])
    with pytest.raises(DomainError):
        theta1_calculus(3.0, [3.0])


def test_phase_difference_scaling():
    # theta1 - f^3/3 = O(f^3 (y/x)^4): quartic slope in y/x at fixed x
    x = 1e4
    ratios = np.array([0.02, 0.04, 0.08])
    diffs = np.array([abs(theta1_minus_theta(x, [c * x])) for c in ratios])
    slope = np.polyfit(np.log(ratios), np.log(diffs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


def test_f_difference_scaling():
    # (f - f1)/f with f1 = sqrt of (theta1 * 3)^{2/3}: also quartic in y/x
    x = 1e4
    ratios = np.array([0.02, 0.04, 0.08])
    diffs = []
    for c in ratios:
        y = [c * x]
        f = to_parabolic(x, y).f
        f1 = (3.0 * theta1_value(x, y)) ** (1.0 / 3.0)
        diffs.append(abs(f - f1) / f)
    slope = np.polyfit(np.log(ratios), np.log(diffs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)
