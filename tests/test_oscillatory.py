"""Airy reduction and the stationary-phase eigenfunction asymptote."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from starkscatter import (
    BudgetError,
    BumpProfile,
    DomainError,
    airy_ai,
    airy_reduction,
    free_eigenfunction,
    stationary_phase_eigenfunction,
)
from starkscatter import oscillatory
from starkscatter.oscillatory import airy_reduction_quadrature
from starkscatter.quadrature import loglog_fit

_CBRT2 = 2.0 ** (1.0 / 3.0)


def _asymptote_error(x, y, xi, tol):
    """Relative error of the stationary-phase asymptote at (x, y)."""
    exact = free_eigenfunction(x, y, xi, tol=tol)
    return abs(exact - stationary_phase_eigenfunction(x, y, xi)) / abs(exact)


class _ZeroProfile:
    support = (np.array([-1.0]), np.array([1.0]))

    def __call__(self, z):
        return 0.0


class _SumProfile:
    def __init__(self, a, b):
        self.a, self.b = a, b
        lo = np.minimum(a.support[0], b.support[0])
        hi = np.maximum(a.support[1], b.support[1])
        self.support = (lo, hi)

    def __call__(self, z):
        return self.a(z) + self.b(z)


class _FlippedProfile:
    def __init__(self, xi):
        self.xi = xi
        lo, hi = xi.support
        self.support = (-hi, -lo)

    def __call__(self, z):
        return self.xi(-np.atleast_1d(np.asarray(z, dtype=float)))


class _ProductProfile:
    """b1(zeta_1) b2(zeta_2) from two one-dimensional profiles."""

    def __init__(self, b1, b2):
        self.b1, self.b2 = b1, b2
        self.support = tuple(np.concatenate([a, b]) for a, b in
                             zip(b1.support, b2.support))

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        return self.b1(z[..., :1]) * self.b2(z[..., 1:])


# ---------------------------------------------------------------------------
# airy reduction

def test_airy_reduction_at_origin():
    val = airy_reduction(0.0, [0.0])
    assert val == pytest.approx(_CBRT2 * 2.0 * math.pi * airy_ai(0.0),
                                rel=1e-13)


@pytest.mark.parametrize("w", [-4.0, 4.0])
def test_airy_reduction_against_contour_quadrature(w):
    series = airy_reduction(w, [0.0])
    quadr = airy_reduction_quadrature(w)
    assert abs(series - quadr) < 1e-8


def test_airy_reduction_over_argument_range():
    ws = np.linspace(-10.0, 10.0, 21)
    quadr = airy_reduction_quadrature(ws)
    for w, q in zip(ws, quadr):
        assert abs(airy_reduction(float(w), [0.0]) - q) < 1e-8


def test_airy_reduction_array_call_equals_scalar_calls():
    xs = np.random.default_rng(4).uniform(-12.0, 12.0, 50)
    for zeta, lam in (([0.0], 0.0), ([0.7, -0.2], 0.35)):
        batch = airy_reduction(xs, zeta, lam)
        assert batch.dtype == complex
        assert np.array_equal(batch, [airy_reduction(float(x), zeta, lam)
                                      for x in xs])
    assert type(airy_reduction(1.0, [0.0])) is complex


def test_airy_reduction_rows_equal_one_point_calls():
    zetas = np.random.default_rng(8).uniform(-3.0, 3.0, (40, 2))
    batch = airy_reduction(7.5, zetas, 0.25)
    assert batch.dtype == complex and batch.shape == (40,)
    assert np.array_equal(batch, [airy_reduction(7.5, z, 0.25)
                                  for z in zetas])


def test_contour_oracle_against_mpmath():
    # the verify-all arguments: 2^{1/3} 2 pi Ai(-2^{1/3} w) to 30 digits
    ws = np.linspace(-10.0, 10.0, 21)
    with mpmath.workdps(30):
        c = mpmath.cbrt(2)
        ref = [complex(c * 2 * mpmath.pi * mpmath.airyai(-c * float(w)))
               for w in ws]
    assert np.max(np.abs(airy_reduction_quadrature(ws) - ref)) <= 1e-12


def test_contour_oracle_raises_when_tol_is_unreachable():
    with pytest.raises(BudgetError):
        airy_reduction_quadrature(np.linspace(-10.0, 10.0, 21), tol=1e-16)


def test_airy_reduction_depends_on_zeta_through_modulus():
    a = airy_reduction(3.0, [1.0, 0.5])
    b = airy_reduction(3.0, [-0.5, 1.0])
    assert a == pytest.approx(b, rel=1e-14)
    assert a == pytest.approx(airy_reduction(3.0 - 0.625, [0.0, 0.0]),
                              rel=1e-13)


# ---------------------------------------------------------------------------
# eigenfunction

def test_eigenfunction_vanishes_for_zero_profile():
    assert free_eigenfunction(5.0, [0.0], _ZeroProfile()) == 0.0


@pytest.mark.parametrize("d, y, center1, center2, tol", [
    (2, [1.5], 0.5, -0.3, 1e-11),
    (3, [1.5, -0.4], [0.5, 0.2], [-0.3, 0.1], 1e-10),
], ids=["d2", "d3"])
def test_eigenfunction_linear_in_profile(d, y, center1, center2, tol):
    x = 20.0
    xi1 = BumpProfile(center1, 0.8)
    xi2 = BumpProfile(center2, 0.5)
    u1 = free_eigenfunction(x, y, xi1, tol=tol)
    u2 = free_eigenfunction(x, y, xi2, tol=tol)
    u12 = free_eigenfunction(x, y, _SumProfile(xi1, xi2), tol=tol)
    assert u12 == pytest.approx(u1 + u2, rel=1e-8)


@pytest.mark.parametrize("d, y, center", [
    (2, [0.8], 0.7),
    (3, [0.8, 0.3], [0.7, -0.2]),
], ids=["d2", "d3"])
def test_eigenfunction_conjugate_symmetry(d, y, center):
    # conj(u[xi]) = u[xi(-.)] for real profiles: reality of the Airy factor
    x = 15.0
    xi = BumpProfile(center, 0.6)
    u = free_eigenfunction(x, y, xi, tol=1e-11)
    u_flip = free_eigenfunction(x, y, _FlippedProfile(xi), tol=1e-11)
    assert u.conjugate() == pytest.approx(u_flip, rel=1e-9)


@pytest.mark.parametrize("x", [20.0, 100.0])
def test_eigenfunction_d3_by_dimension_reduction(x):
    # for xi = b1(zeta_1) b2(zeta_2) the Airy argument splits, and
    # u_3(x, (y1, 0)) = (2 pi)^{-1/2} int b2(z) u_2(x - z^2/2, y1; b1) dz;
    # the outer integral by a 64-point Gauss-Legendre rule of numpy's
    b1, b2 = BumpProfile(0.5, 0.8), BumpProfile(-0.2, 0.6)
    y1 = 1.5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    (lo,), (hi,) = b2.support
    z = lo + 0.5 * (hi - lo) * (nodes + 1.0)
    reduced = (2.0 * math.pi) ** -0.5 * 0.5 * (hi - lo) * sum(
        wk * b2([zk]) * free_eigenfunction(x - 0.5 * zk * zk, [y1], b1,
                                           tol=1e-12)
        for zk, wk in zip(z, weights))
    u3 = free_eigenfunction(x, [y1, 0.0], _ProductProfile(b1, b2), tol=1e-10)
    assert abs(u3 - reduced) <= 1e-9 * abs(reduced)


def test_eigenfunction_converges_far_out():
    # about 2400 radians of phase over the support: tiled, not one panel set
    xi = BumpProfile(1.5, 2.0)
    assert _asymptote_error(5000.0, [250.0], xi, tol=1e-10) < 0.01


@pytest.mark.parametrize("d, x, y, center, width", [
    (2, 8.0, [1.0], [0.5], 0.8),                # Ai across the switch at -10
    (2, -9.0, [0.5], [0.0], 1.0),               # Ai on the decaying side
    (3, 20.0, [1.5, -0.4], [0.5, 0.2], 0.8),    # the asymptotic series
], ids=["switch", "decaying", "d3"])
def test_eigenfunction_unchanged_from_scipy_airy(monkeypatch, d, x, y, center,
                                                 width):
    # the same nodes with Ai from scipy.special.airy, which the library
    # computed it with before
    xi = BumpProfile(center, width)
    value = free_eigenfunction(x, y, xi, tol=1e-10)
    monkeypatch.setattr(oscillatory, "airy_ai",
                        lambda u: scipy.special.airy(u)[0])
    reference = free_eigenfunction(x, y, xi, tol=1e-10)
    assert abs(value - reference) <= 1e-13 * abs(reference)


def test_eigenfunction_node_budget_raises_before_the_grid():
    # sqrt(2e6) |zeta| ~ 4e3 radians per unit: ~1.7e4 nodes per axis
    with pytest.raises(BudgetError):
        free_eigenfunction(1e6, [0.0, 0.0], BumpProfile([1.0, 1.0], 2.0))


def test_eigenfunction_annihilated_by_stark_operator():
    # (-Laplacian/2 - x) u = lam u on a 5-point stencil, O(h^2) residual
    xi = BumpProfile(0.5, 0.8)
    lam = 0.25
    x0, y0 = 30.0, 1.5

    def u(x, y):
        return free_eigenfunction(x, [y], xi, lam=lam, tol=1e-12)

    uc = u(x0, y0)
    residuals = []
    for h in (0.02, 0.01):
        uxx = (u(x0 + h, y0) - 2.0 * uc + u(x0 - h, y0)) / h ** 2
        uyy = (u(x0, y0 + h) - 2.0 * uc + u(x0, y0 - h)) / h ** 2
        residuals.append(abs(-0.5 * (uxx + uyy) - x0 * uc - lam * uc))
    # residual small on the operator scale x0 |u| and second order in h
    assert residuals[1] < 2e-3 * x0 * abs(uc)
    assert residuals[1] / residuals[0] == pytest.approx(0.25, abs=0.1)


# ---------------------------------------------------------------------------
# stationary phase

def test_stationary_phase_single_branch_selection():
    # profile supported on the positive side only: the + branch term alone
    x = 200.0
    xi = BumpProfile(1.5, 1.0)
    y = 0.05 * x
    omega = y / math.sqrt(2.0 * x)
    val = stationary_phase_eigenfunction(x, [y], xi)
    amp = (2.0 * x) ** -0.5 / math.sqrt(2.0 * math.pi)
    assert abs(val) == pytest.approx(amp * xi([omega]), rel=1e-12)


def test_stationary_phase_parity_swap():
    # flipping y is the same as flipping the profile: the critical points swap
    x = 150.0
    xi = BumpProfile(1.2, 0.9)
    v_minus = stationary_phase_eigenfunction(x, [-6.0], xi)
    flipped = stationary_phase_eigenfunction(x, [6.0], _FlippedProfile(xi))
    assert v_minus == pytest.approx(flipped, rel=1e-12)


def test_stationary_phase_accuracy_off_axis():
    xi = BumpProfile(1.5, 2.0)
    assert _asymptote_error(400.0, [20.0], xi, tol=1e-11) < 0.05


def test_stationary_phase_error_decays_with_x():
    xi = BumpProfile(1.5, 2.0)
    xs = [50.0, 100.0, 200.0, 400.0]
    errs = [_asymptote_error(x, [0.05 * x], xi, tol=1e-10) for x in xs]
    assert loglog_fit(xs, errs)[0] <= -0.5
    # monotone decay up to 10% jitter at any single step
    assert all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))


def test_caustic_domain_error():
    xi = BumpProfile(1.5, 2.0)
    with pytest.raises(DomainError):
        stationary_phase_eigenfunction(10.0, [20.0], xi)
    with pytest.raises(DomainError):
        stationary_phase_eigenfunction(-5.0, [0.0], xi)


def test_dimension_consistency_checks():
    # d = 1 + len(y) = 4 has no tensor-product rule
    xi = BumpProfile(1.5, 2.0)
    with pytest.raises(DomainError, match="d = 2 or 3"):
        free_eigenfunction(100.0, [1.0, 2.0, 3.0], xi)
    # the profile's box must have the dimension of y, either way round
    with pytest.raises(DomainError, match="dimension 1 .* dimension 2"):
        free_eigenfunction(100.0, [1.0, 2.0], xi)
    with pytest.raises(DomainError, match="dimension 2 .* dimension 1"):
        free_eigenfunction(100.0, [1.0], BumpProfile([1.5, 0.2], 2.0))


def test_bump_profile_support_and_smoothness():
    xi = BumpProfile(1.5, 2.0)
    lo, hi = xi.support
    assert lo[0] == pytest.approx(-0.5)
    assert hi[0] == pytest.approx(3.5)
    assert xi([3.6]) == 0.0
    assert xi([1.5]) == pytest.approx(math.exp(-1.0))
    with pytest.raises(DomainError):
        BumpProfile(0.0, -1.0)


@pytest.mark.parametrize("center", [1.5, [0.3, -0.2]], ids=["d2", "d3"])
def test_bump_profile_batch_rows_equal_one_point_calls(center):
    xi = BumpProfile(center, 0.7)
    z = np.random.default_rng(9).uniform(-1.0, 2.5, (500, xi.center.size))
    z[0] = xi.center
    batch = xi(z)
    assert batch.shape == (500,) and np.count_nonzero(batch) > 10
    one = [xi(row) for row in z]
    assert all(type(v) is float for v in one)
    assert np.array_equal(batch, one)
    # the scalar formula, summed in another order: a rounding of u2 grows
    # by 1 / (1 - u2)^2, at most ~2e3 where the value exceeds 1e-20
    u2 = [float(np.dot(row - xi.center, row - xi.center)) / xi.width ** 2
          for row in z]
    ref = [math.exp(-1.0 / (1.0 - u)) if u < 1.0 else 0.0 for u in u2]
    assert np.allclose(batch, ref, rtol=1e-12, atol=1e-20)
