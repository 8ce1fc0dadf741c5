"""Potential descriptors: values, gradients, decay and validation."""

import math

import numpy as np
import pytest

from starkscatter import (
    DomainError,
    coulomb,
    eval_potential,
    grad_potential,
    homogeneous,
    zero_potential,
)
from starkscatter.classical import _energies
from starkscatter import kernel
from starkscatter.kernel import born_symbols
from starkscatter.potentials import (
    PotentialSpec,
    eval_potential_array,
    grad_potential_array,
    radial_jets,
)


def test_zero_potential_vanishes():
    spec = zero_potential()
    assert eval_potential(spec, 3.0, [4.0]) == 0.0
    assert np.all(grad_potential(spec, 3.0, [4.0, 0.0]) == 0.0)


def test_zero_potential_is_the_homogeneous_kind_at_kappa_zero():
    assert zero_potential() == homogeneous(0.0, 1.0)
    assert zero_potential().softening == 1e-3
    with pytest.raises(DomainError):
        PotentialSpec(kind="zero")


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("d", [2, 3])
def test_kappa_zero_is_exactly_zero(softening, d):
    # the free case runs the homogeneous arithmetic: every value and jet is
    # 0, with no NaN, away from the origin and, softened, at it
    spec = homogeneous(0.0, 1.0, softening=softening)
    rng = np.random.default_rng(60 + d)
    x = rng.uniform(-50.0, 1e4, size=50)
    y = rng.uniform(-30.0, 30.0, size=(50, d - 1))
    if softening > 0.0:
        x[0], y[0] = 0.0, 0.0
    values = [eval_potential_array(spec, x, y),
              grad_potential_array(spec, x, y), *radial_jets(spec, x, y),
              [eval_potential(spec, a, b) for a, b in zip(x, y)],
              [grad_potential(spec, a, b) for a, b in zip(x, y)]]
    for v in values:
        assert np.all(np.asarray(v) == 0.0)


def test_coulomb_value_and_gradient():
    spec = coulomb(1.0, softening=0.0)
    assert eval_potential(spec, 3.0, [4.0]) == pytest.approx(0.2, abs=1e-15)
    g = grad_potential(spec, 3.0, [4.0])
    np.testing.assert_allclose(g, [-3.0 / 125.0, -4.0 / 125.0], rtol=1e-14)


def test_coulomb_fixes_alpha_and_delta():
    spec = coulomb(2.5)
    assert spec.alpha == 1.0
    assert spec.delta == 0.5


def test_homogeneous_value_and_gradient():
    spec = homogeneous(2.0, 2.0, softening=0.0)
    assert eval_potential(spec, 0.0, [1.0, 1.0]) == pytest.approx(1.0)
    spec1 = homogeneous(1.0, 2.0, softening=0.0)
    g = grad_potential(spec1, 1.0, [0.0])
    np.testing.assert_allclose(g, [-2.0, 0.0], atol=1e-14)


def test_homogeneous_default_delta():
    assert homogeneous(1.0, 0.8).delta == pytest.approx(0.3)
    assert homogeneous(1.0, 1.0).delta == pytest.approx(0.5)
    assert homogeneous(1.0, 3.0).delta == pytest.approx(0.5)


def test_homogeneous_rejects_small_alpha():
    with pytest.raises(DomainError):
        homogeneous(1.0, 0.5)


def test_delta_range_validated():
    with pytest.raises(DomainError):
        PotentialSpec(kind="homogeneous", kappa=1.0, alpha=2.0, delta=0.7)
    with pytest.raises(DomainError):
        PotentialSpec(kind="homogeneous", kappa=1.0, alpha=2.0, delta=0.0)


def test_origin_exclusion_without_softening():
    spec = coulomb(1.0, softening=0.0)
    with pytest.raises(DomainError):
        eval_potential(spec, 0.0, [0.0])
    assert math.isfinite(eval_potential(coulomb(1.0, softening=1e-3), 0.0, [0.0]))


@pytest.mark.parametrize("spec", [
    coulomb(1.0, softening=1e-200),       # r^2 + softening^2 underflows to 0
    homogeneous(1.0, 300.0, softening=0.01),  # 1e-4 ** -151 overflows
], ids=["underflow", "overflow"])
def test_unrepresentable_potential_raises_domain_error(spec):
    with pytest.raises(DomainError, match="not representable"):
        grad_potential(spec, 0.0, [0.0])
    with pytest.raises(DomainError, match="not representable"):
        eval_potential(spec, 0.0, [0.0])


_COULOMB_TABLE = PotentialSpec(kind="table", func=lambda x, y: 0.7 * (
    x * x + np.sum(y * y, axis=-1) + 1e-6) ** -0.5)


@pytest.mark.parametrize("spec", [coulomb(1.0), _COULOMB_TABLE],
                         ids=["coulomb", "table"])
@pytest.mark.parametrize("x, y", [(np.nan, [0.0]), (1e200, [0.0]),
                                  (0.0, [1e200])])
def test_non_finite_point_raises_domain_error(spec, x, y):
    # an overflowing r^2 is a non-finite point, not a numpy warning
    for f in (eval_potential, grad_potential):
        with pytest.raises(DomainError, match="non-finite point"):
            f(spec, x, y)


@pytest.mark.parametrize("spec", [
    coulomb(0.7, softening=1e-3),
    homogeneous(0.3, 1.5, softening=0.0),
    homogeneous(-2.0, 0.8, softening=0.1),
    zero_potential(),
    _COULOMB_TABLE,
], ids=["coulomb", "homogeneous", "attractive", "zero", "table"])
@pytest.mark.parametrize("d", [2, 3])
def test_grad_potential_array_rows_match_grad_potential(spec, d):
    rng = np.random.default_rng(40 + d)
    x = rng.uniform(-50.0, 1e4, size=300)
    y = rng.uniform(-30.0, 30.0, size=(300, d - 1))
    got = grad_potential_array(spec, x, y)
    assert got.shape == (300, d)
    if spec.kind == "homogeneous":
        # the closed form in Python floats, as the orbit right-hand sides
        # evaluate it
        a, kappa, s2 = spec.alpha, spec.kappa, spec.softening ** 2
        ref = np.array([
            -a * kappa * (float(xi) * float(xi) + float(np.sum(yi * yi)) + s2)
            ** (-a / 2.0 - 1.0) * np.r_[xi, yi] for xi, yi in zip(x, y)])
    else:
        ref = np.array([grad_potential(spec, xi, yi)
                        for xi, yi in zip(x, y)])
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_table_gradient_matches_the_closed_form(d):
    # _COULOMB_TABLE is coulomb(0.7, softening=1e-3) as a table.  The error
    # is taken relative to |grad q| per row: central differences round to an
    # absolute error ~ eps q / h, which a component near 0 cannot carry to
    # 1e-6 of itself
    rng = np.random.default_rng(40 + d)
    x = rng.uniform(-50.0, 1e4, size=300)
    y = rng.uniform(-30.0, 30.0, size=(300, d - 1))
    got = grad_potential_array(_COULOMB_TABLE, x, y)
    ref = grad_potential_array(coulomb(0.7, softening=1e-3), x, y)
    err = np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.all(err <= 1e-6)


class _CountingTable:
    """_COULOMB_TABLE's func, recording the dimension of x and the
    broadcast shape of every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, y):
        self.calls.append((np.ndim(x),
                           np.broadcast_shapes(np.shape(x), np.shape(y)[:-1])))
        return _COULOMB_TABLE.func(x, y)


@pytest.mark.parametrize("d", [2, 3])
def test_table_func_is_called_once_per_batch(d):
    # the array contract: every caller hands func all its points at once
    func = _CountingTable()
    spec = PotentialSpec(kind="table", func=func)
    rng = np.random.default_rng(d)
    x = rng.uniform(1.0, 50.0, size=40)
    y = rng.uniform(-30.0, 30.0, size=(40, d - 1))
    grad_potential_array(spec, x, y)
    assert func.calls == [(3, (2, 40, d))]
    func.calls.clear()
    _energies(spec, np.column_stack([x, y, x, y]))
    assert func.calls == [(1, (40,))]
    func.calls.clear()
    eval_potential(spec, x[0], y[0])
    grad_potential(spec, x[0], y[0])
    assert func.calls == [(1, (1,)), (3, (2, 1, d))]
    # born_symbols: one call per block of rows of each refinement pass, 16
    # nodes per panel from 8 panels, doubling; 600 rows are 3 blocks at 8
    for n_rows in (5, 600):
        func.calls.clear()
        ys = rng.uniform(-30.0, 30.0, size=(n_rows, d - 1))
        born_symbols(spec, np.zeros(d - 1), ys)
        final_panels = func.calls[-1][1][-1] // 16
        expected = []
        for i in range(int(math.log2(final_panels / 8)) + 1):
            nodes = 128 * 2 ** i
            rows = kernel._BLOCK_NODES // nodes
            expected += [(2, (min(rows, n_rows - lo), nodes))
                         for lo in range(0, n_rows, rows)]
        assert func.calls == expected
        first_pass = [call for call in func.calls if call[1][-1] == 128]
        assert len(first_pass) == (1 if n_rows == 5 else 3)


@pytest.mark.parametrize("spec", [
    coulomb(1.0, softening=1e-200),
    homogeneous(1.0, 300.0, softening=0.01),
], ids=["underflow", "overflow"])
def test_grad_potential_array_unrepresentable_raises_domain_error(spec):
    # one bad row among good ones, the point of the scalar test above
    with pytest.raises(DomainError, match="not representable"):
        grad_potential_array(spec, [3.0, 0.0, 5.0], [[1.0], [0.0], [2.0]])


@pytest.mark.parametrize("x, y, match", [
    ([3.0, 0.0], [[1.0], [0.0]], "exclusion ball"),
    ([3.0, math.inf], [[1.0], [0.0]], "non-finite"),
    ([3.0, 2.0], [[1.0], [math.nan]], "non-finite"),
])
def test_grad_potential_array_rejects_bad_points(x, y, match):
    spec = coulomb(1.0, softening=0.0)
    with pytest.raises(DomainError, match=match):
        grad_potential_array(spec, x, y)
    with pytest.raises(DomainError, match=match):
        grad_potential(spec, x[-1], y[-1])


def test_softening_regularizes_near_origin():
    spec = coulomb(1.0, softening=0.1)
    assert eval_potential(spec, 0.0, [0.0]) == pytest.approx(10.0)


def test_decay_bound_along_rays():
    # |q| <= C r^{-(1+2 delta)/2} with delta from the descriptor
    rng = np.random.default_rng(5)
    for spec in (coulomb(1.0, softening=0.0),
                 homogeneous(1.0, 1.5, softening=0.0),
                 homogeneous(2.0, 0.8, softening=0.0)):
        rate = -(1.0 + 2.0 * spec.delta) / 2.0
        for _ in range(50):
            r = 10.0 ** rng.uniform(0.0, 6.0)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            q = eval_potential(spec, r * u[0], r * u[1:])
            assert abs(q) <= 10.0 * abs(spec.kappa) * r ** rate


def test_gradient_decay_one_order_faster():
    rng = np.random.default_rng(6)
    spec = homogeneous(1.0, 1.5, softening=0.0)
    rate = -(1.0 + 2.0 * spec.delta) / 2.0 - 1.0
    for _ in range(30):
        r = 10.0 ** rng.uniform(0.5, 6.0)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        g = grad_potential(spec, r * u[0], r * u[1:])
        assert np.linalg.norm(g) <= 10.0 * r ** rate


@pytest.mark.parametrize("spec", [
    coulomb(1.3, softening=0.2),
    homogeneous(0.7, 1.8, softening=0.1),
])
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-5.0, 5.0)
        y = rng.uniform(-5.0, 5.0, size=2)
        g = grad_potential(spec, x, y)
        h = 1e-6
        num = np.empty(3)
        num[0] = (eval_potential(spec, x + h, y)
                  - eval_potential(spec, x - h, y)) / (2 * h)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            num[1 + i] = (eval_potential(spec, x, y + e)
                          - eval_potential(spec, x, y - e)) / (2 * h)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-9)


def test_table_kind_uses_callable_and_fd_gradient():
    spec = PotentialSpec(kind="table", kappa=1.0, func=lambda x, y: np.exp(
        -x * x - np.sum(y * y, axis=-1)))
    assert eval_potential(spec, 0.0, [0.0]) == pytest.approx(1.0)
    g = grad_potential(spec, 0.5, [0.25])
    q = eval_potential(spec, 0.5, [0.25])
    np.testing.assert_allclose(g, [-2 * 0.5 * q, -2 * 0.25 * q], rtol=1e-6)


def test_table_kind_requires_callable():
    with pytest.raises(DomainError):
        PotentialSpec(kind="table")


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        PotentialSpec(kind="yukawa")


def test_array_evaluation_matches_scalar():
    spec = homogeneous(1.2, 1.4, softening=0.05)
    xs = np.array([1.0, -2.0, 5.0])
    y = np.array([0.5, 1.5])
    vals = eval_potential_array(spec, xs, np.tile(y, (3, 1)))
    expected = [eval_potential(spec, float(x), y) for x in xs]
    np.testing.assert_allclose(vals, expected, rtol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_scalar_and_batched_values_agree_bitwise(d):
    # both sum |y|^2 the same way and raise it to the same numpy power
    rng = np.random.default_rng(40 + d)
    x = rng.uniform(-50.0, 50.0, 2000)
    y = rng.uniform(-50.0, 50.0, (2000, d - 1))
    for spec in (coulomb(1.0), homogeneous(0.5, 1.5, softening=0.0)):
        batched = eval_potential_array(spec, x, y)
        scalar = [eval_potential(spec, a, b) for a, b in zip(x, y)]
        assert np.array_equal(batched, scalar)


def test_radial_jets_match_values_and_power_law_laplacians():
    x = np.array([1.0, -2.0, 5.0])
    y = np.array([[0.5, 1.5], [0.0, -3.0], [2.0, 0.25]])
    spec = homogeneous(1.2, 1.4, softening=0.05)
    q, grad, _, _ = radial_jets(spec, x, y)
    np.testing.assert_allclose(q, [eval_potential(spec, a, b)
                                   for a, b in zip(x, y)], rtol=1e-14)
    np.testing.assert_allclose(grad, [grad_potential(spec, a, b)
                                      for a, b in zip(x, y)], rtol=1e-14)
    # Laplacian r^-a = a (a + 2 - d) r^(-a-2), applied twice for the
    # bi-Laplacian; coulomb in d = 3 is harmonic
    r = np.sqrt(x * x + np.sum(y * y, axis=-1))
    for spec in (homogeneous(1.2, 1.4, softening=0.0),
                 coulomb(1.0, softening=0.0)):
        a, d = spec.alpha, 3
        _, _, lap, bilap = radial_jets(spec, x, y)
        c1 = a * (a + 2 - d)
        c2 = c1 * (a + 2) * (a + 4 - d)
        np.testing.assert_allclose(lap, spec.kappa * c1 * r ** (-a - 2),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(bilap, spec.kappa * c2 * r ** (-a - 4),
                                   rtol=1e-12, atol=1e-15)
    for jet in radial_jets(zero_potential(), x, y):
        assert np.all(jet == 0.0)
    table = PotentialSpec(kind="table", kappa=1.0, func=lambda x, y: 0.0)
    with pytest.raises(DomainError):
        radial_jets(table, x, y)
    with pytest.raises(DomainError):
        radial_jets(coulomb(1.0, softening=0.0), np.zeros(1), np.zeros((1, 2)))


def test_unsoftened_copy_removes_softening_only():
    spec = homogeneous(1.2, 1.4, softening=0.05)
    bare = spec.unsoftened()
    assert bare.softening == 0.0
    assert (bare.kind, bare.kappa, bare.alpha, bare.delta) == (
        spec.kind, spec.kappa, spec.alpha, spec.delta)
