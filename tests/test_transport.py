"""Transport symbol hierarchy along the free flow."""

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from starkscatter import (
    BudgetError,
    DomainError,
    PhasePoint,
    PotentialSpec,
    coulomb,
    eval_potential,
    homogeneous,
    symbols,
    zero_potential,
)
from starkscatter import cli, transport
from starkscatter.transport import _hierarchy, decay_fit_symbols

POINT = PhasePoint(100.0, [5.0], 15.0, [0.3])
# the transport point of the d = 3 command-line configuration
POINT_D3 = PhasePoint(100.0, [5.0, 0.0], 15.0, [0.3, 0.0])


def _flow_quad_b1(spec, p, sign=+1):
    """Oracle: i * integral of q along the free flow by direct quadrature."""
    sgn = 1.0 if sign >= 0 else -1.0

    def integrand(t):
        x = p.x + sgn * t * p.eta + 0.5 * t * t
        y = p.y + sgn * t * p.zeta
        return eval_potential(spec.unsoftened(), x, y)

    head, _ = quad(integrand, 0.0, 1e3, limit=800, epsabs=1e-13, epsrel=1e-13)
    tail, _ = quad(lambda u: integrand(1e3 / u) * 1e3 / u ** 2, 0.0, 1.0,
                   limit=800, epsabs=1e-13, epsrel=1e-13)
    return sgn * 1j * (head + tail)


def _mpmath_b1(spec, p):
    """Oracle: outgoing b1 = i * integral of q along the free flow, mpmath.

    Split at decades of t up to 1e4 and beyond that taken in t = 1e4 e^u,
    so slowly decaying tails (alpha near 1/2) are resolved.
    """
    def q(t):
        x = p.x + t * p.eta + t * t / 2
        y = p.y + t * p.zeta
        r_sq = x * x + float(y @ y)
        return spec.kappa * r_sq ** (-mpmath.mpf(spec.alpha) / 2)

    with mpmath.workdps(30):
        head = mpmath.quad(q, [0, 1, 10, 100, 1000, 10000])
        tail = mpmath.quad(lambda u: q(10000 * mpmath.exp(u))
                           * 10000 * mpmath.exp(u),
                           [0, 1, 4, 16, 64, 256, mpmath.inf])
        return 1j * float(head + tail)


def _row(p):
    """p as the one-row batch (x, y, eta, zeta) of _hierarchy."""
    return np.array([p.x]), p.y[None], np.array([p.eta]), p.zeta[None]


def _shifted(p, j, step):
    """p moved by step along configuration coordinate j (0 is x)."""
    dy = np.zeros(p.d - 1)
    if j > 0:
        dy[j - 1] = step
    return PhasePoint(p.x + (step if j == 0 else 0.0), p.y + dy, p.eta, p.zeta)


def _richardson(diff, h=1.0):
    """Wide-step central difference with one Richardson step (h, h/2)."""
    return (4.0 * diff(0.5 * h) - diff(h)) / 3.0


def _fd_gradient(f, p):
    return np.array([_richardson(
        lambda h: (f(_shifted(p, j, h)) - f(_shifted(p, j, -h))) / (2.0 * h))
        for j in range(p.d)])


def _fd_laplacian(f, p):
    center = f(p)
    return _richardson(lambda h: sum(
        f(_shifted(p, j, h)) + f(_shifted(p, j, -h)) - 2.0 * center
        for j in range(p.d)) / h ** 2)


def test_b1_against_direct_flow_quadrature():
    spec = coulomb(1.0, softening=0.0)
    for p in (POINT, PhasePoint(80.0, [-3.0], 13.0, [-0.2])):
        oracle = _flow_quad_b1(spec, p)
        val = symbols(1, p, spec, tol=1e-12)[0].value
        assert val == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.75, 0.9, 1.2])
def test_b1_power_decay_against_mpmath(alpha):
    # under t = tau s / (1 - s) the integrand q dt/ds behaves like
    # (1 - s)^{2 alpha - 2}: singular at s = 1 for alpha < 1, not smooth
    # there when 2 alpha is not an integer; the map power chosen from the
    # decay removes both
    spec = homogeneous(1.0, alpha, softening=0.0)
    oracle = _mpmath_b1(spec, POINT)
    assert symbols(1, POINT, spec, tol=1e-12)[0].value == pytest.approx(
        oracle, rel=1e-10)
    assert symbols(2, POINT, spec, h_eta=0.2, tol=1e-9)[1].residual < 1e-4


@pytest.mark.parametrize("alpha", [0.57, 0.58, 0.59, 0.6, 0.65, 0.71])
def test_slow_decay_converges_at_the_command_line_point(alpha):
    # from the tail estimate's point the last nodes of the quadrature map
    # lie where r^2 overflows and the derivatives of q underflow: taken
    # from the bounded ratio r^2 / u, the r^2 g^(n) terms of the Laplacian
    # and bi-Laplacian are 0 there, not inf * 0 = nan, and b_2 converges at
    # the command-line tolerance
    spec = homogeneous(1.0, alpha, softening=0.0)
    for k in (1, 2):
        res = symbols(k, POINT, spec, t_max=1e5, tol=1e-9)[k - 1]
        assert np.isfinite(res.value) and np.isfinite(res.tail_estimate)
    assert symbols(1, POINT, spec, tol=1e-9)[0].value == pytest.approx(
        _mpmath_b1(spec, POINT), rel=1e-8)


def test_table_potential_is_rejected():
    # a table potential has no closed-form jets to integrate along the flow
    table = PotentialSpec(kind="table", func=lambda x, y: 0.0 * x)
    with pytest.raises(DomainError, match="closed-form jets"):
        symbols(1, POINT, table)


def test_unreachable_decay_raises_budget_error():
    # alpha this close to 1/2 needs a map power that overflows the float
    # range within the panel cap: a budget failure, never a wrong value
    with pytest.raises(BudgetError):
        symbols(1, POINT, homogeneous(1.0, 0.501, softening=0.0))


@pytest.mark.parametrize("spec", [coulomb(1.0, softening=0.0),
                                  homogeneous(1.0, 0.9, softening=0.0)])
def test_quad_error_is_the_achieved_refinement_change(spec):
    # the reported error is the last panel-doubling change: within the
    # request, and (up to the rounding of the final sums) at least the
    # distance to the mpmath value; near the cone's edge the first
    # doublings still move b1 (by 6.5e-10 and 1.2e-11 here)
    p = PhasePoint(-1.7, [-3.3], 7.1, [1.1])
    tol = 1e-6
    res = symbols(1, p, spec, tol=tol)[0]
    assert 1e-13 < res.quad_error < tol * max(1.0, abs(res.value))
    oracle = _mpmath_b1(spec, p)
    assert abs(res.value - oracle) <= res.quad_error + 4e-16 * abs(oracle)


def test_b1_incoming_branch_against_quadrature():
    spec = coulomb(1.0, softening=0.0)
    p = PhasePoint(100.0, [5.0], -15.0, [-0.3])
    oracle = _flow_quad_b1(spec, p, sign=-1)
    val = symbols(1, p, spec, sign=-1, tol=1e-12)[0].value
    assert val == pytest.approx(oracle, rel=1e-9)


def test_branch_flip_symmetry():
    # b1^-(x, y, -eta, -zeta) = -b1^+(x, y, eta, zeta) by time reflection
    spec = coulomb(1.0, softening=0.0)
    plus = symbols(1, POINT, spec, sign=+1, tol=1e-11)[0].value
    flipped = PhasePoint(POINT.x, POINT.y, -POINT.eta, -POINT.zeta)
    minus = symbols(1, flipped, spec, sign=-1, tol=1e-11)[0].value
    assert minus == pytest.approx(-plus, rel=1e-9)


def test_b1_linear_in_coupling():
    a = symbols(1, POINT, coulomb(1.0), tol=1e-11)[0].value
    b = symbols(1, POINT, coulomb(2.5), tol=1e-11)[0].value
    assert b == pytest.approx(2.5 * a, rel=1e-10)


def test_zero_potential_symbols_vanish():
    spec = zero_potential()
    b1, b2 = symbols(2, POINT, spec)
    assert b1.value == 0.0 and b2.value == 0.0
    assert abs(b1.q) < 1e-15


def test_symbol_phase_structure():
    # b1 is purely imaginary and q1 = q b1 - lap/2 keeps that phase; b2 is
    # then purely real, alternating with k
    spec = coulomb(1.0)
    b1 = symbols(1, POINT, spec, tol=1e-11)[0].value
    assert abs(b1.real) < 1e-12 * abs(b1)
    b2 = symbols(2, POINT, spec, tol=1e-10)[1].value
    assert abs(b2.imag) < 1e-9 * abs(b2)


def test_tail_estimate_bounds_t_max_change():
    spec = coulomb(1.0)
    res = symbols(1, POINT, spec, t_max=1e4, tol=1e-11)[0]
    res_far = symbols(1, POINT, spec, t_max=1e5, tol=1e-11)[0]
    assert abs(res.value - res_far.value) <= 2.0 * res.tail_estimate
    assert res_far.tail_estimate < res.tail_estimate


def test_q1_splits_into_potential_and_laplacian_parts():
    spec = coulomb(1.0)
    jets = _hierarchy(1, *_row(POINT), spec, +1, 1e-10, 1.0)
    qb = complex(jets.q[0] * jets.b[0, 0])
    lap_half = complex(-0.5 * jets.lap_b[0, 0])
    total = symbols(1, POINT, spec, tol=1e-10)[0].q
    assert qb + lap_half == pytest.approx(total, rel=1e-8)
    # the Laplacian correction is subleading at this distance
    assert abs(lap_half) < abs(qb)


def test_b1_derivatives_against_differenced_flow_quadrature():
    # the gradient and Laplacian of b1 from the jets of q match wide-step
    # differences of the independent scipy flow quadrature (coulomb is
    # harmonic in d = 3, so d = 3 takes a non-harmonic exponent)
    for spec, p in ((coulomb(1.0, softening=0.0), POINT),
                    (homogeneous(1.0, 1.5, softening=0.0), POINT_D3)):
        jets = _hierarchy(1, *_row(p), spec, +1, 1e-12, 1.0)
        grad = _fd_gradient(lambda z: _flow_quad_b1(spec, z), p)
        np.testing.assert_allclose(jets.grad_b1[0], grad,
                                   rtol=1e-7, atol=1e-7 * np.abs(grad).max())
        lap = _fd_laplacian(lambda z: _flow_quad_b1(spec, z), p)
        assert jets.lap_b[0, 0] == pytest.approx(lap, rel=1e-7, abs=0.0)


def test_q2_against_differenced_b2():
    # q2 = q b2 - lap b2 / 2 with the Laplacian of b2 differenced from
    # tightly converged b2 values
    spec = coulomb(1.0)

    def b2(z):
        return symbols(2, z, spec, tol=1e-13)[1].value

    for p in (POINT, POINT_D3):
        oracle = eval_potential(spec, p.x, p.y) * b2(p) \
            - 0.5 * _fd_laplacian(b2, p)
        assert symbols(2, p, spec, tol=1e-9)[1].q == pytest.approx(oracle,
                                                                  rel=1e-7)


def test_transport_pde_residual_small():
    spec = coulomb(1.0)
    for k in (1, 2):
        res = symbols(k, POINT, spec, h_eta=0.2, tol=1e-9)[k - 1].residual
        assert res < 1e-4


def test_transport_residual_second_order_in_step():
    spec = coulomb(1.0)
    hs = np.array([0.4, 0.2, 0.1])
    res = np.array([symbols(1, POINT, spec, h_eta=h, tol=1e-10)[0].residual
                    for h in hs])
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_decay_rates_along_outgoing_ray():
    spec = coulomb(1.0)
    x_values = np.geomspace(1e2, 1e4, 7)
    b_exp, q_exp = decay_fit_symbols(spec, x_values=x_values)
    assert b_exp == pytest.approx(-0.5, abs=0.05)
    assert q_exp == pytest.approx(-1.5, abs=0.05)


def test_decay_rate_faster_for_shorter_range():
    spec = homogeneous(1.0, 1.5, softening=0.0)
    x_values = np.geomspace(1e2, 1e4, 5)
    slope, _ = decay_fit_symbols(spec, x_values=x_values)
    # b1 ~ integral of r^{-3/2} along the flow decays faster than coulomb b1
    assert slope < -0.7


def test_symbol_domain_checks():
    spec = coulomb(1.0)
    inside_wrong_branch = PhasePoint(100.0, [5.0], -15.0, [0.3])
    with pytest.raises(DomainError):
        symbols(1, inside_wrong_branch, spec, sign=+1)
    with pytest.raises(DomainError):
        symbols(0, POINT, spec)


def test_transport_stage_solves_once_for_every_order(tmp_path, monkeypatch):
    # one solve serves b_k, q_k, the tail estimates and the residuals of
    # every order; at kappa != 0 the decay fit adds one solve for both
    # fitted symbols
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _hierarchy(*args)

    monkeypatch.setattr(transport, "_hierarchy", counted)
    for kappa, solves in (("0", 1), ("1", 2)):
        calls.clear()
        cfg = cli.load_config(None, [f"--output_dir={tmp_path}",
                                     f"--potential.kappa={kappa}"])
        summary = cli.cmd_transport(cfg)
        assert set(summary["residuals"]) == {"k=1", "k=2"}
        assert len(calls) == solves
        assert calls[0] == 2


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("p", [POINT, POINT_D3])
def test_symbols_vanish_at_kappa_zero(softening, p):
    for res in symbols(2, p, homogeneous(0.0, 1.0, softening=softening)):
        assert (res.value, res.q, res.tail_estimate, res.quad_error,
                res.residual) == (0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_symbols_are_scaling_covariant(alpha, d):
    # x, y -> s^2 x, s^2 y, t, eta, zeta -> s t, s eta, s zeta, kappa ->
    # kappa s^{2 + 2 alpha} and softening -> s^2 softening: q gains s^2
    # and dt s, so b_1 gains s^3.  hbar does not scale, and -1/2 Laplacian
    # b_1 loses s^4 against q b_1: b_2(s) = s^6 A + B
    p = PhasePoint(100.0, [5.0, -3.0][:d - 1], 15.0, [0.3, 0.1][:d - 1])
    b = {}
    for s in (1.0, 2.0, 4.0):
        spec = homogeneous(s ** (2.0 + 2.0 * alpha), alpha,
                           softening=s * s * 1e-3)
        p_s = PhasePoint(s * s * p.x, s * s * p.y, s * p.eta, s * p.zeta)
        b[s] = [res.value for res in symbols(2, p_s, spec, t_max=s * 1e5,
                                             h_eta=s * 1e-3, tol=1e-12)]
    for s in (2.0, 4.0):
        assert abs(b[s][0] - s ** 3 * b[1.0][0]) <= 1e-11 * abs(
            s ** 3 * b[1.0][0])
    # A and B from s = 1 and 2 predict s = 4
    A = (b[2.0][1] - b[1.0][1]) / 63.0
    B = b[1.0][1] - A
    assert abs(4096.0 * A + B - b[4.0][1]) <= 1e-10 * abs(b[4.0][1])


def test_lower_orders_do_not_depend_on_k_max():
    spec = coulomb(1.0)
    tol = 1e-10
    one, two = symbols(1, POINT, spec, tol=tol), symbols(2, POINT, spec, tol=tol)
    assert len(one) == 1 and len(two) == 2
    for v, w in ((one[0].value, two[0].value), (one[0].q, two[0].q)):
        assert abs(v - w) <= tol * max(1.0, abs(v))


@pytest.mark.parametrize("p", [POINT, POINT_D3])
def test_one_point_symbols_match_symbols(p):
    # the six-row solve of symbols gives at p what a solve of p alone gives
    spec = coulomb(1.0)
    tol = 1e-10
    jets = _hierarchy(2, *_row(p), spec, +1, tol, 1.0)
    for k, res in enumerate(symbols(2, p, spec, tol=tol), 1):
        for v, w in ((res.value, jets.b[k - 1, 0]), (res.q, jets.q_k(k)[0])):
            assert abs(v - w) <= tol * max(1.0, abs(v))


def test_symbols_on_the_incoming_branch():
    spec = coulomb(1.0, softening=0.0)
    p = PhasePoint(100.0, [5.0], -15.0, [0.3])
    res = symbols(2, p, spec, sign=-1, h_eta=0.2, tol=1e-9)
    assert res[0].value == pytest.approx(_flow_quad_b1(spec, p, sign=-1),
                                         rel=1e-8)
    for r in res:
        assert r.residual < 1e-4
        assert r.tail_estimate < abs(r.value)
    with pytest.raises(DomainError):
        symbols(2, p, spec, sign=+1)


def test_symbols_domain_checks():
    spec = coulomb(1.0)
    with pytest.raises(DomainError, match="h_eta"):
        symbols(1, POINT, spec, h_eta=0.0)
    with pytest.raises(DomainError, match="vanishing momentum"):
        symbols(1, PhasePoint(100.0, [5.0], 0.0, [0.0]), spec)
    with pytest.raises(DomainError, match="order"):
        symbols(3, POINT, spec)
