"""Free flow, perturbed orbits, invariant cones and the gamma observables."""

import math

import numpy as np
import pytest

from starkscatter import (
    ConvergenceError,
    DomainError,
    PhasePoint,
    PotentialSpec,
    asymptotic_momentum,
    coulomb,
    decay_slope,
    energy,
    eval_potential,
    free_flow,
    gamma_observables,
    homogeneous,
    in_region_X,
    integrate_orbit,
    mourre_ratio,
    zero_potential,
)
from starkscatter.classical import (
    _log_subsample,
    cone_mask,
    free_flow_arrays,
    gamma_observables_arrays,
    is_escaping,
)
from starkscatter.parabolic import theta1_calculus


def _random_point(rng, d=2):
    return PhasePoint(x=rng.uniform(-5.0, 20.0),
                      y=rng.uniform(-5.0, 5.0, size=d - 1),
                      eta=rng.uniform(-3.0, 3.0),
                      zeta=rng.uniform(-2.0, 2.0, size=d - 1))


# ---------------------------------------------------------------------------
# free flow

def test_free_flow_example():
    p = free_flow(PhasePoint(0.0, [0.0], 0.0, [1.0]), 2.0)
    assert p.x == pytest.approx(2.0)
    np.testing.assert_allclose(p.y, [2.0])
    assert p.eta == pytest.approx(2.0)
    np.testing.assert_allclose(p.zeta, [1.0])


def test_free_flow_identity_at_zero_time():
    rng = np.random.default_rng(20)
    p = _random_point(rng, d=3)
    q = free_flow(p, 0.0)
    assert q.x == p.x and q.eta == p.eta
    np.testing.assert_array_equal(q.y, p.y)
    np.testing.assert_array_equal(q.zeta, p.zeta)


def test_free_flow_group_law():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = _random_point(rng, d=3)
        s, t = rng.uniform(-3.0, 3.0, size=2)
        a = free_flow(free_flow(p, s), t)
        b = free_flow(p, s + t)
        assert a.x == pytest.approx(b.x, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(a.y, b.y, rtol=1e-13, atol=1e-13)
        assert a.eta == pytest.approx(b.eta, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(a.zeta, b.zeta, rtol=1e-13)


def test_free_flow_conserves_energy():
    rng = np.random.default_rng(22)
    spec = zero_potential()
    p = _random_point(rng)
    e0 = energy(spec, p)
    for t in (0.5, 3.0, 40.0):
        assert energy(spec, free_flow(p, t)) == pytest.approx(e0, abs=1e-9)


# ---------------------------------------------------------------------------
# orbit integration

def test_zero_potential_orbit_matches_free_flow():
    spec = zero_potential()
    p0 = PhasePoint(1.0, [2.0], 0.5, [-0.3])
    traj = integrate_orbit(spec, p0, 50.0, tol=1e-12, n_samples=51)
    for t, p in zip(traj.times, traj.points):
        q = free_flow(p0, t)
        assert p.x == pytest.approx(q.x, rel=1e-12, abs=1e-10)
        np.testing.assert_allclose(p.y, q.y, rtol=1e-12, atol=1e-10)
        assert p.eta == pytest.approx(q.eta, rel=1e-12, abs=1e-10)
        np.testing.assert_allclose(p.zeta, q.zeta, rtol=1e-12, atol=1e-10)


def test_energy_conservation_random_orbits():
    rng = np.random.default_rng(23)
    specs = [coulomb(0.5, softening=0.1), homogeneous(0.3, 1.5, softening=0.1)]
    for _ in range(10):
        spec = specs[int(rng.integers(len(specs)))]
        p0 = _random_point(rng)
        traj = integrate_orbit(spec, p0, 200.0, tol=1e-11)
        assert traj.energy_drift() < 1e-8


def test_time_reversal_recovers_initial_point():
    spec = coulomb(0.5, softening=0.1)
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    fwd = integrate_orbit(spec, p0, 50.0, tol=1e-12, n_samples=2)
    p1 = fwd.points[-1]
    back = integrate_orbit(spec, p1, -50.0, tol=1e-12, n_samples=2)
    p2 = back.points[-1]
    assert p2.x == pytest.approx(p0.x, abs=1e-7)
    np.testing.assert_allclose(p2.y, p0.y, atol=1e-7)
    assert p2.eta == pytest.approx(p0.eta, abs=1e-7)
    np.testing.assert_allclose(p2.zeta, p0.zeta, atol=1e-7)


def test_trajectory_points_view_matches_state_rows():
    spec = coulomb(0.5, softening=0.1)
    p0 = PhasePoint(5.0, [1.0, -0.5], 1.0, [0.2, 0.1])
    traj = integrate_orbit(spec, p0, 20.0, tol=1e-10, n_samples=7)
    rows = [PhasePoint.from_vector(v, 3) for v in traj.states]
    assert traj.states.shape == (7, 6) and len(traj.points) == 7

    def same(a, b):
        return a.as_vector().tolist() == b.as_vector().tolist()

    assert all(same(a, b) for a, b in zip(traj.points, rows))
    assert len(list(traj.points)) == 7
    assert same(traj.points[-1], rows[-1]) and same(traj.points[2], rows[2])
    for sl in (slice(1, 5), slice(None, None, -2), slice(-3, None)):
        assert [v.as_vector().tolist() for v in traj.points[sl]] == \
            [v.as_vector().tolist() for v in rows[sl]]
    with pytest.raises(IndexError):
        traj.points[7]
    with pytest.raises(TypeError):
        traj.points[0] = rows[0]


def test_orbit_through_the_exclusion_ball_raises():
    with pytest.raises(DomainError):
        integrate_orbit(coulomb(1.0, softening=0.0),
                        PhasePoint(0.0, [0.0], 0.0, [0.0]), 1.0)


@pytest.mark.parametrize("p0", [
    PhasePoint(5.0, [1.0], 1.0, [0.2]),
    PhasePoint(5.0, [1.0, -0.5], -1.0, [0.2, 0.1]),
])
def test_table_orbit_tracks_the_builtin_kind(p0):
    # the table kind takes its force from finite differences of func
    kappa, soft = 0.5, 0.1
    spec = coulomb(kappa, softening=soft)
    table = PotentialSpec(kind="table", func=lambda x, y: kappa * (
        x * x + float(y @ y) + soft ** 2) ** -0.5)
    ref = integrate_orbit(spec, p0, 50.0, tol=1e-11, n_samples=26)
    traj = integrate_orbit(table, p0, 50.0, tol=1e-11, n_samples=26)
    np.testing.assert_allclose(traj.states, ref.states, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(traj.energies, ref.energies, rtol=0.0,
                               atol=1e-6)
    assert traj.energy_drift() < 1e-8


def test_escape_detection():
    spec = coulomb(0.1, softening=0.1)
    traj = integrate_orbit(spec, PhasePoint(10.0, [1.0], 2.0, [0.1]),
                           100.0, tol=1e-10)
    assert is_escaping(traj)


# ---------------------------------------------------------------------------
# asymptotic momentum

def test_asymptotic_momentum_free_case_is_exact():
    spec = zero_potential()
    p0 = PhasePoint(1.0, [2.0], 0.5, [0.7])
    z_inf, err = asymptotic_momentum(spec, p0, n_doublings=3)
    np.testing.assert_allclose(np.atleast_1d(z_inf), p0.zeta, atol=1e-12)
    assert err < 1e-12


def test_asymptotic_momentum_error_estimate_shrinks():
    spec = coulomb(0.2, softening=1e-2)
    p0 = PhasePoint(10.0, [1.0], 2.0, [0.3])
    _, err_coarse = asymptotic_momentum(spec, p0, n_doublings=3, tol=1e-11)
    z_fine, err_fine = asymptotic_momentum(spec, p0, n_doublings=6, tol=1e-11)
    assert err_fine < err_coarse
    # the coarse estimate brackets the refined limit
    z_coarse, _ = asymptotic_momentum(spec, p0, n_doublings=3, tol=1e-11)
    assert np.linalg.norm(np.atleast_1d(z_coarse) - np.atleast_1d(z_fine)) \
        < 10.0 * err_coarse


def test_deflection_linear_in_coupling():
    p0 = PhasePoint(10.0, [1.0], 2.0, [0.3])
    deflections = []
    kappas = [0.01, 0.02, 0.04]
    for kappa in kappas:
        spec = coulomb(kappa, softening=1e-2)
        z_inf, _ = asymptotic_momentum(spec, p0, tol=1e-11)
        deflections.append(
            float(np.linalg.norm(np.atleast_1d(z_inf) - p0.zeta)))
    slope = np.polyfit(np.log(kappas), np.log(deflections), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# gamma observables

def test_gamma_vanishes_on_the_asymptotic_parabola():
    # momenta equal to grad(theta1) make gamma identically zero
    x, y = 400.0, np.array([12.0])
    g = theta1_calculus(x, y).gradient
    p = PhasePoint(x, y, float(g[0]), g[1:])
    obs = gamma_observables(p)
    np.testing.assert_allclose(obs.gamma, 0.0, atol=1e-13)
    assert obs.gamma_par == pytest.approx(0.0, abs=1e-13)


def test_gamma_tilde_definition():
    x, y = 100.0, np.array([4.0])
    p = PhasePoint(x, y, 14.0, [0.1])
    obs = gamma_observables(p)
    r = math.hypot(x, 4.0)
    np.testing.assert_allclose(obs.gamma_tilde, y / (r + x), rtol=1e-13)


def test_gamma_norm_combines_components():
    p = PhasePoint(100.0, [4.0], 14.0, [0.1])
    obs = gamma_observables(p)
    expected = math.sqrt(float(obs.gamma @ obs.gamma)
                         + float(obs.gamma_tilde @ obs.gamma_tilde))
    assert obs.Gamma_norm == pytest.approx(expected, rel=1e-12)


def test_gamma_observables_domain():
    with pytest.raises(DomainError):
        gamma_observables(PhasePoint(5.0, [0.0], 1.0, [0.0]))
    with pytest.raises(DomainError):
        gamma_observables(PhasePoint(100.0, [50.0], 1.0, [0.0]))


def _gamma_reference(p):
    """The radiation observables at one point, written out in longdouble."""
    x = np.longdouble(p.x)
    y = p.y.astype(np.longdouble)
    r = np.sqrt(x * x + y @ y)
    w = np.sqrt(x * x - y @ y)
    sp = np.sqrt(x + w)
    gamma = (np.concatenate([[np.longdouble(p.eta)], p.zeta.astype(np.longdouble)])
             - np.concatenate([[sp], sp * y / (x + w)]))
    f = np.sqrt(r + x)
    gamma_tilde = y / (r + x)
    gf = np.concatenate([[(x / r + 1.0) / (2.0 * f)], y / (r * 2.0 * f)])
    big = np.concatenate([gamma, gamma_tilde])
    return float((gf @ gamma) / (gf @ gf)), float(np.sqrt(big @ big))


def _zero_energy_orbit(d, x0, t_eval):
    spec = coulomb(0.1, softening=1e-3)
    y0 = np.linspace(1.5, 0.5, d - 1)
    zeta0 = np.full(d - 1, 0.2)
    eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                     - float(zeta0 @ zeta0))
    return integrate_orbit(spec, PhasePoint(x0, y0, eta0, zeta0), t_eval[-1],
                           tol=1e-12, t_eval=t_eval)


@pytest.mark.parametrize("d", [2, 3])
def test_batched_gamma_observables_match_pointwise(d):
    traj = _zero_energy_orbit(d, 20.0, np.geomspace(1.0, 1e4, 80))
    s = traj.states
    obs = gamma_observables_arrays(s[:, 0], s[:, 1:d], s[:, d], s[:, d + 1:])
    assert obs.gamma.shape == (80, d) and obs.gamma_tilde.shape == (80, d - 1)
    for i, p in enumerate(traj.points):
        one = gamma_observables(p)
        par, norm = _gamma_reference(p)
        for value in (one.Gamma_norm, norm):
            assert abs(obs.Gamma_norm[i] - value) <= 4 * np.spacing(value)
        for value in (one.gamma_par, par):
            assert abs(obs.gamma_par[i] - value) <= 1e-12 * abs(value)
        np.testing.assert_array_equal(obs.gamma[i], one.gamma)
        np.testing.assert_array_equal(obs.gamma_tilde[i], one.gamma_tilde)
    with pytest.raises(DomainError):
        gamma_observables_arrays(s[:2, 0], np.full((2, d - 1), 100.0),
                                 s[:2, d], s[:2, d + 1:])


def _decay_slope_reference(traj, observable, window):
    """decay_slope as a per-point loop that skips undefined samples."""
    ts, vals = [], []
    for t, p in zip(traj.times, traj.points):
        if not window[0] <= t <= window[1]:
            continue
        try:
            obs = gamma_observables(p)
        except DomainError:
            continue
        v = abs(obs.Gamma_norm if observable == "Gamma_norm" else obs.gamma_par)
        if v > 0.0:
            ts.append(t)
            vals.append(v)
    ts, vals = np.asarray(ts), np.asarray(vals)
    keep = _log_subsample(ts, per_octave=4)
    lt, lv = np.log(ts[keep]), np.log(vals[keep])
    coef, res, _, _ = np.linalg.lstsq(
        np.vstack([lt, np.ones_like(lt)]).T, lv, rcond=None)
    var_slope = float(res[0]) / (lt.size - 2) / float(
        np.sum((lt - lt.mean()) ** 2))
    return float(coef[0]), 2.0 * math.sqrt(var_slope), len(ts)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("observable", ["Gamma_norm", "gamma_par"])
def test_decay_slope_matches_pointwise_reference(d, observable):
    # starting at x0 = 12 with |y0| >= 1.5, the first samples lie outside
    # the exact-phase domain |y|/x < 1/10 and must be dropped
    t_eval = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 120)])
    traj = _zero_energy_orbit(d, 12.0, t_eval)
    window = (0.05, 1e4)
    slope, half = decay_slope(traj, observable, window)
    ref_slope, ref_half, n_used = _decay_slope_reference(traj, observable,
                                                         window)
    assert 80 < n_used < 120
    assert slope == pytest.approx(ref_slope, rel=1e-12)
    assert half == pytest.approx(ref_half, rel=1e-9)


def test_decay_slope_needs_enough_samples():
    spec = zero_potential()
    p0 = PhasePoint(20.0, [1.0], 6.0, [0.2])
    traj = integrate_orbit(spec, p0, 1e3, tol=1e-12,
                           t_eval=np.geomspace(1.0, 1e3, 60))
    with pytest.raises(ConvergenceError):
        # window containing fewer than 8 usable samples
        decay_slope(traj, "Gamma_norm", (900.0, 1e3))


@pytest.mark.parametrize("spec", [
    coulomb(0.1, softening=1e-3),
    homogeneous(0.1, 1.5, softening=1e-3),
])
def test_gamma_decay_along_scattering_orbits(spec):
    # zero-energy initial data: the decay law is a statement at the
    # lambda = 0 energy shelf
    rng = np.random.default_rng(24)
    x0, y0, zeta0 = 20.0, np.array([rng.uniform(-2, 2)]), np.array([0.2])
    eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                     - float(zeta0 @ zeta0))
    p0 = PhasePoint(x0, y0, eta0, zeta0)
    traj = integrate_orbit(spec, p0, 1e4, tol=1e-12,
                           t_eval=np.concatenate([[0.0],
                                                  np.geomspace(1.0, 1e4, 120)]))
    slope_G, _ = decay_slope(traj, "Gamma_norm", (1e2, 1e4))
    slope_par, _ = decay_slope(traj, "gamma_par", (1e2, 1e4))
    assert slope_G <= -0.9
    assert slope_par <= -1.0 - 2.0 * spec.delta + 0.3


# ---------------------------------------------------------------------------
# invariant cones

def test_region_membership_examples():
    assert in_region_X(PhasePoint(10.0, [0.0], 1.0, [0.0]))
    assert not in_region_X(PhasePoint(-10.0, [0.0], 1.0, [0.0]))
    # incoming momentum slightly below the -eps margin
    p = PhasePoint(10.0, [0.0], -5.0, [0.0])
    assert not in_region_X(p, eps=0.3, sign=+1)
    assert in_region_X(p, eps=0.3, sign=-1)


def test_region_invariance_under_free_flow():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 2000:
        p = _random_point(rng, d=3)
        if not in_region_X(p):
            continue
        checked += 1
        for t in (1.0, 10.0, 100.0):
            assert in_region_X(free_flow(p, t))


def _in_cone_reference(p, m, eps, sign):
    """The scalar cone test as a loop would write it."""
    y_m = math.sqrt(m * m + float(p.y @ p.y))
    if p.x + y_m <= 0.0:
        return False
    a_num = p.eta + float((p.y / y_m) @ p.zeta)
    return (1.0 if sign >= 0 else -1.0) * a_num > -eps * math.sqrt(
        2.0 * p.x + 2.0 * y_m)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sign", [+1, -1])
def test_cone_mask_matches_pointwise_membership(d, sign):
    # x reaches far enough below -<y>_m for the first branch to reject
    rng = np.random.default_rng(28 + d)
    n = 2000
    x = rng.uniform(-60.0, 50.0, size=n)
    y = rng.uniform(-20.0, 20.0, size=(n, d - 1))
    eta = rng.uniform(-10.0, 10.0, size=n)
    zeta = rng.uniform(-3.0, 3.0, size=(n, d - 1))
    mask = cone_mask(x, y, eta, zeta, m=1.5, eps=0.2, sign=sign)
    points = [PhasePoint(*row) for row in zip(x, y, eta, zeta)]
    assert mask.tolist() == [in_region_X(p, m=1.5, eps=0.2, sign=sign)
                             for p in points]
    assert mask.tolist() == [_in_cone_reference(p, 1.5, 0.2, sign)
                             for p in points]
    behind = x + np.sqrt(1.5 ** 2 + np.sum(y * y, axis=-1)) <= 0.0
    assert behind.any() and mask.any() and not mask[~behind].all()
    # the batched free flow moves every point as free_flow does
    flowed = free_flow_arrays(x, y, eta, zeta, 10.0)
    for i in (0, n // 2, n - 1):
        q = free_flow(points[i], 10.0)
        assert (flowed[0][i], flowed[2][i]) == (q.x, q.eta)
        assert flowed[1][i].tolist() == q.y.tolist()


def test_mourre_ratio_stays_above_cone_margin():
    # orbits started in the cone with a(0) > -eps never cross the margin
    eps = 0.3
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 200:
        p = _random_point(rng, d=2)
        if not in_region_X(p, eps=eps) or mourre_ratio(p) <= -eps:
            continue
        checked += 1
        for t in np.linspace(0.0, 50.0, 26):
            assert mourre_ratio(free_flow(p, float(t))) > -eps


def test_mourre_ratio_numerator_monotone_along_free_flow():
    rng = np.random.default_rng(27)
    for _ in range(100):
        p = _random_point(rng, d=3)
        vals = []
        for t in np.linspace(0.0, 25.0, 100):
            q = free_flow(p, float(t))
            y_m = math.sqrt(1.0 + float(q.y @ q.y))
            vals.append(q.eta + float(q.y @ q.zeta) / y_m)
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_mourre_ratio_domain():
    with pytest.raises(DomainError):
        mourre_ratio(PhasePoint(-10.0, [0.0], 1.0, [0.0]))


def test_phase_point_validation():
    with pytest.raises(DomainError):
        PhasePoint(0.0, [1.0, 2.0], 0.0, [1.0])
    with pytest.raises(DomainError):
        PhasePoint(float("inf"), [0.0], 0.0, [0.0])
