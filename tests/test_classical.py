"""Free flow, perturbed orbits, invariant cones and the gamma observables."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from starkscatter import (
    ConvergenceError,
    DomainError,
    PhasePoint,
    PotentialSpec,
    asymptotic_momentum,
    classical,
    coulomb,
    decay_slope,
    energy,
    eval_potential,
    free_flow,
    gamma_observables,
    grad_potential,
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
from starkscatter.potentials import force_law, force_rows


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


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_orbit_at_kappa_zero_is_the_free_flow(softening, d):
    # no force at kappa = 0, so the integrated deviation is exactly 0; the
    # orbit adds the parabola back in extended precision, and on dyadic data
    # with integer times the parabola is exact in doubles too
    spec = homogeneous(0.0, 1.0, softening=softening)
    p0 = PhasePoint(-20.5, np.linspace(1.25, 3.0, d - 1), 3.75,
                    np.linspace(-0.5, 0.25, d - 1))
    traj = integrate_orbit(spec, p0, 64.0, t_eval=np.arange(65.0))
    free = np.array([free_flow(p0, t).as_vector() for t in traj.times])
    np.testing.assert_array_equal(traj.states, free)
    assert traj.energy_drift() == 0.0


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
        x * x + np.sum(y * y, axis=-1) + soft ** 2) ** -0.5)
    ref = integrate_orbit(spec, p0, 50.0, tol=1e-11, n_samples=26)
    traj = integrate_orbit(table, p0, 50.0, tol=1e-11, n_samples=26)
    np.testing.assert_allclose(traj.states, ref.states, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(traj.energies, ref.energies, rtol=0.0,
                               atol=1e-6)
    assert traj.energy_drift() < 1e-8


# ---------------------------------------------------------------------------
# compiled stepping and batched samples

_KAPPA, _SOFT = 0.5, 0.1
_ORACLE_SPECS = {
    "coulomb": coulomb(_KAPPA, softening=_SOFT),
    "homogeneous": homogeneous(0.3, 1.5, softening=_SOFT),
    "table": PotentialSpec(kind="table", func=lambda x, y: _KAPPA * (
        x * x + np.sum(y * y, axis=-1) + _SOFT ** 2) ** -0.5),
}


def _hamilton_oracle(spec, p0, t_final, tol, t_eval):
    """solve_ivp DOP853 on the phase point itself, not on its deviation."""
    d = p0.d
    field = np.zeros(d)
    field[0] = 1.0

    def rhs(t, s):
        return np.concatenate([s[d:], field - grad_potential(spec, s[0],
                                                               s[1:d])])

    sol = solve_ivp(rhs, (0.0, t_final), p0.as_vector(), method="DOP853",
                    rtol=tol, atol=tol, t_eval=t_eval)
    assert sol.success
    return sol.y.T


@pytest.mark.parametrize("kind", sorted(_ORACLE_SPECS))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_final", [50.0, -50.0], ids=["forward", "backward"])
def test_orbit_matches_solve_ivp(kind, d, t_final):
    spec, tol = _ORACLE_SPECS[kind], 1e-10
    p0 = PhasePoint(5.0, [1.0, -0.5][:d - 1], 1.0, [0.2, 0.1][:d - 1])
    t_eval = np.linspace(0.0, t_final, 26)
    traj = integrate_orbit(spec, p0, t_final, tol=tol, t_eval=t_eval)
    ref = _hamilton_oracle(spec, p0, t_final, tol, t_eval)
    err = np.linalg.norm(traj.states - ref, axis=1)
    assert np.all(err <= 100.0 * tol * np.linalg.norm(ref, axis=1))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_final", [1e4, -50.0], ids=["forward", "backward"])
def test_batched_step_reproduces_the_compiled_steps(d, t_final):
    # the sample pass's tableau is the stepper's: one batched step from each
    # accepted step's start, with its length, lands on the next
    spec = coulomb(0.1, softening=1e-3)
    p0 = PhasePoint(20.0, [1.5, -0.5][:d - 1], 6.0, [0.2, 0.1][:d - 1])
    times, us, failure = classical._accepted_steps(spec, p0, t_final, 1e-12)
    assert failure is None and times[0] == 0.0 and times.size > 20
    assert np.all(np.sign(t_final) * np.diff(times) > 0.0)
    nxt = classical._dop853_step(spec, p0, times[:-1], us[:-1],
                                 np.diff(times))
    err = np.linalg.norm(nxt - us[1:], axis=1)
    assert np.all(err <= 1e-13 * np.linalg.norm(us[1:], axis=1))


@pytest.mark.parametrize("spec, p0, t_final", [
    (coulomb(0.1, softening=1e-3), PhasePoint(20.0, [1.5], 6.0, [0.2]), -50.0),
    (coulomb(0.1, softening=1e-3),
     PhasePoint(20.0, [1.5, -0.5], 6.0, [0.2, 0.1]), 1e4),
    # two rejected steps
    (coulomb(0.5, softening=0.1), PhasePoint(5.0, [1.0], 1.0, [0.2]), 50.0),
], ids=["backward-d2", "forward-d3", "rejections"])
def test_steps_follow_scipys_dop853_controller(spec, p0, t_final):
    # from the same first step, scipy's DOP853 accepts the same steps; the
    # error estimates cancel heavily, so their rounding, which depends on
    # the order of the sums, moves a step size by up to about 1e-8, and the
    # step times drift apart by up to 2e-5 over 40 steps
    from scipy.integrate import DOP853

    times, us, _ = classical._accepted_steps(spec, p0, t_final, 1e-12)
    _, rhs = classical._step_closure(spec, p0, 1e-12)
    solver = DOP853(lambda t, u: np.array(rhs(t, u.tolist())), 0.0,
                    np.zeros(2 * p0.d), t_final, rtol=1e-12, atol=1e-12,
                    first_step=abs(times[1]))
    ref = [0.0]
    while solver.status == "running":
        solver.step()
        ref.append(solver.t)
    np.testing.assert_allclose(times, ref, rtol=1e-4)
    np.testing.assert_allclose(us[-1], solver.y, rtol=0.0, atol=1e-12)


def test_tableau_is_scipys_dop853_bitwise():
    from scipy.integrate._ivp import dop853_coefficients as ref

    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    assert bits(classical._C) == bits(ref.C[:13])
    for s, row in enumerate(classical._A):
        assert bits(row) == bits(ref.A[s, :s])
    assert bits(classical._A[12]) == bits(ref.B)
    assert bits(classical._E3) == bits(ref.E3)
    assert bits(classical._E5) == bits(ref.E5)
    assert bits(classical._A_ROWS) == bits(
        np.vstack([ref.A[:12, :12], ref.B]))


@pytest.mark.parametrize("d", [2, 3])
def test_first_step_is_not_capped_at_the_origin(d):
    # the deviation starts at exactly 0, where scipy's select_initial_step
    # caps the first step at 100 h0 = 1e-4; the stepper drops that cap
    spec = coulomb(0.1, softening=1e-3)
    p0 = PhasePoint(20.0, [1.5, -0.5][:d - 1], 6.0, [0.2, 0.1][:d - 1])
    times, _, _ = classical._accepted_steps(spec, p0, 1e4, 1e-12)
    assert times[1] > 1e-2


def test_zero_time_span_returns_the_initial_point():
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    traj = integrate_orbit(coulomb(0.5, softening=0.1), p0, 0.0, n_samples=3)
    assert traj.times.tolist() == [0.0] * 3
    assert traj.states.tolist() == [p0.as_vector().tolist()] * 3


def _counted(monkeypatch):
    """Count the scalar steps, accepted or rejected, and the force calls of
    the batched sample pass."""
    counts = {"steps": 0, "rows": 0}
    step_closure, force_rows = classical._step_closure, classical.force_rows

    def counting_closure(*args):
        step, rhs = step_closure(*args)

        def counted(*step_args):
            counts["steps"] += 1
            return step(*step_args)

        return counted, rhs

    def counting_rows(*args):
        counts["rows"] += 1
        return force_rows(*args)

    monkeypatch.setattr(classical, "_step_closure", counting_closure)
    monkeypatch.setattr(classical, "force_rows", counting_rows)
    return counts


def test_work_counts_do_not_depend_on_sampling(monkeypatch):
    # the stepper steps the same whatever the samples, and the sample pass
    # is one DOP853 step: 12 stages, each one force call on all rows
    counts = _counted(monkeypatch)
    spec = coulomb(0.1, softening=1e-3)
    p0 = PhasePoint(20.0, [1.5], 6.0, [0.2])
    seen = []
    for t_eval in (None, np.concatenate([[0.0], np.geomspace(1.0, 1e4, 160)]),
                   None):
        counts.update(steps=0, rows=0)
        integrate_orbit(spec, p0, 1e4, tol=1e-12, t_eval=t_eval, n_samples=2)
        seen.append(dict(counts))
    assert seen[0]["steps"] > 20
    assert seen == [{"steps": seen[0]["steps"], "rows": 12}] * 3


def test_benchmark_orbits_take_the_same_steps(monkeypatch):
    # the 100 seed-2026 zero-energy Coulomb orbits of the benchmark's orbits
    # workload, d = 2 and 3 alternating: each is integrated to t = 1e4 at tol
    # 1e-12 and, for its asymptotic momentum, to 6400 at 1e-10, and no step
    # is rejected
    counts = _counted(monkeypatch)
    spec = coulomb(0.1, softening=1e-3)
    rng = np.random.default_rng(2026)
    accepted = 0
    for i in range(100):
        d = 2 + i % 2
        x0 = rng.uniform(15.0, 30.0)
        y0 = rng.uniform(-2.0, 2.0, size=d - 1)
        zeta0 = rng.uniform(-0.5, 0.5, size=d - 1)
        eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                         - float(zeta0 @ zeta0))
        p0 = PhasePoint(x0, y0, eta0, zeta0)
        for t_final, tol in ((1e4, 1e-12), (6400.0, 1e-10)):
            times, _, failure = classical._accepted_steps(spec, p0, t_final,
                                                          tol)
            assert failure is None
            accepted += times.size - 1
    assert accepted == counts["steps"] == 6896


def _orbit_of_a_few_hundred_steps(**kwargs):
    return integrate_orbit(coulomb(0.5, softening=0.1),
                           PhasePoint(5.0, [1.0], 1.0, [0.2]), 50.0,
                           tol=1e-12, n_samples=26, **kwargs)


def test_step_budget_raises_with_the_samples_reached(monkeypatch):
    full = _orbit_of_a_few_hundred_steps()
    monkeypatch.setattr(classical, "MAX_ORBIT_STEPS", 20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="more than 20 steps") as info:
            _orbit_of_a_few_hundred_steps()
    assert caught == []
    partial = info.value.partial
    assert 0 < len(partial) < len(full)
    np.testing.assert_array_equal(partial.times, full.times[:len(partial)])
    np.testing.assert_array_equal(partial.states, full.states[:len(partial)])


class _PotentialFault(Exception):
    pass


@pytest.mark.parametrize("fault", [_PotentialFault, DomainError])
def test_exception_in_the_potential_reaches_the_caller(fault):
    # the exception leaves the stepping loop at once, as it was raised
    raised = []

    def func(x, y):
        if np.any(x > 8.0):
            raised.append(fault("raised by the potential"))
            raise raised[-1]
        return 0.0 * x

    spec = PotentialSpec(kind="table", func=func)
    with pytest.raises(fault, match="raised by the potential") as info:
        integrate_orbit(spec, PhasePoint(5.0, [1.0], 1.0, [0.2]), 50.0)
    assert len(raised) == 1 and info.value is raised[0]


def test_potential_may_integrate_an_orbit_itself():
    # the stepper holds no global state, so orbits nest
    inner = []

    def func(x, y):
        traj = integrate_orbit(zero_potential(),
                               PhasePoint(1.0, [0.0], 0.0, [0.0]), 1.0,
                               n_samples=2)
        inner.append(traj.states[-1, 0])
        return 0.1 / np.sqrt(1.0 + x * x + np.sum(y * y, axis=-1))

    spec = PotentialSpec(kind="table", func=func)
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    traj = integrate_orbit(spec, p0, 5.0, tol=1e-10, n_samples=5)
    reference = integrate_orbit(homogeneous(0.1, 1.0, softening=1.0), p0,
                                5.0, tol=1e-10, n_samples=5)
    assert inner and set(inner) == {1.5}
    np.testing.assert_allclose(traj.states, reference.states, rtol=1e-7)


class _FaultyPower:
    """The Coulomb power -3/2, whose use by a float raises _PotentialFault
    at the given use and keeps it."""

    def __init__(self, raise_at):
        self.raise_at, self.uses, self.raised = raise_at, 0, []

    def __rpow__(self, base):
        self.uses += 1
        if self.uses == self.raise_at:
            self.raised.append(_PotentialFault("raised in the radial force"))
            raise self.raised[-1]
        return base ** -1.5


@pytest.mark.parametrize("d", [2, 3])
def test_exception_in_the_radial_rhs_reaches_the_caller(d, monkeypatch):
    # the first two uses are the first-step estimate's; the fifth is in a
    # stage of the generated step, and it is raised from there, unchanged
    power = _FaultyPower(raise_at=5)
    monkeypatch.setattr(classical, "force_law",
                        lambda spec: force_law(spec)[:3] + (power,))
    spec, p0 = coulomb(0.5, softening=0.1), _rhs_point(d)
    with pytest.raises(_PotentialFault) as info:
        integrate_orbit(spec, p0, 50.0)
    assert len(power.raised) == 1 and info.value is power.raised[0]
    assert info.traceback[-2].name == "step"


@pytest.mark.parametrize("t_final, t_eval", [
    (50.0, [0.0, 10.0, 60.0]),
    (50.0, [-1.0, 10.0]),
    (50.0, [0.0, 20.0, 10.0]),
    (50.0, [0.0, 10.0, 10.0]),
    (-50.0, [0.0, -60.0]),
    (-50.0, [0.0, 10.0]),
    (-50.0, [0.0, -20.0, -10.0]),
], ids=["after-end", "before-start", "unordered", "repeated",
        "back-after-end", "back-wrong-side", "back-unordered"])
def test_t_eval_outside_the_span_or_unordered_raises(t_final, t_eval):
    with pytest.raises(DomainError, match="t_eval"):
        integrate_orbit(coulomb(0.5, softening=0.1),
                        PhasePoint(5.0, [1.0], 1.0, [0.2]), t_final,
                        t_eval=t_eval)


@pytest.mark.parametrize("kwargs", [{"n_samples": 0}, {"n_samples": -3},
                                    {"t_eval": []}],
                         ids=["no-samples", "negative", "empty-t_eval"])
def test_orbit_without_samples_raises_naming_the_parameter(kwargs):
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        integrate_orbit(coulomb(0.5, softening=0.1),
                        PhasePoint(5.0, [1.0], 1.0, [0.2]), 10.0, **kwargs)


def test_orbit_with_one_sample_has_no_drift():
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    traj = integrate_orbit(coulomb(0.5, softening=0.1), p0, 10.0, n_samples=1)
    assert traj.states.tolist() == [p0.as_vector().tolist()]
    assert traj.energy_drift() == 0.0


@pytest.mark.parametrize("spec", [zero_potential(), coulomb(0.1)],
                         ids=["free", "coulomb"])
def test_orbit_with_one_sample_does_not_escape(spec):
    # x is far out and eta positive at the one sample, but one eta shows no
    # growth
    traj = integrate_orbit(spec, PhasePoint(5.0, [1.0], 1.0, [0.2]), 100.0,
                           t_eval=[100.0])
    assert traj.states[0, 0] > 100.0 and traj.states[0, 2] > 0.0
    assert not is_escaping(traj)


@pytest.mark.parametrize("spec", [zero_potential(), coulomb(0.1)],
                         ids=["free", "coulomb"])
def test_momentum_limit_of_one_sample_raises(spec):
    traj = integrate_orbit(spec, PhasePoint(5.0, [1.0], 1.0, [0.2]), 100.0,
                           n_samples=1)
    with pytest.raises(DomainError, match="at least two samples"):
        classical.momentum_limit(traj)


def test_escape_detection():
    spec = coulomb(0.1, softening=0.1)
    traj = integrate_orbit(spec, PhasePoint(10.0, [1.0], 2.0, [0.1]),
                           100.0, tol=1e-10)
    assert is_escaping(traj)


@pytest.mark.parametrize("d", [2, 3])
def test_incoming_orbit_escapes_backwards(d):
    # backwards in time x grows like t^2/2 too, while eta falls to -inf
    spec = coulomb(0.1, softening=1e-3)
    p0 = PhasePoint(20.0, [1.5, -0.5][:d - 1], 6.0, [0.2, 0.1][:d - 1])
    t_grid = -100.0 * 2.0 ** np.arange(7)
    assert is_escaping(integrate_orbit(spec, p0, t_grid[-1], tol=1e-10,
                                       t_eval=t_grid))
    z_inf, err = asymptotic_momentum(spec, p0, direction=-1)
    assert err < 1e-10 and np.all(np.abs(z_inf - p0.zeta) > 1e-4)


def test_orbit_that_does_not_escape_is_rejected():
    # to t = -10 a backward orbit is still climbing towards its turning
    # point: no asymptotic momentum
    spec = coulomb(0.1, softening=1e-3)
    p0 = PhasePoint(20.0, [1.5], 6.0, [0.2])
    traj = integrate_orbit(spec, p0, -10.0, tol=1e-10,
                           t_eval=-np.geomspace(1.0, 10.0, 8))
    assert not is_escaping(traj)
    with pytest.raises(ConvergenceError, match="does not escape"):
        classical.momentum_limit(traj)


# ---------------------------------------------------------------------------
# right-hand sides and steps: the generated step, the reference step on the
# scalar right-hand side and the sample pass's batched step round alike

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _rhs_point(d):
    return PhasePoint(5.0, [1.0, -0.5, 0.3][:d - 1], 1.0,
                      [0.2, 0.1, -0.1][:d - 1])


def _random_deviations(d, n=300):
    """Seeded (t, u, h) triples; t and h span both directions, and u reaches
    points near the origin and far from it."""
    rng = np.random.default_rng(7 + d)
    ts = rng.uniform(-30.0, 30.0, n)
    us = rng.normal(scale=[5.0] * d + [2.0] * d, size=(n, 2 * d))
    us[::3, :d] = -_rhs_point(d).as_vector()[:d] + 1e-3 * us[::3, :d]
    return ts, us, rng.uniform(-1.0, 1.0, n)


def _reference_rhs(spec, p0):
    """Hamilton's equations for the deviation from the free parabola of p0,
    written by hand on Python floats: the homogeneous closed form where it
    holds, else grad_potential and its DomainError."""
    n = p0.d - 1
    x0, eta0 = float(p0.x), float(p0.eta)
    y0, zeta0 = p0.y.tolist(), p0.zeta.tolist()
    r2_min, s2, ak, power = force_law(spec)

    def rhs(t, u):
        x = x0 + t * eta0 + 0.5 * t * t + u[0]
        y = [a + t * b + c for a, b, c in zip(y0, zeta0, u[1:1 + n])]
        # (u_x, u_y) dot = (u_eta, u_zeta); (u_eta, u_zeta) dot = -grad q
        r2 = x * x + sum([c * c for c in y])
        if r2_min < r2 < math.inf:
            try:
                f = ak * (r2 + s2) ** power
            except (ZeroDivisionError, OverflowError):
                pass
            else:
                return [*u[1 + n:], f * x, *[f * c for c in y]]
        force = -grad_potential(spec, x, y)
        return [*u[1 + n:], *force.tolist()]

    return rhs


def _reference_step(spec, p0, tol):
    """The DOP853 step as a loop over the nonzero tableau entries, on lists
    and the scalar right-hand side, with scipy's error norm."""
    rhs = _reference_rhs(spec, p0)

    def combine(ks, row):
        acc = [0.0] * len(ks[0])
        for j, w in row:
            acc = [a + w * k for a, k in zip(acc, ks[j])]
        return acc

    def step(t, u, f, h):
        ks = [f]
        for c, row in classical._STAGES:
            v = [a + b * h for a, b in zip(u, combine(ks, row))]
            ks.append(rhs(t + c * h, v))
        err5, err3 = [combine(ks, row) for row in classical._ERRORS]
        s5 = s3 = 0.0
        for a5, a3, a, b in zip(err5, err3, u, v):
            scale = tol + max(abs(a), abs(b)) * tol
            q5 = a5 / scale
            q3 = a3 / scale
            s5 += q5 * q5
            s3 += q3 * q3
        error = (abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * len(u)) if s5
                 else 0.0)
        return v, ks[-1], error

    return step


def _outcome(step, *args):
    """The bits of a step's results, or the DomainError it raised."""
    try:
        return [_bits(part).tolist() for part in step(*args)]
    except DomainError as exc:
        return str(exc)


def _assert_steps_match_the_reference(spec, d):
    p0 = _rhs_point(d)
    rhs = _reference_rhs(spec, p0)
    step, _ = classical._step_closure(spec, p0, 1e-12)
    reference = _reference_step(spec, p0, 1e-12)
    ts, us, hs = _random_deviations(d)
    for t, u, h in zip(ts.tolist(), us.tolist(), hs.tolist()):
        f = rhs(t, u)
        assert _outcome(step, t, u, f, h) == _outcome(reference, t, u, f, h)


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_radial_rhs_matches_the_generic_rhs_bitwise(d, alpha, softening):
    _assert_steps_match_the_reference(
        homogeneous(0.7, alpha, softening=softening), d)


def _table_func(x, y):
    return 0.7 / np.sqrt(1.0 + x * x + np.sum(y * y, axis=-1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_table_step_matches_the_reference_step_bitwise(d):
    _assert_steps_match_the_reference(
        PotentialSpec(kind="table", func=_table_func), d)


def test_step_code_is_compiled_once_per_dimension():
    # in a fresh interpreter: the command line's import compiles no step,
    # and the first orbit of each dimension compiles its own
    code = """
import json
import starkscatter.cli
from starkscatter import PhasePoint, classical, coulomb
compiled = [classical._step_maker.cache_info().misses]
for d in (2, 3, 2, 4, 3, 2):
    p0 = PhasePoint(20.0, [1.5, -0.5, 0.3][:d - 1], 6.0,
                    [0.2, 0.1, 0.0][:d - 1])
    classical.integrate_orbit(coulomb(0.1), p0, 100.0, n_samples=2)
    compiled.append(classical._step_maker.cache_info().misses)
print(json.dumps(compiled))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [0, 1, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("softening", [1e-3, 0.0])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("d", [2, 3])
def test_row_rhs_matches_the_scalar_rhs_row_by_row(d, alpha, softening):
    # numpy's array power (SIMD on some builds) may round the last bit of
    # the force apart from the C library's pow of Python floats, so the
    # batched step agrees with the scalar one to rounding, not bitwise
    spec = homogeneous(0.7, alpha, softening=softening)
    p0 = _rhs_point(d)
    step, rhs = classical._step_closure(spec, p0, 1e-12)
    ts, us, hs = _random_deviations(d)
    rows = classical._dop853_step(spec, p0, ts, us, hs)
    ref = np.array([step(t, u, rhs(t, u), h)[0]
                    for t, u, h in zip(ts.tolist(), us.tolist(), hs.tolist())])
    np.testing.assert_allclose(rows, ref, rtol=1e-13,
                               atol=1e-13 * np.abs(ref).max())


_BAD_POINTS = {
    "exclusion-ball": (homogeneous(0.7, 1.0, softening=0.0),
                       "inside the origin exclusion ball"),
    "non-finite": (homogeneous(0.7, 1.5, softening=1e-3),
                   "non-finite point"),
    "unrepresentable": (homogeneous(0.7, 300.0, softening=0.01),
                        "not representable at r\\^2 = 0 with softening 0.01"),
    # x = 1e200: r^2 overflows at finite coordinates
    "r2-overflow": (homogeneous(0.7, 1.0, softening=1e-3),
                    "non-finite point"),
}


@pytest.mark.parametrize("case", sorted(_BAD_POINTS))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_rhs_raises_the_same_domain_error(d, case):
    # a step of size 0 takes every stage at its starting point
    spec, message = _BAD_POINTS[case]
    p0 = _rhs_point(d)
    u = -p0.as_vector()                 # the origin at t = 0
    if case == "non-finite":
        u[0] = np.nan
    elif case == "r2-overflow":
        u[0] = 1e200
    zeros = [0.0] * (2 * d)
    step, rhs = classical._step_closure(spec, p0, 1e-12)
    calls = [lambda: rhs(0.0, u.tolist()),
             lambda: step(0.0, u.tolist(), zeros, 0.0),
             lambda: _reference_step(spec, p0, 1e-12)(0.0, u.tolist(), zeros,
                                                      0.0),
             lambda: classical._dop853_step(spec, p0, np.zeros(3),
                                            np.tile(u, (3, 1)), np.zeros(3))]
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()


_RHS_SPECS = {
    **{f"alpha{alpha:g}-softening{softening:g}":
       homogeneous(0.7, alpha, softening=softening)
       for alpha in (1.0, 1.5) for softening in (1e-3, 0.0)},
    "table": PotentialSpec(kind="table", func=_table_func),
    "alpha300": _BAD_POINTS["unrepresentable"][0],
}


@pytest.mark.parametrize("kind", sorted(_RHS_SPECS))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_generated_rhs_matches_the_reference_rhs_bitwise(d, kind):
    # on the seeded deviations, at the origin and at a NaN position; a
    # DomainError counts by its message
    spec, p0 = _RHS_SPECS[kind], _rhs_point(d)
    _, rhs = classical._step_closure(spec, p0, 1e-12)
    reference = _reference_rhs(spec, p0)
    ts, us, _ = _random_deviations(d)
    origin = -p0.as_vector()
    not_finite = origin.copy()
    not_finite[0] = np.nan
    cases = [*zip(ts.tolist(), us.tolist()), (0.0, origin.tolist()),
             (0.0, not_finite.tolist())]
    outcomes = [_outcome(rhs, t, u) for t, u in cases]
    assert outcomes == [_outcome(reference, t, u) for t, u in cases]
    # a NaN position is bad for every kind, the origin for zero softening
    # and where the force is not representable
    assert "non-finite point" in outcomes[-1]
    assert isinstance(outcomes[-2], str) == (
        kind in ("alpha1-softening0", "alpha1.5-softening0", "alpha300"))


@pytest.mark.parametrize("kind", sorted(_RHS_SPECS.keys()
                                        - {"table", "alpha300"}))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gradient_is_the_negated_force_rows_bitwise(d, kind):
    # the one closed form: grad_potential at each row is force_rows on all
    # the rows negated, on the seeded positions of the right-hand side
    # tests, and both round as the prefactor form written out here
    spec, p0 = _RHS_SPECS[kind], _rhs_point(d)
    ts, us, _ = _random_deviations(d)
    x, y, _, _ = free_flow_arrays(p0.x, p0.y, p0.eta, p0.zeta, ts)
    z = np.column_stack([x + us[:, 0], y + us[:, 1:d]])
    force = force_rows(spec, z)
    grad = [grad_potential(spec, row[0], row[1:]) for row in z]
    assert np.array_equal(_bits(grad), _bits(-force))
    r2 = z[:, 0] * z[:, 0] + np.sum(z[:, 1:] * z[:, 1:], axis=-1)
    pref = spec.alpha * spec.kappa * (r2 + spec.softening ** 2) ** (
        -spec.alpha / 2.0 - 1.0)
    assert np.array_equal(_bits(force), _bits(pref[:, None] * z))


@pytest.mark.parametrize("spec, scale", [
    (homogeneous(1e307, 1.0, softening=1e-3), 1.0),
    (coulomb(1.0, softening=1e-102), 1e-103),
], ids=["sum-of-f-r2", "sum-of-f"])
@pytest.mark.parametrize("d", [2, 3])
def test_force_rows_false_alarm_returns_the_closed_form(d, spec, scale):
    # 200 rows at radii between scale and 1.5 scale, where every force
    # component is finite but a sum over the rows of f r^2, or of f,
    # overflows: under the sample pass's errstate, force_rows returns the
    # closed form, bitwise, and raises nothing
    rng = np.random.default_rng(90 + d)
    z = rng.normal(size=(200, d))
    z *= scale * rng.uniform(1.0, 1.5, (200, 1)) / np.linalg.norm(
        z, axis=1, keepdims=True)
    r2 = z[:, 0] * z[:, 0] + np.sum(z[:, 1:] * z[:, 1:], axis=-1)
    f = spec.alpha * spec.kappa * (r2 + spec.softening ** 2) ** (
        -spec.alpha / 2.0 - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert not (math.isfinite(np.sum(f * r2))
                    and math.isfinite(np.sum(f)))
        out = force_rows(spec, z, np.empty_like(z))
    assert np.array_equal(_bits(out), _bits(f[:, None] * z))


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


@pytest.mark.parametrize("alpha", [1.0, 0.6, 0.75])
def test_momentum_limit_extrapolates_at_the_transverse_force_rate(alpha):
    # the transverse force kappa alpha |y| r^(-alpha - 2), with r ~ t^2/2
    # and |y| ~ t, leaves zeta(t) - zeta(inf) ~ t^-(2 alpha + 2): at that
    # rate the seven samples to t = 6400 extrapolate to the last of 14
    # samples, at t = 819200, where the residual is below 1e-19; the last
    # of the seven alone misses it by 3.9e-16, 2.3e-13 and 2.1e-14
    spec = homogeneous(1.0, alpha)
    p0 = PhasePoint(10.0, [1.0], 1.0, [0.3])
    t_grid = 100.0 * 2.0 ** np.arange(14)
    traj = integrate_orbit(spec, p0, t_grid[-1], tol=1e-13, t_eval=t_grid)
    z_inf, err = asymptotic_momentum(spec, p0, tol=1e-13)
    miss = abs(float(z_inf[0]) - traj.states[-1, 3])
    assert miss <= 1e-15 and miss <= err


@pytest.mark.parametrize("kwargs", [{"n_doublings": 0}, {"t_start": 0.0},
                                    {"t_start": -100.0},
                                    {"t_start": math.inf}],
                         ids=["no-doubling", "zero-start", "negative-start",
                              "infinite-start"])
def test_asymptotic_momentum_checks_its_parameters(kwargs):
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        asymptotic_momentum(coulomb(0.2, softening=1e-2),
                            PhasePoint(10.0, [1.0], 2.0, [0.3]), **kwargs)


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
# scaling covariance: x, y -> s^2 x, s^2 y, t -> s t and eta, zeta -> s eta,
# s zeta carry h to s^2 h when kappa -> kappa s^(2 + 2 alpha) and the
# softening -> s^2 softening, so orbits map to orbits

@pytest.mark.parametrize("s", [2.0, 4.0])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.75, 1.0, 1.5])
def test_orbits_are_scaling_covariant(alpha, d, s):
    # a power of 2 scales exactly, but the error control's atol does not
    # scale, so the steps differ and the orbits agree to tol, not bitwise
    spec = homogeneous(0.1, alpha, softening=1e-3)
    scaled = homogeneous(0.1 * s ** (2.0 + 2.0 * alpha), alpha,
                         softening=s * s * 1e-3)
    p0 = PhasePoint(20.0, [1.5, -0.5][:d - 1], 6.0, [0.2, 0.1][:d - 1])
    p0_s = PhasePoint(s * s * p0.x, s * s * p0.y, s * p0.eta, s * p0.zeta)
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, 1e3, 40)])
    traj = integrate_orbit(spec, p0, 1e3, tol=1e-12, t_eval=t_eval)
    traj_s = integrate_orbit(scaled, p0_s, s * 1e3, tol=1e-12,
                             t_eval=s * t_eval)
    assert np.array_equal(traj_s.times, s * traj.times)
    ref = traj.states * np.repeat([s * s, s], d)
    # relative to each component's largest size along the orbit
    assert np.all(np.abs(traj_s.states - ref)
                  <= 1e-12 * np.abs(ref).max(axis=0))
    z_inf, _ = asymptotic_momentum(spec, p0)
    z_inf_s, _ = asymptotic_momentum(scaled, p0_s, t_start=s * 100.0)
    assert (np.linalg.norm(z_inf_s - s * z_inf)
            <= 1e-11 * np.linalg.norm(s * z_inf))


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
    keep = _log_subsample(ts)
    lt, lv = np.log(ts[keep]), np.log(vals[keep])
    coef, res, _, _ = np.linalg.lstsq(
        np.vstack([lt, np.ones_like(lt)]).T, lv, rcond=None)
    var_slope = float(res[0]) / (lt.size - 2) / float(
        np.sum((lt - lt.mean()) ** 2))
    return float(coef[0]), 2.0 * math.sqrt(var_slope), len(ts)


@pytest.mark.parametrize("ts", [np.geomspace(0.1, 1e4, 120),
                                np.geomspace(1e2, 1e4, 9),
                                np.array([1.0, 1.5, 2.0, 2.01, 2.02, 2.03,
                                          40.0, 41.0, 1e3])],
                         ids=["dense", "sparse", "clustered"])
def test_log_subsample_keeps_each_nearest_sample_once(ts):
    lo, hi = np.log2(ts[0]), np.log2(ts[-1])
    targets = np.linspace(lo, hi, max(8, int((hi - lo) * 4) + 1))
    reference = np.unique(np.searchsorted(np.log2(ts), targets)
                          .clip(0, ts.size - 1))
    assert np.array_equal(_log_subsample(ts), reference)


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



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_final, window", [
    (1e4, (0.0, 1e4)),
    (1e4, (-5.0, 1e4)),
    (1e4, (1e4, 1e2)),
    (-1e4, (-1e4, -1e2)),
], ids=["from-zero", "negative-start", "reversed", "backward"])
def test_decay_slope_rejects_a_window_it_cannot_fit(t_final, window):
    # a log-log fit needs 0 < t_lo < t_hi; these windows overflowed, met a
    # NaN or claimed too few samples
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 60)])
    traj = integrate_orbit(coulomb(0.1), PhasePoint(20.0, [1.0], 6.0, [0.2]),
                           t_final, tol=1e-10,
                           t_eval=math.copysign(1.0, t_final) * t_eval)
    with pytest.raises(DomainError,
                       match=r"window \(.*\) needs 0 < t_lo < t_hi"):
        decay_slope(traj, "Gamma_norm", window)


def test_unknown_observable_name_is_rejected():
    p0 = PhasePoint(20.0, [1.0], 6.0, [0.2])
    traj = integrate_orbit(zero_potential(), p0, 10.0)
    with pytest.raises(DomainError, match='"Gamma_norm" or "gamma_par"'):
        decay_slope(traj, "gamma_norm", (1.0, 10.0))

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
    delta = min(spec.alpha - 0.5, 0.5)
    assert slope_par <= -1.0 - 2.0 * delta + 0.3


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
