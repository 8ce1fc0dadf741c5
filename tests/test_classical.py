"""Free flow, perturbed orbits, invariant cones and the gamma observables."""

import dataclasses
import math
import timeit
import warnings
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    homogeneous,
    integrate_orbit,
    zero_potential,
)
from starkscatter.classical import (
    _log_subsample,
    cone_mask,
    is_escaping,
)
from starkscatter.parabolic import exact_phase
from starkscatter.potentials import force_rows


def _random_point(rng, d=2):
    return PhasePoint(x=rng.uniform(-5.0, 20.0),
                      y=rng.uniform(-5.0, 5.0, size=d - 1),
                      eta=rng.uniform(-3.0, 3.0),
                      zeta=rng.uniform(-2.0, 2.0, size=d - 1))


def _flow(p, t):
    """p moved by the free flow for a time t."""
    return PhasePoint(*free_flow(p.x, p.y, p.eta, p.zeta, t))


def _in_cone(p, **kwargs):
    return bool(cone_mask(p.x, p.y, p.eta, p.zeta, **kwargs))


def _observables(p):
    """gamma_observables on the one row p."""
    return gamma_observables(np.array([p.x]), p.y[None], np.array([p.eta]),
                             p.zeta[None])


# ---------------------------------------------------------------------------
# free flow

def test_free_flow_example():
    p = _flow(PhasePoint(0.0, [0.0], 0.0, [1.0]), 2.0)
    assert p.x == pytest.approx(2.0)
    np.testing.assert_allclose(p.y, [2.0])
    assert p.eta == pytest.approx(2.0)
    np.testing.assert_allclose(p.zeta, [1.0])


def test_free_flow_identity_at_zero_time():
    rng = np.random.default_rng(20)
    p = _random_point(rng, d=3)
    q = _flow(p, 0.0)
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
    free = np.array([_flow(p0, t).as_vector() for t in traj.times])
    np.testing.assert_array_equal(traj.states, free)
    assert traj.energy_drift() == 0.0


def test_free_flow_group_law():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = _random_point(rng, d=3)
        s, t = rng.uniform(-3.0, 3.0, size=2)
        a = _flow(_flow(p, s), t)
        b = _flow(p, s + t)
        assert a.x == pytest.approx(b.x, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(a.y, b.y, rtol=1e-13, atol=1e-13)
        assert a.eta == pytest.approx(b.eta, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(a.zeta, b.zeta, rtol=1e-13)


def test_free_flow_conserves_energy():
    rng = np.random.default_rng(22)
    spec = zero_potential()
    p = _random_point(rng)
    states = np.array([_flow(p, t).as_vector() for t in (0.0, 0.5, 3.0, 40.0)])
    e = energy(spec, states)
    assert e[1:] == pytest.approx(np.full(3, e[0]), abs=1e-9)


# ---------------------------------------------------------------------------
# orbit integration

def test_zero_potential_orbit_matches_free_flow():
    spec = zero_potential()
    p0 = PhasePoint(1.0, [2.0], 0.5, [-0.3])
    traj = integrate_orbit(spec, p0, 50.0, tol=1e-12, n_samples=51)
    for t, p in zip(traj.times, traj.points):
        q = _flow(p0, t)
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


def test_trajectory_is_read_only():
    # decay_slope keeps its windows on the trajectory, so nothing it read
    # may change under it: no array can be written, no field reassigned
    traj = integrate_orbit(coulomb(0.5, softening=0.1),
                           PhasePoint(5.0, [1.0], 1.0, [0.2]), 20.0,
                           n_samples=7)
    for a in (traj.times, traj.states, traj.energies, traj.error_estimate):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        traj.states[:, 0] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.times = traj.times + 1.0


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
# collocation: the solve_ivp oracle, a near collision, work and budget

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
        return np.concatenate([s[d:],
                               field + force_rows(spec, s[None, :d])[0]])

    sol = solve_ivp(rhs, (0.0, t_final), p0.as_vector(), method="DOP853",
                    rtol=tol, atol=tol, t_eval=t_eval)
    assert sol.success
    return sol.y.T


@pytest.mark.parametrize("kind", sorted(_ORACLE_SPECS))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_final", [50.0, -50.0], ids=["forward", "backward"])
def test_orbit_matches_solve_ivp(kind, d, t_final):
    # on 200 samples most lie inside a panel and are read off its polynomial
    spec, tol = _ORACLE_SPECS[kind], 1e-10
    p0 = PhasePoint(5.0, [1.0, -0.5][:d - 1], 1.0, [0.2, 0.1][:d - 1])
    for n_samples in (26, 200):
        t_eval = np.linspace(0.0, t_final, n_samples)
        traj = integrate_orbit(spec, p0, t_final, tol=tol, t_eval=t_eval)
        ref = _hamilton_oracle(spec, p0, t_final, tol, t_eval)
        err = np.linalg.norm(traj.states - ref, axis=1)
        assert np.all(err <= 100.0 * tol * np.linalg.norm(ref, axis=1))


@pytest.mark.parametrize("kind", ["coulomb", "homogeneous"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_final", [50.0, -50.0], ids=["forward", "backward"])
def test_error_estimate_bounds_the_interior_samples(monkeypatch, kind, d,
                                                    t_final):
    # against the tol-1e-13 run, at 200 samples of which at least 150 lie
    # inside a panel; the closed-form kinds only, since the table kind's
    # finite-difference force is itself noisy near 1e-10
    spec = _ORACLE_SPECS[kind]
    p0 = PhasePoint(5.0, [1.0, -0.5][:d - 1], 1.0, [0.2, 0.1][:d - 1])
    t_eval = np.linspace(0.0, t_final, 200)
    tight = integrate_orbit(spec, p0, t_final, tol=1e-13, t_eval=t_eval)
    inside = []
    running_rows = classical.running_rows

    def recording_rows(s):
        inside.append(s.size)
        return running_rows(s)

    monkeypatch.setattr(classical, "running_rows", recording_rows)
    for tol in (1e-6, 1e-8, 1e-10):
        inside.clear()
        traj = integrate_orbit(spec, p0, t_final, tol=tol, t_eval=t_eval)
        assert sum(inside) >= 150
        assert np.all(np.abs(traj.states - tight.states)
                      <= traj.error_estimate)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t_final", [50.0, -50.0, 200.0, -200.0])
def test_error_estimate_counts_the_table_force_rounding(d, t_final):
    # the tails and last changes alone fell short of the tol-1e-13 run by
    # up to 3.1 times at t_final = +-50: the central-difference force is
    # noisy near 1e-10.  Its rounding, kept to each panel, still falls
    # short by 2.8 times at t = 200: it must be carried on to t_final
    spec = _ORACLE_SPECS["table"]
    p0 = PhasePoint(5.0, [1.0, -0.5][:d - 1], 1.0, [0.2, 0.1][:d - 1])
    t_eval = np.linspace(0.0, t_final, 200)
    tight = integrate_orbit(spec, p0, t_final, tol=1e-13, t_eval=t_eval)
    traj = integrate_orbit(spec, p0, t_final, tol=1e-10, t_eval=t_eval)
    assert np.all(np.abs(traj.states - tight.states) <= traj.error_estimate)


def test_table_force_rounding_leaves_the_closed_forms_alone(monkeypatch):
    # the term is the table kind's alone: a Coulomb orbit's estimate does
    # not move when the rounding constant does
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    spec = _ORACLE_SPECS["coulomb"]
    before = integrate_orbit(spec, p0, 50.0, tol=1e-10).error_estimate
    monkeypatch.setattr(classical, "FD_FORCE_ERROR", 1.0)
    after = integrate_orbit(spec, p0, 50.0, tol=1e-10).error_estimate
    assert after.tolist() == before.tolist()


def test_zero_time_span_returns_the_initial_point():
    p0 = PhasePoint(5.0, [1.0], 1.0, [0.2])
    traj = integrate_orbit(coulomb(0.5, softening=0.1), p0, 0.0, n_samples=3)
    assert traj.times.tolist() == [0.0] * 3
    assert traj.states.tolist() == [p0.as_vector().tolist()] * 3


def _near_collision(tol):
    # from rest at (2, 0.5) a strong attraction drops the orbit to r = 5e-3
    return integrate_orbit(coulomb(-10.0, softening=1e-3),
                           PhasePoint(2.0, [0.5], 0.0, [0.0]), 20.0,
                           tol=tol, n_samples=21)


def test_near_collision_error_follows_the_tolerance(monkeypatch):
    # the width controller takes the panels from 1 down to about 2e-5 at
    # the orbit's close passes and back.  Against the tol-1e-13 run, DOP853
    # missed by 2.2e-4 at tol 1e-10, the bound here; at 1e-12 it missed by
    # 1.3e-6, which is within this orbit's rounding floor: a one-ulp shift
    # of x0 moves the tol-1e-13 states by 1.5e-6, and DOP853 at 1e-13 and
    # 3e-14 disagreed by 1.8e-5.  The 1e-12 bound, 1e-5, sits above that
    # floor and 22 times below the bound at 1e-10
    ref = _near_collision(1e-13).states
    for tol, bound in ((1e-10, 2.2e-4), (1e-12, 1e-5)):
        assert np.max(np.abs(_near_collision(tol).states - ref)) <= bound
    seconds = min(timeit.repeat(lambda: _near_collision(1e-12), number=1,
                                repeat=3))
    assert seconds < 0.1
    # the work behind that time, which does not vary with the host's load
    counts = _counted(monkeypatch)
    _near_collision(1e-12)
    assert counts == {"calls": 246, "rows": 106_241}


def test_front_panel_that_does_not_contract_is_halved():
    # a stiff harmonic table potential, q = 5000 r^2: at tol 1e-4 the tails
    # let a panel span more than Picard iteration contracts on (five front
    # panels stall and are halved), and the samples still meet the oracle
    spec = PotentialSpec(kind="table", func=lambda x, y: 5e3 * (
        x * x + np.sum(y * y, axis=-1)))
    p0 = PhasePoint(1.0, [0.5], 0.0, [0.3])
    t_eval = np.linspace(0.0, 2.0, 5)
    traj = integrate_orbit(spec, p0, 2.0, tol=1e-4, t_eval=t_eval)
    ref = _hamilton_oracle(spec, p0, 2.0, 1e-12, t_eval)
    err = np.linalg.norm(traj.states - ref, axis=1)
    assert np.all(err <= 100.0 * 1e-4 * np.linalg.norm(ref, axis=1))


def _counted(monkeypatch):
    """Count the force_rows calls of the orbit integrator and their rows."""
    counts = {"calls": 0, "rows": 0}
    force_rows = classical.force_rows

    def counting_rows(spec, z, out=None):
        counts["calls"] += 1
        counts["rows"] += len(z)
        return force_rows(spec, z, out)

    monkeypatch.setattr(classical, "force_rows", counting_rows)
    return counts


def test_benchmark_orbits_take_the_same_work(monkeypatch):
    # the 100 seed-2026 zero-energy Coulomb orbits of the benchmark's orbits
    # workload, d = 2 and 3 alternating: each is integrated to t = 1e4 at tol
    # 1e-12 on the workload's 161 samples, and to 6400 at 1e-10 for its
    # asymptotic momentum.  The work of each pass is the force_rows calls,
    # one for the start point and one a sweep, and the rows they take
    spec = coulomb(0.1, softening=1e-3)
    rng = np.random.default_rng(2026)
    points = []
    for i in range(100):
        d = 2 + i % 2
        x0 = rng.uniform(15.0, 30.0)
        y0 = rng.uniform(-2.0, 2.0, size=d - 1)
        zeta0 = rng.uniform(-0.5, 0.5, size=d - 1)
        eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                         - float(zeta0 @ zeta0))
        points.append(PhasePoint(x0, y0, eta0, zeta0))
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 160)])
    counts = _counted(monkeypatch)
    work = []
    for run in (lambda p0: integrate_orbit(spec, p0, 1e4, tol=1e-12,
                                           t_eval=t_eval),
                lambda p0: asymptotic_momentum(spec, p0)):
        counts.update(calls=0, rows=0)
        for p0 in points:
            run(p0)
        work.append(dict(counts))
    assert work == [{"calls": 500, "rows": 71_172},
                    {"calls": 420, "rows": 55_028}]
    # the output bits of three orbits: the final state, both decay slopes
    # and zeta(inf) with its error.  Orbit 59's gamma_par slope is set by
    # the rounding of the last state digits, so a change to the arithmetic
    # shows there first.  _gamma and the free part of the states are taken
    # in long double, so the bits hold where it has a 64-bit mantissa
    if np.finfo(np.longdouble).nmant != 63:
        pytest.skip("the pinned bits need an 80-bit long double")
    for i, pinned in _PINNED_ORBITS.items():
        traj = integrate_orbit(spec, points[i], 1e4, tol=1e-12,
                               t_eval=t_eval)
        z_inf, z_err = asymptotic_momentum(spec, points[i])
        assert repr([traj.states[-1].tolist(),
                     decay_slope(traj, "Gamma_norm", (1e2, 1e4))[0],
                     decay_slope(traj, "gamma_par", (1e2, 1e4))[0],
                     z_inf.tolist(), z_err]) == pinned, i


# repr of [final state, Gamma and gamma_par decay slopes, zeta(inf), its
# error] of three benchmark orbits
_PINNED_ORBITS = {
    0: "[[50059484.651263654, -326.6465242311608, 10005.946696912624, "
       "-0.03272061631503201], -0.9904852461151284, -1.9488152187897456, "
       "[-0.032720616315032015], 1.1713401038242225e-14]",
    1: "[[50063929.49897765, 4050.868462398888, -3225.2109886780668, "
       "10006.390894309401, 0.40514488204095095, -0.32263730668315876], "
       "-0.9896905920016841, -1.980883339400009, [0.40514488204095095, "
       "-0.32263730668315876], 1.49849930792146e-14]",
    59: "[[50064081.95347289, -1343.6211389251914, -646.8472928441494, "
        "10006.4061423031, -0.1342802234782961, -0.06475626016412472], "
        "-0.9897438018393363, -1.9196305570956222, [-0.13428022347829613, "
        "-0.06475626016412472], 1.3862955042541667e-14]",
}


def test_dense_samples_take_the_same_work(monkeypatch):
    # the orbit of configs/coulomb_d3.json, 200 uniform samples to t = 100:
    # the panels hold many samples each, which are read off their
    # polynomials
    counts = _counted(monkeypatch)
    integrate_orbit(coulomb(1.0, softening=1e-3),
                    PhasePoint(10.0, [1.0, 0.5], 1.0, [0.3, -0.2]), 100.0,
                    tol=1e-12, n_samples=200)
    assert counts == {"calls": 7, "rows": 833}


@pytest.mark.parametrize("spec, p0, t_final", [
    (coulomb(-10.0, softening=1e-3), PhasePoint(2.0, [0.5], 0.0, [0.0]),
     20.0),
    (coulomb(0.1, softening=1e-3), PhasePoint(20.0, [1.0], 6.0, [0.2]),
     -1e4),
    (coulomb(1.0, softening=1e-3),
     PhasePoint(10.0, [1.0, 0.5], 1.0, [0.3, -0.2]), 100.0),
], ids=["near-collision", "backward", "cli-orbit"])
def test_orbit_does_not_depend_on_its_samples(monkeypatch, spec, p0, t_final):
    # the panels are laid out towards t_final alone, so the work, the final
    # state and the error estimate are the same whatever the samples
    counts = _counted(monkeypatch)
    log_times = np.geomspace(1.0, abs(t_final), 160)
    runs = []
    for t_eval in ([t_final], np.linspace(0.0, t_final, 200),
                   np.linspace(0.0, t_final, 2001),
                   np.concatenate([[0.0], np.copysign(log_times, t_final)])):
        counts.update(calls=0, rows=0)
        traj = integrate_orbit(spec, p0, t_final, tol=1e-12, t_eval=t_eval)
        runs.append((dict(counts), traj.states[-1].tobytes(),
                     traj.error_estimate.tobytes()))
    assert all(run == runs[0] for run in runs[1:])


@st.composite
def _layouts(draw):
    """A t_final either way, a start short of it, a first width and a panel
    count."""
    t_final = draw(st.floats(1e-3, 1e4)) * draw(st.sampled_from([1.0, -1.0]))
    a = t_final * draw(st.floats(0.0, 1.0, exclude_max=True))
    assume(a != t_final)
    h = draw(st.one_of(st.floats(1e-3, 1e4), st.just(math.inf)))
    return t_final, a, h, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(_layouts(), st.sampled_from([2.0, 1.5]))
def test_lay_out_moves_towards_t_final(layout, growth):
    # the first layout of an orbit doubles its widths, a layout after a
    # failed tail grows them by half
    t_final, a, h, count = layout
    ends = classical._lay_out(*layout, growth)
    sign = math.copysign(1.0, t_final)
    edges = sign * np.concatenate([[a], ends])
    widths = np.diff(edges)
    assert 1 <= ends.size <= count and np.all(widths > 0.0)
    # width i is at most h growth^i, up to the rounding of the ends
    assert np.all(widths <= h * growth ** np.arange(ends.size)
                  * (1.0 + 1e-12) + 4.0 * np.spacing(abs(t_final)))
    # t_final is reached exactly, and only by the last end, or not at all
    assert np.all(sign * ends[:-1] < sign * t_final)
    assert ends[-1] == t_final or ends.size == count
    assert sign * ends[-1] <= sign * t_final


def test_step_budget_raises_with_the_samples_reached(monkeypatch):
    # the near collision lays out about 2450 panels, and reaches its
    # samples up to t = 6 within the first 1000
    full = _near_collision(1e-12)
    monkeypatch.setattr(classical, "MAX_ORBIT_STEPS", 1000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError,
                           match="more than 1000 panels") as info:
            _near_collision(1e-12)
    assert caught == []
    partial = info.value.partial
    assert 1 < len(partial) < len(full)
    np.testing.assert_array_equal(partial.times, full.times[:len(partial)])
    np.testing.assert_array_equal(partial.states, full.states[:len(partial)])


class _PotentialFault(Exception):
    pass


@pytest.mark.parametrize("fault", [_PotentialFault, DomainError])
def test_exception_in_the_potential_reaches_the_caller(fault):
    # the exception leaves the sweeps at once, as it was raised
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
    # the integrator holds no global state, so orbits nest
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


@pytest.mark.parametrize("t_final", [1e300, -1e300, 2.0 ** 257])
def test_orbit_whose_parabola_overflows_raises_naming_t_final(t_final):
    # the potential squares the free parabola's x ~ t^2 / 2, which leaves
    # the float range from |t| = 2^256.5: a DomainError before any work
    calls = []
    spec = PotentialSpec(kind="table",
                         func=lambda x, y: calls.append(x) or 0.0 * x)
    with pytest.raises(DomainError, match="t_final"):
        integrate_orbit(spec, PhasePoint(5.0, [1.0], 1.0, [0.2]), t_final)
    assert calls == []


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
# the force on rows, and the DomainError an orbit meets

def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _rhs_point(d):
    return PhasePoint(5.0, [1.0, -0.5, 0.3][:d - 1], 1.0,
                      [0.2, 0.1, -0.1][:d - 1])


def _random_deviations(d, n=300):
    """Seeded (t, u) pairs; t spans both directions, and u reaches points
    near the origin and far from it."""
    rng = np.random.default_rng(7 + d)
    ts = rng.uniform(-30.0, 30.0, n)
    us = rng.normal(scale=[5.0] * d + [2.0] * d, size=(n, 2 * d))
    us[::3, :d] = -_rhs_point(d).as_vector()[:d] + 1e-3 * us[::3, :d]
    return ts, us


def _table_func(x, y):
    return 0.7 / np.sqrt(1.0 + x * x + np.sum(y * y, axis=-1))


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
    # the force at a bad point, by force_rows among good rows, by
    # force_rows on it alone and by an orbit that starts there (its start
    # point's force is taken first), raises the same DomainError
    spec, message = _BAD_POINTS[case]
    z = np.zeros(d)                     # the origin
    if case == "non-finite":
        z[0] = np.nan
    elif case == "r2-overflow":
        z[0] = 1e200
    rows = np.vstack([np.full((3, d), 2.0), z])

    def row_force(rows):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return force_rows(spec, rows)

    calls = [lambda: row_force(rows), lambda: row_force(z[None])]
    if case != "non-finite":            # a phase point must be finite
        calls.append(lambda: integrate_orbit(
            spec, PhasePoint(z[0], z[1:], 0.0, np.zeros(d - 1)), 1.0))
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


@pytest.mark.parametrize("kind", sorted(_RHS_SPECS.keys()
                                        - {"table", "alpha300"}))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_gradient_is_the_negated_force_rows_bitwise(d, kind):
    # the one closed form: force_rows on each row alone is force_rows on
    # all the rows, on the seeded positions of the right-hand side tests,
    # and both round as the prefactor form written out here
    spec, p0 = _RHS_SPECS[kind], _rhs_point(d)
    ts, us = _random_deviations(d)
    x, y, _, _ = free_flow(p0.x, p0.y, p0.eta, p0.zeta, ts)
    z = np.column_stack([x + us[:, 0], y + us[:, 1:d]])
    force = force_rows(spec, z)
    one = [force_rows(spec, row[None])[0] for row in z]
    assert np.array_equal(_bits(one), _bits(force))
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
    # overflows: under the sweep's errstate, force_rows returns the
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
                                    {"t_start": math.inf},
                                    {"n_doublings": 2000}],
                         ids=["no-doubling", "zero-start", "negative-start",
                              "infinite-start", "overflowing-grid"])
def test_asymptotic_momentum_checks_its_parameters(kwargs):
    # 100 * 2^2000 overflows: a DomainError before any array is formed,
    # not numpy's overflow warning, which the suite turns into an error
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
    g = exact_phase(x, y)[1].astype(float)
    p = PhasePoint(x, y, float(g[0]), g[1:])
    obs = _observables(p)
    np.testing.assert_allclose(obs.gamma, 0.0, atol=1e-13)
    assert obs.gamma_par[0] == pytest.approx(0.0, abs=1e-13)


def test_gamma_tilde_definition():
    x, y = 100.0, np.array([4.0])
    p = PhasePoint(x, y, 14.0, [0.1])
    obs = _observables(p)
    r = math.hypot(x, 4.0)
    np.testing.assert_allclose(obs.gamma_tilde[0], y / (r + x), rtol=1e-13)


def test_gamma_norm_combines_components():
    p = PhasePoint(100.0, [4.0], 14.0, [0.1])
    obs = _observables(p)
    expected = math.sqrt(float(obs.gamma[0] @ obs.gamma[0])
                         + float(obs.gamma_tilde[0] @ obs.gamma_tilde[0]))
    assert obs.Gamma_norm[0] == pytest.approx(expected, rel=1e-12)


def test_gamma_observables_domain():
    with pytest.raises(DomainError):
        _observables(PhasePoint(5.0, [0.0], 1.0, [0.0]))
    with pytest.raises(DomainError):
        _observables(PhasePoint(100.0, [50.0], 1.0, [0.0]))


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
    obs = gamma_observables(s[:, 0], s[:, 1:d], s[:, d], s[:, d + 1:])
    assert obs.gamma.shape == (80, d) and obs.gamma_tilde.shape == (80, d - 1)
    for i, p in enumerate(traj.points):
        one = _observables(p)
        par, norm = _gamma_reference(p)
        for value in (one.Gamma_norm[0], norm):
            assert abs(obs.Gamma_norm[i] - value) <= 4 * np.spacing(value)
        for value in (one.gamma_par[0], par):
            assert abs(obs.gamma_par[i] - value) <= 1e-12 * abs(value)
        np.testing.assert_array_equal(obs.gamma[i], one.gamma[0])
        np.testing.assert_array_equal(obs.gamma_tilde[i], one.gamma_tilde[0])
    with pytest.raises(DomainError):
        gamma_observables(s[:2, 0], np.full((2, d - 1), 100.0),
                          s[:2, d], s[:2, d + 1:])


def _decay_slope_reference(traj, observable, window):
    """decay_slope as a per-point loop that skips undefined samples."""
    ts, vals = [], []
    for t, p in zip(traj.times, traj.points):
        if not window[0] <= t <= window[1]:
            continue
        try:
            obs = _observables(p)
        except DomainError:
            continue
        v = abs(obs.Gamma_norm[0] if observable == "Gamma_norm"
                else obs.gamma_par[0])
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


def _log_subsample_reference(ts):
    """The former list version: bisect_left in the log times but the last,
    repeats dropped by dict.fromkeys."""
    lt = np.log2(ts).tolist()
    lo, hi = lt[0], lt[-1]
    n = max(8, int((hi - lo) * 4) + 1)
    step = (hi - lo) / (n - 1)
    targets = [lo + i * step for i in range(n - 1)] + [hi]
    return list(dict.fromkeys(bisect_left(lt, t, 0, len(lt) - 1)
                              for t in targets))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-6, 1e8), min_size=1, max_size=200,
                unique=True).map(sorted))
def test_log_subsample_equals_the_bisect_version(ts):
    ts = np.array(ts)
    assert _log_subsample(ts) == _log_subsample_reference(ts)


@pytest.mark.parametrize("d", [2, 3])
def test_decay_slope_forms_each_window_once(monkeypatch, d):
    # both observables on one trajectory are, bitwise, those of two fresh
    # trajectories, and the one trajectory takes _gamma once a window
    t_eval = np.concatenate([[0.0], np.geomspace(0.1, 1e4, 120)])
    calls = []
    gamma = classical._gamma
    monkeypatch.setattr(classical, "_gamma",
                        lambda *a: calls.append(1) or gamma(*a))
    fresh = {obs: decay_slope(_zero_energy_orbit(d, 12.0, t_eval), obs,
                              (1.0, 1e4))
             for obs in ("gamma_par", "Gamma_norm")}
    assert len(calls) == 2
    traj = _zero_energy_orbit(d, 12.0, t_eval)
    calls.clear()
    shared = {obs: decay_slope(traj, obs, (1.0, 1e4))
              for obs in ("Gamma_norm", "gamma_par")}
    assert shared == fresh and len(calls) == 1
    # another window is worked out on its own, once
    calls.clear()
    other = [decay_slope(traj, obs, (1e2, 1e4))
             for obs in ("Gamma_norm", "gamma_par", "Gamma_norm")]
    assert len(calls) == 1 and other[0] == other[2]
    assert other[0] != shared["Gamma_norm"]


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
    assert _in_cone(PhasePoint(10.0, [0.0], 1.0, [0.0]))
    assert not _in_cone(PhasePoint(-10.0, [0.0], 1.0, [0.0]))
    # incoming momentum slightly below the -eps margin
    p = PhasePoint(10.0, [0.0], -5.0, [0.0])
    assert not _in_cone(p, eps=0.3, sign=+1)
    assert _in_cone(p, eps=0.3, sign=-1)


def test_region_invariance_under_free_flow():
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 2000:
        p = _random_point(rng, d=3)
        if not _in_cone(p):
            continue
        checked += 1
        for t in (1.0, 10.0, 100.0):
            assert _in_cone(_flow(p, t))


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
    assert mask.tolist() == [_in_cone_reference(p, 1.5, 0.2, sign)
                             for p in points]
    behind = x + np.sqrt(1.5 ** 2 + np.sum(y * y, axis=-1)) <= 0.0
    assert behind.any() and mask.any() and not mask[~behind].all()
    # the free flow moves every row as the flow of that point alone does
    flowed = free_flow(x, y, eta, zeta, 10.0)
    for i in (0, n // 2, n - 1):
        q = _flow(points[i], 10.0)
        assert (flowed[0][i], flowed[2][i]) == (q.x, q.eta)
        assert flowed[1][i].tolist() == q.y.tolist()


def _strided_rows(rng, n, d):
    """Rows (x, y, eta, zeta) of one (n, 2d) array, y and zeta as the
    strided slices z[:, 1:d] and z[:, d + 1:] the checks pass."""
    z = rng.uniform(-20.0, 20.0, size=(n, 2 * d))
    return z[:, 0], z[:, 1:d], z[:, d], z[:, d + 1:]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_free_flow_columns_equal_the_broadcast_expression(d):
    # y + t zeta one column at a time has the bits of the broadcast over
    # the short last axis, for a number t, a row of times and a grid
    x, y, eta, zeta = _strided_rows(np.random.default_rng(40 + d), 500, d)
    t_grid = np.random.default_rng(d).uniform(-50.0, 50.0, size=(500, 7))
    for args, t in (((x, y, eta, zeta), 10.0),
                    ((x, y, eta, zeta), np.linspace(-3.0, 80.0, 500)),
                    ((x[:, None], y[:, None, :], eta[:, None],
                      zeta[:, None, :]), t_grid)):
        x_t, y_t, eta_t, zeta_t = free_flow(*args, t)
        x0, y0, eta0, zeta0 = args
        t = np.asarray(t)
        reference = y0 + t[..., None] * zeta0
        assert y_t.shape == reference.shape
        np.testing.assert_array_equal(y_t.view(np.uint64),
                                      reference.view(np.uint64))
        np.testing.assert_array_equal(x_t, x0 + t * eta0 + 0.5 * t * t)
        np.testing.assert_array_equal(eta_t, eta0 + t)
        assert zeta_t is zeta0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("sign", [+1, -1])
def test_cone_mask_columns_equal_the_broadcast_expression(d, sign):
    # eta is set so that a = -eps sqrt(2x + 2<y>_m) up to its last bit, by
    # the broadcast expression: a column sum that rounded otherwise would
    # flip some rows
    m, eps = 1.5, 0.2
    x, y, _, zeta = _strided_rows(np.random.default_rng(50 + d), 2000, d)
    s = 1.0 if sign >= 0 else -1.0
    y_m = np.sqrt(m * m + np.sum(y * y, axis=-1))
    dot = np.sum(y / y_m[..., None] * zeta, axis=-1)
    root = np.sqrt(np.maximum(2.0 * x + 2.0 * y_m, 0.0))
    eta = -s * eps * root - dot
    reference = (x + y_m > 0.0) & (s * (eta + dot) > -eps * root)
    assert 0 < np.count_nonzero(reference) < np.count_nonzero(x + y_m > 0.0)
    np.testing.assert_array_equal(
        cone_mask(x, y, eta, zeta, m=m, eps=eps, sign=sign), reference)
    # and on rows flowed for a number t and a row of times
    for t in (10.0, np.linspace(0.0, 100.0, 2000)):
        flowed = free_flow(x, y, eta, zeta, t)
        xf, yf, etaf, zf = flowed
        y_m = np.sqrt(m * m + np.sum(yf * yf, axis=-1))
        a_num = etaf + np.sum(yf / y_m[..., None] * zf, axis=-1)
        root = np.sqrt(np.maximum(2.0 * xf + 2.0 * y_m, 0.0))
        np.testing.assert_array_equal(
            cone_mask(*flowed, m=m, eps=eps, sign=sign),
            (xf + y_m > 0.0) & (s * a_num > -eps * root))


def test_mourre_ratio_stays_above_cone_margin():
    # orbits started in the cone, where the Mourre ratio a(0) > -eps, never
    # cross the margin: cone_mask tests a > -eps where x + <y>_m > 0
    eps = 0.3
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 200:
        p = _random_point(rng, d=2)
        if not _in_cone(p, eps=eps):
            continue
        checked += 1
        flowed = free_flow(p.x, p.y, p.eta, p.zeta, np.linspace(0.0, 50.0, 26))
        assert cone_mask(*flowed, eps=eps).all()


def test_mourre_ratio_numerator_monotone_along_free_flow():
    rng = np.random.default_rng(27)
    for _ in range(100):
        p = _random_point(rng, d=3)
        vals = []
        for t in np.linspace(0.0, 25.0, 100):
            q = _flow(p, float(t))
            y_m = math.sqrt(1.0 + float(q.y @ q.y))
            vals.append(q.eta + float(q.y @ q.zeta) / y_m)
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_mourre_ratio_domain():
    # the ratio is defined where x + <y>_m > 0 only: behind that, no
    # momentum puts a point into either cone
    for eta in (-1e3, 1.0, 1e3):
        for sign in (+1, -1):
            assert not _in_cone(PhasePoint(-10.0, [0.0], eta, [0.0]),
                                sign=sign)


def test_phase_point_validation():
    with pytest.raises(DomainError):
        PhasePoint(0.0, [1.0, 2.0], 0.0, [1.0])
    with pytest.raises(DomainError):
        PhasePoint(float("inf"), [0.0], 0.0, [0.0])
