"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.

Orbits are held as arrays: a Trajectory stores its samples as an (N, 2d)
state array with (N,) times and energies, and builds PhasePoints only when
they are read.  The energies, the radiation observables of decay_slope and
the asymptotic momentum are computed on whole trajectories at once.  Orbits
are stepped by DOP853 under scipy's step-size controller in Python floats:
one step is one closure call, with every coordinate named for the
homogeneous kind at d = 2 and 3, otherwise one closure for every kind and d.
The batched pass that takes the samples computes the homogeneous force
itself.  Other kinds, and points the closed form cannot take, go to
potentials.grad_potential_array and its DomainError.
The free case is the homogeneous kind at kappa = 0, where the deviation
stays exactly 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import (EXCLUSION_RADIUS, PotentialSpec,
                         eval_potential_array, grad_potential_array)
from .quadrature import loglog_fit

# Domain constant C for the exact-phase observables: x > C, |y|/x < 1/C.
THETA1_DOMAIN_C = 10.0


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, y, eta, zeta) of phase space, dimension d = 1 + len(y)."""

    x: float
    y: np.ndarray
    eta: float
    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "zeta", np.atleast_1d(np.asarray(self.zeta, dtype=float)))
        if self.y.shape != self.zeta.shape:
            raise DomainError("y and zeta must have matching shapes")
        if not (np.isfinite(self.x) and np.isfinite(self.eta)
                and np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.zeta))):
            raise DomainError("phase point must be finite")

    @property
    def d(self) -> int:
        return 1 + self.y.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.x], self.y, [self.eta], self.zeta])

    @classmethod
    def from_vector(cls, v: np.ndarray, d: int) -> "PhasePoint":
        n = d - 1
        return cls(x=float(v[0]), y=v[1:1 + n].copy(),
                   eta=float(v[1 + n]), zeta=v[2 + n:2 + 2 * n].copy())


class _PointsView(Sequence):
    """Read-only sequence of PhasePoints over the rows of a state array.

    A PhasePoint is built only when an element or a slice is read.
    """

    def __init__(self, states: np.ndarray):
        self._states = states
        self._d = states.shape[1] // 2

    def __len__(self):
        return len(self._states)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return PhasePoint.from_vector(self._states[i], self._d)


@dataclass
class Trajectory:
    """Time-stamped orbit with its conserved-energy record.

    times has shape (N,), energies (N,) and states (N, 2d): row i is the
    phase point (x, y, eta, zeta) at times[i].
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    spec: PotentialSpec

    def __len__(self):
        return len(self.times)

    @property
    def d(self) -> int:
        return self.states.shape[1] // 2

    @property
    def points(self) -> Sequence[PhasePoint]:
        return _PointsView(self.states)

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        scale = max(1.0, abs(e0))
        return float(np.max(np.abs(self.energies - e0)) / scale)

    def to_csv_rows(self) -> np.ndarray:
        """Rows t, x, y_1.., eta, zeta_1.., energy as one (N, 2d + 2) array."""
        return np.column_stack([self.times, self.states, self.energies])


@dataclass(frozen=True)
class GammaObservables:
    """Radiation observables at one point, or at n points along a leading axis
    (gamma_par and Gamma_norm are then arrays of shape (n,))."""

    gamma: np.ndarray
    gamma_tilde: np.ndarray
    gamma_par: float | np.ndarray
    Gamma_norm: float | np.ndarray


def energy(spec: PotentialSpec, p: PhasePoint) -> float:
    return float(_energies(spec, p.as_vector()[None])[0])


def free_flow(p0: PhasePoint, t: float) -> PhasePoint:
    """Exact free orbit: x gains t*eta + t^2/2, eta gains t, zeta fixed."""
    x, y, eta, zeta = free_flow_arrays(p0.x, p0.y, p0.eta, p0.zeta, t)
    return PhasePoint(x=x, y=y, eta=eta, zeta=zeta.copy())


def free_flow_arrays(x, y, eta, zeta, t):
    """free_flow on arrays: x, eta of shape S, y, zeta of shape S + (d-1,);
    t is a number or an array that broadcasts with S."""
    return (x + t * eta + 0.5 * t * t, y + np.asarray(t)[..., None] * zeta,
            eta + t, zeta)


# The DOP853 tableau: Dormand and Prince's explicit 8(5,3) pair with the
# coefficients of Hairer's DOP853 code (Hairer, Norsett and Wanner, Solving
# Ordinary Differential Equations I, section II.10), as scipy holds them.
# Stage s = 1 .. 12 is taken at t + C[s] h from u + h sum_j A[s][j] K_j.
# Row 12 of A (C = 1) holds the weights of the solution, so the last stage
# is the new state and its K the next step's K_0; E5 and E3 weight K_0 ..
# K_12 in the two error estimates.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)


def _nonzero(weights) -> tuple:
    """The (j, weight) pairs of the nonzero weights."""
    return tuple((j, w) for j, w in enumerate(weights) if w != 0.0)


# what the scalar steps loop over: (C[s], the nonzero (j, A[s][j])) for
# stages 1 .. 12, and the nonzero (j, weight) of E5 and of E3
_STAGES = tuple((_C[s], _nonzero(_A[s])) for s in range(1, 13))
_ERRORS = (_nonzero(_E5), _nonzero(_E3))
# the batched sample step's arrays: C, and A padded to (13, 12)
_C_ARRAY = np.array(_C)
_A_ROWS = np.array([row + (0.0,) * (12 - len(row)) for row in _A])

# scipy's step-size controller (solve_ivp's RungeKutta): the step grows or
# shrinks by SAFETY err^(-1/8), within [MIN_FACTOR, MAX_FACTOR]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8


def _radial_constants(spec: PotentialSpec):
    """r2_min, s2, ak, power of the force ak (r^2 + s2)^power (x, y) of the
    homogeneous kind, at points with r2_min < r^2 < inf."""
    r2_min = EXCLUSION_RADIUS ** 2 if spec.softening == 0.0 else -1.0
    return (r2_min, spec.softening ** 2, spec.alpha * spec.kappa,
            -spec.alpha / 2.0 - 1.0)


def _point_force(spec: PotentialSpec, x: float, y: list) -> list:
    """-grad q at one point, as a list; DomainError where q is undefined."""
    return (-grad_potential_array(spec, [x], [y])[0]).tolist()


def _deviation_rhs(spec: PotentialSpec, p0: PhasePoint):
    """Hamilton's equations for the deviation from the free parabola of p0.

    The deviation u = state - free_flow(p0, t) stays O(1) on scattering
    orbits while x itself grows like t^2/2, so integrating u keeps the
    error control meaningful over long times.  The right-hand side takes and
    returns Python floats, for any kind and d: the homogeneous closed form
    where it holds, else grad_potential_array and its DomainError.
    """
    n = p0.d - 1
    x0, eta0 = float(p0.x), float(p0.eta)
    y0, zeta0 = p0.y.tolist(), p0.zeta.tolist()
    r2_min, s2, ak, power = _radial_constants(spec)
    radial = spec.kind == "homogeneous"

    def rhs(t, u):
        x = x0 + t * eta0 + 0.5 * t * t + u[0]
        y = [a + t * b + c for a, b, c in zip(y0, zeta0, u[1:1 + n])]
        # (u_x, u_y) dot = (u_eta, u_zeta); (u_eta, u_zeta) dot = -grad q
        r2 = x * x + sum([c * c for c in y])
        if radial and r2_min < r2 < math.inf:
            try:
                f = ak * (r2 + s2) ** power
            except (ZeroDivisionError, OverflowError):
                pass
            else:
                return [*u[1 + n:], f * x, *[f * c for c in y]]
        return [*u[1 + n:], *_point_force(spec, x, y)]

    return rhs


def _step_closure(spec: PotentialSpec, p0: PhasePoint):
    """One DOP853 step of the deviation of p0.

    step(t, u, f, h) takes the deviation u at t with f, its right-hand side
    (the last step's final stage), and returns the deviation at t + h, its
    right-hand side and the E5 and E3 error estimates.  It works in Python
    floats and loops over the nonzero tableau entries: on 2d <= 6
    components, numpy's per-operation overhead would be most of the cost.
    The homogeneous kind at d = 2 and 3 names every float and computes its
    force itself, and a point where that closed form fails takes
    grad_potential_array; every other kind and d take _generic_step.
    """
    if spec.kind != "homogeneous" or p0.d not in (2, 3):
        return _generic_step(_deviation_rhs(spec, p0))
    r2_min, s2, ak, power = _radial_constants(spec)
    inf = math.inf
    if p0.d == 2:
        x0, y0, eta0, zeta0 = p0.as_vector().tolist()

        def step(t, u, f, h):
            u0, u1, u2, u3 = u
            ks = [f]
            for c, row in _STAGES:
                a0 = a1 = a2 = a3 = 0.0
                for j, w in row:
                    k0, k1, k2, k3 = ks[j]
                    a0 += w * k0
                    a1 += w * k1
                    a2 += w * k2
                    a3 += w * k3
                v0, v1 = u0 + a0 * h, u1 + a1 * h
                v2, v3 = u2 + a2 * h, u3 + a3 * h
                ts = t + c * h
                x = x0 + ts * eta0 + 0.5 * ts * ts + v0
                y = y0 + ts * zeta0 + v1
                r2 = x * x + y * y
                g = None
                if r2_min < r2 < inf:
                    try:
                        g = ak * (r2 + s2) ** power
                    except (ZeroDivisionError, OverflowError):
                        pass
                ks.append((v2, v3, g * x, g * y) if g is not None
                          else (v2, v3, *_point_force(spec, x, [y])))
            v = (v0, v1, v2, v3)
            errors = []
            for row in _ERRORS:
                a0 = a1 = a2 = a3 = 0.0
                for j, w in row:
                    k0, k1, k2, k3 = ks[j]
                    a0 += w * k0
                    a1 += w * k1
                    a2 += w * k2
                    a3 += w * k3
                errors.append((a0, a1, a2, a3))
            return v, ks[-1], *errors

        return step
    x0, y0, y1_0, eta0, zeta0, zeta1_0 = p0.as_vector().tolist()

    def step(t, u, f, h):
        u0, u1, u2, u3, u4, u5 = u
        ks = [f]
        for c, row in _STAGES:
            a0 = a1 = a2 = a3 = a4 = a5 = 0.0
            for j, w in row:
                k0, k1, k2, k3, k4, k5 = ks[j]
                a0 += w * k0
                a1 += w * k1
                a2 += w * k2
                a3 += w * k3
                a4 += w * k4
                a5 += w * k5
            v0, v1, v2 = u0 + a0 * h, u1 + a1 * h, u2 + a2 * h
            v3, v4, v5 = u3 + a3 * h, u4 + a4 * h, u5 + a5 * h
            ts = t + c * h
            x = x0 + ts * eta0 + 0.5 * ts * ts + v0
            y = y0 + ts * zeta0 + v1
            y1 = y1_0 + ts * zeta1_0 + v2
            r2 = x * x + (y * y + y1 * y1)
            g = None
            if r2_min < r2 < inf:
                try:
                    g = ak * (r2 + s2) ** power
                except (ZeroDivisionError, OverflowError):
                    pass
            ks.append((v3, v4, v5, g * x, g * y, g * y1) if g is not None
                      else (v3, v4, v5, *_point_force(spec, x, [y, y1])))
        v = (v0, v1, v2, v3, v4, v5)
        errors = []
        for row in _ERRORS:
            a0 = a1 = a2 = a3 = a4 = a5 = 0.0
            for j, w in row:
                k0, k1, k2, k3, k4, k5 = ks[j]
                a0 += w * k0
                a1 += w * k1
                a2 += w * k2
                a3 += w * k3
                a4 += w * k4
                a5 += w * k5
            errors.append((a0, a1, a2, a3, a4, a5))
        return v, ks[-1], *errors

    return step


def _generic_step(rhs):
    """_step_closure on lists, for any kind and d, with rhs from
    _deviation_rhs; it rounds as the closures with named floats do."""
    def combine(ks, row):
        acc = [0.0] * len(ks[0])
        for j, w in row:
            acc = [a + w * k for a, k in zip(acc, ks[j])]
        return acc

    def step(t, u, f, h):
        ks = [f]
        for c, row in _STAGES:
            v = [a + b * h for a, b in zip(u, combine(ks, row))]
            ks.append(rhs(t + c * h, v))
        return (v, ks[-1], *[combine(ks, row) for row in _ERRORS])

    return step


def _error_norm(err5, err3, u, v, h: float, tol: float) -> float:
    """scipy's DOP853 error norm of a step of size h from u to v.

    With each component of the E5 and E3 estimates divided by tol (1 +
    max(|u|, |v|)), and s5, s3 their sums of squares, the norm is
    |h| s5 / sqrt((s5 + s3 / 100) n); a step is accepted below 1.
    """
    s5 = s3 = 0.0
    for a5, a3, a, b in zip(err5, err3, u, v):
        scale = tol + max(abs(a), abs(b)) * tol
        q5 = a5 / scale
        q3 = a3 / scale
        s5 += q5 * q5
        s3 += q3 * q3
    return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * len(u)) if s5 else 0.0


# Steps, accepted or rejected, that one orbit integration may take before it
# fails with ConvergenceError.  The orbits of the shipped configs, of the
# tests and of the benchmark take at most about 60 accepted steps.
MAX_ORBIT_STEPS = 100_000


def integrate_orbit(spec: PotentialSpec, p0: PhasePoint, t_final: float,
                    tol: float = 1e-10, t_eval: Sequence[float] | None = None,
                    n_samples: int = 200) -> Trajectory:
    """Integrate Hamilton's equations with an adaptive embedded RK pair.

    The integration variable is the deviation from the free parabola of the
    initial condition; the closed-form free part is added back in extended
    precision at the sample times.  Sampling defaults to a uniform grid of
    n_samples times; pass t_eval for custom (e.g. logarithmic) sampling,
    inside [0, t_final] and strictly monotone towards t_final.

    Stepping runs DOP853 under scipy's step-size controller, in Python
    floats, from 0 to t_final with rtol = atol = tol, on at most
    MAX_ORBIT_STEPS steps, accepted or rejected.  The samples are then taken
    in one pass over arrays: each sample is one DOP853 step, with the same
    tableau, from the start of the accepted step that contains it.  An
    exception raised by the potential reaches the caller unchanged, and a
    potential may itself integrate orbits.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if not math.isfinite(t_final):
        raise DomainError("t_final must be finite")
    if t_eval is None:
        if n_samples < 1:
            raise DomainError("n_samples must be at least 1")
        t_eval = np.linspace(0.0, t_final, n_samples)
    else:
        t_eval = _checked_t_eval(t_eval, t_final)
    steps_t, steps_u, failure = _accepted_steps(spec, p0, t_final, tol)
    if failure:
        # the samples up to the last accepted step
        t_eval = t_eval[np.sign(t_final) * (t_eval - steps_t[-1]) <= 0.0]
    traj = _trajectory_from_solution(
        spec, p0, t_eval, _sample_steps(spec, p0, steps_t, steps_u, t_eval))
    if failure:
        raise ConvergenceError("orbit integration failed: " + failure,
                               partial=traj)
    return traj


def _checked_t_eval(t_eval, t_final: float) -> np.ndarray:
    """t_eval as an array; DomainError unless it lies in [0, t_final] and
    is strictly monotone towards t_final."""
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size == 0:
        raise DomainError("t_eval must hold at least one time")
    sign = -1.0 if t_final < 0 else 1.0
    if not np.all((sign * t_eval >= 0.0) & (sign * t_eval <= sign * t_final)):
        raise DomainError(f"t_eval must lie between 0 and t_final = {t_final:g}")
    if np.any(sign * np.diff(t_eval) <= 0.0):
        raise DomainError("t_eval must be strictly monotone towards t_final")
    return t_eval


def _accepted_steps(spec, p0, t_final: float, tol: float):
    """Every accepted DOP853 step from u = 0 at t = 0 to t_final.

    Returns the step times (K + 1,) and deviations (K + 1, 2d), both
    starting at t = 0, and None, or the reason the integration stopped after
    K steps: MAX_ORBIT_STEPS steps taken, or a step size below ten spacings
    of the floats at t.  The controller is scipy's (solve_ivp's RungeKutta):
    a step is accepted where _error_norm is below 1, and the next step size
    is the last one times SAFETY err^(-1/8) within [MIN_FACTOR, MAX_FACTOR],
    at most 1 after a rejection.
    """
    n = 2 * p0.d
    times, states = [0.0], [(0.0,) * n]
    if t_final == 0.0:
        return np.array(times), np.array(states), None
    rhs = _deviation_rhs(spec, p0)
    step = _step_closure(spec, p0)
    direction = math.copysign(1.0, t_final)
    t, u = 0.0, states[0]
    f = rhs(t, u)
    h_abs = _first_step(rhs, f, t_final, tol)
    attempts = 0
    while t != t_final:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step or attempts == MAX_ORBIT_STEPS:
                failure = ("step size became too small" if h_abs < min_step
                           else f"more than {MAX_ORBIT_STEPS} steps needed")
                return np.array(times), np.array(states), failure
            attempts += 1
            t_new = t + direction * h_abs
            if direction * (t_new - t_final) > 0.0:
                t_new = t_final
            h = t_new - t
            u_new, f_new, err5, err3 = step(t, u, f, h)
            error = _error_norm(err5, err3, u, u_new, h, tol)
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                h_abs = abs(h) * (min(1.0, factor) if rejected else factor)
                break
            h_abs = abs(h) * max(_MIN_FACTOR,
                                 _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        t, u, f = t_new, u_new, f_new
        times.append(t)
        states.append(u)
    return np.array(times), np.array(states), None


def _first_step(rhs, f0, t_final: float, tol: float) -> float:
    """|h| of the first step from u = 0, where f0 = rhs(0, u).

    This is scipy's select_initial_step (Hairer, Norsett and Wanner, section
    II.4) without its cap of 100 h0: at u = 0 the rule takes h0 = 1e-6, so
    the cap would hold every orbit's first step at 1e-4, about five growing
    steps short of its natural size.  The step is (0.01 / max(d1, d2))^(1/8)
    from the rms sizes d1 of f0 and d2 of its change over h0 per unit time,
    both in units of tol.
    """
    span = abs(t_final)
    h0 = min(1e-6, span)
    dt = math.copysign(h0, t_final)
    f1 = rhs(dt, [dt * a for a in f0])
    d1 = math.sqrt(sum([a * a for a in f0]) / len(f0)) / tol
    d2 = math.sqrt(sum([(b - a) * (b - a) for a, b in zip(f0, f1)])
                   / len(f0)) / tol / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(max(1e-6, h0 * 1e-3), span)
    return min((0.01 / max(d1, d2)) ** (1.0 / 8), span)


def _sample_steps(spec, p0, steps_t, steps_u, t_eval) -> np.ndarray:
    """Deviations (N, 2d) at t_eval, each one DOP853 step from the start of
    the accepted step that contains it, all in one batch."""
    sign = -1.0 if steps_t[-1] < 0 else 1.0
    # steps_t starts at 0, and t_eval lies between 0 and t_final
    k = np.searchsorted(sign * steps_t, sign * t_eval, side="right") - 1
    return _dop853_step(spec, p0, steps_t[k], steps_u[k], t_eval - steps_t[k])


def _dop853_step(spec, p0, t, u, h) -> np.ndarray:
    """One DOP853 step of size h (m,) from each row of u (m, 2d) at t (m,).

    The homogeneous kind with a softening takes its closed-form force
    unchecked.  A bad point makes the step non-finite, and the step is then
    taken again on grad_potential_array, which raises the DomainError of the
    first stage that met one; the table kind and zero softening take
    grad_potential_array throughout.  Both give the same floats.
    """
    if spec.kind == "homogeneous" and spec.softening > 0.0:
        _, s2, ak, power = _radial_constants(spec)

        def radial(x, y):
            f = ak * (x * x + (y * y).sum(axis=1) + s2) ** power
            return f[:, None] * np.concatenate([x[:, None], y], axis=1)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = _dop853_rows(radial, p0, t, u, h)
        if np.isfinite(out).all():
            return out
    return _dop853_rows(lambda x, y: -grad_potential_array(spec, x, y),
                        p0, t, u, h)


def _dop853_rows(force, p0, t, u, h) -> np.ndarray:
    """_dop853_step with the force -grad q on rows x (m,), y (m, d - 1);
    the free parabola is taken at all twelve stage times at once."""
    d = p0.d
    x, y, _, _ = free_flow_arrays(p0.x, p0.y, p0.eta, p0.zeta,
                                  t + _C_ARRAY[:12, None] * h)
    k = np.empty((12,) + u.shape)
    flat = k.reshape(12, -1)
    h_col = h[:, None]
    for s in range(12):
        us = (u + h_col * (_A_ROWS[s, :s] @ flat[:s]).reshape(u.shape)
              if s else u)
        k[s, :, :d] = us[:, d:]
        k[s, :, d:] = force(x[s] + us[:, 0], y[s] + us[:, 1:d])
    return u + h_col * (_A_ROWS[12] @ flat).reshape(u.shape)


def _trajectory_from_solution(spec, p0, times, us) -> Trajectory:
    n = p0.d - 1
    times = np.asarray(times, dtype=float)
    tl = times.astype(np.longdouble)
    x = (np.longdouble(p0.x) + tl * p0.eta + 0.5 * tl * tl + us[:, 0]).astype(float)
    y = p0.y + times[:, None] * p0.zeta + us[:, 1:1 + n]
    eta = (np.longdouble(p0.eta) + tl + us[:, 1 + n]).astype(float)
    zeta = p0.zeta + us[:, 2 + n:]
    states = np.column_stack([x, y, eta, zeta])
    if not np.all(np.isfinite(states)):
        raise DomainError("phase point must be finite")
    return Trajectory(times=times, states=states,
                      energies=_energies(spec, states), spec=spec)


def _energies(spec: PotentialSpec, states: np.ndarray) -> np.ndarray:
    """h at every row of an (N, 2d) state array."""
    d = states.shape[1] // 2
    x, y, eta, zeta = states[:, 0], states[:, 1:d], states[:, d], states[:, d + 1:]
    kinetic = 0.5 * (eta ** 2 + np.sum(zeta * zeta, axis=-1))
    return kinetic - x + eval_potential_array(spec, x, y)


def is_escaping(traj: Trajectory, x_escape: float = 100.0) -> bool:
    """Escape heuristic: x beyond threshold with eta moving away from 0 in
    the orbit's time direction, positive and growing on a forward orbit,
    negative and falling on a backward one (x grows like t^2/2 both ways)."""
    xs = traj.states[:, 0]
    etas = traj.states[:, traj.d] * (-1.0 if traj.times[-1] < 0 else 1.0)
    tail = slice(max(0, len(xs) - 10), None)
    return bool(xs[-1] > x_escape and np.all(etas[tail] > 0)
                and np.all(np.diff(etas[tail]) > 0))


def asymptotic_momentum(spec: PotentialSpec, p0: PhasePoint,
                        direction: int = +1, t_start: float = 100.0,
                        n_doublings: int = 6, tol: float = 1e-10):
    """Asymptotic orthogonal momentum zeta(+-inf) with an error estimate.

    zeta is sampled at dyadically increasing times t_start * 2^k, k = 0..
    n_doublings, and extrapolated by momentum_limit.  Returns (zeta_limit,
    error_estimate).
    """
    if not 0.0 < t_start < math.inf:
        raise DomainError("t_start must be positive and finite")
    if n_doublings < 1:
        raise DomainError("n_doublings must be at least 1")
    sign = 1 if direction >= 0 else -1
    t_grid = t_start * 2.0 ** np.arange(n_doublings + 1)
    traj = integrate_orbit(spec, p0, sign * t_grid[-1], tol=tol,
                           t_eval=sign * t_grid)
    return momentum_limit(traj)


def momentum_limit(traj: Trajectory):
    """zeta(+-inf) and its error estimate from an orbit sampled at dyadic times.

    The residual is assumed to decay like t^(-2 delta), the rate inherited
    from the potential decay; a two-point Richardson step on the last two
    samples extrapolates it away.  Raises ConvergenceError when the orbit
    does not escape, unless q = 0 (the homogeneous kind at kappa = 0).
    """
    spec = traj.spec
    if not is_escaping(traj) and (spec.kind == "table" or spec.kappa != 0.0):
        raise ConvergenceError(
            "orbit does not escape within the time budget", partial=traj)
    zetas = traj.states[:, traj.d + 1:]
    rate = 2.0 ** (2.0 * spec.delta)
    z_T, z_2T = zetas[-2], zetas[-1]
    z_inf = z_2T + (z_2T - z_T) / (rate - 1.0)
    err = float(np.linalg.norm(z_2T - z_T) / (rate - 1.0))
    return z_inf, err


def gamma_observables(p: PhasePoint) -> GammaObservables:
    """Radiation observables measuring deviation from the asymptotic parabola.

    gamma = (eta, zeta) - grad(theta1), gamma_tilde = y / f^2 and gamma_par
    is the component of gamma along grad(f), normalized by |grad f|^2.
    """
    obs = gamma_observables_arrays(np.array([p.x]), p.y[None], np.array([p.eta]),
                                   p.zeta[None])
    return GammaObservables(gamma=obs.gamma[0], gamma_tilde=obs.gamma_tilde[0],
                            gamma_par=float(obs.gamma_par[0]),
                            Gamma_norm=float(obs.Gamma_norm[0]))


def _exact_phase_mask(x, y) -> np.ndarray:
    """Membership in the exact-phase domain x > C, |y|/x < 1/C, batched."""
    ynorm = np.sqrt(np.sum(y * y, axis=-1))
    return (x > THETA1_DOMAIN_C) & (ynorm < x / THETA1_DOMAIN_C)


def gamma_observables_arrays(x, y, eta, zeta) -> GammaObservables:
    """gamma_observables on arrays: x, eta of shape (n,), y, zeta (n, d-1).

    The fields of the result carry the leading axis n.  Raises DomainError
    if any point lies outside the exact-phase domain.
    """
    x, y, eta, zeta = (np.asarray(a, dtype=float) for a in (x, y, eta, zeta))
    if not np.all(_exact_phase_mask(x, y)):
        raise DomainError("outside the exact-phase domain x > C, |y|/x < 1/C")
    # Extended precision throughout: gamma_par hides a near-total cancellation
    # between the f and g components of gamma at late times, and double
    # rounding would floor it around 1e-8.  In this domain r + x > 2, so the
    # coordinate mollifier is the identity and f^2 = r + x exactly.
    x = x.astype(np.longdouble)
    y = y.astype(np.longdouble)
    y_sq = np.sum(y * y, axis=-1)
    r = np.sqrt(x * x + y_sq)
    w = np.sqrt(x * x - y_sq)
    sp = np.sqrt(x + w)
    grad_theta1 = np.column_stack([sp, sp[:, None] * y / (x + w)[:, None]])
    momenta = np.column_stack([eta.astype(np.longdouble),
                               zeta.astype(np.longdouble)])
    gamma = momenta - grad_theta1
    f = np.sqrt(r + x)
    gamma_tilde = y / (r + x)[:, None]
    gf = np.column_stack([(x / r + 1.0) / (2.0 * f),
                          y / (r * 2.0 * f)[:, None]])
    gamma_par = np.sum(gf * gamma, axis=-1) / np.sum(gf * gf, axis=-1)
    big = np.concatenate([gamma, gamma_tilde], axis=-1)
    return GammaObservables(gamma=gamma.astype(float),
                            gamma_tilde=gamma_tilde.astype(float),
                            gamma_par=gamma_par.astype(float),
                            Gamma_norm=np.sqrt(np.sum(big * big, axis=-1))
                            .astype(float))


def decay_slope(traj: Trajectory, observable: str, window) -> tuple[float, float]:
    """Log-log decay exponent of an observable over a time window.

    observable is "Gamma_norm" or "gamma_par".  Times are subsampled
    dyadically; samples where the observable vanishes or the observables are
    undefined are dropped.  Returns (slope, confidence half-width).
    """
    if observable not in ("Gamma_norm", "gamma_par"):
        raise DomainError('observable must be "Gamma_norm" or "gamma_par", '
                          f"got {observable!r}")
    t_lo, t_hi = window
    d = traj.d
    x, y = traj.states[:, 0], traj.states[:, 1:d]
    mask = ((traj.times >= t_lo) & (traj.times <= t_hi)
            & _exact_phase_mask(x, y))
    obs = gamma_observables_arrays(x[mask], y[mask], traj.states[mask, d],
                                   traj.states[mask, d + 1:])
    vals = np.abs(obs.Gamma_norm if observable == "Gamma_norm"
                  else obs.gamma_par)
    nonzero = vals > 0.0
    ts, vals = traj.times[mask][nonzero], vals[nonzero]
    # dyadic subsampling: keep roughly log-uniform times
    if ts.size >= 8:
        keep = _log_subsample(ts, per_octave=4)
        ts, vals = ts[keep], vals[keep]
    if ts.size < 8:
        raise ConvergenceError("fewer than 8 usable samples for the decay fit")
    slope, _, slope_err, _ = loglog_fit(ts, vals)
    return slope, 2.0 * slope_err


def _log_subsample(ts: np.ndarray, per_octave: int = 4) -> np.ndarray:
    """Indices of samples closest to a log-uniform grid."""
    lo, hi = np.log2(ts[0]), np.log2(ts[-1])
    targets = np.linspace(lo, hi, max(8, int((hi - lo) * per_octave) + 1))
    idx = np.unique(np.searchsorted(np.log2(ts), targets).clip(0, ts.size - 1))
    return idx


def _mourre_parts(x, y, eta, zeta, m):
    """(x + <y>_m, numerator eta + yhat_m . zeta, sqrt(2x + 2<y>_m)), batched.

    The square root is taken of max(2x + 2<y>_m, 0); it is meaningful only
    where x + <y>_m > 0.
    """
    y_m = np.sqrt(m * m + np.sum(y * y, axis=-1))
    a_num = eta + np.sum(y / y_m[..., None] * zeta, axis=-1)
    return x + y_m, a_num, np.sqrt(np.maximum(2.0 * x + 2.0 * y_m, 0.0))


def cone_mask(x, y, eta, zeta, m: float = 1.0, eps: float = 0.3,
              sign: int = +1) -> np.ndarray:
    """Membership in X^{+-}_{m, eps} for arrays of phase points.

    x and eta have shape S, y and zeta shape S + (d - 1,); the result is a
    boolean array of shape S.
    """
    x, y, eta, zeta = (np.asarray(a, dtype=float) for a in (x, y, eta, zeta))
    shift, a_num, root = _mourre_parts(x, y, eta, zeta, m)
    s = 1.0 if sign >= 0 else -1.0
    return (shift > 0.0) & (s * a_num > -eps * root)


def in_region_X(p: PhasePoint, m: float = 1.0, eps: float = 0.3,
                sign: int = +1) -> bool:
    """Membership in the flow-invariant cone X^{+-}_{m, eps}."""
    return bool(cone_mask(p.x, p.y, p.eta, p.zeta, m, eps, sign))


def mourre_ratio(p: PhasePoint, m: float = 1.0) -> float:
    """a = (eta + yhat_m . zeta) / sqrt(2x + 2<y>_m), defined for x+<y>_m>0."""
    shift, a_num, root = _mourre_parts(p.x, p.y, p.eta, p.zeta, m)
    if shift <= 0.0:
        raise DomainError("a is defined only where x + <y>_m > 0")
    return float(a_num / root)
