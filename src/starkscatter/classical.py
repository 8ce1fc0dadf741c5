"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.

Orbits are held as arrays: a Trajectory stores its samples as an (N, 2d)
state array with (N,) times and energies, and builds PhasePoints only when
they are read.  The energies, the radiation observables of decay_slope and
the asymptotic momentum are computed on whole trajectories at once.  Orbits
are stepped by DOP853 under scipy's step-size controller in Python floats.
One step is one call of straight-line code that is generated from the
tableau for the orbit's dimension and compiled at the first orbit of that
dimension in the process; it evaluates potentials.force_law on floats and
returns scipy's error norm with the new state, and the first step's
right-hand side is generated with it.  The table kind, and points the
closed form cannot take, go to potentials.force_rows on one row and its
DomainError, and the batched pass that takes the samples calls force_rows
on all its rows at each stage.  The free case is the homogeneous kind at
kappa = 0, where the deviation stays exactly 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .potentials import (PotentialSpec, eval_potential_array, force_law,
                         force_rows)
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


def _step_closure(spec: PotentialSpec, p0: PhasePoint, tol: float):
    """One DOP853 step of the deviation of p0, with scipy's error norm, and
    the deviation's right-hand side: _step_maker's code for p0's dimension.

    step(t, u, f, h) takes the deviation u at t with f = rhs(t, u) (the last
    step's final stage), and returns the deviation at t + h, its right-hand
    side and the error norm of the step at rtol = atol = tol: a step is
    accepted below 1.
    """
    return _step_maker(p0.d)(spec, p0.as_vector().tolist(),
                             force_law(spec), tol)


@functools.cache
def _step_maker(d: int):
    """make_step of _step_source(d), compiled at the first orbit of
    dimension d in the process."""
    namespace = {}
    exec(compile(_step_source(d), f"<DOP853 step, d = {d}>", "exec"),
         globals(), namespace)
    return namespace["make_step"]


def _step_source(d: int) -> str:
    """Source of make_step(spec, start, law, tol) at dimension d.

    make_step takes the start point as the list x0, y0_1 .., eta0, zeta0_1
    .. and potentials.force_law(spec), and returns _step_closure's step and
    rhs.  Both work on the deviation u = state - free_flow(p0, t), which
    stays O(1) on scattering orbits while x itself grows like t^2/2, so the
    error control stays meaningful over long times.  rhs(t, u) is Hamilton's
    equations for u, (u_x, u_y) dot = (u_eta, u_zeta) and (u_eta, u_zeta)
    dot = -grad q.  The step is straight-line code on Python floats: on 2d
    components numpy's per-operation overhead would be most of the cost, and
    a loop over the tableau doubles it.  Every sum is written out in the
    order of _STAGES and _ERRORS, so each float rounds as the loop rounds
    it.  Stage s forms the positions p<i> and its K, k<s>_<i>: the
    velocities, then the force.  One helper writes the force for rhs and
    for every stage: the force law's closed form on Python floats where it
    holds, and elsewhere, for any kind, checked: potentials.force_rows on
    the one row, with its DomainError.
    """
    n = 2 * d
    ys = [f"y{i}" for i in range(1, d)]
    start = ["x0", *[f"c{y}" for y in ys], "eta0", *[f"z{y}" for y in ys]]
    squares = " + ".join([f"{y} * {y}" for y in ys])
    # the components of the new deviation: stage 12's positions and velocities
    new = [f"p{i}" for i in range(d)] + [f"k12_{i}" for i in range(d)]

    def names(prefix: str, first: int = 0) -> str:
        return ", ".join([f"{prefix}{i}" for i in range(first, n)])

    def total(terms: list) -> str:
        # added left to right, as a loop adds them to 0.0
        return " + ".join(["0.0", *terms])

    def weighted(row, i: int) -> str:
        return total([f"{w!r} * k{j}_{i}" for j, w in row])

    def force(t: str, positions: str, forces: str) -> list:
        # -grad q at the deviation's positions at time t, into forces
        return [
            f"        x = x0 + {t} * eta0 + 0.5 * {t} * {t} + {positions}0",
            *[f"        {y} = c{y} + {t} * z{y} + {positions}{i}"
              for i, y in enumerate(ys, start=1)],
            "        r2 = x * x" + (f" + ({squares})" if ys else ""),
            "        try:",
            "            g = ak * (r2 + s2) ** power if r2_min < r2 < inf "
            "else None",
            "        except (ZeroDivisionError, OverflowError):",
            "            g = None",
            "        if g is None:",
            f"            {names(forces, d)}, = checked([x, {', '.join(ys)}])",
            "        else:",
            *[f"            {forces}{i} = g * {y}"
              for i, y in enumerate(["x", *ys], start=d)],
        ]

    lines = [
        "def make_step(spec, start, law, tol):",
        f"    {', '.join(start)} = start",
        "    r2_min, s2, ak, power = law",
        "    inf, sqrt = math.inf, math.sqrt",
        "",
        "    def checked(z):",
        "        with np.errstate(divide='ignore', over='ignore', "
        "invalid='ignore'):",
        "            return force_rows(spec, np.array([z]))[0].tolist()",
        "",
        "    def rhs(t, u):",
        f"        {names('u')} = u",
        *force("t", "u", "f"),
        f"        return [{names('u', d)}, {names('f', d)}]",
        "",
        "    def step(t, u, f, h):",
        f"        {names('u')} = u",
        f"        {names('k0_')} = f",
    ]
    for s, (c, row) in enumerate(_STAGES, start=1):
        state = [f"p{i}" for i in range(d)] + [f"k{s}_{i}" for i in range(d)]
        lines += [
            f"        ts = t + {c!r} * h",
            *[f"        {name} = u{i} + ({weighted(row, i)}) * h"
              for i, name in enumerate(state)],
            *force("ts", "p", f"k{s}_"),
        ]
    # scipy's error norm: with E5 and E3 over tol (1 + max(|u|, |v|)) by
    # component and s5, s3 their sums of squares, |h| s5 / sqrt((s5 + s3 /
    # 100) n); a step is accepted below 1.  |u| and the max are written out,
    # which rounds alike: only a NaN norm's sign can differ, and NaN rejects
    for i in range(n):
        lines += [
            f"        a = u{i} if u{i} >= 0.0 else -u{i}",
            f"        b = {new[i]} if {new[i]} >= 0.0 else -{new[i]}",
            "        scale = tol + (b if b > a else a) * tol",
            *[f"        q{e}_{i} = ({weighted(row, i)}) / scale"
              for e, row in zip((5, 3), _ERRORS)],
        ]
    lines += [
        *[f"        s{e} = "
          + total([f"q{e}_{i} * q{e}_{i}" for i in range(n)])
          for e in (5, 3)],
        f"        error = abs(h) * s5 / sqrt((s5 + 0.01 * s3) * {n}) if s5 "
        "else 0.0",
        f"        return ({', '.join(new)}), ({names('k12_')}), error",
        "",
        "    return step, rhs",
    ]
    return "\n".join(lines) + "\n"


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
    a step is accepted where its error norm is below 1, and the next step size
    is the last one times SAFETY err^(-1/8) within [MIN_FACTOR, MAX_FACTOR],
    at most 1 after a rejection.
    """
    n = 2 * p0.d
    times, states = [0.0], [(0.0,) * n]
    if t_final == 0.0:
        return np.array(times), np.array(states), None
    step, rhs = _step_closure(spec, p0, tol)
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
            u_new, f_new, error = step(t, u, f, h)
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

    The free parabola's positions at all twelve stage times are formed at
    once, and each stage's force is one call of force_rows on every row,
    which raises the DomainError of the first stage that meets a bad point.
    """
    d = p0.d
    x, y, _, _ = free_flow_arrays(p0.x, p0.y, p0.eta, p0.zeta,
                                  t + _C_ARRAY[:12, None] * h)
    free = np.concatenate([x[..., None], y], axis=-1)
    k = np.empty((12,) + u.shape)
    flat = k.reshape(12, -1)
    h_col = h[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(12):
            us = (u + h_col * (_A_ROWS[s, :s] @ flat[:s]).reshape(u.shape)
                  if s else u)
            k[s, :, :d] = us[:, d:]
            force_rows(spec, free[s] + us[:, :d], k[s, :, d:])
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


def is_escaping(traj: Trajectory) -> bool:
    """Escape heuristic: x beyond 100 with eta moving away from 0 in the
    orbit's time direction, positive and growing on a forward orbit,
    negative and falling on a backward one (x grows like t^2/2 both ways)."""
    xs = traj.states[:, 0]
    etas = traj.states[:, traj.d] * (-1.0 if traj.times[-1] < 0 else 1.0)
    tail = slice(max(0, len(xs) - 10), None)
    # one sample shows no growth
    return bool(len(xs) > 1 and xs[-1] > 100.0 and np.all(etas[tail] > 0)
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

    The residual zeta(t) - zeta(+-inf) decays like t^-p.  On a scattering
    orbit r ~ t^2/2 and |y| ~ |t|: the transverse force of the homogeneous
    kappa r^-alpha is kappa alpha |y| r^(-alpha - 2) ~ t^(-2 alpha - 3), so
    p = 2 alpha + 2, and a table potential, which need not be radial, takes
    the bound p = 2 alpha + 1 of its declared decay r^-alpha.  A two-point
    Richardson step on the last two samples extrapolates it away.  Raises
    DomainError on fewer than two samples, and ConvergenceError when the
    orbit does not escape, unless q = 0 (the homogeneous kind at kappa = 0).
    """
    if len(traj) < 2:
        raise DomainError("momentum_limit needs at least two samples")
    spec = traj.spec
    if not is_escaping(traj) and (spec.kind == "table" or spec.kappa != 0.0):
        raise ConvergenceError(
            "orbit does not escape within the time budget", partial=traj)
    zetas = traj.states[:, traj.d + 1:]
    rate = 2.0 ** (2.0 * spec.alpha + (1.0 if spec.kind == "table" else 2.0))
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
    x, y, r, gamma = _gamma(x, y, eta, zeta)
    gamma_tilde = _gamma_tilde(x, y, r)
    return GammaObservables(gamma=gamma.astype(float),
                            gamma_tilde=gamma_tilde.astype(float),
                            gamma_par=_gamma_par(x, y, r, gamma).astype(float),
                            Gamma_norm=_Gamma_norm(gamma, gamma_tilde)
                            .astype(float))


def _gamma(x, y, eta, zeta):
    """x, y, r and gamma = (eta, zeta) - grad(theta1) in extended precision,
    at points of the exact-phase domain.

    gamma_par hides a near-total cancellation between the f and g components
    of gamma at late times, and double rounding would floor it around 1e-8.
    In this domain r + x > 2, so the coordinate mollifier is the identity
    and f^2 = r + x exactly.
    """
    x = x.astype(np.longdouble)
    y = y.astype(np.longdouble)
    y_sq = np.sum(y * y, axis=-1)
    r = np.sqrt(x * x + y_sq)
    w = np.sqrt(x * x - y_sq)
    sp = np.sqrt(x + w)
    grad_theta1 = np.column_stack([sp, sp[:, None] * y / (x + w)[:, None]])
    momenta = np.column_stack([eta.astype(np.longdouble),
                               zeta.astype(np.longdouble)])
    return x, y, r, momenta - grad_theta1


def _gamma_tilde(x, y, r):
    return y / (r + x)[:, None]


def _gamma_par(x, y, r, gamma):
    """The component of gamma along grad f, over |grad f|^2."""
    f = np.sqrt(r + x)
    gf = np.column_stack([(x / r + 1.0) / (2.0 * f),
                          y / (r * 2.0 * f)[:, None]])
    return np.sum(gf * gamma, axis=-1) / np.sum(gf * gf, axis=-1)


def _Gamma_norm(gamma, gamma_tilde):
    big = np.concatenate([gamma, gamma_tilde], axis=-1)
    return np.sqrt(np.sum(big * big, axis=-1))


def decay_slope(traj: Trajectory, observable: str, window) -> tuple[float, float]:
    """Log-log decay exponent of an observable over a time window.

    observable is "Gamma_norm" or "gamma_par", over 0 < t_lo < t_hi.  Times
    are subsampled dyadically; samples where the observable vanishes or the
    observables are undefined are dropped.  Returns (slope, half-width).
    """
    if observable not in ("Gamma_norm", "gamma_par"):
        raise DomainError('observable must be "Gamma_norm" or "gamma_par", '
                          f"got {observable!r}")
    t_lo, t_hi = window
    if not 0.0 < t_lo < t_hi:
        raise DomainError(f"window ({t_lo:g}, {t_hi:g}) needs 0 < t_lo < t_hi")
    d = traj.d
    x, y = traj.states[:, 0], traj.states[:, 1:d]
    mask = ((traj.times >= t_lo) & (traj.times <= t_hi)
            & _exact_phase_mask(x, y))
    x, y, r, gamma = _gamma(x[mask], y[mask], traj.states[mask, d],
                            traj.states[mask, d + 1:])
    vals = np.abs((_Gamma_norm(gamma, _gamma_tilde(x, y, r))
                   if observable == "Gamma_norm"
                   else _gamma_par(x, y, r, gamma)).astype(float))
    nonzero = vals > 0.0
    ts, vals = traj.times[mask][nonzero], vals[nonzero]
    # dyadic subsampling: keep roughly log-uniform times
    if ts.size >= 8:
        keep = _log_subsample(ts)
        ts, vals = ts[keep], vals[keep]
    if ts.size < 8:
        raise ConvergenceError("fewer than 8 usable samples for the decay fit")
    slope, _, slope_err, _ = loglog_fit(ts, vals)
    return slope, 2.0 * slope_err


def _log_subsample(ts: np.ndarray) -> np.ndarray:
    """Indices of the samples nearest a log grid of 4 an octave, each once.

    The searched indices never decrease, so dropping repeats keeps each
    once; np.unique would also import numpy.ma, about 10 ms, at its first
    call.
    """
    lo, hi = np.log2(ts[0]), np.log2(ts[-1])
    targets = np.linspace(lo, hi, max(8, int((hi - lo) * 4) + 1))
    idx = np.searchsorted(np.log2(ts), targets).clip(0, ts.size - 1)
    return idx[np.diff(idx, prepend=-1) > 0]


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
