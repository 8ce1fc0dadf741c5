"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.

Orbits are held as arrays: a Trajectory stores its samples as an (N, 2d)
state array with (N,) times and energies, and builds PhasePoints only when
they are read.  The energies, the radiation observables of decay_slope and
the asymptotic momentum are computed on whole trajectories at once.  The
compiled solver calls a right-hand side in Python floats: for the homogeneous
kind at d = 2 and 3 a closure with every coordinate named, otherwise one
closure for every kind and d.  The batched pass that takes the samples
computes the homogeneous force itself.  Other kinds, and points the closed
form cannot take, go to potentials.grad_potential_array and its DomainError.
The free case is the homogeneous kind at kappa = 0, where the deviation
stays exactly 0.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode
from scipy.integrate._ivp import dop853_coefficients

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


def _deviation_rhs(spec: PotentialSpec, p0: PhasePoint, error=None):
    """Hamilton's equations for the deviation from the free parabola of p0.

    The deviation u = state - free_flow(p0, t) stays O(1) on scattering
    orbits while x itself grows like t^2/2, so integrating u keeps the
    error control meaningful over long times.  The right-hand side works in
    Python floats and returns a list: on vectors of length 2d <= 6, numpy's
    per-operation overhead is most of the cost, and the homogeneous kind at
    d = 2 and 3 names its floats.  A point where that closed form fails, and
    every other kind and d, take _generic_rhs.  Given a list error, it stores
    an exception there instead of raising it and returns NaNs from then on.
    """
    generic = _generic_rhs(spec, p0, error)
    if spec.kind != "homogeneous" or p0.d not in (2, 3):
        return generic
    r2_min, s2, ak, power = _radial_constants(spec)
    inf = math.inf
    nans = np.full(2 * p0.d, np.nan)
    if p0.d == 2:
        x0, y0, eta0, zeta0 = p0.as_vector().tolist()

        def rhs(t, u):
            if error:
                return nans
            try:
                dx, dy, deta, dzeta = u.tolist()
                x = x0 + t * eta0 + 0.5 * t * t + dx
                y = y0 + t * zeta0 + dy
                r2 = x * x + y * y
                if r2_min < r2 < inf:
                    f = ak * (r2 + s2) ** power
                    return [deta, dzeta, f * x, f * y]
            except (ZeroDivisionError, OverflowError):
                pass
            except BaseException as exc:  # raised again by _accepted_steps
                if error is None:
                    raise
                error.append(exc)  # so generic returns NaNs
            return generic(t, u)

        return rhs
    x0, y0, y1_0, eta0, zeta0, zeta1_0 = p0.as_vector().tolist()

    def rhs(t, u):
        if error:
            return nans
        try:
            dx, dy, dy1, deta, dzeta, dzeta1 = u.tolist()
            x = x0 + t * eta0 + 0.5 * t * t + dx
            y = y0 + t * zeta0 + dy
            y1 = y1_0 + t * zeta1_0 + dy1
            r2 = x * x + (y * y + y1 * y1)
            if r2_min < r2 < inf:
                f = ak * (r2 + s2) ** power
                return [deta, dzeta, dzeta1, f * x, f * y, f * y1]
        except (ZeroDivisionError, OverflowError):
            pass
        except BaseException as exc:  # raised again by _accepted_steps
            if error is None:
                raise
            error.append(exc)  # so generic returns NaNs
        return generic(t, u)

    return rhs


def _radial_constants(spec: PotentialSpec):
    """r2_min, s2, ak, power of the force ak (r^2 + s2)^power (x, y) of the
    homogeneous kind, at points with r2_min < r^2 < inf."""
    r2_min = EXCLUSION_RADIUS ** 2 if spec.softening == 0.0 else -1.0
    return (r2_min, spec.softening ** 2, spec.alpha * spec.kappa,
            -spec.alpha / 2.0 - 1.0)


def _generic_rhs(spec: PotentialSpec, p0: PhasePoint, error=None):
    """_deviation_rhs for any kind and d; a bad point raises in
    grad_potential_array, or is stored in error as in _deviation_rhs."""
    n = p0.d - 1
    x0, eta0 = float(p0.x), float(p0.eta)
    y0, zeta0 = p0.y.tolist(), p0.zeta.tolist()
    r2_min, s2, ak, power = _radial_constants(spec)
    nans = np.full(2 * p0.d, np.nan)

    def rhs(t, u):
        if error:
            return nans
        try:
            u = u.tolist()
            x = x0 + t * eta0 + 0.5 * t * t + u[0]
            y = [a + t * b + c for a, b, c in zip(y0, zeta0, u[1:1 + n])]
            # (u_x, u_y) dot = (u_eta, u_zeta); (u_eta, u_zeta) dot = -grad q
            r2 = x * x + sum([c * c for c in y])
            if spec.kind == "homogeneous" and r2_min < r2 < math.inf:
                try:
                    f = ak * (r2 + s2) ** power
                except (ZeroDivisionError, OverflowError):
                    pass
                else:
                    return u[1 + n:] + [f * x] + [f * c for c in y]
            return u[1 + n:] + (
                -grad_potential_array(spec, [x], [y])[0]).tolist()
        except BaseException as exc:  # raised again by _accepted_steps
            if error is None:
                raise
            error.append(exc)
            return nans

    return rhs


def _deviation_rhs_rows(spec: PotentialSpec, p0: PhasePoint):
    """_deviation_rhs on rows: t of shape (m,), u (m, 2d), result (m, 2d)."""
    n = p0.d - 1
    r2_min, s2, ak, power = _radial_constants(spec)

    def rhs(t, u):
        x = p0.x + t * p0.eta + 0.5 * t * t + u[:, 0]
        y = p0.y + t[:, None] * p0.zeta + u[:, 1:1 + n]
        if spec.kind == "homogeneous":
            r2 = x * x + (y * y).sum(axis=1)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = ak * (r2 + s2) ** power
            # a NaN fails the comparison, an inf in r2 or f makes r2 + f inf
            if r2_min < r2.min(initial=math.inf) and np.isfinite(r2 + f).all():
                return np.concatenate([u[:, 1 + n:], (f * x)[:, None],
                                       f[:, None] * y], axis=1)
        return np.concatenate(
            [u[:, 1 + n:], -grad_potential_array(spec, x, y)], axis=1)

    return rhs


# Steps, accepted or rejected, that one orbit integration may take before it
# fails with ConvergenceError.  The orbits of the shipped configs, of the
# tests and of the benchmark take at most about 60 accepted steps.
MAX_ORBIT_STEPS = 100_000

_DOP853_FAILURES = {-1: "inconsistent solver input",
                    -2: "more than {} steps needed",
                    -3: "step size became too small",
                    -4: "the problem is probably stiff"}


def integrate_orbit(spec: PotentialSpec, p0: PhasePoint, t_final: float,
                    tol: float = 1e-10, t_eval: Sequence[float] | None = None,
                    n_samples: int = 200) -> Trajectory:
    """Integrate Hamilton's equations with an adaptive embedded RK pair.

    The integration variable is the deviation from the free parabola of the
    initial condition; the closed-form free part is added back in extended
    precision at the sample times.  Sampling defaults to a uniform grid of
    n_samples times; pass t_eval for custom (e.g. logarithmic) sampling,
    inside [0, t_final] and strictly monotone towards t_final.

    Stepping runs in scipy's compiled DOP853 (Hairer's code) from 0 to
    t_final with rtol = atol = tol, on at most MAX_ORBIT_STEPS steps.  The
    samples are then taken in one pass over arrays: each sample is one
    DOP853 step, with the same tableau, from the start of the accepted step
    that contains it.  The compiled solver is not reentrant, so a potential
    must not integrate an orbit from inside its own evaluation; nothing in
    the library nests orbit integrations.
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
    steps_t, steps_u, code = _accepted_steps(spec, p0, t_final, tol)
    if code < 0:
        # the samples up to the last accepted step
        t_eval = t_eval[np.sign(t_final) * (t_eval - steps_t[-1]) <= 0.0]
    traj = _trajectory_from_solution(
        spec, p0, t_eval, _sample_steps(spec, p0, steps_t, steps_u, t_eval))
    if code < 0:
        raise ConvergenceError(
            "orbit integration failed: "
            + _DOP853_FAILURES[code].format(MAX_ORBIT_STEPS), partial=traj)
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
    """Every accepted step of compiled DOP853 from u = 0 at t = 0 to t_final.

    Returns the step times (K + 1,) and deviations (K + 1, 2d), both
    starting at t = 0, and the solver's return code, negative on failure.
    The compiled code cannot carry an exception out of the right-hand side:
    it would go on calling it.  So the right-hand side stores an exception
    and returns NaNs from then on, which no step passes (solout stops the
    solver should one be accepted) until the step size underflows; then the
    exception is raised again here.
    """
    if t_final == 0.0:
        return np.zeros(1), np.zeros((1, 2 * p0.d)), 1
    times, states, error = [], [], []

    def solout(t, u):
        if error:
            return -1
        times.append(t)
        states.append(u.copy())
        return 0

    solver = ode(_deviation_rhs(spec, p0, error)).set_integrator(
        "dop853", rtol=tol, atol=tol, nsteps=MAX_ORBIT_STEPS)
    solver.set_solout(solout)
    solver.set_initial_value(np.zeros(2 * p0.d), 0.0)
    with warnings.catch_warnings():
        # a failure is reported through the return code
        warnings.simplefilter("ignore", UserWarning)
        solver.integrate(t_final)
    if error:
        raise error[0]
    return np.array(times), np.array(states), solver.get_return_code()


def _sample_steps(spec, p0, steps_t, steps_u, t_eval) -> np.ndarray:
    """Deviations (N, 2d) at t_eval, each one DOP853 step from the start of
    the accepted step that contains it, all in one batch."""
    sign = -1.0 if steps_t[-1] < 0 else 1.0
    # steps_t starts at 0, and t_eval lies between 0 and t_final
    k = np.searchsorted(sign * steps_t, sign * t_eval, side="right") - 1
    return _dop853_step(_deviation_rhs_rows(spec, p0), steps_t[k],
                        steps_u[k], t_eval - steps_t[k])


def _dop853_step(rhs, t, u, h) -> np.ndarray:
    """One explicit DOP853 step of size h (m,) from each row of u (m, n)."""
    a, b, c = dop853_coefficients.A, dop853_coefficients.B, dop853_coefficients.C
    k = np.empty((b.size,) + u.shape)
    flat = k.reshape(b.size, -1)
    h_col = h[:, None]
    t_stage = t + c[:b.size, None] * h
    k[0] = rhs(t, u)
    for s in range(1, b.size):
        du = (a[s, :s] @ flat[:s]).reshape(u.shape)
        k[s] = rhs(t_stage[s], u + h_col * du)
    return u + h_col * (b @ flat).reshape(u.shape)


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
    """Escape heuristic: x beyond threshold with eta positive and growing."""
    xs = traj.states[:, 0]
    etas = traj.states[:, traj.d]
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
