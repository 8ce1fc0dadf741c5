"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.

Orbits are held as arrays: a Trajectory stores its samples as an (N, 2d)
state array with (N,) times and energies, and builds PhasePoints only when
they are read.  The energies, the radiation observables of decay_slope and
the asymptotic momentum are computed on whole trajectories at once; the
ODE right-hand side shares the radial gradient formula and its point checks
with potentials.grad_potential.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError
from .potentials import (PotentialSpec, _radial_grad_prefactor, eval_potential,
                         eval_potential_array, grad_potential)
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
    """free_flow on arrays: x, eta of shape S, y, zeta of shape S + (d-1,)."""
    return x + t * eta + 0.5 * t * t, y + t * zeta, eta + t, zeta


def _deviation_rhs(spec: PotentialSpec, p0: PhasePoint):
    """Hamilton's equations for the deviation from the free parabola of p0.

    The deviation u = state - free_flow(p0, t) stays O(1) on scattering
    orbits while x itself grows like t^2/2, so integrating u keeps the
    error control meaningful over long times.  The right-hand side works in
    Python floats (the solver passes t as a numpy scalar): on vectors of
    length 2d <= 6, numpy's per-operation overhead is most of the cost.
    """
    n = p0.d - 1
    x0, eta0 = float(p0.x), float(p0.eta)
    y0, zeta0 = p0.y.tolist(), p0.zeta.tolist()
    radial = spec.kind in ("homogeneous", "coulomb")
    no_force = [0.0] * (n + 1)

    def rhs(t, u):
        t = float(t)
        u = u.tolist()
        x = x0 + t * eta0 + 0.5 * t * t + u[0]
        y = [a + t * b + c for a, b, c in zip(y0, zeta0, u[1:1 + n])]
        if radial:
            pref = _radial_grad_prefactor(
                spec, x * x + sum([c * c for c in y]))
            force = [-pref * x] + [-pref * c for c in y]
        elif spec.kind == "table":
            force = (-grad_potential(spec, x, np.array(y))).tolist()
        else:
            force = no_force
        # (u_x, u_y) dot = (u_eta, u_zeta); (u_eta, u_zeta) dot = -grad q
        return np.array(u[1 + n:] + force)

    return rhs


def integrate_orbit(spec: PotentialSpec, p0: PhasePoint, t_final: float,
                    tol: float = 1e-10, t_eval: Sequence[float] | None = None,
                    n_samples: int = 200) -> Trajectory:
    """Integrate Hamilton's equations with an adaptive embedded RK pair.

    The integration variable is the deviation from the free parabola of the
    initial condition; the closed-form free part is added back in extended
    precision at the sample times.  Sampling defaults to a uniform grid of
    n_samples times; pass t_eval for custom (e.g. logarithmic) sampling.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_final, n_samples)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
    u0 = np.zeros(2 * p0.d)
    sol = solve_ivp(_deviation_rhs(spec, p0), (0.0, t_final),
                    u0, method="DOP853",
                    rtol=tol, atol=tol, t_eval=t_eval, dense_output=False)
    if not sol.success:
        partial = _trajectory_from_solution(spec, p0, sol.t, sol.y)
        raise ConvergenceError(f"orbit integration failed: {sol.message}",
                               partial=partial)
    return _trajectory_from_solution(spec, p0, sol.t, sol.y)


def _trajectory_from_solution(spec, p0, times, us) -> Trajectory:
    n = p0.d - 1
    times = np.asarray(times, dtype=float)
    tl = times.astype(np.longdouble)
    x = (np.longdouble(p0.x) + tl * p0.eta + 0.5 * tl * tl + us[0]).astype(float)
    y = p0.y + times[:, None] * p0.zeta + us[1:1 + n].T
    eta = (np.longdouble(p0.eta) + tl + us[1 + n]).astype(float)
    zeta = p0.zeta + us[2 + n:].T
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
    if spec.kind == "table":
        q = np.array([eval_potential(spec, xi, yi) for xi, yi in zip(x, y)])
    else:
        q = eval_potential_array(spec, x, np.sum(y * y, axis=-1))
    return kinetic - x + q


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
    does not escape (except for the zero potential).
    """
    spec = traj.spec
    if not is_escaping(traj) and spec.kind != "zero":
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
