"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.

Orbits are held as arrays: a Trajectory stores its samples as an (N, 2d)
state array with (N,) times and energies, and builds PhasePoints only when
they are read.  The energies, the radiation observables of decay_slope and
the asymptotic momentum are computed on whole trajectories at once.  An
orbit is integrated as its deviation from the free parabola, by
Gauss-Legendre collocation on quadrature's 16-node panels solved by Picard
sweeps; a sweep is one potentials.force_rows call on every node of a window
of panels.  The width controller alone places the panels, towards the final
time; every sample is read off its panel's collocation polynomial, so the
samples do not change the orbit.  A Trajectory is frozen with read-only
arrays, so decay_slope works out each window of it once.  The free case is
the homogeneous kind at kappa = 0, where the deviation stays exactly 0."""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .parabolic import exact_phase
from .potentials import (FD_FORCE_ERROR, PotentialSpec, eval_potential_array,
                         force_rows, norm_squared, r_squared)
from .quadrature import loglog_fit, panels, running, running_rows

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


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped orbit with its conserved-energy record.

    times has shape (N,), energies (N,) and states (N, 2d): row i is the
    phase point (x, y, eta, zeta) at times[i].  error_estimate (2d,) is the
    integrator's achieved error estimate by component, in state units,
    with the table kind's central-difference force error in it.  The
    instance is frozen and its four arrays are read-only, so decay_slope
    keeps what it works out for a window in a private memo that cannot go
    stale.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    spec: PotentialSpec
    error_estimate: np.ndarray
    # decay_slope's window (t_lo, t_hi) -> the kept times and their
    # extended-precision x, y, r and gamma
    _windows: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        for a in (self.times, self.states, self.energies, self.error_estimate):
            a.flags.writeable = False

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
        return float(np.abs(self.energies - e0).max() / scale)

    def to_csv_rows(self) -> np.ndarray:
        """Rows t, x, y_1.., eta, zeta_1.., energy as one (N, 2d + 2) array."""
        return np.column_stack([self.times, self.states, self.energies])


class GammaObservables(NamedTuple):
    """Radiation observables at n points: gamma (n, d), gamma_tilde
    (n, d - 1), gamma_par and Gamma_norm (n,)."""

    gamma: np.ndarray
    gamma_tilde: np.ndarray
    gamma_par: np.ndarray
    Gamma_norm: np.ndarray


def free_flow(x, y, eta, zeta, t):
    """Exact free orbit: x gains t*eta + t^2/2, y gains t*zeta, eta gains t,
    zeta is fixed.  x, eta have shape S, y, zeta shape S + (d-1,); t is a
    number or an array that broadcasts with S.  y + t zeta is formed one
    column of y at a time, so that each pass runs along the batch."""
    y, zeta, t = np.asarray(y), np.asarray(zeta), np.asarray(t)
    shape = np.broadcast(y[..., :1], t[..., None], zeta[..., :1]).shape
    y_t = np.empty(shape[:-1] + y.shape[-1:], np.result_type(y, t, zeta))
    for i in range(y.shape[-1]):
        np.add(y[..., i], t * zeta[..., i], out=y_t[..., i])
    return x + t * eta + 0.5 * t * t, y_t, eta + t, zeta


# Panels, laid out or laid out again, that one orbit integration may take
# before it fails with ConvergenceError; a benchmark orbit takes about 12.
MAX_ORBIT_STEPS = 100_000

# The width controller: a panel whose tail is r times its bound asks for
# SAFETY r^(-1/8) times its width, within [MIN_FACTOR, MAX_FACTOR].  The tail
# falls like the width^17 only once the panel resolves the force, far more
# slowly before.  After a cut the window holds _MIN_WINDOW panels or more; a
# front panel that has not converged in _STALL sweeps is halved.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.6, 0.02, 4.0, -1.0 / 8
_MIN_WINDOW, _STALL = 32, 8
# the 16 nodes of a panel on (0, 1), as a column
_NODES = panels(1).t[:, None]


def integrate_orbit(spec: PotentialSpec, p0: PhasePoint, t_final: float,
                    tol: float = 1e-10, t_eval: Sequence[float] | None = None,
                    n_samples: int = 200) -> Trajectory:
    """Integrate Hamilton's equations by Gauss-Legendre collocation.

    The integration variable is the deviation u from the free parabola of
    the initial condition, u'' = -grad q(free(t) + u), u(0) = u'(0) = 0;
    the free part is added back in extended precision at the sample times,
    a uniform grid of n_samples, or t_eval inside [0, t_final] and strictly
    monotone towards t_final.  The panels, of quadrature's 16 nodes, run
    from 0 to t_final and are placed by the width controller alone, so the
    samples change neither the work nor the final state nor error_estimate;
    the first is as wide as the start's own time scale |position| /
    |velocity|, and the first layout, made before any tail is known,
    doubles the widths towards t_final.  A window of them is solved by
    Picard sweeps (modified Chebyshev-Picard iteration, Bai and Junkins, J.
    Astronaut. Sci. 58 (2011) 583), whose fixed point is Gauss
    collocation: a sweep is one force_rows call on every node, and
    quadrature.running integrates the force into the velocity and that into
    the position.  The leading panels are accepted once the sweep moved
    each component of their end states by at most tol (1 + |value|) and
    their tail, the P_15 coefficient of the force times the squared
    half-width, is as small against the position; a panel with a larger
    tail is laid out again from the width controller, with those after it,
    the widths growing by half a panel.  Every sample in an accepted panel,
    one on its end included, is read off the panel's collocation
    polynomial: the velocity integrates the node forces from the panel's
    start by quadrature.running_rows, and the position the node velocities,
    as the sweep integrates them.  At most MAX_ORBIT_STEPS panels are laid
    out.  error_estimate sums the last change and the tail (once times the
    half-width, for the velocity) of every panel; for the table kind it
    adds the force's rounding, potentials.FD_FORCE_ERROR of the panel's
    largest force component, integrated over the panel for the velocity and
    carried on to t_final for the position.  The last change is the term
    that bounds the collocation's truncation error: the tails alone fall
    short of the error at the interior samples, so a rule that stops the
    sweeps sooner needs a truncation estimate of its own.  A sweep meets
    points off the converged orbit; an exception raised by the potential
    reaches the caller unchanged, and a potential may itself integrate
    orbits.
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
    if t_final == 0.0:
        zeros = np.zeros((t_eval.size, 2 * p0.d))
        return _trajectory_from_solution(spec, p0, t_eval, zeros, zeros[0])
    # the grid: 0, the samples and t_final, each once
    first = int(t_eval[0] != 0.0)
    grid = np.concatenate([[0.0] * first, t_eval,
                           [t_final] * int(t_eval[-1] != t_final)])
    us, reached, error, failure = _collocate(spec, p0, grid, tol)
    samples = slice(first, min(first + t_eval.size, reached))
    traj = _trajectory_from_solution(spec, p0, grid[samples], us[samples],
                                     error)
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
    if not ((sign * t_eval >= 0.0) & (sign * t_eval <= sign * t_final)).all():
        raise DomainError(f"t_eval must lie between 0 and t_final = {t_final:g}")
    if (sign * (t_eval[1:] - t_eval[:-1]) <= 0.0).any():
        raise DomainError("t_eval must be strictly monotone towards t_final")
    return t_eval


def _factor(ratio) -> float:
    """The width factor a tail of ratio times its bound asks for, under
    the sweep's np.errstate: a tail of 0 asks for MAX_FACTOR."""
    return min(_MAX_FACTOR,
               max(_MIN_FACTOR, _SAFETY * ratio ** _ERROR_EXPONENT))


def _lay_out(t_final: float, a: float, h: float, count: int, growth: float):
    """Up to count panel ends from a towards t_final: t_final within h of
    a panel's start, or else the first of the fewest equal panels of width
    at most h to it; h grows by the factor growth with each panel, so
    that a window reaches past a stretch that needs narrow panels."""
    ends = []
    while len(ends) < count and a != t_final:
        rest = t_final - a
        a = t_final if abs(rest) <= h else a + rest / math.ceil(abs(rest) / h)
        ends.append(a)
        h *= growth
    return np.array(ends)


def _collocate(spec, p0, grid, tol: float):
    """Deviations (n, 2d) at the n grid times from u = u' = 0 at grid[0] =
    0, the number of grid times reached, the error estimate (2d,), and None
    or the reason the integration stopped."""
    d = p0.d
    sign = -1.0 if grid[-1] < 0 else 1.0
    ahead = (sign * grid).tolist()
    out, error, reached = np.zeros((grid.size, 2 * d)), np.zeros(2 * d), 1
    # the window: panel edges (P + 1,), with start = (u, u', u'') at
    # edges[0]; by panel, the half-width (P, 1), end state (P, 2d) and last
    # node's force (P, d) of the last sweep; at the nodes, the free
    # positions and the position iterate (16, P, d)
    edges, half = np.zeros(1), np.zeros((0, 1))
    ends, last = np.zeros((0, 2 * d)), np.zeros((0, d))
    free = U = np.zeros((16, 0, d))
    # the first width: the start's own time scale |position| / |velocity|
    r, speed = math.hypot(p0.x, *p0.y), math.hypot(p0.eta, *p0.zeta)
    h = r / speed if r > 0.0 and speed > 0.0 else math.inf
    window, laid, stall = MAX_ORBIT_STEPS, 0, 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        start = (np.zeros(d), np.zeros(d),
                 force_rows(spec, p0.as_vector()[None, :d])[0])
        while True:
            t = edges[-1]
            if len(half) < window - 1 and t != grid[-1]:
                if h < 10.0 * abs(math.nextafter(t, math.inf) - t):
                    return out, reached, error, "panel width became too small"
                # the first layout, made before any tail was seen, doubles
                # its widths towards t_final; the later ones grow by half
                new = _lay_out(grid[-1], t, h, window - len(half),
                               1.5 if laid else 2.0)
                laid += new.size
                if laid > MAX_ORBIT_STEPS:
                    return (out, reached, error,
                            f"more than {MAX_ORBIT_STEPS} panels needed")
                # the guess: the Taylor quadratic from the window's last end
                u, v, a = ((ends[-1, :d], ends[-1, d:], last[-1])
                           if len(half) else start)
                lo = np.concatenate([edges[-1:], new[:-1]])
                times = lo + _NODES * (new - lo)
                x, y, _, _ = free_flow(p0.x, p0.y, p0.eta, p0.zeta, times)
                # tau (17, P): the nodes and the panel ends; the guess is
                # formed one component at a time, along the panels
                tau = np.concatenate([times, new[None]]) - t
                half_tau, guess = 0.5 * tau, np.empty(tau.shape + (d,))
                for i in range(d):
                    np.add(u[i], tau * (v[i] + half_tau * a[i]),
                           out=guess[..., i])
                free = np.concatenate(
                    [free, np.concatenate([x[..., None], y], axis=-1)], axis=1)
                U = np.concatenate([U, guess[:-1]], axis=1)
                v_ends = v + tau[-1, :, None] * a
                ends = np.concatenate(
                    [ends, np.concatenate([guess[-1], v_ends], 1)])
                edges = np.concatenate([edges, new])
                half = np.concatenate([half, 0.5 * (new - lo)[:, None]])
            # one sweep: the force at every node, integrated twice
            u0, v0, _ = start
            A = force_rows(spec, (free + U).reshape(-1, d)).reshape(U.shape)
            a_in, a_whole, a_last = running(A, half)
            v_end = v0 + a_whole.cumsum(0)
            V = a_in + (v_end - a_whole)
            v_in, v_whole, _ = running(V, half)
            u_end = u0 + v_whole.cumsum(0)
            U, last = v_in + (u_end - v_whole), A[-1]
            new_ends = np.concatenate([u_end, v_end], axis=1)
            scale = tol * (1.0 + np.abs(new_ends))
            change = np.abs(new_ends - ends)
            # the tail in velocity units, and as a position against its bound
            tail = np.abs(a_last * half)
            ratio = (tail * np.abs(half) / scale[:, :d]).max(1)
            ok = (change <= scale).all(1) & (ratio <= 1.0)
            ends = new_ends
            m = int(ok.argmin()) if not ok.all() else ok.size
            stall = 0 if m else stall + 1
            if m:
                # accept the leading m panels: the samples in them are read
                # off the collocation polynomial at s in (-1, 1] of panel
                # p, from its start state, integrated as the sweep does
                times = grid[reached:bisect_right(ahead, sign * edges[m])]
                if times.size:
                    p = (sign * edges[1:m + 1]).searchsorted(sign * times)
                    s = (times - edges[p]) / half[p, 0] - 1.0
                    nodal = np.concatenate([V, A], axis=2)[:, p]
                    out[reached:reached + times.size] = (
                        ends[p] - np.concatenate([v_whole, a_whole], 1)[p]
                        + half[p] * (running_rows(s)[:, None]
                                     @ nodal.swapaxes(0, 1))[:, 0])
                # the tails in state units: the position's, the velocity's
                error += (change[:m] + np.concatenate(
                    [tail[:m] * np.abs(half[:m]), tail[:m]], 1)).sum(0)
                if spec.kind == "table":
                    # the rounding of its central-difference force, over
                    # each panel for the velocity and on to t_final for
                    # the position
                    dv = (FD_FORCE_ERROR * np.abs(A[:, :m]).max((0, 2))
                          * 2.0 * np.abs(half[:m, 0]))
                    error[:d] += dv @ np.abs(grid[-1] - edges[:m])
                    error[d:] += dv.sum()
                reached += times.size
                if reached == grid.size:
                    return out, reached, error, None
                start = (ends[m - 1, :d], ends[m - 1, d:], last[m - 1])
            bad = (ratio[m:] > 1.0).nonzero()[0]
            if bad.size or stall > _STALL:
                # the panels from the first that fails its tail, or a front
                # panel that does not converge, are laid out again
                cut = m + int(bad[0]) if bad.size else m
                h = 2.0 * abs(half[cut, 0]) * (
                    min(1.0, _factor(ratio[cut])) if bad.size else 0.5)
                window, stall = max(_MIN_WINDOW, cut - m), 0
            else:
                cut = len(half)
                if m == cut:
                    window *= 2
                # the next width from the window's last panel
                h = 2.0 * abs(half[-1, 0]) * _factor(ratio[-1])
            if m or cut < len(half):
                edges, free, U = edges[m:cut + 1], free[:, m:cut], U[:, m:cut]
                half, ends, last = (a[m:cut] for a in (half, ends, last))


def _trajectory_from_solution(spec, p0, times, us, error) -> Trajectory:
    n = p0.d - 1
    times = np.asarray(times, dtype=float)
    tl = times.astype(np.longdouble)
    x = (np.longdouble(p0.x) + tl * p0.eta + 0.5 * tl * tl + us[:, 0]).astype(float)
    y = p0.y + times[:, None] * p0.zeta + us[:, 1:1 + n]
    eta = (np.longdouble(p0.eta) + tl + us[:, 1 + n]).astype(float)
    zeta = p0.zeta + us[:, 2 + n:]
    states = np.concatenate([x[:, None], y, eta[:, None], zeta], 1)
    if not np.isfinite(states).all():
        raise DomainError("phase point must be finite")
    return Trajectory(times=times, states=states,
                      energies=energy(spec, states), spec=spec,
                      error_estimate=error)


def energy(spec: PotentialSpec, states: np.ndarray) -> np.ndarray:
    """h at every row of an (N, 2d) state array."""
    d = states.shape[1] // 2
    x, y, eta, zeta = states[:, 0], states[:, 1:d], states[:, d], states[:, d + 1:]
    return 0.5 * r_squared(eta, zeta) - x + eval_potential_array(spec, x, y)


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
    """Asymptotic orthogonal momentum zeta(+-inf) with an error estimate:
    zeta on the dyadic_orbit, extrapolated by momentum_limit.  Returns
    (zeta_limit, error_estimate).
    """
    return momentum_limit(dyadic_orbit(spec, p0, direction, t_start,
                                       n_doublings, tol))


def dyadic_orbit(spec: PotentialSpec, p0: PhasePoint, direction: int,
                 t_start: float, n_doublings: int, tol: float) -> Trajectory:
    """The orbit at the times t_start * 2^k, k = 0..n_doublings, forwards
    for direction >= 0 and backwards else; DomainError unless t_start is
    positive and finite, n_doublings at least 1 and x^2 finite for the
    free parabola's x ~ t^2 / 2 at the last time t = t_start *
    2^n_doublings (the potential squares x), checked before any work."""
    if not 0.0 < t_start < math.inf:
        raise DomainError("t_start must be positive and finite")
    if n_doublings < 1:
        raise DomainError("n_doublings must be at least 1")
    # log2 of (t^2 / 2)^2 at the last time
    if 4.0 * (math.log2(t_start) + n_doublings) - 2.0 >= sys.float_info.max_exp:
        raise DomainError(
            f"n_doublings = {n_doublings} from t_start = {t_start:g}: x^2 "
            "overflows for the free parabola's x ~ t^2 / 2 at the last time "
            "t_start * 2^n_doublings")
    sign = 1.0 if direction >= 0 else -1.0
    t_grid = np.ldexp(sign * t_start, np.arange(n_doublings + 1))
    return integrate_orbit(spec, p0, t_grid[-1], tol=tol, t_eval=t_grid)


def momentum_limit(traj: Trajectory):
    """zeta(+-inf) and its error estimate from an orbit sampled at dyadic times.

    The residual zeta(t) - zeta(+-inf) decays like t^-p.  On a scattering
    orbit r ~ t^2/2 and |y| ~ |t|: the transverse force of the homogeneous
    kappa r^-alpha is kappa alpha |y| r^(-alpha - 2) ~ t^(-2 alpha - 3), so
    p = 2 alpha + 2, and a table potential, which need not be radial, takes
    the bound p = 2 alpha + 1 of its declared decay r^-alpha.  A two-point
    Richardson step on the last two samples extrapolates it away.  The error
    estimate is that step's size plus the integrator's own estimate for
    zeta.  Raises DomainError on fewer than two samples, and
    ConvergenceError when the orbit does not escape, unless q = 0 (the
    homogeneous kind at kappa = 0).
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
    step, own = z_2T - z_T, traj.error_estimate[traj.d + 1:]
    err = math.sqrt(step @ step) / (rate - 1.0) + math.sqrt(own @ own)
    return z_inf, err


def _exact_phase_mask(x, y) -> np.ndarray:
    """Membership in the exact-phase domain x > C, |y|/x < 1/C, batched;
    |y|^2 is potentials.norm_squared's, column by column."""
    ynorm = np.sqrt(norm_squared(y))
    return (x > THETA1_DOMAIN_C) & (ynorm < x / THETA1_DOMAIN_C)


def gamma_observables(x, y, eta, zeta) -> GammaObservables:
    """Radiation observables measuring deviation from the asymptotic parabola,
    at n points: x, eta of shape (n,), y, zeta (n, d-1).

    gamma = (eta, zeta) - grad(theta1), gamma_tilde = y / f^2 and gamma_par
    is the component of gamma along grad(f), normalized by |grad f|^2.  The
    fields of the result carry the leading axis n.  Raises DomainError if
    any point lies outside the exact-phase domain.
    """
    x, y, eta, zeta = (np.asarray(a, dtype=float) for a in (x, y, eta, zeta))
    if not np.all(_exact_phase_mask(x, y)):
        raise DomainError("outside the exact-phase domain x > C, |y|/x < 1/C")
    x, y, r, gamma = _gamma(x, y, np.column_stack([eta, zeta]))
    gamma_tilde = _gamma_tilde(x, y, r)
    return GammaObservables(gamma=gamma.astype(float),
                            gamma_tilde=gamma_tilde.astype(float),
                            gamma_par=_gamma_par(x, y, r, gamma).astype(float),
                            Gamma_norm=_Gamma_norm(gamma, gamma_tilde)
                            .astype(float))


def _gamma(x, y, momenta):
    """x, y, r and gamma = momenta - grad(theta1) in extended precision,
    at points of the exact-phase domain, for momenta (eta, zeta) (n, d);
    the gradient is parabolic.exact_phase's.

    gamma_par hides a near-total cancellation between the f and g components
    of gamma at late times, and double rounding would floor it around 1e-8.
    In this domain r + x > 2, so the coordinate mollifier is the identity
    and f^2 = r + x exactly.
    """
    x = x.astype(np.longdouble)
    y = y.astype(np.longdouble)
    _, grad_theta1 = exact_phase(x, y)
    r = np.sqrt(x * x + (y * y).sum(-1))
    return x, y, r, momenta.astype(np.longdouble) - grad_theta1


def _gamma_tilde(x, y, r):
    return y / (r + x)[:, None]


def _gamma_par(x, y, r, gamma):
    """The component of gamma along grad f, over |grad f|^2."""
    f = np.sqrt(r + x)
    gf = np.concatenate([((x / r + 1.0) / (2.0 * f))[:, None],
                         y / (r * 2.0 * f)[:, None]], 1)
    return (gf * gamma).sum(-1) / (gf * gf).sum(-1)


def _Gamma_norm(gamma, gamma_tilde):
    big = np.concatenate([gamma, gamma_tilde], axis=-1)
    return np.sqrt((big * big).sum(-1))


def decay_slope(traj: Trajectory, observable: str, window) -> tuple[float, float]:
    """Log-log decay exponent of an observable over a time window.

    observable is "Gamma_norm" or "gamma_par", over 0 < t_lo < t_hi.  The
    samples in the window where the observables are defined are taken
    first; of 8 or more, those nearest a log grid are kept (_log_subsample).
    The observable is formed on the kept samples only, those where it
    vanishes are dropped, and fewer than 8 left raise ConvergenceError.
    The kept samples and their extended-precision gamma are worked out
    once for each window of a trajectory and kept on it, so fitting the
    second observable over the same window repeats none of that work.
    Returns (slope, half-width).
    """
    if observable not in ("Gamma_norm", "gamma_par"):
        raise DomainError('observable must be "Gamma_norm" or "gamma_par", '
                          f"got {observable!r}")
    t_lo, t_hi = window
    if not 0.0 < t_lo < t_hi:
        raise DomainError(f"window ({t_lo:g}, {t_hi:g}) needs 0 < t_lo < t_hi")
    kept = traj._windows.get((t_lo, t_hi))
    if kept is None:
        kept = traj._windows[t_lo, t_hi] = _window_gamma(traj, t_lo, t_hi)
    ts, x, y, r, gamma = kept
    vals = np.abs((_Gamma_norm(gamma, _gamma_tilde(x, y, r))
                   if observable == "Gamma_norm"
                   else _gamma_par(x, y, r, gamma)).astype(float))
    nonzero = vals > 0.0
    ts, vals = ts[nonzero], vals[nonzero]
    if ts.size < 8:
        raise ConvergenceError("fewer than 8 usable samples for the decay fit")
    slope, _, slope_err, _ = loglog_fit(ts, vals)
    return slope, 2.0 * slope_err


def _window_gamma(traj: Trajectory, t_lo: float, t_hi: float):
    """The times of the samples decay_slope keeps in [t_lo, t_hi], with
    their x, y, r and gamma from _gamma."""
    d = traj.d
    x, y = traj.states[:, 0], traj.states[:, 1:d]
    rows = ((traj.times >= t_lo) & (traj.times <= t_hi)
            & _exact_phase_mask(x, y)).nonzero()[0]
    if rows.size >= 8:
        rows = rows[_log_subsample(traj.times[rows])]
    return (traj.times[rows],) + _gamma(x[rows], y[rows],
                                        traj.states[rows, d:])


def _log_subsample(ts: np.ndarray) -> list[int]:
    """Indices of the samples nearest a log grid of 4 an octave, each once.

    The grid is np.linspace's from log2 of the first time to log2 of the
    last, each point found on the left in the log times; the indices never
    decrease, so dropping repeats keeps each once.
    """
    lt = np.log2(ts)
    lo, hi = float(lt[0]), float(lt[-1])
    n = max(8, int((hi - lo) * 4) + 1)
    return list(dict.fromkeys(lt.searchsorted(np.linspace(lo, hi, n))
                              .tolist()))


def cone_mask(x, y, eta, zeta, m: float = 1.0, eps: float = 0.3,
              sign: int = +1) -> np.ndarray:
    """Membership in X^{+-}_{m, eps} for arrays of phase points: x + <y>_m
    > 0 and +-a > -eps for the Mourre ratio a = (eta + yhat_m . zeta) /
    sqrt(2x + 2<y>_m).

    x and eta have shape S, y and zeta shape S + (d - 1,); the result is a
    boolean array of shape S.  <y>_m and yhat_m . zeta are summed over the
    columns of y and zeta in order, one column at a time, so that each pass
    runs along the batch.  DomainError where m^2 underflows to 0: yhat_m
    is then 0/0 at y = 0.
    """
    if m * m == 0.0:
        raise DomainError(f"cone X needs m^2 > 0, got m = {m:g}")
    x, y, eta, zeta = (np.asarray(a, dtype=float) for a in (x, y, eta, zeta))
    y_m = np.sqrt(r_squared(m, y))
    dot = y[..., 0] / y_m * zeta[..., 0] if y.shape[-1] else 0.0
    for i in range(1, y.shape[-1]):
        dot = dot + y[..., i] / y_m * zeta[..., i]
    a_num = eta + dot
    root = np.sqrt(np.maximum(2.0 * x + 2.0 * y_m, 0.0))
    s = 1.0 if sign >= 0 else -1.0
    return (x + y_m > 0.0) & (s * a_num > -eps * root)
