"""Classical Stark dynamics: free flow, perturbed orbits, gamma observables.

The Hamiltonian is h = (eta^2 + zeta^2)/2 - x + q(x, y) with unit external
field in the x direction.  Free orbits are parabolas known in closed form;
perturbed orbits are integrated adaptively and monitored through energy
conservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError
from .potentials import PotentialSpec, eval_potential, grad_potential

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


@dataclass
class Trajectory:
    """Time-stamped orbit with its conserved-energy record."""

    times: np.ndarray
    points: list
    energies: np.ndarray
    spec: PotentialSpec

    def __len__(self):
        return len(self.times)

    def energy_drift(self) -> float:
        e0 = self.energies[0]
        scale = max(1.0, abs(e0))
        return float(np.max(np.abs(self.energies - e0)) / scale)

    def to_csv_rows(self):
        """Rows t, x, y_1.., eta, zeta_1.., energy."""
        for t, p, e in zip(self.times, self.points, self.energies):
            yield [t, p.x, *p.y, p.eta, *p.zeta, e]


@dataclass(frozen=True)
class GammaObservables:
    gamma: np.ndarray
    gamma_tilde: np.ndarray
    gamma_par: float
    Gamma_norm: float


def energy(spec: PotentialSpec, p: PhasePoint) -> float:
    kinetic = 0.5 * (p.eta ** 2 + float(np.dot(p.zeta, p.zeta)))
    return kinetic - p.x + eval_potential(spec, p.x, p.y)


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
    error control meaningful over long times.
    """
    n = p0.d - 1

    def rhs(t, u):
        x = p0.x + t * p0.eta + 0.5 * t * t + u[0]
        y = p0.y + t * p0.zeta + u[1:1 + n]
        gq = grad_potential(spec, x, y)
        du = np.empty_like(u)
        du[0] = u[1 + n]            # u_x dot = u_eta
        du[1:1 + n] = u[2 + n:]     # u_y dot = u_zeta
        du[1 + n] = -gq[0]          # u_eta dot = -dq/dx
        du[2 + n:] = -gq[1:]        # u_zeta dot = -grad_y q
        return du

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
    d = p0.d
    n = d - 1
    points = []
    for i, t in enumerate(times):
        tl = np.longdouble(t)
        u = us[:, i]
        x = float(np.longdouble(p0.x) + tl * p0.eta + 0.5 * tl * tl + u[0])
        y = (p0.y + t * p0.zeta + u[1:1 + n]).astype(float)
        eta = float(np.longdouble(p0.eta) + tl + u[1 + n])
        zeta = (p0.zeta + u[2 + n:]).astype(float)
        points.append(PhasePoint(x=x, y=y, eta=eta, zeta=zeta))
    energies = np.array([energy(spec, p) for p in points])
    return Trajectory(times=np.asarray(times, dtype=float), points=points,
                      energies=energies, spec=spec)


def is_escaping(traj: Trajectory, x_escape: float = 100.0) -> bool:
    """Escape heuristic: x beyond threshold with eta positive and growing."""
    xs = np.array([p.x for p in traj.points])
    etas = np.array([p.eta for p in traj.points])
    tail = slice(max(0, len(xs) - 10), None)
    return bool(xs[-1] > x_escape and np.all(etas[tail] > 0)
                and np.all(np.diff(etas[tail]) > 0))


def asymptotic_momentum(spec: PotentialSpec, p0: PhasePoint,
                        direction: int = +1, t_start: float = 100.0,
                        n_doublings: int = 6, tol: float = 1e-10):
    """Asymptotic orthogonal momentum zeta(+-inf) with an error estimate.

    zeta is sampled at dyadically increasing times and extrapolated assuming
    the residual decays like t^(-2 delta), the rate inherited from the
    potential decay.  Returns (zeta_limit, error_estimate).
    """
    sign = 1 if direction >= 0 else -1
    t_grid = t_start * 2.0 ** np.arange(n_doublings + 1)
    traj = integrate_orbit(spec, p0, sign * t_grid[-1], tol=tol,
                           t_eval=sign * t_grid)
    if not is_escaping(traj) and spec.kind != "zero":
        raise ConvergenceError(
            "orbit does not escape within the time budget", partial=traj)
    zetas = np.array([p.zeta for p in traj.points])
    rate = 2.0 ** (2.0 * spec.delta)
    # two-point Richardson at the largest pair
    z_T, z_2T = zetas[-2], zetas[-1]
    z_inf = z_2T + (z_2T - z_T) / (rate - 1.0)
    err = float(np.linalg.norm(z_2T - z_T) / (rate - 1.0))
    return z_inf, err


def gamma_observables(p: PhasePoint) -> GammaObservables:
    """Radiation observables measuring deviation from the asymptotic parabola.

    gamma = (eta, zeta) - grad(theta1), gamma_tilde = y / f^2 and gamma_par
    is the component of gamma along grad(f), normalized by |grad f|^2.
    """
    ynorm = float(np.linalg.norm(p.y))
    if not (p.x > THETA1_DOMAIN_C and ynorm < p.x / THETA1_DOMAIN_C):
        raise DomainError("outside the exact-phase domain x > C, |y|/x < 1/C")
    # Extended precision throughout: gamma_par hides a near-total cancellation
    # between the f and g components of gamma at late times, and double
    # rounding would floor it around 1e-8.  In this domain r + x > 2, so the
    # coordinate mollifier is the identity and f^2 = r + x exactly.
    x = np.longdouble(p.x)
    y = p.y.astype(np.longdouble)
    r = np.sqrt(x * x + y @ y)
    w = np.sqrt(x * x - y @ y)
    sp = np.sqrt(x + w)
    grad_theta1 = np.concatenate([[sp], sp * y / (x + w)])
    momenta = np.concatenate([[np.longdouble(p.eta)],
                              p.zeta.astype(np.longdouble)])
    gamma = momenta - grad_theta1
    f = np.sqrt(r + x)
    gamma_tilde = y / (r + x)
    gf = np.concatenate([[(x / r + 1.0) / (2.0 * f)], y / (r * 2.0 * f)])
    gamma_par = float((gf @ gamma) / (gf @ gf))
    big = np.concatenate([gamma, gamma_tilde])
    return GammaObservables(gamma=gamma.astype(float),
                            gamma_tilde=gamma_tilde.astype(float),
                            gamma_par=gamma_par,
                            Gamma_norm=float(np.sqrt(big @ big)))


def decay_slope(traj: Trajectory, observable: str, window) -> tuple[float, float]:
    """Log-log decay exponent of an observable over a time window.

    observable is "Gamma_norm" or "gamma_par".  Times are subsampled
    dyadically; samples where the observable vanishes or the observables are
    undefined are dropped.  Returns (slope, confidence half-width).
    """
    t_lo, t_hi = window
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    ts, vals = [], []
    for t, p in zip(traj.times[mask], [pt for pt, m in zip(traj.points, mask) if m]):
        try:
            obs = gamma_observables(p)
        except DomainError:
            continue
        v = abs(obs.Gamma_norm if observable == "Gamma_norm" else obs.gamma_par)
        if v > 0.0:
            ts.append(t)
            vals.append(v)
    # dyadic subsampling: keep roughly log-uniform times
    ts = np.asarray(ts)
    vals = np.asarray(vals)
    if ts.size >= 8:
        keep = _log_subsample(ts, per_octave=4)
        ts, vals = ts[keep], vals[keep]
    if ts.size < 8:
        raise ConvergenceError("fewer than 8 usable samples for the decay fit")
    lt, lv = np.log(ts), np.log(vals)
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, res, _, _ = np.linalg.lstsq(A, lv, rcond=None)
    slope = float(coef[0])
    dof = max(1, lt.size - 2)
    sigma2 = float(res[0]) / dof if res.size else 0.0
    var_slope = sigma2 / float(np.sum((lt - lt.mean()) ** 2))
    return slope, 2.0 * np.sqrt(var_slope)


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
