"""Transport-equation symbol hierarchy computed along one free trajectory.

b_0 = 1, q_0 = q, b_{k+1}(z) = sgn i * integral_0^inf q_k(phi_t z) dt along
the free flow of the outgoing (sgn = +1) or incoming (sgn = -1) branch, and
q_{k+1} = q b_{k+1} - (1/2) Laplacian b_{k+1}, on the invariant cones X^{+-}.
Spatial translations commute with the flow, so a derivative of b_k is the
flow integral of the same derivative of q_{k-1}; the group law gives
b_k(phi_s z) = sgn i * integral_s^inf q_{k-1}(phi_u z) du.  So b_1 and its
gradient, Laplacian and bi-Laplacian are tail integrals of the closed-form
jets of q at the quadrature nodes of one trajectory; there q_1 and, by
Laplacian(q b) = Laplacian q b + 2 grad q . grad b + q Laplacian b, also
Laplacian q_1 follow, and their integrals give b_2 and q_2.  Orders k >= 3
need higher jets of q_1 and are not implemented.  A table potential is
rejected (DomainError, from radial_jets): its callable gives values on
arrays but no closed-form jets, and differencing quadrature values
amplifies their noise.  `symbols` takes every order at a point, with its
tail estimate and transport residual, from one solve on six rows.

Time is mapped to (0, 1) by t = tau (s / (1 - s))^P and integrated with
the panel rule of `quadrature`, doubled until every output converges.  q
decays like t^{-2 alpha} along the flow and P is chosen from that rate:
P = 1 for Coulomb, larger where the plain map leaves the integrand singular
(1/2 < alpha < 1) or not smooth (2 alpha not an integer) at s = 1.  The
tail integral at a node is the Legendre integration matrix inside its panel
plus the sum over the later panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classical import PhasePoint, cone_mask, free_flow_arrays
from .errors import DomainError
from .potentials import PotentialSpec, radial_jets
from .quadrature import converge, half_line, loglog_fit, map_power, tails

K_MAX_DEFAULT = 2


@dataclass(frozen=True)
class SymbolResult:
    """b_k and q_k at one point with the checks of b_k (see `symbols`)."""

    value: complex
    q: complex
    tail_estimate: float
    quad_error: float
    residual: float


class _Jets(NamedTuple):
    """Hierarchy values at a batch of n phase points."""

    q: np.ndarray        # q, (n,)
    b: np.ndarray        # b_1 .. b_k, (k, n)
    lap_b: np.ndarray    # Laplacian of b_1 .. b_k, (k, n)
    grad_b1: np.ndarray  # gradient of b_1, (n, d)
    b_err: np.ndarray    # last refinement change of b_1 .. b_k, (k, n)

    def q_k(self, j: int) -> np.ndarray:
        if j == 0:
            return self.q
        return self.q * self.b[j - 1] - 0.5 * self.lap_b[j - 1]


def _hierarchy(k, X, Y, ETA, ZETA, spec, sign, tol, m) -> _Jets:
    """b_j, Laplacian b_j (j <= k) and grad b_1 on a batch of points."""
    y_m = np.sqrt(m * m + np.sum(Y * Y, axis=-1))
    tau = (np.sqrt(np.maximum(2.0 * X + 2.0 * y_m, 1.0)) + np.abs(ETA)
           + np.sqrt(np.sum(ZETA * ZETA, axis=-1)) + 1.0)
    sgn = 1.0 if sign >= 0 else -1.0
    c = sgn * 1j

    def one_pass(rule):
        t, jac, w = rule.t, rule.jac, rule.w
        Xt, Yt, _, _ = free_flow_arrays(X[:, None], Y[:, None, :],
                                        ETA[:, None], ZETA[:, None, :],
                                        sgn * t)
        q, grad, lap, bilap = radial_jets(spec, Xt, Yt)
        grad = np.moveaxis(grad, -1, 1)                   # (n, d, nodes)
        b = [c * np.sum(q * w, axis=-1)]
        lap_b = [c * np.sum(lap * w, axis=-1)]
        grad_b1 = c * np.sum(grad * w[:, None, :], axis=-1)
        if k >= 2:
            b1 = c * tails(q * jac, rule.half)
            grad_b1_t = c * tails(grad * jac[:, None, :], rule.half)
            lap_b1 = c * tails(lap * jac, rule.half)
            bilap_b1 = c * tails(bilap * jac, rule.half)
            q1 = q * b1 - 0.5 * lap_b1
            lap_q1 = (lap * b1 + 2.0 * np.sum(grad * grad_b1_t, axis=1)
                      + q * lap_b1 - 0.5 * bilap_b1)
            b.append(c * np.sum(q1 * w, axis=-1))
            lap_b.append(c * np.sum(lap_q1 * w, axis=-1))
        return np.concatenate([b, lap_b, grad_b1.T])

    # q decays like t^{-2 alpha} along the flow
    cur, change = converge(one_pass,
                           half_line(tau, map_power(2.0 * spec.alpha)), tol,
                           "transport", "symbol_b")
    return _Jets(q=radial_jets(spec, X, Y)[0], b=cur[:k], lap_b=cur[k:2 * k],
                 grad_b1=cur[2 * k:].T, b_err=change[:k])


def _solve(k, x, y, eta, zeta, spec, sign, tol, m, eps) -> _Jets:
    """_hierarchy on rows x, eta (n,), y, zeta (n, d - 1), after the order
    check and one cone check of every row."""
    if not (1 <= k <= K_MAX_DEFAULT):
        raise DomainError(f"symbol order must lie in [1, {K_MAX_DEFAULT}]")
    x, y, eta, zeta = (np.asarray(a, dtype=float) for a in (x, y, eta, zeta))
    if not np.all(cone_mask(x, y, eta, zeta, m=m, eps=eps, sign=sign)):
        raise DomainError("phase point outside the invariant cone X")
    return _hierarchy(k, x, y, eta, zeta, spec, sign, tol, m)


def symbols(k_max: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
            t_max: float = 1e5, h_eta: float = 1e-3, tol: float = 1e-10,
            m: float = 1.0, eps: float = 0.3) -> list[SymbolResult]:
    """b_k, q_k and their checks at p for k = 1 .. k_max, from one solve.

    The solve runs on six rows: p; p with eta moved by +-h_eta; p moved by
    +-h_eta along the unit momentum; p flowed for sgn t_max.  By the group
    law the contribution to b_k beyond t_max is b_k at the flowed row, so
    tail_estimate is its modulus; by the decay bounds of the hierarchy it
    also bounds the change under any further increase of t_max.  quad_error
    is the last refinement change of b_k at p, at most tol * max(1, |b_k|).
    residual is |i (d_eta + (eta, zeta) . grad_xy) b_k - q_{k-1}| at p by
    central differences of the shifted rows.
    """
    if h_eta <= 0.0:
        raise DomainError("h_eta must be positive")
    d = p.d
    z = p.as_vector()
    mom_norm = float(np.linalg.norm(z[d:]))
    if mom_norm == 0.0:
        raise DomainError("vanishing momentum: no transport direction")
    u = z[d:] / mom_norm
    step = np.zeros((6, 2 * d))
    step[1:3, d] = h_eta, -h_eta
    step[3:5, :d] = h_eta * u, -h_eta * u
    z = z + step
    t = np.zeros(6)
    t[5] = (1.0 if sign >= 0 else -1.0) * t_max
    rows = free_flow_arrays(z[:, 0], z[:, 1:d], z[:, d], z[:, d + 1:], t)
    jets = _solve(k_max, *rows, spec, sign, tol, m, eps)
    results = []
    for k in range(1, k_max + 1):
        b = jets.b[k - 1]
        d_eta = (b[1] - b[2]) / (2.0 * h_eta)
        d_dir = mom_norm * (b[3] - b[4]) / (2.0 * h_eta)
        results.append(SymbolResult(
            value=complex(b[0]), q=complex(jets.q_k(k)[0]),
            tail_estimate=float(abs(b[5])),
            quad_error=float(jets.b_err[k - 1, 0]),
            residual=float(abs(1j * (d_eta + d_dir) - jets.q_k(k - 1)[0]))))
    return results


def symbol_b(k: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
             tol: float = 1e-10, m: float = 1.0, eps: float = 0.3) -> complex:
    """b_k at p alone, from a one-row solve."""
    jets = _solve(k, [p.x], p.y[None], [p.eta], p.zeta[None], spec, sign,
                  tol, m, eps)
    return complex(jets.b[k - 1, 0])


def symbol_q(k: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
             tol: float = 1e-10, m: float = 1.0, eps: float = 0.3) -> complex:
    """q_k = q * b_k - (1/2) Laplacian b_k at p alone, from a one-row solve."""
    jets = _solve(k, [p.x], p.y[None], [p.eta], p.zeta[None], spec, sign,
                  tol, m, eps)
    return complex(jets.q_k(k)[0])


def decay_fit_symbols(k: int, spec: PotentialSpec, sign: int = +1,
                      x_values=None, y_over_x: float = 0.0,
                      zeta: float = 0.0, tol: float = 1e-9, m: float = 1.0,
                      eps: float = 0.3, d: int = 2) -> tuple[float, float]:
    """Log-log decay exponents (of |b_k|, of |q_k|) along a ray of a branch.

    Points are (x, y = c x, eta = sgn sqrt(2x), zeta fixed), in the cone of
    the branch sign, and one solve gives both exponents.  The fitted slopes
    are against x, which is comparable to <x + <y>_m> on the ray.
    """
    if x_values is None:
        x_values = np.geomspace(1e2, 1e4, 9)
    x_values = np.asarray(x_values, dtype=float)
    if x_values.size < 3:
        raise DomainError("need at least 3 ray samples for a decay fit")
    sgn = 1.0 if sign >= 0 else -1.0
    y = np.outer(y_over_x * x_values / np.sqrt(d - 1), np.ones(d - 1))
    zetas = np.full((x_values.size, d - 1), zeta / np.sqrt(d - 1))
    jets = _solve(k, x_values, y, sgn * np.sqrt(2.0 * x_values), zetas, spec,
                  sign, tol, m, eps)
    vals = np.abs([jets.b[k - 1], jets.q_k(k)])
    if np.any(vals == 0.0):
        raise DomainError("symbol vanishes on the ray; no decay fit")
    return loglog_fit(x_values, vals[0])[0], loglog_fit(x_values, vals[1])[0]
