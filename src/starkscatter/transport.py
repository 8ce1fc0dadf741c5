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
amplifies their noise.

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

from .classical import PhasePoint, free_flow, in_region_X
from .errors import DomainError
from .potentials import PotentialSpec, radial_jets
from .quadrature import converge, half_line, loglog_fit, map_power, tails

K_MAX_DEFAULT = 2


@dataclass(frozen=True)
class SymbolResult:
    value: complex
    tail_estimate: float
    quad_error: float


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
        Xt = X[:, None] + sgn * t * ETA[:, None] + 0.5 * t * t
        Yt = Y[:, None, :] + sgn * t[..., None] * ZETA[:, None, :]
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


def _check_order(k: int):
    if not (1 <= k <= K_MAX_DEFAULT):
        raise DomainError(f"symbol order must lie in [1, {K_MAX_DEFAULT}]")


def _check_point(p: PhasePoint, m, eps, sign):
    if not in_region_X(p, m=m, eps=eps, sign=sign):
        raise DomainError("phase point outside the invariant cone X")


def _as_batch(*points: PhasePoint):
    return (np.array([p.x for p in points]), np.stack([p.y for p in points]),
            np.array([p.eta for p in points]),
            np.stack([p.zeta for p in points]))


def symbol_b(k: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
             t_max: float = 1e5, tol: float = 1e-10,
             m: float = 1.0, eps: float = 0.3) -> complex:
    return symbol_b_result(k, p, spec, sign, t_max, tol, m, eps).value


def symbol_b_result(k: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
                    t_max: float = 1e5, tol: float = 1e-10,
                    m: float = 1.0, eps: float = 0.3) -> SymbolResult:
    """b_k over the whole flow, with the contribution beyond t_max reported.

    By the group law that contribution is b_k at the point flowed for t_max,
    so the tail estimate is |b_k(phi_{t_max} z)|; by the decay bounds of the
    hierarchy it also bounds the change under any further increase of t_max.
    quad_error is the achieved quadrature error estimate: the change of the
    value under the last panel doubling, at most tol * max(1, |value|).
    """
    _check_order(k)
    _check_point(p, m, eps, sign)
    far = free_flow(p, (1.0 if sign >= 0 else -1.0) * t_max)
    jets = _hierarchy(k, *_as_batch(p, far), spec, sign, tol, m)
    b = jets.b[k - 1]
    value = complex(b[0])
    return SymbolResult(value=value, tail_estimate=float(abs(b[1])),
                        quad_error=float(jets.b_err[k - 1, 0]))


def symbol_q(k: int, p: PhasePoint, spec: PotentialSpec, sign: int = +1,
             tol: float = 1e-10, m: float = 1.0, eps: float = 0.3) -> complex:
    """q_k = q * b_k - (1/2) Laplacian b_k."""
    qb, lap_half = symbol_q_parts(k, p, spec, sign, tol, m, eps)
    return qb + lap_half


def symbol_q_parts(k, p, spec, sign=+1, tol=1e-10, m=1.0, eps=0.3):
    """(q * b_k, -Laplacian b_k / 2) separately, for magnitude comparisons."""
    _check_order(k)
    _check_point(p, m, eps, sign)
    jets = _hierarchy(k, *_as_batch(p), spec, sign, tol, m)
    return (complex(jets.q[0] * jets.b[k - 1, 0]),
            complex(-0.5 * jets.lap_b[k - 1, 0]))


def transport_residual(k: int, p: PhasePoint, spec: PotentialSpec,
                       sign: int = +1, h_eta: float = 1e-3,
                       tol: float = 1e-10, m: float = 1.0,
                       eps: float = 0.3) -> float:
    """|i (d_eta + (eta, zeta) . grad_xy) b_k - q_{k-1}| by central differences.

    The directional configuration-space derivative uses a step of the same
    size as h_eta along the unit momentum direction.
    """
    _check_order(k)
    _check_point(p, m, eps, sign)
    mom = np.concatenate([[p.eta], p.zeta])
    mom_norm = float(np.linalg.norm(mom))
    if mom_norm == 0.0:
        raise DomainError("vanishing momentum: no transport direction")
    u = mom / mom_norm
    h_xy = h_eta

    shifted = [PhasePoint(p.x, p.y, p.eta + h_eta, p.zeta),
               PhasePoint(p.x, p.y, p.eta - h_eta, p.zeta),
               PhasePoint(p.x + h_xy * u[0], p.y + h_xy * u[1:], p.eta, p.zeta),
               PhasePoint(p.x - h_xy * u[0], p.y - h_xy * u[1:], p.eta, p.zeta)]
    for s in shifted:
        _check_point(s, m, eps, sign)

    jets = _hierarchy(k, *_as_batch(*shifted, p), spec, sign, tol, m)
    b = jets.b[k - 1]
    d_eta = (b[0] - b[1]) / (2.0 * h_eta)
    d_dir = mom_norm * (b[2] - b[3]) / (2.0 * h_xy)
    return float(abs(1j * (d_eta + d_dir) - jets.q_k(k - 1)[4]))


def decay_fit_symbols(k: int, spec: PotentialSpec, sign: int = +1,
                      x_values=None, y_over_x: float = 0.0,
                      zeta: float = 0.0, which: str = "b",
                      tol: float = 1e-9, m: float = 1.0,
                      eps: float = 0.3, d: int = 2) -> float:
    """Log-log decay exponent of |b_k| or |q_k| along an outgoing ray.

    Points are (x, y = c x, eta = sqrt(2x), zeta fixed); the fitted slope is
    against x, which is comparable to <x + <y>_m> on the ray.
    """
    if x_values is None:
        x_values = np.geomspace(1e2, 1e4, 9)
    x_values = np.asarray(x_values, dtype=float)
    if x_values.size < 3:
        raise DomainError("need at least 3 ray samples for a decay fit")
    _check_order(k)
    points = [PhasePoint(x=x, y=np.full(d - 1, y_over_x * x / np.sqrt(d - 1)),
                         eta=np.sqrt(2.0 * x),
                         zeta=np.full(d - 1, zeta / np.sqrt(d - 1)))
              for x in x_values]
    for p in points:
        _check_point(p, m, eps, sign)
    jets = _hierarchy(k, *_as_batch(*points), spec, sign, tol, m)
    vals = np.abs(jets.b[k - 1] if which == "b" else jets.q_k(k))
    if np.any(vals == 0.0):
        raise DomainError("symbol vanishes on the ray; no decay fit")
    return loglog_fit(x_values, vals)[0]
