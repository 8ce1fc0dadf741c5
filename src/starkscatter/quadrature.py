"""Gauss-Legendre panel quadrature: one refinement loop for every integral.

`panels` lays 16-node Gauss-Legendre panels of equal width on s in (0, 1);
`half_line` (or `map_half_line`, on one layout) maps them to [a, inf) by
t = x - a = c (s / (1 - s))^P for a batch of scales c.  If the integrand
decays like t^{-p}, the mapped integrand behaves like (1 - s)^{P (p - 1) - 1}
at s = 1; `map_power` picks P so that it stays bounded there (P = 1, the
plain s / (1 - s) map, for p = 2 or 3).  `converge` doubles the panels of
either layout until every output element has converged and reports the last
change.

The module also holds the one log-log least-squares fit, `loglog_fit`,
which the decay-rate and convergence-rate fits share, and the one
one-dimensional minimiser, `golden_section`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetError

MAX_PANELS = 64

_GL_ORDER = 16
_leg = np.polynomial.legendre
_GL_NODES, _GL_WEIGHTS = _leg.leggauss(_GL_ORDER)
# _GL_TAIL[j, i]: integral over [node j, 1] of the Lagrange polynomial of
# node i, from its Legendre coefficients, which the Gauss rule gives exactly
_GL_TAIL = -_leg.legval(_GL_NODES, _leg.legint(
    _leg.legvander(_GL_NODES, _GL_ORDER - 1).T * _GL_WEIGHTS
    * (np.arange(_GL_ORDER) + 0.5)[:, None], lbnd=1.0)).T


def map_power(decay: float, least: int = 1) -> int:
    """Map power P >= least for an integrand decaying like x^{-decay}.

    The mapped integrand is v^{P decay - P - 1} times a function analytic
    in v = 1 - s when P decay is an integer, which the Gauss rule converges
    on fastest; the first such P with P (decay - 1) >= 1 (bounded at s = 1)
    up to the fallback is taken, else the fallback P (decay - 1) >= 4, which
    leaves a (1 - s)^3 endpoint singularity at worst.
    """
    fallback = max(least, math.ceil(4.0 / (decay - 1.0)))
    for power in range(least, fallback):
        if (power * (decay - 1.0) >= 1.0
                and abs(power * decay - round(power * decay)) < 1e-9):
            return power
    return fallback


class Rule(NamedTuple):
    """One panel layout; the half-line map holds (n, nodes) for n scales."""

    t: np.ndarray    # nodes: s, or the distance from the lower limit
    jac: np.ndarray  # dt/ds at the nodes
    w: np.ndarray    # weights for integrals in t
    half: float      # panel half-width in s


def panels(n_panels: int) -> Rule:
    """n_panels equal panels on (0, 1), where t = s."""
    half = 0.5 / n_panels
    mid = (np.arange(n_panels) + 0.5) / n_panels
    s = (mid[:, None] + half * _GL_NODES).ravel()
    return Rule(t=s, jac=np.ones_like(s),
                w=half * np.tile(_GL_WEIGHTS, n_panels), half=half)


def half_line(scale, power: int):
    """Rule builder: panels mapped to [0, inf) for each of a batch of scales."""
    scale = np.asarray(scale, dtype=float)[:, None]
    return lambda n_panels: map_half_line(panels(n_panels), scale, power)


def map_half_line(base: Rule, scale: np.ndarray, power: int) -> Rule:
    """The panels of base on (0, 1) mapped to [0, inf) for scales (n, 1)."""
    s = base.t
    t = scale * s ** power / (1.0 - s) ** power
    jac = scale * power * s ** (power - 1) / (1.0 - s) ** (power + 1)
    return Rule(t=t, jac=jac, w=base.w * jac, half=base.half)


def tails(f: np.ndarray, half: float) -> np.ndarray:
    """Integrals from every node to s = 1, from node values f (..., nodes).

    f holds integrand times dt/ds; the result is the Legendre integration
    matrix inside each panel plus the sum over the later panels.
    """
    fp = f.reshape(f.shape[:-1] + (-1, _GL_ORDER))
    panel = half * (fp @ _GL_WEIGHTS)
    later = np.cumsum(panel[..., ::-1], axis=-1)[..., ::-1] - panel
    return (half * (fp @ _GL_TAIL.T) + later[..., None]).reshape(f.shape)


def converge(one_pass, rule, tol: float, module: str,
             operation: str) -> tuple[np.ndarray, np.ndarray]:
    """Refine one_pass(rule(n_panels)) from 8 panels, doubling to MAX_PANELS.

    rule is `panels` or a builder such as `half_line(scale, power)`.  Stops
    once every output element moved by at most tol * max(1, |value|) and
    returns the finest values with that last change |cur - prev|, the
    achieved error estimate; raises BudgetError at the panel cap.  A map too
    steep for the float range overflows at the last nodes, and the values
    that are then not finite fail the test until the cap.
    """
    n_panels = 8
    with np.errstate(all="ignore"):
        prev = one_pass(rule(n_panels))
        while n_panels < MAX_PANELS:
            n_panels *= 2
            cur = one_pass(rule(n_panels))
            change = np.abs(cur - prev)
            if np.all(change <= tol * np.maximum(1.0, np.abs(cur))):
                return cur, change
            prev = cur
    raise BudgetError(f"{operation} quadrature failed to converge",
                      module=module, operation=operation, budget=tol)


def loglog_fit(x, y) -> tuple[float, float, float, float]:
    """Least-squares line log y = slope log x + intercept, for x, y > 0.

    Returns (slope, intercept, slope_stderr, intercept_stderr); the standard
    errors come from the residual variance on max(1, n - 2) degrees of
    freedom.
    """
    lx, ly = np.log(x), np.log(y)
    coef, res, _, _ = np.linalg.lstsq(
        np.vstack([lx, np.ones_like(lx)]).T, ly, rcond=None)
    sigma2 = float(res[0]) / max(1, lx.size - 2) if res.size else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    return (float(coef[0]), float(coef[1]), math.sqrt(sigma2 / sxx),
            math.sqrt(sigma2 * (1.0 / lx.size + lx.mean() ** 2 / sxx)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimiser of f on the bracket [lo, hi] by golden-section search.

    f must be unimodal there.  Each evaluation shrinks the bracket by the
    golden ratio, keeping the side of the smaller of its two inner values,
    until it is at most tol wide; returns its midpoint.  Where rounding
    makes f flat near its minimum, the result lies somewhere on that flat
    stretch.
    """
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(math.ceil(math.log(tol / (hi - lo)) / math.log(_GOLDEN))):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0
