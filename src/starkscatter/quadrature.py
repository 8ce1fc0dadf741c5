"""Gauss-Legendre panel quadrature: one refinement loop for every integral.

`panels` lays 16-node Gauss-Legendre panels of equal width on s in (0, 1);
`half_line` (or `map_half_line`, on one layout) maps them to [a, inf) by
t = x - a = c (s / (1 - s))^P for a batch of scales c.  If the integrand
decays like t^{-p}, the mapped integrand behaves like (1 - s)^{P (p - 1) - 1}
at s = 1; `map_power` picks P so that it stays bounded there (P = 1, the
plain s / (1 - s) map, for p = 2 or 3).  `converge` doubles the panels of
either layout until every output element has converged and reports the last
change.  `running` integrates panels of unequal width from each panel's
start, for the orbit integrator, and `running_rows` gives the rows of
that integral at any point of a panel.  The nodes and weights are
literals, and the in-panel integration matrices are built from them by
the rule itself, so that importing the module needs neither
numpy.polynomial nor a LAPACK eigensolver.

The module also holds the one log-log least-squares fit, `loglog_fit`, a
closed-form line without LAPACK, which the decay-rate fits share.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, DomainError

MAX_PANELS = 64

_GL_ORDER = 16
# the nodes and weights of numpy.polynomial.legendre.leggauss(16), bitwise,
# from the middle out: the rule is symmetric about 0
_GL_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_GL_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _tail_row(lo: float) -> np.ndarray:
    """Integrals over [lo, 1] of the Lagrange polynomials of the nodes.

    The rule mapped onto [lo, 1] integrates their degree 15 exactly; one
    row at a time keeps the product array at 16^3 entries.
    """
    t = lo + 0.5 * (1.0 - lo) * (_GL_NODES + 1.0)
    spread = _GL_NODES[:, None] - _GL_NODES
    np.fill_diagonal(spread, 1.0)
    factors = (t[:, None, None] - _GL_NODES) / spread    # [node k, i, m]
    diag = np.arange(_GL_ORDER)
    factors[:, diag, diag] = 1.0
    return 0.5 * (1.0 - lo) * (_GL_WEIGHTS @ factors.prod(axis=-1))


# _GL_TAIL[j, i]: integral over [node j, 1] of the Lagrange polynomial of
# node i
_GL_TAIL = np.array([_tail_row(lo) for lo in _GL_NODES])


def _legendre(x: np.ndarray, n: int) -> np.ndarray:
    """P_0 .. P_n at the points x, (n + 1,) + x.shape, by the three-term
    recurrence."""
    p = [np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p[:n + 1])


# _GL_LEGENDRE[n, i]: (n + 1/2) w_i P_n(x_i), the rows that take node values
# to the Legendre coefficients of their interpolant
_GL_LEGENDRE = ((np.arange(_GL_ORDER) + 0.5)[:, None] * _GL_WEIGHTS
                * _legendre(_GL_NODES, _GL_ORDER - 1))
# the rows (18, 16) on node values: the integrals from -1 to each node, over
# [-1, 1], and the P_15 coefficient of the interpolant
_GL_RUNNING = np.vstack([_GL_WEIGHTS - _GL_TAIL, _GL_WEIGHTS,
                         _GL_LEGENDRE[-1]])


def _chebyshev_running() -> np.ndarray:
    """The integrals from -1 to s of the Lagrange polynomials of the nodes
    in Chebyshev terms, (17, 16): at s = cos(theta) they are
    cos(k theta) @ this table.  The integral of P_n is (P_{n+1} -
    P_{n-1}) / (2n + 1), and s + 1 for n = 0; taken at the 17 Chebyshev
    points, a discrete cosine transform gives the degree-16 polynomials
    exactly."""
    n = _GL_ORDER + 1
    theta = math.pi * (np.arange(n) + 0.5) / n
    p = _legendre(np.cos(theta), _GL_ORDER)
    integrals = np.vstack([p[0] + p[1],
                           (p[2:] - p[:-2]) / (2.0 * np.arange(1, n - 1)
                                               + 1.0)[:, None]])
    cosines = np.cos(np.arange(n)[:, None] * theta) * (2.0 / n)
    cosines[0] *= 0.5
    return cosines @ integrals.T @ _GL_LEGENDRE


_GL_CHEBYSHEV = _chebyshev_running()


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


def map_half_line(base: Rule, scale, power: int) -> Rule:
    """The panels of base on (0, 1) mapped to [0, inf) for scales (n, 1),
    or for one scale given as a number, which keeps the rule on the nodes."""
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


def running(f: np.ndarray, half: np.ndarray):
    """Integrals over panels of unequal width from each panel's start.

    f (16, ...) holds values at the nodes along its first axis; half, the
    half-widths, broadcasts against the others.  Returns the integrals to
    every node (16, ...) and to the panel's end (...), and the P_15
    coefficient of the panel's interpolant (...), its least resolved part.
    """
    rows = _GL_RUNNING @ f.reshape(_GL_ORDER, -1)
    rows = rows.reshape((-1,) + f.shape[1:])
    integrals = half * rows[:_GL_ORDER + 1]
    return integrals[:_GL_ORDER], integrals[_GL_ORDER], rows[-1]


def running_rows(s: np.ndarray) -> np.ndarray:
    """Rows (..., 16) on node values: the integrals from -1 to each point s
    of [-1, 1] of the nodes' interpolant, so that half * running_rows(s) @ f
    integrates the node values f of a panel from its start to the point s
    of it, as `running` does to the nodes."""
    theta = np.arccos(s)[..., None]
    return np.cos(np.arange(_GL_ORDER + 1) * theta) @ _GL_CHEBYSHEV


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
    errors come from the residual variance on n - 2 degrees of freedom, and
    are 0 for the exact line through two points.  Raises DomainError unless
    every x and y is finite and positive and log x takes two distinct
    values.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not ((x > 0.0).all() and (y > 0.0).all()):
        raise DomainError("log-log fit needs finite x, y > 0")
    # the log of a positive float is finite unless the float is inf, and
    # the sums of the logs are finite unless a log is
    lx, ly = np.log(x), np.log(y)
    sum_x, sum_y = float(lx.sum()), float(ly.sum())
    if not math.isfinite(sum_x + sum_y):
        raise DomainError("log-log fit needs finite x, y > 0")
    mean_x, mean_y = sum_x / lx.size, sum_y / ly.size
    dx, dy = lx - mean_x, ly - mean_y
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DomainError("log-log fit needs two distinct x values")
    slope = float(dx @ dy) / sxx
    res = dy - slope * dx
    sigma2 = float(res @ res) / (lx.size - 2) if lx.size > 2 else 0.0
    return (slope, mean_y - slope * mean_x, math.sqrt(sigma2 / sxx),
            math.sqrt(sigma2 * (1.0 / lx.size + mean_x ** 2 / sxx)))

