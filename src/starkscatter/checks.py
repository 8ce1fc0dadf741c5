"""One batched check per verified guarantee.

`verify-all` and the acceptance tests run the same checks; each caller picks
its seed, sample count and dimension and applies its own bounds.  A check
draws its sample points from the stream it is given, evaluates the library
on whole arrays and returns the worst errors it saw together with the number
of points it kept.

A stream is any object with the two methods of `RandomStream`:
`uniform(low, high, size)` and `integers(low, high)`.  `verify-all` passes a
`SplitMix64`, whose output is fixed by its seed alone, on every numpy
version, and which needs no `numpy.random` (that import alone costs a
process 6 MB of RSS, over half of it OpenSSL's hashlib); numpy's `Generator`
meets the same contract.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

import numpy as np

from . import classical, kernel, parabolic, special, transport
from .potentials import zero_potential


class RandomStream(Protocol):
    """What a check draws from: a `SplitMix64` or a numpy `Generator`."""

    def uniform(self, low, high, size=None): ...

    def integers(self, low, high): ...


_GOLDEN = 0x9E3779B97F4A7C15        # the counter's increment, odd, ~2^64/phi
_BLOCK = 8192                       # values generated at a time
# the finalizer: z ^= z >> shift, then z *= multiplier, twice; z ^= z >> 31
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
_MANTISSA_SHIFT = np.uint64(11)     # keeps the top 53 bits of a word


class SplitMix64:
    """The SplitMix64 generator (Steele, Lea and Flood, OOPSLA 2014).

    Output i (from 1) is the finalizer of seed + i 0x9E3779B97F4A7C15
    mod 2^64, so the stream is fixed by the seed, taken mod 2^64.  Values
    are made in numpy uint64 arithmetic, which wraps without a warning on
    arrays, in blocks of at most 8192, so a draw holds little beyond its
    output array.
    """

    def __init__(self, seed: int):
        self._counter = int(seed) % 2 ** 64

    def _words(self, n: int):
        """The next n outputs, as uint64 blocks of at most _BLOCK values.

        Each block is a view of one buffer, overwritten by the next.
        """
        m = min(n, _BLOCK)
        z, t = np.empty(m, np.uint64), np.empty(m, np.uint64)
        for start in range(0, n, _BLOCK):
            k = min(_BLOCK, n - start)
            zk, tk = z[:k], t[:k]
            # the block's counters: the last one plus 1, ..., k increments
            np.multiply(np.arange(1, k + 1, dtype=np.uint64),
                        np.uint64(_GOLDEN), out=zk)
            zk += np.uint64(self._counter)
            self._counter = (self._counter + k * _GOLDEN) % 2 ** 64
            for shift, multiplier in _MIX:
                np.right_shift(zk, shift, out=tk)
                zk ^= tk
                zk *= multiplier
            np.right_shift(zk, _LAST_SHIFT, out=tk)
            zk ^= tk
            yield zk

    def _unit(self, n: int) -> np.ndarray:
        """n doubles (z >> 11) 2^-53 on [0, 1), in stream order."""
        u = np.empty(n)
        start = 0
        for z in self._words(n):
            z >>= _MANTISSA_SHIFT
            u[start:start + z.size] = z
            start += z.size
        u *= 2.0 ** -53
        return u

    def uniform(self, low, high, size=None):
        """low + (high - low) u, u from the stream in row-major order.

        low and high broadcast against size; with size None they are
        numbers and one float is returned.  The values lie in [low, high),
        except that, as with numpy's uniform, rounding can reach high on
        some bounds for u within a few ulps of 1.
        """
        if size is None:
            return low + (high - low) * float(self._unit(1)[0])
        u = self._unit(int(np.prod(size))).reshape(size)
        u *= np.subtract(high, low, dtype=float)
        u += low
        return u

    def integers(self, low: int, high: int) -> int:
        """An integer uniform on low, ..., high - 1: the top bits of
        (high - low) z / 2^64 for the next output z, bias below
        (high - low) / 2^64."""
        (z,) = next(self._words(1))
        return low + ((high - low) * int(z) >> 64)


class EikonalCheck(NamedTuple):
    x: np.ndarray         # (n,)
    y: np.ndarray         # (n, d - 1)
    residual: np.ndarray  # (n,) |grad theta_1|^2 / 2 - x
    max_abs_residual: float


def eikonal(rng: RandomStream, n: int, d: int, x_range,
            y_over_x: float) -> EikonalCheck:
    """The exact phase against the eikonal equation at n random points.

    log10 x is uniform on x_range and each y component uniform within
    +-y_over_x x / sqrt(d - 1); a row of draws is (log10 x, y).
    """
    x_lo, x_hi = x_range
    u = rng.uniform([math.log10(x_lo)] + [-y_over_x] * (d - 1),
                    [math.log10(x_hi)] + [y_over_x] * (d - 1), size=(n, d))
    x = 10.0 ** u[:, 0]
    y = u[:, 1:] * x[:, None] / math.sqrt(d - 1)
    res = parabolic.eikonal_residual(x, y)
    return EikonalCheck(x, y, res, float(np.max(np.abs(res), initial=0.0)))


class ParabolicCheck(NamedTuple):
    max_identity_residual: float
    max_jacobian_mismatch: float
    n_kept: int


def parabolic_identities(rng: RandomStream, n: int,
                         d: int) -> ParabolicCheck:
    """Coordinate identities and the closed-form Jacobian at random points.

    Draws rows (log10 x, y / x) uniform on [0.5, 4] x [-1/2, 1/2]^(d-1) and
    keeps the points with r + x > 2.5.  There f^2 + g^2 = 2r,
    f^2 - g^2 = 2x and 2r |grad f|^2 = 1 are checked to rounding, and
    jacobian_det against the determinant of the central-difference
    Jacobian of (x, y) -> (f, g) with step 1e-6 max(1, r).
    """
    u = rng.uniform([0.5] + [-0.5] * (d - 1), [4.0] + [0.5] * (d - 1),
                    size=(n, d))
    x = 10.0 ** u[:, 0]
    y = u[:, 1:] * x[:, None]
    r = np.hypot(x, np.linalg.norm(y, axis=-1))
    keep = r + x > 2.5
    x, y, r = x[keep], y[keep], r[keep]

    p = parabolic.to_parabolic(x, y)
    g_sq = np.sum(p.g * p.g, axis=-1)
    gf = parabolic.grad_f(x, y)
    ident = np.concatenate([
        np.abs(p.f ** 2 + g_sq - 2.0 * r) / (2.0 * r),
        np.abs(p.f ** 2 - g_sq - 2.0 * x) / np.maximum(1.0, np.abs(2.0 * x)),
        np.abs(2.0 * r * np.sum(gf * gf, axis=-1) - 1.0),
    ])

    jac = parabolic.jacobian_det(x, y)
    h = 1e-6 * np.maximum(1.0, r)
    # row j of plus/minus is the point moved by +-h along axis j
    z = np.concatenate([x[:, None], y], axis=1)[:, None, :]
    shift = h[:, None, None] * np.eye(d)
    plus = parabolic.to_parabolic((z + shift)[..., 0], (z + shift)[..., 1:])
    minus = parabolic.to_parabolic((z - shift)[..., 0], (z - shift)[..., 1:])
    # num[k, j, i]: derivative of component i of (f, g) along axis j
    num = np.concatenate([(plus.f - minus.f)[..., None], plus.g - minus.g],
                         axis=-1) / (2.0 * h)[:, None, None]
    num_det = np.abs(np.linalg.det(np.swapaxes(num, 1, 2)))
    return ParabolicCheck(float(np.max(ident, initial=0.0)),
                          float(np.max(np.abs(num_det - jac) / jac,
                                       initial=0.0)),
                          int(x.size))


class ConeCheck(NamedTuple):
    violations: int
    n_points: int


def cone_invariance(rng: RandomStream, n: int, d: int,
                    m: float = 1.0, eps: float = 0.3) -> ConeCheck:
    """Points of the outgoing cone X^+_{m, eps} that the free flow moves out.

    Candidate rows (x, y, eta, zeta) are drawn uniform on
    [-5, 50] x [-20, 20]^(d-1) x [-10, 10] x [-3, 3]^(d-1), n at a time,
    until n of them lie in the cone; each is flowed to t = 1, 10 and 100,
    and a violation is one (point, t) outside the cone.
    """
    lo = [-5.0] + [-20.0] * (d - 1) + [-10.0] + [-3.0] * (d - 1)
    hi = [50.0] + [20.0] * (d - 1) + [10.0] + [3.0] * (d - 1)
    blocks, accepted = [], 0
    while accepted < n:
        z = rng.uniform(lo, hi, size=(n, 2 * d))
        z = z[classical.cone_mask(z[:, 0], z[:, 1:d], z[:, d], z[:, d + 1:],
                                  m=m, eps=eps, sign=+1)]
        blocks.append(z)
        accepted += len(z)
    z = np.concatenate(blocks)[:n]
    violations = 0
    for t in (1.0, 10.0, 100.0):
        flowed = classical.free_flow(z[:, 0], z[:, 1:d], z[:, d],
                                     z[:, d + 1:], t)
        violations += int(np.count_nonzero(
            ~classical.cone_mask(*flowed, m=m, eps=eps, sign=+1)))
    return ConeCheck(violations, n)


def c2_routes(rng: RandomStream, n: int) -> float:
    """Largest relative gap between the two assemblies of c2.

    Each of the n draws takes d uniform in {2, ..., 5}, then alpha uniform
    on (0.55, d - 0.55), and compares c2_constant with c2_constant_from_c1.
    """
    worst = 0.0
    for _ in range(n):
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.55, d - 0.55))
        a = special.c2_constant(d, alpha)
        b = special.c2_constant_from_c1(d, alpha)
        worst = max(worst, abs(a - b) / abs(a))
    return worst


def c1_quadrature(alphas) -> float:
    """Largest relative gap between c1_constant and a quadrature of its
    integral c1(alpha) = int_0^inf (t^2 + 1)^{-alpha/2} (2t)^{-1/2} dt.

    t = tan(theta) turns it into int_0^{pi/2} cos^{alpha - 3/2} theta
    (2 sin theta)^{-1/2} dtheta, and the tanh-sinh map theta = (pi/2) /
    (1 + exp(-pi sinh tau)) (Takahasi and Mori, Publ. RIMS 9 (1974) 721)
    into a sum in steps of 1/16 over |tau| <= 4.5, where the terms have
    decayed below rounding for alpha >= 0.8.  theta and pi/2 - theta both
    come from exp, so neither endpoint singularity loses digits.  The rule
    shares no code with the Gauss-Legendre panels of quadrature.
    """
    alpha = np.asarray(alphas, dtype=float)[:, None]
    tau = np.arange(-72, 73) / 16.0
    s = np.pi * np.sinh(tau)
    theta = (np.pi / 2.0) / (1.0 + np.exp(-s))
    rest = (np.pi / 2.0) / (1.0 + np.exp(s))        # pi/2 - theta
    # the step 1/16 times dtheta/dtau = (pi^2 / 4) cosh tau / (1 + cosh s)
    weight = (np.pi ** 2 / 64.0) * np.cosh(tau) / (1.0 + np.cosh(s))
    values = np.sum(weight * np.sin(rest) ** (alpha - 1.5)
                    / np.sqrt(2.0 * np.sin(theta)), axis=-1)
    exact = np.array([special.c1_constant(a) for a in alpha[:, 0]])
    return float(np.max(np.abs(values - exact) / exact))


class FreeCaseCheck(NamedTuple):
    b1_abs: float
    b2_abs: float
    t_psym_abs: float
    momentum_drift: float
    momentum_error: float


def free_case(d: int) -> FreeCaseCheck:
    """The zero potential: transport symbols, Born symbol, deflection.

    All of them vanish; b_1 and b_2 come from one transport solve.  The
    phase point is (20, 1, 3, 0.3) in every y and zeta component and the
    Born symbol is taken at zeta = 0, y = 5 e_1.
    """
    spec = zero_potential()
    p = classical.PhasePoint(x=20.0, y=np.ones(d - 1), eta=3.0,
                             zeta=0.3 * np.ones(d - 1))
    ys = np.zeros((1, d - 1))
    ys[0, 0] = 5.0
    z_inf, err = classical.asymptotic_momentum(spec, p, n_doublings=3)
    b1, b2 = transport.symbols(2, p, spec)
    t_psym, _ = kernel.born_symbols(spec, np.zeros(d - 1), ys)
    return FreeCaseCheck(abs(b1.value), abs(b2.value), float(abs(t_psym[0])),
                         float(np.linalg.norm(np.atleast_1d(z_inf) - p.zeta)),
                         float(err))
