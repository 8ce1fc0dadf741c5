"""The shared batched checks report the errors they are built to see, and
the SplitMix64 stream they draw from in verify-all is the published
generator."""

import math

import numpy as np
import pytest

from starkscatter import checks, parabolic, special


def test_parabolic_check_sees_a_wrong_jacobian(monkeypatch):
    exact = parabolic.jacobian_det
    monkeypatch.setattr(parabolic, "jacobian_det",
                        lambda x, y: 1.001 * exact(x, y))
    chk = checks.parabolic_identities(np.random.default_rng(1), 2000, 3)
    # |num - 1.001 num| / (1.001 num), up to the differencing error
    assert chk.max_jacobian_mismatch == pytest.approx(1e-3 / 1.001, rel=1e-5)
    assert chk.max_identity_residual < 1e-10


def test_parabolic_check_keeps_its_points():
    for d in (2, 3):
        chk = checks.parabolic_identities(np.random.default_rng(7), 2000, d)
        assert chk.n_kept > 0.9 * 2000


def test_c1_quadrature_matches_the_closed_form_and_sees_an_error(monkeypatch):
    # verify-all's five exponents agree to rounding; a c1 off by 1e-9
    # relative is reported as such
    alphas = (0.8, 1.0, 1.5, 2.0, 3.0)
    assert checks.c1_quadrature(alphas) < 1e-14
    exact = special.c1_constant
    monkeypatch.setattr(special, "c1_constant",
                        lambda alpha: (1.0 + 1e-9) * exact(alpha))
    assert checks.c1_quadrature(alphas) == pytest.approx(1e-9, rel=1e-4)


def _reference_splitmix64(seed: int, n: int) -> list:
    """SplitMix64 in Python ints, one output at a time."""
    state, out = seed % 2 ** 64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        out.append(z ^ (z >> 31))
    return out


def _raw(rng, n: int) -> list:
    return [int(w) for block in rng._words(n) for w in block]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_stream_is_splitmix64(seed):
    # the counter wraps past 2^64 for the last two seeds, without a warning
    # since pytest turns warnings into errors
    ref = _reference_splitmix64(seed, 1000)
    assert _raw(checks.SplitMix64(seed), 1000) == ref
    u = checks.SplitMix64(seed).uniform(0.0, 1.0, size=1000)
    assert u.tolist() == [(z >> 11) * 2.0 ** -53 for z in ref]


def test_stream_matches_the_published_vector():
    assert _raw(checks.SplitMix64(1234567), 5) == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("n1, n2, d", [(2000, 3000, 3), (2731, 2731, 3),
                                       (8192, 1, 1), (1, 20000, 2)])
def test_split_draw_continues_the_stream(n1, n2, d):
    # the internal blocks hold 8192 values; every case crosses an edge
    lo, hi = [-5.0] + [-20.0] * (d - 1), [50.0] + [20.0] * (d - 1)
    whole = checks.SplitMix64(5).uniform(lo, hi, size=(n1 + n2, d))
    rng = checks.SplitMix64(5)
    first = rng.uniform(lo, hi, size=(n1, d))
    second = rng.uniform(lo, hi, size=(n2, d))
    assert np.array_equal(whole, np.concatenate([first, second]))
    # row-major order: each row takes the next d values, bounds per column
    u = (np.array(_reference_splitmix64(5, (n1 + n2) * d), dtype=np.uint64)
         >> np.uint64(11)) * 2.0 ** -53
    assert np.array_equal(whole, lo + (np.subtract(hi, lo)
                                       * u.reshape(n1 + n2, d)))


def test_scalar_calls_interleave_in_stream_order():
    ref = _reference_splitmix64(9, 8)
    rng = checks.SplitMix64(9)
    got = [rng.uniform(0.5, 2.5), rng.integers(2, 6),
           rng.uniform(-1.0, 1.0, size=5).tolist(), rng.uniform(0.0, 4.0)]
    unit = [(z >> 11) * 2.0 ** -53 for z in ref]
    assert got == [0.5 + 2.0 * unit[0], 2 + (4 * ref[1] >> 64),
                   [-1.0 + 2.0 * v for v in unit[2:7]], 4.0 * unit[7]]
    assert type(got[0]) is float and type(got[1]) is int


@pytest.mark.parametrize("low, high", [
    (1.0, 6.0), (-0.1, 0.1), (0.5, 4.0), (-0.5, 0.5), (-5.0, 50.0),
    (-20.0, 20.0), (-10.0, 10.0), (-3.0, 3.0), (0.55, 1.45), (0.55, 4.45),
    (0.0, 1.0)])
def test_uniform_stays_in_the_half_open_interval(low, high):
    # the bounds verify-all draws on.  The largest u, 1 - 2^-53, bounds
    # every draw since rounding is monotone; as numpy documents for its own
    # uniform, rounding takes it to high itself on some bounds, such as
    # (0.55, 4.45), which a draw meets with probability about 2^-52
    u = checks.SplitMix64(3).uniform(low, high, size=10000)
    assert low <= u.min() and u.max() < high
    assert low + (high - low) * (1.0 - 2.0 ** -53) <= high


def test_unit_draws_are_uniform():
    n = 10 ** 6
    u = checks.SplitMix64(2026).uniform(0.0, 1.0, size=n)
    counts = np.bincount((u * 64).astype(int), minlength=64)
    chi2 = float(np.sum((counts - n / 64) ** 2) / (n / 64))
    assert chi2 < 131.36970205168686     # upper 1e-6 quantile, 63 dof
    assert abs(u.mean() - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / n)


def test_integers_cover_the_range_and_nothing_else():
    rng = checks.SplitMix64(4)
    assert {rng.integers(2, 6) for _ in range(1000)} == {2, 3, 4, 5}


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5, -1])
def test_seed_is_taken_mod_2_to_the_64(seed):
    a = checks.SplitMix64(seed).uniform(0.0, 1.0, size=100)
    b = checks.SplitMix64(seed + 2 ** 64).uniform(0.0, 1.0, size=100)
    assert np.array_equal(a, b)
