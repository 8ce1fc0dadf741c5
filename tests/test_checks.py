"""The shared batched checks report the errors they are built to see."""

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
