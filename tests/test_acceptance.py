"""End-to-end accuracy gate: each test pins one headline guarantee."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from starkscatter import (
    PhasePoint,
    BumpProfile,
    c1_constant,
    c2_constant,
    coulomb,
    decay_slope,
    eval_potential,
    fit_kernel_law,
    free_eigenfunction,
    integrate_orbit,
    kernel_singularity_law,
    radial_kernel,
    stationary_phase_eigenfunction,
    symbols,
)
from starkscatter import checks
from starkscatter.quadrature import loglog_fit
from starkscatter.transport import decay_fit_symbols


def test_exact_phase_solves_eikonal_equation():
    # 10^4 random points, x in [10, 1e6], |y|/x <= 0.1: residual <= 1e-10
    start = time.perf_counter()
    chk = checks.eikonal(np.random.default_rng(0), 10000, 2,
                         x_range=(10.0, 1e6), y_over_x=0.1)
    assert chk.max_abs_residual <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_parabolic_identities_and_jacobian():
    # 10^4 points: algebraic identities to rounding, Jacobian vs numeric
    # determinant to 1e-6 relative
    start = time.perf_counter()
    chk = checks.parabolic_identities(np.random.default_rng(1), 10000, 3)
    assert chk.max_identity_residual < 1e-10
    assert chk.max_jacobian_mismatch < 1e-6
    assert time.perf_counter() - start < 5.0


def test_kernel_constants_against_quadrature():
    start = time.perf_counter()
    # c1 against its integral representation for five exponents
    for alpha in (0.8, 1.0, 1.5, 2.0, 3.0):
        head, _ = quad(lambda t, a=alpha: (t + 1.0) ** (-a / 2.0)
                       * t ** (-0.75), 0.0, 1.0, limit=400)
        tail, _ = quad(lambda u, a=alpha: (1.0 + u) ** (-a / 2.0)
                       * u ** (a / 2.0 - 1.25), 0.0, 1.0, limit=400)
        ref = 2.0 ** -1.5 * (head + tail)
        assert abs(c1_constant(alpha) - ref) <= 1e-8 * ref
    # the coulomb diagonal constant in three dimensions
    assert abs(c2_constant(3, 1.0) - (-1j / math.sqrt(2.0 * math.pi))) <= 1e-12
    # two independent assemblies of c2 agree across the admissible range
    assert checks.c2_routes(np.random.default_rng(2), 20) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_radiation_observable_decay_rates():
    # coulomb, kappa = 0.1: averaged over 20 random zero-energy scattering
    # orbits, Gamma decays at least like t^{-0.9} and gamma_par like t^{-1.8}
    spec = coulomb(0.1, softening=1e-3)
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, 1e4, 160)])
    slopes_G, slopes_par = [], []
    for _ in range(20):
        x0 = rng.uniform(15.0, 30.0)
        y0 = rng.uniform(-2.0, 2.0, size=1)
        zeta0 = rng.uniform(-0.5, 0.5, size=1)
        eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                         - float(zeta0 @ zeta0))
        p0 = PhasePoint(x0, y0, eta0, zeta0)
        traj = integrate_orbit(spec, p0, 1e4, tol=1e-12, t_eval=t_eval)
        s_G, _ = decay_slope(traj, "Gamma_norm", (1e2, 1e4))
        s_p, _ = decay_slope(traj, "gamma_par", (1e2, 1e4))
        slopes_G.append(s_G)
        slopes_par.append(s_p)
    assert np.mean(slopes_G) <= -0.9
    assert np.mean(slopes_par) <= -1.8
    assert time.perf_counter() - start < 120.0


def test_cone_invariance_under_free_flow():
    # 10^4 sampled cone points stay in the cone at t = 1, 10, 100
    chk = checks.cone_invariance(np.random.default_rng(4), 10000, 3)
    assert chk.n_points == 10000
    assert chk.violations == 0


def test_transport_hierarchy_verification():
    # PDE residual is second order in the differencing step at 10 random
    # cone points for k = 1, 2, and the symbols decay at the derived rates
    spec = coulomb(1.0)
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    hs = np.array([0.4, 0.2, 0.1])
    for _ in range(10):
        x = rng.uniform(50.0, 150.0)
        p = PhasePoint(x, rng.uniform(-5.0, 5.0, size=1),
                       math.sqrt(2.0 * x) + rng.uniform(1.0, 8.0),
                       rng.uniform(-0.5, 0.5, size=1))
        for k in (1, 2):
            res = np.array([symbols(k, p, spec, h_eta=float(h),
                                    tol=1e-9)[k - 1].residual for h in hs])
            slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.4)
    x_values = np.geomspace(1e2, 1e4, 7)
    b_exp, q_exp = decay_fit_symbols(spec, x_values=x_values)
    assert b_exp == pytest.approx(-0.5, abs=0.1)
    assert q_exp == pytest.approx(-1.5, abs=0.1)
    assert time.perf_counter() - start < 300.0


def test_stationary_phase_asymptote_accuracy():
    # relative error <= 1% at x = 800, y/x = 0.05, and the error decays
    # at least like x^{-1/2} along doubling x
    start = time.perf_counter()
    xi = BumpProfile(1.5, 2.0)
    xs = [50.0, 100.0, 200.0, 400.0, 800.0]
    errs = []
    for x in xs:
        y = [0.05 * x]
        exact = free_eigenfunction(x, y, xi, tol=1e-10)
        errs.append(abs(exact - stationary_phase_eigenfunction(x, y, xi))
                    / abs(exact))
    assert errs[-1] <= 0.01
    assert loglog_fit(xs, errs)[0] <= -0.5
    assert time.perf_counter() - start < 60.0


def test_kernel_power_law_from_fft():
    # coulomb in d = 3: fitted exponent -1.5 +- 0.1 and prefactor within
    # 10% of (2 pi)^{-1/2} from the transform of 2048 profile radii
    start = time.perf_counter()
    spec = coulomb(1.0)
    k, T = radial_kernel(spec, 3, 2048, 1e5, 0.0, 1.05, tol=1e-9)
    law = kernel_singularity_law(3, 1.0, 1.0)
    k_ir = 2.0 * math.pi / 1e5
    fit = fit_kernel_law(k, T, law, (10.0 * k_ir, 60.0 * k_ir))
    assert fit.exponent == pytest.approx(-1.5, abs=0.1)
    assert fit.prefactor_modulus == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=0.1)
    assert time.perf_counter() - start < 120.0


def test_free_case_degeneracy():
    # zero potential: transport symbols, the Born symbol and the momentum
    # deflection all collapse to zero
    start = time.perf_counter()
    chk = checks.free_case(2)
    assert chk.b1_abs == 0.0
    assert chk.b2_abs == 0.0
    assert chk.t_psym_abs == 0.0
    assert chk.momentum_drift < 1e-12
    assert chk.momentum_error < 1e-12
    assert time.perf_counter() - start < 10.0


def test_verification_run_is_deterministic(tmp_path):
    # the full verification suite, run twice with the same config and seed,
    # produces byte-identical artifacts and stdout
    cfg = {
        "dimension": 3,
        "seed": 0,
        "potential": {"kind": "coulomb", "kappa": 1.0, "softening": 1e-3},
        "eikonal": {"n_points": 500, "x_range": [10.0, 1e6], "y_over_x": 0.1},
        "orbit": {"x": 10.0, "y": [1.0, 0.0], "eta": 1.0, "zeta": [0.3, 0.0],
                  "t_final": 100.0, "n_samples": 50, "tol": 1e-12},
        "transport": {"x": 100.0, "y": [5.0, 0.0], "eta": 15.0,
                      "zeta": [0.3, 0.0], "k_max": 2, "sign": 1, "tol": 1e-9,
                      "t_max": 1e5, "h_eta": 0.2},
        "born": {"zeta": None, "lam": 0.0, "r_min": 1.0, "r_max": 1e4,
                 "n_radii": 10},
        "kernel": {"n": 2048, "extent": 1e5, "lam": 0.0,
                   "window": [10.0, 60.0], "profile_radius": 1.05,
                   "tol": 1e-9},
        "airy": {"arg_min": -10.0, "arg_max": 10.0, "n_args": 21},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "starkscatter.cli", "verify-all",
             "--config", str(cfg_path), f"--output_dir={outdir}"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert summary["passed"] is True
        artifacts = {p.name: p.read_bytes()
                     for p in sorted(outdir.iterdir())}
        outputs.append((proc.stdout, artifacts))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1].keys() == outputs[1][1].keys()
    for name in outputs[0][1]:
        assert outputs[0][1][name] == outputs[1][1][name], name
