"""Command-line front end: config handling, experiments, CSV/JSON artifacts.

Subcommands: orbit, momenta, eikonal, transport, born, kernel, airy-compare,
verify-all.  A run is described by one JSON config (see configs/ at the
repository root); individual entries can be overridden on the command line
with dotted paths, e.g. --potential.kappa=0.5.  Every subcommand writes its
artifacts into output_dir and prints a one-line JSON summary to stdout.

Exit codes: 0 success, 2 config error, 3 numerical-budget error, 4 domain
error.  With a fixed config and seed all artifacts are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import classical, kernel, oscillatory, parabolic, special, transport
from .errors import BudgetError, ConfigError, ConvergenceError, DomainError
from .potentials import (
    PotentialSpec,
    coulomb,
    homogeneous,
    zero_potential,
)

CONFIG_ENV_VAR = "STARKSCATTER_CONFIG"

SUBCOMMANDS = (
    "orbit", "momenta", "eikonal", "transport", "born", "kernel",
    "airy-compare", "verify-all",
)

_DEFAULT_CONFIG = {
    "dimension": 2,
    "seed": 0,
    "output_dir": "out",
    "workers": 1,
    "potential": {"kind": "coulomb", "kappa": 1.0, "softening": 1e-3},
    "region": {"m": 1.0, "eps": 0.3},
    "orbit": {
        "x": 10.0, "y": [1.0], "eta": 1.0, "zeta": [0.3],
        "t_final": 100.0, "n_samples": 200, "tol": 1e-12,
    },
    "momenta": {
        "x": 10.0, "y": [1.0], "eta": 1.0, "zeta": [0.3],
        "direction": 1, "t_start": 100.0, "n_doublings": 6, "tol": 1e-10,
    },
    "eikonal": {"n_points": 10000, "x_range": [10.0, 1e6], "y_over_x": 0.1},
    "transport": {
        "x": 100.0, "y": [5.0], "eta": 15.0, "zeta": [0.3],
        "k_max": 2, "sign": 1, "tol": 1e-9, "t_max": 1e5,
        "h_eta": 0.2, "decay_fit": True,
    },
    "born": {"zeta": None, "lam": 0.0, "r_min": 1.0, "r_max": 1e4, "n_radii": 25},
    "kernel": {
        "n": 2048, "extent": 1e5, "lam": 0.0, "window": [10.0, 60.0],
        "n_radial": 400, "profile_radius": 1.05, "tol": 1e-9, "n_bins": 40,
        "use_asymptote": False,
    },
    "airy": {"arg_min": -10.0, "arg_max": 10.0, "n_args": 21},
}


# ---------------------------------------------------------------------------
# config handling

def load_config(path: str | None) -> dict:
    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _merge(cfg, user)
    return cfg


def _merge(base: dict, update: dict) -> None:
    for key, val in update.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _merge(base[key], val)
        else:
            base[key] = val


def apply_override(cfg: dict, dotted: str, raw: str) -> None:
    """Set a config entry from a --dotted.path=value token."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def parse_overrides(cfg: dict, tokens: list[str]) -> None:
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok:
            raise ConfigError(f"unrecognized argument: {tok}")
        dotted, _, raw = tok[2:].partition("=")
        if not dotted:
            raise ConfigError(f"malformed override: {tok}")
        apply_override(cfg, dotted, raw)


def potential_from_config(cfg: dict) -> PotentialSpec:
    pot = cfg.get("potential", {})
    kind = pot.get("kind", "coulomb")
    kappa = float(pot.get("kappa", 1.0))
    softening = float(pot.get("softening", 1e-3))
    try:
        if kind == "zero":
            return zero_potential()
        if kind == "coulomb":
            return coulomb(kappa, softening=softening)
        if kind == "homogeneous":
            if "alpha" not in pot:
                raise ConfigError("homogeneous potential requires alpha")
            return homogeneous(kappa, float(pot["alpha"]),
                               delta=pot.get("delta"), softening=softening)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown potential kind: {kind}")


def _phase_point(section: dict, d: int) -> classical.PhasePoint:
    y = np.atleast_1d(np.asarray(section["y"], dtype=float))
    zeta = np.atleast_1d(np.asarray(section["zeta"], dtype=float))
    if y.size != d - 1 or zeta.size != d - 1:
        raise ConfigError("y/zeta blocks inconsistent with dimension")
    return classical.PhasePoint(x=float(section["x"]), y=y,
                                eta=float(section["eta"]), zeta=zeta)


def _dimension(cfg: dict) -> int:
    d = int(cfg.get("dimension", 2))
    if d < 2:
        raise ConfigError("dimension must be at least 2")
    return d


# ---------------------------------------------------------------------------
# artifact emission

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    """rows is an iterable of rows, or a 2-d float array (one format a row)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row.tolist()) for row in rows)
            return
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(cfg: dict, name: str, summary: dict) -> dict:
    with open(_outdir(cfg) / f"{name}_summary.json", "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_orbit(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = potential_from_config(cfg)
    sec = cfg["orbit"]
    p0 = _phase_point(sec, d)
    traj = classical.integrate_orbit(
        spec, p0, float(sec["t_final"]), tol=float(sec["tol"]),
        n_samples=int(sec["n_samples"]))
    header = (["t", "x"] + [f"y{i+1}" for i in range(d - 1)]
              + ["eta"] + [f"zeta{i+1}" for i in range(d - 1)] + ["energy"])
    write_csv(_outdir(cfg) / "orbit.csv", header, traj.to_csv_rows())
    summary = {
        "command": "orbit",
        "n_samples": len(traj),
        "energy_drift": traj.energy_drift(),
        "escaping": classical.is_escaping(traj),
    }
    return _emit(cfg, "orbit", summary)


def cmd_momenta(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = potential_from_config(cfg)
    sec = cfg["momenta"]
    p0 = _phase_point(sec, d)
    direction = int(sec.get("direction", 1))
    t_grid = float(sec["t_start"]) * 2.0 ** np.arange(int(sec["n_doublings"]) + 1)
    sign = 1 if direction >= 0 else -1
    traj = classical.integrate_orbit(spec, p0, sign * t_grid[-1],
                                     tol=float(sec["tol"]),
                                     t_eval=sign * t_grid)
    write_csv(_outdir(cfg) / "momenta.csv",
              ["t"] + [f"zeta{i+1}" for i in range(d - 1)],
              np.column_stack([traj.times, traj.states[:, d + 1:]]))
    z_inf, err = classical.momentum_limit(traj)
    summary = {
        "command": "momenta",
        "zeta_infinity": [float(z) for z in np.atleast_1d(z_inf)],
        "error_estimate": err,
        "deflection": float(np.linalg.norm(np.atleast_1d(z_inf) - p0.zeta)),
    }
    return _emit(cfg, "momenta", summary)


def cmd_eikonal(cfg: dict) -> dict:
    d = _dimension(cfg)
    sec = cfg["eikonal"]
    rng = np.random.default_rng(int(cfg["seed"]))
    n = int(sec["n_points"])
    x_lo, x_hi = (float(v) for v in sec["x_range"])
    ratio = float(sec["y_over_x"])
    # one row per point: log10 x, then the y block, as drawn point by point
    u = rng.uniform([math.log10(x_lo)] + [-ratio] * (d - 1),
                    [math.log10(x_hi)] + [ratio] * (d - 1), size=(n, d))
    x = 10.0 ** u[:, 0]
    y = u[:, 1:] * x[:, None] / math.sqrt(d - 1)
    res = parabolic.eikonal_residual(x, y)
    jac = parabolic.jacobian_det(x, y, d)
    lap = parabolic.theta_laplacian(x, y, d)
    write_csv(_outdir(cfg) / "eikonal.csv",
              ["x"] + [f"y{i+1}" for i in range(d - 1)]
              + ["residual", "jacobian", "laplacian_theta"],
              np.column_stack([x, y, res, jac, lap]))
    summary = {"command": "eikonal", "n_points": n,
               "max_abs_residual": float(np.max(np.abs(res), initial=0.0))}
    return _emit(cfg, "eikonal", summary)


def cmd_transport(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = potential_from_config(cfg)
    sec = cfg["transport"]
    region = cfg["region"]
    m, eps = float(region["m"]), float(region["eps"])
    p = _phase_point(sec, d)
    sign = int(sec.get("sign", 1))
    tol = float(sec["tol"])
    k_max = int(sec.get("k_max", transport.K_MAX_DEFAULT))
    if not (1 <= k_max <= transport.K_MAX_DEFAULT):
        raise ConfigError(f"transport.k_max must lie in "
                          f"[1, {transport.K_MAX_DEFAULT}]")
    t_max = float(sec.get("t_max", 1e5))
    h_eta = float(sec.get("h_eta", 0.2))

    rows = []
    summary = {"command": "transport", "k_max": k_max, "residuals": {}}
    for k in range(1, k_max + 1):
        res = transport.symbol_b_result(k, p, spec, sign=sign, t_max=t_max,
                                        tol=tol, m=m, eps=eps)
        qk = transport.symbol_q(k, p, spec, sign=sign, tol=tol, m=m, eps=eps)
        pde = transport.transport_residual(k, p, spec, sign=sign,
                                           h_eta=h_eta, tol=tol, m=m, eps=eps)
        rows.append([p.x, *p.y, p.eta, *p.zeta, k,
                     res.value.real, res.value.imag,
                     qk.real, qk.imag, res.tail_estimate, pde])
        summary["residuals"][f"k={k}"] = pde
    write_csv(_outdir(cfg) / "transport.csv",
              ["x"] + [f"y{i+1}" for i in range(d - 1)]
              + ["eta"] + [f"zeta{i+1}" for i in range(d - 1)]
              + ["k", "b_re", "b_im", "q_re", "q_im",
                 "tail_estimate", "pde_residual"],
              rows)
    if sec.get("decay_fit", True) and spec.kind != "zero":
        summary["decay_exponent_b1"] = transport.decay_fit_symbols(
            1, spec, sign=sign, which="b", tol=tol, m=m, eps=eps, d=d)
        summary["decay_exponent_q1"] = transport.decay_fit_symbols(
            1, spec, sign=sign, which="q", tol=max(tol, 1e-8),
            m=m, eps=eps, d=d)
    return _emit(cfg, "transport", summary)


def cmd_born(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = potential_from_config(cfg)
    sec = cfg["born"]
    lam = float(sec.get("lam", 0.0))
    zeta = sec.get("zeta")
    zeta = np.zeros(d - 1) if zeta is None else np.atleast_1d(
        np.asarray(zeta, dtype=float))
    radii = np.geomspace(float(sec["r_min"]), float(sec["r_max"]),
                         int(sec["n_radii"]))
    ys = np.zeros((radii.size, d - 1))
    ys[:, 0] = radii
    values, _ = kernel.born_symbols(spec, zeta, ys, lam)
    rows = []
    last_ratio = None
    for r, y, val in zip(radii, ys, values):
        row = [r, val.real, val.imag]
        if spec.kind in ("homogeneous", "coulomb") and spec.kappa != 0.0:
            asym = kernel.homogeneous_symbol_asymptote(spec.kappa, spec.alpha, y)
            last_ratio = val.imag / asym.imag
            row += [asym.imag, last_ratio]
        rows.append(row)
    header = ["r", "t_re", "t_im"]
    if rows and len(rows[0]) == 5:
        header += ["asymptote_im", "ratio"]
    write_csv(_outdir(cfg) / "born.csv", header, rows)
    summary = {"command": "born", "n_radii": len(radii),
               "max_abs_symbol": max(abs(complex(r[1], r[2])) for r in rows)}
    if last_ratio is not None:
        summary["asymptote_ratio_at_r_max"] = last_ratio
    return _emit(cfg, "born", summary)


def cmd_kernel(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = potential_from_config(cfg)
    if spec.kind not in ("homogeneous", "coulomb") or spec.kappa == 0.0:
        raise ConfigError("kernel fit needs a homogeneous or coulomb potential")
    sec = cfg["kernel"]
    n = int(sec["n"])
    extent = float(sec["extent"])
    lam = float(sec.get("lam", 0.0))
    grid = kernel.populate_grid(
        spec, n, extent, lam=lam, d=d, tol=float(sec.get("tol", 1e-9)),
        n_radial=int(sec.get("n_radial", 400)),
        use_asymptote=bool(sec.get("use_asymptote", False)),
        R=sec.get("profile_radius"))
    grid = kernel.apply_taper(grid)
    law = kernel.kernel_singularity_law(d, spec.alpha, spec.kappa)
    k_ir = 2.0 * math.pi / extent
    w_lo, w_hi = (float(v) for v in sec.get("window", [10.0, 60.0]))
    fit = kernel.kernel_fft_check(grid, law,
                                  k_window=(w_lo * k_ir, w_hi * k_ir),
                                  n_bins=int(sec.get("n_bins", 40)))
    write_csv(_outdir(cfg) / "kernel_bins.csv",
              ["k", "T_abs", "law_abs", "fit_abs", "log_residual"],
              ([k, t, abs(law.prefactor) * k ** law.exponent,
                fit.prefactor_modulus * k ** fit.exponent,
                math.log(t) - math.log(fit.prefactor_modulus
                                       * k ** fit.exponent)]
               for k, t in zip(fit.bin_centers, fit.bin_values)))
    summary = {
        "command": "kernel",
        "fitted_exponent": fit.exponent,
        "fitted_exponent_stderr": fit.exponent_stderr,
        "fitted_prefactor_modulus": fit.prefactor_modulus,
        "law_exponent": law.exponent,
        "law_prefactor_modulus": abs(law.prefactor),
        "k_window": list(fit.k_window),
        "residual_rms": fit.residual_rms,
    }
    return _emit(cfg, "kernel", summary)


def cmd_airy_compare(cfg: dict) -> dict:
    sec = cfg["airy"]
    args = np.linspace(float(sec["arg_min"]), float(sec["arg_max"]),
                       int(sec["n_args"]))
    rows = []
    worst = 0.0
    for x in args:
        series = oscillatory.airy_reduction(float(x), [0.0])
        quadr = oscillatory.airy_reduction_quadrature(float(x), [0.0])
        diff = abs(series - quadr)
        worst = max(worst, diff)
        rows.append([x, series.real, quadr.real, quadr.imag, diff])
    write_csv(_outdir(cfg) / "airy_compare.csv",
              ["arg", "series", "quad_re", "quad_im", "abs_diff"], rows)
    summary = {"command": "airy-compare", "n_args": len(args),
               "max_abs_diff": worst}
    return _emit(cfg, "airy-compare", summary)


# ---------------------------------------------------------------------------
# verify-all

def _suite_parabolic(cfg: dict) -> dict:
    d = _dimension(cfg)
    rng = np.random.default_rng(int(cfg["seed"]) + 1)
    worst_ident = 0.0
    worst_jac = 0.0
    for _ in range(2000):
        x = 10.0 ** rng.uniform(0.5, 4.0)
        y = rng.uniform(-0.5, 0.5, size=d - 1) * x
        r = math.hypot(x, float(np.linalg.norm(y)))
        if r + x <= 2.5:
            continue
        p = parabolic.to_parabolic(x, y)
        g_sq = float(p.g @ p.g)
        worst_ident = max(
            worst_ident,
            abs(p.f ** 2 + g_sq - 2.0 * r) / (2.0 * r),
            abs(p.f ** 2 - g_sq - 2.0 * x) / max(1.0, abs(2.0 * x)),
            abs(2.0 * r * float(parabolic.grad_f(x, y) @ parabolic.grad_f(x, y)) - 1.0),
        )
        jac = parabolic.jacobian_det(x, y, d)
        h = 1e-6 * max(1.0, r)
        num = _numeric_jacobian(x, y, h)
        worst_jac = max(worst_jac, abs(num - jac) / jac)
    return {"max_identity_residual": worst_ident,
            "max_jacobian_mismatch": worst_jac,
            "passed": bool(worst_ident < 1e-10 and worst_jac < 1e-5)}


def _numeric_jacobian(x: float, y: np.ndarray, h: float) -> float:
    d = 1 + y.size
    cols = []
    for j in range(d):
        dx = h if j == 0 else 0.0
        dy = np.zeros(y.size)
        if j > 0:
            dy[j - 1] = h
        pp = parabolic.to_parabolic(x + dx, y + dy)
        pm = parabolic.to_parabolic(x - dx, y - dy)
        cols.append(np.concatenate([[(pp.f - pm.f) / (2 * h)],
                                    (pp.g - pm.g) / (2 * h)]))
    return float(abs(np.linalg.det(np.stack(cols, axis=1))))


def _suite_constants(cfg: dict) -> dict:
    from scipy.integrate import quad
    rng = np.random.default_rng(int(cfg["seed"]) + 2)
    worst = 0.0
    for alpha in (0.8, 1.0, 1.5, 2.0, 3.0):
        val, _ = quad(lambda t, a=alpha: (t * t + 1.0) ** (-a / 2.0)
                      / math.sqrt(2.0 * t), 0.0, np.inf, limit=400)
        worst = max(worst, abs(val - special.c1_constant(alpha))
                    / special.c1_constant(alpha))
    c2_31 = special.c2_constant(3, 1.0)
    err_c2 = abs(c2_31 - (-1j / math.sqrt(2.0 * math.pi)))
    worst_routes = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        alpha = rng.uniform(0.55, d - 0.55)
        a = special.c2_constant(d, alpha)
        b = special.c2_constant_from_c1(d, alpha)
        worst_routes = max(worst_routes, abs(a - b) / abs(a))
    return {"max_c1_quadrature_mismatch": worst,
            "c2_coulomb_d3_error": err_c2,
            "max_c2_route_mismatch": worst_routes,
            "passed": bool(worst < 1e-8 and err_c2 < 1e-12
                           and worst_routes < 1e-12)}


def _suite_region(cfg: dict) -> dict:
    d = _dimension(cfg)
    region = cfg["region"]
    m, eps = float(region["m"]), float(region["eps"])
    rng = np.random.default_rng(int(cfg["seed"]) + 3)
    n_points = 10000
    # candidate rows (x, y, eta, zeta), as drawn field by field per point
    lo = [-5.0] + [-20.0] * (d - 1) + [-10.0] + [-3.0] * (d - 1)
    hi = [50.0] + [20.0] * (d - 1) + [10.0] + [3.0] * (d - 1)
    blocks, accepted = [], 0
    while accepted < n_points:
        z = rng.uniform(lo, hi, size=(n_points, 2 * d))
        z = z[classical.cone_mask(z[:, 0], z[:, 1:d], z[:, d], z[:, d + 1:],
                                  m=m, eps=eps, sign=+1)]
        blocks.append(z)
        accepted += len(z)
    z = np.concatenate(blocks)[:n_points]
    violations = 0
    for t in (1.0, 10.0, 100.0):
        flowed = classical.free_flow_arrays(z[:, 0], z[:, 1:d], z[:, d],
                                            z[:, d + 1:], t)
        violations += int(np.count_nonzero(
            ~classical.cone_mask(*flowed, m=m, eps=eps, sign=+1)))
    return {"n_points": n_points, "violations": violations,
            "passed": violations == 0}


def _suite_free_case(cfg: dict) -> dict:
    d = _dimension(cfg)
    spec = zero_potential()
    p = classical.PhasePoint(x=20.0, y=np.ones(d - 1), eta=3.0,
                             zeta=0.3 * np.ones(d - 1))
    b1 = transport.symbol_b(1, p, spec)
    b2 = transport.symbol_b(2, p, spec)
    y = np.zeros(d - 1)
    y[0] = 5.0
    t = kernel.born_symbol(spec, np.zeros(d - 1), y)
    z_inf, _ = classical.asymptotic_momentum(spec, p, n_doublings=3)
    drift = float(np.linalg.norm(np.atleast_1d(z_inf) - p.zeta))
    return {"b1_abs": abs(b1), "b2_abs": abs(b2), "t_psym_abs": abs(t),
            "momentum_drift": drift,
            "passed": bool(abs(b1) < 1e-12 and abs(b2) < 1e-12
                           and abs(t) < 1e-12 and drift < 1e-12)}


def cmd_verify_all(cfg: dict) -> dict:
    spec = potential_from_config(cfg)
    suites: dict[str, dict] = {}

    eik = cmd_eikonal(cfg)
    suites["eikonal"] = {"max_abs_residual": eik["max_abs_residual"],
                         "passed": bool(eik["max_abs_residual"] < 1e-10)}
    suites["parabolic"] = _suite_parabolic(cfg)
    suites["constants"] = _suite_constants(cfg)
    suites["region"] = _suite_region(cfg)

    airy = cmd_airy_compare(cfg)
    suites["airy"] = {"max_abs_diff": airy["max_abs_diff"],
                      "passed": bool(airy["max_abs_diff"] < 1e-10)}

    orb = cmd_orbit(cfg)
    suites["orbit"] = {"energy_drift": orb["energy_drift"],
                       "passed": bool(orb["energy_drift"] < 1e-6)}

    if spec.kind == "zero":
        suites["free_case"] = _suite_free_case(cfg)
    else:
        tra = cmd_transport(cfg)
        ok = all(v < 1e-4 for v in tra["residuals"].values())
        if "decay_exponent_b1" in tra:
            ok = ok and abs(tra["decay_exponent_b1"] + 0.5) < 0.1
            ok = ok and abs(tra["decay_exponent_q1"] + 1.5) < 0.1
        suites["transport"] = {**tra["residuals"], "passed": bool(ok)}

        brn = cmd_born(cfg)
        ratio = brn.get("asymptote_ratio_at_r_max")
        suites["born"] = {
            "asymptote_ratio_at_r_max": ratio,
            "passed": bool(ratio is None or abs(ratio - 1.0) < 0.05),
        }

        ker = cmd_kernel(cfg)
        suites["kernel"] = {
            "fitted_exponent": ker["fitted_exponent"],
            "fitted_prefactor_modulus": ker["fitted_prefactor_modulus"],
            "passed": bool(
                abs(ker["fitted_exponent"] - ker["law_exponent"]) < 0.1
                and abs(ker["fitted_prefactor_modulus"]
                        / ker["law_prefactor_modulus"] - 1.0) < 0.1),
        }

    all_passed = all(s["passed"] for s in suites.values())
    summary = {"command": "verify-all", "passed": all_passed, "suites": suites}
    return _emit(cfg, "verify_all", summary)


# ---------------------------------------------------------------------------
# entry point

_DISPATCH = {
    "orbit": cmd_orbit,
    "momenta": cmd_momenta,
    "eikonal": cmd_eikonal,
    "transport": cmd_transport,
    "born": cmd_born,
    "kernel": cmd_kernel,
    "airy-compare": cmd_airy_compare,
    "verify-all": cmd_verify_all,
}


def _usage() -> str:
    return ("usage: starkscatter {%s} [--config PATH] [--key.path=value ...]"
            % ",".join(SUBCOMMANDS))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="starkscatter", usage=_usage(), add_help=True)
    parser.add_argument("subcommand", nargs="?")
    parser.add_argument("--config", default=None)
    try:
        ns, rest = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if ns.subcommand not in _DISPATCH:
        print(_usage(), file=sys.stderr)
        return 2
    try:
        cfg = load_config(ns.config)
        parse_overrides(cfg, rest)
        summary = _DISPATCH[ns.subcommand](cfg)
        print(json.dumps(summary, sort_keys=True))
        return 0 if summary.get("passed", True) else 1
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return 2
    except BudgetError as exc:
        print(json.dumps({"error": "budget", "message": str(exc),
                          "module": exc.module, "operation": exc.operation,
                          "budget": exc.budget}))
        return 3
    except ConvergenceError as exc:
        print(json.dumps({"error": "convergence", "message": str(exc)}))
        return 3
    except DomainError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}))
        return 4
    except MemoryError:
        print(json.dumps({"error": "budget", "message": "out of memory"}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
