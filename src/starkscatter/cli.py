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

# The config schema.  Every key a config may set, with its default; a key's
# type is its default's type (float keys also take JSON integers, list keys
# hold numbers).  A type in place of a default declares an optional key of
# that type whose default is None.
_DEFAULT_CONFIG = {
    "dimension": 2,
    "seed": 0,
    "output_dir": "out",
    "potential": {"kind": "coulomb", "kappa": 1.0, "softening": 1e-3,
                  "alpha": float, "delta": float},
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
    "born": {"zeta": list, "lam": 0.0, "r_min": 1.0, "r_max": 1e4, "n_radii": 25},
    "kernel": {
        "n": 2048, "extent": 1e5, "lam": 0.0, "window": [10.0, 60.0],
        "n_radial": 400, "profile_radius": 1.05, "tol": 1e-9, "n_bins": 40,
        "use_asymptote": False,
    },
    "airy": {"arg_min": -10.0, "arg_max": 10.0, "n_args": 21},
}


def _at_least(lo: int):
    return (lambda v: v >= lo), f"at least {lo}"


def _one_of(*allowed):
    return (lambda v: v in allowed), " or ".join(map(json.dumps, allowed))


_POSITIVE = (lambda v: v > 0), "positive"
_INTERVAL = ((lambda v: len(v) == 2 and 0 < v[0] < v[1]),
             "[lo, hi] with 0 < lo < hi")

# Allowed values by key name, in every section: (test, what it requires).
_RANGES = {
    "dimension": _at_least(2), "seed": _at_least(0), "n": _at_least(2),
    "n_samples": _at_least(2), "n_doublings": _at_least(1),
    "n_points": _at_least(1), "n_radii": _at_least(1),
    "n_radial": _at_least(2), "n_bins": _at_least(5), "n_args": _at_least(1),
    "k_max": ((lambda v: 1 <= v <= transport.K_MAX_DEFAULT),
              f"in [1, {transport.K_MAX_DEFAULT}]"),
    "kind": _one_of("zero", "coulomb", "homogeneous"),
    "sign": _one_of(-1, 1), "direction": _one_of(-1, 1),
    "x_range": _INTERVAL, "window": _INTERVAL,
    **dict.fromkeys(("tol", "t_final", "t_start", "t_max", "h_eta", "extent",
                     "r_min", "r_max", "profile_radius", "m", "eps"),
                    _POSITIVE),
}

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list of numbers"}


# ---------------------------------------------------------------------------
# config handling

def load_config(path: str | None, overrides: list[str] = ()) -> dict:
    """The config file at path (or $STARKSCATTER_CONFIG) with the
    --dotted.path=value overrides applied, checked against _DEFAULT_CONFIG:
    typed values, every default filled in, ConfigError on anything else.
    """
    raw = {}
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # also integers too long to parse
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    parse_overrides(raw, overrides)
    return _validate(_DEFAULT_CONFIG, raw, "")


def _validate(schema: dict, raw: dict, prefix: str) -> dict:
    """Typed copy of the section raw, with the defaults of schema filled in."""
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {prefix}{key}")
    out = {}
    for key, default in schema.items():
        name = prefix + key
        if isinstance(default, dict):
            section = raw.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be a JSON object")
            out[key] = _validate(default, section, name + ".")
            continue
        optional = isinstance(default, type)
        value = raw.get(key, None if optional else default)
        if not (optional and value is None):
            value = _typed(name, default if optional else type(default), value)
            test, allowed = _RANGES.get(key, (None, ""))
            if test is not None and not test(value):
                raise ConfigError(f"{name} must be {allowed}, "
                                  f"got {json.dumps(value)}")
        out[key] = value
    return out


def _typed(name: str, kind: type, value):
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, "
                          f"got {json.dumps(value)}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if kind is list:
        return [_typed(f"{name}[{i}]", float, v) for i, v in enumerate(value)]
    return value


def apply_override(cfg: dict, dotted: str, raw: str) -> None:
    """Set a config entry from a --dotted.path=value token."""
    try:
        value = json.loads(raw)
    except ValueError:  # a bare string, or an integer too long to parse
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
    pot = cfg["potential"]
    kind, kappa, softening = pot["kind"], pot["kappa"], pot["softening"]
    try:
        if kind == "zero":
            return zero_potential()
        if kind == "coulomb":
            return coulomb(kappa, softening=softening)
        if pot["alpha"] is None:
            raise ConfigError("homogeneous potential requires alpha")
        return homogeneous(kappa, pot["alpha"], delta=pot["delta"],
                           softening=softening)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _block(values: list, d: int) -> np.ndarray:
    """A y or zeta block of the config as an array of length d - 1."""
    if len(values) != d - 1:
        raise ConfigError("y/zeta blocks inconsistent with dimension")
    return np.asarray(values, dtype=float)


def _phase_point(section: dict, d: int) -> classical.PhasePoint:
    return classical.PhasePoint(x=section["x"], y=_block(section["y"], d),
                                eta=section["eta"],
                                zeta=_block(section["zeta"], d))


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
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["orbit"]
    p0 = _phase_point(sec, d)
    traj = classical.integrate_orbit(spec, p0, sec["t_final"], tol=sec["tol"],
                                     n_samples=sec["n_samples"])
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
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["momenta"]
    p0 = _phase_point(sec, d)
    sign = sec["direction"]
    t_grid = sec["t_start"] * 2.0 ** np.arange(sec["n_doublings"] + 1)
    traj = classical.integrate_orbit(spec, p0, sign * t_grid[-1],
                                     tol=sec["tol"], t_eval=sign * t_grid)
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
    d = cfg["dimension"]
    sec = cfg["eikonal"]
    rng = np.random.default_rng(cfg["seed"])
    n = sec["n_points"]
    x_lo, x_hi = sec["x_range"]
    ratio = sec["y_over_x"]
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
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["transport"]
    m, eps = cfg["region"]["m"], cfg["region"]["eps"]
    p = _phase_point(sec, d)
    sign, tol, k_max = sec["sign"], sec["tol"], sec["k_max"]
    t_max, h_eta = sec["t_max"], sec["h_eta"]

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
    if sec["decay_fit"] and spec.kind != "zero":
        summary["decay_exponent_b1"] = transport.decay_fit_symbols(
            1, spec, sign=sign, which="b", tol=tol, m=m, eps=eps, d=d)
        summary["decay_exponent_q1"] = transport.decay_fit_symbols(
            1, spec, sign=sign, which="q", tol=max(tol, 1e-8),
            m=m, eps=eps, d=d)
    return _emit(cfg, "transport", summary)


def cmd_born(cfg: dict) -> dict:
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["born"]
    zeta = np.zeros(d - 1) if sec["zeta"] is None else _block(sec["zeta"], d)
    radii = np.geomspace(sec["r_min"], sec["r_max"], sec["n_radii"])
    ys = np.zeros((radii.size, d - 1))
    ys[:, 0] = radii
    values, _ = kernel.born_symbols(spec, zeta, ys, sec["lam"])
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
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    if spec.kind not in ("homogeneous", "coulomb") or spec.kappa == 0.0:
        raise ConfigError("kernel fit needs a homogeneous or coulomb potential")
    sec = cfg["kernel"]
    extent = sec["extent"]
    grid = kernel.populate_grid(
        spec, sec["n"], extent, lam=sec["lam"], d=d, tol=sec["tol"],
        n_radial=sec["n_radial"], use_asymptote=sec["use_asymptote"],
        R=sec["profile_radius"])
    grid = kernel.apply_taper(grid)
    law = kernel.kernel_singularity_law(d, spec.alpha, spec.kappa)
    k_ir = 2.0 * math.pi / extent
    w_lo, w_hi = sec["window"]
    fit = kernel.kernel_fft_check(grid, law,
                                  k_window=(w_lo * k_ir, w_hi * k_ir),
                                  n_bins=sec["n_bins"])
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
    args = np.linspace(sec["arg_min"], sec["arg_max"], sec["n_args"])
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
    d = cfg["dimension"]
    rng = np.random.default_rng(cfg["seed"] + 1)
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
    rng = np.random.default_rng(cfg["seed"] + 2)
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
    d = cfg["dimension"]
    m, eps = cfg["region"]["m"], cfg["region"]["eps"]
    rng = np.random.default_rng(cfg["seed"] + 3)
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
    d = cfg["dimension"]
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
        cfg = load_config(ns.config, rest)
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
