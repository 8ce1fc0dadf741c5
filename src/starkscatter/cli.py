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

from . import (checks, classical, kernel, oscillatory, parabolic, special,
               transport)
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
        "profile_radius": 1.05, "tol": 1e-9,
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
    "n_points": _at_least(1), "n_radii": _at_least(1), "n_args": _at_least(1),
    "k_max": ((lambda v: 1 <= v <= transport.K_MAX_DEFAULT),
              f"in [1, {transport.K_MAX_DEFAULT}]"),
    "kind": _one_of("zero", "coulomb", "homogeneous"),
    "sign": _one_of(-1, 1), "direction": _one_of(-1, 1),
    "x_range": _INTERVAL, "window": _INTERVAL, "y_over_x": _at_least(0),
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


def _block(cfg: dict, section: str, key: str) -> np.ndarray:
    """The y or zeta block section.key as an array of length dimension - 1."""
    values, n = cfg[section][key], cfg["dimension"] - 1
    if len(values) != n:
        raise ConfigError(f"{section}.{key} must hold dimension - 1 = {n} "
                          f"numbers, got {len(values)}")
    return np.asarray(values, dtype=float)


def _check_blocks(cfg: dict, sections) -> None:
    """Check every y/zeta block of sections before a stage writes anything."""
    for section in sections:
        for key in ("y", "zeta"):
            if cfg[section].get(key) is not None:
                _block(cfg, section, key)


def _phase_point(cfg: dict, section: str) -> classical.PhasePoint:
    sec = cfg[section]
    return classical.PhasePoint(x=sec["x"], y=_block(cfg, section, "y"),
                                eta=sec["eta"],
                                zeta=_block(cfg, section, "zeta"))


# ---------------------------------------------------------------------------
# artifact emission

def write_csv(path: Path, header: list[str], rows) -> None:
    """rows as a 2-d float array, every value in %.17g (1.0 is written 1)."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row.tolist()) for row in rows)


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
    p0 = _phase_point(cfg, "orbit")
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
    p0 = _phase_point(cfg, "momenta")
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
    chk = checks.eikonal(np.random.default_rng(cfg["seed"]), sec["n_points"],
                         d, sec["x_range"], sec["y_over_x"])
    x, y = chk.x, chk.y
    jac = parabolic.jacobian_det(x, y, d)
    lap = parabolic.theta_laplacian(x, y, d)
    write_csv(_outdir(cfg) / "eikonal.csv",
              ["x"] + [f"y{i+1}" for i in range(d - 1)]
              + ["residual", "jacobian", "laplacian_theta"],
              np.column_stack([x, y, chk.residual, jac, lap]))
    summary = {"command": "eikonal", "n_points": sec["n_points"],
               "max_abs_residual": chk.max_abs_residual}
    return _emit(cfg, "eikonal", summary)


def cmd_transport(cfg: dict) -> dict:
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["transport"]
    m, eps = cfg["region"]["m"], cfg["region"]["eps"]
    p = _phase_point(cfg, "transport")
    sign, tol, k_max = sec["sign"], sec["tol"], sec["k_max"]
    t_max, h_eta = sec["t_max"], sec["h_eta"]

    results = transport.symbols(k_max, p, spec, sign=sign, t_max=t_max,
                                h_eta=h_eta, tol=tol, m=m, eps=eps)
    rows = [[p.x, *p.y, p.eta, *p.zeta, k, res.value.real, res.value.imag,
             res.q.real, res.q.imag, res.tail_estimate, res.residual]
            for k, res in enumerate(results, 1)]
    summary = {"command": "transport", "k_max": k_max,
               "residuals": {f"k={k}": res.residual
                             for k, res in enumerate(results, 1)}}
    write_csv(_outdir(cfg) / "transport.csv",
              ["x"] + [f"y{i+1}" for i in range(d - 1)]
              + ["eta"] + [f"zeta{i+1}" for i in range(d - 1)]
              + ["k", "b_re", "b_im", "q_re", "q_im",
                 "tail_estimate", "pde_residual"],
              rows)
    if sec["decay_fit"] and spec.kappa != 0.0:
        (summary["decay_exponent_b1"],
         summary["decay_exponent_q1"]) = transport.decay_fit_symbols(
            1, spec, sign=sign, tol=tol, m=m, eps=eps, d=d)
    return _emit(cfg, "transport", summary)


def cmd_born(cfg: dict) -> dict:
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    sec = cfg["born"]
    zeta = (np.zeros(d - 1) if sec["zeta"] is None
            else _block(cfg, "born", "zeta"))
    radii = np.geomspace(sec["r_min"], sec["r_max"], sec["n_radii"])
    ys = np.zeros((radii.size, d - 1))
    ys[:, 0] = radii
    values, _ = kernel.born_symbols(spec, zeta, ys, sec["lam"])
    header, columns = ["r", "t_re", "t_im"], [radii, values.real, values.imag]
    summary = {"command": "born", "n_radii": len(radii),
               "max_abs_symbol": float(np.max(np.abs(values)))}
    if spec.kappa != 0.0:
        asym = np.array([kernel.homogeneous_symbol_asymptote(
            spec.kappa, spec.alpha, y).imag for y in ys])
        ratio = values.imag / asym
        header += ["asymptote_im", "ratio"]
        columns += [asym, ratio]
        summary["asymptote_ratio_at_r_max"] = float(ratio[-1])
    write_csv(_outdir(cfg) / "born.csv", header, np.column_stack(columns))
    return _emit(cfg, "born", summary)


def _kernel_law(cfg: dict, spec: PotentialSpec) -> special.KernelLaw:
    """The kernel law the kernel stage fits, checked before any work."""
    if spec.kappa == 0.0:
        raise ConfigError("kernel fit needs a homogeneous or coulomb "
                          "potential with kappa != 0")
    d = cfg["dimension"]
    if not 0.5 < spec.alpha < d - 0.5:
        raise DomainError(f"kernel law needs potential.alpha in (1/2, "
                          f"dimension - 1/2) = (0.5, {d - 0.5}), "
                          f"got {spec.alpha}")
    return kernel.kernel_singularity_law(d, spec.alpha, spec.kappa)


def cmd_kernel(cfg: dict) -> dict:
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    law = _kernel_law(cfg, spec)
    sec = cfg["kernel"]
    extent = sec["extent"]
    k, T = kernel.radial_kernel(spec, d, sec["n"], extent, lam=sec["lam"],
                                R=sec["profile_radius"], tol=sec["tol"])
    k_ir = 2.0 * math.pi / extent
    w_lo, w_hi = sec["window"]
    fit = kernel.fit_kernel_law(k, T, law, (w_lo * k_ir, w_hi * k_ir))
    write_csv(_outdir(cfg) / "kernel_bins.csv",
              ["k", "T_abs", "law_abs", "fit_abs", "log_residual"],
              np.column_stack([fit.k, fit.values,
                               abs(law.prefactor) * fit.k ** law.exponent,
                               fit.model, np.log(fit.values / fit.model)]))
    summary = {
        "command": "kernel",
        "fitted_exponent": fit.exponent,
        "fitted_exponent_stderr": fit.exponent_stderr,
        "fitted_prefactor_modulus": fit.prefactor_modulus,
        "fitted_prefactor_stderr": fit.prefactor_stderr,
        "subleading_coefficient": fit.subleading,
        "subleading_coefficient_stderr": fit.subleading_stderr,
        "half_sample_change": fit.half_sample_change,
        "law_exponent": law.exponent,
        "law_prefactor_modulus": abs(law.prefactor),
        "k_window": list(fit.k_window),
        "residual_rms": fit.residual_rms,
    }
    return _emit(cfg, "kernel", summary)


def cmd_airy_compare(cfg: dict) -> dict:
    sec = cfg["airy"]
    args = np.linspace(sec["arg_min"], sec["arg_max"], sec["n_args"])
    series = oscillatory.airy_reduction(args, [0.0]).real
    quadr = oscillatory.airy_reduction_quadrature(args)
    diff = np.abs(series - quadr)
    write_csv(_outdir(cfg) / "airy_compare.csv",
              ["arg", "series", "quad_re", "quad_im", "abs_diff"],
              np.column_stack([args, series, quadr.real, quadr.imag, diff]))
    summary = {"command": "airy-compare", "n_args": len(args),
               "max_abs_diff": float(np.max(diff))}
    return _emit(cfg, "airy-compare", summary)


# ---------------------------------------------------------------------------
# verify-all

def _suite_parabolic(cfg: dict) -> dict:
    chk = checks.parabolic_identities(np.random.default_rng(cfg["seed"] + 1),
                                      2000, cfg["dimension"])
    return {"max_identity_residual": chk.max_identity_residual,
            "max_jacobian_mismatch": chk.max_jacobian_mismatch,
            "passed": bool(chk.max_identity_residual < 1e-10
                           and chk.max_jacobian_mismatch < 1e-5)}


def _suite_constants(cfg: dict) -> dict:
    worst = checks.c1_quadrature((0.8, 1.0, 1.5, 2.0, 3.0))
    c2_31 = special.c2_constant(3, 1.0)
    err_c2 = abs(c2_31 - (-1j / math.sqrt(2.0 * math.pi)))
    worst_routes = checks.c2_routes(np.random.default_rng(cfg["seed"] + 2), 20)
    return {"max_c1_quadrature_mismatch": worst,
            "c2_coulomb_d3_error": err_c2,
            "max_c2_route_mismatch": worst_routes,
            "passed": bool(worst < 1e-8 and err_c2 < 1e-12
                           and worst_routes < 1e-12)}


def _suite_region(cfg: dict) -> dict:
    chk = checks.cone_invariance(np.random.default_rng(cfg["seed"] + 3),
                                 10000, cfg["dimension"], m=cfg["region"]["m"],
                                 eps=cfg["region"]["eps"])
    return {"n_points": chk.n_points, "violations": chk.violations,
            "passed": chk.violations == 0}


def _suite_free_case(cfg: dict) -> dict:
    chk = checks.free_case(cfg["dimension"])
    return {"b1_abs": chk.b1_abs, "b2_abs": chk.b2_abs,
            "t_psym_abs": chk.t_psym_abs,
            "momentum_drift": chk.momentum_drift,
            "passed": bool(chk.b1_abs < 1e-12 and chk.b2_abs < 1e-12
                           and chk.t_psym_abs < 1e-12
                           and chk.momentum_drift < 1e-12)}


def cmd_verify_all(cfg: dict) -> dict:
    spec = potential_from_config(cfg)
    # every potential of the command line is homogeneous: q = 0 at kappa = 0
    free = spec.kappa == 0.0
    _check_blocks(cfg, ("orbit",) if free else ("orbit", "transport", "born"))
    if not free:
        _kernel_law(cfg, spec)
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

    if free:
        suites["free_case"] = _suite_free_case(cfg)
    else:
        tra = cmd_transport(cfg)
        ok = all(v < 1e-4 for v in tra["residuals"].values())
        suite = dict(tra["residuals"])
        if "decay_exponent_b1" in tra:
            # b_1 ~ x^{1/2 - alpha}; q_1 = q b_1 - (1/2) Laplacian b_1 decays
            # like the slower of q b_1 ~ x^{1/2 - 2 alpha} and
            # Laplacian b_1 ~ x^{-3/2 - alpha}
            suite["decay_rate_b1"] = 0.5 - spec.alpha
            suite["decay_rate_q1"] = max(0.5 - 2.0 * spec.alpha,
                                         -1.5 - spec.alpha)
            ok = ok and all(abs(tra[f"decay_exponent_{s}"]
                                - suite[f"decay_rate_{s}"]) < 0.1
                            for s in ("b1", "q1"))
        suites["transport"] = {**suite, "passed": bool(ok)}

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
