"""Command-line front end: config handling, experiments, CSV/JSON artifacts.

Subcommands: orbit, momenta, eikonal, transport, born, kernel, airy-compare,
verify-all.  A run is described by one JSON config (see configs/ at the
repository root); individual entries can be overridden on the command line
with dotted paths, e.g. --potential.kappa=0.5.  One key per input: the
energy lam, kappa r^-alpha's potential.kappa and .alpha, one orbit start.
Every subcommand writes its artifacts into output_dir and prints a one-line
JSON summary to stdout.  `main` runs it on a staging directory inside
output_dir and moves the artifacts into output_dir only when the run
returns its summary, so a run that fails, at whichever stage, leaves
output_dir as it was; one that cannot write there is a config error.

Exit codes: 0 success, 1 verification failed, 2 config error, 3
numerical-budget error, 4 domain error.  With a fixed config and seed all
artifacts are byte-identical.
`main` splits the argument list itself rather than through argparse, which
would load gettext and locale into every process.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import (checks, classical, kernel, oscillatory, parabolic, special,
               transport)
from .errors import BudgetError, ConfigError, ConvergenceError, DomainError
from .potentials import PotentialSpec, homogeneous

CONFIG_ENV_VAR = "STARKSCATTER_CONFIG"

# The config schema.  Every key a config may set, with its default; a key's
# type is its default's type (float keys also take JSON integers, list keys
# hold numbers).  A type in place of a default declares an optional key of
# that type whose default is None.
_DEFAULT_CONFIG = {
    "dimension": 2,
    "seed": 0,
    "output_dir": "out",
    "lam": 0.0,
    "potential": {"kappa": 1.0, "alpha": 1.0, "softening": 1e-3},
    "region": {"m": 1.0, "eps": 0.3},
    "orbit": {
        "x": 10.0, "y": [1.0], "eta": 1.0, "zeta": [0.3],
        "t_final": 100.0, "n_samples": 200, "tol": 1e-12,
    },
    "momenta": {"direction": 1, "t_start": 100.0, "n_doublings": 6,
                "tol": 1e-10},
    "eikonal": {"n_points": 10000, "x_range": [10.0, 1e6], "y_over_x": 0.1},
    "transport": {
        "x": 100.0, "y": [5.0], "eta": 15.0, "zeta": [0.3],
        "k_max": 2, "sign": 1, "tol": 1e-9, "t_max": 1e5, "h_eta": 0.2,
    },
    "born": {"zeta": list, "r_min": 1.0, "r_max": 1e4, "n_radii": 25},
    "kernel": {
        "n": 2048, "extent": 1e5, "window": [10.0, 60.0],
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
    """kappa r^-alpha: Coulomb at alpha = 1, the free case at kappa = 0."""
    pot = cfg["potential"]
    try:
        return homogeneous(pot["kappa"], pot["alpha"],
                           softening=pot["softening"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _block(cfg: dict, section: str, key: str) -> np.ndarray:
    """The y or zeta block section.key as an array of length dimension - 1."""
    values, n = cfg[section][key], cfg["dimension"] - 1
    if len(values) != n:
        raise ConfigError(f"{section}.{key} must hold dimension - 1 = {n} "
                          f"numbers, got {len(values)}")
    return np.asarray(values, dtype=float)


def _phase_point(cfg: dict, section: str) -> classical.PhasePoint:
    sec = cfg[section]
    return classical.PhasePoint(x=sec["x"], y=_block(cfg, section, "y"),
                                eta=sec["eta"],
                                zeta=_block(cfg, section, "zeta"))


# ---------------------------------------------------------------------------
# artifact emission

# Rows that write_csv formats and writes at once: formatting the whole file
# at once would hold every row's text in memory at the same time.
_CSV_BLOCK_ROWS = 1024

# '%.17g' writes a double v through its 17-digit significand N, the exact
# value of |v| rounded half to even, and the decade X of N: fixed notation
# for -4 <= X < 17, else d.dddde+XX, without trailing zeros or a bare point.
# write_csv finds N in numpy for the decades below (two-digit exponents) and
# leaves every value it cannot decide exactly to _format_one.
_DECADES = (-99, 99)
_SPLIT = 134217729.0            # 2^27 + 1, Veltkamp's splitter
# p + tail is |v| 10^j to within 1e-14 and exact where 10^j is a double;
# an inexact one this close to a half-integer may round either way
_TIE_MARGIN = 1e-7
_E16, _E17 = 10 ** 16, 10 ** 17
# A value's cell, one byte per row, 0 a hole: row 0 the sign, 1-5 the
# "0.000" of fixed notation below 1, 6-23 the digits and the point, 24-27
# "e+XX", 28 the separator.
_CELL = 29
_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]


def _pow10_table() -> tuple:
    """10^(16 - x) for the decades x of _DECADES and one more on each side,
    lowest x first: the correctly rounded doubles hi of 10^j and lo of
    10^j - hi (Python's int true division rounds correctly), and hi's
    Veltkamp halves."""
    hi, lo = [], []
    for x in range(_DECADES[0] - 1, _DECADES[1] + 2):
        j = 16 - x
        if j >= 0:
            h = float(10 ** j)
            lo.append(float(10 ** j - int(h)))
        else:
            d = 10 ** -j
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, hi_h, hi - hi_h, np.array(lo)


_POW10 = _pow10_table()


def _scaled(a: np.ndarray, x: np.ndarray):
    """N = rint(a 10^(16 - x)) as int64, the remainder f of that rounding
    and the slack f may be off by (0 where 10^(16 - x) is a double).

    p + tail is Dekker's product of the split a and 10^(16 - x), which
    needs no FMA; above 2^53 every double is an integer, so N is
    p + rint(tail)."""
    hi, hi_h, hi_l, lo = (t.take(x - (_DECADES[0] - 1)) for t in _POW10)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * hi
    tail = ((((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l)
            + a * lo)
    r = np.rint(tail)
    return (p.astype(np.int64) + r.astype(np.int64), tail - r,
            np.where(lo == 0.0, 0.0, _TIE_MARGIN))


def _significands(v: np.ndarray):
    """'%.17g''s significands N (int64) and decades X for the values v, and
    the mask of the values they are exact for; zeros get N = 0 at X = 0.

    X starts as floor(log10 |v|).  Next to a power of ten that may miss the
    decade by one, and N leaves [1e16, 1e17]: those values are scaled once
    more from the next decade.  N = 1e17 is the carry to 1e16 at X + 1.
    The mask leaves out non-finite values, decades outside _DECADES,
    near-ties and N still outside [1e16, 1e17].
    """
    a = np.abs(v)
    finite = np.isfinite(a) & (a != 0.0)
    x = np.floor(np.log10(np.where(finite, a, 1.0)))
    ok = finite & (x >= _DECADES[0]) & (x <= _DECADES[1])
    a = np.where(ok, a, 1.0)
    x = np.where(ok, x, 0.0).astype(np.int64)
    n, f, slack = _scaled(a, x)
    step = (n > _E17).astype(np.int64) - ((n < _E16)
                                          | (n == _E16) & (f < slack))
    redo = np.flatnonzero(step)
    if redo.size:
        x[redo] += step[redo]
        n[redo], f[redo], slack[redo] = _scaled(a[redo], x[redo])
    carry = n == _E17
    x += carry
    ok &= ((np.abs(f) + slack <= 0.5) & (n <= _E17) & (x >= _DECADES[0])
           & (x <= _DECADES[1]) & ((n > _E16) | (n == _E16) & (f >= slack)))
    return (np.where(ok, np.where(carry, _E16, n), 0), np.where(ok, x, 0),
            ok | (v == 0.0))


def _format_one(v: float) -> str:
    return "%.17g" % v


def _csv_block(block: np.ndarray) -> bytes:
    """A 2-d float block as CSV lines, each value as '%.17g' writes it."""
    rows, cols = block.shape
    v = block.ravel()
    n, x, ok = _significands(v)
    m = v.size
    # N's digits, most significant first, from its uint32 halves; tz counts
    # the trailing zeros after the first digit
    digits = np.empty((18, m), np.uint8)
    digits[17] = 0
    high = n // 10 ** 9
    part = (n - high * 10 ** 9).astype(np.uint32)      # digits 8 to 16
    tz = np.zeros(m, np.uint8)
    zeros = np.ones(m, bool)
    for k in range(16, -1, -1):
        if k == 7:
            part = high.astype(np.uint32)              # digits 0 to 7
        q = part // 10
        d = part - q * 10
        digits[k] = d
        part = q
        if k:
            zeros &= d == 0
            tz += zeros
    x = x.astype(np.int8)                   # |X| <= 99
    expo = (x < -4) | (x > 16)
    int_part = ~expo & (x >= 0)
    below_one = ~expo & (x < 0)
    # the last digit written and the digit the point follows (17: none)
    last = np.maximum(16 - tz, int_part * x).astype(np.uint8)
    point = (int_part * x + below_one * np.int8(17)).astype(np.uint8)
    digits += 48
    digits *= _ROWS <= last
    cell = np.empty((_CELL, m), np.uint8)
    body = cell[6:24]
    np.multiply(digits, _ROWS <= point, out=body)
    body[1:] += digits[:-1] * (_ROWS[1:] > point + 1)
    body += (_ROWS == point + 1) * ((last > point) * np.uint8(ord(".")))
    np.multiply(_LEAD, _ROWS[:5] < below_one * (1 - x), out=cell[1:6])
    cell[0] = np.signbit(v) * np.uint8(ord("-"))
    ax = np.abs(x).astype(np.uint8)
    tens = ax // 10
    cell[24] = expo * np.uint8(ord("e"))
    cell[25] = expo * (np.uint8(ord("-")) - (x >= 0) * np.uint8(2))  # or +
    cell[26] = expo * (tens + 48)
    cell[27] = expo * (ax - tens * 10 + 48)
    sep = cell[28].reshape(rows, cols)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    for i in np.flatnonzero(~ok):
        text = np.frombuffer(_format_one(float(v[i])).encode(), np.uint8)
        cell[:-1, i] = 0
        cell[:text.size, i] = text
    chars = cell.T.ravel()
    return np.compress(chars != 0, chars).tobytes()


def write_csv(path: Path, header: list[str], rows) -> None:
    """rows as a 2-d float array; every value's bytes are those of
    '%.17g' % value (1.0 is written 1).

    The digits come from an exact double-double significand
    (_significands), laid out in numpy one block of rows at a time; '%'
    formats only the values that method cannot decide (_format_one):
    near-ties, non-finite values and values outside _DECADES.
    """
    rows = np.asarray(rows, dtype=float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            fh.write(_csv_block(rows[start:start + _CSV_BLOCK_ROWS]))


def _emit(cfg: dict, name: str, summary: dict) -> dict:
    """Write the summary as strict JSON: a non-finite value is a
    DomainError."""
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{name} summary: {exc}") from exc
    with open(_outdir(cfg) / f"{name}_summary.json", "w", newline="\n") as fh:
        fh.write(text + "\n")
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
    p0 = _phase_point(cfg, "orbit")
    traj = classical.dyadic_orbit(spec, p0, sec["direction"], sec["t_start"],
                                  sec["n_doublings"], sec["tol"])
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
    chk = checks.eikonal(checks.SplitMix64(cfg["seed"]), sec["n_points"],
                         d, sec["x_range"], sec["y_over_x"])
    x, y = chk.x, chk.y
    jac = parabolic.jacobian_det(x, y)
    lap = parabolic.theta_laplacian(x, y)
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
    if spec.kappa != 0.0:
        (summary["decay_exponent_b1"],
         summary["decay_exponent_q1"]) = transport.decay_fit_symbols(
            spec, sign=sign, tol=tol, m=m, eps=eps, d=d)
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
    values, _ = kernel.born_symbols(spec, zeta, ys, cfg["lam"])
    header, columns = ["r", "t_re", "t_im"], [radii, values.real, values.imag]
    summary = {"command": "born", "n_radii": len(radii),
               "max_abs_symbol": float(np.max(np.abs(values)))}
    if spec.kappa != 0.0:
        asym = kernel.born_symbol_tail(spec, radii, cfg["lam"])
        ratio = values.imag / asym
        header += ["asymptote_im", "ratio"]
        columns += [asym, ratio]
        summary["asymptote_ratio_at_r_max"] = float(ratio[-1])
    write_csv(_outdir(cfg) / "born.csv", header, np.column_stack(columns))
    return _emit(cfg, "born", summary)


def cmd_kernel(cfg: dict) -> dict:
    d = cfg["dimension"]
    spec = potential_from_config(cfg)
    if spec.kappa == 0.0:
        raise ConfigError("kernel fit needs potential.kappa != 0")
    if not 0.5 < spec.alpha < d - 0.5:
        raise DomainError(f"kernel law needs potential.alpha in (1/2, "
                          f"dimension - 1/2) = (0.5, {d - 0.5}), "
                          f"got {spec.alpha}")
    law = kernel.kernel_singularity_law(d, spec.alpha, spec.kappa)
    sec = cfg["kernel"]
    extent = sec["extent"]
    k, T = kernel.radial_kernel(spec, d, sec["n"], extent, lam=cfg["lam"],
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
    chk = checks.parabolic_identities(checks.SplitMix64(cfg["seed"] + 1),
                                      2000, cfg["dimension"])
    return {"max_identity_residual": chk.max_identity_residual,
            "max_jacobian_mismatch": chk.max_jacobian_mismatch,
            "passed": bool(chk.max_identity_residual < 1e-10
                           and chk.max_jacobian_mismatch < 1e-5)}


def _suite_constants(cfg: dict) -> dict:
    worst = checks.c1_quadrature((0.8, 1.0, 1.5, 2.0, 3.0))
    c2_31 = special.c2_constant(3, 1.0)
    err_c2 = abs(c2_31 - (-1j / math.sqrt(2.0 * math.pi)))
    worst_routes = checks.c2_routes(checks.SplitMix64(cfg["seed"] + 2), 20)
    return {"max_c1_quadrature_mismatch": worst,
            "c2_coulomb_d3_error": err_c2,
            "max_c2_route_mismatch": worst_routes,
            "passed": bool(worst < 1e-8 and err_c2 < 1e-12
                           and worst_routes < 1e-12)}


def _suite_region(cfg: dict) -> dict:
    chk = checks.cone_invariance(checks.SplitMix64(cfg["seed"] + 3),
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

    if spec.kappa == 0.0:  # q = 0
        suites["free_case"] = _suite_free_case(cfg)
    else:
        tra = cmd_transport(cfg)
        # b_1 ~ x^{1/2 - alpha}; q_1 = q b_1 - (1/2) Laplacian b_1 decays
        # like the slower of q b_1 ~ x^{1/2 - 2 alpha} and
        # Laplacian b_1 ~ x^{-3/2 - alpha}
        suite = {**tra["residuals"], "decay_rate_b1": 0.5 - spec.alpha,
                 "decay_rate_q1": max(0.5 - 2.0 * spec.alpha,
                                      -1.5 - spec.alpha)}
        ok = all(v < 1e-4 for v in tra["residuals"].values()) and all(
            abs(tra[f"decay_exponent_{s}"] - suite[f"decay_rate_{s}"]) < 0.1
            for s in ("b1", "q1"))
        suites["transport"] = {**suite, "passed": bool(ok)}

        ratio = cmd_born(cfg)["asymptote_ratio_at_r_max"]
        suites["born"] = {"asymptote_ratio_at_r_max": ratio,
                          "passed": bool(abs(ratio - 1.0) < 0.05)}

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


_USAGE = ("usage: starkscatter {%s} [--config PATH] [--key.path=value ...]"
          % ",".join(_DISPATCH))


def _staged(command, cfg: dict) -> dict:
    """command(cfg) with its artifacts written to output_dir/.partial-<pid>
    and moved into output_dir only once it returns a summary.  A run that
    raises leaves output_dir as it found it (or created and empty); one
    that cannot write there, or finds a directory of an artifact's name in
    the way, is a ConfigError naming output_dir."""
    out = Path(cfg["output_dir"])
    stage = out / f".partial-{os.getpid()}"
    cfg["output_dir"] = str(stage)
    try:
        summary = command(cfg)
        names = [path.name for path in stage.iterdir()]
        for name in names:
            if (out / name).is_dir():
                raise ConfigError(f"output_dir {out} holds a directory "
                                  f"named {name}")
        for name in names:
            os.replace(stage / name, out / name)
        return summary
    except OSError as exc:
        raise ConfigError(f"cannot write to output_dir {out}: "
                          f"{exc.strerror or exc}") from exc
    finally:
        if stage.exists():
            for path in stage.iterdir():
                path.unlink()
            stage.rmdir()


def main(argv: list[str] | None = None) -> int:
    """Run `SUBCOMMAND [--config PATH] [--key.path=value ...]`; the exit code.

    The subcommand is the first token that does not start with "-";
    `--config PATH` and `--config=PATH` name the config (the last one
    counts), `-h` or `--help` anywhere prints the usage line, and every other
    token is an override.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    subcommand, config, rest = None, None, []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--config":
            config = next(tokens, None)
            if config is None:
                print(f"{_USAGE}\nstarkscatter: error: --config needs a PATH",
                      file=sys.stderr)
                return 2
        elif tok.startswith("--config="):
            config = tok.partition("=")[2]
        elif subcommand is None and not tok.startswith("-"):
            subcommand = tok
        else:
            rest.append(tok)
    if subcommand not in _DISPATCH:
        print(_USAGE, file=sys.stderr)
        return 2
    try:
        cfg = load_config(config, rest)
        summary = _staged(_DISPATCH[subcommand], cfg)
        print(json.dumps(summary, sort_keys=True, allow_nan=False))
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
