"""Command-line interface: configs, overrides, artifacts, exit codes."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkscatter import asymptotic_momentum, classical, cli, free_flow
from starkscatter.classical import PhasePoint
from starkscatter.cli import (
    _DISPATCH,
    CONFIG_ENV_VAR,
    apply_override,
    load_config,
    main,
    write_csv,
)


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1]) if out else {}
    return code, summary


# ---------------------------------------------------------------------------
# config handling

def test_default_config_loads_without_file():
    cfg = load_config(None)
    assert cfg["dimension"] == 2
    assert cfg["potential"]["kind"] == "coulomb"


def test_config_file_merges_recursively(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"kappa": 0.25}, "seed": 7}))
    cfg = load_config(str(path))
    assert cfg["potential"]["kappa"] == 0.25
    assert cfg["potential"]["kind"] == "coulomb"  # untouched default
    assert cfg["seed"] == 7


def test_config_env_var(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    assert load_config(None)["seed"] == 11


def test_override_parses_json_values():
    cfg = {"a": {"b": 1}}
    apply_override(cfg, "a.b", "2.5")
    assert cfg["a"]["b"] == 2.5
    apply_override(cfg, "a.c", "[1,2]")
    assert cfg["a"]["c"] == [1, 2]
    apply_override(cfg, "a.d", "hello")
    assert cfg["a"]["d"] == "hello"


# ---------------------------------------------------------------------------
# exit codes

USAGE = ("usage: starkscatter {orbit,momenta,eikonal,transport,born,kernel,"
         "airy-compare,verify-all} [--config PATH] [--key.path=value ...]\n")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err == USAGE


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["orbit", "-h"],
                                  ["--orbit.x=5", "--help", "frobnicate"]])
def test_help_prints_the_usage_line_and_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE, "")


def test_config_without_a_path_exits_2(capsys):
    assert main(["eikonal", "--config"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(USAGE)


def test_config_spellings_and_places_give_the_same_run(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eikonal": {"n_points": 50}}))
    runs = []
    for argv in (["eikonal", "--config", str(path)],
                 ["eikonal", f"--config={path}"],
                 ["--config", str(path), "eikonal"]):
        outdir = tmp_path / str(len(runs))
        code, summary = _run(capsys, *argv, f"--output_dir={outdir}")
        runs.append((code, summary, (outdir / "eikonal.csv").read_bytes()))
    assert runs[0][0] == 0 and runs[0][1]["n_points"] == 50
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_stray_option_is_a_config_error(capsys, tmp_path):
    code, summary = _run(capsys, "eikonal", "-x", f"--output_dir={tmp_path}")
    assert code == 2
    assert summary == {"error": "config",
                       "message": "unrecognized argument: -x"}


def test_missing_config_file_exits_2(capsys):
    code, summary = _run(capsys, "eikonal", "--config", "/nonexistent.json")
    assert code == 2
    assert summary["error"] == "config"


def test_bad_potential_kind_exits_2(capsys, tmp_path):
    code, summary = _run(capsys, "orbit", "--potential.kind=magnetic",
                         f"--output_dir={tmp_path}")
    assert code == 2
    assert summary["error"] == "config"


def test_domain_error_exits_4(capsys, tmp_path):
    # transport point outside the invariant cone
    code, summary = _run(capsys, "transport", "--transport.eta=-50",
                         f"--output_dir={tmp_path}")
    assert code == 4
    assert summary["error"] == "domain"


@pytest.mark.parametrize("k_max", [0, 3])
def test_unsupported_transport_order_exits_2(capsys, tmp_path, k_max):
    code, summary = _run(capsys, "transport", f"--transport.k_max={k_max}",
                         f"--output_dir={tmp_path}")
    assert code == 2
    assert summary["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["kernel", "--dimension=400"],
    ["born", "--potential.kind=homogeneous", "--potential.alpha=400"],
    ["born", "--potential.kind=homogeneous", "--potential.alpha=2",
     "--born.r_min=1e-300"],
    ["momenta", "--momenta.n_doublings=2000"],
    ["momenta", "--momenta.n_doublings=250"],
], ids=" ".join)
def test_constant_overflow_exits_4(capsys, tmp_path, argv):
    # Gamma overflows in c2 (d = 400) and in c1 (alpha = 400), the Born
    # asymptote's r^{1/2 - alpha} at r = 1e-300 (alpha = 2), and the square
    # of the free parabola's x ~ t^2 / 2 at the last time of the momenta
    # grid, 100 * 2^250 = 1.8e77 (or 100 * 2^2000, itself out of range)
    code = main(argv + [f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "domain"
    message = json.loads(line)["message"]
    assert "overflows" in message
    # the momenta message names the key to lower
    assert argv[0] != "momenta" or "n_doublings" in message


@pytest.mark.parametrize("argv, quantity", [
    (["kernel", "--kernel.profile_radius=1e100"], "Born profile"),
    (["kernel", "--kernel.lam=1e300"], "Born profile"),
    (["kernel", "--kernel.extent=1e160"], "|y|^2"),
    (["born", "--born.r_max=1e160"], "|y|^2"),
], ids=["kernel R=1e100", "kernel lam=1e300", "kernel extent=1e160",
        "born r_max=1e160"])
def test_kernel_and_born_overflow_exits_4(capsys, tmp_path, argv, quantity):
    # a cutoff term 2 kappa sqrt(2 (R + lam)) r^{-alpha} that outweighs the
    # asymptote at the last radius turns the Born profile's sign, and
    # |y| = 1e160 squares out of range: each exits 4 without an artifact
    code = main(argv + [f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "domain"
    assert quantity in json.loads(line)["message"]
    assert not any(tmp_path.iterdir())


def test_kernel_fit_outside_its_bracket_exits_3(capsys, tmp_path):
    # at R = 1000 the cutoff term dominates the fit window of the default
    # run, d = 2 Coulomb, and the fitted exponent leaves (l - 1/2, l + 1/2)
    code = main(["kernel", "--kernel.profile_radius=1e3",
                 f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "convergence"
    assert "(-1, 0)" in json.loads(line)["message"]
    assert not any(tmp_path.iterdir())


def test_momenta_converges_below_the_doubling_limit(capsys, tmp_path):
    # 100 * 2^248 = 4.5e76: x^2 ~ 1e306 stays finite
    code, summary = _run(capsys, "momenta", "--momenta.n_doublings=248",
                         f"--output_dir={tmp_path}")
    assert code == 0
    assert all(math.isfinite(z) for z in summary["zeta_infinity"])


@pytest.mark.parametrize("argv", [
    ["orbit", "--potential.softening=1e-200"],
    ["momenta", "--potential.softening=1e-200"],
    ["orbit", "--potential.kind=homogeneous", "--potential.alpha=300",
     "--potential.softening=0.01"],
], ids=" ".join)
def test_unrepresentable_potential_exits_4(capsys, tmp_path, argv):
    # the orbit starts at the origin, where the radial power underflows
    # (ZeroDivisionError) or overflows (OverflowError) in Python floats
    section = argv[0]
    code = main(argv + [f"--{section}.x=0", f"--{section}.y=[0]",
                        f"--{section}.eta=0", f"--{section}.zeta=[0]",
                        f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "domain"
    assert "not representable" in json.loads(line)["message"]


def test_memory_error_exits_3(capsys, tmp_path, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(_DISPATCH, "orbit", exhausted)
    code, summary = _run(capsys, "orbit", f"--output_dir={tmp_path}")
    assert code == 3
    assert summary["error"] == "budget"


def test_orbit_step_budget_exits_3(capsys, tmp_path, monkeypatch):
    # the default orbit lays out 15 panels
    monkeypatch.setattr(classical, "MAX_ORBIT_STEPS", 10)
    code = main(["orbit", f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 3 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line) == {
        "error": "convergence",
        "message": "orbit integration failed: more than 10 panels needed"}


@pytest.mark.parametrize("argv", [
    ["orbit", "--orbit.tol=abc"],
    ["orbit", "--orbit=5"],
    ["kernel", "--kernel.n=0"],
    ["eikonal", "--eikonal.x_range=[1]"],
    ["eikonal", "--eikonal.x_range=[-1,10]"],
    ["eikonal", "--eikonal.n_points=-3"],
    ["eikonal", "--eikonal.y_over_x=-0.1"],
    ["orbit", "--orbit.t_final=-1"],
    ["orbit", "--orbit.n_samples=0"],
    ["orbit", "--orbit.n_samples=2.5"],
    ["kernel", "--kernel.nn=3"],
    ["airy-compare", "--workers=2"],
    ["eikonal", "--dimension=abc"],
    ["eikonal", "--seed=1.5"],
    ["orbit", "--potential.softening=abc"],
    ["orbit", "--potential.kind=homogeneous", "--potential.alpha=x"],
    ["born", "--born.n_radii=0"],
    ["born", "--born.r_min=0"],
    ["airy-compare", "--airy.n_args=-1"],
    ["momenta", "--momenta.n_doublings=0"],
    ["transport", "--transport.sign=0"],
    ["kernel", "--kernel.n_radial=1"],
    ["orbit", "--orbit.y=5"],
    ["orbit", "--orbit.x=NaN"],
    ["transport", "--transport.decay_fit=1"],
    ["transport", "--transport.decay_fit=false"],
    pytest.param(["orbit", "--orbit.x=1" + "0" * 400], id="float overflow"),
    pytest.param(["orbit", "--orbit.x=1" + "0" * 5000], id="integer too long"),
], ids=" ".join)
def test_malformed_config_exits_2(capsys, tmp_path, argv):
    code = main(argv + [f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "config"


@pytest.mark.parametrize("command, overrides, message", [
    ("born", ["--potential.alpha=1.5"],
     'potential.alpha applies only to kind "homogeneous", not "coulomb"'),
    ("orbit", ["--potential.kind=zero", "--potential.alpha=2"],
     'potential.alpha applies only to kind "homogeneous", not "zero"'),
    ("born", ["--potential.kind=homogeneous", "--potential.alpha=1.5",
              "--potential.delta=0.3"],
     "unknown config key potential.delta"),
], ids=["alpha-coulomb", "alpha-zero", "delta"])
def test_potential_key_the_kind_does_not_read_exits_2(capsys, tmp_path,
                                                      command, overrides,
                                                      message):
    # an exponent that coulomb and zero fix, or the removed decay
    # parameter, is a config error, not an override that changes nothing
    outdir = tmp_path / "out"
    code = main([command, "--config", str(CONFIGS / "coulomb_d2.json"),
                 *overrides, f"--output_dir={outdir}"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "config", "message": message}
    assert not outdir.exists()


def test_unknown_key_in_config_file_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dimension": 2, "worker": 1}))
    code = main(["eikonal", "--config", str(path), f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "config",
                               "message": "unknown config key worker"}


def test_config_values_are_typed_with_defaults_filled_in():
    cfg = load_config(None, ["--orbit.t_final=10", "--born.zeta=[1]"])
    assert type(cfg["orbit"]["t_final"]) is float
    assert cfg["born"]["zeta"] == [1.0]
    assert cfg["potential"]["alpha"] is None
    cfg["orbit"]["y"].append(2.0)  # the result is a copy of the defaults
    assert load_config(None)["orbit"]["y"] == [1.0]


def test_block_mismatch_exits_2_before_any_stage(capsys, tmp_path):
    # the default orbit block has one transverse entry; at dimension 3 the
    # error names the key and verify-all leaves no artifact
    outdir = tmp_path / "out"
    code = main(["verify-all", "--dimension=3", f"--output_dir={outdir}"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": "config",
        "message": "orbit.y must hold dimension - 1 = 2 numbers, got 1"}
    assert not outdir.exists() or not any(outdir.iterdir())


_ALPHA_OUT_OF_LAW = (
    ["--potential.kind=homogeneous", "--potential.alpha=2.1"], 4, "domain",
    "kernel law needs potential.alpha in (1/2, dimension - 1/2) = (0.5, "
    "1.5), got 2.1")


@pytest.mark.parametrize("command, overrides, code, error, message", [
    pytest.param("verify-all", *_ALPHA_OUT_OF_LAW,
                 id="alpha=2.1-verify-all"),
    pytest.param("kernel", *_ALPHA_OUT_OF_LAW, id="alpha=2.1-kernel"),
    pytest.param(
        "kernel", ["--potential.kappa=0"], 2, "config", "kernel fit needs a "
        "homogeneous or coulomb potential with kappa != 0",
        id="kappa=0-kernel"),
])
def test_kernel_domain_exits_before_any_stage(capsys, tmp_path, command,
                                              overrides, code, error,
                                              message):
    # a potential the kernel law cannot take stops verify-all with the
    # error that stops kernel, and no artifact reaches output_dir;
    # verify-all takes kappa = 0 as the free case
    # (test_free_case_is_read_from_kappa)
    outdir = tmp_path / "out"
    assert main([command, *overrides, f"--output_dir={outdir}"]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"error": error, "message": message}
    assert not outdir.exists() or not any(outdir.iterdir())


def test_malformed_override_exits_2(capsys, tmp_path):
    code, summary = _run(capsys, "eikonal", "--=3")
    assert code == 2


# ---------------------------------------------------------------------------
# artifacts

def test_eikonal_artifacts(capsys, tmp_path):
    code, summary = _run(capsys, "eikonal", f"--output_dir={tmp_path}",
                         "--eikonal.n_points=100")
    assert code == 0
    assert summary["max_abs_residual"] < 1e-10
    csv = (tmp_path / "eikonal.csv").read_text()
    header, *rows = csv.strip().split("\n")
    assert header == "x,y1,residual,jacobian,laplacian_theta"
    assert len(rows) == 100
    assert json.loads((tmp_path / "eikonal_summary.json").read_text()) == summary


def test_orbit_zero_potential_matches_free_flow(capsys, tmp_path):
    code, summary = _run(capsys, "orbit", f"--output_dir={tmp_path}",
                         "--potential.kind=zero",
                         "--orbit.t_final=10", "--orbit.n_samples=11")
    assert code == 0
    assert summary["energy_drift"] < 1e-12
    rows = np.loadtxt(tmp_path / "orbit.csv", delimiter=",", skiprows=1)
    t, x, y1, eta, zeta1, _ = rows.T
    p0 = PhasePoint(10.0, [1.0], 1.0, [0.3])
    fx, fy, feta, fzeta = free_flow(p0.x, p0.y, p0.eta, p0.zeta, t)
    for got, want in ((x, fx), (y1, fy[:, 0]), (eta, feta),
                      (zeta1, np.broadcast_to(fzeta, t.shape))):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def test_momenta_summary_fields(capsys, tmp_path):
    code, summary = _run(capsys, "momenta", f"--output_dir={tmp_path}",
                         "--momenta.n_doublings=3")
    assert code == 0
    assert len(summary["zeta_infinity"]) == 1
    assert summary["error_estimate"] >= 0.0
    assert (tmp_path / "momenta.csv").exists()


def test_incoming_momenta_exit_0(capsys, tmp_path):
    # a backward orbit escapes with eta falling to -inf
    code, summary = _run(capsys, "momenta", "--config",
                         str(CONFIGS / "coulomb_d3.json"),
                         "--momenta.direction=-1", f"--output_dir={tmp_path}")
    assert code == 0
    assert len(summary["zeta_infinity"]) == 2
    assert 0.0 < summary["error_estimate"] < 1e-10


@pytest.mark.parametrize("config", [None, "coulomb_d3.json"],
                         ids=["default", "coulomb_d3"])
def test_momenta_error_estimate_bounds_the_tight_answer(capsys, tmp_path,
                                                        config):
    # the estimate adds the integrator's own error for zeta to the
    # Richardson step, so it covers the move to the tol-1e-13 answer
    chosen = ["--config", str(CONFIGS / config)] if config else []

    def momenta(tol):
        code, summary = _run(capsys, "momenta", *chosen,
                             f"--output_dir={tmp_path}",
                             f"--momenta.tol={tol}")
        assert code == 0
        return np.array(summary["zeta_infinity"]), summary["error_estimate"]

    tight, _ = momenta(1e-13)
    for tol in (1e-6, 1e-8, 1e-10):
        zeta, estimate = momenta(tol)
        assert np.linalg.norm(zeta - tight) <= estimate


def test_momenta_integrates_once(capsys, tmp_path, monkeypatch):
    calls = []
    integrate = classical.integrate_orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(classical, "integrate_orbit", counted)
    code, summary = _run(capsys, "momenta", f"--output_dir={tmp_path}",
                         "--momenta.n_doublings=3")
    assert code == 0 and len(calls) == 1
    spec, p0 = calls[0][:2]
    z_inf, err = asymptotic_momentum(spec, p0, n_doublings=3, tol=1e-10)
    assert summary["zeta_infinity"] == z_inf.tolist()
    assert summary["error_estimate"] == err


def test_transport_csv_layout(capsys, tmp_path):
    code, summary = _run(capsys, "transport", f"--output_dir={tmp_path}")
    assert code == 0
    header = (tmp_path / "transport.csv").read_text().split("\n")[0]
    assert header == ("x,y1,eta,zeta1,k,b_re,b_im,q_re,q_im,"
                      "tail_estimate,pde_residual")
    assert summary["residuals"]["k=1"] < 1e-4
    assert summary["residuals"]["k=2"] < 1e-4


def test_born_asymptote_ratio(capsys, tmp_path):
    code, summary = _run(capsys, "born", f"--output_dir={tmp_path}",
                         "--born.n_radii=8", "--born.r_max=1e4")
    assert code == 0
    assert abs(summary["asymptote_ratio_at_r_max"] - 1.0) < 0.05


def test_kernel_zero_potential_rejected(capsys, tmp_path):
    code, summary = _run(capsys, "kernel", f"--output_dir={tmp_path}",
                         "--potential.kind=zero")
    assert code == 2


def test_airy_compare_artifacts(capsys, tmp_path):
    code, summary = _run(capsys, "airy-compare", f"--output_dir={tmp_path}")
    assert code == 0
    assert summary["max_abs_diff"] < 1e-10
    assert (tmp_path / "airy_compare.csv").exists()


def test_csv_determinism_with_fixed_seed(capsys, tmp_path):
    for sub in ("a", "b"):
        code, _ = _run(capsys, "eikonal", f"--output_dir={tmp_path / sub}",
                       "--eikonal.n_points=200", "--seed=3")
        assert code == 0
    a = (tmp_path / "a" / "eikonal.csv").read_bytes()
    b = (tmp_path / "b" / "eikonal.csv").read_bytes()
    assert a == b


def test_csv_values_roundtrip_at_full_precision(capsys, tmp_path):
    _run(capsys, "eikonal", f"--output_dir={tmp_path}",
         "--eikonal.n_points=5")
    rows = (tmp_path / "eikonal.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        x = float(row.split(",")[0])
        # %.17g formatting is lossless for doubles
        assert "%.17g" % x == row.split(",")[0]


@pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025])
def test_csv_blocks_write_each_value_as_it_formats_alone(tmp_path, n_rows):
    # the rows are formatted in blocks of 1024; the first and last row and
    # the rows on either side of a block boundary hold special values, and
    # 1.0 is written 1
    rows = np.random.default_rng(n_rows).normal(scale=1e3, size=(n_rows, 6))
    for i in {0, 1023, 1024, n_rows - 1} & set(range(n_rows)):
        rows[i] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0]
    write_csv(tmp_path / "rows.csv", ["a", "b", "c", "d", "e", "f"], rows)
    expected = "a,b,c,d,e,f\n" + "".join(
        ",".join(["%.17g" % v for v in row]) + "\n" for row in rows.tolist())
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


def _csv_matches_percent_format(path, rows):
    """write_csv's bytes for rows against the '%.17g' join of every value."""
    header = [f"c{i}" for i in range(rows.shape[1])]
    write_csv(path, header, rows)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(["%.17g" % v for v in row]) + "\n" for row in rows.tolist())
    return path.read_bytes() == expected.encode()


_FLOAT64 = st.one_of(
    st.floats(width=64),        # nan, infinities, zeros and subnormals too
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(np.float64))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda cols: st.lists(st.lists(_FLOAT64, min_size=cols, max_size=cols),
                          min_size=1, max_size=40)))
def test_csv_bytes_equal_the_percent_format(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    assert _csv_matches_percent_format(path, np.array(rows, dtype=float))


def _powers_of_ten(ks):
    """10^k for each k, and both its neighbouring doubles."""
    tens = np.array([float(Fraction(10) ** k) for k in ks])
    return np.concatenate([tens, np.nextafter(tens, 0.0),
                           np.nextafter(tens, np.inf)])


def test_csv_edge_values_equal_the_percent_format(tmp_path):
    # with their negatives: exact 17-digit ties, rounded to the even digit
    # 2 and up from the odd 7; doubles next to %g's switches between fixed
    # and exponent notation; three-digit exponents and the ends of the
    # float range (powers of ten and their neighbours are tested below)
    values = np.array([
        12345678901234.5625, 12345678901234.6875,
        9.99999999999999995e-5, 0.000099999999999999991, 9.99999999999999e-6,
        99999999999999984.0, 9999999999999998.0,
        1e-300, 1e300, 1e-100, 1e100, sys.float_info.max, sys.float_info.min,
        5e-324, 2.5e-320,
        0.0, math.nan, math.inf, 1.0, 1.5, 100.0, 0.5, 1.0 / 3.0, 2.0 / 3.0])
    values = np.concatenate([values, -values])
    assert _csv_matches_percent_format(tmp_path / "edges.csv",
                                       values.reshape(-1, 6))


@pytest.fixture
def format_calls(monkeypatch):
    """The values write_csv leaves to its per-value '%' format."""
    calls = []

    def counted(v):
        calls.append(v)
        return "%.17g" % v

    monkeypatch.setattr(cli, "_format_one", counted)
    return calls


@pytest.mark.parametrize("name", ["zero", "coulomb_d2", "coulomb_d3"])
def test_eikonal_csv_needs_no_per_value_format(capsys, tmp_path, format_calls,
                                               name):
    # every value of the shipped eikonal.csv files is written by the numpy
    # path; a drift back to formatting values one at a time fails here
    # however noisy the timings are
    code, _ = _run(capsys, "eikonal", "--config",
                   str(CONFIGS / f"{name}.json"), f"--output_dir={tmp_path}")
    assert code == 0
    assert format_calls == []
    # the counter sees the values the numpy path leaves out, and the exact
    # ties it decides itself do not reach it
    assert _csv_matches_percent_format(
        tmp_path / "special.csv",
        np.array([[math.nan, 1e-300, 12345678901234.5625, 0.5]]))
    assert (len(format_calls) == 2 and math.isnan(format_calls[0])
            and format_calls[1] == 1e-300)


def test_powers_of_ten_need_no_per_value_format(tmp_path, format_calls):
    # 10^k and both neighbours, %g's switches at 1e-5 and 1e17 among them:
    # next to 10^k, log10 may miss the decade by one, and the numpy path
    # scales those values again from the next decade instead of handing
    # them on, carries such as 1e-14 (a double that rounds up to 10^-14 in
    # 17 digits) included
    values = _powers_of_ten(range(-98, 99))
    values = np.concatenate([values, -values])
    assert _csv_matches_percent_format(tmp_path / "tens.csv",
                                       values.reshape(-1, 3))
    assert format_calls == []


def _near_ties() -> list:
    """Doubles v in [1e-8, 1e-7) with v 10^24 within 6e-15 of a
    half-integer: v = M 2^-79 makes v 10^24 = M 5^24 / 2^55, whose fraction
    is 1/2 + t 2^-55 for M = (2^54 + t) / 5^24 modulo 2^55."""
    inverse = pow(5 ** 24, -1, 2 ** 55)
    ms = ((2 ** 54 + t) * inverse % 2 ** 55 for t in range(-200, 201))
    return [math.ldexp(m, -79) for m in ms
            if 2 ** 52 <= m < 2 ** 53 and math.ldexp(m, -79) >= 1e-8]


def test_near_ties_go_to_the_per_value_format(tmp_path, format_calls):
    # 10^24 is no double, so the double-double product is off by up to
    # about 4e-15 and cannot tell which way these round
    ties = _near_ties()
    assert len(ties) >= 10
    assert _csv_matches_percent_format(tmp_path / "ties.csv",
                                       np.array(ties)[:, None])
    assert format_calls == ties


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_D3 = ["--config", str(CONFIGS / "coulomb_d3.json")]


@pytest.mark.parametrize("argv, code", [
    (["born", *_D3, "--born.zeta=[1e200,0]"], 4),
    (["orbit", "--potential.softening=1e300"], 2),
    (["transport", "--potential.softening=1e300"], 2),
    (["kernel", *_D3, "--potential.kappa=1e-300"], 0),
    (["kernel", *_D3, "--potential.kappa=1e300"], 4),
    (["kernel", *_D3, "--potential.kappa=-1e300"], 4),
    (["kernel", "--potential.kappa=1e300"], 4),
    (["kernel", "--kernel.extent=1e300"], 4),
    (["verify-all", *_D3, "--born.r_max=1e160"], 4),
    (["verify-all", *_D3, "--kernel.profile_radius=1e100"], 4),
    (["verify-all", *_D3, "--kernel.window=[1e20,1e21]"], 2),
    (["verify-all", *_D3, "--kernel.n=16"], 2),
    (["verify-all", *_D3, "--kernel.profile_radius=1e-17"], 4),
    (["verify-all", *_D3, "--potential.kappa=1e-300"], 4),
    (["verify-all", *_D3, "--orbit.t_final=1e300"], 4),
    (["verify-all", *_D3, "--transport.x=1e300"], 4),
    (["transport", "--region.m=1e-300"], 4),
], ids=["born zeta=1e200", "orbit softening=1e300",
        "transport softening=1e300", "kernel kappa=1e-300",
        "kernel kappa=1e300", "kernel kappa=-1e300",
        "kernel d=2 kappa=1e300", "kernel extent=1e300",
        "verify-all r_max=1e160", "verify-all R=1e100",
        "verify-all window=[1e20,1e21]", "verify-all n=16",
        "verify-all R=1e-17", "verify-all kappa=1e-300",
        "verify-all t_final=1e300", "verify-all transport x=1e300",
        "transport m=1e-300"])
def test_extreme_input_keeps_the_exit_contract(capsys, tmp_path, argv, code):
    # the exit-code contract: the documented code, one line of strict JSON
    # on stdout, nothing on stderr (warnings are errors here) and no
    # artifact on a config or domain error
    outdir = tmp_path / "out"
    assert main(argv + [f"--output_dir={outdir}"]) == code
    out, err = capsys.readouterr()
    assert err == ""
    (line,) = out.splitlines()
    summary = json.loads(line, parse_constant=_reject_constant)
    if code in (2, 4):
        assert not outdir.exists() or not any(outdir.iterdir())
    if code == 0:
        # the fit is relative to |T|, so kappa = 1e-300 fits the exponent
        # of kappa = 1
        assert main(["kernel", *_D3, f"--output_dir={tmp_path / 'one'}"]) == 0
        unit = json.loads(capsys.readouterr().out)
        assert summary["fitted_exponent"] == pytest.approx(
            unit["fitted_exponent"], abs=1e-9)


@pytest.mark.parametrize("override, code", [
    ("--kernel.tol=1e-17", 3),
    ("--kernel.n=16", 2),
    ("--transport.x=1e300", 4),
], ids=["kernel tol=1e-17", "kernel n=16", "transport x=1e300"])
def test_failed_verify_all_leaves_output_dir_as_it_was(capsys, tmp_path,
                                                       override, code):
    # the stages before the failing one write into a staging directory
    # inside output_dir, which the run removes: a file already there keeps
    # its bytes, also one of a name the run writes
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "eikonal.csv").write_bytes(b"earlier run\n")
    (outdir / "notes.txt").write_bytes(b"kept\n")
    assert main(["verify-all", *_D3, override,
                 f"--output_dir={outdir}"]) == code
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert sorted(p.name for p in outdir.iterdir()) == ["eikonal.csv",
                                                       "notes.txt"]
    assert (outdir / "eikonal.csv").read_bytes() == b"earlier run\n"
    assert (outdir / "notes.txt").read_bytes() == b"kept\n"


def test_finished_run_moves_its_artifacts_into_output_dir(capsys, tmp_path):
    # on exit 0 every artifact replaces the file of its name, the others
    # stay, and the staging directory is gone
    (tmp_path / "eikonal.csv").write_bytes(b"earlier run\n")
    (tmp_path / "notes.txt").write_bytes(b"kept\n")
    code, summary = _run(capsys, "eikonal", "--eikonal.n_points=10",
                         f"--output_dir={tmp_path}")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eikonal.csv", "eikonal_summary.json", "notes.txt"]
    assert (tmp_path / "eikonal.csv").read_bytes().startswith(b"x,y1,")
    assert (tmp_path / "notes.txt").read_bytes() == b"kept\n"


_FUZZ_VALUES = ("1e300", "-1e300", "1e-300", "1e17", "1e-17", "-1")
_FUZZ_KEYS = (
    [("transport", f"--transport.{key}={{}}")
     for key in ("x", "eta", "tol", "t_max", "h_eta")]
    + [("transport", f"--transport.{key}=[{{}},0]") for key in ("y", "zeta")]
    + [("kernel", f"--kernel.{key}={{}}")
       for key in ("extent", "lam", "profile_radius", "tol")])


@pytest.mark.parametrize("command, override", [
    (command, key.format(value)) for command, key in _FUZZ_KEYS
    for value in _FUZZ_VALUES])
def test_single_key_fuzz_keeps_the_exit_contract(capsys, tmp_path, command,
                                                 override):
    # every float key of transport and kernel at the ends of the float
    # range, near the resolution of 1 and negative: a documented exit code,
    # one line of strict JSON, nothing on stderr (warnings are errors here)
    # and no artifact unless the run finished
    outdir = tmp_path / "out"
    code = main([command, *_D3, override, f"--output_dir={outdir}"])
    out, err = capsys.readouterr()
    assert code in range(5)
    assert err == ""
    (line,) = out.splitlines()
    json.loads(line, parse_constant=_reject_constant)
    if code >= 2:
        assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("name", ["zero", "coulomb_d2", "coulomb_d3"])
def test_shipped_config_verifies(capsys, tmp_path, name):
    code, summary = _run(capsys, "verify-all", "--config",
                         str(CONFIGS / f"{name}.json"),
                         f"--output_dir={tmp_path}")
    assert code == 0
    assert summary["passed"] is True
    if name != "zero":
        kernel = json.loads((tmp_path / "kernel_summary.json").read_text())
        assert {"fitted_prefactor_stderr", "subleading_coefficient",
                "subleading_coefficient_stderr",
                "half_sample_change"} <= kernel.keys()


@pytest.mark.parametrize("command", ["transport", "verify-all"])
@pytest.mark.parametrize("spelling", ["--potential.kind=zero",
                                      "--potential.kappa=0"],
                         ids=["kind=zero", "kappa=0"])
def test_free_case_is_read_from_kappa(capsys, tmp_path, command, spelling):
    # q = 0 is one potential whichever way the config spells it: transport
    # skips the decay fit, and verify-all runs the free-case suite
    code, summary = _run(capsys, command, "--config",
                         str(CONFIGS / "coulomb_d3.json"), spelling,
                         f"--output_dir={tmp_path}")
    assert code == 0
    if command == "transport":
        assert "decay_exponent_b1" not in summary
        assert summary["residuals"] == {"k=1": 0.0, "k=2": 0.0}
    else:
        assert summary["passed"] is True
        assert "free_case" in summary["suites"]
        assert "kernel" not in summary["suites"]


def test_incoming_branch_verifies(capsys, tmp_path):
    # the decay fit takes its ray on the incoming branch of the transport
    # point, eta = -sqrt(2x)
    code, summary = _run(capsys, "verify-all", "--config",
                         str(CONFIGS / "coulomb_d3.json"),
                         "--transport.sign=-1", "--transport.eta=-15",
                         f"--output_dir={tmp_path}")
    assert code == 0
    assert summary["passed"] is True
    tra = json.loads((tmp_path / "transport_summary.json").read_text())
    assert tra["decay_exponent_b1"] == pytest.approx(-0.5, abs=0.1)
    assert tra["decay_exponent_q1"] == pytest.approx(-1.5, abs=0.1)


@pytest.mark.parametrize("name, alpha", [("coulomb_d2", 0.75),
                                         ("coulomb_d2", 1.25),
                                         ("coulomb_d3", 0.75)])
def test_homogeneous_potential_verifies(capsys, tmp_path, name, alpha):
    # the transport gate expects b_1 ~ x^{1/2 - alpha} and
    # q_1 ~ x^{max(1/2 - 2 alpha, -3/2 - alpha)}, not the Coulomb rates
    code, summary = _run(capsys, "verify-all", "--config",
                         str(CONFIGS / f"{name}.json"),
                         "--potential.kind=homogeneous",
                         f"--potential.alpha={alpha}",
                         f"--output_dir={tmp_path}")
    assert code == 0
    assert summary["passed"] is True
