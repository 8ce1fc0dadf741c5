"""Command-line interface: configs, overrides, artifacts, exit codes."""

import json
from pathlib import Path

import pytest

from starkscatter import asymptotic_momentum, classical, free_flow
from starkscatter.classical import PhasePoint
from starkscatter.cli import (
    _DISPATCH,
    CONFIG_ENV_VAR,
    apply_override,
    load_config,
    main,
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

def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


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
], ids=" ".join)
def test_constant_overflow_exits_4(capsys, tmp_path, argv):
    # Gamma overflows in c2 (d = 400) and in c1 (alpha = 400)
    code = main(argv + [f"--output_dir={tmp_path}"])
    out, err = capsys.readouterr()
    assert code == 4 and err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["error"] == "domain"
    assert "overflows" in json.loads(line)["message"]


def test_memory_error_exits_3(capsys, tmp_path, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(_DISPATCH, "orbit", exhausted)
    code, summary = _run(capsys, "orbit", f"--output_dir={tmp_path}")
    assert code == 3
    assert summary["error"] == "budget"


@pytest.mark.parametrize("argv", [
    ["orbit", "--orbit.tol=abc"],
    ["orbit", "--orbit=5"],
    ["kernel", "--kernel.n=0"],
    ["eikonal", "--eikonal.x_range=[1]"],
    ["eikonal", "--eikonal.x_range=[-1,10]"],
    ["eikonal", "--eikonal.n_points=-3"],
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
    # error names the key and verify-all writes nothing
    outdir = tmp_path / "out"
    code = main(["verify-all", "--dimension=3", f"--output_dir={outdir}"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": "config",
        "message": "orbit.y must hold dimension - 1 = 2 numbers, got 1"}
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
    rows = (tmp_path / "orbit.csv").read_text().strip().split("\n")[1:]
    p0 = PhasePoint(10.0, [1.0], 1.0, [0.3])
    for row in rows:
        t, x, y1, eta, zeta1, _ = (float(v) for v in row.split(","))
        q = free_flow(p0, t)
        assert x == pytest.approx(q.x, abs=1e-9)
        assert y1 == pytest.approx(q.y[0], abs=1e-9)
        assert eta == pytest.approx(q.eta, abs=1e-9)
        assert zeta1 == pytest.approx(q.zeta[0], abs=1e-9)


def test_momenta_summary_fields(capsys, tmp_path):
    code, summary = _run(capsys, "momenta", f"--output_dir={tmp_path}",
                         "--momenta.n_doublings=3")
    assert code == 0
    assert len(summary["zeta_infinity"]) == 1
    assert summary["error_estimate"] >= 0.0
    assert (tmp_path / "momenta.csv").exists()


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
    code, summary = _run(capsys, "transport", f"--output_dir={tmp_path}",
                         "--transport.decay_fit=false")
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
