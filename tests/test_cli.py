"""Command-line interface: configs, overrides, artifacts, exit codes."""

import json

import pytest

from starkscatter import free_flow
from starkscatter.classical import PhasePoint
from starkscatter.cli import (
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
