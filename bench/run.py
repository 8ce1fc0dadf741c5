"""starkscatter benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved against the repository root (the
parent of this directory).  Every workload operation runs in a fresh worker
process (bench/worker.py) with BLAS/OpenMP threads pinned to 1, one process
at a time, against the package source under src/.

--trace 0 repeats the workload in fresh processes for about S seconds (at
least three times), adds set-up-only processes until set-up was measured
seven times, and reports the end-to-end metrics as medians over the
processes, with the times scaled to the reference host speed (see
host_probe).  --trace 1 runs the workload once untraced and twice traced (the
second time with tracemalloc peaks) and reports the per-layer metrics.

Every process's outputs are checked: exit code and `passed` of verify-all,
the acceptance gates on kernel, transport and orbit values, and a hash of
the artifact set that must repeat across the processes of one run.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it holds the provenance.  Full results and traces
go to .bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"

# verify-all suites that every config runs; one suite is one operation
VERIFY_SUITES = ("eikonal", "parabolic", "constants", "region", "airy",
                 "orbit")

# Why each workload exists: bench/README.md.
WORKLOADS = {
    "verify_zero": {"kind": "verify", "config": "configs/zero.json",
                    "suites": VERIFY_SUITES + ("free_case",)},
    "verify_coulomb_d3": {"kind": "verify", "config": "configs/coulomb_d3.json",
                          "suites": VERIFY_SUITES + ("transport", "born",
                                                     "kernel"),
                          # diagonal kernel law for Coulomb (kappa = 1,
                          # alpha = 1) in d = 3: exponent 1/2 + alpha - d and
                          # |kappa c2| = (2 pi)^{-1/2}
                          "law": (-1.5, 1.0 / math.sqrt(2.0 * math.pi))},
    # 100 orbits take about 3 s, so a run has about eight processes
    "orbits": {"kind": "orbits", "n_orbits": 100},
}

# Host speed.  On a shared host the same work runs up to twice as slowly in
# phases that can last minutes, longer than one run.  Before each worker
# process the parent times a fixed probe of interpreter and numpy work; the
# run's time metrics are divided by median(probe) / PROBE_REF_S, so they read
# in seconds of the reference machine in a quiet phase.  The raw times and
# the factor go to the provenance line.
PROBE_REF_S = 0.2
PROBE_LOOP = 2_000_000
PROBE_FFTS = 40

MIN_PROCESSES = 3
MIN_SETUPS = 7
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Acceptance gates, as in verify-all and tests/test_acceptance.py.
GATE_KERNEL = 0.1          # kernel exponent (absolute) and prefactor (relative)
GATE_TRANSPORT_DECAY = 0.1  # b_1 and q_1 decay exponents
GATE_TRANSPORT_PDE = 1e-4   # transport residual per order
GATE_ORBIT_DRIFT = 1e-6     # relative energy drift of one orbit
GATE_GAMMA_SLOPE = -0.9     # mean Gamma decay slope over the batch
GATE_GAMMA_PAR_SLOPE = -1.8  # mean gamma_par decay slope over the batch

# Reported for an accuracy metric the workload does not exercise.
NOT_EXERCISED = 1.0
ACCURACY = ("kernel_prefactor_err", "kernel_exponent_err",
            "transport_decay_err", "radiation_slope_margin",
            "orbit_energy_drift")

# Floors below which two accuracy metrics read as the floor.  At this commit
# both sit at rounding level (transport decay ~1.6e-10, orbit drift ~1.7e-8),
# where any change to the numerics moves them many-fold while they stay far
# below their gates (0.1 and 1e-6).  A change is flagged once it reaches a
# tenth of the orbit gate or a hundredth of the transport gate.
ACCURACY_FLOOR = {"transport_decay_err": 1e-3, "orbit_energy_drift": 1e-7}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("ops_ok_share", "ratio"), ("kernel_prefactor_err", "ratio"),
              ("kernel_exponent_err", "1"), ("transport_decay_err", "1"),
              ("radiation_slope_margin", "1"),
              ("orbit_energy_drift", "ratio"))

STAGES = {"cli.cmd_eikonal": "eikonal", "cli._suite_parabolic": "parabolic",
          "cli._suite_constants": "constants", "cli._suite_region": "region",
          "cli.cmd_airy_compare": "airy", "cli.cmd_orbit": "orbit",
          "cli._suite_free_case": "free_case",
          "cli.cmd_transport": "transport", "cli.cmd_born": "born",
          "cli.cmd_kernel": "kernel"}
# Share of a traced verify run that its stage spans must cover.
STAGE_COVERAGE = 0.95

PER_LAYER = (
    [("cli.import_s", "s"), ("cli.import_scipy_s", "s")]
    + [(f"cli.stage.{s}_s", "s") for s in STAGES.values()]
    + [("cli.write_s", "s"), ("cli.bytes_written", "bytes"),
       ("parabolic.calls", "count"), ("parabolic.self_s", "s"),
       ("classical.region_calls", "count"),
       ("classical.free_flow_calls", "count"),
       ("classical.orbit_calls", "count"), ("classical.orbit_s", "s"),
       ("classical.observables_s", "s"), ("classical.momentum_s", "s"),
       ("classical.self_s", "s"),
       ("special.calls", "count"), ("special.self_s", "s"),
       ("oscillatory.calls", "count"), ("oscillatory.self_s", "s"),
       ("potentials.array_calls", "count"),
       ("potentials.array_points", "count"),
       ("potentials.scalar_calls", "count"),
       ("potentials.grad_calls", "count"), ("potentials.self_s", "s"),
       ("transport.b_s", "s"), ("transport.q_s", "s"),
       ("transport.residual_s", "s"), ("transport.decay_fit_s", "s"),
       ("transport.potential_points", "count"),
       ("transport.peak_alloc_mb", "MB"),
       ("kernel.born_calls", "count"), ("kernel.born_s", "s"),
       ("kernel.populate_s", "s"), ("kernel.taper_s", "s"),
       ("kernel.transform_calls", "count"), ("kernel.transform_s", "s"),
       ("kernel.fit_s", "s"), ("kernel.grid_mb", "MB"),
       ("kernel.peak_alloc_mb", "MB"),
       ("trace.overhead_s", "s")])


def host_probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    a = np.ones((256, 256))
    for _ in range(PROBE_FFTS):
        a += np.fft.fft2(a).real * 1e-9
    return time.perf_counter() - t0


def tree_hash(root: Path, pattern: str = "*") -> str:
    """Hash of the names and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """Launches worker processes of one benchmark run and checks outputs."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.started = time.monotonic()
        self.dir = TMP_ROOT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.count = 0
        host_probe()  # imports numpy and warms the FFT; not recorded
        self.probes = []

    def launch(self, trace: int = 0, importtime: bool = False,
               setup_only: bool = False) -> dict:
        """One worker process; returns its report plus the parent's view."""
        self.count += 1
        tag = f"p{self.count}"
        out_dir = self.dir / tag
        out_dir.mkdir()
        report_path = self.dir / f"{tag}.report.json"
        stderr_path = self.dir / f"{tag}.stderr"
        job = {"kind": self.workload["kind"], "seed": self.seed,
               "config": str(ROOT / self.workload.get("config", "")),
               "n_orbits": self.workload.get("n_orbits", 0),
               "out_dir": str(out_dir), "report": str(report_path),
               "setup_only": setup_only, "trace": trace}
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [str(WORKER), json.dumps(job)]
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        self.probes.append(host_probe())
        launched = time.monotonic()
        with open(stderr_path, "w") as err:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                      stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=timeout)
                exit_code = proc.returncode
            except subprocess.TimeoutExpired:
                exit_code = None
        wall = time.monotonic() - launched
        stderr = stderr_path.read_text(errors="replace")
        report = {}
        if exit_code == 0 and report_path.exists():
            report = json.loads(report_path.read_text())
        report.update(launched=launched, wall_s=wall, exit_code=exit_code,
                      stderr=stderr)
        if "ready" in report:
            report["setup_s"] = report["ready"] - launched
        report["setup_only"] = setup_only
        self.check(report, out_dir)
        shutil.rmtree(out_dir)
        return report

    def check(self, rep: dict, out_dir: Path) -> None:
        """Fill attempted, failed, problems, accuracy values and the hash."""
        kind = self.workload["kind"]
        rep["problems"] = problems = []
        rep["accuracy"] = {}
        if rep["setup_only"]:
            rep["attempted"] = rep["failed"] = 0
            if "setup_s" not in rep:
                problems.append(f"set-up exited with {rep['exit_code']}: "
                                + rep["stderr"][-2000:])
            return
        if "run_s" not in rep:
            problems.append(f"worker exited with {rep['exit_code']}: "
                            + rep["stderr"][-2000:])
        elif rep.get("error"):
            problems.append(f"exception: {rep['error']}")
        if kind == "orbits":
            self.check_orbits(rep, out_dir)
        else:
            suites = self.workload["suites"]
            rep["attempted"] = len(suites)
            failed = set(suites) if problems else self.check_verify(rep,
                                                                    out_dir)
            rep["failed"] = len(failed)
        rep["artifact_hash"] = (tree_hash(out_dir) + ":" + hashlib.sha256(
            rep.get("stdout", "").encode()).hexdigest())

    def check_verify(self, rep: dict, out_dir: Path) -> set[str]:
        """Check one verify-all run; returns the names of failed suites.

        A miss that no single suite owns (no summary, or a non-zero exit
        code or `passed: false` with every suite passed) fails every suite
        of the run.
        """
        problems = rep["problems"]
        every = set(self.workload["suites"])
        try:
            summary = json.loads(rep["stdout"].strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"verify-all (exit code {rep['rc']}) printed no "
                            "JSON summary")
            return every
        suites = summary.get("suites", {})
        failed = {k for k in every if suites.get(k, {}).get("passed") is not True}
        if failed:
            problems.append(f"suites missing or not passed: {sorted(failed)}")
        if rep["rc"] != 0 or summary.get("passed") is not True:
            problems.append(f"verify-all exit code {rep['rc']}, passed "
                            f"{summary.get('passed')!r}")
            failed = failed or every
        drift = suites.get("orbit", {}).get("energy_drift")
        if not (isinstance(drift, float) and drift < GATE_ORBIT_DRIFT):
            problems.append(f"orbit energy drift {drift!r} not below "
                            f"{GATE_ORBIT_DRIFT}")
            failed.add("orbit")
        if "law" not in self.workload:
            return failed
        law_exp, law_pref = self.workload["law"]
        acc = rep["accuracy"]
        try:
            ker = json.loads((out_dir / "kernel_summary.json").read_text())
            tra = json.loads((out_dir / "transport_summary.json").read_text())
            acc["kernel_prefactor_err"] = abs(
                ker["fitted_prefactor_modulus"] / law_pref - 1.0)
            acc["kernel_exponent_err"] = abs(ker["fitted_exponent"] - law_exp)
            acc["transport_decay_err"] = max(
                abs(tra["decay_exponent_b1"] + 0.5),
                abs(tra["decay_exponent_q1"] + 1.5))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable kernel/transport summary: {exc!r}")
            return failed | {"kernel", "transport"}
        gates = [("kernel", "kernel prefactor", acc["kernel_prefactor_err"],
                  GATE_KERNEL),
                 ("kernel", "kernel exponent", acc["kernel_exponent_err"],
                  GATE_KERNEL),
                 ("transport", "transport decay", acc["transport_decay_err"],
                  GATE_TRANSPORT_DECAY)]
        gates += [("transport", f"transport residual {k}", v,
                   GATE_TRANSPORT_PDE) for k, v in tra["residuals"].items()]
        for suite, label, value, bound in gates:
            if not value < bound:
                problems.append(f"{label} {value!r} not below {bound}")
                failed.add(suite)
        return failed

    def check_orbits(self, rep: dict, out_dir: Path) -> None:
        problems = rep["problems"]
        rep["attempted"] = self.workload["n_orbits"]
        rep["failed"] = rep["attempted"]
        if problems:
            return
        try:
            orbits = json.loads((out_dir / "orbits.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"no orbit results: {exc}")
            return
        good, bad = [], 0
        for o in orbits:
            values = ([o.get("energy_drift"), o.get("slope_Gamma"),
                       o.get("slope_gamma_par"), o.get("zeta_inf_err")]
                      + o.get("zeta_inf", []))
            if "error" in o or not all(isinstance(v, float) and math.isfinite(v)
                                       for v in values):
                bad += 1
            elif not o["energy_drift"] < GATE_ORBIT_DRIFT:
                bad += 1
            else:
                good.append(o)
        if len(orbits) != rep["attempted"]:
            problems.append(f"{len(orbits)} orbit results, expected "
                            f"{rep['attempted']}")
            return
        rep["failed"] = bad
        if bad:
            problems.append(f"{bad} orbits failed")
        if not good:
            return
        mean_gamma = statistics.fmean(o["slope_Gamma"] for o in good)
        mean_par = statistics.fmean(o["slope_gamma_par"] for o in good)
        acc = rep["accuracy"]
        acc["radiation_slope_margin"] = min(GATE_GAMMA_SLOPE - mean_gamma,
                                            GATE_GAMMA_PAR_SLOPE - mean_par)
        acc["orbit_energy_drift"] = max(o["energy_drift"] for o in good)
        if not acc["radiation_slope_margin"] >= 0.0:
            problems.append("batch misses the radiation decay gates: "
                            f"mean slopes {mean_gamma!r}, {mean_par!r}")
            rep["failed"] = rep["attempted"]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def consistency_problems(reports: list[dict]) -> list[str]:
    """Outputs of one workload and seed must repeat exactly.

    The most common artifact hash of the run is the reference; every
    operation of a process that differs from it counts as failed.
    """
    ran = [r for r in reports if not r["setup_only"]]
    hashes = [r["artifact_hash"] for r in ran]
    reference = max(hashes, key=hashes.count)
    problems = []
    for r in ran:
        if r["artifact_hash"] != reference:
            r["failed"] = r["attempted"]
            problems.append("artifact set differs from the run's other "
                            "processes")
    return problems


def raw_times(reports: list[dict]) -> dict:
    """Median set-up and run wall times of the run's processes."""
    return {"setup_s": statistics.median(r["setup_s"] for r in reports
                                         if "setup_s" in r),
            "run_s": statistics.median(r["run_s"] for r in reports
                                       if "run_s" in r)}


def end_to_end(reports: list[dict], host_factor: float) -> dict:
    measured = [r for r in reports if "run_s" in r]
    values = {name: raw / host_factor
              for name, raw in raw_times(reports).items()}
    values.update({
        "peak_rss_mb": statistics.median(
            r["peak_rss_kb"] * 1024 / 1e6 for r in measured),
    })
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values["ops_ok_share"] = (attempted - failed) / attempted
    for key in ACCURACY:
        found = [r["accuracy"][key] for r in reports if key in r["accuracy"]]
        values[key] = (max(found[0], ACCURACY_FLOOR.get(key, 0.0)) if found
                       else NOT_EXERCISED)
    return values


# ---------------------------------------------------------------------------
# per-layer metrics from the calling-context tree of a traced process

class Tree:
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes
        for n in nodes:
            n["layer"] = n["name"].partition(".")[0]

    def ancestors(self, node: dict):
        i = node["parent"]
        while i is not None:
            yield self.nodes[i]
            i = self.nodes[i]["parent"]

    def named(self, *names: str):
        return [n for n in self.nodes if n["name"] in names]

    def calls(self, *names: str) -> int:
        return sum(n["calls"] for n in self.named(*names))

    def units(self, *names: str) -> int:
        return sum(n["units"] for n in self.named(*names))

    def total(self, *names: str) -> float:
        """Span time of calls to names, not counting nested calls twice."""
        return sum(n["total_s"] for n in self.named(*names)
                   if not any(a["name"] in names for a in self.ancestors(n)))

    def outermost(self, layer: str, *names: str) -> float:
        """Span time of calls to names not made from inside the same layer."""
        return sum(n["total_s"] for n in self.named(*names)
                   if not any(a["layer"] == layer for a in self.ancestors(n)))

    def layer_calls(self, layer: str) -> int:
        return sum(n["calls"] for n in self.nodes if n["layer"] == layer)

    def layer_self(self, layer: str) -> float:
        return sum(n["self_s"] for n in self.nodes if n["layer"] == layer)

    def stage_times(self) -> dict:
        out = {stage: 0.0 for stage in STAGES.values()}
        for n in self.nodes:
            if n["name"] in STAGES and n["parent"] is not None and \
                    self.nodes[n["parent"]]["name"] == "cli.cmd_verify_all":
                out[STAGES[n["name"]]] += n["total_s"]
        return out

    def signature(self) -> list:
        """Call paths with their call and work-unit counts."""
        paths = []
        for n in self.nodes:
            path = [n["name"]] + [a["name"] for a in self.ancestors(n)]
            paths.append(("/".join(reversed(path)), n["calls"], n["units"]))
        return sorted(paths)


def scipy_import_s(stderr: str) -> float:
    """Time spent importing scipy modules, from `-X importtime` lines.

    Counts each scipy module whose importer is not itself a scipy module,
    with its cumulative time, up to the worker's ready marker.
    """
    entries = []
    for line in stderr.splitlines():
        if line.startswith("bench: ready"):
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip()) - 1
        entries.append((indent // 2, name.strip(), int(cumulative)))
    total_us = 0
    for i, (level, name, cumulative) in enumerate(entries):
        if not name.startswith("scipy"):
            continue
        importer = next((e for e in entries[i + 1:] if e[0] < level), None)
        if importer is None or not importer[1].startswith("scipy"):
            total_us += cumulative
    return total_us / 1e6


def per_layer(untraced: dict, timed: dict, memory: dict) -> dict:
    t = Tree(timed["trace"]["nodes"])
    stages = t.stage_times()
    peaks = memory["trace"]["peak_alloc_bytes"]
    values = {"cli.import_s": untraced["import_s"],
              "cli.import_scipy_s": scipy_import_s(timed["stderr"])}
    values.update({f"cli.stage.{s}_s": v for s, v in stages.items()})
    values.update({
        "cli.write_s": t.total("cli.write_csv") + t.total("cli._emit"),
        "cli.bytes_written": t.units("cli.write_csv", "cli._emit"),
        "parabolic.calls": t.layer_calls("parabolic"),
        "parabolic.self_s": t.layer_self("parabolic"),
        "classical.region_calls": t.calls("classical.in_region_X"),
        "classical.free_flow_calls": t.calls("classical.free_flow"),
        "classical.orbit_calls": t.calls("classical.integrate_orbit"),
        "classical.orbit_s": t.outermost("classical",
                                         "classical.integrate_orbit"),
        "classical.observables_s": t.outermost(
            "classical", "classical.decay_slope",
            "classical.gamma_observables"),
        "classical.momentum_s": t.outermost("classical",
                                            "classical.asymptotic_momentum"),
        "classical.self_s": t.layer_self("classical"),
        "special.calls": t.layer_calls("special"),
        "special.self_s": t.layer_self("special"),
        "oscillatory.calls": t.layer_calls("oscillatory"),
        "oscillatory.self_s": t.layer_self("oscillatory"),
        "potentials.array_calls": t.calls("potentials.eval_potential_array"),
        "potentials.array_points": t.units("potentials.eval_potential_array"),
        "potentials.scalar_calls": t.calls("potentials.eval_potential"),
        "potentials.grad_calls": t.calls("potentials.grad_potential"),
        "potentials.self_s": t.layer_self("potentials"),
        "transport.b_s": t.outermost("transport", "transport.symbol_b",
                                     "transport.symbol_b_result"),
        "transport.q_s": t.outermost("transport", "transport.symbol_q",
                                     "transport.symbol_q_parts"),
        "transport.residual_s": t.outermost("transport",
                                            "transport.transport_residual"),
        "transport.decay_fit_s": t.outermost("transport",
                                             "transport.decay_fit_symbols"),
        "transport.potential_points": sum(
            n["units"] for n in t.named("potentials.eval_potential_array")
            if any(a["layer"] == "transport" for a in t.ancestors(n))),
        "transport.peak_alloc_mb": peaks.get("transport", 0) / 1e6,
        "kernel.born_calls": t.calls("kernel.born_symbol"),
        "kernel.born_s": t.total("kernel.born_symbol"),
        "kernel.populate_s": t.total("kernel.populate_grid"),
        "kernel.taper_s": t.total("kernel.apply_taper"),
        "kernel.transform_calls": t.calls("kernel.kernel_transform"),
        "kernel.transform_s": t.total("kernel.kernel_transform"),
        "kernel.fit_s": t.total("kernel.kernel_fft_check") - sum(
            n["total_s"] for n in t.named("kernel.kernel_transform")
            if t.nodes[n["parent"]]["name"] == "kernel.kernel_fft_check"),
        "kernel.grid_mb": max((n["max_units"] for n in
                               t.named("kernel.populate_grid")), default=0) / 1e6,
        "kernel.peak_alloc_mb": peaks.get("kernel", 0) / 1e6,
        "trace.overhead_s": timed["run_s"] - untraced["run_s"],
    })
    return values


def trace_problems(run: Run, timed: dict, memory: dict) -> list[str]:
    """Counts repeat across traced runs; stages cover each verify run."""
    problems = []
    if "trace" not in timed or "trace" not in memory:
        return ["a traced process reported no trace"]
    sig_a = Tree(timed["trace"]["nodes"]).signature()
    sig_b = Tree(memory["trace"]["nodes"]).signature()
    if sig_a != sig_b:
        diff = sorted(set(sig_a) ^ set(sig_b))[:5]
        problems.append(f"traced counts differ between runs: {diff}")
    if run.workload["kind"] == "verify":
        for rep in (timed, memory):
            covered = sum(Tree(rep["trace"]["nodes"]).stage_times().values())
            if covered < STAGE_COVERAGE * rep["run_s"]:
                problems.append(f"stage spans cover {covered:.3f} s of a "
                                f"{rep['run_s']:.3f} s traced run")
    return problems


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [SRC / "starkscatter" / "cli.py"]
    if "config" in workload:
        needed.append(ROOT / workload["config"])
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: missing program files {missing}", file=sys.stderr)
        return 2

    # the probe's numpy and every worker run single-threaded
    os.environ.update({var: "1" for var in THREAD_VARS})
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed)
    try:
        # fills the bytecode and file caches; not measured
        run.launch(setup_only=True)
        if args.trace:
            reports = [run.launch(), run.launch(trace=1, importtime=True),
                       run.launch(trace=2)]
        else:
            reports = []
            start = time.monotonic()
            while True:
                reports.append(run.launch())
                now = time.monotonic()
                last = reports[-1]["wall_s"]
                if now + last > run.started + HARD_LIMIT_S:
                    break
                if (len(reports) >= MIN_PROCESSES
                        and now + last > start + args.seconds):
                    break
            while len(reports) < MIN_SETUPS:
                reports.append(run.launch(setup_only=True))
    finally:
        run.close()

    if not any("run_s" in r for r in reports):
        for r in reports:
            print("\n".join(r["problems"]), file=sys.stderr)
        print("bench: no process completed a measurement", file=sys.stderr)
        return 1

    host_factor = statistics.median(run.probes) / PROBE_REF_S
    problems = [p for r in reports for p in r["problems"]]
    problems += consistency_problems(reports)
    if args.trace:
        trace_issues = trace_problems(run, reports[1], reports[2])
        problems += trace_issues
        # a process that failed to report leaves its layers unmeasured
        metrics = ({name: 0 for name, _ in PER_LAYER} if trace_issues
                   or "run_s" not in reports[0] else per_layer(*reports))
        units = PER_LAYER
    else:
        metrics = end_to_end(reports, host_factor)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)

    config = workload.get("config")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": tree_hash(SRC, "*.py"),
        "config": config,
        "config_sha256": (hashlib.sha256((ROOT / config).read_bytes())
                          .hexdigest() if config else None),
        "versions": next(r["versions"] for r in reports if "versions" in r),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {v: run.env[v] for v in THREAD_VARS},
        "processes": len(reports),
        "host_factor": host_factor,
        "raw_times": raw_times(reports),
    }
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units}}
    OUT_ROOT.mkdir(exist_ok=True)
    record = {"provenance": provenance, "result": result, "problems": problems,
              "samples": [{k: r.get(k) for k in
                           ("setup_s", "run_s", "wall_s", "peak_rss_kb",
                            "import_s", "exit_code", "artifact_hash",
                            "attempted", "failed", "accuracy")}
                          for r in reports]}
    if args.trace:
        record["traces"] = [r.get("trace") for r in reports[1:]]
    record["probes_s"] = run.probes
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
