"""One workload process of the benchmark: set up, run once, report.

    python3 bench/worker.py '<job json>'

The job names the workload kind ("verify" or "orbits"), the seed, the
artifact directory, the report path, whether to stop after set-up, and the
trace mode (0 off, 1 spans, 2 spans plus tracemalloc peaks of the transport
and kernel layers).  The process prints "bench: ready" on stderr once
`starkscatter.cli` is imported and the inputs are ready, and writes its
report as JSON when it ends.  Only the standard library is imported before
`starkscatter.cli`, so set-up time includes numpy and scipy.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

# Radiation-observable acceptance gate: Coulomb kappa = 0.1, zero energy,
# orbits to t = 1e4 at tol 1e-12, sampled at t = 0 and 160 log-spaced times.
ORBIT_KAPPA = 0.1
ORBIT_T_FINAL = 1e4
ORBIT_TOL = 1e-12
ORBIT_WINDOW = (1e2, 1e4)


def orbit_inputs(seed: int, n_orbits: int):
    """Seeded zero-energy Coulomb scattering orbits, alternating d = 2, 3."""
    import numpy as np
    from starkscatter import PhasePoint, coulomb, eval_potential

    spec = coulomb(ORBIT_KAPPA, softening=1e-3)
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n_orbits):
        d = 2 + i % 2
        x0 = rng.uniform(15.0, 30.0)
        y0 = rng.uniform(-2.0, 2.0, size=d - 1)
        zeta0 = rng.uniform(-0.5, 0.5, size=d - 1)
        eta0 = math.sqrt(2.0 * (x0 - eval_potential(spec, x0, y0))
                         - float(zeta0 @ zeta0))
        points.append(PhasePoint(x0, y0, eta0, zeta0))
    t_eval = np.concatenate([[0.0], np.geomspace(1.0, ORBIT_T_FINAL, 160)])
    return spec, points, t_eval


def run_orbits(spec, points, t_eval, out_dir):
    """Integrate, fit and extrapolate each orbit; one orbit is one operation."""
    from starkscatter import classical

    results = []
    for p0 in points:
        try:
            traj = classical.integrate_orbit(spec, p0, ORBIT_T_FINAL,
                                             tol=ORBIT_TOL, t_eval=t_eval)
            s_gamma, _ = classical.decay_slope(traj, "Gamma_norm", ORBIT_WINDOW)
            s_par, _ = classical.decay_slope(traj, "gamma_par", ORBIT_WINDOW)
            z_inf, z_err = classical.asymptotic_momentum(spec, p0)
            results.append({
                "d": p0.d,
                "energy_drift": traj.energy_drift(),
                "slope_Gamma": s_gamma,
                "slope_gamma_par": s_par,
                "zeta_inf": [float(z) for z in z_inf],
                "zeta_inf_err": float(z_err),
                "final": [float(v) for v in traj.points[-1].as_vector()],
            })
        except Exception as exc:  # noqa: BLE001 - a failed orbit is counted
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    with open(os.path.join(out_dir, "orbits.json"), "w", newline="\n") as fh:
        json.dump(results, fh, sort_keys=True)
        fh.write("\n")


def run_verify(cli, argv):
    """`starkscatter verify-all` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def main() -> int:
    job = json.loads(sys.argv[1])
    t_import = time.perf_counter()
    import starkscatter.cli as cli
    import_s = time.perf_counter() - t_import

    kind = job["kind"]
    if kind == "verify":
        argv = ["verify-all", "--config", job["config"],
                f"--seed={job['seed']}", f"--output_dir={job['out_dir']}"]
    else:
        spec, points, t_eval = orbit_inputs(job["seed"], job["n_orbits"])
    ready = time.monotonic()
    print("bench: ready", file=sys.stderr, flush=True)

    report = {"ready": ready, "import_s": import_s}
    if job["setup_only"]:
        with open(job["report"], "w") as fh:
            json.dump(report, fh)
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install
        tracer = Tracer(memory=job["trace"] == 2)
        report["wrapped_refs"] = install(tracer)

    rc, stdout, error = 0, "", None
    t0 = time.perf_counter()
    try:
        if kind == "verify":
            rc, stdout = run_verify(cli, argv)
        else:
            run_orbits(spec, points, t_eval, job["out_dir"])
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    report["run_s"] = time.perf_counter() - t0

    import numpy
    import scipy
    report.update({
        "rc": rc, "stdout": stdout, "error": error,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    if tracer is not None:
        report["trace"] = tracer.export()
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
