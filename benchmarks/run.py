"""optomech benchmark: four workloads, each in its own pinned process.

    python3 benchmarks/run.py --workload sweep_fig2b --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (one client, closed loop, BLAS pinned to one thread):

* ``sweep_fig2b``: ``optomech sweep --recipe fig2b`` writing CSV, grid and
  JSON; the bandpass 6x6 path in effective-detuning mode.
* ``point_mixed``: single ``evaluate_point`` calls over seeded working points
  mixing none/white/bandpass noise, both detuning modes, stable and unstable.
* ``oracle_subgrid``: ``cm_spectral_oracle`` against the Lyapunov covariance
  on seeded-jittered fig2b and fig7c subgrids (spectral and quadrature).
* ``mc_validate``: ``optomech validate`` at its defaults on the reference
  bandpass point (the Monte-Carlo generator in ``simulate``).

``--trace 0`` reports the end-to-end metrics: median set-up time over
several fresh processes, peak resident memory and the median per-pass
throughput; operation latencies are printed alongside. Set-up time and
throughput are corrected for the host's speed, which ``speed.py`` samples
throughout each process: they read as on a host that runs its probe
``speed.REFERENCE_RATE`` times a second. The wall-clock figures and the
sampled host speed are printed alongside. ``--trace 1``
reports the per-layer metrics from a run that alternates untraced passes
with passes that wrap every public function of the ``src/optomech``
modules, and the overhead of that wrapping against the untraced passes.
Every metric is printed with its unit and sample count; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Operations are grid points, points, oracle points and validation rows; a
failed check counts as one failed operation.

Outputs (files the workloads write, the per-run record and trace spans) go
to ``.bench_out/<workload>/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_fig2b", "point_mixed", "oracle_subgrid", "mc_validate")
BLAS_THREADS = 1
SETUP_RUNS = {"full": 5, "tiny": 1}
RUN_TIMEOUT_S = 170  # for all processes of one workload together

# the names the workload-specific figures go by in reports
ALIASES = {
    "sweep_fig2b": {"sweep_points_per_s": ("throughput_per_s", 1.0, "1/s")},
    "point_mixed": {"point_p50_us": ("latency_p50_s", 1e6, "us"),
                    "point_p90_us": ("latency_p90_s", 1e6, "us")},
    "oracle_subgrid": {"oracle_points_per_s": ("throughput_per_s", 1.0, "1/s")},
    "mc_validate": {"mc_member_steps_per_s": ("throughput_per_s", 1.0, "1/s")},
}


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, name, out_dir, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", out_dir,
           "--spawn-time", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, name):
    out_dir = os.path.join(ROOT, ".bench_out", name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [_spawn(args, name, out_dir, True, deadline)
              for _ in range(SETUP_RUNS[args.size] - 1)]
    res = tally(_spawn(args, name, out_dir, False, deadline), setups)
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def tally(res, setups):
    """Fold the set-up samples and the failure counts into a worker result."""
    setups = setups + [res]
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["setup_s"] = statistics.median(res["setup_samples"])
    res["wall_setup_s"] = statistics.median(s["wall_setup_s"] for s in setups)
    res["attempted"] = res["ops"] + res["checks"]
    res["failed"] = res["failed_ops"] + len(res["failed_checks"])
    return res


def end_to_end(res):
    """``{name: (value, unit, samples)}`` of the bounded metrics."""
    return {
        "setup_s": (res["setup_s"], "s", len(res["setup_samples"])),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
        "throughput_per_s": (res["throughput_per_s"], "1/s", res["passes"]),
    }


def report(name, res, trace):
    """Human-readable lines: run record, every metric with unit and count."""
    print(f"{name} run_record {json.dumps(res['record'], sort_keys=True)}")
    print(f"{name} notes {json.dumps(res['notes'], sort_keys=True)}")
    if res["failed_checks"]:
        print(f"{name} failed_checks {', '.join(res['failed_checks'])}")
    rows = [("failed_frac", res["failed"] / res["attempted"], "fraction",
             res["attempted"])]
    if trace:
        rows += [(k, m["value"], m["unit"], 1) for k, m in res["layers"].items()]
    else:
        rows += [(k, v, u, n) for k, (v, u, n) in end_to_end(res).items()]
        rows += [("wall_setup_s", res["wall_setup_s"], "s",
                  len(res["setup_samples"])),
                 ("wall_throughput_per_s", res["wall_throughput_per_s"], "1/s",
                  res["passes"]),
                 ("host_speed", res["host_speed"], "x", res["passes"])]
        n_of = {"throughput_per_s": res["passes"],
                "latency_p50_s": res["latency_n"],
                "latency_p90_s": res["latency_n"]}
        rows += [(alias, res[key] * scale, unit, n_of[key])
                 for alias, (key, scale, unit) in ALIASES[name].items()]
    for metric, value, unit, n in rows:
        print(f"{name}  {metric:<58} {value:>16.6g} {unit:<12} n={n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_RUNS), default="full",
                        help="'tiny' shrinks every input for smoke tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "optomech", "__init__.py")):
        print(f"error: no optomech sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            report(name, results[name], args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        if args.trace:
            values = {k: (m["value"], m["unit"]) for k, m in res["layers"].items()}
        else:
            values = {k: (v, u) for k, (v, u, _) in end_to_end(res).items()}
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in values.items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
