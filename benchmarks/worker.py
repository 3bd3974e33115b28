"""One workload in one process: set up, measure, check, report one JSON line.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` already
set in its environment. ``--spawn-time`` is the parent's ``time.monotonic()``
just before the start, so set-up time covers interpreter start, imports,
input generation and one warm-up call.

Set-up time and the untraced passes are timed on the probe-free clock of
``speed.SpeedProbe`` and corrected by the host speed it sampled over the same
interval; the wall-clock figures are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _measure(workload, seconds, probe):
    """Run passes until ``seconds`` have gone by (at least one pass), each
    with the host speed sampled while it ran."""
    passes = []
    end = time.monotonic() + seconds
    while not passes or time.monotonic() < end:
        first = probe.mark()
        passes.append(workload.run_pass())
        passes[-1].speed = probe.speed(first)
    return passes


def _measure_alternating(workload, seconds, tracer):
    """Untraced and traced passes in turn, so both see the same machine state.

    Returns (untraced passes, traced passes).
    """
    plain, traced = [], []
    end = time.monotonic() + seconds
    while not traced or time.monotonic() < end:
        plain.append(workload.run_pass())
        tracer.install()
        try:
            traced.append(workload.run_pass())
        finally:
            tracer.uninstall()
    return plain, traced


def _stats(passes):
    """Per-pass rates, each divided by the host speed during its pass."""
    latencies = [t for p in passes for t in p.latencies]
    rates = [p.units / sum(p.latencies) for p in passes]
    corrected = [r / p.speed for r, p in zip(rates, passes)]
    return {
        "passes": len(passes),
        "throughput_per_s": statistics.median(corrected),
        "throughput_samples": corrected,
        "wall_throughput_per_s": statistics.median(rates),
        "host_speed": statistics.median(p.speed for p in passes),
        "latency_n": len(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _percentile(latencies, 0.9),
        "ops": sum(p.ops for p in passes),
        "failed_ops": sum(p.failed for p in passes),
    }


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _run_record(args, root):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        out = _run(args, root, probe)
    finally:
        probe.stop()
    print(json.dumps(out))
    return 0


def _run(args, root, probe):
    import optomech
    from workloads import WORKLOADS

    src = os.path.join(root, "src", "optomech")
    if os.path.dirname(os.path.abspath(optomech.__file__)) != src:
        raise SystemExit(f"optomech imported from {optomech.__file__}, "
                         f"not from {src}")
    workload = WORKLOADS[args.workload](args.seed, args.size, args.out_dir)
    workload.clock = probe.clock
    workload.prepare()
    workload.warm_up()
    wall_setup = time.monotonic() - args.spawn_time - probe.paused
    probe.mark()
    out = {"wall_setup_s": wall_setup, "setup_s": wall_setup * probe.speed()}
    if args.setup_only:
        return out

    if args.trace:
        probe.stop()  # spans would absorb the probe's time
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced = _measure_alternating(workload, args.seconds, tracer)
        plain, stats = _stats(plain), _stats(traced)
        overhead = 100.0 * (plain["throughput_per_s"]
                            / stats["throughput_per_s"] - 1.0)
        out["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in
                         layer_metrics(tracer.summary(), overhead).items()}
        tracer.write_spans(os.path.join(args.out_dir, "trace_spans.csv"))
        stats["ops"] += plain["ops"]
        stats["failed_ops"] += plain["failed_ops"]
    else:
        stats = _stats(_measure(workload, args.seconds, probe))
        probe.stop()

    checks = workload.checks()
    out.update(stats)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["checks"] = len(checks)
    out["failed_checks"] = [name for name, ok in checks if not ok]
    out["notes"] = workload.notes
    out["record"] = _run_record(args, root)
    return out

if __name__ == "__main__":
    sys.exit(main())
