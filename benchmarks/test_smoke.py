"""Smoke tests of the benchmark itself, at tiny input sizes.

    python -m pytest benchmarks -q

They live outside the tier-1 ``testpaths`` so that the library suite never
pays for them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("sweep_fig2b", "point_mixed", "oracle_subgrid")


def _bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--seed", "1",
         "--seconds", "0.5", *extra], cwd=cwd, capture_output=True, text=True,
        timeout=600)


def _printed(stdout):
    """``{(workload, metric): (value, unit)}`` from the report lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[4].startswith("n="):
            out[parts[0], parts[1]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric(trace, section):
    proc = _bench(ROOT, "--workload", "all", "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected

    printed = _printed(proc.stdout)
    for w in WORKLOADS:
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        names["failed_frac"] = "fraction"
        if not trace:
            names.update({a: u for a, (_, _, u) in run.ALIASES[w].items()})
        for name, unit in names.items():
            assert printed[w, name][1] == unit, (w, name)
    for w in DETERMINISTIC:
        assert printed[w, "failed_frac"][0] == 0.0, w
    if trace:
        for w, name in [("sweep_fig2b", "numpy.eigvals_per_point"),
                        ("sweep_fig2b", "sweep.write_bytes"),
                        ("point_mixed", "lyapunov.solve_lyapunov.us_per_call"),
                        ("oracle_subgrid", "quadrature.abscissae_per_point"),
                        ("mc_validate",
                         "simulate.simulate_phase_noise.member_steps_per_s")]:
            assert printed[w, name][0] > 0, (w, name)


def _worker_result(name, tmp_path, capsys):
    out_dir = tmp_path / name
    out_dir.mkdir()
    argv = ["--workload", name, "--seed", "1", "--seconds", "0.2",
            "--size", "tiny", "--out-dir", str(out_dir), "--spawn-time", "0"]
    assert worker.main(argv) == 0
    res = run.tally(json.loads(capsys.readouterr().out.splitlines()[-1]), [])
    run.report(name, res, 0)
    return res, _printed(capsys.readouterr().out)


def _raise(cov):
    raise RuntimeError("forced failure")


@pytest.mark.parametrize("route", [lambda cov: 1e3, _raise],
                         ids=["wrong", "raises"])
def test_failing_check_raises_failed_frac(route, monkeypatch, tmp_path, capsys):
    from optomech import measures

    monkeypatch.setattr(measures, "eta_minus_partial_transpose", route)
    res, printed = _worker_result("point_mixed", tmp_path, capsys)
    assert res["failed_checks"]
    assert printed["point_mixed", "failed_frac"][0] > 0


def test_raising_operation_raises_failed_frac(monkeypatch, tmp_path, capsys):
    from optomech import sweep

    real = sweep.evaluate_point

    def flaky(params):
        if params.detuning_mode == "bare":
            _raise(params)
        return real(params)

    monkeypatch.setattr(sweep, "evaluate_point", flaky)
    res, printed = _worker_result("point_mixed", tmp_path, capsys)
    assert res["failed_ops"] > 0
    assert printed["point_mixed", "failed_frac"][0] > 0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep_fig2b", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_probe_clock_leaves_out_the_probe():
    probe = speed.SpeedProbe()
    clock0, wall0 = probe.clock(), time.perf_counter()
    for _ in range(5):
        probe.mark()
    assert len(probe.rates) == 5 and probe.speed() > 0
    assert probe.clock() - clock0 < 0.5 * (time.perf_counter() - wall0)
