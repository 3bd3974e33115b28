"""The four benchmark workloads: input generation, timed passes, checks.

Every workload is driven by one client in a closed loop: the next operation
starts when the previous one has returned. A *pass* runs every generated
input once; ``run_pass`` times only the library calls, so file digests and
per-operation checks stay outside the timed region. ``checks`` runs after
the timed loop and reaches each result by an independent route.

Workloads call the library through module attributes (``sweep.evaluate_point``,
``cli.main``) so that the tracer's rebinding reaches the benchmark's own
calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from optomech import cli, dynamics, lyapunov, measures, parameters, spectral, sweep

TWO_PI = 2.0 * math.pi
OMEGA_M = TWO_PI * 1e7

# Gates of the independent routes. Gaps are measured relative to the largest
# covariance entry, so structurally zero entries do not ask for precision
# below machine epsilon. SCHUR_GAP is the suite's Schur-versus-vectorized gate.
SCHUR_GAP = 1e-9
ORACLE_GAP = 1e-6
Z_GATE = 3.0
VALIDATE_ROWS = 5

# ``validate`` runs the command's own defaults (500k steps, 16 members,
# seed 20240811) at full size: its five z-rows are a statistical 3-sigma
# gate, which a generator seed drawn per run misses on a few percent of seeds
SIZES = {
    "full": dict(sweep_grid=(40, 40), points=800, oracle_grid=(7, 7),
                 validate={}, sample=24),
    "tiny": dict(sweep_grid=(5, 4), points=24, oracle_grid=(2, 2),
                 validate=dict(n_steps=4_000, n_ensemble=4), sample=4),
}

# reference bandpass point of the validation command: 0.1 kHz linewidth,
# 50 kHz band center, band width half the center
REFERENCE_POINT = {
    "omega_m_over_2pi_hz": 1e7, "quality_factor": 2e6,
    "kappa_over_omega_m": 0.5, "delta_over_omega_m": 1.0, "g0_rad_s": 1e3,
    "laser_power_mw": 20.0, "bath_temperature_k": 0.4,
    "phase_noise": {"kind": "bandpass", "linewidth_over_2pi_hz": 100.0,
                    "band_center_over_2pi_hz": 5e4,
                    "bandwidth_over_band_center": 0.5},
}


@dataclass
class PassResult:
    """What one pass did: work units, per-operation latencies, failures."""

    units: float
    latencies: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    speed: float = 1.0  # host speed during the pass, set by the worker


def _quiet(argv):
    """Run the CLI with its progress line captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _schur_check(params, eta_minus, n_eff):
    """Re-solve one stable point by Bartels-Stewart and the partial transpose.

    Returns the larger gap, each scaled by the covariance: n_eff is linear
    in V, so its gap is taken relative to max|V|; eta_minus^2 is quadratic
    in V, so its gap is taken relative to max|V|^2. (Near the instability
    max|V| reaches 1e7 and eta_minus alone differs by 1e-8 relative.)
    """
    ss = parameters.solve_steady_state(params)
    model = dynamics.build_model(params, ss)
    cov = lyapunov.solve_lyapunov(model.drift, model.diffusion, method="schur")
    if cov.order == 6:
        cov = lyapunov.reduce_to_optomechanical(cov)
    eta = measures.eta_minus_partial_transpose(cov)
    n_ref = measures.occupancy(cov, params.omega_m).n_eff
    scale = float(np.max(np.abs(cov.matrix)))
    return max(abs(eta ** 2 - eta_minus ** 2) / scale ** 2,
               abs(n_ref - n_eff) / scale)


def _parses(check, rows):
    """Run one parse-back check; unreadable output fails it."""
    try:
        return bool(check(rows))
    except (OSError, ValueError, KeyError, IndexError):
        return False


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    clock = staticmethod(time.perf_counter)  # what latencies are timed with

    def __init__(self, seed: int, size: str, out_dir: str):
        self.size = SIZES[size]
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.notes = {}

    def prepare(self):
        """Generate the inputs; runs before any timing starts."""

    def warm_up(self):
        """One small call through the measured path."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def checks(self) -> list:
        """``(name, ok)`` pairs from the independent routes."""
        return []

    def _schur_checks(self, samples):
        """Check ``(label, params, eta_minus, n_eff)`` samples by Schur."""
        out = []
        worst = 0.0
        for label, params, eta_minus, n_eff in samples:
            try:
                gap = _schur_check(params, eta_minus, n_eff)
            except Exception:  # a failed check; the run goes on
                gap = math.inf
            worst = max(worst, gap)
            out.append((f"schur {label}", gap <= SCHUR_GAP))
        self.notes["schur_worst_gap"] = worst
        return out


class SweepFig2b(Workload):
    """The CLI sweep of recipe fig2b, serial, writing CSV, grid and JSON."""

    name = "sweep_fig2b"

    def prepare(self):
        nx, ny = self.size["sweep_grid"]
        self.spec = sweep.figure_recipe("fig2b", grid=(nx, ny))
        self.dir = os.path.join(self.out_dir, "sweep")
        self.argv = ["sweep", "--recipe", "fig2b", "--grid", f"{nx}x{ny}",
                     "--jobs", "1", "--out-dir", self.dir]
        self.paths = [os.path.join(self.dir, f"fig2b{ext}")
                      for ext in (".csv", ".grid.txt", ".json")]
        self.digests = []

    def warm_up(self):
        _quiet(["sweep", "--recipe", "fig2b", "--grid", "2x2", "--out-dir",
                os.path.join(self.out_dir, "warm")])

    def run_pass(self):
        t0 = self.clock()
        _quiet(self.argv)
        elapsed = self.clock() - t0
        self.digests.append(_digest(self.paths))
        points = self.spec.axis_x.count * self.spec.axis_y.count
        try:
            failed = sum(1 for r in self._csv_rows() if r["error"])
        except (ValueError, KeyError):
            failed = points  # unreadable output fails every point
        return PassResult(units=points, latencies=[elapsed], ops=points,
                          failed=failed)

    def _csv_rows(self):
        with open(self.paths[0], newline="") as fh:
            config = fh.readline()
            if not config.startswith("# config: "):
                raise ValueError("CSV lacks its # config: line")
            json.loads(config[len("# config: "):])
            return list(csv.DictReader(fh))

    def checks(self):
        out = [(f"digest pass {i}", d == self.digests[0])
               for i, d in enumerate(self.digests[1:], 1)]
        self.notes["sha256"] = self.digests[0]
        try:
            rows = self._csv_rows()
        except (ValueError, KeyError):
            rows = []
        if not rows:
            return out + [("csv parses back", False)]
        out.append(("csv parses back", _parses(self._csv_ok, rows)))
        out.append(("grid parses back", _parses(self._grid_ok, rows)))
        out.append(("json parses back", _parses(self._json_ok, rows)))
        stable = [r for r in rows if r["stable"] == "true"]
        self.notes["stable_frac"] = len(stable) / len(rows)
        pick = self.rng.choice(len(stable), min(self.size["sample"], len(stable)),
                               replace=False)
        samples = []
        for i in sorted(pick):
            r = stable[i]
            params = sweep.apply_axis(
                sweep.apply_axis(self.spec.fixed, "power_mw", float(r["power_mw"])),
                "delta_over_omega_m", float(r["delta_over_omega_m"]))
            samples.append((f"point {i}", params, float(r["eta_minus"]),
                            float(r["n_eff"])))
        return out + self._schur_checks(samples)

    def _csv_ok(self, rows):
        nx, ny = self.size["sweep_grid"]
        if len(rows) != nx * ny:
            return False
        for r in rows:
            for name in ("e_n", "n_eff", "eta_minus"):
                cell = r[name]
                if r["stable"] == "true":
                    if not math.isfinite(float(cell)):
                        return False
                elif cell != "":
                    return False
        return True

    def _grid_ok(self, rows):
        nx, ny = self.size["sweep_grid"]
        with open(self.paths[1]) as fh:
            lines = fh.read().split("\n")
        if not (lines[0].startswith("# config: ")
                and lines[1].startswith("# columns: ")):
            return False
        blocks = "\n".join(lines[2:]).strip("\n").split("\n\n")
        cells = [line.split() for b in blocks for line in b.split("\n")]
        if len(blocks) != nx or len(cells) != nx * ny:
            return False
        for cell, r in zip(cells, rows):
            z = float(cell[2])
            if (r["stable"] == "true") != (not math.isnan(z)):
                return False
        return True

    def _json_ok(self, rows):
        with open(self.paths[2]) as fh:
            doc = json.load(fh)
        if len(doc["rows"]) != len(rows):
            return False
        return all((p["e_n"] is None) == (r["stable"] != "true")
                   for p, r in zip(doc["rows"], rows))


class PointMixed(Workload):
    """Back-to-back evaluate_point calls on seeded random working points."""

    name = "point_mixed"

    def prepare(self):
        # noise kind and detuning mode cycle so every input set has the same
        # mix; the continuous knobs are drawn from the seed
        self.inputs = []
        rng = self.rng
        for i in range(self.size["points"]):
            kind = ("none", "white", "bandpass")[i % 3]
            mode = ("effective", "bare")[(i // 3) % 2]
            gamma_l = TWO_PI * 10.0 ** rng.uniform(1.0, 3.0)
            band = TWO_PI * rng.uniform(30e3, 140e3)
            noise = {"none": parameters.NoiseSpec.none(),
                     "white": parameters.NoiseSpec.white(gamma_l),
                     "bandpass": parameters.NoiseSpec.bandpass(
                         gamma_l, band, band / 2.0)}[kind]
            self.inputs.append(parameters.SystemParams(
                omega_m=OMEGA_M, quality_factor=2e6,
                kappa=rng.uniform(0.1, 2.0) * OMEGA_M,
                detuning=rng.uniform(0.25, 2.0) * OMEGA_M,
                g0=1e3, laser_power=rng.uniform(1e-3, 50e-3),
                laser_wavelength=810e-9, bath_temperature=0.4,
                phase_noise=noise, detuning_mode=mode))
        self.results = None

    def warm_up(self):
        for params in self.inputs[:3]:
            sweep.evaluate_point(params)

    def run_pass(self):
        out = PassResult(units=len(self.inputs), ops=len(self.inputs))
        results = []
        clock = self.clock
        for params in self.inputs:
            t0 = clock()
            try:
                result = sweep.evaluate_point(params)
            except Exception as err:  # a failed operation; the run goes on
                result = err
                out.failed += 1
            out.latencies.append(clock() - t0)
            results.append(result)
        if self.results is None:
            self.results = results
        return out

    def checks(self):
        stable = [i for i, r in enumerate(self.results)
                  if not isinstance(r, Exception) and r.stable]
        self.notes["stable_frac"] = len(stable) / len(self.results)
        pick = self.rng.choice(stable, min(self.size["sample"], len(stable)),
                               replace=False)
        return self._schur_checks(
            [(f"point {i}", self.inputs[i], self.results[i].eta_minus,
              self.results[i].n_eff) for i in sorted(pick)])


class OracleSubgrid(Workload):
    """cm_spectral_oracle against the Lyapunov covariance on jittered subgrids."""

    name = "oracle_subgrid"

    def prepare(self):
        self.inputs = []
        self.worst_gap = 0.0
        for fig in ("fig2b", "fig7c"):
            spec = sweep.figure_recipe(fig, grid=self.size["oracle_grid"])
            for x in self._jitter(spec.axis_x):
                for y in self._jitter(spec.axis_y):
                    params = sweep.apply_axis(
                        sweep.apply_axis(spec.fixed, spec.axis_x.name, x),
                        spec.axis_y.name, y)
                    ss = parameters.solve_steady_state(params)
                    model = dynamics.build_model(params, ss)
                    if not model.stable:
                        continue
                    v = lyapunov.solve_lyapunov(model.drift, model.diffusion)
                    if v.order == 6:
                        v = lyapunov.reduce_to_optomechanical(v)
                    self.inputs.append((params, ss, v.matrix))

    def _jitter(self, axis):
        """Grid values moved by up to a quarter cell, kept inside the range."""
        values = axis.values()
        cell = (axis.maximum - axis.minimum) / (axis.count - 1)
        moved = values + self.rng.uniform(-0.25, 0.25, values.size) * cell
        return [float(v) for v in np.clip(moved, axis.minimum, axis.maximum)]

    def warm_up(self):
        params, ss, _ = self.inputs[0]
        spectral.cm_spectral_oracle(params, ss)

    def run_pass(self):
        out = PassResult(units=len(self.inputs), ops=len(self.inputs))
        clock = self.clock
        for params, ss, v_ref in self.inputs:
            t0 = clock()
            try:
                v = spectral.cm_spectral_oracle(params, ss).matrix
            except Exception:  # a failed operation; the run goes on
                v = None
            out.latencies.append(clock() - t0)
            if v is None:
                out.failed += 1
                continue
            gap = float(np.max(np.abs(v - v_ref)) / np.max(np.abs(v_ref)))
            self.worst_gap = max(self.worst_gap, gap)
            if not gap <= ORACLE_GAP:
                out.failed += 1
        self.notes["oracle_worst_gap"] = self.worst_gap
        return out


class McValidate(Workload):
    """``optomech validate`` on the reference bandpass point."""

    name = "mc_validate"

    def prepare(self):
        self.dir = os.path.join(self.out_dir, "validate")
        os.makedirs(self.dir, exist_ok=True)
        self.config = self._write_config("validate.json", self.size["validate"])
        self.digests = []

    def _write_config(self, name, run_control):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(dict(REFERENCE_POINT, **run_control), fh)
        return path

    def warm_up(self):
        config = self._write_config("warm.json", dict(n_steps=2_000,
                                                      n_ensemble=2))
        _quiet(["validate", "--config", config, "--out-dir",
                os.path.join(self.out_dir, "warm")])

    def run_pass(self):
        t0 = self.clock()
        _quiet(["validate", "--config", self.config, "--out-dir", self.dir])
        elapsed = self.clock() - t0
        path = os.path.join(self.dir, "validation.csv")
        self.digests.append(_digest([path]))
        member_steps, rows = 0, []
        with contextlib.suppress(ValueError, KeyError):
            member_steps, rows = self._read(path)
        return PassResult(units=member_steps, latencies=[elapsed],
                          ops=VALIDATE_ROWS, failed=VALIDATE_ROWS - len(rows))

    def _read(self, path):
        """Member-steps run (from the file's own trajectory record) and the
        rows of validation.csv that pass the 3-sigma gate."""
        with open(path, newline="") as fh:
            meta = json.loads(fh.readline()[len("# config: "):])
            rows = list(csv.DictReader(fh))
        traj = meta["trajectory"]
        self.notes["trajectory"] = traj
        self.notes["z_scores"] = [float(r["z_score"]) for r in rows]
        passing = []
        for r in rows:
            est, se, ref = (float(r[k]) for k in
                            ("estimate", "standard_error", "analytic"))
            if abs(est - ref) <= Z_GATE * se and r["pass"] == "true":
                passing.append(r)
        # the covariance estimate and the spectrum each run every member-step
        return 2 * traj["n_steps"] * traj["n_ensemble"], passing

    def checks(self):
        return [(f"digest pass {i}", d == self.digests[0])
                for i, d in enumerate(self.digests[1:], 1)]


WORKLOADS = {w.name: w for w in (SweepFig2b, PointMixed, OracleSubgrid,
                                 McValidate)}
