"""Write the pinned output set of the optomech CLI and print its SHA-256 digests.

Usage: python tools/pinned_outputs.py OUT_DIR

Runs the CLI of the source tree next to this script on inputs held below:
the fig2a/fig2b/fig7b recipes at 30x30 and fig2b at 40x40, three explicit
sweep documents (white noise at a bare detuning; bandpass noise, run with
--jobs 2; the noise-free reference point over a detuning axis that holds
resonance, delta = 0, exactly), the reference point and a bistable
bare-detuning point with their models, the spectrum tables, and validate at 40000 steps (4 members,
seed 11) with its default and with an explicit timestep and burn-in, and
at its defaults. The input documents are written to
OUT_DIR/inputs. Then runs each script of the tree's demos/ directory on
that tree's package, in OUT_DIR/demos, which receives the files a demo
writes, and keeps its standard output as OUT_DIR/demos/<name>.stdout.
Prints ``sha256  path`` for every other file written, sorted by path, so
two source trees can be compared by diffing the lists.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from optomech import cli  # noqa: E402

# the reference bandpass point: 0.1 kHz linewidth, 50 kHz band center,
# band width half the center
REFERENCE = {
    "omega_m_over_2pi_hz": 1e7, "quality_factor": 2e6,
    "kappa_over_omega_m": 0.5, "delta_over_omega_m": 1.0, "g0_rad_s": 1e3,
    "laser_power_mw": 20.0, "bath_temperature_k": 0.4,
    "phase_noise": {"kind": "bandpass", "linewidth_over_2pi_hz": 100.0,
                    "band_center_over_2pi_hz": 5e4,
                    "bandwidth_over_band_center": 0.5},
}
WHITE = {"kind": "white", "linewidth_over_2pi_hz": 100.0}
KAPPA_AXIS = {"name": "kappa_over_omega_m", "min": 0.05, "max": 3.0,
              "scale": "log"}

INPUTS = {
    "bist.json": {**REFERENCE, "detuning_mode": "bare",
                  "delta_over_omega_m": 2.5, "laser_power_mw": 45.0},
    "cfg_white.json": {
        "axis_x": {"name": "power_mw", "min": 1.0, "max": 300.0, "count": 14},
        "axis_y": {**KAPPA_AXIS, "count": 11},
        "fixed": {**REFERENCE, "detuning_mode": "bare",
                  "delta_over_omega_m": 2.0, "phase_noise": WHITE},
    },
    "cfg_band.json": {
        "axis_x": {**KAPPA_AXIS, "count": 9},
        "axis_y": {"name": "power_mw", "min": 1.0, "max": 400.0, "count": 8},
        "fixed": REFERENCE,
    },
    # linspace(-1, 4, 11) steps by 0.5, so its third value is 0.0 exactly
    "cfg_res.json": {
        "axis_x": {"name": "power_mw", "min": 1.0, "max": 100.0, "count": 5},
        "axis_y": {"name": "delta_over_omega_m", "min": -1.0, "max": 4.0,
                   "count": 11},
        "fixed": {**REFERENCE, "phase_noise": {"kind": "none"}},
    },
    "ref.json": REFERENCE,
    "spectrum.json": {**REFERENCE, "omega_count": 200, "tau_count": 21},
    "val40k.json": {**REFERENCE, "n_steps": 40000, "n_ensemble": 4, "seed": 11},
    # dt*max|eig| = 0.063 below the 0.1 guard, burn-in above its 319 steps
    "valexp.json": {**REFERENCE, "n_steps": 40000, "n_ensemble": 4, "seed": 11,
                    "dt_s": 2e-7, "burn_in": 500},
}


def _runs(inputs: str, out: str) -> list[tuple[list[str], str | None]]:
    """Each CLI call as (argv, file its stdout goes to or None)."""
    def cfg(name):
        return os.path.join(inputs, name)

    runs = [(["sweep", "--recipe", fig, "--grid", "30x30",
              "--out-dir", os.path.join(out, "r30")], None)
            for fig in ("fig2a", "fig2b", "fig7b")]
    runs += [
        (["sweep", "--recipe", "fig2b", "--grid", "40x40",
          "--out-dir", os.path.join(out, "b40")], None),
        (["sweep", "--config", cfg("cfg_white.json"), "--stem", "cfg_white",
          "--out-dir", os.path.join(out, "cfg")], None),
        (["sweep", "--config", cfg("cfg_band.json"), "--stem", "cfg_band",
          "--jobs", "2", "--out-dir", os.path.join(out, "cfg")], None),
        (["sweep", "--config", cfg("cfg_res.json"), "--stem", "cfg_res",
          "--out-dir", os.path.join(out, "cfg")], None),
        (["point", "--config", cfg("ref.json"),
          "--out", os.path.join(out, "point", "ref.out.json"),
          "--dump-model", os.path.join(out, "point", "ref.model.json")], None),
        (["point", "--config", cfg("ref.json")],
         os.path.join(out, "point", "ref.stdout")),
        (["point", "--config", cfg("bist.json"),
          "--out", os.path.join(out, "point", "bist.out.json"),
          "--dump-model", os.path.join(out, "point", "bist.model.json")], None),
        (["spectrum", "--config", cfg("spectrum.json"),
          "--out-dir", os.path.join(out, "spectrum")], None),
        (["validate", "--config", cfg("val40k.json"),
          "--out-dir", os.path.join(out, "val40k")], None),
        (["validate", "--config", cfg("ref.json"),
          "--out-dir", os.path.join(out, "valdef")], None),
        (["validate", "--config", cfg("valexp.json"),
          "--out-dir", os.path.join(out, "valexp")], None),
    ]
    return runs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out = os.path.abspath(args[0])
    inputs = os.path.join(out, "inputs")
    os.makedirs(os.path.join(out, "point"), exist_ok=True)
    os.makedirs(inputs, exist_ok=True)
    for name, doc in INPUTS.items():
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(doc, fh, indent=1)
    for cmd, stdout_path in _runs(inputs, out):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(cmd)
        if code != 0:
            print(f"error: optomech {' '.join(cmd)} exited {code}", file=sys.stderr)
            return 1
        if stdout_path is not None:
            with open(stdout_path, "w") as fh:
                fh.write(text.getvalue())
    demos = os.path.join(out, "demos")
    os.makedirs(demos, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": SRC}
    for script in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        name = os.path.splitext(os.path.basename(script))[0]
        run = subprocess.run([sys.executable, script], cwd=demos, env=env,
                             capture_output=True, text=True)
        if run.returncode != 0:
            print(f"error: demo {name} exited {run.returncode}\n{run.stderr}",
                  file=sys.stderr)
            return 1
        with open(os.path.join(demos, f"{name}.stdout"), "w") as fh:
            fh.write(run.stdout)
    digests = []
    for root, _, names in os.walk(out):
        if root == inputs:
            continue
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digests.append((os.path.relpath(path, out),
                                hashlib.sha256(fh.read()).hexdigest()))
    for path, digest in sorted(digests):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
