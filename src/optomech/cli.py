"""Command-line front end: point evaluation, sweeps, spectra, validation.

Exit codes: 0 success, 1 invalid configuration, 2 partial failures present,
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .config import extract_params, load_document, params_from_config, sweep_from_config
from .dynamics import auxiliary_block, phase_noise_spectrum
from .errors import ConfigError, OptomechError, UnstableTimestep
from .lyapunov import solve_lyapunov
from .output import format_column, tool_metadata, write_document, write_table
from .parameters import solve_steady_state
from .simulate import TrajectoryConfig, simulate_phase_noise
from .spectral import effective_response, laser_correlation
from .sweep import emit_figure_data, figure_recipe, run_pipeline, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_INTERNAL = 3

# the document key of a field a rejected Monte-Carlo run names, where the
# two differ
_RUN_KEYS = {"drift": "phase_noise", "dt": "dt_s"}


def _cmd_point(args) -> int:
    doc, src = load_document(args.config)
    params = params_from_config(doc, src)
    results, _, ((_, model),) = run_pipeline([params])
    if args.dump_model:
        write_document(args.dump_model, model[0].to_document())
    meta = tool_metadata(internal_params=dataclasses.asdict(params))
    write_document(args.out, {"metadata": meta,
                              "result": dataclasses.asdict(results[0])})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: expected a count >= 1, got {args.jobs}")
    if args.recipe is not None:
        if args.config is not None:
            raise ConfigError("--config: a sweep runs --recipe or --config, not both")
        counts = (args.grid or "80x80").split("x")
        if len(counts) != 2 or not all(c.isdecimal() and int(c) >= 2 for c in counts):
            raise ConfigError(f"--grid: expected COUNTxCOUNT with counts >= 2, "
                              f"got {args.grid!r}")
        try:
            spec = figure_recipe(args.recipe, grid=(int(counts[0]), int(counts[1])))
        except ValueError as err:
            raise ConfigError(f"--recipe: {err}") from err
    elif args.config:
        if args.grid is not None:
            raise ConfigError("--grid: a --config sweep takes its grid from its file")
        doc, src = load_document(args.config)
        spec = sweep_from_config(doc, src)
    else:
        raise ConfigError("sweep needs --recipe or --config")
    result = run_sweep(spec, n_jobs=args.jobs)
    stem = args.stem or spec.recipe or "sweep"
    os.makedirs(args.out_dir, exist_ok=True)
    emit_figure_data(result, args.out_dir, stem=stem)
    result.write_json(os.path.join(args.out_dir, f"{stem}.json"))
    print(f"wrote {stem}.csv, {stem}.grid.txt, {stem}.json in {args.out_dir}"
          f" ({result.n_failures} failed points)")
    return EXIT_PARTIAL if result.n_failures else EXIT_OK


def _cmd_spectrum(args) -> int:
    doc, src = load_document(args.config)
    params, fields = extract_params(doc, src)
    n_omega = fields.number("omega_count", 1000, integer=True, minimum=0)
    omega_max = fields.number("omega_max_over_omega_m", 3.0) * params.omega_m
    n_tau = fields.number("tau_count", 101, integer=True, minimum=0)
    gamma_l = params.phase_noise.gamma_l
    tau_max = fields.number("tau_max_s", 5.0 / gamma_l if gamma_l else 1e-3)
    fields.close()
    os.makedirs(args.out_dir, exist_ok=True)
    meta = tool_metadata(internal_params=dataclasses.asdict(params))

    omegas = np.linspace(0.0, omega_max, n_omega)
    s_vals = phase_noise_spectrum(params.phase_noise, omegas)
    write_table(os.path.join(args.out_dir, "frequency_noise_spectrum.csv"),
                meta, "omega_rad_s,s_phidot_rad_s",
                [format_column(omegas), format_column(s_vals)])

    ss = solve_steady_state(params)
    response = effective_response(params, ss)
    chi2 = np.abs(response.chi_eff(omegas)) ** 2
    write_table(os.path.join(args.out_dir, "effective_susceptibility.csv"),
                meta, "omega_rad_s,abs_chi_eff_squared",
                [format_column(omegas), format_column(chi2)])

    taus = np.linspace(0.0, tau_max, n_tau)
    corr = [laser_correlation(params.phase_noise, t) for t in taus]
    write_table(os.path.join(args.out_dir, "laser_correlation.csv"),
                meta, "tau_s,correlation",
                [format_column(taus), format_column(corr)])
    print(f"wrote spectrum tables in {args.out_dir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    doc, src = load_document(args.config)
    params, fields = extract_params(doc, src)
    spec = params.phase_noise
    if spec.kind != "bandpass":
        raise ConfigError(f"{args.config}: validation drives the bandpass "
                          "noise generator; set phase_noise.kind = 'bandpass'")
    run = dict(dt=fields.number("dt_s"),
               n_steps=fields.number("n_steps", 500_000, integer=True),
               n_ensemble=fields.number("n_ensemble", 16, integer=True),
               seed=fields.number("seed", 20240811, integer=True, minimum=0),
               burn_in=fields.number("burn_in", integer=True))
    segments = fields.number("segments_per_member", 8, integer=True)
    fields.close()
    a, d = auxiliary_block(spec)
    try:
        cfg = TrajectoryConfig.for_drift(a, **run)
        # one ensemble gives both the spectrum of psi and the pair's
        # covariance; the segment count is checked before it is propagated
        spectrum = simulate_phase_noise(spec, cfg, segments_per_member=segments)
    except (ValueError, UnstableTimestep) as err:
        if not hasattr(err, "field"):
            raise
        raise src.error(_RUN_KEYS.get(err.field, err.field), str(err)) from None
    est = spectrum.covariance
    analytic = solve_lyapunov(a, d).matrix

    checks = [(label, est.matrix[i, j], est.standard_errors[i, j], analytic[i, j])
              for label, i, j in (("var_psi", 0, 0), ("var_theta", 1, 1),
                                  ("cov_psi_theta", 0, 1))]
    width = spec.gamma_tilde
    for label, lo, hi in (
            ("spectrum_low_band", spec.omega_band / 50.0, spec.omega_band / 10.0),
            ("spectrum_band_center", spec.omega_band - width / 4.0,
             spec.omega_band + width / 4.0)):
        checks.append((label, *_band_average(spectrum, spec, lo, hi)))
    # each estimate must lie within 3 standard errors of its analytic value
    rows = [[label, e, se, ref, (e - ref) / se if se else None,
             abs(e - ref) <= 3.0 * se] for label, e, se, ref in checks]

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "validation.csv")
    meta = tool_metadata(internal_params=dataclasses.asdict(params),
                         trajectory=dataclasses.asdict(cfg))
    write_table(path, meta,
                "quantity,estimate,standard_error,analytic,z_score,pass",
                [format_column(column) for column in zip(*rows)])
    n_fail = sum(1 for r in rows if not r[-1])
    print(f"wrote {path}: {len(rows) - n_fail}/{len(rows)} checks passed")
    return EXIT_PARTIAL if n_fail else EXIT_OK


def _band_average(spectrum, spec, lo: float, hi: float):
    """Estimate/error/analytic triple averaged over every other bin in a band.

    The stride keeps the averaged bins nearly independent (the window main
    lobe spans two bins); the first two bins are excluded because segment
    detrending suppresses them.
    """
    grid = spectrum.frequencies
    idx = np.where((grid >= lo) & (grid <= hi))[0]
    idx = idx[idx >= 2][::2]
    if idx.size == 0:
        idx = np.array([int(np.argmin(np.abs(grid - 0.5 * (lo + hi))))])
    est = float(np.mean(spectrum.values[idx]))
    se = float(np.sqrt(np.mean(spectrum.standard_errors[idx] ** 2) / idx.size))
    ref = float(np.mean(phase_noise_spectrum(spec, grid[idx])))
    return est, se, ref


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="optomech",
        description="Stationary entanglement and cooling of a noisy-laser "
                    "optomechanical cavity")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="evaluate a single working point")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON result here (default stdout)")
    p.add_argument("--dump-model", help="also write the drift/diffusion "
                                        "matrices as a JSON document")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("sweep", help="run a 2-D parameter sweep")
    p.add_argument("--recipe", help="named recipe fig2a..fig9c")
    p.add_argument("--config", help="explicit sweep configuration")
    p.add_argument("--grid", help="--recipe grid, e.g. 40x40; not with --config")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--stem", help="output file stem")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spectrum", help="export noise spectrum, "
                                        "susceptibility and correlation tables")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("validate", help="compare the stochastic noise "
                                        "generator against analytic results")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OptomechError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
