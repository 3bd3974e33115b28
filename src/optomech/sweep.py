"""Point evaluation and 2-D parameter sweeps with reproducible outputs.

Grids follow the contour-plot recipes of the source study: input power
against normalized detuning or cavity linewidth, at fixed noise settings.
Unstable grid points carry explicit nulls for the state-dependent outputs,
never zeros.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (MODEL_DIMS, LinearModel, build_model_batch,
                       drift_abscissa, model_order, stability_margin)
from .errors import NonpositiveDetuning, PointEvaluationError
from .lyapunov import solve_lyapunov_batch
from .measures import log_negativity_batch, occupancy_batch
from .output import tool_metadata, write_document, write_table
from .parameters import (EFFECTIVE, NoiseSpec, SteadyState, SystemParams,
                         solve_steady_state_batch)
from .spectral import approx_n_eff

AXIS_NAMES = ("power_mw", "delta_over_omega_m", "kappa_over_omega_m")
OUTPUT_NAMES = ("e_n", "n_eff", "eta_minus", "stability_margin", "g_eff",
                "alpha_abs")
_NULLABLE = ("e_n", "n_eff", "eta_minus")


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: which knob, its range, grid size, and spacing."""

    name: str
    minimum: float
    maximum: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}")
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not self.minimum < self.maximum:
            raise ValueError("axis requires minimum < maximum")
        if self.scale not in ("linear", "log"):
            raise ValueError("axis scale must be 'linear' or 'log'")
        if self.scale == "log" and self.minimum <= 0:
            raise ValueError("log axis requires minimum > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Two distinct axes, the fixed parameter set, and requested outputs."""

    axis_x: SweepAxis
    axis_y: SweepAxis
    fixed: SystemParams
    outputs: tuple[str, ...] = OUTPUT_NAMES
    recipe: str | None = None

    def __post_init__(self):
        if self.axis_x.name == self.axis_y.name:
            raise ValueError("sweep axes must be distinct")
        if not self.outputs:
            raise ValueError(f"no outputs requested; valid outputs: {OUTPUT_NAMES}")
        bad = [o for o in self.outputs if o not in OUTPUT_NAMES]
        if bad:
            raise ValueError(f"unknown outputs {bad}; valid outputs: {OUTPUT_NAMES}")


@dataclass(frozen=True)
class PointResult:
    """Everything evaluate_point knows about one working point."""

    stable: bool
    stability_margin: float | None
    alpha_abs: float
    photon_number: float
    g_eff: float
    branch: str
    e_n: float | None = None
    eta_minus: float | None = None
    raw_log_negativity: float | None = None
    n_eff: float | None = None
    n_eff_approx: float | None = None
    energy_j: float | None = None
    heisenberg_min: float | None = None
    error: str | None = None

    def output(self, name: str) -> float | None:
        if name not in OUTPUT_NAMES:
            raise ValueError(f"unknown output {name!r}")
        return getattr(self, name)


def apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    """Return the parameter set with one sweep knob applied."""
    if name == "power_mw":
        return params.with_(laser_power=value * 1e-3)
    if name == "delta_over_omega_m":
        return params.with_(detuning=value * params.omega_m,
                            detuning_mode=EFFECTIVE)
    if name == "kappa_over_omega_m":
        return params.with_(kappa=value * params.omega_m)
    raise ValueError(f"unknown axis {name!r}")


def _stage(name: str, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as err:
        raise PointEvaluationError(name, str(err)) from err


@dataclass(frozen=True)
class PointEvaluation:
    """One point's result with the working point and linear model behind it."""

    result: PointResult
    steady_state: SteadyState
    model: LinearModel


def run_pipeline(params_seq) -> list[PointEvaluation]:
    """The point pipeline over a sequence of points, each stage run once on the stack.

    Points are grouped by model order (6 with bandpass noise, else 4); each
    group's drifts, diffusions and covariances are (N, n, n) stacks, and
    one eigenvalue solve per drift decides stability and serves as the
    Hurwitz guard of the Lyapunov solve. Unstable points carry stability
    data only, with null measures. A failing stage raises
    PointEvaluationError for the whole sequence; ``evaluate_batch`` isolates
    the failing point.
    """
    params_seq = list(params_seq)
    states = _stage("steady-state", solve_steady_state_batch, params_seq)
    models = [None] * len(params_seq)
    measured = {}
    orders = [model_order(p.phase_noise) for p in params_seq]
    for order in MODEL_DIMS:
        idx = [i for i, o in enumerate(orders) if o == order]
        if not idx:
            continue
        group = [params_seq[i] for i in idx]
        a, d = _stage("linear-model", build_model_batch, group,
                      [states[i] for i in idx])
        abscissa = _stage("linear-model", drift_abscissa, a)
        stable = abscissa < 0.0
        for j, i in enumerate(idx):
            models[i] = LinearModel(drift=a[j], diffusion=d[j],
                                    stable=bool(stable[j]),
                                    dims=MODEL_DIMS[order])
        if not stable.any():
            continue
        cov = _stage("lyapunov", solve_lyapunov_batch, a[stable], d[stable],
                     abscissa=abscissa[stable])
        v4 = cov[:, :4, :4]
        ent = _stage("log-negativity", log_negativity_batch, v4)
        occ = _stage("occupancy", occupancy_batch, v4,
                     [p.omega_m for p, s in zip(group, stable) if s])
        stable_idx = [i for i, s in zip(idx, stable) if s]
        measured.update(zip(stable_idx, zip(ent, occ)))

    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (params, ss, model) in enumerate(zip(params_seq, states, models)):
            try:
                margin = stability_margin(params, ss)
            except NonpositiveDetuning:
                margin = None
            fields = dict(stable=model.stable, stability_margin=margin,
                          alpha_abs=ss.alpha_abs,
                          photon_number=ss.photon_number, g_eff=ss.g_eff,
                          branch=ss.branch)
            if i in measured:
                ent, occ = measured[i]
                fields.update(
                    e_n=ent.log_negativity,
                    eta_minus=ent.eta_minus,
                    raw_log_negativity=ent.raw_log_negativity,
                    n_eff=occ.n_eff,
                    n_eff_approx=_stage("approx-occupancy", approx_n_eff,
                                        params, ss),
                    energy_j=occ.energy,
                    heisenberg_min=ent.heisenberg_min,
                )
            out.append(PointEvaluation(PointResult(**fields), ss, model))
    return out


def evaluate_point(params: SystemParams) -> PointResult:
    """Full pipeline at one working point: a batch of one.

    Unstable points return stability data only, with null measures; a
    failing stage raises PointEvaluationError naming it.
    """
    return run_pipeline([params])[0].result


def evaluate_batch(params_seq) -> list[PointResult]:
    """Results of many points, with a failing point isolated to its own row.

    The points run through the pipeline as one stack. If a stage fails,
    they are run again one at a time, so only the point that fails gets
    an error row, which names the failing stage.
    """
    params_seq = list(params_seq)
    try:
        return [e.result for e in run_pipeline(params_seq)]
    except PointEvaluationError:
        pass
    out = []
    for params in params_seq:
        try:
            out.append(evaluate_point(params))
        except PointEvaluationError as err:
            out.append(PointResult(stable=False, stability_margin=None,
                                   alpha_abs=np.nan, photon_number=np.nan,
                                   g_eff=np.nan, branch="error",
                                   error=str(err)))
    return out


@dataclass(frozen=True)
class SweepResult:
    """Row-major (x outer, y inner) grid of point results plus metadata."""

    spec: SweepSpec
    x_values: np.ndarray
    y_values: np.ndarray
    points: tuple[PointResult, ...]
    metadata: dict

    @property
    def n_failures(self) -> int:
        return sum(1 for p in self.points if p.error is not None)

    def grid(self, output: str) -> np.ndarray:
        """Output as a (count_x, count_y) float array, NaN where null."""
        vals = [np.nan if p.output(output) is None else p.output(output)
                for p in self.points]
        return np.array(vals).reshape(len(self.x_values), len(self.y_values))

    def write_csv(self, path) -> None:
        header = ([self.spec.axis_x.name, self.spec.axis_y.name]
                  + list(self.spec.outputs) + ["stable", "branch", "error"])
        rows = ([x, y, *(p.output(name) for name in self.spec.outputs),
                 p.stable, p.branch, p.error]
                for (x, y), p in zip(self._xy_pairs(), self.points))
        write_table(path, self.metadata, ",".join(header), rows)

    def write_json(self, path) -> None:
        write_document(path, {
            "metadata": self.metadata,
            "x_values": [float(v) for v in self.x_values],
            "y_values": [float(v) for v in self.y_values],
            # the fields are flat, so asdict's recursive copy is not needed
            "rows": [vars(p) for p in self.points],
        })

    def write_grid(self, path, output: str) -> None:
        """Gnuplot-style matrix: x y z rows, blank line between x-blocks."""
        if output not in self.spec.outputs:
            raise ValueError(f"output {output!r} not in {self.spec.outputs}")
        rows = []
        for x, column in zip(self.x_values, self.grid(output)):
            rows += [(x, y, z) for y, z in zip(self.y_values, column)]
            rows.append(())  # blank line closes the x-block
        write_table(path, self.metadata,
                    f"# columns: {self.spec.axis_x.name} "
                    f"{self.spec.axis_y.name} {output}",
                    rows, sep=" ", eol="\n")

    def _xy_pairs(self):
        for x in self.x_values:
            for y in self.y_values:
                yield x, y


def _evaluate_column(args) -> list[PointResult]:
    spec, x = args
    column = apply_axis(spec.fixed, spec.axis_x.name, x)
    return evaluate_batch(apply_axis(column, spec.axis_y.name, y)
                          for y in spec.axis_y.values())


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Evaluate the grid (optionally in parallel); row order is deterministic.

    Per-point failures are recorded on the row and the run continues.
    """
    xs = spec.axis_x.values()
    ys = spec.axis_y.values()
    tasks = [(spec, float(x)) for x in xs]
    if n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            columns = list(pool.map(_evaluate_column, tasks))
    else:
        columns = [_evaluate_column(t) for t in tasks]
    points = tuple(p for col in columns for p in col)
    metadata = tool_metadata(
        recipe=spec.recipe,
        branch_policy="lower",
        axis_x=dataclasses.asdict(spec.axis_x),
        axis_y=dataclasses.asdict(spec.axis_y),
        outputs=list(spec.outputs),
        fixed_params=dataclasses.asdict(spec.fixed),
    )
    return SweepResult(spec=spec, x_values=xs, y_values=ys, points=points,
                       metadata=metadata)


# named grid recipes matching the contour plots of the source study
_GAMMA_L_TRIPLET = (0.0, 2.0 * math.pi * 100.0, 2.0 * math.pi * 1000.0)
_OMEGA_TRIPLET = tuple(2.0 * math.pi * v for v in (30e3, 80e3, 140e3))
_OMEGA_DEFAULT = 2.0 * math.pi * 50e3

_FIGURES = {
    # fig: (y-axis, kappa/omega_m, gamma_l per letter, omega_band per letter, primary)
    "fig2": ("delta_over_omega_m", 0.5, _GAMMA_L_TRIPLET, None, "e_n"),
    "fig3": ("kappa_over_omega_m", None, _GAMMA_L_TRIPLET, None, "e_n"),
    "fig4": ("delta_over_omega_m", 0.5, None, _OMEGA_TRIPLET, "e_n"),
    "fig5": ("kappa_over_omega_m", None, None, _OMEGA_TRIPLET, "e_n"),
    "fig6": ("delta_over_omega_m", 1.0, _GAMMA_L_TRIPLET, None, "n_eff"),
    "fig7": ("kappa_over_omega_m", None, _GAMMA_L_TRIPLET, None, "n_eff"),
    "fig8": ("delta_over_omega_m", 1.0, None, _OMEGA_TRIPLET, "n_eff"),
    "fig9": ("kappa_over_omega_m", None, None, _OMEGA_TRIPLET, "n_eff"),
}

_AXIS_RANGES = {
    "power_mw": (1.0, 50.0),
    "delta_over_omega_m": (0.25, 2.0),
    "kappa_over_omega_m": (0.1, 2.0),
}


def default_fixed_params() -> SystemParams:
    """Shared fixed parameters of all figure recipes."""
    omega_m = 2.0 * math.pi * 1e7
    return SystemParams(
        omega_m=omega_m,
        quality_factor=2e6,
        kappa=0.5 * omega_m,
        detuning=omega_m,
        g0=1e3,
        laser_power=20e-3,
        laser_wavelength=810e-9,
        bath_temperature=0.4,
        phase_noise=NoiseSpec.none(),
        detuning_mode=EFFECTIVE,
    )


def figure_recipe(fig_id: str, grid: tuple[int, int] = (80, 80)) -> SweepSpec:
    """Named sweep recipe fig2a ... fig9c.

    Letters a/b/c select the laser linewidth (0, 0.1, 1 kHz cyclic) for
    figures 2/3/6/7 and the noise band center (30, 80, 140 kHz cyclic) for
    figures 4/5/8/9; ``grid`` overrides the (count_x, count_y) resolution.
    """
    fig, letter = fig_id[:-1], fig_id[-1]
    if fig not in _FIGURES or letter not in "abc":
        raise ValueError(f"unknown recipe {fig_id!r}; valid: "
                         + ", ".join(f"{f}{c}" for f in _FIGURES for c in "abc"))
    y_name, kappa_ratio, gammas, bands, primary = _FIGURES[fig]
    idx = "abc".index(letter)
    gamma_l = gammas[idx] if gammas else 2.0 * math.pi * 100.0
    band = bands[idx] if bands else _OMEGA_DEFAULT
    noise = (NoiseSpec.none() if gamma_l == 0.0
             else NoiseSpec.bandpass(gamma_l, band, band / 2.0))
    fixed = default_fixed_params().with_(phase_noise=noise)
    if kappa_ratio is not None:
        fixed = fixed.with_(kappa=kappa_ratio * fixed.omega_m)
    lo_x, hi_x = _AXIS_RANGES["power_mw"]
    lo_y, hi_y = _AXIS_RANGES[y_name]
    outputs = (primary,) + tuple(o for o in OUTPUT_NAMES if o != primary)
    return SweepSpec(
        axis_x=SweepAxis("power_mw", lo_x, hi_x, grid[0]),
        axis_y=SweepAxis(y_name, lo_y, hi_y, grid[1]),
        fixed=fixed,
        outputs=outputs,
        recipe=fig_id,
    )


def emit_figure_data(result: SweepResult, out_dir, stem: str | None = None,
                     output: str | None = None) -> list[str]:
    """Write the long CSV and the gnuplot grid file for one sweep.

    Returns the written paths; identical inputs produce byte-identical files.
    """
    import os

    stem = stem or result.spec.recipe or "sweep"
    output = output or result.spec.outputs[0]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    grid_path = os.path.join(out_dir, f"{stem}.grid.txt")
    result.write_csv(csv_path)
    result.write_grid(grid_path, output)
    return [csv_path, grid_path]
