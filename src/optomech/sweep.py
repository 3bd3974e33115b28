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
from dataclasses import dataclass

import numpy as np

from .dynamics import LinearModel, build_model, stability_margin
from .errors import PointEvaluationError, field_error
from .lyapunov import reduce_to_optomechanical, solve_lyapunov
from .measures import log_negativity, occupancy
from .output import (Columns, format_column, tool_metadata, write_document,
                     write_table)
from .parameters import (EFFECTIVE, NoiseSpec, SteadyState, SystemParams,
                         solve_steady_state)
from .spectral import approx_n_eff

AXIS_NAMES = ("power_mw", "delta_over_omega_m", "kappa_over_omega_m")
OUTPUT_NAMES = ("e_n", "n_eff", "eta_minus", "stability_margin", "g_eff",
                "alpha_abs")


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
            raise field_error(ValueError, "outputs", "no outputs requested; "
                              f"valid outputs: {OUTPUT_NAMES}")
        bad = [o for o in self.outputs if o not in OUTPUT_NAMES]
        if bad:
            raise field_error(ValueError, "outputs", f"unknown outputs {bad}; "
                              f"valid outputs: {OUTPUT_NAMES}")
        repeated = [o for i, o in enumerate(self.outputs) if o in self.outputs[:i]]
        if repeated:
            raise field_error(ValueError, "outputs", "outputs repeat "
                              f"{repeated[0]!r}; each output is one column")


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


_FIELDS = tuple(f.name for f in dataclasses.fields(PointResult))
# PointResult fields taken from the measures of a stable point, by the
# EntanglementResult or OccupancyResult field they come from
_MEASURED = {"e_n": "log_negativity", "eta_minus": "eta_minus",
             "raw_log_negativity": "raw_log_negativity", "n_eff": "n_eff",
             "energy_j": "energy", "heisenberg_min": "heisenberg_min"}
_NULLABLE = ("stability_margin", "n_eff_approx", "error", *_MEASURED)


class PointColumns(Columns):
    """Results of many points: one array per PointResult field, row-aligned.

    It is also the sequence of its rows, each a PointResult view.
    """

    def __getitem__(self, i: int) -> PointResult:
        null = self.null
        return PointResult(*(None if name in null and null[name][i]
                             else self.values[name].item(i) for name in _FIELDS))

    def __iter__(self):
        return iter(self.rows())

    def rows(self) -> tuple[PointResult, ...]:
        """Every row as a PointResult, None where a field is null."""
        lists = []
        for name in _FIELDS:
            items = self.values[name].tolist()
            if name in self.null:
                items = [None if n else v
                         for v, n in zip(items, self.null[name].tolist())]
            lists.append(items)
        return tuple(PointResult(*row) for row in zip(*lists))

    @classmethod
    def concatenate(cls, parts) -> "PointColumns":
        parts = list(parts)
        return cls(values={name: np.concatenate([p.values[name] for p in parts])
                           for name in _FIELDS},
                   null={name: np.concatenate([p.null[name] for p in parts])
                         for name in parts[0].null})

    @classmethod
    def error_row(cls, message: str) -> "PointColumns":
        """The row of a point whose evaluation failed with ``message``."""
        values = dict(stable=np.zeros(1, dtype=bool), branch=np.array(["error"]),
                      error=np.array([message], dtype=object))
        values.update((name, np.full(1, np.nan)) for name in _FIELDS
                      if name not in values)
        null = {name: np.ones(1, dtype=bool) for name in _NULLABLE}
        null["error"] = np.zeros(1, dtype=bool)
        return cls(values=values, null=null)


def apply_axis(params, name: str, value):
    """Return the parameters with one sweep knob applied.

    ``params`` is one point with a scalar ``value``, or a stack with a value
    or one value per point.
    """
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


@dataclass(frozen=True)
class PipelineColumns:
    """What the point pipeline knows about many points, column by column.

    ``models`` holds one ``(indices, LinearModel)`` stack per model order.
    It is also the sequence of its rows, each a PointEvaluation view.
    """

    results: PointColumns
    steady_states: SteadyState
    models: tuple

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> PointEvaluation:
        i = range(len(self))[i]
        model = next(model[np.flatnonzero(idx == i)[0]]
                     for idx, model in self.models if i in idx)
        return PointEvaluation(self.results[i], self.steady_states[i], model)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def run_pipeline(params) -> PipelineColumns:
    """The point pipeline over many points, each stage run once on the stack.

    ``params`` is a stack or a sequence of points. Points are
    grouped by model order (6 with bandpass noise, else 4); each group's
    drifts, diffusions and covariances are (N, n, n) stacks, and one
    eigenvalue solve per drift decides stability and serves as the Hurwitz
    guard of the Lyapunov solve. Unstable points carry stability data
    only, with null measures; a stable point whose weak-coupling closed
    form fails keeps its exact measures with a null ``n_eff_approx``. A
    failing stage raises PointEvaluationError for the whole stack;
    ``evaluate_batch`` isolates the failing point.
    """
    if not isinstance(params, SystemParams):
        params = SystemParams.stack(params)
    count = len(params)
    ss = _stage("steady-state", solve_steady_state, params)
    bandpass = params.phase_noise.kind == "bandpass"
    stable = np.zeros(count, dtype=bool)
    measured = np.full((len(_MEASURED), count), np.nan)
    models = []
    for idx in (np.flatnonzero(bandpass), np.flatnonzero(~bandpass)):
        if not idx.size:
            continue
        group = (params, ss) if idx.size == count else (params.take(idx),
                                                       ss.take(idx))
        model = _stage("linear-model", build_model, *group)
        models.append((idx, model))
        group_stable = model.stable
        stable[idx] = group_stable
        if not group_stable.any():
            continue
        cov = _stage("lyapunov", solve_lyapunov, model.drift[group_stable],
                     model.diffusion[group_stable],
                     abscissa=model.abscissa[group_stable])
        v4 = reduce_to_optomechanical(cov) if cov.order == 6 else cov
        ent = _stage("log-negativity", log_negativity, v4)
        occ = _stage("occupancy", occupancy, v4,
                     group[0].omega_m[group_stable])
        found = {**vars(ent), **vars(occ)}
        measured[:, idx[group_stable]] = [found[key] for key in _MEASURED.values()]
    measured = dict(zip(_MEASURED, measured))

    # the closed form is a cross-check of the measured points: one outside
    # its reach gets a null, not an error row
    approx, approx_null = np.full(count, np.nan), ~stable
    if stable.any():
        form = approx_n_eff(params, ss)
        approx = form.value
        approx_null = (approx_null | form.flags["imaginary_spring"]
                       | form.flags["undamped_band"]
                       | form.flags["imaginary_static"])
    margin = stability_margin(params, ss)
    values = dict(
        stable=stable, stability_margin=margin.value,
        alpha_abs=ss.alpha_abs, photon_number=ss.photon_number, g_eff=ss.g_eff,
        branch=ss.branch, **measured, n_eff_approx=approx,
        error=np.full(count, None, dtype=object))
    null = dict(stability_margin=margin.flags["nonpositive_detuning"],
                error=np.ones(count, dtype=bool), n_eff_approx=approx_null,
                **dict.fromkeys(_MEASURED, ~stable))
    return PipelineColumns(PointColumns(values=values, null=null), ss,
                           tuple(models))


def evaluate_point(params: SystemParams) -> PointResult:
    """Full pipeline at one working point: a batch of one.

    Unstable points return stability data only, with null measures; a
    failing stage raises PointEvaluationError naming it.
    """
    return run_pipeline([params]).results[0]


def evaluate_batch(params) -> PointColumns:
    """Results of many points, with a failing point isolated to its own row.

    ``params`` is a stack or a sequence of points. The points
    run through the pipeline as one stack. If a stage fails, they are run
    again one at a time, so only the point that fails gets an error row,
    which names the failing stage.
    """
    if not isinstance(params, SystemParams):
        params = SystemParams.stack(params)
    try:
        return run_pipeline(params).results
    except PointEvaluationError:
        pass
    rows = []
    for i in range(len(params)):
        try:
            rows.append(run_pipeline(params.take([i])).results)
        except PointEvaluationError as err:
            rows.append(PointColumns.error_row(str(err)))
    return PointColumns.concatenate(rows)


@dataclass(frozen=True)
class SweepResult:
    """Row-major (x outer, y inner) grid of point results plus metadata.

    ``columns`` holds one array per PointResult field; ``points`` gives the
    rows as PointResult views.
    """

    spec: SweepSpec
    x_values: np.ndarray
    y_values: np.ndarray
    columns: PointColumns
    metadata: dict

    @property
    def points(self) -> tuple[PointResult, ...]:
        return self.columns.rows()

    @property
    def n_failures(self) -> int:
        return int(np.count_nonzero(~self.columns.null["error"]))

    def grid(self, output: str) -> np.ndarray:
        """Output as a (count_x, count_y) float array, NaN where null."""
        if output not in OUTPUT_NAMES:
            raise ValueError(f"unknown output {output!r}")
        values = self.columns.values[output]
        null = self.columns.null.get(output)
        if null is not None:
            values = np.where(null, np.nan, values)
        return values.reshape(len(self.x_values), len(self.y_values))

    def _axis_cells(self) -> list[list[str]]:
        """The x and y cells of every row, each axis value formatted once."""
        ny = len(self.y_values)
        return [[c for c in format_column(self.x_values) for _ in range(ny)],
                format_column(self.y_values) * len(self.x_values)]

    def write_csv(self, path) -> None:
        names = [*self.spec.outputs, "stable", "branch", "error"]
        header = [self.spec.axis_x.name, self.spec.axis_y.name, *names]
        write_table(path, self.metadata, ",".join(header),
                    self._axis_cells() + [self.columns.cells(n) for n in names])

    def write_json(self, path) -> None:
        write_document(path, {
            "metadata": self.metadata,
            "x_values": [float(v) for v in self.x_values],
            "y_values": [float(v) for v in self.y_values],
            "rows": self.columns,
        })

    def write_grid(self, path, output: str) -> None:
        """Gnuplot-style matrix: x y z rows, blank line between x-blocks."""
        if output not in self.spec.outputs:
            raise ValueError(f"output {output!r} not in {self.spec.outputs}")
        write_table(path, self.metadata,
                    f"# columns: {self.spec.axis_x.name} "
                    f"{self.spec.axis_y.name} {output}",
                    self._axis_cells() + [format_column(self.grid(output).ravel())],
                    sep=" ", eol="\n", block=len(self.y_values))


def _evaluate_column(args) -> PointColumns:
    """One sweep column: the y axis goes in as an array, as one batch."""
    spec, x = args
    ys = spec.axis_y.values()
    column = apply_axis(SystemParams.repeat(spec.fixed, len(ys)),
                        spec.axis_x.name, x)
    return evaluate_batch(apply_axis(column, spec.axis_y.name, ys))


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Evaluate the grid (optionally in parallel); row order is deterministic.

    Per-point failures are recorded on the row and the run continues.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    xs = spec.axis_x.values()
    ys = spec.axis_y.values()
    tasks = [(spec, float(x)) for x in xs]
    # a worker per column at most: each worker process starts up front
    workers = min(n_jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(_evaluate_column, tasks))
    else:
        columns = [_evaluate_column(t) for t in tasks]
    metadata = tool_metadata(
        recipe=spec.recipe,
        branch_policy="lower",
        axis_x=dataclasses.asdict(spec.axis_x),
        axis_y=dataclasses.asdict(spec.axis_y),
        outputs=list(spec.outputs),
        fixed_params=dataclasses.asdict(spec.fixed),
    )
    return SweepResult(spec=spec, x_values=xs, y_values=ys,
                       columns=PointColumns.concatenate(columns),
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
    valid = [f"{f}{c}" for f in _FIGURES for c in "abc"]
    if fig_id not in valid:
        raise ValueError(f"unknown recipe {fig_id!r}; valid: " + ", ".join(valid))
    fig, letter = fig_id[:-1], fig_id[-1]
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


def emit_figure_data(result: SweepResult, out_dir,
                     stem: str | None = None) -> list[str]:
    """Write the long CSV and the gnuplot grid file for one sweep.

    Returns the written paths; identical inputs produce byte-identical files.
    """
    import os

    stem = stem or result.spec.recipe or "sweep"
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    grid_path = os.path.join(out_dir, f"{stem}.grid.txt")
    result.write_csv(csv_path)
    result.write_grid(grid_path, result.spec.outputs[0])
    return [csv_path, grid_path]
