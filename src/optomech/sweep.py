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
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import build_model, stability_margin
from .errors import PointEvaluationError, field_error
from .lyapunov import reduce_to_optomechanical, solve_lyapunov
from .measures import log_negativity, occupancy
from .output import (Columns, format_column, tool_metadata, write_document,
                     write_table)
from .parameters import (EFFECTIVE, NoiseSpec, SystemParams, _concatenate,
                         _one_point, _unchecked, solve_steady_state)
from .spectral import approx_n_eff

AXIS_NAMES = ("power_mw", "delta_over_omega_m", "kappa_over_omega_m")
OUTPUT_NAMES = ("e_n", "n_eff", "eta_minus", "stability_margin", "g_eff",
                "alpha_abs")
# the most points a sweep sends through the pipeline as one slice of its
# grid: enough for a 40x40 grid at once, few enough to bound a large
# grid's peak memory whatever its shape
STACK_POINTS = 4096


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: which knob, its range, grid size, and spacing.

    The bounds must be finite and the count an integer >= 2.
    """

    name: str
    minimum: float
    maximum: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}")
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise ValueError(f"axis count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError("axis bounds must be finite")
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
    """What the point pipeline knows about one working point, or a stack.

    A point holds one value per field, None where a field is null. A stack
    of N points is the same record with one array item per point in every
    field; there a null is NaN in a float field and None in ``error``, and
    ``results[i]`` is the point ``i``.
    """

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

    def __len__(self) -> int:
        return len(self.stable)

    def __getitem__(self, i: int) -> "PointResult":
        """The point ``i`` of a stack."""
        values = {name: getattr(self, name).item(i) for name in _FIELDS}
        for name in _NULLABLE:
            if values[name] != values[name]:
                values[name] = None
        return _unchecked(PointResult, values)


_FIELDS = tuple(f.name for f in dataclasses.fields(PointResult))
# PointResult fields taken from the measures of a stable point, by the
# EntanglementResult or OccupancyResult field they come from
_MEASURED = {"e_n": "log_negativity", "eta_minus": "eta_minus",
             "raw_log_negativity": "raw_log_negativity", "n_eff": "n_eff",
             "energy_j": "energy", "heisenberg_min": "heisenberg_min"}
# the float fields a point may lack: NaN in a stack, None in a point
_NULLABLE = ("stability_margin", "n_eff_approx", *_MEASURED)


def _failed(message: str) -> PointResult:
    """The stack of one point whose evaluation failed with ``message``."""
    values = {name: np.full(1, np.nan) for name in _FIELDS}
    values.update(stable=np.zeros(1, dtype=bool), branch=np.array(["error"]),
                  error=np.array([message], dtype=object))
    return PointResult(**values)


def apply_axis(params, name: str, value):
    """Return the parameters with one sweep knob applied.

    ``params`` is one point with a scalar ``value``, or a stack with a value
    or one value per point, broadcast over the stack by ``with_``.
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


def _stacked(name: str, params) -> SystemParams:
    """A stack as it is, or the stack of a sequence of points.

    One point raises ValueError naming ``name``.
    """
    if not isinstance(params, SystemParams):
        return SystemParams.stack(params)
    if not np.ndim(params.omega_m):
        raise ValueError(f"{name} takes a stack or a sequence of points, not one point")
    return params


def run_pipeline(params) -> tuple:
    """The point pipeline over many points, each stage run once on the stack.

    ``params`` is a stack or a sequence of points. Returns the stacked
    results (a PointResult), the stacked working points (a SteadyState)
    and one ``(indices, LinearModel)`` stack per model order. Points are
    grouped by model order (6 with bandpass noise, else 4), the whole stack
    being one group where all points share one and an empty stack none;
    each group's drifts, diffusions and covariances are (N, n, n) stacks.
    Each model's ``stable`` verdict, which ``build_model`` takes by
    Routh-Hurwitz, decides stability and goes to ``solve_lyapunov(stable=)``
    as the Hurwitz guard, so no stage solves for eigenvalues of a drift. The
    stages read the bath phonon number and the noise pair's abscissa that
    each point carries, so neither is taken here.
    Unstable points carry stability data only, with null measures; a
    stable point whose weak-coupling closed form fails keeps its exact
    measures with a null ``n_eff_approx``. A failing stage raises
    PointEvaluationError for the whole stack; ``evaluate_batch`` isolates
    the failing point.
    """
    params = _stacked("run_pipeline", params)
    count = len(params)
    ss = _stage("steady-state", solve_steady_state, params)
    bandpass = params.phase_noise.kind == "bandpass"
    groups = [idx for idx in (np.flatnonzero(bandpass), np.flatnonzero(~bandpass))
              if idx.size]
    stable = np.zeros(count, dtype=bool)
    measured = np.full((len(_MEASURED), count), np.nan)
    models = []
    for idx in groups:
        group = (params, ss) if idx.size == count else (params.take(idx), ss.take(idx))
        model = _stage("linear-model", build_model, *group)
        models.append((idx, model))
        group_stable = model.stable
        stable[idx] = group_stable
        settled = np.count_nonzero(group_stable)
        if not settled:
            continue
        # the stable points, taken as a view where the group is all stable
        keep = slice(None) if settled == idx.size else group_stable
        cov = _stage("lyapunov", solve_lyapunov, model.drift[keep],
                     model.diffusion[keep], stable=group_stable[keep])
        v4 = reduce_to_optomechanical(cov) if cov.order == 6 else cov
        ent = _stage("log-negativity", log_negativity, v4)
        occ = _stage("occupancy", occupancy, v4, group[0].omega_m[keep])
        found = {**vars(ent), **vars(occ)}
        measured[:, idx[keep]] = [found[key] for key in _MEASURED.values()]
    measured = dict(zip(_MEASURED, measured))

    # the closed form is a cross-check of the measured points: its value is
    # NaN, a null, where a flag puts a point outside its reach, not an
    # error row
    approx = np.full(count, np.nan)
    if np.count_nonzero(stable):
        approx = np.where(stable, approx_n_eff(params, ss).value, np.nan)
    # every field was just made here: the record takes them as they are
    results = _unchecked(PointResult, dict(
        stable=stable, stability_margin=stability_margin(params, ss).value,
        alpha_abs=ss.alpha_abs, photon_number=ss.photon_number, g_eff=ss.g_eff,
        branch=ss.branch, **measured, n_eff_approx=approx,
        error=np.full(count, None, dtype=object)))
    return results, ss, tuple(models)


def evaluate_point(params: SystemParams) -> PointResult:
    """Full pipeline at one working point: a batch of one.

    Unstable points return stability data only, with null measures; a
    failing stage raises PointEvaluationError naming it, a stack ValueError.
    """
    _one_point("evaluate_point", params.omega_m)
    return run_pipeline([params])[0][0]


def evaluate_batch(params) -> PointResult:
    """Results of many points, with a failing point isolated to its own row.

    ``params`` is a stack or a sequence of points. The points run through
    the pipeline as one stack. If a stage fails, each half of the stack is
    evaluated again the same way, so only the point that fails gets an
    error row, which names the failing stage; one failing point among N
    costs 2 ceil(log2 N) + 1 pipeline runs.
    """
    params = _stacked("evaluate_batch", params)
    try:
        return run_pipeline(params)[0]
    except PointEvaluationError as err:
        if len(params) == 1:
            return _failed(str(err))
    half = len(params) // 2
    return _concatenate([evaluate_batch(params.take(slice(None, half))),
                         evaluate_batch(params.take(slice(half, None)))])


@dataclass(frozen=True)
class SweepResult:
    """Row-major (x outer, y inner) grid of point results plus metadata.

    ``results`` is the stacked PointResult of the grid; ``points`` gives
    its rows as one-point records.
    """

    spec: SweepSpec
    x_values: np.ndarray
    y_values: np.ndarray
    results: PointResult
    metadata: dict

    @property
    def points(self) -> tuple[PointResult, ...]:
        return tuple(self.results)

    @property
    def n_failures(self) -> int:
        return sum(e is not None for e in self.results.error.tolist())

    def grid(self, output: str) -> np.ndarray:
        """Output as a (count_x, count_y) float array, NaN where null."""
        if output not in OUTPUT_NAMES:
            raise ValueError(f"unknown output {output!r}")
        return getattr(self.results, output).reshape(len(self.x_values),
                                                      len(self.y_values))

    def _table(self) -> Columns:
        """The results as the writers' table, null where a float is NaN."""
        values = vars(self.results)
        return Columns(values=values,
                       null={name: np.isnan(values[name]) for name in _NULLABLE})

    def _axis_cells(self) -> list[list[str]]:
        """The x and y cells of every row, each axis value formatted once."""
        ny = len(self.y_values)
        return [[c for c in format_column(self.x_values) for _ in range(ny)],
                format_column(self.y_values) * len(self.x_values)]

    def write_csv(self, path) -> None:
        names = [*self.spec.outputs, "stable", "branch", "error"]
        table = self._table()
        header = [self.spec.axis_x.name, self.spec.axis_y.name, *names]
        write_table(path, self.metadata, ",".join(header),
                    self._axis_cells() + [table.cells(n) for n in names])

    def write_json(self, path) -> None:
        write_document(path, {
            "metadata": self.metadata,
            "x_values": [float(v) for v in self.x_values],
            "y_values": [float(v) for v in self.y_values],
            "rows": self._table(),
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


def _evaluate_slice(args) -> PointResult:
    """The grid points ``start`` to ``stop`` of a sweep, as one stack."""
    spec, start, stop = args
    ys = spec.axis_y.values()
    x_idx, y_idx = np.divmod(np.arange(start, stop), ys.size)
    stack = apply_axis(SystemParams.repeat(spec.fixed, stop - start),
                       spec.axis_x.name, spec.axis_x.values()[x_idx])
    return evaluate_batch(apply_axis(stack, spec.axis_y.name, ys[y_idx]))


def _slices(count: int, n_jobs: int) -> list:
    """The ``(start, stop)`` ranges of a grid's ``count`` points, in order:
    ``max(min(n_jobs, count), ceil(count / STACK_POINTS))`` slices whose
    sizes differ by one point at most."""
    slices = max(min(n_jobs, count), -(-count // STACK_POINTS))
    size, extra = divmod(count, slices)
    edges = [i * size + min(i, extra) for i in range(slices + 1)]
    return list(zip(edges[:-1], edges[1:]))


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> SweepResult:
    """Evaluate the grid (optionally in parallel); row order is deterministic.

    The grid's points, x outer and y inner, go through the point pipeline
    in the slices of ``_slices``, each one stack; ``n_jobs`` workers share
    them, and a point gets the same bits in any slice. Per-point failures
    are recorded on the row and the run continues.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    xs = spec.axis_x.values()
    ys = spec.axis_y.values()
    tasks = [(spec, *s) for s in _slices(xs.size * ys.size, n_jobs)]
    # a worker per slice at most: each worker process starts up front
    workers = min(n_jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            stacks = list(pool.map(_evaluate_slice, tasks))
    else:
        stacks = [_evaluate_slice(t) for t in tasks]
    metadata = tool_metadata(
        recipe=spec.recipe,
        branch_policy="lower",
        axis_x=dataclasses.asdict(spec.axis_x),
        axis_y=dataclasses.asdict(spec.axis_y),
        outputs=list(spec.outputs),
        fixed_params=dataclasses.asdict(spec.fixed),
    )
    return SweepResult(spec=spec, x_values=xs, y_values=ys,
                       results=_concatenate(stacks),
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
