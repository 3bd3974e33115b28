import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech import (NoiseSpec, SweepAxis, SweepSpec, SystemParams,
                      apply_axis, approx_n_eff, build_model, check_physical,
                      cm_spectral_oracle, default_fixed_params,
                      emit_figure_data, evaluate_batch,
                      evaluate_point, figure_recipe, log_negativity, occupancy,
                      power_for_coupling, reduce_to_optomechanical,
                      run_pipeline, run_sweep, solve_lyapunov,
                      solve_steady_state, stability_margin,
                      static_phase_noise_heating, symplectic_eigenvalues,
                      thermal_occupancy)
from optomech.errors import ImaginaryFrequency, PointEvaluationError
from optomech.output import format_column

from conftest import (MIXED, OMEGA_M, bandpass_100hz, grid_points,
                      make_params, mp_eta_minus, poison_nth, relative_gap)

G_THRESHOLD = math.sqrt(1.25) * OMEGA_M  # at delta = omega_m, kappa = omega_m/2
# resonant drive: the terms A V and V A^T of the Lyapunov residual, which
# cancel, are far larger than D
RESONANT = make_params(kappa=OMEGA_M, detuning=0.0, laser_power=0.0625)


def small_spec(**spec_overrides) -> SweepSpec:
    values = dict(
        axis_x=SweepAxis("power_mw", 5.0, 25.0, 3),
        axis_y=SweepAxis("delta_over_omega_m", 0.8, 1.2, 2),
        fixed=make_params(phase_noise=bandpass_100hz()),
    )
    values.update(spec_overrides)
    return SweepSpec(**values)


class TestEvaluatePoint:
    def test_uncoupled_noise_free_point(self):
        result = evaluate_point(make_params(laser_power=0.0))
        assert result.stable
        assert result.e_n == 0.0
        assert result.n_eff == pytest.approx(
            thermal_occupancy(OMEGA_M, 0.4), rel=1e-9)
        # the vacuum optical mode pins eta_minus at exactly 1/2
        assert result.raw_log_negativity <= 0.0
        assert result.eta_minus == pytest.approx(0.5, abs=1e-12)

    def test_reference_point_is_entangled(self):
        result = evaluate_point(make_params())
        assert result.stable
        assert result.stability_margin < 1.0
        assert result.e_n > 0.0
        assert result.heisenberg_min >= 0.5 - 1e-9
        p = make_params()
        model = build_model(p, solve_steady_state(p))
        cov = solve_lyapunov(model.drift, model.diffusion)  # 4x4: no noise
        assert result.heisenberg_min == float(
            np.min(symplectic_eigenvalues(cov.matrix)))
        assert result.heisenberg_min == log_negativity(cov).heisenberg_min

    def test_high_occupancy_point_keeps_eta_minus(self):
        # a 1e-4 rad/s noise band: max|V4| is 6.2e11 and the state is
        # separable (eta_minus 1.87); the four-determinant formula cancelled
        # to 0 here and reported e_n = inf
        p = default_fixed_params().with_(phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, 1e-4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = evaluate_point(p)
        _, _, ((_, model),) = run_pipeline([p])
        v4 = reduce_to_optomechanical(solve_lyapunov(
            model.drift, model.diffusion, stable=model.stable)).matrix[0]
        assert np.abs(v4).max() > 1e11
        assert result.eta_minus == pytest.approx(mp_eta_minus(v4), rel=1e-8)
        assert result.e_n == 0.0
        assert math.isfinite(result.raw_log_negativity)

    def test_unstable_point_has_null_measures(self):
        p = make_params()
        p = p.with_(laser_power=power_for_coupling(p, 1.1 * G_THRESHOLD))
        result = evaluate_point(p)
        assert not result.stable
        assert result.stability_margin > 1.0
        assert result.e_n is None and result.n_eff is None
        assert result.eta_minus is None

    @pytest.mark.filterwarnings("ignore:occupancy formula assumes")
    def test_closed_form_failure_keeps_exact_measures(self):
        # bare detuning 2 omega_m, 300 mW, kappa 0.12 omega_m, white noise:
        # the drift is stable, but the weak-coupling effective mechanical
        # frequency is imaginary
        p = make_params(laser_power=0.3, kappa=0.12 * OMEGA_M,
                        detuning=2.0 * OMEGA_M, detuning_mode="bare",
                        phase_noise=NoiseSpec.white(2.0 * math.pi * 100.0))
        with pytest.raises(ImaginaryFrequency):
            approx_n_eff(p, solve_steady_state(p)).checked()
        result = evaluate_point(p)
        assert result.stable and result.error is None
        assert result.n_eff_approx is None
        model = build_model(p, solve_steady_state(p))
        cov = solve_lyapunov(model.drift, model.diffusion)
        assert result.e_n == log_negativity(cov).log_negativity
        assert result.n_eff is not None and result.n_eff > 0.0
        assert evaluate_batch([p, make_params()])[0] == result

    def test_resonant_drive_is_solved(self):
        p = RESONANT
        result = evaluate_point(p)
        assert result.stable and result.error is None
        model = build_model(p, solve_steady_state(p))
        assert relative_gap(solve_lyapunov(model.drift, model.diffusion).matrix,
                            solve_lyapunov(model.drift, model.diffusion,
                                           method="schur").matrix) <= 1e-9

    def test_stage_context_on_failure(self, monkeypatch):
        import optomech.sweep as sweep_mod

        def broken(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "log_negativity", broken)
        with pytest.raises(PointEvaluationError) as err:
            evaluate_point(make_params())
        assert err.value.stage == "log-negativity"
        assert "synthetic failure" in str(err.value)


class TestSweepSpecValidation:
    def test_distinct_axes_required(self):
        with pytest.raises(ValueError):
            small_spec(axis_y=SweepAxis("power_mw", 1.0, 2.0, 2))

    def test_axis_bounds(self):
        with pytest.raises(ValueError):
            SweepAxis("power_mw", 5.0, 5.0, 4)
        with pytest.raises(ValueError):
            SweepAxis("power_mw", 1.0, 2.0, 1)
        with pytest.raises(ValueError):
            SweepAxis("power_mw", 0.0, 2.0, 4, scale="log")
        with pytest.raises(ValueError):
            SweepAxis("voltage", 1.0, 2.0, 4)
        # rejected when the axis is made, not when a sweep reads its values
        for minimum, maximum, count in [
                (1.0, math.inf, 3), (-math.inf, 2.0, 3), (math.nan, 2.0, 3),
                (1.0, math.nan, 3), (1.0, 2.0, 2.5), (1.0, 2.0, 3.0),
                (1.0, 2.0, True), (1.0, 2.0, "3")]:
            with pytest.raises(ValueError, match="finite|integer"):
                SweepAxis("power_mw", minimum, maximum, count)
        assert SweepAxis("power_mw", 1.0, 2.0, np.int64(3)).values().size == 3

    def test_outputs_validated_with_listing(self):
        with pytest.raises(ValueError, match="valid outputs"):
            small_spec(outputs=())
        with pytest.raises(ValueError, match="valid outputs"):
            small_spec(outputs=("e_n", "purity"))

    def test_repeated_outputs_rejected(self):
        # one column per output: a repeat would write the column twice
        with pytest.raises(ValueError, match="outputs repeat 'e_n'") as info:
            dataclasses.replace(figure_recipe("fig2b", grid=(2, 2)),
                                outputs=("e_n", "e_n"))
        assert info.value.field == "outputs"

    def test_log_axis_values(self):
        axis = SweepAxis("power_mw", 1.0, 100.0, 3, scale="log")
        np.testing.assert_allclose(axis.values(), [1.0, 10.0, 100.0], rtol=1e-12)


class TestRunSweep:
    def test_grid_shape_and_order(self, tmp_path):
        res = run_sweep(small_spec())
        assert len(res.points) == 6
        res.write_csv(tmp_path / "grid.csv")
        rows = [line.split(",") for line in
                (tmp_path / "grid.csv").read_text().splitlines()[2:]]
        xs = [float(row[0]) for row in rows]
        ys = [float(row[1]) for row in rows]
        assert xs == sorted(xs)  # x outer
        assert ys[:2] == [0.8, 1.2]  # y inner, row-major
        assert res.metadata["outputs"][0] == "e_n"
        assert res.metadata["fixed_params"]["omega_m"] == OMEGA_M

    def test_deterministic_and_order_independent(self):
        r1 = run_sweep(small_spec())
        r2 = run_sweep(small_spec())
        for p1, p2 in zip(r1.points, r2.points):
            assert p1 == p2

    def test_worker_count_does_not_change_results(self, tmp_path):
        r1 = run_sweep(small_spec(), n_jobs=1)
        r2 = run_sweep(small_spec(), n_jobs=2)
        assert len(r1.points) == len(r2.points)
        for p1, p2 in zip(r1.points, r2.points):
            assert p1 == p2
        for stem, res in (("serial", r1), ("pooled", r2)):
            emit_figure_data(res, tmp_path, stem=stem)
            res.write_json(tmp_path / f"{stem}.json")
        for ext in (".csv", ".grid.txt", ".json"):
            assert (tmp_path / f"serial{ext}").read_bytes() == \
                (tmp_path / f"pooled{ext}").read_bytes()

    def test_pool_has_a_worker_per_slice_at_most(self, monkeypatch):
        import concurrent.futures

        asked = []

        class Executor:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        spec = small_spec(axis_x=SweepAxis("power_mw", 5.0, 25.0, 2),
                          axis_y=SweepAxis("delta_over_omega_m", 0.8, 1.2, 2))
        pooled = run_sweep(spec, n_jobs=8)
        assert asked == [4]  # one point per slice
        assert pooled.points == run_sweep(spec).points
        # two columns share three workers, each taking points of either
        run_sweep(small_spec(axis_x=SweepAxis("power_mw", 5.0, 25.0, 2)), n_jobs=3)
        assert asked == [4, 3]

    @pytest.mark.parametrize("count_x, count_y, n_jobs", [
        (40, 40, 1), (40, 40, 2), (200, 200, 1), (200, 200, 2), (3, 2, 4),
        (9, 900, 1), (2, 5000, 1), (1, 5, 2), (1, 9000, 2)])
    def test_stacks_are_whole_columns_within_the_cap(self, count_x, count_y,
                                                     n_jobs):
        """The stacks may cut a column, the name notwithstanding: they are
        slices that cover the grid's points in order, each within the cap."""
        import optomech.sweep as sweep_mod

        count = count_x * count_y
        slices = sweep_mod._slices(count, n_jobs)
        starts, stops = zip(*slices)
        assert starts[0] == 0 and stops[-1] == count
        assert starts[1:] == stops[:-1]
        sizes = [stop - start for start, stop in slices]
        assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1
        # whatever the grid's shape, a long column included
        assert max(sizes) <= sweep_mod.STACK_POINTS
        assert len(slices) >= min(n_jobs, count)

    def test_stack_counts(self):
        import optomech.sweep as sweep_mod

        assert 1600 <= sweep_mod.STACK_POINTS
        assert sweep_mod._slices(40 * 40, 1) == [(0, 1600)]
        assert sweep_mod._slices(40 * 40, 2) == [(0, 800), (800, 1600)]
        assert sweep_mod._slices(80 * 80, 1) == [(0, 3200), (3200, 6400)]
        assert len(sweep_mod._slices(200 * 200, 1)) == -(
            -40000 // sweep_mod.STACK_POINTS)
        # a 2x5000 grid is no longer two 5000-point stacks
        assert sweep_mod._slices(2 * 5000, 1) == [(0, 3334), (3334, 6667),
                                                  (6667, 10000)]
        # nor a one-column grid one process
        assert sweep_mod._slices(1 * 5, 2) == [(0, 3), (3, 5)]

    def test_jobs_give_the_same_bytes_over_several_stacks(self, tmp_path,
                                                          monkeypatch):
        import optomech.sweep as sweep_mod
        from optomech import cli

        argv = ["sweep", "--recipe", "fig2b", "--grid", "7x5"]
        assert cli.main([*argv, "--out-dir", str(tmp_path / "one")]) == 0
        monkeypatch.setattr(sweep_mod, "STACK_POINTS", 10)
        # four slices, each but the first starting inside a column
        slices = sweep_mod._slices(7 * 5, 1)
        assert slices == [(0, 9), (9, 18), (18, 27), (27, 35)]
        assert all(start % 5 for start, _ in slices[1:])
        for jobs in ("1", "2"):
            assert cli.main([*argv, "--jobs", jobs,
                             "--out-dir", str(tmp_path / jobs)]) == 0
        for name in ("fig2b.csv", "fig2b.grid.txt", "fig2b.json"):
            one = (tmp_path / "one" / name).read_bytes()
            assert (tmp_path / "1" / name).read_bytes() == one
            assert (tmp_path / "2" / name).read_bytes() == one

    def test_one_failing_point_costs_log_many_pipeline_runs(self, monkeypatch):
        import optomech.sweep as sweep_mod

        spec = figure_recipe("fig2b", grid=(40, 40))
        sizes = []
        run = sweep_mod.run_pipeline

        def counted(params):
            sizes.append(len(params))
            return run(params)

        monkeypatch.setattr(sweep_mod, "run_pipeline", counted)
        monkeypatch.setattr(sweep_mod, "solve_lyapunov",
                            poison_nth(sweep_mod.solve_lyapunov, 500))
        res = run_sweep(spec)
        assert res.n_failures == 1
        assert "stage 'lyapunov' failed" in next(
            p.error for p in res.points if p.error)
        assert sizes[0] == 1600
        assert len(sizes) <= 2 * math.ceil(math.log2(1600)) + 1

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_n_jobs_below_one_is_rejected(self, monkeypatch, n_jobs):
        import optomech.sweep as sweep_mod

        def no_pool(*args, **kwargs):
            pytest.fail("a pool was started")

        monkeypatch.setattr(sweep_mod.concurrent.futures,
                            "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="n_jobs"):
            run_sweep(small_spec(), n_jobs=n_jobs)

    def test_partial_failures_recorded(self, monkeypatch):
        import optomech.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "log_negativity",
                            poison_nth(sweep_mod.log_negativity, 3))
        res = run_sweep(small_spec())
        assert res.n_failures == 1
        failed = [p for p in res.points if p.error is not None]
        assert "log-negativity" in failed[0].error
        assert sum(p.error is None for p in res.points) == 5

    def test_failing_point_is_isolated_within_its_column(self, monkeypatch):
        import optomech.sweep as sweep_mod

        spec = small_spec(axis_y=SweepAxis("delta_over_omega_m", 0.8, 1.2, 4))
        clean = run_sweep(spec)
        assert all(p.stable for p in clean.points)
        # the sixth point is the second row of the second column
        monkeypatch.setattr(sweep_mod, "solve_lyapunov",
                            poison_nth(sweep_mod.solve_lyapunov, 6))
        res = run_sweep(spec)
        assert [i for i, p in enumerate(res.points) if p.error] == [5]
        assert "stage 'lyapunov' failed" in res.points[5].error
        assert "synthetic failure" in res.points[5].error
        assert res.points[5].branch == "error"
        for i, (p, q) in enumerate(zip(res.points, clean.points)):
            if i != 5:
                assert p == q

    def test_apply_axis_mapping(self):
        p = make_params()
        assert apply_axis(p, "power_mw", 7.5).laser_power == pytest.approx(7.5e-3)
        assert apply_axis(p, "delta_over_omega_m", 1.3).detuning == \
            pytest.approx(1.3 * OMEGA_M)
        assert apply_axis(p, "kappa_over_omega_m", 0.7).kappa == \
            pytest.approx(0.7 * OMEGA_M)


class TestRecipes:
    def test_recipe_table(self):
        spec = figure_recipe("fig2b", grid=(5, 4))
        assert spec.axis_x.name == "power_mw"
        assert spec.axis_y.name == "delta_over_omega_m"
        assert spec.axis_x.count == 5 and spec.axis_y.count == 4
        assert spec.fixed.kappa == pytest.approx(0.5 * OMEGA_M)
        noise = spec.fixed.phase_noise
        assert noise.kind == "bandpass"
        assert noise.gamma_l == pytest.approx(2 * math.pi * 100.0)
        assert noise.omega_band == pytest.approx(2 * math.pi * 5e4)
        assert noise.gamma_tilde == pytest.approx(math.pi * 5e4)
        assert spec.outputs[0] == "e_n"

    def test_noise_free_letter_a(self):
        spec = figure_recipe("fig6a", grid=(4, 4))
        assert spec.fixed.phase_noise.kind == "none"
        assert spec.fixed.kappa == pytest.approx(OMEGA_M)
        assert spec.outputs[0] == "n_eff"

    def test_band_letter_selection(self):
        for letter, khz in zip("abc", (30.0, 80.0, 140.0)):
            spec = figure_recipe(f"fig4{letter}", grid=(4, 4))
            band = spec.fixed.phase_noise.omega_band
            assert band == pytest.approx(2 * math.pi * khz * 1e3)
            assert spec.fixed.phase_noise.gamma_tilde == pytest.approx(band / 2)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="fig2a"):
            figure_recipe("fig12z")
        for name in ("", "a", "fig2", "fig2ab"):
            with pytest.raises(ValueError, match="fig2a"):
                figure_recipe(name)


class TestEmittedFiles:
    def test_csv_schema_and_null_discipline(self, tmp_path):
        spec = small_spec(axis_x=SweepAxis("power_mw", 5.0, 120.0, 3))
        res = run_sweep(spec)
        assert any(not p.stable for p in res.points)
        paths = emit_figure_data(res, tmp_path, stem="fig2x")
        lines = (tmp_path / "fig2x.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        header = lines[1].split(",")
        assert header[:3] == ["power_mw", "delta_over_omega_m", "e_n"]
        assert "stable" in header
        stable_col = header.index("stable")
        e_n_col = header.index("e_n")
        n_eff_col = header.index("n_eff")
        for line in lines[2:]:
            cells = line.split(",")
            if cells[stable_col] == "false":
                assert cells[e_n_col] == "" and cells[n_eff_col] == ""

    def test_grid_file_marks_unstable_as_nan(self, tmp_path):
        spec = small_spec(axis_x=SweepAxis("power_mw", 5.0, 120.0, 3))
        res = run_sweep(spec)
        emit_figure_data(res, tmp_path, stem="g")
        body = (tmp_path / "g.grid.txt").read_text()
        blocks = body.strip().split("\n\n")
        assert len(blocks) == 3  # one per x value
        assert "nan" in body

    def test_json_nulls_and_metadata(self, tmp_path):
        spec = small_spec(axis_x=SweepAxis("power_mw", 5.0, 120.0, 3))
        res = run_sweep(spec)
        res.write_json(tmp_path / "out.json")
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["metadata"]["constants_codata"] == "2018"
        unstable_rows = [r for r in doc["rows"] if not r["stable"]]
        assert unstable_rows and all(r["e_n"] is None for r in unstable_rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = small_spec()
        emit_figure_data(run_sweep(spec), tmp_path, stem="one")
        emit_figure_data(run_sweep(spec), tmp_path, stem="two")
        assert (tmp_path / "one.csv").read_bytes() == \
            (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.grid.txt").read_bytes() == \
            (tmp_path / "two.grid.txt").read_bytes()

    def test_number_format_has_17_significant_digits(self, tmp_path):
        res = run_sweep(small_spec())
        paths = emit_figure_data(res, tmp_path)
        line = (tmp_path / "sweep.csv").read_text().splitlines()[2]
        first = line.split(",")[0]
        mantissa = first.split("e")[0].replace(".", "").lstrip("-")
        assert len(mantissa) == 17

    def test_cell_format(self):
        values = [None, True, np.True_, np.False_, "monostable", float("nan"),
                  np.float64("nan"), 1.0]
        assert [format_column([v])[0] for v in values] == [
            "", "true", "true", "false", "monostable", "nan", "nan",
            "1.0000000000000000e+00"]


def _bits(pipeline, i):
    """Point ``i`` of a pipeline run: every field and matrix to the last bit.

    The one-point records (result, steady state, linear model) are compared
    as well.
    """
    results, states, models = pipeline
    cells = tuple(column[i] if column.dtype == object else column[i:i + 1].tobytes()
                  for name, column in sorted(vars(results).items()))
    state_bits = tuple(getattr(states, f.name)[i:i + 1].tobytes()
                       for f in dataclasses.fields(states))
    model = next(model[np.flatnonzero(idx == i)[0]]
                 for idx, model in models if i in idx)
    return (cells, state_bits, repr(dataclasses.astuple(results[i])),
            repr(dataclasses.astuple(states[i])),
            model.drift.tobytes(), model.diffusion.tobytes(), model.stable)


def _run_or_none(points):
    try:
        pipeline = run_pipeline(points)
    except PointEvaluationError:
        return None
    return [_bits(pipeline, i) for i in range(len(points))]


@st.composite
def working_points(draw):
    """Working points mixing noise kinds, detuning modes and stability."""
    kind = draw(st.sampled_from(("none", "white", "bandpass")))
    gamma_l = 2 * math.pi * draw(st.floats(10.0, 1e4))
    band = 2 * math.pi * draw(st.floats(2e4, 2e5))
    noise = {"none": NoiseSpec.none(), "white": NoiseSpec.white(gamma_l),
             "bandpass": NoiseSpec.bandpass(gamma_l, band, band / 2.0)}[kind]
    return make_params(
        kappa=OMEGA_M * draw(st.floats(0.05, 2.0)),
        detuning=OMEGA_M * draw(st.floats(-1.0, 4.0)),
        laser_power=draw(st.floats(0.0, 0.1)),
        detuning_mode=draw(st.sampled_from(("effective", "bare"))),
        phase_noise=noise)


class TestCrossRoutes:
    """Every working point evaluates, and its stationary covariance agrees
    across the vectorized, Schur and frequency-domain routes."""

    @settings(max_examples=100, deadline=None)
    @example(point=RESONANT)
    @given(point=working_points())
    def test_routes_agree(self, point):
        results, ss, ((_, model),) = run_pipeline([point])
        assert results[0].error is None
        if not results[0].stable:
            return
        v = solve_lyapunov(model.drift[0], model.diffusion[0])
        schur = solve_lyapunov(model.drift[0], model.diffusion[0], method="schur")
        assert relative_gap(v.matrix, schur.matrix) <= 1e-6
        oracle = cm_spectral_oracle(point, ss[0])
        assert relative_gap(_reduced(v).matrix, oracle.matrix) <= 1e-6


class TestStackedPipeline:
    @settings(max_examples=40, deadline=None)
    @example(points=MIXED)
    @given(points=st.lists(working_points(), min_size=1, max_size=8))
    def test_batch_equals_batches_of_one(self, points):
        batch = _run_or_none(points)
        singles = [_run_or_none([p]) for p in points]
        if batch is None:
            # a stage fails for the stack only if it fails for some point
            assert None in singles
        else:
            assert batch == [s[0] for s in singles]

    def test_mixed_example_covers_its_cases(self):
        results = list(run_pipeline(MIXED)[0])
        assert results[0].branch == "lower"
        assert any(not r.stable for r in results)
        assert {r.branch for r in results} >= {"lower", "monostable"}

    def test_thermal_phonons_once_per_stack(self, monkeypatch):
        import optomech.parameters as parameters_mod

        calls = []

        def counting(occupancy_of):
            def counted(omega, temperature):
                calls.append(np.size(omega))
                return occupancy_of(omega, temperature)
            return counted

        for name in ("thermal_occupancy", "_bose"):
            monkeypatch.setattr(parameters_mod, name,
                                counting(getattr(parameters_mod, name)))
        run_pipeline(MIXED)
        # each point took its bath phonon number when it was made
        assert calls == []

    @staticmethod
    def _count_eigvals(monkeypatch):
        """The matrix order of every ``np.linalg.eigvals`` call from here on."""
        orders = []
        eigvals = np.linalg.eigvals

        def counted(a):
            orders.append(np.shape(a)[-1])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        return orders

    def test_effective_steady_state_takes_no_eigvals(self, monkeypatch):
        # every coupled point of MIXED deflates its cubic by a closed-form
        # root, the bare ones by the root of their effective-detuning cubic
        params = SystemParams.stack(MIXED)
        effective = params.take(np.flatnonzero(params.detuning_mode == "effective"))
        bare = params.take(np.flatnonzero(params.detuning_mode == "bare"))
        assert len(effective) and len(bare)
        orders = self._count_eigvals(monkeypatch)
        for stack in (effective, bare, params):
            solve_steady_state(stack)
            for branch in ("lower", "middle", "upper"):
                solve_steady_state(stack.take([0]), branch)
        assert orders == []

    def test_noise_pair_verdict_once_per_stack(self, monkeypatch):
        # build_model takes the verdict of the bandpass drifts from the 4x4
        # block's characteristic polynomial, with the noise pair's abscissa
        # that each spec took when it was made
        params = SystemParams.stack([p for p in MIXED
                                     if p.phase_noise.kind == "bandpass"])
        orders = self._count_eigvals(monkeypatch)
        results = run_pipeline(params)[0]
        assert results.stable.any()
        assert orders == []

    def test_sweep_solves_for_no_eigenvalues(self, monkeypatch):
        # the recipe's noise spec takes its pair's abscissa when it is made,
        # before the count starts; the sweep's verdicts are Routh-Hurwitz
        spec = figure_recipe("fig2b", grid=(10, 10))
        orders = self._count_eigvals(monkeypatch)
        result = run_sweep(spec)
        assert result.results.stable.any() and not result.results.stable.all()
        assert orders == []

    def test_empty_stack(self):
        results, ss, models = run_pipeline([])
        assert len(results) == len(ss) == 0 and models == ()
        assert len(evaluate_batch([])) == 0

    def test_cold_bath_is_the_zero_temperature_point(self):
        # hbar*omega_m/(kB*T) of about 4.8e5: the Bose factor overflows
        ref = make_params(phase_noise=bandpass_100hz())
        cold = evaluate_point(ref.with_(bath_temperature=1e-8))
        assert cold == evaluate_point(ref.with_(bath_temperature=0.0))
        assert cold.stable and cold.error is None

    def test_cold_point_in_a_stack(self):
        ref = make_params(phase_noise=bandpass_100hz())
        cold = ref.with_(bath_temperature=1e-8)
        results = evaluate_batch([ref, cold])
        assert [r.error for r in results] == [None, None]
        assert results[1] == evaluate_point(cold)

    def test_evaluate_batch_isolates_failures(self, monkeypatch):
        import optomech.sweep as sweep_mod

        clean = evaluate_batch(MIXED)
        monkeypatch.setattr(sweep_mod, "log_negativity",
                            poison_nth(sweep_mod.log_negativity, 2))
        res = evaluate_batch(MIXED)
        failed = [i for i, r in enumerate(res) if r.error]
        assert len(failed) == 1
        assert "stage 'log-negativity' failed" in res[failed[0]].error
        assert [r for i, r in enumerate(res) if i not in failed] == \
            [r for i, r in enumerate(clean) if i not in failed]


def _reduced(cov):
    return reduce_to_optomechanical(cov) if cov.order == 6 else cov


class TestBlockSolveAgainstSchur:
    """The pipeline's Lyapunov solve, block-triangular for bandpass noise,
    against the Schur route at the benchmark's scaled gate: |dn_eff|/max|V|
    and |d(eta^2)|/max|V|^2 at most 1e-9, every mask identical."""

    @pytest.mark.parametrize("points", [
        pytest.param(lambda: SystemParams.stack(MIXED), id="mixed"),
        pytest.param(lambda: grid_points(figure_recipe("fig2b", grid=(30, 30))),
                     id="fig2b-30x30"),
        pytest.param(lambda: grid_points(figure_recipe("fig7b", grid=(30, 30))),
                     id="fig7b-30x30")])
    def test_scaled_gap(self, monkeypatch, points):
        import functools

        import optomech.sweep as sweep_mod

        params = points()
        results, _, models = run_pipeline(params)
        monkeypatch.setattr(sweep_mod, "solve_lyapunov",
                            functools.partial(solve_lyapunov, method="schur"))
        schur = run_pipeline(params)[0]
        for name in ("stable", "branch", "error"):
            assert getattr(results, name).tolist() == getattr(schur, name).tolist()
        for name in ("stability_margin", "n_eff_approx", "e_n", "eta_minus",
                     "raw_log_negativity", "n_eff", "energy_j", "heisenberg_min"):
            np.testing.assert_array_equal(np.isnan(getattr(results, name)),
                                          np.isnan(getattr(schur, name)))
        scale = np.full(len(params), np.nan)
        for idx, model in models:
            stable = model.stable
            cov = _reduced(solve_lyapunov(model.drift[stable], model.diffusion[stable],
                                          method="schur"))
            scale[idx[stable]] = np.abs(cov.matrix).max(axis=(1, 2))
        stable = schur.stable
        assert stable.any()
        n_gap = np.abs(results.n_eff - schur.n_eff)[stable] / scale[stable]
        eta_gap = (np.abs(results.eta_minus ** 2 - schur.eta_minus ** 2)[stable]
                   / scale[stable] ** 2)
        assert n_gap.max() <= 1e-9
        assert eta_gap.max() <= 1e-9


def _same_bits(stacked, alone):
    """Every field of a one-point record equals its row of the stacked record."""
    for f in dataclasses.fields(alone):
        a, b = getattr(stacked, f.name), getattr(alone, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


class TestEachStageTakesAPointOrAStack:
    """Each stage gives every point of a stack the bits it gives it alone.

    ``MIXED`` mixes none, white and bandpass noise, effective and bare
    detuning, and stable and unstable points.
    """

    @pytest.fixture(scope="class")
    def stages(self):
        params = SystemParams.stack(MIXED)
        ss = solve_steady_state(params)
        bandpass = params.phase_noise.kind == "bandpass"
        groups = [(idx, build_model(params.take(idx), ss.take(idx)))
                  for idx in (np.flatnonzero(bandpass), np.flatnonzero(~bandpass))]
        alone = []
        for p in MIXED:
            point_ss = solve_steady_state(p)
            alone.append((point_ss, build_model(p, point_ss)))
        return ss, groups, alone

    def test_solve_steady_state(self, stages):
        ss, _, alone = stages
        for i, (point_ss, _) in enumerate(alone):
            roots = ss.all_roots[i]
            assert repr(dataclasses.astuple(ss[i])) == \
                repr(dataclasses.astuple(point_ss))
            assert roots[:len(point_ss.all_roots)].tobytes() == \
                np.array(point_ss.all_roots).tobytes()
            assert np.isnan(roots[len(point_ss.all_roots):]).all()
        assert set(ss.branch) >= {"lower", "monostable"}
        assert solve_steady_state(MIXED).all_roots.tobytes() == ss.all_roots.tobytes()

    def test_build_model(self, stages):
        _, groups, alone = stages
        for idx, models in groups:
            assert models.drift.shape == (len(idx), models.order, models.order)
            for j, i in enumerate(idx):
                _same_bits(models[j], alone[i][1])
                assert models.stable[j] == alone[i][1].stable
        assert {model.stable for _, model in alone} == {True, False}
        params = SystemParams.stack(MIXED)
        with pytest.raises(ValueError, match="one noise model order"):
            build_model(params, solve_steady_state(params))

    @pytest.mark.parametrize("method", ["vectorized", "schur"])
    def test_solve_lyapunov(self, stages, method):
        _, groups, alone = stages
        for idx, models in groups:
            stable = models.stable
            covs = solve_lyapunov(models.drift[stable], models.diffusion[stable],
                                  method=method, stable=stable[stable])
            assert covs.basis == models.dims
            for k, i in enumerate(idx[stable]):
                model = alone[i][1]
                cov = solve_lyapunov(model.drift, model.diffusion, method=method)
                assert covs.matrix[k].tobytes() == cov.matrix.tobytes()
                assert cov.basis == covs.basis

    def test_measures(self, stages):
        _, groups, alone = stages
        for idx, models in groups:
            stable = models.stable
            v4 = _reduced(solve_lyapunov(models.drift[stable],
                                         models.diffusion[stable]))
            omega_m = SystemParams.stack(MIXED).take(idx[stable]).omega_m
            lows = check_physical(v4)
            ent = log_negativity(v4)
            occ = occupancy(v4, omega_m)
            for k, i in enumerate(idx[stable]):
                model = alone[i][1]
                cov = _reduced(solve_lyapunov(model.drift, model.diffusion))
                point = check_physical(cov)
                assert isinstance(point, float) and lows[k] == point
                _same_bits(type(ent)(*(f[k] for f in dataclasses.astuple(ent))),
                           log_negativity(cov))
                _same_bits(type(occ)(*(f[k] for f in dataclasses.astuple(occ))),
                           occupancy(cov, MIXED[i].omega_m))
                assert isinstance(log_negativity(cov).entangled, bool)

    @pytest.mark.parametrize("form", [stability_margin,
                                      static_phase_noise_heating, approx_n_eff])
    def test_closed_form(self, stages, form):
        ss, _, alone = stages
        stacked = form(SystemParams.stack(MIXED), ss)
        with pytest.raises(ValueError, match="closed form of one point"):
            stacked.checked()
        for i, (p, (point_ss, _)) in enumerate(zip(MIXED, alone)):
            point = form(p, point_ss)
            assert np.ndim(point.value) == 0
            assert stacked.value[i].tobytes() == np.asarray(point.value).tobytes()
            assert {name: bool(mask[i]) for name, mask in stacked.flags.items()} \
                == {name: bool(flag) for name, flag in point.flags.items()}
