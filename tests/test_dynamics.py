import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from optomech import (LinearModel, NoiseSpec, SystemParams, build_model,
                      drift_abscissa, figure_recipe, phase_noise_spectrum,
                      power_for_coupling, reduce_to_optomechanical,
                      solve_lyapunov, solve_steady_state, stability_margin)
from optomech.dynamics import (FULL_BASIS, REDUCED_BASIS, auxiliary_block,
                               optomechanical_block)
from optomech.errors import NonpositiveDetuning

from conftest import OMEGA_M, bandpass_100hz, grid_points, make_params

G_THRESHOLD_REF = 70248147.310407264  # sqrt(1.25)*omega_m, frozen


class TestDriftMatrix:
    def test_entries_match_definition(self, paper_point):
        ss = solve_steady_state(paper_point)
        model = build_model(paper_point, ss)
        a = model.drift
        wm, gm, k = paper_point.omega_m, paper_point.gamma_m, paper_point.kappa
        spec = paper_point.phase_noise
        expected = np.zeros((6, 6))
        expected[0, 1] = wm
        expected[1, 0], expected[1, 1], expected[1, 2] = -wm, -gm, ss.g_eff
        expected[2, 2], expected[2, 3] = -k, ss.delta_eff
        expected[3, 0], expected[3, 2], expected[3, 3] = ss.g_eff, -ss.delta_eff, -k
        expected[3, 4] = math.sqrt(2.0) * ss.alpha_abs
        expected[4, 5] = spec.omega_band
        expected[5, 4], expected[5, 5] = -spec.omega_band, -spec.gamma_tilde
        np.testing.assert_allclose(a, expected, rtol=0, atol=0)

    def test_diffusion_diagonal(self, paper_point):
        ss = solve_steady_state(paper_point)
        model = build_model(paper_point, ss)
        d = model.diffusion
        n = paper_point.n_th
        spec = paper_point.phase_noise
        expected = np.diag([
            0.0,
            paper_point.gamma_m * (2.0 * n + 1.0),
            paper_point.kappa,
            paper_point.kappa,
            0.0,
            2.0 * spec.gamma_l * spec.omega_band ** 2,
        ])
        np.testing.assert_allclose(d, expected, rtol=1e-15, atol=0)
        assert d[0, 0] == 0.0 and d[4, 4] == 0.0

    def test_decoupled_limit_is_block_diagonal(self):
        p = make_params(laser_power=0.0, phase_noise=bandpass_100hz())
        ss = solve_steady_state(p)
        a = build_model(p, ss).drift
        assert ss.g_eff == 0.0
        assert np.all(a[:2, 2:] == 0.0) and np.all(a[2:4, :2] == 0.0)
        assert np.all(a[:4, 4:] == 0.0) and np.all(a[4:, :4] == 0.0)

    def test_cavity_thermal_occupancy_scales_vacuum_noise(self, paper_point):
        p = paper_point.with_(cavity_thermal_occupancy=1.5)
        ss = solve_steady_state(p)
        d = build_model(p, ss).diffusion
        assert d[2, 2] == pytest.approx(4.0 * p.kappa)
        assert d[3, 3] == pytest.approx(4.0 * p.kappa)

    def test_white_noise_equivalent_to_wide_band(self, paper_point):
        # flat-spectrum path folded into the diffusion must match a bandpass
        # pushed far above every system frequency
        ss = solve_steady_state(paper_point)
        white = paper_point.with_(phase_noise=NoiseSpec.white(2 * math.pi * 100))
        v_white = solve_lyapunov(*_ad(build_model(white, ss))).matrix
        wide = paper_point.with_(phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 1e4 * OMEGA_M, 1e4 * OMEGA_M))
        v6 = solve_lyapunov(*_ad(build_model(wide, ss)))
        v_wide = reduce_to_optomechanical(v6).matrix
        assert np.max(np.abs(v_white - v_wide)) <= 0.01 * np.max(np.abs(v_wide))

    def test_no_noise_insensitive_to_auxiliary_settings(self, paper_point):
        # zero-strength bandpass: the auxiliary pair must not leak into the
        # optomechanical block whatever its frequency scale
        ss = solve_steady_state(paper_point)
        results = []
        for band in (2 * math.pi * 5e4, 3.7 * OMEGA_M):
            p = paper_point.with_(phase_noise=NoiseSpec.bandpass(0.0, band, band / 3))
            model = build_model(p, ss)
            assert model.diffusion[5, 5] == 0.0
            v = reduce_to_optomechanical(
                solve_lyapunov(model.drift, model.diffusion)).matrix
            results.append(v)
        np.testing.assert_allclose(results[0], results[1], rtol=1e-10, atol=1e-12)
        p4 = paper_point.with_(phase_noise=NoiseSpec.none())
        v4 = solve_lyapunov(*_ad(build_model(p4, ss))).matrix
        np.testing.assert_allclose(results[0], v4, rtol=1e-9, atol=1e-10)


def _ad(model):
    return model.drift, model.diffusion


class TestMatrixDocument:
    def test_round_trip(self, paper_point):
        import json

        from optomech.dynamics import LinearModel

        ss = solve_steady_state(paper_point)
        model = build_model(paper_point, ss)
        doc = json.loads(json.dumps(model.to_document()))
        back = LinearModel.from_document(doc)
        np.testing.assert_array_equal(back.drift, model.drift)
        np.testing.assert_array_equal(back.diffusion, model.diffusion)
        assert back.dims == model.dims and back.stable == model.stable

    @pytest.mark.parametrize("power, stable", [(20e-3, True), (0.1, False)])
    def test_round_trip_keeps_stability_and_abscissa(self, power, stable):
        from optomech.dynamics import LinearModel

        p = make_params(laser_power=power, phase_noise=NoiseSpec.white(600.0))
        model = build_model(p, solve_steady_state(p))
        doc = json.loads(json.dumps(model.to_document()))
        back = LinearModel.from_document(doc)
        assert doc["stable"] is stable and model.stable is stable
        assert back.stable is stable
        assert back.abscissa == model.abscissa
        assert (back.abscissa < 0.0) is stable

    def test_stack_round_trip(self):
        # a stack's stable is one bool per model; bool() of it raised
        points = grid_points(figure_recipe("fig2b", grid=(2, 2)))
        model = build_model(points, solve_steady_state(points))
        doc = json.loads(json.dumps(model.to_document()))
        assert doc["stable"] == model.stable.tolist()
        back = LinearModel.from_document(doc)
        np.testing.assert_array_equal(back.drift, model.drift)
        np.testing.assert_array_equal(back.diffusion, model.diffusion)
        np.testing.assert_array_equal(back.stable, model.stable)
        assert back.dims == model.dims
        with pytest.raises(ValueError, match="'stable'"):
            LinearModel.from_document({**doc, "stable": [not s for s in doc["stable"]]})

    def test_kind_checked(self):
        from optomech.dynamics import LinearModel

        with pytest.raises(ValueError):
            LinearModel.from_document({"kind": "covariance"})

    @pytest.mark.parametrize("key, value", [
        ("dims", ["psi"]), ("dims", list(FULL_BASIS)), ("stable", False)])
    def test_derived_keys_must_agree(self, paper_point, key, value):
        model = build_model(paper_point.with_(phase_noise=NoiseSpec.none()),
                            solve_steady_state(paper_point))
        doc = {**model.to_document(), key: value}
        with pytest.raises(ValueError, match=repr(key)):
            LinearModel.from_document(doc)

    def test_derived_keys_may_be_left_out(self, paper_point):
        model = build_model(paper_point, solve_steady_state(paper_point))
        doc = model.to_document()
        del doc["dims"], doc["stable"]
        back = LinearModel.from_document(doc)
        assert back.dims == FULL_BASIS and back.stable


class TestLinearModelRecord:
    def test_stability_taken_from_the_drift(self):
        model = LinearModel(drift=np.eye(2), diffusion=np.eye(2))
        assert model.abscissa == 1.0 and not model.stable
        assert model.dims == ("x0", "x1")

    @pytest.mark.parametrize("name, value", [
        ("abscissa", -1.0), ("dims", ("a", "b", "c"))])
    def test_derived_values_are_not_arguments(self, name, value):
        with pytest.raises(TypeError):
            LinearModel(drift=np.eye(2), diffusion=np.eye(2), **{name: value})

    def test_replace_takes_the_abscissa_again(self, paper_point):
        model = build_model(paper_point, solve_steady_state(paper_point))
        assert model.stable
        flipped = dataclasses.replace(model, drift=-model.drift)
        assert not flipped.stable
        assert flipped.abscissa == drift_abscissa(-model.drift)
        with pytest.raises(ValueError):
            dataclasses.replace(model, abscissa=-1.0)

    def test_dims_follow_the_order(self, paper_point):
        ss = solve_steady_state(paper_point)
        assert build_model(paper_point, ss).dims == FULL_BASIS
        assert build_model(paper_point.with_(phase_noise=NoiseSpec.none()),
                           ss).dims == REDUCED_BASIS

    @pytest.mark.parametrize("drift, diffusion", [
        (np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones((2, 3))),
        (np.eye(2), np.eye(3))])
    def test_not_square_rejected(self, drift, diffusion):
        with pytest.raises(ValueError, match="square"):
            LinearModel(drift=drift, diffusion=diffusion)

    @pytest.mark.parametrize("fig_id", ["fig2a", "fig2b", "fig7c"])
    def test_blockwise_abscissa_is_the_full_one(self, fig_id):
        # build_model takes each abscissa from the leading 4x4 block and
        # the noise pair; the record's own rule takes it from the whole drift
        spec = figure_recipe(fig_id, grid=(12, 12))
        p = grid_points(spec)
        model = build_model(p, solve_steady_state(p))
        again = LinearModel(drift=model.drift, diffusion=model.diffusion)
        np.testing.assert_array_equal(again.abscissa, model.abscissa)
        assert model.stable.any() and not model.stable.all()
        assert model[5].abscissa == again.abscissa[5]
        assert model[5].dims == again.dims


class TestPhaseNoiseSpectrum:
    def test_bandpass_at_zero(self):
        spec = bandpass_100hz()
        assert phase_noise_spectrum(spec, 0.0) == pytest.approx(
            2.0 * spec.gamma_l, rel=1e-15)

    def test_bandpass_at_center_half_width(self):
        spec = bandpass_100hz()
        assert phase_noise_spectrum(spec, spec.omega_band) == pytest.approx(
            8.0 * spec.gamma_l, rel=1e-15)

    def test_flat_limit(self):
        gl = 2 * math.pi * 100
        wide = NoiseSpec.bandpass(gl, 1e6 * OMEGA_M, 1e6 * OMEGA_M)
        assert phase_noise_spectrum(wide, OMEGA_M) == pytest.approx(
            2.0 * gl, rel=1e-6)

    def test_white_and_none(self):
        gl = 321.0
        w = np.linspace(-3 * OMEGA_M, 3 * OMEGA_M, 11)
        np.testing.assert_array_equal(phase_noise_spectrum(NoiseSpec.white(gl), w),
                                      2 * gl)
        np.testing.assert_array_equal(phase_noise_spectrum(NoiseSpec.none(), w), 0.0)

    def test_scalar_and_array_give_the_same_bits(self):
        spec = bandpass_100hz()
        w = spec.omega_band * np.random.default_rng(7).uniform(0.0, 4.0, 20000)
        scalar = [phase_noise_spectrum(spec, x) for x in w.tolist()]
        np.testing.assert_array_equal(phase_noise_spectrum(spec, w), scalar)

    def test_stack_gives_each_point_its_own_bits(self):
        rng = np.random.default_rng(11)
        specs = [NoiseSpec.none(), NoiseSpec.white(2 * math.pi * 100)]
        specs += [NoiseSpec.bandpass(2 * math.pi * 10 ** rng.uniform(0, 4), band,
                                     band * 10 ** rng.uniform(-2, 1))
                  for band in 2 * math.pi * 10 ** rng.uniform(3.5, 6.5, 30)]
        specs += [NoiseSpec.white(2 * math.pi * 1e3), NoiseSpec.none()]
        noise = SystemParams.stack(make_params(phase_noise=s)
                                   for s in specs).phase_noise
        # each point at its own frequency, the resonance of the band included
        w = np.array([s.omega_band or OMEGA_M for s in specs])
        w *= rng.uniform(0.0, 2.0, len(specs))
        w[5] = specs[5].omega_band
        w[0] = 0.0  # no band: its 0/0 must not be taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = phase_noise_spectrum(noise, w)
        assert stacked.shape == (len(specs),)
        for s, x, value in zip(specs, w.tolist(), stacked.tolist()):
            assert value == phase_noise_spectrum(s, x)

    def test_symmetry_and_positivity(self):
        spec = bandpass_100hz()
        w = np.geomspace(1.0, 10 * OMEGA_M, 50)
        s_plus = phase_noise_spectrum(spec, w)
        s_minus = phase_noise_spectrum(spec, -w)
        np.testing.assert_allclose(s_plus, s_minus, rtol=1e-15)
        assert np.all(s_plus >= 0.0)

    def test_band_integral_saturates_but_flat_diverges(self):
        # integral discriminator between the two spectrum kinds
        spec = bandpass_100hz()
        w1 = np.linspace(0, 100 * spec.omega_band, 400001)
        w2 = np.linspace(0, 200 * spec.omega_band, 800001)
        band1 = np.trapezoid(phase_noise_spectrum(spec, w1), w1)
        band2 = np.trapezoid(phase_noise_spectrum(spec, w2), w2)
        assert band2 == pytest.approx(band1, rel=1e-2)
        white = NoiseSpec.white(spec.gamma_l)
        flat1 = np.trapezoid(phase_noise_spectrum(white, w1), w1)
        flat2 = np.trapezoid(phase_noise_spectrum(white, w2), w2)
        assert flat2 == pytest.approx(2.0 * flat1, rel=1e-12)


class TestStability:
    def test_decoupled_is_stable(self):
        p = make_params(laser_power=0.0, phase_noise=bandpass_100hz())
        ss = solve_steady_state(p)
        assert build_model(p, ss).stable

    def test_margin_trivial_and_reference(self):
        p = make_params(laser_power=0.0)
        assert stability_margin(p, solve_steady_state(p)).checked() == 0.0
        p = make_params()
        ss = solve_steady_state(p)
        assert ss.g_eff / stability_margin(p, ss).checked() == pytest.approx(
            G_THRESHOLD_REF, rel=1e-12)

    def test_threshold_crossing_matches_eigenvalues(self):
        p = make_params()
        for frac, expect_stable in ((0.98, True), (1.02, False)):
            power = power_for_coupling(p, frac * G_THRESHOLD_REF)
            pp = p.with_(laser_power=power)
            ss = solve_steady_state(pp)
            model = build_model(pp, ss)
            assert model.stable is expect_stable
            assert (stability_margin(pp, ss).checked() < 1.0) is expect_stable

    def test_margin_one_is_eigenvalue_zero_crossing(self):
        # at margin 1 the drift acquires a zero eigenvalue
        p = make_params()
        power = power_for_coupling(p, G_THRESHOLD_REF)
        ss = solve_steady_state(p.with_(laser_power=power))
        a = optomechanical_block(p, ss)
        max_re = np.max(np.linalg.eigvals(a).real)
        assert abs(max_re) <= 1e-6 * OMEGA_M

    def test_undamped_auxiliary_block_rejected(self):
        spec = NoiseSpec.bandpass(100.0, 2 * math.pi * 5e4, 0.0)
        a, _ = auxiliary_block(spec)
        assert not drift_abscissa(a) < 0

    def test_auxiliary_block_of_a_stack_is_each_points_block(self):
        rng = np.random.default_rng(5)
        specs = [NoiseSpec.bandpass(2 * math.pi * 10 ** rng.uniform(0, 4), band,
                                    band * 10 ** rng.uniform(-2, 1))
                 for band in 2 * math.pi * 10 ** rng.uniform(3.5, 6.5, 20)]
        specs[3:3] = [NoiseSpec.none(), NoiseSpec.white(2 * math.pi * 100)]
        stack = SystemParams.stack(make_params(phase_noise=s) for s in specs)
        # like a white or absent spec, a stack with such points has no block
        with pytest.raises(ValueError, match="only for bandpass"):
            auxiliary_block(stack.phase_noise)
        bandpass = [i for i, s in enumerate(specs) if s.kind == "bandpass"]
        a, d = auxiliary_block(stack.take(bandpass).phase_noise)
        assert a.shape == d.shape == (len(bandpass), 2, 2)
        for i, a_i, d_i in zip(bandpass, a, d):
            a_ref, d_ref = auxiliary_block(specs[i])
            assert a_i.tobytes() == a_ref.tobytes()
            assert d_i.tobytes() == d_ref.tobytes()

    def test_negative_detuning_margin_raises(self):
        p = make_params(detuning=-OMEGA_M)
        ss = solve_steady_state(p)
        with pytest.raises(NonpositiveDetuning):
            stability_margin(p, ss).checked()
        assert build_model(p, ss).stable in (True, False)  # eigenvalue path works

    def test_analytic_vs_eigenvalue_on_random_parameters(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            p = make_params(
                kappa=OMEGA_M * 10 ** rng.uniform(-1.5, 0.7),
                detuning=OMEGA_M * 10 ** rng.uniform(-1.3, 0.7),
                quality_factor=10 ** rng.uniform(3, 7),
            )
            g = OMEGA_M * 10 ** rng.uniform(-3, 0.5)
            power = power_for_coupling(p, g)
            pp = p.with_(laser_power=power)
            ss = solve_steady_state(pp)
            margin = stability_margin(pp, ss).checked()
            if abs(margin - 1.0) < 1e-6:
                continue
            a = optomechanical_block(pp, ss)
            assert (drift_abscissa(a) < 0) == (margin < 1.0)
            checked += 1
        assert checked >= 990
