import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optomech
from optomech import (NoiseSpec, TrajectoryConfig, build_model,
                      estimate_stationary_covariance, exact_discretization,
                      phase_noise_spectrum, simulate_phase_noise,
                      solve_lyapunov, solve_steady_state, thermal_occupancy)
from optomech.dynamics import auxiliary_block
from optomech.errors import UnstableTimestep
from optomech.simulate import (BLOCK_STEPS, CHUNK_STEPS, _check_timestep,
                               _expm, _noise_factor, _propagate,
                               _segment_length)

from conftest import (OMEGA_M, bandpass_100hz, make_params,
                      mp_exact_discretization)

SCAN_DRIFTS = ["bandpass-pair", "critically-damped-pair", "ornstein-uhlenbeck",
               "optomechanical-6x6"]


def aux_config(spec, n_steps=200_000, n_ensemble=8, seed=20240811):
    a, _ = auxiliary_block(spec)
    return TrajectoryConfig.for_drift(a, n_steps=n_steps, n_ensemble=n_ensemble,
                                      seed=seed)


def scan_test_drift(name):
    """(drift, diffusion, dt or None) of the systems the block scan is pinned on."""
    if name == "ornstein-uhlenbeck":
        return np.array([[-1.0]]), np.array([[4.0]]), 0.05
    if name == "bandpass-pair":
        a, d = auxiliary_block(bandpass_100hz())
    elif name == "critically-damped-pair":
        # band width twice the center: a double eigenvalue with one
        # eigenvector, so the drift has no eigenbasis
        band = 2.0 * math.pi * 5e4
        a, d = auxiliary_block(NoiseSpec.bandpass(2.0 * math.pi * 100.0,
                                                  band, 2.0 * band))
    else:  # 6x6 optomechanical model with a noise band at omega_m
        p = make_params(quality_factor=50.0, phase_noise=NoiseSpec.bandpass(
            2.0 * math.pi * 1e3, OMEGA_M, OMEGA_M / 2.0))
        model = build_model(p, solve_steady_state(p))
        a, d = model.drift, model.diffusion
    return a, d, None  # the run rule's default timestep


def per_step_reference(a, d, cfg, record):
    """The recursion x_t = Phi x_(t-1) + w_t one step at a time.

    Each member's whole noise record comes from one draw of its generator,
    so agreement with the block scan also shows that the per-block draws
    concatenate to the same realisation.
    """
    phi, q = exact_discretization(a, d, cfg.dt)
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_ensemble)]
    noise = np.stack([r.standard_normal((cfg.n_steps, a.shape[0]))
                      for r in rngs], axis=1) @ _noise_factor(q).T
    state = np.zeros((cfg.n_ensemble, a.shape[0]))
    path = np.empty_like(noise)
    for j in range(cfg.n_steps):
        state = state @ phi.T + noise[j]
        path[j] = state
    kept = path[cfg.burn_in:]
    moments = np.einsum("tbi,tbj->bij", kept, kept) / len(kept)
    return moments, kept[:, :, record].T


class TestBlockScan:
    @pytest.mark.parametrize("layout", ["ragged-last-block", "one-short-block",
                                        "whole-blocks", "last-block-under-a-chunk",
                                        "burn-in-mid-chunk"])
    @pytest.mark.parametrize("drift", SCAN_DRIFTS)
    def test_matches_per_step_recursion(self, drift, layout):
        n_steps, burn_in = {
            # burn-in ends inside the second block; the last block is short
            "ragged-last-block": (2 * BLOCK_STEPS + 123, BLOCK_STEPS + 1000),
            "one-short-block": (1500, 700),
            "whole-blocks": (3 * BLOCK_STEPS, BLOCK_STEPS),
            # the last block is shorter than one chunk
            "last-block-under-a-chunk": (2 * BLOCK_STEPS + 5, BLOCK_STEPS + 1000),
            # burn-in ends 7 steps into the last chunk of the first block
            "burn-in-mid-chunk": (2 * BLOCK_STEPS, BLOCK_STEPS - CHUNK_STEPS + 7),
        }[layout]
        a, d, dt = scan_test_drift(drift)
        cfg = TrajectoryConfig.for_drift(a, n_steps=n_steps, n_ensemble=3,
                                         seed=97, dt=dt, burn_in=burn_in)
        record = a.shape[0] - 1
        moments, recording = _propagate(a, d, cfg, record=record)
        ref_moments, ref_recording = per_step_reference(a, d, cfg, record)
        assert recording.shape == (3, n_steps - burn_in)
        assert (np.max(np.abs(moments - ref_moments))
                <= 1e-11 * np.max(np.abs(ref_moments)))
        assert (np.max(np.abs(recording - ref_recording))
                <= 1e-11 * np.max(np.abs(ref_recording)))


class TestExactDiscretization:
    @pytest.mark.parametrize("drift", SCAN_DRIFTS)
    def test_matches_40_digit_reference(self, drift):
        # at the timestep of the scan tests; scipy's expm is the second
        # reference, a few hundred eps off in Phi where the Pade route is
        # within one
        a, d, dt = scan_test_drift(drift)
        dt, _ = _check_timestep(a, dt)
        phi, q = exact_discretization(a, d, dt)
        ref_phi, ref_q = mp_exact_discretization(a, d, dt)
        eps = np.finfo(float).eps
        assert np.max(np.abs(phi - ref_phi)) <= 4 * eps * np.max(np.abs(ref_phi))
        assert np.max(np.abs(q - ref_q)) <= 4 * eps * np.max(np.abs(ref_q))
        n = a.shape[0]
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n], block[:n, n:], block[n:, n:] = -a, d, a.T
        exp_block = scipy.linalg.expm(block * dt)
        scipy_phi = exp_block[n:, n:].T
        scipy_q = scipy_phi @ exp_block[:n, n:]
        np.testing.assert_allclose(phi, scipy_phi, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref_phi)))
        np.testing.assert_allclose(q, 0.5 * (scipy_q + scipy_q.T), rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref_q)))

    @pytest.mark.parametrize("norm, tol_eps", [
        (0.0, 4), (1e-6, 4), (0.01, 4), (0.2, 4), (0.9, 4), (2.0, 4), (5.0, 4),
        (60.0, 32)])
    def test_pade_degrees_match_40_digits(self, norm, tol_eps):
        # the one degree, 13: the zero matrix, 1-norms from 1e-6 to its
        # bound unscaled, and one that takes four squarings
        a = np.random.default_rng(3).standard_normal((4, 4))
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        with mpmath.workdps(40):
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                           dtype=float)
        assert (np.max(np.abs(_expm(a) - ref))
                <= tol_eps * np.finfo(float).eps * np.max(np.abs(ref)))

    def test_non_finite_input_named(self):
        with pytest.raises(ValueError, match="finite entries"):
            exact_discretization(np.array([[np.nan]]), np.array([[1.0]]), 0.1)

    @pytest.mark.parametrize("strength", [0.0, 1e-310, 1e-200, 1e200, 1e308])
    def test_noise_strength_scale_free(self, strength):
        # D enters the block rescaled by a power of two: Q is linear in D at
        # any magnitude, from a subnormal one to one near the overflow bound
        phi, q = exact_discretization(np.array([[-2.0]]),
                                      np.array([[strength]]), 0.05)
        assert phi[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-14)
        assert q[0, 0] == pytest.approx(strength * (1 - math.exp(-0.2)) / 4.0,
                                        rel=1e-12, abs=0.0)

    def test_scalar_ornstein_uhlenbeck_closed_form(self):
        gamma, d = 2.0, 3.0
        phi, q = exact_discretization(np.array([[-gamma]]), np.array([[d]]), 0.05)
        assert phi[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert q[0, 0] == pytest.approx(d * (1 - math.exp(-0.2)) / (2 * gamma),
                                        rel=1e-12)

    def test_matches_direct_quadrature(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
        b = rng.standard_normal((3, 3))
        d = b @ b.T
        dt = 0.07

        def integrand(s, i, j):
            m = scipy.linalg.expm(a * s) @ d @ scipy.linalg.expm(a.T * s)
            return m[i, j]

        _, q = exact_discretization(a, d, dt)
        for i in range(3):
            for j in range(3):
                ref = scipy.integrate.quad(integrand, 0, dt, args=(i, j),
                                           epsabs=1e-12, epsrel=1e-12)[0]
                assert q[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_matches_stationary_difference(self):
        # for stable A: Q(dt) = V - Phi V Phi^T with V the stationary solution
        spec = bandpass_100hz()
        a, d = auxiliary_block(spec)
        v = solve_lyapunov(a, d).matrix
        phi, q = exact_discretization(a, d, 1e-6)
        np.testing.assert_allclose(q, v - phi @ v @ phi.T, rtol=1e-8)


class TestTrajectoryContract:
    def test_deterministic_given_seed(self):
        spec = bandpass_100hz()
        cfg = aux_config(spec, n_steps=20_000)
        s1 = simulate_phase_noise(spec, cfg)
        s2 = simulate_phase_noise(spec, cfg)
        np.testing.assert_array_equal(s1.values, s2.values)
        np.testing.assert_array_equal(s1.standard_errors, s2.standard_errors)

    def test_zero_strength_noise_is_silent(self):
        spec = NoiseSpec.bandpass(0.0, 2 * math.pi * 5e4, math.pi * 5e4)
        cfg = aux_config(spec, n_steps=20_000)
        est = simulate_phase_noise(spec, cfg)
        assert np.all(est.values == 0.0)

    def test_zero_drive_checks_the_segment_length(self):
        band = 2.0 * math.pi * 5e4
        short = TrajectoryConfig(dt=1e-7, n_steps=660, n_ensemble=2, seed=1,
                                 burn_in=640)
        for gamma_l in (0.0, 2.0 * math.pi * 100.0):
            spec = NoiseSpec.bandpass(gamma_l, band, band / 2.0)
            with pytest.raises(ValueError, match="series too short"):
                simulate_phase_noise(spec, short)
        cfg = aux_config(bandpass_100hz(), n_steps=20_000, n_ensemble=2)
        silent = simulate_phase_noise(NoiseSpec.bandpass(0.0, band, band / 2.0),
                                      cfg)
        driven = simulate_phase_noise(bandpass_100hz(), cfg)
        np.testing.assert_array_equal(silent.frequencies, driven.frequencies)

    def test_segment_count_checked_before_propagating(self, monkeypatch):
        import optomech.simulate as simulate

        def propagate(*args, **kwargs):
            pytest.fail("propagated before checking the segment length")

        monkeypatch.setattr(simulate, "_propagate", propagate)
        spec = bandpass_100hz()
        with pytest.raises(ValueError, match="series too short"):
            simulate_phase_noise(spec, aux_config(spec, n_steps=20_000),
                                 segments_per_member=20_000)

    def test_cli_import_leaves_scipy_signal_out(self):
        # importing scipy.signal costs most of a second in a fresh process,
        # and scipy as a whole most of the CLI's start-up: only the route
        # that uses it (the Schur solve) imports it
        src = os.path.dirname(os.path.dirname(optomech.__file__))
        code = ("import sys, optomech.cli; "
                "print('scipy.signal' in sys.modules, "
                "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False []"

    def test_validate_leaves_scipy_out(self, tmp_path):
        # the Welch transforms run on numpy.fft, the block exponential on
        # numpy's Pade route
        src = os.path.dirname(os.path.dirname(optomech.__file__))
        config = tmp_path / "v.json"
        config.write_text(json.dumps({
            "omega_m_over_2pi_hz": 1e7, "quality_factor": 2e6,
            "kappa_over_omega_m": 0.5, "delta_over_omega_m": 1.0,
            "g0_rad_s": 1e3, "laser_power_mw": 20.0, "bath_temperature_k": 0.4,
            "phase_noise": {"kind": "bandpass", "linewidth_over_2pi_hz": 100.0,
                            "band_center_over_2pi_hz": 5e4,
                            "bandwidth_over_band_center": 0.5},
            "n_steps": 40000, "n_ensemble": 4, "seed": 11}))
        code = ("import sys, optomech.cli; "
                f"code = optomech.cli.main(['validate', '--config', {str(config)!r}, "
                f"'--out-dir', {str(tmp_path)!r}]); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "validation.csv").exists()

    def test_spectrum_leaves_scipy_out(self, tmp_path):
        # C(tau) of the band is a block exponential on numpy's Pade route
        src = os.path.dirname(os.path.dirname(optomech.__file__))
        config = tmp_path / "s.json"
        config.write_text(json.dumps({
            "omega_m_over_2pi_hz": 1e7, "quality_factor": 2e6,
            "kappa_over_omega_m": 0.5, "delta_over_omega_m": 1.0,
            "g0_rad_s": 1e3, "laser_power_mw": 20.0, "bath_temperature_k": 0.4,
            "phase_noise": {"kind": "bandpass", "linewidth_over_2pi_hz": 100.0,
                            "band_center_over_2pi_hz": 5e4,
                            "bandwidth_over_band_center": 0.5},
            "omega_count": 200, "tau_count": 21}))
        code = ("import sys, optomech.cli; "
                f"code = optomech.cli.main(['spectrum', '--config', {str(config)!r}, "
                f"'--out-dir', {str(tmp_path)!r}]); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.splitlines()[-1] == "0 []"
        assert (tmp_path / "laser_correlation.csv").exists()

    def test_timestep_guard(self):
        spec = bandpass_100hz()
        cfg = aux_config(spec, n_steps=20_000)
        too_coarse = TrajectoryConfig(dt=1.0 / spec.omega_band,
                                      n_steps=cfg.n_steps,
                                      n_ensemble=cfg.n_ensemble,
                                      seed=cfg.seed, burn_in=cfg.burn_in)
        a, d = auxiliary_block(spec)
        with pytest.raises(UnstableTimestep):
            estimate_stationary_covariance(a, d, too_coarse)

    def test_burn_in_guard(self):
        spec = bandpass_100hz()
        cfg = aux_config(spec, n_steps=20_000)
        a, d = auxiliary_block(spec)
        short = TrajectoryConfig(dt=cfg.dt, n_steps=cfg.n_steps,
                                 n_ensemble=cfg.n_ensemble, seed=cfg.seed,
                                 burn_in=1)
        with pytest.raises(ValueError):
            estimate_stationary_covariance(a, d, short)

    def test_run_rule_defaults(self):
        # the reference band: max|eig| = omega_band, slower decay rate
        # gamma_tilde/2 = omega_band/4, so 5 decay times at dt*max|eig| =
        # 0.09 are ceil(20/0.09) = 223 steps
        spec = bandpass_100hz()
        a, _ = auxiliary_block(spec)
        cfg = TrajectoryConfig.for_drift(a, n_steps=1000, n_ensemble=2, seed=1)
        assert cfg.dt * spec.omega_band == pytest.approx(0.09, rel=1e-12)
        assert cfg.burn_in == 223
        assert TrajectoryConfig.for_drift(a, 1000, 2, 1, dt=cfg.dt,
                                          burn_in=223) == cfg

    @pytest.mark.parametrize("gamma_tilde, run, error, field", [
        # the Hurwitz check comes before the dt guard and the burn-in
        (0.0, dict(dt=1e-5, burn_in=1), UnstableTimestep, "drift"),
        # the dt guard comes before the burn-in
        (None, dict(dt=1e-5, burn_in=1), UnstableTimestep, "dt"),
        (None, dict(dt=-1e-7), UnstableTimestep, "dt"),
        (None, dict(burn_in=222), ValueError, "burn_in"),
        (None, dict(n_steps=223), ValueError, "n_steps"),
        (None, dict(n_ensemble=0), ValueError, "n_ensemble"),
    ])
    def test_run_rule_names_the_field(self, gamma_tilde, run, error, field):
        spec = bandpass_100hz()
        if gamma_tilde is not None:
            spec = NoiseSpec.bandpass(spec.gamma_l, spec.omega_band, gamma_tilde)
        a, _ = auxiliary_block(spec)
        with pytest.raises(error, match=field) as info:
            TrajectoryConfig.for_drift(a, **{**dict(n_steps=1000, n_ensemble=2,
                                                    seed=1), **run})
        assert info.value.field == field

    @pytest.mark.parametrize("segments", [0, 20_000])
    def test_segment_count_names_the_field(self, segments):
        spec = bandpass_100hz()
        with pytest.raises(ValueError, match="segments_per_member") as info:
            simulate_phase_noise(spec, aux_config(spec, n_steps=20_000),
                                 segments_per_member=segments)
        assert info.value.field == "segments_per_member"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.0, n_steps=10, n_ensemble=1, seed=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=1.0, n_steps=10, n_ensemble=1, seed=0,
                             burn_in=10)


# every even 5-smooth length up to 2e6 samples, built from its factors
SMOOTH_EVEN = sorted(2 ** i * 3 ** j * 5 ** k for i in range(1, 21)
                     for j in range(13) for k in range(9)
                     if 2 ** i * 3 ** j * 5 ** k <= 2_000_000)


class TestSegmentLength:
    @settings(max_examples=300, deadline=None)
    @example(n_kept=0, segments=1)
    @example(n_kept=35, segments=8)
    @example(n_kept=36, segments=8)
    @given(n_kept=st.integers(0, 2_000_000), segments=st.integers(1, 64))
    def test_largest_even_5_smooth_length(self, n_kept, segments):
        cap = 2 * n_kept // (segments + 1)
        if cap < 8:
            with pytest.raises(ValueError, match="series too short") as info:
                _segment_length(n_kept, segments)
            assert info.value.field == "segments_per_member"
            return
        seg_len = _segment_length(n_kept, segments)
        assert seg_len >= 8
        assert seg_len == max(n for n in SMOOTH_EVEN if n <= cap)
        assert (n_kept - seg_len) // (seg_len // 2) + 1 >= segments

    def test_tiny_series_terminate(self):
        # n_kept = 0 and series below the 8-sample floor end in the error
        for n_kept in range(36):
            for segments in (1, 8, 1000):
                if 2 * n_kept // (segments + 1) < 8:
                    with pytest.raises(ValueError, match="series too short"):
                        _segment_length(n_kept, segments)
                else:
                    assert _segment_length(n_kept, segments) >= 8

    @pytest.mark.parametrize("n_steps, seg_len", [
        (500_000, 110_592),  # validate's defaults: 2^12 3^3
        (1_000_000, 221_184),  # acceptance criterion 7: 2^13 3^3
    ])
    def test_default_runs(self, n_steps, seg_len):
        cfg = aux_config(bandpass_100hz(), n_steps=n_steps)
        assert _segment_length(cfg.n_steps - cfg.burn_in, 8) == seg_len


class TestAgainstAnalytics:
    def test_auxiliary_pair_variance(self):
        spec = bandpass_100hz()
        cfg = aux_config(spec, n_steps=120_000, n_ensemble=8)
        a, d = auxiliary_block(spec)
        est = estimate_stationary_covariance(a, d, cfg)
        analytic = solve_lyapunov(a, d).matrix
        gap = np.abs(est.matrix - analytic)
        assert np.all(gap <= 3.0 * est.standard_errors
                      + 1e-12 * np.abs(analytic).max())

    def test_ou_spectrum_self_test(self):
        # 1-D Ornstein-Uhlenbeck: S(w) = d / (gamma^2 + w^2)
        gamma, d_val = 1.0, 4.0
        a = np.array([[-gamma]])
        d = np.array([[d_val]])
        cfg = TrajectoryConfig(dt=0.05, n_steps=200_000, n_ensemble=8,
                               seed=31415, burn_in=2000)
        from optomech.simulate import _propagate, _welch_segments

        _, rec = _propagate(a, d, cfg, record=0)
        omega, member_spectra = _welch_segments(rec, cfg.dt, 8)
        values = member_spectra.mean(axis=0)
        se = member_spectra.std(axis=0, ddof=1) / math.sqrt(cfg.n_ensemble)
        lorentz = d_val / (gamma ** 2 + omega ** 2)
        band = (omega > 0.2 * gamma) & (omega < 5 * gamma)
        # the 8-member scatter makes per-bin z-scores t-distributed, so a
        # few excursions beyond 3 are expected among ~1700 bins
        inside = (np.abs(values - lorentz)[band]
                  <= 3.0 * se[band] + 0.02 * lorentz[band])
        assert inside.mean() >= 0.95
        total = np.trapezoid(values, omega) / math.pi  # one-sided, two-sided S
        assert total == pytest.approx(d_val / (2 * gamma), rel=0.05)

    def test_bandpass_spectrum_at_reference_points(self):
        spec = bandpass_100hz()
        cfg = aux_config(spec, n_steps=400_000, n_ensemble=12)
        est = simulate_phase_noise(spec, cfg)
        for target, label in ((spec.omega_band / 25.0, "low band"),
                              (spec.omega_band, "band center")):
            idx = int(np.argmin(np.abs(est.frequencies - target)))
            ref = float(phase_noise_spectrum(spec, est.frequencies[idx]))
            assert abs(est.values[idx] - ref) <= 3.0 * est.standard_errors[idx], label

    def test_linear_system_matches_lyapunov(self):
        # fast mechanical damping keeps the slowest mode reachable
        p = make_params(quality_factor=50.0, phase_noise=bandpass_100hz())
        ss = solve_steady_state(p)
        model = build_model(p, ss)
        cfg = TrajectoryConfig.for_drift(model.drift, n_steps=220_000,
                                         n_ensemble=8, seed=777)
        est = estimate_stationary_covariance(model.drift, model.diffusion, cfg)
        analytic = solve_lyapunov(model.drift, model.diffusion).matrix
        gap = np.abs(est.matrix - analytic)
        tol = 3.0 * est.standard_errors + 1e-9 * np.abs(analytic).max()
        assert np.all(gap <= tol)

    def test_decoupled_blocks_reach_known_state(self):
        p = make_params(quality_factor=50.0, laser_power=0.0)
        ss = solve_steady_state(p)
        model = build_model(p, ss)
        cfg = TrajectoryConfig.for_drift(model.drift, n_steps=150_000,
                                         n_ensemble=8, seed=2024)
        est = estimate_stationary_covariance(model.drift, model.diffusion, cfg)
        n = thermal_occupancy(OMEGA_M, 0.4)
        target = np.diag([n + 0.5, n + 0.5, 0.5, 0.5])
        gap = np.abs(est.matrix - target)
        assert np.all(gap <= 3.0 * est.standard_errors + 1e-3)

    def test_ensemble_scaling_of_errors(self):
        spec = bandpass_100hz()
        a, d = auxiliary_block(spec)
        cfg8 = aux_config(spec, n_steps=60_000, n_ensemble=8, seed=5)
        cfg32 = aux_config(spec, n_steps=60_000, n_ensemble=32, seed=5)
        se8 = estimate_stationary_covariance(a, d, cfg8).standard_errors[0, 0]
        se32 = estimate_stationary_covariance(a, d, cfg32).standard_errors[0, 0]
        # quadrupling the ensemble should halve the error, within scatter
        assert 1.3 <= se8 / se32 <= 3.0

    def test_unstable_model_rejected(self):
        p = make_params(quality_factor=50.0)
        ss = solve_steady_state(p)
        model = build_model(p, ss)
        unstable = type(model)(drift=-model.drift, diffusion=model.diffusion)
        assert not unstable.stable
        cfg = TrajectoryConfig(dt=1e-9, n_steps=1000, n_ensemble=2, seed=1)
        with pytest.raises(UnstableTimestep):
            estimate_stationary_covariance(unstable.drift, unstable.diffusion,
                                           cfg)
