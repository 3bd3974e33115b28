import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import optomech
from optomech import (NoiseSpec, TrajectoryConfig, build_model,
                      estimate_stationary_covariance, exact_discretization,
                      phase_noise_spectrum, simulate_linear_system,
                      simulate_phase_noise, solve_lyapunov, solve_steady_state,
                      thermal_occupancy)
from optomech.dynamics import auxiliary_block
from optomech.errors import UnstableTimestep
from optomech.simulate import BLOCK_STEPS, _noise_factor, _propagate

from conftest import OMEGA_M, bandpass_100hz, make_params


def aux_config(spec, n_steps=200_000, n_ensemble=8, seed=20240811):
    a, _ = auxiliary_block(spec)
    eigs = np.linalg.eigvals(a)
    dt = 0.09 / float(np.max(np.abs(eigs)))
    burn = math.ceil(5.0 / float(np.min(-eigs.real)) / dt)
    return TrajectoryConfig(dt=dt, n_steps=n_steps, n_ensemble=n_ensemble,
                            seed=seed, burn_in=burn)


def scan_test_drift(name):
    """(drift, diffusion, dt) of the systems the block scan is pinned on."""
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
    return a, d, 0.09 / float(np.max(np.abs(np.linalg.eigvals(a))))


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
                                        "whole-blocks"])
    @pytest.mark.parametrize("drift", ["bandpass-pair", "critically-damped-pair",
                                       "ornstein-uhlenbeck", "optomechanical-6x6"])
    def test_matches_per_step_recursion(self, drift, layout):
        n_steps, burn_in = {
            # burn-in ends inside the second block; the last block is short
            "ragged-last-block": (2 * BLOCK_STEPS + 123, BLOCK_STEPS + 1000),
            "one-short-block": (1500, 700),
            "whole-blocks": (3 * BLOCK_STEPS, BLOCK_STEPS),
        }[layout]
        a, d, dt = scan_test_drift(drift)
        cfg = TrajectoryConfig(dt=dt, n_steps=n_steps, n_ensemble=3,
                               seed=97, burn_in=burn_in)
        record = a.shape[0] - 1
        moments, recording = _propagate(a, d, cfg, record=record)
        ref_moments, ref_recording = per_step_reference(a, d, cfg, record)
        assert recording.shape == (3, n_steps - burn_in)
        assert (np.max(np.abs(moments - ref_moments))
                <= 1e-11 * np.max(np.abs(ref_moments)))
        assert (np.max(np.abs(recording - ref_recording))
                <= 1e-11 * np.max(np.abs(ref_recording)))


class TestExactDiscretization:
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

    def test_cli_import_leaves_scipy_signal_out(self):
        # importing scipy.signal costs most of a second in a fresh process
        src = os.path.dirname(os.path.dirname(optomech.__file__))
        code = "import sys, optomech.cli; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "False"

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=0.0, n_steps=10, n_ensemble=1, seed=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(dt=1.0, n_steps=10, n_ensemble=1, seed=0,
                             burn_in=10)


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
        eigs = np.linalg.eigvals(model.drift)
        dt = 0.09 / float(np.max(np.abs(eigs)))
        burn = math.ceil(5.0 / float(np.min(-eigs.real)) / dt)
        cfg = TrajectoryConfig(dt=dt, n_steps=220_000, n_ensemble=8,
                               seed=777, burn_in=burn)
        est = simulate_linear_system(model, cfg)
        analytic = solve_lyapunov(model.drift, model.diffusion).matrix
        gap = np.abs(est.matrix - analytic)
        tol = 3.0 * est.standard_errors + 1e-9 * np.abs(analytic).max()
        assert np.all(gap <= tol)

    def test_decoupled_blocks_reach_known_state(self):
        p = make_params(quality_factor=50.0, laser_power=0.0)
        ss = solve_steady_state(p)
        model = build_model(p, ss)
        eigs = np.linalg.eigvals(model.drift)
        dt = 0.09 / float(np.max(np.abs(eigs)))
        burn = math.ceil(5.0 / float(np.min(-eigs.real)) / dt)
        cfg = TrajectoryConfig(dt=dt, n_steps=150_000, n_ensemble=8,
                               seed=2024, burn_in=burn)
        est = simulate_linear_system(model, cfg)
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
        unstable = type(model)(drift=-model.drift, diffusion=model.diffusion,
                               stable=False, dims=model.dims)
        cfg = TrajectoryConfig(dt=1e-9, n_steps=1000, n_ensemble=2, seed=1)
        with pytest.raises(UnstableTimestep):
            simulate_linear_system(unstable, cfg)
