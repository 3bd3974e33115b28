"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings. The expensive sweeps are shared module-scoped
fixtures so each grid is evaluated once.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from optomech import (NoiseSpec, TrajectoryConfig, approx_n_eff, build_model,
                      cm_spectral_oracle, eta_minus_partial_transpose,
                      evaluate_point,
                      figure_recipe, laser_correlation, log_negativity,
                      occupancy, optimal_detuning_and_max_en,
                      phase_noise_spectrum, power_for_coupling,
                      reduce_to_optomechanical, run_sweep, scattering_rates,
                      simulate_phase_noise, solve_lyapunov, solve_steady_state,
                      stability_margin, symplectic_form)
from optomech.dynamics import auxiliary_block, optomechanical_block
from optomech.errors import NonpositiveDetuning
from optomech.lyapunov import CovarianceMatrix
from optomech.spectral import effective_response

from conftest import (OMEGA_M, bandpass_100hz, make_params,
                      quad_laser_correlation, relative_gap)

LN_5_3 = math.log(5.0 / 3.0)


def _report(criterion: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {detail}")


def _timed_trio(figures, grid=(80, 80)):
    start = time.time()
    results = {fig: run_sweep(figure_recipe(fig, grid=grid))
               for fig in figures}
    return results, time.time() - start


@pytest.fixture(scope="module")
def fig2_trio():
    return _timed_trio(("fig2a", "fig2b", "fig2c"))


@pytest.fixture(scope="module")
def fig4_trio():
    return _timed_trio(("fig4a", "fig4b", "fig4c"))


@pytest.fixture(scope="module")
def fig7_trio():
    return _timed_trio(("fig7a", "fig7b", "fig7c"), grid=(60, 60))


def test_criterion_1_ideal_limit_entanglement_bound():
    start = time.time()
    delta_ratio, en_formula = optimal_detuning_and_max_en(1e-3)
    formula_gap = abs(en_formula - LN_5_3)

    kappa = 1e-3 * OMEGA_M
    delta = delta_ratio * OMEGA_M
    params = make_params(kappa=kappa, detuning=delta, bath_temperature=0.0)
    g_threshold = math.sqrt((delta ** 2 + kappa ** 2) * OMEGA_M / delta)
    params = params.with_(
        laser_power=power_for_coupling(params, 0.999 * g_threshold))
    ss = solve_steady_state(params)
    model = build_model(params, ss)
    cov = solve_lyapunov(model.drift, model.diffusion)
    en_pipeline = log_negativity(cov).log_negativity
    pipeline_rel = abs(en_pipeline - LN_5_3) / LN_5_3

    elapsed = time.time() - start
    ok = formula_gap <= 1e-4 and pipeline_rel <= 0.05 and elapsed < 1.0
    _report("1 ideal-limit bound", ok,
            f"formula gap {formula_gap:.2e} (<=1e-4), pipeline E_N "
            f"{en_pipeline:.4f} rel {pipeline_rel:.2%} (<=5%)", elapsed)
    assert formula_gap <= 1e-4
    assert pipeline_rel <= 0.05
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    start = time.time()
    spec = figure_recipe("fig2b", grid=(5, 5))
    worst_entry = 0.0
    worst_en = 0.0
    n_checked = 0
    for x in spec.axis_x.values():
        for y in spec.axis_y.values():
            params = spec.fixed.with_(laser_power=x * 1e-3,
                                      detuning=y * OMEGA_M)
            ss = solve_steady_state(params)
            model = build_model(params, ss)
            if not model.stable:
                continue
            v_lyap = reduce_to_optomechanical(
                solve_lyapunov(model.drift, model.diffusion))
            v_spec = cm_spectral_oracle(params, ss)
            worst_entry = max(worst_entry,
                              relative_gap(v_spec.matrix, v_lyap.matrix))
            en_gap = abs(log_negativity(v_spec).log_negativity
                         - log_negativity(v_lyap).log_negativity)
            worst_en = max(worst_en, en_gap)
            n_checked += 1
    elapsed = time.time() - start
    ok = worst_entry <= 1e-6 and worst_en <= 1e-6 and elapsed < 60.0
    _report("2 oracle equivalence", ok,
            f"{n_checked} stable points, worst entry rel {worst_entry:.2e} "
            f"(<=1e-6), worst E_N gap {worst_en:.2e} (<=1e-6)", elapsed)
    assert n_checked >= 15
    assert worst_entry <= 1e-6
    assert worst_en <= 1e-6
    assert elapsed < 60.0


def test_criterion_3_threshold_collapse_with_noise():
    start = time.time()
    params = make_params(phase_noise=bandpass_100hz())
    g_threshold = math.sqrt(1.25) * OMEGA_M
    p_threshold = power_for_coupling(params, g_threshold)
    fractions = np.linspace(0.01, 0.9999, 300)
    e_n = np.array([evaluate_point(params.with_(
        laser_power=f * p_threshold)).e_n for f in fractions])
    tail = e_n[fractions >= 0.98]
    interior = e_n[fractions < 0.98]
    elapsed = time.time() - start
    ok = (np.all(tail == 0.0) and np.nanmax(interior) > 0.0
          and elapsed < 10.0)
    _report("3 threshold collapse", ok,
            f"interior max E_N {np.nanmax(interior):.4f} at "
            f"{fractions[np.nanargmax(e_n)]:.0%} of threshold power; "
            f"last 2% all zero: {bool(np.all(tail == 0.0))}", elapsed)
    assert np.all(tail == 0.0)
    assert np.nanmax(interior) > 0.0
    assert elapsed < 10.0


def test_criterion_4_monotone_degradation(fig2_trio):
    results, sweep_seconds = fig2_trio
    start = time.time() - sweep_seconds
    grids = [results[f].grid("e_n") for f in ("fig2a", "fig2b", "fig2c")]
    stable = ~np.isnan(grids[0])
    for g in grids[1:]:
        np.testing.assert_array_equal(np.isnan(g), ~stable)
    pointwise_ok = True
    for low_noise, high_noise in zip(grids, grids[1:]):
        pointwise_ok &= bool(np.all(
            high_noise[stable] <= low_noise[stable] + 1e-10))
    areas = [float(np.mean(g[stable] > 0.0)) for g in grids]
    maxima = [float(np.max(g[stable])) for g in grids]
    elapsed = time.time() - start
    ok = (pointwise_ok and areas[0] > areas[1] > areas[2]
          and maxima[0] > maxima[1] > maxima[2] and elapsed < 300.0)
    _report("4 monotone degradation", ok,
            f"pointwise ordered: {pointwise_ok}; entangled fractions "
            f"{areas[0]:.3f} > {areas[1]:.3f} > {areas[2]:.3f}; maxima "
            f"{maxima[0]:.3f} > {maxima[1]:.3f} > {maxima[2]:.3f}", elapsed)
    assert pointwise_ok
    assert areas[0] > areas[1] > areas[2]
    assert maxima[0] > maxima[1] > maxima[2]
    assert elapsed < 300.0


def test_criterion_5_spectral_broadening_degradation(fig4_trio):
    results, sweep_seconds = fig4_trio
    start = time.time() - sweep_seconds
    maxima = []
    for fig in ("fig4a", "fig4b", "fig4c"):
        grid = results[fig].grid("e_n")
        maxima.append(float(np.nanmax(grid)))
    elapsed = time.time() - start
    ok = maxima[0] > maxima[1] > maxima[2] and elapsed < 900.0
    _report("5 spectral broadening", ok,
            "max E_N over grid for band centers 30/80/140 kHz: "
            f"{maxima[0]:.4f} > {maxima[1]:.4f} > {maxima[2]:.4f}", elapsed)
    assert maxima[0] > maxima[1] > maxima[2]
    assert elapsed < 900.0


def test_criterion_6_cooling_formula_accuracy():
    start = time.time()
    rng = np.random.default_rng(20240811)
    gaps = []
    for i in range(100):
        kappa_ratio = rng.uniform(0.2, 1.0)
        g_fraction = rng.uniform(0.02, 0.3)
        noisy = i % 2 == 1
        noise = bandpass_100hz() if noisy else NoiseSpec.none()
        params = make_params(kappa=kappa_ratio * OMEGA_M, phase_noise=noise)
        params = params.with_(laser_power=power_for_coupling(
            params, g_fraction * kappa_ratio * OMEGA_M))
        ss = solve_steady_state(params)
        model = build_model(params, ss)
        cov = solve_lyapunov(model.drift, model.diffusion)
        if cov.order == 6:
            cov = reduce_to_optomechanical(cov)
        exact = occupancy(cov, OMEGA_M).n_eff
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            approx = approx_n_eff(params, ss).checked()
        gaps.append((abs(approx - exact) / exact, noisy, kappa_ratio,
                     g_fraction))
    worst = max(g for g, *_ in gaps)
    worst_quiet = max(g for g, noisy, *_ in gaps if not noisy)
    n_over = sum(1 for g, *_ in gaps if g > 0.15)
    elapsed = time.time() - start
    ok = worst <= 0.15 and elapsed < 120.0
    _report(
        "6a cooling formula", ok,
        f"worst rel gap {worst:.2%} (<=15%) over 100 samples; "
        f"noise-free half worst {worst_quiet:.2%}; {n_over} points exceed "
        "15% (the closed form carries the resonant channel and the "
        "quasi-static channel of the low-frequency noise band)", elapsed)
    assert elapsed < 120.0
    # The exact model heats through the resonant part of the noise spectrum
    # and through the static radiation-pressure response to the band at
    # omega << omega_m. For G/kappa near 0.3 with Gamma_l = 2*pi*0.1 kHz the
    # second channel dominates the noisy half of this region, so the bound
    # holds only because approx_n_eff carries both
    # (static_phase_noise_heating is the second).
    assert worst <= 0.15, (
        "approx_n_eff deviates from the exact occupancy beyond the "
        "specified 15%")


def test_criterion_6_ground_state_region_shrinks(fig7_trio):
    results, sweep_seconds = fig7_trio
    start = time.time() - sweep_seconds
    areas = []
    for fig in ("fig7a", "fig7b", "fig7c"):
        grid = results[fig].grid("n_eff")
        stable = ~np.isnan(grid)
        areas.append(int(np.sum(grid[stable] < 1.0)))
    elapsed = time.time() - start
    ok = areas[0] > 0 and areas[0] > areas[1] > areas[2] and elapsed < 120.0
    _report("6b ground-state region", ok,
            f"n_eff<1 grid points for linewidth 0/0.1/1 kHz: {areas[0]} > "
            f"{areas[1]} > {areas[2]}", elapsed)
    assert areas[0] > 0
    assert areas[0] > areas[1] > areas[2]
    assert elapsed < 120.0


def test_criterion_7_noise_generator_fidelity():
    start = time.time()
    spec = bandpass_100hz()
    a_aux, d_aux = auxiliary_block(spec)
    cfg = TrajectoryConfig.for_drift(a_aux, n_steps=1_000_000, n_ensemble=16,
                                     seed=20240811)

    estimate = simulate_phase_noise(spec, cfg, segments_per_member=8)
    grid = estimate.frequencies

    def band_check(lo, hi):
        idx = np.where((grid >= lo) & (grid <= hi))[0]
        idx = idx[idx >= 2][::2]
        est = float(np.mean(estimate.values[idx]))
        se = float(np.sqrt(np.mean(estimate.standard_errors[idx] ** 2)
                           / idx.size))
        ref = float(np.mean(phase_noise_spectrum(spec, grid[idx])))
        return est, se, ref, abs(est - ref) / se

    low = band_check(spec.omega_band / 50.0, spec.omega_band / 10.0)
    center = band_check(spec.omega_band - spec.gamma_tilde / 4.0,
                        spec.omega_band + spec.gamma_tilde / 4.0)

    # the same trajectories give the stationary moments
    moments = estimate.covariance
    analytic = solve_lyapunov(a_aux, d_aux).matrix
    var_gap = max(abs(moments.matrix[0, 0] - analytic[0, 0]) / analytic[0, 0],
                  abs(moments.matrix[1, 1] - analytic[1, 1]) / analytic[1, 1])

    elapsed = time.time() - start
    ok = (low[3] <= 3.0 and center[3] <= 3.0 and var_gap <= 5e-3
          and elapsed < 60.0)
    _report("7 noise generator", ok,
            f"low band z={low[3]:.2f}, band center z={center[3]:.2f} "
            f"(2*Gamma_l={2*spec.gamma_l:.1f}, 8*Gamma_l={8*spec.gamma_l:.1f}); "
            f"stationary variance gap {var_gap:.2%} (<=0.5%)", elapsed)
    assert low[3] <= 3.0
    assert center[3] <= 3.0
    assert var_gap <= 5e-3
    assert elapsed < 60.0


def test_criterion_8_property_suites(fig2_trio, fig4_trio, fig7_trio):
    start = time.time()
    rng = np.random.default_rng(1234)

    # Lyapunov residual on random stable systems
    worst_residual = 0.0
    for _ in range(100):
        a = rng.standard_normal((6, 6))
        a -= (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.5, 2)) * np.eye(6)
        b = rng.standard_normal((6, 6))
        d = b @ b.T
        v = solve_lyapunov(a, d).matrix
        worst_residual = max(worst_residual,
                             np.linalg.norm(a @ v + v @ a.T + d)
                             / max(np.linalg.norm(d), 1.0))

    # Heisenberg bound at every stable point of every sweep in the session
    heisenberg_min = min(
        p.heisenberg_min
        for trio, _ in (fig2_trio, fig4_trio, fig7_trio)
        for res in trio.values()
        for p in res.points if p.stable)

    # formula vs partial-transpose route on random physical states
    worst_en_gap = 0.0
    for _ in range(1000):
        h = rng.standard_normal((4, 4))
        s = scipy.linalg.expm(symplectic_form(2) @ (h + h.T) / 2)
        v = 0.5 * s @ s.T
        if rng.uniform() < 0.5:
            w = 0.3 * rng.standard_normal((4, 4))
            v = v + w @ w.T
        cm = CovarianceMatrix(matrix=v)
        eta_formula = log_negativity(cm).eta_minus
        eta_pt = eta_minus_partial_transpose(cm)
        en_formula = max(0.0, -math.log(2 * eta_formula))
        en_pt = max(0.0, -math.log(2 * eta_pt))
        worst_en_gap = max(worst_en_gap, abs(en_formula - en_pt))

    # analytic vs eigenvalue stability on random parameter sets
    disagreements = 0
    n_compared = 0
    for _ in range(1000):
        p = make_params(
            kappa=OMEGA_M * 10 ** rng.uniform(-1.5, 0.7),
            detuning=OMEGA_M * 10 ** rng.uniform(-1.3, 0.7),
            quality_factor=10 ** rng.uniform(3, 7))
        g = OMEGA_M * 10 ** rng.uniform(-3, 0.5)
        p = p.with_(laser_power=power_for_coupling(p, g))
        ss = solve_steady_state(p)
        try:
            margin = stability_margin(p, ss).checked()
        except NonpositiveDetuning:
            continue
        if abs(margin - 1.0) < 1e-6:
            continue
        a4 = optomechanical_block(p, ss)
        verdict = bool(np.max(np.linalg.eigvals(a4).real) < 0.0)
        disagreements += verdict is not (margin < 1.0)
        n_compared += 1

    # damping identity between the two closed forms
    worst_identity = 0.0
    for _ in range(200):
        p = make_params(kappa=OMEGA_M * rng.uniform(0.1, 2.0),
                        detuning=OMEGA_M * rng.uniform(0.3, 2.0))
        p = p.with_(laser_power=power_for_coupling(
            p, OMEGA_M * rng.uniform(0.01, 0.5)))
        ss = solve_steady_state(p)
        rates = scattering_rates(p, ss)
        resp = effective_response(p, ss)
        worst_identity = max(
            worst_identity,
            abs(rates.gamma_op - (resp.gamma_eff - p.gamma_m))
            / max(rates.gamma_op, 1e-300))

    # the Lorentzian flat-noise correlation against the spectral integral
    gl = 2 * math.pi * 100.0
    white = NoiseSpec.white(gl)
    worst_corr = max(
        abs(laser_correlation(white, t) - quad_laser_correlation(white, t))
        for t in np.linspace(0.0, 10.0 / gl, 26))

    elapsed = time.time() - start
    ok = (worst_residual <= 1e-10 and heisenberg_min >= 0.5 - 1e-9
          and worst_en_gap <= 1e-9 and disagreements == 0
          and worst_identity <= 1e-12 and worst_corr <= 1e-8)
    _report("8 property suites", ok,
            f"lyapunov residual {worst_residual:.1e}; heisenberg min "
            f"{heisenberg_min:.12f}; E_N route gap {worst_en_gap:.1e}; "
            f"stability disagreements {disagreements}/{n_compared}; damping "
            f"identity {worst_identity:.1e}; white C(tau) gap {worst_corr:.1e}",
            elapsed)
    assert worst_residual <= 1e-10
    assert heisenberg_min >= 0.5 - 1e-9
    assert worst_en_gap <= 1e-9
    assert disagreements == 0
    assert n_compared >= 900
    assert worst_identity <= 1e-12
    assert worst_corr <= 1e-8
