"""Sideband cooling and the effect of laser phase noise on the occupancy.

Compares the exact stationary occupancy with the weak-coupling closed form
(thermal + Stokes heating + resonant frequency-noise heating over the total
damping, plus the quasi-static heating by the low-frequency noise band),
then shows how the ground-state region of the power-linewidth maps narrows
as the laser linewidth grows.
"""

import math

import numpy as np

from optomech import (NoiseSpec, approx_n_eff, build_model, figure_recipe,
                      occupancy, power_for_coupling, reduce_to_optomechanical,
                      run_sweep, scattering_rates, solve_lyapunov,
                      solve_steady_state, static_phase_noise_heating,
                      thermal_occupancy)

OMEGA_M = 2 * math.pi * 1e7


def exact_occupancy(params):
    ss = solve_steady_state(params)
    model = build_model(params, ss)
    cov = solve_lyapunov(model.drift, model.diffusion)
    if cov.order == 6:
        cov = reduce_to_optomechanical(cov)
    return occupancy(cov, OMEGA_M).n_eff, ss


base = figure_recipe("fig7a", grid=(2, 2)).fixed  # delta = omega_m, no noise
print(f"bath occupancy at 0.4 K: n = {thermal_occupancy(OMEGA_M, 0.4):.1f}")

# --- cooling curve at kappa = 0.2 omega_m --------------------------------------
print("\ncooling vs coupling (kappa = 0.2 omega_m, no phase noise):")
print(f"{'G/kappa':>8} {'n_exact':>10} {'n_formula':>10} {'A+/Gamma_op':>12}")
params = base.with_(kappa=0.2 * OMEGA_M)
for g_frac in (0.05, 0.1, 0.2, 0.3):
    p = params.with_(laser_power=power_for_coupling(
        params, g_frac * params.kappa))
    n_exact, ss = exact_occupancy(p)
    # the closed form's regime flags are data; this table reads the value only
    n_formula = approx_n_eff(p, ss).value
    rates = scattering_rates(p, ss)
    print(f"{g_frac:8.2f} {n_exact:10.4f} {n_formula:10.4f} "
          f"{rates.a_plus / rates.gamma_op:12.6f}")
print("(the last column is the quantum backaction limit)")

# --- phase noise heats through two channels ------------------------------------
print("\nsame point with a 0.1 kHz bandpass-noise laser (band 50 kHz):")
noise = NoiseSpec.bandpass(2 * math.pi * 100, 2 * math.pi * 5e4, math.pi * 5e4)
for g_frac, label in ((0.06, "weak drive"), (0.3, "strong drive")):
    p = params.with_(laser_power=power_for_coupling(
        params, g_frac * params.kappa))
    n_quiet, _ = exact_occupancy(p)
    n_noisy, ss = exact_occupancy(p.with_(phase_noise=noise))
    n_formula = approx_n_eff(p.with_(phase_noise=noise), ss).value
    n_static = static_phase_noise_heating(p.with_(phase_noise=noise), ss).value
    print(f"  {label:12} G/kappa={g_frac}: exact {n_quiet:.4f} -> {n_noisy:.4f}, "
          f"closed form {n_formula:.4f} (static channel {n_static:.2e})")
print("at strong drive most of the added heat comes from the low-frequency")
print("part of the noise band, which jitters the mirror through the static")
print("radiation-pressure response; the closed form carries this channel")
print("next to the resonant one (noise spectrum at the mechanical resonance).")

# --- ground-state region vs linewidth ------------------------------------------
print("\nground-state region on the power/cavity-linewidth map (40x40):")
for fig, label in (("fig7a", "no noise"), ("fig7b", "0.1 kHz"),
                   ("fig7c", "1 kHz")):
    result = run_sweep(figure_recipe(fig, grid=(40, 40)))
    grid = result.grid("n_eff")
    stable = ~np.isnan(grid)
    area = np.sum(grid[stable] < 1.0)
    print(f"  {label:>8}: n_eff < 1 at {area:4d} of {stable.sum()} stable points")
