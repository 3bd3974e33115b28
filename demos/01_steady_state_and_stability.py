"""Classical working point, bistability, and the stability threshold.

Walks the driven cavity from weak to strong drive at the reference
parameters (10 MHz mechanical mode, Q = 2e6, 0.4 K, half-linewidth cavity)
and shows the intracavity field, the radiation-pressure detuning shift,
the bistable branch structure, and the instability threshold.
"""

import math

import numpy as np

from optomech import (SystemParams, NoiseSpec, build_model, power_for_coupling,
                      solve_steady_state, stability_margin)

OMEGA_M = 2 * math.pi * 1e7

params = SystemParams(
    omega_m=OMEGA_M,
    quality_factor=2e6,
    kappa=0.5 * OMEGA_M,
    detuning=OMEGA_M,          # effective detuning on resonance with the mechanics
    g0=1e3,
    laser_power=20e-3,
    laser_wavelength=810e-9,
    bath_temperature=0.4,
    phase_noise=NoiseSpec.none(),
)

# --- single working point ---------------------------------------------------
ss = solve_steady_state(params)
print("reference working point (P = 20 mW, delta = omega_m):")
print(f"  |alpha_s|      = {ss.alpha_abs:.4e}")
print(f"  photon number  = {ss.photon_number:.4e}")
print(f"  G = g0*sqrt(2)*|alpha_s| = {ss.g_eff:.4e} rad/s "
      f"({ss.g_eff / OMEGA_M:.3f} omega_m)")
print(f"  bare detuning shift = {(ss.delta_bare - ss.delta_eff) / OMEGA_M:.4f} omega_m")
print(f"  stability margin G/G_thr = {stability_margin(params, ss).checked():.4f}")

# --- power scan up to the instability ----------------------------------------
print("\npower scan at fixed effective detuning:")
g_threshold = math.sqrt((params.detuning ** 2 + params.kappa ** 2)
                        * OMEGA_M / params.detuning)
p_threshold = power_for_coupling(params, g_threshold)
print(f"  threshold power = {p_threshold * 1e3:.2f} mW")
print(f"  {'P [mW]':>8} {'G/omega_m':>10} {'margin':>8} {'stable':>7}")
for frac in (0.1, 0.4, 0.7, 0.9, 0.99, 1.05):
    p = params.with_(laser_power=frac * p_threshold)
    ss = solve_steady_state(p)
    model = build_model(p, ss)
    print(f"  {p.laser_power * 1e3:8.2f} {ss.g_eff / OMEGA_M:10.4f} "
          f"{stability_margin(p, ss).checked():8.4f} {str(model.stable):>7}")

# --- bistability of the static cubic -----------------------------------------
# at large *bare* detuning and strong drive the intensity cubic has three
# admissible roots; the lower branch is the one connected to zero drive
print("\nbistable branch structure (bare detuning 2.5 omega_m, P = 45 mW):")
bistable = params.with_(detuning=2.5 * OMEGA_M, detuning_mode="bare",
                        laser_power=45e-3)
for branch in ("lower", "middle", "upper"):
    ss = solve_steady_state(bistable, branch=branch)
    print(f"  {branch:>6}: |alpha_s|^2 = {ss.photon_number:.4e}, "
          f"effective detuning = {ss.delta_eff / OMEGA_M:.3f} omega_m")
roots = solve_steady_state(bistable).all_roots
print(f"  residual check: {len(roots)} admissible intensities, sorted "
      f"ascending: {np.array(roots)}")
