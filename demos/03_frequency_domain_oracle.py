"""Cross-validation: Lyapunov solver vs frequency-domain integration.

The stationary covariance is computed twice, by construction independently:
once from the Lyapunov equation of the 6-variable model (noise carried by
the auxiliary pair), once by integrating the fluctuation spectra with the
phase-noise correction. The two must agree entrywise; this is the primary
correctness oracle of the package.
"""

import math

import numpy as np

from optomech import (NoiseSpec, SystemParams, build_model, cm_spectral_oracle,
                      effective_response, laser_correlation, log_negativity,
                      phase_noise_spectrum, reduce_to_optomechanical,
                      solve_lyapunov, solve_steady_state)

OMEGA_M = 2 * math.pi * 1e7

params = SystemParams(
    omega_m=OMEGA_M,
    quality_factor=2e6,
    kappa=0.5 * OMEGA_M,
    detuning=OMEGA_M,
    g0=1e3,
    laser_power=20e-3,
    laser_wavelength=810e-9,
    bath_temperature=0.4,
    phase_noise=NoiseSpec.bandpass(2 * math.pi * 100, 2 * math.pi * 5e4,
                                   math.pi * 5e4),
)
ss = solve_steady_state(params)

model = build_model(params, ss)
v_lyap = reduce_to_optomechanical(solve_lyapunov(model.drift, model.diffusion))
v_spec = cm_spectral_oracle(params, ss)

# entries far below max|V| (such as <dq dp>, zero by stationarity) are
# compared against 1e-6 max|V| instead of their own size
scale = 1e-6 * np.max(np.abs(v_lyap.matrix))
gap = np.max(np.abs(v_spec.matrix - v_lyap.matrix)
             / np.maximum(np.abs(v_lyap.matrix), scale))
print("reduced 4x4 covariance, Lyapunov route:")
print(np.array2string(v_lyap.matrix, precision=4, suppress_small=True))
print(f"\nworst entrywise relative gap to the spectral route: {gap:.3e}")
print(f"E_N (Lyapunov)  = {log_negativity(v_lyap).log_negativity:.9f}")
print(f"E_N (spectral)  = {log_negativity(v_spec).log_negativity:.9f}")

# --- the ingredients of the spectral route ------------------------------------
resp = effective_response(params, ss)
print(f"\noptical spring: omega_eff = {resp.omega_eff / OMEGA_M:.4f} omega_m, "
      f"gamma_eff = {resp.gamma_eff:.4e} rad/s")
w = np.array([0.0, resp.omega_eff / 2, resp.omega_eff])
print("frequency-noise spectrum S(w) [rad/s] at 0, w_eff/2, w_eff:",
      np.array2string(np.asarray(phase_noise_spectrum(params.phase_noise, w)),
                      precision=3))

# --- laser field correlation ---------------------------------------------------
gl = params.phase_noise.gamma_l
print("\nfield correlation C(tau): bandpass noise vs flat noise of the same "
      "strength")
print(f"{'tau*Gamma_l':>12} {'bandpass':>10} {'flat':>10}")
for x in (0.5, 1.0, 2.0, 5.0):
    tau = x / gl
    c_band = laser_correlation(params.phase_noise, tau)
    c_flat = laser_correlation(NoiseSpec.white(gl), tau)
    print(f"{x:12.1f} {c_band:10.6f} {c_flat:10.6f}")
print("(flat noise follows exp(-Gamma_l*tau), a Lorentzian laser line)")
