"""Monte-Carlo validation of the bandpass frequency-noise generator.

Integrates the two-variable noise realization with the exact Gaussian
one-step propagator, then checks the sampled trajectories against analytics:
the stationary variances against the Lyapunov solution and the Welch
spectrum against the closed-form bandpass shape.
"""

import math

import numpy as np

from optomech import (NoiseSpec, TrajectoryConfig, phase_noise_spectrum,
                      simulate_phase_noise, solve_lyapunov)
from optomech.dynamics import auxiliary_block

spec = NoiseSpec.bandpass(
    gamma_l=2 * math.pi * 100.0,        # 0.1 kHz laser linewidth
    omega_band=2 * math.pi * 5e4,       # band center 50 kHz
    gamma_tilde=math.pi * 5e4,          # width = center / 2
)

a, d = auxiliary_block(spec)
# the run rule of simulate picks the timestep and the burn-in
cfg = TrajectoryConfig.for_drift(a, n_steps=400_000, n_ensemble=12,
                                 seed=20240811)
print(f"dt = {cfg.dt:.3e} s, {cfg.n_steps} steps x {cfg.n_ensemble} members, "
      f"burn-in {cfg.burn_in} steps")

# one ensemble gives both the spectrum of psi and the pair's covariance
estimate = simulate_phase_noise(spec, cfg, segments_per_member=8)

# --- stationary variances -------------------------------------------------------
est = estimate.covariance
analytic = solve_lyapunov(a, d).matrix
print("\nstationary second moments (estimate / analytic / z):")
labels = ("psi^2", "psi*theta", "theta^2")
for (i, j), label in zip(((0, 0), (0, 1), (1, 1)), labels):
    z = (est.matrix[i, j] - analytic[i, j]) / est.standard_errors[i, j]
    print(f"  {label:>9}: {est.matrix[i, j]:.4e} / {analytic[i, j]:.4e} "
          f"/ z = {z:+.2f}")
print(f"(analytic variance Gamma_l*Omega^2/gamma_tilde = "
      f"{spec.gamma_l * spec.omega_band ** 2 / spec.gamma_tilde:.4e})")

# --- spectrum ---------------------------------------------------------------------
grid = estimate.frequencies
print("\nWelch spectrum vs closed form (flat value 2*Gamma_l = "
      f"{2 * spec.gamma_l:.1f}, peak value 8*Gamma_l = {8 * spec.gamma_l:.1f}):")
print(f"{'omega/Omega':>12} {'estimate':>10} {'analytic':>10} {'z':>6}")
for target in (0.05, 0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 2.5):
    idx = int(np.argmin(np.abs(grid - target * spec.omega_band)))
    ref = float(phase_noise_spectrum(spec, grid[idx]))
    z = (estimate.values[idx] - ref) / estimate.standard_errors[idx]
    print(f"{grid[idx] / spec.omega_band:12.3f} {estimate.values[idx]:10.1f} "
          f"{ref:10.1f} {z:+6.2f}")
print("\nsame trajectories, same seed, rerun -> bit-identical estimates;")
print("the one-step update is exact, so no discretization bias enters.")
