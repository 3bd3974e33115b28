"""Stationary Gaussian states of a laser-driven optomechanical cavity.

The package computes the steady state of the linearized fluctuation dynamics
of a driven cavity whose laser carries frequency noise, and derives
optomechanical entanglement (logarithmic negativity) and mechanical cooling
(effective occupancy) from it. Every result is cross-checked by independent
routes: a frequency-domain oracle against the Lyapunov solver, closed forms
against the full pipeline, and stochastic trajectories against both.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .constants import CODATA_VERSION, C_LIGHT, HBAR, K_B
from .dynamics import (LinearModel, auxiliary_block, build_model,
                       drift_abscissa, optomechanical_block,
                       phase_noise_spectrum, stability_margin)
from .lyapunov import (CovarianceMatrix, check_physical,
                       reduce_to_optomechanical, solve_lyapunov,
                       symplectic_eigenvalues, symplectic_form)
from .measures import (EntanglementResult, OccupancyResult,
                       eta_minus_partial_transpose, log_negativity, occupancy)
from .parameters import (NoiseSpec, SteadyState, SystemParams,
                         drive_amplitude, power_for_coupling,
                         solve_steady_state, thermal_occupancy)
from .simulate import (CovarianceEstimate, SpectrumEstimate, TrajectoryConfig,
                       estimate_stationary_covariance, exact_discretization,
                       simulate_phase_noise)
from .spectral import (EffectiveResponse, ScatteringRates,
                       approx_cm_phase_correction, approx_n_eff,
                       cm_spectral_oracle, effective_response,
                       laser_correlation, optimal_detuning_and_max_en,
                       scattering_rates, static_phase_noise_heating,
                       threshold_eta_minus)
from .sweep import (OUTPUT_NAMES, PointResult, SweepAxis, SweepResult,
                    SweepSpec, apply_axis, default_fixed_params,
                    emit_figure_data, evaluate_batch, evaluate_point,
                    figure_recipe, run_pipeline, run_sweep)

# the public functions, classes and constants; the submodules stay attributes
__all__ = [name for name, value in sorted(vars().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
