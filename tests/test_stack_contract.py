"""The stack contract of the public API.

Each public function of a point either maps a stack to a stack, giving
each point the bits it gets alone, or raises a ValueError that names the
function. Every case runs on the points of ``MIXED`` that the function
accepts alone.
"""

import dataclasses
import json
import re
from functools import cached_property

import numpy as np
import pytest

import optomech
from optomech import (CovarianceMatrix, LinearModel, PointResult, SteadyState,
                      SystemParams, TrajectoryConfig)

from conftest import MIXED, OMEGA_M

ALL = range(len(MIXED))
BANDPASS = [0, 2]  # the 6x6 model
FLAT = [1, 3, 4, 5]  # white or no noise: the 4x4 model


class Inputs:
    """The inputs of the point ``MIXED[indices[0]]`` (``alone``) or of the
    stack of the points ``indices``."""

    def __init__(self, indices, alone):
        self.indices = indices
        self.alone = alone
        self.stack = SystemParams.stack([MIXED[i] for i in indices])
        self.params = MIXED[indices[0]] if alone else self.stack

    def each(self, value_of):
        """``value_of`` each point's index: one value alone, an array for a stack."""
        values = [value_of(i) for i in self.indices]
        return values[0] if self.alone else np.array(values)

    def one(self, result):
        """A stack-only function's result: point 0 of it alone."""
        return result[0] if self.alone else result

    @cached_property
    def ss(self):
        return optomech.solve_steady_state(self.params)

    @cached_property
    def model(self):
        return optomech.build_model(self.params, self.ss)

    @cached_property
    def cov(self):
        """Each stable point's covariance, as its model gives it."""
        if not self.alone:
            return CovarianceMatrix(matrix=np.stack(
                [Inputs([i], True).cov.matrix for i in self.indices]))
        return optomech.solve_lyapunov(self.model.drift, self.model.diffusion)

    @cached_property
    def v4(self):
        """Each stable point's reduced 4x4 covariance."""
        if not self.alone:
            return CovarianceMatrix(matrix=np.stack(
                [Inputs([i], True).v4.matrix for i in self.indices]))
        cov = self.cov
        return optomech.reduce_to_optomechanical(cov) if cov.order == 6 else cov


def _short_run(drift) -> TrajectoryConfig:
    """A Monte-Carlo run on ``drift`` of 64 steps past its burn-in."""
    cfg = TrajectoryConfig.for_drift(drift, 2 ** 62, 2, 0)
    return dataclasses.replace(cfg, n_steps=cfg.burn_in + 64)


def _document(model):
    doc = model.to_document()
    return {key: doc[key] for key in ("stable", "drift", "diffusion")}


def _simulate(x):
    pair = optomech.auxiliary_block(MIXED[BANDPASS[0]].phase_noise)[0]
    return optomech.simulate_phase_noise(x.params.phase_noise, _short_run(pair))


def _estimate(x):
    first = Inputs(x.indices[:1], True).model
    return optomech.estimate_stationary_covariance(
        x.model.drift, x.model.diffusion, _short_run(first.drift))


MAPS, REFUSES = "maps", "refuses"

# name in the message, points, outcome on their stack, call
CASES = {
    "drive_amplitude": (ALL, MAPS, lambda x: optomech.drive_amplitude(x.params)),
    "solve_steady_state": (ALL, MAPS, lambda x: optomech.solve_steady_state(x.params)),
    "power_for_coupling": (ALL, MAPS, lambda x: optomech.power_for_coupling(
        x.params, x.each(lambda i: 1e5 * (i + 1)))),
    "thermal_occupancy": (ALL, MAPS, lambda x: optomech.thermal_occupancy(
        x.params.omega_m, x.params.bath_temperature)),
    "apply_axis": (ALL, MAPS, lambda x: optomech.apply_axis(
        x.params, "power_mw", x.each(lambda i: 5.0 + i))),
    "evaluate_point": (ALL, REFUSES, lambda x: optomech.evaluate_point(x.params)),
    "evaluate_batch": (ALL, MAPS, lambda x: x.one(optomech.evaluate_batch(x.stack))),
    "run_pipeline": (ALL, MAPS, lambda x: tuple(
        x.one(r) for r in optomech.run_pipeline(x.stack)[:2])),
    "build_model": (ALL, REFUSES, lambda x: x.model),
    "build_model[4x4]": (FLAT, MAPS, lambda x: x.model),
    "build_model[6x6]": (BANDPASS, MAPS, lambda x: x.model),
    "optomechanical_block": (ALL, MAPS, lambda x: optomech.optomechanical_block(
        x.params, x.ss)),
    "stability_margin": (ALL, MAPS, lambda x: optomech.stability_margin(x.params, x.ss)),
    "static_phase_noise_heating": (ALL, MAPS, lambda x: (
        optomech.static_phase_noise_heating(x.params, x.ss))),
    "approx_n_eff": (ALL, MAPS, lambda x: optomech.approx_n_eff(x.params, x.ss)),
    "scattering_rates": (ALL, MAPS, lambda x: optomech.scattering_rates(x.params, x.ss)),
    "effective_response": (ALL, MAPS, lambda x: (
        r := optomech.effective_response(x.params, x.ss),
        r.chi_eff(x.each(lambda i: OMEGA_M * (0.5 + 0.1 * i))))),
    "threshold_eta_minus": (ALL, MAPS, lambda x: optomech.threshold_eta_minus(
        x.params, x.ss, x.each(lambda i: 10.0 * i))),
    "optimal_detuning_and_max_en": (ALL, MAPS, lambda x: (
        optomech.optimal_detuning_and_max_en(x.params.kappa / x.params.omega_m))),
    "cm_spectral_oracle": (ALL, REFUSES, lambda x: optomech.cm_spectral_oracle(
        x.params, x.ss)),
    "approx_cm_phase_correction": (ALL, REFUSES, lambda x: (
        optomech.approx_cm_phase_correction(x.params, x.ss))),
    "phase_noise_spectrum": (ALL, MAPS, lambda x: optomech.phase_noise_spectrum(
        x.params.phase_noise, x.each(lambda i: 1e4 * (i + 1)))),
    "auxiliary_block": (ALL, MAPS, lambda x: optomech.auxiliary_block(
        x.params.phase_noise)),
    "laser_correlation": (ALL, REFUSES, lambda x: optomech.laser_correlation(
        x.params.phase_noise, 1e-5)),
    "laser_correlation[tau]": (ALL, REFUSES, lambda x: optomech.laser_correlation(
        MIXED[BANDPASS[0]].phase_noise,
        x.each(lambda i: 1e-6 * (i + 1)))),
    "drift_abscissa[4x4]": (FLAT, MAPS, lambda x: optomech.drift_abscissa(x.model.drift)),
    "drift_abscissa[6x6]": (BANDPASS, MAPS, lambda x: optomech.drift_abscissa(
        x.model.drift)),
    "solve_lyapunov[4x4]": (FLAT, MAPS, lambda x: optomech.solve_lyapunov(
        x.model.drift, x.model.diffusion)),
    "solve_lyapunov[6x6]": (BANDPASS, MAPS, lambda x: optomech.solve_lyapunov(
        x.model.drift, x.model.diffusion)),
    "reduce_to_optomechanical": (BANDPASS, MAPS, lambda x: (
        optomech.reduce_to_optomechanical(x.cov))),
    "symplectic_eigenvalues": (ALL, MAPS, lambda x: optomech.symplectic_eigenvalues(
        x.v4.matrix)),
    "check_physical": (ALL, MAPS, lambda x: optomech.check_physical(x.v4)),
    "log_negativity": (ALL, MAPS, lambda x: optomech.log_negativity(x.v4)),
    "occupancy": (ALL, MAPS, lambda x: optomech.occupancy(x.v4, x.params.omega_m)),
    "eta_minus_partial_transpose": (ALL, MAPS, lambda x: (
        optomech.eta_minus_partial_transpose(x.v4))),
    "exact_discretization": (FLAT, REFUSES, lambda x: optomech.exact_discretization(
        x.model.drift, x.model.diffusion, 1e-10)),
    # point 3, undriven, relaxes at gamma_m: its run needs 2.5e8 burn-in steps
    "estimate_stationary_covariance": ([4, 5], REFUSES, _estimate),
    "simulate_phase_noise": (ALL, REFUSES, _simulate),
    "TrajectoryConfig.for_drift": (FLAT, REFUSES, lambda x: TrajectoryConfig.for_drift(
        x.model.drift, 2 ** 62, 2, 0)),
    "LinearModel.to_document[4x4]": (FLAT, MAPS, lambda x: _document(x.model)),
    "LinearModel.to_document[6x6]": (BANDPASS, MAPS, lambda x: _document(x.model)),
    "LinearModel.from_document": (FLAT, MAPS, lambda x: LinearModel.from_document(
        json.loads(json.dumps(x.model.to_document())))),
    "SystemParams.stack": (ALL, REFUSES, lambda x: SystemParams.stack([x.params])),
}

# the public functions that take no point: a mode count, a recipe, a sweep
NOT_OF_A_POINT = {"symplectic_form", "default_fixed_params", "figure_recipe",
                  "run_sweep", "emit_figure_data"}


def _compared(record) -> dict:
    """The values of a record that its equality reads, and what it derives."""
    skip = {f.name for f in dataclasses.fields(record) if not f.compare}
    return {name: value for name, value in vars(record).items() if name not in skip}


def _point_of(result, i):
    """Point ``i``'s share of a stacked result."""
    if isinstance(result, (SteadyState, LinearModel, PointResult)):
        return result[i]
    if dataclasses.is_dataclass(result):
        return {name: _point_of(v, i) for name, v in _compared(result).items()}
    if isinstance(result, dict):
        return {name: _point_of(v, i) for name, v in result.items()}
    if isinstance(result, tuple):
        return tuple(_point_of(v, i) for v in result)
    return result if callable(result) else result[i]


def _leaves(result, name="result") -> dict:
    """The values of a result by path, records and tuples opened."""
    if dataclasses.is_dataclass(result):
        result = _compared(result)
    elif isinstance(result, tuple):
        result = dict(enumerate(result))
    if not isinstance(result, dict):
        return {name: result}
    return {path: leaf for key, value in result.items()
            for path, leaf in _leaves(value, f"{name}.{key}").items()}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        a, b, equal_nan=a.dtype.kind in "fc" and b.dtype.kind in "fc")


def test_every_public_function_has_a_case():
    functions = {name for name in optomech.__all__
                 if callable(value := getattr(optomech, name))
                 and not isinstance(value, type)}
    covered = {re.sub(r"\[.*\]$", "", case) for case in CASES}
    assert NOT_OF_A_POINT <= functions
    assert functions - NOT_OF_A_POINT <= covered


@pytest.mark.parametrize("case", list(CASES))
def test_stack_maps_or_is_refused_by_name(case):
    indices, outcome, call = CASES[case]
    alone = {}
    for i in indices:
        try:
            alone[i] = call(Inputs([i], True))
        except Exception:  # not accepted alone, so not in the stack
            continue
    assert len(alone) >= 2, "the case needs a stack of two or more points"
    stack = Inputs(list(alone), False)
    name = re.sub(r"\[.*\]$", "", case)
    if outcome == REFUSES:
        with pytest.raises(ValueError, match=re.escape(name)):
            call(stack)
        return
    stacked = call(stack)
    for k, point in enumerate(alone.values()):
        expected = _leaves(point)
        found = _leaves(_point_of(stacked, k))
        assert found.keys() == expected.keys()
        for path, value in expected.items():
            if not callable(value):
                assert _same_bits(found[path], value), (case, k, path)
