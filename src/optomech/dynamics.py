"""Linearized fluctuation dynamics: drift and diffusion matrices, stability.

State ordering of the full model is (dq, dp, dX, dY, psi, theta): mechanical
position/momentum, cavity quadratures, and the two auxiliary variables that
realize the bandpass frequency noise. White or absent noise uses the reduced
(dq, dp, dX, dY) model with the flat noise folded into the diffusion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NonpositiveDetuning
from .parameters import NoiseSpec, SteadyState, SystemParams

FULL_BASIS = ("dq", "dp", "dX", "dY", "psi", "theta")
REDUCED_BASIS = ("dq", "dp", "dX", "dY")
AUX_BASIS = ("psi", "theta")


@dataclass(frozen=True)
class LinearModel:
    """Drift/diffusion pair of a linear Langevin system, with basis tag."""

    drift: NDArray[np.float64]
    diffusion: NDArray[np.float64]
    stable: bool
    dims: tuple[str, ...]

    def __post_init__(self):
        a = np.array(self.drift, dtype=float)
        d = np.array(self.diffusion, dtype=float)
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)

    @property
    def order(self) -> int:
        return self.drift.shape[0]

    def to_document(self) -> dict:
        """JSON-ready matrix document for inspection and regression fixtures."""
        return {
            "kind": "linear_model",
            "dims": list(self.dims),
            "stable": self.stable,
            "drift": self.drift.tolist(),
            "diffusion": self.diffusion.tolist(),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "LinearModel":
        if doc.get("kind") != "linear_model":
            raise ValueError("not a linear_model document")
        return cls(drift=np.array(doc["drift"], dtype=float),
                   diffusion=np.array(doc["diffusion"], dtype=float),
                   stable=bool(doc["stable"]),
                   dims=tuple(doc["dims"]))


def phase_noise_spectrum(spec: NoiseSpec, omega):
    """Frequency-noise spectrum S(omega) of the laser, rad/s.

    Flat 2*gamma_l for white noise; the bandpass form
    2*gamma_l*W^4 / ((W^2 - omega^2)^2 + omega^2*gt^2) otherwise.
    Accepts scalar or array ``omega``.
    """
    w = np.asarray(omega, dtype=float)
    if spec.kind == "none":
        out = np.zeros_like(w)
    elif spec.kind == "white":
        out = np.full_like(w, 2.0 * spec.gamma_l)
    else:
        band4 = spec.omega_band ** 4
        out = (2.0 * spec.gamma_l * band4
               / ((spec.omega_band ** 2 - w ** 2) ** 2
                  + w ** 2 * spec.gamma_tilde ** 2))
    return out if out.ndim else float(out)


def is_stable(drift: NDArray[np.float64]) -> bool:
    """True iff every eigenvalue of the drift matrix has Re < 0 (strict)."""
    return bool(np.max(np.linalg.eigvals(np.asarray(drift)).real) < 0.0)


def stability_margin(params: SystemParams, ss: SteadyState) -> float:
    """Coupling relative to the static instability threshold, G/G_threshold.

    The threshold sqrt((delta^2 + kappa^2)*omega_m/delta) is the analytic
    stability boundary for a red-detuned drive; values below 1 are stable.
    """
    delta = ss.delta_eff
    if delta <= 0:
        raise NonpositiveDetuning(
            "analytic threshold needs delta > 0; use the eigenvalue test instead")
    g_threshold = math.sqrt((delta ** 2 + params.kappa ** 2) * params.omega_m / delta)
    return ss.g_eff / g_threshold


def auxiliary_block(spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Drift/diffusion of the (psi, theta) pair realizing bandpass noise."""
    if spec.kind != "bandpass":
        raise ValueError("auxiliary block exists only for bandpass noise")
    a = np.array([[0.0, spec.omega_band],
                  [-spec.omega_band, -spec.gamma_tilde]])
    d = np.diag([0.0, 2.0 * spec.gamma_l * spec.omega_band ** 2])
    return a, d


def vacuum_diffusion(params: SystemParams) -> np.ndarray:
    """Thermal/vacuum diffusion diagonal of (dq, dp, dX, dY), phase noise excluded."""
    n = params.thermal_phonons()
    k2n1 = params.kappa * (2.0 * params.cavity_thermal_occupancy + 1.0)
    return np.array([0.0, params.gamma_m * (2.0 * n + 1.0), k2n1, k2n1])


def optomechanical_block(params: SystemParams, ss: SteadyState) -> np.ndarray:
    """4x4 drift of (dq, dp, dX, dY); phase noise enters only the diffusion."""
    wm, gm, k = params.omega_m, params.gamma_m, params.kappa
    g, delta = ss.g_eff, ss.delta_eff
    # The Y quadrature carries the detuning rotation from X (-delta on dX);
    # writing the detuning term on dY instead would destroy the rotational
    # structure of the cavity block.
    return np.array([
        [0.0, wm, 0.0, 0.0],
        [-wm, -gm, g, 0.0],
        [0.0, 0.0, -k, delta],
        [g, 0.0, -delta, -k],
    ])


def build_model(params: SystemParams, ss: SteadyState) -> LinearModel:
    """Assemble the linear fluctuation model around a working point.

    Bandpass noise yields the 6x6 system with the auxiliary pair attached;
    white or absent noise yields the 4x4 system, with the flat frequency
    noise folded into the Y-quadrature diffusion as 2*|alpha_s|^2*S, where
    S = 2*gamma_l is the flat spectrum value.
    """
    spec = params.phase_noise
    a4 = optomechanical_block(params, ss)
    d4 = np.diag(vacuum_diffusion(params))

    if spec.kind == "bandpass":
        a_aux, d_aux = auxiliary_block(spec)
        a = np.zeros((6, 6))
        a[:4, :4] = a4
        a[4:, 4:] = a_aux
        a[3, 4] = math.sqrt(2.0) * ss.alpha_abs
        d = np.zeros((6, 6))
        d[:4, :4] = d4
        d[4:, 4:] = d_aux
        dims = FULL_BASIS
    else:
        a = a4
        d = d4.copy()
        if spec.kind == "white":
            d[3, 3] += 2.0 * ss.photon_number * 2.0 * spec.gamma_l
        dims = REDUCED_BASIS

    return LinearModel(drift=a, diffusion=d, stable=is_stable(a), dims=dims)
