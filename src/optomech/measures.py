"""Entanglement and cooling figures of merit of a two-mode Gaussian state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import NegativeDiscriminant
from .lyapunov import CovarianceMatrix, check_physical, symplectic_eigenvalues


@dataclass(frozen=True)
class EntanglementResult:
    """Logarithmic negativity of a bipartite Gaussian state.

    ``raw_log_negativity`` is -ln(2*eta_minus) before clamping at zero, so
    barely separable and deeply separable states stay distinguishable.
    ``heisenberg_min`` is the smallest symplectic eigenvalue of the state
    itself (>= 1/2 up to slack).
    """

    eta_minus: float
    log_negativity: float
    raw_log_negativity: float
    entangled: bool
    heisenberg_min: float


@dataclass(frozen=True)
class OccupancyResult:
    """Effective phonon occupancy and the corresponding mean energy."""

    n_eff: float
    energy: float  # J


def _eta_minus_formula(v4: np.ndarray) -> float:
    """Lowest partial-transpose symplectic eigenvalue from the block determinants."""
    det_a = np.linalg.det(v4[:2, :2])
    det_b = np.linalg.det(v4[2:, 2:])
    det_c = np.linalg.det(v4[:2, 2:])
    det_v = np.linalg.det(v4)
    sigma = det_a + det_b - 2.0 * det_c
    disc = sigma ** 2 - 4.0 * det_v
    if disc < -1e-12 * max(sigma ** 2, 1.0):
        raise NegativeDiscriminant(
            f"discriminant {disc:.6e} < 0 for sigma^2 = {sigma**2:.6e}")
    disc = max(disc, 0.0)
    return math.sqrt(max(sigma - math.sqrt(disc), 0.0) / 2.0)


def eta_minus_partial_transpose(v4: CovarianceMatrix | np.ndarray) -> float:
    """Independent route: smallest symplectic eigenvalue after momentum flip.

    Partial transposition of the second mode flips the sign of its momentum
    quadrature; the symplectic spectrum of the transformed matrix certifies
    entanglement when it dips below 1/2.
    """
    m = v4.matrix if isinstance(v4, CovarianceMatrix) else np.asarray(v4, dtype=float)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return float(np.min(symplectic_eigenvalues(flip @ m @ flip)))


def log_negativity(v4: CovarianceMatrix) -> EntanglementResult:
    """Logarithmic negativity E_N = max(0, -ln(2*eta_minus)) of a 4x4 covariance.

    Uses the determinant formula
    eta_minus = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2) with
    Sigma = det V_A + det V_B - 2 det V_C. The input must satisfy the
    Heisenberg bound (1/2 vacuum-variance convention) up to slack.
    """
    if v4.order != 4:
        raise ValueError("log_negativity expects the reduced 4x4 covariance")
    heisenberg_min = check_physical(v4)
    eta = _eta_minus_formula(v4.matrix)
    raw = -math.log(2.0 * eta)
    return EntanglementResult(
        eta_minus=eta,
        log_negativity=max(0.0, raw),
        raw_log_negativity=raw,
        entangled=eta < 0.5,
        heisenberg_min=heisenberg_min,
    )


def occupancy(v4: CovarianceMatrix, omega_m: float) -> OccupancyResult:
    """Effective phonon number (<dq^2> + <dp^2> - 1)/2 and mean energy."""
    if v4.order != 4:
        raise ValueError("occupancy expects the reduced 4x4 covariance")
    n_eff = 0.5 * (v4.matrix[0, 0] + v4.matrix[1, 1] - 1.0)
    return OccupancyResult(n_eff=n_eff, energy=HBAR * omega_m * (n_eff + 0.5))
