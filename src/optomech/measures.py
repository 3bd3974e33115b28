"""Entanglement and cooling figures of merit of a two-mode Gaussian state."""

from __future__ import annotations

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
    itself (>= 1/2 up to slack). The results of a stack of covariances are
    the same record with one array item per covariance in every field.
    """

    eta_minus: float
    log_negativity: float
    raw_log_negativity: float
    entangled: bool
    heisenberg_min: float


@dataclass(frozen=True)
class OccupancyResult:
    """Effective phonon occupancy and the corresponding mean energy.

    Floats for one covariance, one array item per covariance for a stack.
    """

    n_eff: float
    energy: float  # J


def _eta_minus_formula(v4: np.ndarray) -> np.ndarray:
    """Lowest partial-transpose symplectic eigenvalue of each (4 x 4) of a stack.

    Uses the block determinants; raises NegativeDiscriminant if any
    discriminant is negative beyond slack.
    """
    det_a, det_b, det_c = np.linalg.det(np.concatenate(
        [v4[:, :2, :2], v4[:, 2:, 2:], v4[:, :2, 2:]])).reshape(3, -1)
    det_v = np.linalg.det(v4)
    sigma = det_a + det_b - 2.0 * det_c
    sigma_sq = sigma * sigma
    disc = sigma_sq - 4.0 * det_v
    bad = disc < -1e-12 * np.maximum(sigma_sq, 1.0)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NegativeDiscriminant(
            f"discriminant {disc[i]:.6e} < 0 for sigma^2 = {sigma_sq[i]:.6e}")
    disc = np.maximum(disc, 0.0)
    return np.sqrt(np.maximum(sigma - np.sqrt(disc), 0.0) / 2.0)


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
    Heisenberg bound (1/2 vacuum-variance convention) up to slack. One
    covariance gives float fields; a stack gives one array item per
    covariance in every field.
    """
    if v4.order != 4:
        raise ValueError("log_negativity expects the reduced 4x4 covariance")
    heisenberg_min = check_physical(v4)
    m = v4.matrix
    eta = _eta_minus_formula(m if m.ndim == 3 else m[None])
    raw = -np.log(2.0 * eta)
    fields = (eta, np.where(raw > 0.0, raw, 0.0), raw, eta < 0.5)
    if m.ndim == 2:
        fields = (f.item() for f in fields)
    return EntanglementResult(*fields, heisenberg_min)


def occupancy(v4: CovarianceMatrix, omega_m) -> OccupancyResult:
    """Effective phonon number (<dq^2> + <dp^2> - 1)/2 and mean energy.

    One covariance gives float fields; a stack gives arrays, with
    ``omega_m`` one mechanical frequency or one per covariance.
    """
    if v4.order != 4:
        raise ValueError("occupancy expects the reduced 4x4 covariance")
    m = v4.matrix
    n_eff = 0.5 * (m[..., 0, 0] + m[..., 1, 1] - 1.0)
    energy = HBAR * np.asarray(omega_m, dtype=float) * (n_eff + 0.5)
    if m.ndim == 2:
        return OccupancyResult(n_eff.item(), energy.item())
    return OccupancyResult(n_eff, energy)
