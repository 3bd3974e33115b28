"""Entanglement (from one symplectic spectrum) and cooling figures of a two-mode state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import NegativeDiscriminant
from .lyapunov import CovarianceMatrix, _physical_spectrum, symplectic_eigenvalues


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


def _eta_minus(nu: np.ndarray, det_c: np.ndarray) -> np.ndarray:
    """Lowest partial-transpose symplectic eigenvalue of each spectrum (nu-, nu+).

    The partial transpose keeps det V and flips det C, so
    (eta+ +/- eta-)^2 = (nu+ +/- nu-)^2 - 4 det C and eta- = nu- nu+ / eta+,
    with no difference of two large numbers. The gap term, (eta+ - eta-)^2,
    is clamped at 0 or, negative beyond slack, raises NegativeDiscriminant.
    """
    low, high = nu[..., 0], nu[..., 1]
    total = np.square(low + high)
    gap = np.square(high - low) - 4.0 * det_c
    if (bad := gap < -1e-12 * total).any():
        raise NegativeDiscriminant(f"gap term {gap[bad].flat[0]:.6e} < 0 for "
                                   f"(nu+ + nu-)^2 = {total[bad].flat[0]:.6e}")
    gap = np.maximum(gap, 0.0)  # (eta+ + eta-)^2 is gap + 4 nu- nu+ > 0
    return 2.0 * low * high / (np.sqrt(gap + 4.0 * low * high) + np.sqrt(gap))


def eta_minus_partial_transpose(v4: CovarianceMatrix | np.ndarray):
    """Independent route: smallest symplectic eigenvalue after momentum flip.

    Partial transposition of the second mode flips the sign of its momentum
    quadrature; the symplectic spectrum of the transformed matrix certifies
    entanglement when it dips below 1/2. Of a 4x4 covariance or a stack of
    them, as ``log_negativity``: one value each.
    """
    m = v4.matrix if isinstance(v4, CovarianceMatrix) else np.asarray(v4, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("eta_minus_partial_transpose expects a 4x4 covariance")
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    return symplectic_eigenvalues(m * np.outer(flip, flip))[..., 0][()]


def log_negativity(v4: CovarianceMatrix) -> EntanglementResult:
    """Logarithmic negativity E_N = max(0, -ln(2*eta_minus)) of a 4x4 covariance.

    eta_minus follows from the spectrum of the Heisenberg check and
    det C = V02 V13 - V03 V12 (Serafini et al., J. Phys. B 37, L21 (2004)).
    One covariance gives float fields; a stack gives arrays.
    """
    if v4.order != 4:
        raise ValueError("log_negativity expects the reduced 4x4 covariance")
    m = v4.matrix
    nu = _physical_spectrum(m)
    eta = _eta_minus(nu, m[..., 0, 2] * m[..., 1, 3] - m[..., 0, 3] * m[..., 1, 2])
    raw = -np.log(2.0 * eta)
    fields = (eta, np.where(raw > 0.0, raw, 0.0), raw, eta < 0.5, nu[..., 0])
    if m.ndim == 2:
        fields = (f.item() for f in fields)
    return EntanglementResult(*fields)


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
