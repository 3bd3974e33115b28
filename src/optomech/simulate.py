"""Stochastic trajectory validation of the linear noise models.

Quantum noises are simulated as classical Gaussian surrogates with the same
symmetrized correlations; for linear dynamics this reproduces the symmetrized
covariance exactly, which is all the stationary measures consume. The
integrator is the exact one-step Gaussian propagator (matrix exponential plus
the exact process-noise covariance), so discretization bias is zero and the
timestep only limits spectral resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
from numpy.typing import NDArray

from .dynamics import LinearModel, auxiliary_block
from .errors import UnstableTimestep
from .parameters import NoiseSpec

DT_EIGENVALUE_GUARD = 0.1  # dt * max|eigenvalue| must stay below this
BURN_IN_DECAY = 5.0  # required burn-in in units of the slowest decay time
BLOCK_STEPS = 4096  # time steps drawn and propagated per block


@dataclass(frozen=True)
class TrajectoryConfig:
    """Time grid, ensemble size, and seed of a stochastic run."""

    dt: float
    n_steps: int
    n_ensemble: int
    seed: int
    burn_in: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps <= 0 or self.n_ensemble <= 0:
            raise ValueError("dt, n_steps and n_ensemble must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must lie in [0, n_steps)")


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided grid of a two-sided spectral density, with standard errors."""

    frequencies: NDArray[np.float64]  # rad/s, omega >= 0
    values: NDArray[np.float64]
    standard_errors: NDArray[np.float64]


@dataclass(frozen=True)
class CovarianceEstimate:
    """Ensemble estimate of a stationary covariance with per-entry errors."""

    matrix: NDArray[np.float64]
    standard_errors: NDArray[np.float64]
    n_ensemble: int


def _check_timestep(a: np.ndarray, cfg: TrajectoryConfig) -> None:
    eigs = np.linalg.eigvals(a)
    speed = float(np.max(np.abs(eigs)))
    if cfg.dt * speed >= DT_EIGENVALUE_GUARD:
        raise UnstableTimestep(
            f"dt*max|eig| = {cfg.dt * speed:.3e} exceeds {DT_EIGENVALUE_GUARD}")
    slowest = float(np.min(-eigs.real))
    if slowest <= 0:
        raise UnstableTimestep("drift must be Hurwitz for stationary sampling")
    needed = BURN_IN_DECAY / slowest
    if cfg.burn_in * cfg.dt < needed:
        raise ValueError(
            f"burn_in of {cfg.burn_in} steps is shorter than {BURN_IN_DECAY} "
            f"decay times ({math.ceil(needed / cfg.dt)} steps)")


def exact_discretization(a: np.ndarray, d: np.ndarray,
                         dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator and process-noise covariance of a linear SDE.

    For du = A u dt + noise with symmetrized strength D, returns
    (Phi, Q) with Phi = exp(A dt) and Q = int_0^dt exp(A s) D exp(A^T s) ds,
    evaluated with the block matrix-exponential construction.
    """
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = d
    block[n:, n:] = a.T
    exp_block = scipy.linalg.expm(block * dt)
    phi = exp_block[n:, n:].T
    q = phi @ exp_block[:n, n:]
    return phi, 0.5 * (q + q.T)


def _noise_factor(q: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, tolerant of zero modes."""
    vals, vecs = np.linalg.eigh(q)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _propagate(a: np.ndarray, d: np.ndarray, cfg: TrajectoryConfig,
               record: int | None = None):
    """Run the ensemble; returns (second moments per member, recordings).

    ``record`` selects one state component to store post-burn-in for
    spectral estimation (None stores nothing). Members evolve side by side
    from the zero state with per-member spawned generators. Each block of
    BLOCK_STEPS steps is propagated by a log-step scan: after the pass with
    shift s = 2^p, sample t holds the noise of samples t-2s+1..t carried
    forward by the powers of Phi, so log2(BLOCK_STEPS) passes give the
    recursion x_t = Phi x_(t-1) + w_t for any drift.
    """
    _check_timestep(a, cfg)
    n = a.shape[0]
    phi, q = exact_discretization(a, d, cfg.dt)
    noise_l_t = _noise_factor(q).T
    powers = [phi.T]  # (Phi^T)^(2^p) for shifts 2^p below BLOCK_STEPS
    while 2 ** len(powers) < BLOCK_STEPS:
        powers.append(powers[-1] @ powers[-1])
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_ensemble)]
    state = np.zeros((cfg.n_ensemble, n))
    kept = cfg.n_steps - cfg.burn_in
    recording = (np.empty((cfg.n_ensemble, kept)) if record is not None else None)
    moments = np.zeros((cfg.n_ensemble, n, n))

    for step in range(0, cfg.n_steps, BLOCK_STEPS):
        m = min(BLOCK_STEPS, cfg.n_steps - step)
        x = np.stack([r.standard_normal((m, n)) for r in rngs]) @ noise_l_t
        x[:, 0] += state @ powers[0]
        for p, power in enumerate(powers):
            shift = 2 ** p
            if shift >= m:
                break
            x[:, shift:] += x[:, :-shift] @ power
        state = x[:, -1]
        lo = max(cfg.burn_in - step, 0)
        if lo < m:
            kept_block = x[:, lo:]
            moments += kept_block.transpose(0, 2, 1) @ kept_block
            if recording is not None:
                pos = step + lo - cfg.burn_in
                recording[:, pos:pos + m - lo] = kept_block[:, :, record]

    return moments / kept, recording


def estimate_stationary_covariance(a: np.ndarray, d: np.ndarray,
                                   cfg: TrajectoryConfig) -> CovarianceEstimate:
    """Time/ensemble-averaged second moments with member-scatter errors."""
    per_member, _ = _propagate(np.asarray(a, float), np.asarray(d, float), cfg)
    mean = per_member.mean(axis=0)
    if cfg.n_ensemble > 1:
        se = per_member.std(axis=0, ddof=1) / math.sqrt(cfg.n_ensemble)
    else:
        se = np.full_like(mean, np.nan)
    return CovarianceEstimate(matrix=mean, standard_errors=se,
                              n_ensemble=cfg.n_ensemble)


def simulate_linear_system(model: LinearModel,
                           cfg: TrajectoryConfig) -> CovarianceEstimate:
    """Monte-Carlo estimate of the stationary covariance of a linear model."""
    if not model.stable:
        raise UnstableTimestep("cannot sample the stationary state of an "
                              "unstable model")
    return estimate_stationary_covariance(model.drift, model.diffusion, cfg)


def _segment_length(n_kept: int, segments_per_member: int) -> int:
    """Even Welch segment length giving the segment count at 50% overlap."""
    seg_len = int(2 * n_kept // (segments_per_member + 1))
    seg_len -= seg_len % 2
    if seg_len < 8:
        raise ValueError("series too short for the requested segment count")
    return seg_len


def _welch_segments(series: np.ndarray, dt: float,
                    segments_per_member: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed averaged periodograms per ensemble member.

    Returns (omega grid, per-member mean spectra). 50% overlap; the estimate
    is the two-sided density reported on the nonnegative grid.
    """
    n_members, n_kept = series.shape
    seg_len = _segment_length(n_kept, segments_per_member)
    hop = seg_len // 2
    window = np.hanning(seg_len)
    norm = dt / np.sum(window ** 2)
    starts = range(0, n_kept - seg_len + 1, hop)
    member_means = np.zeros((n_members, seg_len // 2 + 1))
    for i in range(n_members):
        for s in starts:
            chunk = series[i, s:s + seg_len]
            chunk = (chunk - chunk.mean()) * window
            member_means[i] += norm * np.abs(scipy.fft.rfft(chunk)) ** 2
    member_means /= len(starts)
    omega = 2.0 * math.pi * scipy.fft.rfftfreq(seg_len, d=dt)
    return omega, member_means


def simulate_phase_noise(spec: NoiseSpec, cfg: TrajectoryConfig,
                         segments_per_member: int = 8) -> SpectrumEstimate:
    """Simulate the auxiliary noise pair and estimate the spectrum of psi.

    Integrates the two-variable realization of the bandpass frequency noise
    with the exact Gaussian propagator and returns the Welch-averaged
    periodogram of the frequency-noise variable, with standard errors from
    the independent-member scatter.
    """
    if spec.kind != "bandpass":
        raise ValueError("the trajectory generator realizes bandpass noise")
    a, d = auxiliary_block(spec)
    if spec.gamma_l == 0.0:
        # no drive: trajectories are identically zero
        _check_timestep(a, cfg)
        seg_len = _segment_length(cfg.n_steps - cfg.burn_in,
                                  segments_per_member)
        omega = 2.0 * math.pi * scipy.fft.rfftfreq(seg_len, d=cfg.dt)
        zero = np.zeros_like(omega)
        return SpectrumEstimate(frequencies=omega, values=zero,
                                standard_errors=zero)
    _, recording = _propagate(a, d, cfg, record=0)
    omega, member_spectra = _welch_segments(recording, cfg.dt,
                                            segments_per_member)
    values = member_spectra.mean(axis=0)
    if cfg.n_ensemble > 1:
        se = member_spectra.std(axis=0, ddof=1) / math.sqrt(cfg.n_ensemble)
    else:
        se = np.full_like(values, np.nan)
    return SpectrumEstimate(frequencies=omega, values=values,
                            standard_errors=se)
