"""Stochastic trajectory validation of the linear noise models.

Quantum noises are simulated as classical Gaussian surrogates with the same
symmetrized correlations; for linear dynamics this reproduces the symmetrized
covariance exactly, which is all the stationary measures consume. The
integrator is the exact one-step Gaussian propagator (matrix exponential plus
the exact process-noise covariance), so discretization bias is zero and the
timestep only limits spectral resolution.

Trajectories are never stored whole: each block of steps is handed to a
consumer as it is propagated, and the Welch estimate of a spectrum keeps
only the two latest half-segments per member. A run's memory is therefore
about 1.5 x 8 x n_ensemble x segment length bytes, not 8 x n_ensemble x
n_steps.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import auxiliary_block
from .errors import UnstableTimestep, field_error
from .parameters import NoiseSpec, _one_point

DT_DEFAULT = 0.09  # default dt * max|eigenvalue|
DT_EIGENVALUE_GUARD = 0.1  # dt * max|eigenvalue| must stay below this
BURN_IN_DECAY = 5.0  # required burn-in in units of the slowest decay time
BLOCK_STEPS = 4096  # time steps drawn and propagated per block
CHUNK_STEPS = 16  # time steps per dense response product within a block


@dataclass(frozen=True)
class TrajectoryConfig:
    """Time grid, ensemble size, and seed of a stochastic run.

    An error of a run names the field it is about and carries it as ``field``.
    """

    dt: float
    n_steps: int
    n_ensemble: int
    seed: int
    burn_in: int = 0

    def __post_init__(self):
        for name in ("dt", "n_steps", "n_ensemble"):
            if not getattr(self, name) > 0:
                raise field_error(ValueError, name, f"{name} must be positive")
        if not 0 <= self.burn_in < self.n_steps:
            raise field_error(ValueError, "burn_in" if self.burn_in < 0 else "n_steps",
                              f"burn_in of {self.burn_in} steps must lie in "
                              f"[0, n_steps = {self.n_steps})")

    @classmethod
    def for_drift(cls, a, n_steps: int, n_ensemble: int, seed: int,
                  dt: float | None = None, burn_in: int | None = None):
        """The run on drift ``a``, checked by the run rule ``_check_timestep``.

        An omitted ``dt`` or ``burn_in`` takes the rule's default; one drift only.
        """
        _one_drift("TrajectoryConfig.for_drift", a)
        dt, burn_in = _check_timestep(a, dt, burn_in)
        return cls(dt, n_steps, n_ensemble, seed, burn_in)


@dataclass(frozen=True)
class CovarianceEstimate:
    """Ensemble estimate of a stationary covariance with per-entry errors."""

    matrix: NDArray[np.float64]
    standard_errors: NDArray[np.float64]
    n_ensemble: int


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided grid of a two-sided spectral density, with standard errors.

    ``covariance`` is the stationary covariance estimated from the same
    trajectories.
    """

    frequencies: NDArray[np.float64]  # rad/s, omega >= 0
    values: NDArray[np.float64]
    standard_errors: NDArray[np.float64]
    covariance: CovarianceEstimate


def _one_drift(name: str, a) -> None:
    """Raise ValueError naming ``name`` where ``a`` is a stack of drifts."""
    if np.ndim(a) > 2:
        raise ValueError(f"{name} takes the drift of one point, not a stack")


def _check_timestep(a, dt: float | None = None,
                    burn_in: int | None = None) -> tuple[float, int]:
    """The run rule: the checked timestep and burn-in of a run on drift ``a``.

    Checks in turn that the drift is Hurwitz, that dt*max|eig| lies in
    (0, DT_EIGENVALUE_GUARD) (default DT_DEFAULT), and that the burn-in
    spans BURN_IN_DECAY decay times of the slowest mode (default: just so).
    """
    eigs = np.linalg.eigvals(np.asarray(a, float))
    speed, slowest = float(np.max(np.abs(eigs))), float(np.min(-eigs.real))
    if not slowest > 0:
        raise field_error(UnstableTimestep, "drift", "drift must be Hurwitz for "
                          f"stationary sampling (slowest decay rate {slowest:.6e})")
    if dt is None:
        dt = DT_DEFAULT / speed
    if not 0 < dt * speed < DT_EIGENVALUE_GUARD:
        raise field_error(UnstableTimestep, "dt", f"dt must be > 0 with dt*max|eig| "
                          f"< {DT_EIGENVALUE_GUARD} (max|eig| = {speed:.6e} rad/s), "
                          f"got {dt!r}")
    min_burn = math.ceil(BURN_IN_DECAY / slowest / dt)
    if burn_in is None:
        burn_in = min_burn
    elif burn_in < min_burn:
        raise field_error(ValueError, "burn_in", f"burn_in of {burn_in} steps is "
                          f"shorter than {BURN_IN_DECAY} decay times ({min_burn} steps)")
    return dt, burn_in


# the largest 1-norm at which the [13/13] Pade approximant of exp meets
# double precision, and its coefficients b_0..b_13, from Higham 2005
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)).

    The [13/13] approximant on a / 2^s, squared s times, with
    s = max(0, ceil(log2(||a||_1 / theta_13))).
    """
    norm = np.max(np.sum(np.abs(a), axis=0))
    if not np.isfinite(norm):
        raise ValueError("matrix exponential needs finite entries")
    squarings = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0 ** squarings
    b = _PADE_13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def exact_discretization(a: np.ndarray, d: np.ndarray,
                         dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator and process-noise covariance of one linear SDE.

    For du = A u dt + noise with symmetrized strength D, returns
    (Phi, Q) with Phi = exp(A dt) and Q = int_0^dt exp(A s) D exp(A^T s) ds,
    evaluated with the block matrix-exponential construction. Q is linear
    in D, so D enters the block scaled by the power of two 2^-e that brings
    max|D| dt into [1/2, 1), and Q is divided by it: a large D would
    otherwise set the block's norm and with it the number of squarings.
    """
    _one_drift("exact_discretization", a)
    n = a.shape[0]
    _, e = math.frexp(float(np.max(np.abs(d))) * dt)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = np.ldexp(d, -e)
    block[n:, n:] = a.T
    exp_block = _expm(block * dt)
    phi = exp_block[n:, n:].T
    q = np.ldexp(phi @ exp_block[:n, n:], e)
    return phi, 0.5 * (q + q.T)


def _noise_factor(q: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, tolerant of zero modes."""
    vals, vecs = np.linalg.eigh(q)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _propagate(a: np.ndarray, d: np.ndarray, cfg: TrajectoryConfig,
               consume: Callable[[np.ndarray], object] | None = None) -> np.ndarray:
    """Run the ensemble; returns the second moments per member.

    ``consume`` (None for no consumer) receives the post-burn-in states of
    each block in time order, as an (n_ensemble, steps, n) view that the
    next block overwrites; nothing is kept across blocks. Members evolve
    side by side from the zero state with per-member spawned generators;
    states are rows, x_t = x_(t-1) Phi^T + z_t L^T with L L^T = Q and z_t
    the member's normals. Each block of BLOCK_STEPS steps is cut into
    chunks of C = CHUNK_STEPS steps and propagated in three products:

    - the chunk response: with the chunk's normals as one row
      [z_0 ... z_(C-1)], its states from a zero entering state are that row
      times the block upper-triangular ``resp``, whose (k, j) block is
      L^T (Phi^T)^(j-k) for k <= j;
    - the chunk-end scan: the state e_k entering chunk k obeys
      e_k = y_(k-1) + e_(k-1) (Phi^T)^C, with y the last zero-entry state of
      a chunk and e_0 the state carried into the block; a log-step scan with
      the powers of (Phi^T)^C solves it over the chunk ends only;
    - the carry: each chunk adds e_k [(Phi^T)^1 ... (Phi^T)^C].
    """
    _check_timestep(a, cfg.dt, cfg.burn_in)
    n = a.shape[0]
    width = CHUNK_STEPS * n
    phi, q = exact_discretization(a, d, cfg.dt)
    noise_l_t = _noise_factor(q).T
    powers = [np.eye(n)]  # (Phi^T)^j for j = 0..CHUNK_STEPS
    for _ in range(CHUNK_STEPS):
        powers.append(powers[-1] @ phi.T)
    resp = np.zeros((width, width))
    for k in range(CHUNK_STEPS):
        for j in range(k, CHUNK_STEPS):
            resp[k * n:(k + 1) * n, j * n:(j + 1) * n] = noise_l_t @ powers[j - k]
    carry = np.hstack(powers[1:])
    chunk_powers = [powers[-1]]  # ((Phi^T)^C)^(2^p) for shifts below a block's chunks
    while 2 ** len(chunk_powers) < BLOCK_STEPS // CHUNK_STEPS:
        chunk_powers.append(chunk_powers[-1] @ chunk_powers[-1])
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_ensemble)]
    state = np.zeros((cfg.n_ensemble, n))
    moments = np.zeros((cfg.n_ensemble, n, n))
    normals = x = None

    for step in range(0, cfg.n_steps, BLOCK_STEPS):
        m = min(BLOCK_STEPS, cfg.n_steps - step)
        chunks = -(-m // CHUNK_STEPS)
        if normals is None or normals.shape[1] != chunks:
            normals = np.empty((cfg.n_ensemble, chunks, width))
            x = np.empty_like(normals)
        for member, r in zip(normals, rngs):
            r.standard_normal(out=member.reshape(-1)[:m * n])
        normals.reshape(cfg.n_ensemble, -1)[:, m * n:] = 0.0  # a short block's tail
        np.matmul(normals, resp, out=x)
        entering = np.empty((cfg.n_ensemble, chunks, n))
        entering[:, 0] = state
        entering[:, 1:] = x[:, :-1, -n:]
        for p, power in enumerate(chunk_powers):
            shift = 2 ** p
            if shift >= chunks:
                break
            entering[:, shift:] += entering[:, :-shift] @ power
        x += entering @ carry
        path = x.reshape(cfg.n_ensemble, -1, n)[:, :m]
        state = path[:, -1].copy()  # x is overwritten by the next block
        lo = max(cfg.burn_in - step, 0)
        if lo < m:
            kept_block = path[:, lo:]
            moments += kept_block.transpose(0, 2, 1) @ kept_block
            if consume is not None:
                consume(kept_block)

    return moments / (cfg.n_steps - cfg.burn_in)


def _ensemble_mean(per_member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the members and its standard error (NaN for one member)."""
    mean = per_member.mean(axis=0)
    if len(per_member) > 1:
        se = per_member.std(axis=0, ddof=1) / math.sqrt(len(per_member))
    else:
        se = np.full_like(mean, np.nan)
    return mean, se


def estimate_stationary_covariance(a: np.ndarray, d: np.ndarray,
                                   cfg: TrajectoryConfig) -> CovarianceEstimate:
    """Time/ensemble-averaged second moments of one drift, member-scatter errors."""
    _one_drift("estimate_stationary_covariance", a)
    per_member = _propagate(np.asarray(a, float), np.asarray(d, float), cfg)
    mean, se = _ensemble_mean(per_member)
    return CovarianceEstimate(matrix=mean, standard_errors=se,
                              n_ensemble=cfg.n_ensemble)


def _segment_length(n_kept: int, segments_per_member: int) -> int:
    """Welch segment length fitting at least the segment count at 50% overlap.

    The largest even 5-smooth length (factors 2, 3 and 5 only) of at most
    2*n_kept // (segments_per_member + 1) samples: the FFT of such a length
    is a mixed-radix transform, never a Bluestein one, which costs several
    times as much. The grid is rfftfreq of this length.
    """
    if not segments_per_member >= 1:
        raise field_error(ValueError, "segments_per_member",
                          "segments_per_member must be >= 1")
    half = int(2 * n_kept // (segments_per_member + 1)) // 2
    if half < 4:
        raise field_error(ValueError, "segments_per_member", "series too short for "
                          f"segments_per_member = {segments_per_member} segments "
                          "of 8 samples or more")
    smooth = 4
    odd = 1  # 3^i 5^j; each takes the largest power of two that fits
    while odd <= half:
        part = odd
        while part <= half:
            smooth = max(smooth, part << ((half // part).bit_length() - 1))
            part *= 3
        odd *= 5
    return 2 * smooth


class _Welch:
    """Hann-windowed averaged periodograms per member, fed in time order.

    50% overlap; the estimate is the two-sided density reported on the
    nonnegative grid. Samples go into two (n_members, hop) half buffers
    that swap roles: once a half fills, each member's segment [previous
    half, this half] is copied into one scratch row and its periodogram is
    added, in place, to the member's sum; the next half overwrites the
    previous one. Samples after the last whole half belong to no segment.
    """

    def __init__(self, n_members: int, n_kept: int, dt: float,
                 segments_per_member: int):
        seg_len = _segment_length(n_kept, segments_per_member)
        self.hop = seg_len // 2
        self.window = np.hanning(seg_len)
        self.norm = dt / np.sum(self.window ** 2)
        self.omega = 2.0 * math.pi * np.fft.rfftfreq(seg_len, d=dt)
        self.halves = np.empty((2, n_members, self.hop))
        self.whole = 0  # halves filled so far
        self.filled = 0  # samples in the half being filled
        self.segment = np.empty(seg_len)
        self.transform = np.empty(seg_len // 2 + 1, complex)
        self.power = np.empty(seg_len // 2 + 1)
        self.sums = np.zeros((n_members, seg_len // 2 + 1))

    def feed(self, block: np.ndarray) -> None:
        """Take the next (n_members, steps) samples of every member."""
        pos = 0
        while pos < block.shape[1]:
            half = self.halves[self.whole % 2]
            take = min(self.hop - self.filled, block.shape[1] - pos)
            half[:, self.filled:self.filled + take] = block[:, pos:pos + take]
            pos += take
            self.filled += take
            if self.filled == self.hop:
                if self.whole:
                    self._add_segments(self.halves[(self.whole - 1) % 2], half)
                self.whole += 1
                self.filled = 0

    def _add_segments(self, first: np.ndarray, second: np.ndarray) -> None:
        seg, power = self.segment, self.power
        for first_half, second_half, total in zip(first, second, self.sums):
            seg[:self.hop] = first_half
            seg[self.hop:] = second_half
            seg -= seg.mean()
            seg *= self.window
            np.fft.rfft(seg, out=self.transform)
            np.abs(self.transform, out=power)
            np.square(power, out=power)
            power *= self.norm
            total += power

    def mean_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """(omega grid, per-member mean spectra); ends the accumulation."""
        self.sums /= self.whole - 1
        return self.omega, self.sums


def _welch_segments(series: np.ndarray, dt: float,
                    segments_per_member: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed averaged periodograms per ensemble member.

    Returns (omega grid, per-member mean spectra) of the (n_members, n_kept)
    ``series``, fed to the streaming estimator ``_Welch`` as one block.
    """
    welch = _Welch(*series.shape, dt, segments_per_member)
    welch.feed(series)
    return welch.mean_spectra()


def simulate_phase_noise(spec: NoiseSpec, cfg: TrajectoryConfig,
                         segments_per_member: int = 8) -> SpectrumEstimate:
    """Simulate the auxiliary noise pair and estimate the spectrum of psi.

    Integrates the two-variable realization of the bandpass frequency noise
    with the exact Gaussian propagator and returns the Welch-averaged
    periodogram of the frequency-noise variable, with standard errors from
    the independent-member scatter, and the stationary covariance of the
    pair from the same trajectories (as ``estimate_stationary_covariance``
    gives it). A stack's noise raises ValueError.

    psi is fed block by block into the Welch estimator as it is propagated,
    so the trajectories are never stored: the run holds about 1.5 x 8 x
    n_ensemble x segment length bytes.
    """
    _one_point("simulate_phase_noise", spec.omega_band)
    a, d = auxiliary_block(spec)  # a ValueError unless the noise is bandpass
    # the segment length is checked before anything is propagated
    welch = _Welch(cfg.n_ensemble, cfg.n_steps - cfg.burn_in, cfg.dt,
                   segments_per_member)
    per_member = _propagate(a, d, cfg, lambda kept: welch.feed(kept[:, :, 0]))
    omega, member_spectra = welch.mean_spectra()
    del welch  # its buffers go before the member scatter takes its temporaries
    values, se = _ensemble_mean(member_spectra)
    mean, mean_se = _ensemble_mean(per_member)
    return SpectrumEstimate(
        frequencies=omega, values=values, standard_errors=se,
        covariance=CovarianceEstimate(matrix=mean, standard_errors=mean_se,
                                      n_ensemble=cfg.n_ensemble))
