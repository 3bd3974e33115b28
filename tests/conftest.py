import math

import mpmath
import numpy as np
import pytest

from optomech import NoiseSpec, SystemParams, apply_axis, symplectic_form

OMEGA_M = 2.0 * math.pi * 1e7


def make_params(**overrides) -> SystemParams:
    """Baseline working point used throughout the suite."""
    values = dict(
        omega_m=OMEGA_M,
        quality_factor=2e6,
        kappa=0.5 * OMEGA_M,
        detuning=OMEGA_M,
        g0=1e3,
        laser_power=20e-3,
        laser_wavelength=810e-9,
        bath_temperature=0.4,
        phase_noise=NoiseSpec.none(),
        detuning_mode="effective",
    )
    values.update(overrides)
    return SystemParams(**values)


def bandpass_100hz(omega_band=2.0 * math.pi * 5e4) -> NoiseSpec:
    """The reference noise setting: 0.1 kHz linewidth, band width = center/2."""
    return NoiseSpec.bandpass(2.0 * math.pi * 100.0, omega_band, omega_band / 2.0)


def relative_gap(a, b, floor=1e-6):
    """Largest entrywise gap of ``a`` to ``b``, relative to max(|b|, floor*max|b|).

    Entries of ``b`` above ``floor`` times its largest entry are compared
    relative to themselves; smaller ones, including entries that are zero
    by symmetry such as the stationary <dq dp>, relative to that floor. A
    fixed absolute floor would ask those entries for a precision below
    machine epsilon of max|b| once the covariance grows large.
    """
    scale = floor * np.max(np.abs(b))
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), scale))


def grid_points(spec):
    """The working points of a sweep's grid, row-major, as one stack."""
    xs, ys = spec.axis_x.values(), spec.axis_y.values()
    grid = apply_axis(SystemParams.repeat(spec.fixed, xs.size * ys.size),
                      spec.axis_x.name, np.repeat(xs, ys.size))
    return apply_axis(grid, spec.axis_y.name, np.tile(ys, xs.size))


def mp_symplectic_eigenvalues(v):
    """Symplectic spectrum, ascending, of one (2n, 2n) float covariance.

    The reference route, in 50-digit arithmetic on the float entries
    as given: the eigenvalues +/-nu_k of i Omega V, as those of the similar
    Hermitian i R Omega R, R = V^(1/2) the symmetric square root. (A
    general eigen-solve of i Omega V can fail to converge where the
    spectrum is degenerate, as it is for a pure state.)
    """
    n = v.shape[-1] // 2
    with mpmath.workdps(50):
        lam, q = mpmath.eigsy(mpmath.matrix(v.tolist()))
        root = q * mpmath.diag([mpmath.sqrt(x) for x in lam]) * q.T
        omega = mpmath.matrix(symplectic_form(n).tolist())
        eig = mpmath.eighe(1j * root * omega * root, eigvals_only=True)
        return np.array([float(x) for x in sorted(eig)[n:]])


def mp_exact_discretization(a, d, dt):
    """(Phi, Q) of the linear SDE du = A u dt + noise D, in 40-digit arithmetic.

    The reference route on the float entries as given: the Van Loan block
    [[-A, D], [0, A^T]] dt exponentiated by mpmath, unscaled; Phi is the
    transpose of its lower right block and Q = Phi times its upper right
    block, symmetrized.
    """
    n = a.shape[0]
    with mpmath.workdps(40):
        block = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = -mpmath.mpf(a[i, j])
                block[i, n + j] = mpmath.mpf(d[i, j])
                block[n + i, n + j] = mpmath.mpf(a[j, i])
        exp_block = mpmath.expm(block * mpmath.mpf(dt))
        phi = exp_block[n:, n:].T
        q = phi * exp_block[:n, n:]
        q = (q + q.T) / 2
        return (np.array(phi.tolist(), dtype=float),
                np.array(q.tolist(), dtype=float))


def poison_nth(stage, nth):
    """Wrap a pipeline stage so the ``nth`` distinct point to reach it fails.

    The stage takes a stack of matrices or a stacked CovarianceMatrix first.
    Points are told apart by the bytes of their stage input, so the point
    fails again, and alone, when it is re-run as a batch of one.
    """
    seen = []

    def poisoned(stack, *args, **kwargs):
        keys = [m.tobytes() for m in np.asarray(getattr(stack, "matrix", stack))]
        seen.extend(k for k in dict.fromkeys(keys) if k not in seen)
        if len(seen) >= nth and seen[nth - 1] in keys:
            raise RuntimeError("synthetic failure")
        return stage(stack, *args, **kwargs)

    return poisoned


@pytest.fixture
def paper_point() -> SystemParams:
    return make_params(phase_noise=bandpass_100hz())
