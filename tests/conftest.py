import math

import mpmath
import numpy as np
import pytest

from optomech import NoiseSpec, SystemParams, apply_axis, symplectic_form
from optomech.dynamics import auxiliary_block, phase_noise_spectrum
from optomech.errors import NoPhysicalRoot, QuadratureNotConverged
from optomech.parameters import _IMAGINARY_TOL, _OVERFLOW

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


def mp_resolvent_spectrum(a, d, omega):
    """2 Re[T D T^dag], T = (i omega I - A)^-1, in 40-digit arithmetic.

    The reference route on the float entries as given: ``a`` the (n, n)
    drift, ``d`` the (m, n) diffusion diagonals at the m abscissae
    ``omega``, each T the mpmath inverse of i omega I - A. Returns (m, n, n).
    """
    n = a.shape[0]
    out = np.empty((len(omega), n, n))
    with mpmath.workdps(40):
        drift = mpmath.matrix(a.tolist())
        for row, (w, diag) in enumerate(zip(omega, d)):
            t = mpmath.inverse(1j * mpmath.mpf(w) * mpmath.eye(n) - drift)
            density = t * mpmath.diag([mpmath.mpf(x) for x in diag]) * t.H
            out[row] = [[2 * float(mpmath.re(density[i, j])) for j in range(n)]
                        for i in range(n)]
    return out


def mp_laser_correlation(spec: NoiseSpec, tau: float) -> float:
    """C(tau) of a bandpass noise spec, in 40-digit arithmetic.

    The reference route on the float entries as given: the Van Loan block
    [[A, I, 0], [0, 0, I], [0, 0, 0]] tau of the noise pair's drift A
    exponentiated by mpmath, whose (0, 2) block entry [0, 0] is
    int_0^tau (tau - s) [e^(A s)]_00 ds, scaled by the pair's stationary
    variance gamma_l W^2 / gt.
    """
    a = auxiliary_block(spec)[0]
    with mpmath.workdps(40):
        block = mpmath.zeros(6, 6)
        for i in range(2):
            for j in range(2):
                block[i, j] = mpmath.mpf(a[i, j])
            block[i, 2 + i] = block[2 + i, 4 + i] = 1
        ramp = mpmath.expm(block * abs(mpmath.mpf(tau)))[0, 4]
        variance = (mpmath.mpf(spec.gamma_l) * mpmath.mpf(spec.omega_band) ** 2
                    / mpmath.mpf(spec.gamma_tilde))
        return float(mpmath.exp(-variance * ramp))


def _quad_checked(func, a, b, what: str, **kwargs) -> float:
    from scipy.integrate import quad

    out = quad(func, a, b, full_output=1, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # warning message appended on trouble
        raise QuadratureNotConverged(f"{what}: {out[3].splitlines()[0]}",
                                     achieved_error=float(abserr))
    return value


def quad_laser_correlation(spec: NoiseSpec, tau: float) -> float:
    """Field autocorrelation C(tau) = <exp(i[phi(t+tau) - phi(t)])>.

    The reference route: the spectral integral of S(omega) by QUADPACK.

    For stationary Gaussian frequency noise the double time integral
    collapses to exp(-(1/pi) * int_0^inf S(w) (1 - cos(w tau))/w^2 dw);
    flat noise of strength gamma_l gives exp(-gamma_l |tau|).
    """
    if spec.kind == "none" or spec.gamma_l == 0.0 or tau == 0.0:
        return 1.0
    t = abs(tau)

    def smooth_part(w):
        # 2 sin^2 form avoids cancellation in (1 - cos) at small w*t
        return float(phase_noise_spectrum(spec, w)) * 2.0 * math.sin(0.5 * w * t) ** 2 / w ** 2

    if spec.kind == "white":
        w0 = 0.5 * math.pi / t
        head = _quad_checked(smooth_part, 0.0, w0, "laser correlation head",
                             epsabs=1e-12, epsrel=1e-12)
        s_flat = 2.0 * spec.gamma_l
        flat = _quad_checked(lambda w: s_flat / w ** 2, w0, np.inf,
                             "laser correlation flat tail",
                             epsabs=1e-12, epsrel=1e-12)
        osc = _quad_checked(lambda w: s_flat / w ** 2, w0, np.inf,
                            "laser correlation oscillatory tail",
                            weight="cos", wvar=t, epsabs=1e-12, limit=400)
        exponent = (head + flat - osc) / math.pi
        return math.exp(-exponent)

    # bandpass: the spectrum decays like w^-4, so a finite window suffices
    band, width = spec.omega_band, max(spec.gamma_tilde, 1e-3 * spec.omega_band)
    w0 = min(0.5 * math.pi / t, 0.25 * band)
    w_max = 30.0 * max(band, width)
    head = _quad_checked(smooth_part, 0.0, w0, "laser correlation head",
                         epsabs=1e-12, epsrel=1e-12)
    edges = sorted({w0, max(band - 4 * width, w0), band, band + 4 * width, w_max})
    edges = [e for e in edges if w0 <= e <= w_max]
    flat = osc = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        flat += _quad_checked(lambda w: float(phase_noise_spectrum(spec, w)) / w ** 2,
                              a, b, "laser correlation band", epsabs=1e-13,
                              epsrel=1e-12, limit=400)
        osc += _quad_checked(lambda w: float(phase_noise_spectrum(spec, w)) / w ** 2,
                             a, b, "laser correlation band (cos)",
                             weight="cos", wvar=t, epsabs=1e-13, limit=400)
    return math.exp(-(head + flat - osc) / math.pi)


# The companion route the bare-detuning steady state took before it
# deflated its cubic by a closed-form root: the second, float route to the
# roots of the intensity cubic, kept unchanged as the tests' reference.

def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coeffs`` (highest first) at ``x``.

    The multiply-add sequence of ``np.polyval``, less its first step
    0*x + c0, which is c0 for every finite x. Coefficients may be arrays
    of x's shape.
    """
    y = coeffs[0]
    for c in coeffs[1:]:
        y = y * x + c
    return y


def _cubic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of every row of an (N, 4) coefficient stack, as an (N, 3) array.

    One ``eigvals`` call on the companion matrices; each row's leading and
    constant coefficients must be nonzero.
    """
    companion = np.zeros((len(coeffs), 3, 3))
    # inf/inf and overflowing ratios: the LinAlgError below names the overflow
    with np.errstate(invalid="ignore", over="ignore"):
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    try:
        return np.linalg.eigvals(companion).astype(complex)
    except np.linalg.LinAlgError as err:  # an inf or NaN companion matrix
        raise NoPhysicalRoot(_OVERFLOW) from err


def _admissible_intensities(cubic: np.ndarray) -> np.ndarray:
    """Nonnegative real roots of each point's intensity cubic, ascending.

    ``cubic`` has one column per point: beta, delta0, kappa^2,
    kappa^2 + delta0^2 and E0^2, where beta = g0^2/omega_m and delta0 is
    the bare detuning. The cubic is
    beta^2 I^3 - 2*delta0*beta I^2 + (kappa^2 + delta0^2) I - E0^2 = 0.
    Each admissible root gets up to three Newton steps on the residual
    I*(kappa^2 + (delta0 - beta*I)^2) - E0^2, keeping the best nonnegative
    iterate. Rows are NaN-padded to three roots.
    """
    beta, delta0, kappa_sq, linear, e0_sq = cubic
    coeffs = np.array([beta * beta, -2.0 * delta0 * beta, linear, -e0_sq])
    roots = _cubic_roots(coeffs.T).ravel()
    # one entry per root from here on: same-shape operands keep the small
    # arrays of a single point cheap
    beta, delta0, kappa_sq, e0_sq = np.repeat(cubic[[0, 1, 2, 4]], 3, axis=1)
    coeffs = np.repeat(coeffs, 3, axis=1)
    scale = np.maximum(e0_sq / coeffs[2], 1.0)
    # NaN padding compares false, so it is never admissible
    admissible = ((np.abs(roots.imag) <= _IMAGINARY_TOL
                   * np.maximum(np.hypot(roots.real, roots.imag), scale))
                  & (roots.real >= -_IMAGINARY_TOL * scale))

    def residual(x):
        delta = delta0 - beta * x
        return np.abs(x * (kappa_sq + delta * delta) - e0_sq)

    deriv = coeffs[:-1] * np.arange(3.0, 0.0, -1.0)[:, None]
    x = np.maximum(roots.real, 0.0)
    best, best_res = np.where(admissible, x, np.nan), residual(x)
    active = admissible
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            slope = _horner(deriv, x)
            active &= slope != 0.0
            # a root that stopped keeps its best iterate: x no longer matters
            x = x - _horner(coeffs, x) / slope
            res = residual(x)
            better = active & (res < best_res) & (x >= 0)
            np.copyto(best, x, where=better)
            np.copyto(best_res, res, where=better)
    return np.sort(best.reshape(-1, 3), axis=1)


def mp_intensity_roots(cubic: np.ndarray, imaginary_tol: float = 1e-40
                       ) -> list[list[float]]:
    """Nonnegative real roots of each point's intensity cubic, ascending,
    in 60-digit arithmetic.

    ``cubic`` has one column per point, laid out as for
    ``_admissible_intensities``. The reference route on the float entries
    as given: mpmath ``polyroots`` of
    beta^2 I^3 - 2 delta0 beta I^2 + (kappa^2 + delta0^2) I - E0^2, each
    coefficient formed in 60 digits from beta, delta0, kappa^2 and E0^2. A
    root counts as real, and is taken as its real part, where its imaginary
    part is within ``imaginary_tol`` of its modulus.
    """
    out = []
    with mpmath.workdps(60):
        for beta, delta0, kappa_sq, _, e0_sq in np.asarray(cubic).T.tolist():
            beta, delta0 = mpmath.mpf(beta), mpmath.mpf(delta0)
            roots = mpmath.polyroots(
                [beta * beta, -2 * delta0 * beta, kappa_sq + delta0 * delta0,
                 -mpmath.mpf(e0_sq)], maxsteps=400, extraprec=400)
            out.append(sorted(float(mpmath.re(r)) for r in roots
                              if abs(mpmath.im(r)) <= imaginary_tol * abs(r)
                              and mpmath.re(r) >= 0))
    return out


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
