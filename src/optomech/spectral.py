"""Frequency-domain oracle and closed-form approximations.

Everything here reaches the stationary state through spectra instead of the
Lyapunov equation, providing an independent cross-check of the time-domain
solvers plus the compact analytic expressions for entanglement at threshold
and for sideband cooling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import (ClosedForm, _characteristic, _undamped_band,
                       auxiliary_block, optomechanical_block,
                       phase_noise_spectrum, vacuum_diffusion)
from .errors import ImaginaryFrequency, UnstableDrift
from .lyapunov import CovarianceMatrix
from .parameters import NoiseSpec, SteadyState, SystemParams, _one_point
from .quadrature import integrate_adaptive
from .simulate import _expm


@dataclass(frozen=True)
class EffectiveResponse:
    """Radiation-pressure-modified mechanical response.

    ``chi_eff`` evaluates the effective susceptibility at angular frequency
    omega (scalar or array); ``omega_eff``/``gamma_eff`` are the closed-form
    resonance frequency (optical spring) and linewidth.
    """

    omega_eff: float
    gamma_eff: float
    chi_eff: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScatteringRates:
    """Stokes/anti-Stokes photon scattering rates and their difference."""

    a_plus: float
    a_minus: float
    gamma_op: float


def _response_terms(params, ss) -> dict:
    """Scattering rates and omega_eff^2 of the radiation-pressure response.

    Also returns the squares kappa^2, omega_m^2 and delta^2, the spring
    term G^2*delta*omega_m and the sideband product
    (kappa^2 + (delta - omega_m)^2)(kappa^2 + (delta + omega_m)^2), which
    gamma_eff and the static channel share.
    """
    wm, k, g, delta = params.omega_m, params.kappa, ss.g_eff, ss.delta_eff
    k2, wm2, g2, delta2, minus2, plus2 = np.square(
        [k, wm, g, delta, delta - wm, delta + wm])
    d_minus, d_plus = k2 + minus2, k2 + plus2
    half = 0.5 * k * g2
    a_minus, a_plus = half / d_minus, half / d_plus
    spring = g2 * delta * wm
    sidebands = d_minus * d_plus
    return {"a_plus": a_plus, "a_minus": a_minus, "gamma_op": a_minus - a_plus,
            "omega_eff_sq": wm2 - (spring * (k2 - wm2 + delta2) / sidebands),
            "k2": k2, "wm2": wm2, "delta2": delta2, "spring": spring,
            "sidebands": sidebands}


def scattering_rates(params: SystemParams, ss: SteadyState) -> ScatteringRates:
    """Rates kappa*G^2/2 / (kappa^2 + (delta +/- omega_m)^2), per point of a stack."""
    with np.errstate(all="ignore"):
        terms = _response_terms(params, ss)
    return ScatteringRates(**{name: terms[name]
                              for name in ("a_plus", "a_minus", "gamma_op")})


def effective_response(params: SystemParams, ss: SteadyState) -> EffectiveResponse:
    """Optical-spring frequency, effective damping, and chi_eff(omega).

    Per point of a stack too (``chi_eff`` then takes a frequency per point);
    the first omega_eff^2 < 0 raises ImaginaryFrequency (static instability).
    """
    wm, gm, k = params.omega_m, params.gamma_m, params.kappa
    g, delta = ss.g_eff, ss.delta_eff
    with np.errstate(all="ignore"):
        terms = _response_terms(params, ss)
    radicand = terms["omega_eff_sq"]
    if (radicand < 0).any():
        raise ImaginaryFrequency(float(np.extract(radicand < 0, radicand)[0]))

    def chi_eff(omega):
        # on arrays, as for a stack: numpy rounds complex scalar products apart
        w = np.array(omega, dtype=complex, ndmin=1)
        out = 1.0 / (wm * wm - w ** 2 - 1j * gm * w
                     - g * g * delta * wm / ((k - 1j * w) ** 2 + delta * delta))
        return out.reshape(np.broadcast_shapes(np.shape(omega), np.shape(wm)))[()]

    gamma_eff = gm + 2.0 * terms["spring"] * k / terms["sidebands"]
    return EffectiveResponse(omega_eff=np.sqrt(radicand), gamma_eff=gamma_eff,
                             chi_eff=chi_eff)


_UNDAMPED_BAND = ("undamped noise band (gamma_tilde zero or too small against the "
                  "band center to damp the noise pair) has no stationary state")


def _resolvent_integrand(a4: np.ndarray, d4: np.ndarray, photon_number: float,
                         spectrum_at: Callable[[np.ndarray], np.ndarray]
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """Spectral density of (dq, dp, dX, dY), summed over +omega and -omega.

    T(w) D(w) T(w)^dag with T = (i w I - A)^-1 and the diagonal
    D(w) = D4 + 2*|alpha_s|^2 S(w) e_Y e_Y^T: the flat-noise term that
    build_model adds to D[3,3], at each frequency's own S(w). For a real
    ``a4``, T(-w) = conj T(w), and for an even ``spectrum_at``,
    D(-w) = D(w); the -omega term is then the complex conjugate of the
    +omega one, so the sum is the real array 2 Re[T(w) D(w) T(w)^dag].

    T is adj(sI - A)/det(sI - A) at s = i w, with no inverse per frequency.
    A is fixed, so both are polynomials in s whose coefficients the
    Faddeev-LeVerrier recursion (``dynamics._characteristic``) gives once:
    adj = s^3 I + s^2 B_1 + s B_2 + B_3, det = s^4 + c_1 s^3 + ... + c_4.
    At s = i w the adjugate is N = (B_3 - w^2 B_1) + i w (B_2 - w^2 I) and
    the determinant (w^4 - c_2 w^2 + c_4) + i w (c_3 - c_1 w^2). |det| is
    the hypotenuse of those two parts: |det|^2 expanded as a polynomial in
    w^2 would square the cancellation of det at a resonance. D has no dq
    entry (ValueError where ``d4[0]`` is not zero), so only the dp, dX and
    dY columns of N enter: with y = [Re N, Im N] sqrt(D)/|det| over those
    6 columns (4 x 6), the density is 2 y y^T. No eigendecomposition is
    taken: at zero effective detuning the drift has a defective double
    eigenvalue -kappa. Nothing here reads the Lyapunov solution, so the
    oracle stays independent of it.
    """
    if d4[0] != 0.0:
        raise ValueError("the resolvent spectrum drops the dq column of D, "
                         "so the dq diffusion must be zero")
    eye = np.eye(4)
    (c1, c2, c3, c4), (b1, b2, b3) = _characteristic(a4)
    # N[i, k] = coef[i, part, k - 1] @ (1, w, w^2, w^3) for k = dp, dX, dY,
    # part 0 real, 1 imaginary
    coef = np.zeros((4, 2, 3, 4))
    coef[:, 0, :, 0], coef[:, 0, :, 2] = b3[:, 1:], -b1[:, 1:]
    coef[:, 1, :, 1], coef[:, 1, :, 3] = b2[:, 1:], -eye[:, 1:]
    coef = coef.reshape(24, 4)
    d_cols = np.asarray(d4, dtype=float)[1:, None]

    def integrand(omega: np.ndarray) -> np.ndarray:
        powers = np.empty((4, omega.size))
        powers[0], powers[1] = 1.0, omega
        w2 = np.multiply(omega, omega, out=powers[2])
        np.multiply(w2, omega, out=powers[3])
        det_re = (w2 - c2) * w2 + c4
        det_im = omega * (c3 - c1 * w2)
        root_d = np.empty((3, omega.size))
        root_d[:] = d_cols
        root_d[2] += 2.0 * photon_number * spectrum_at(omega)
        np.sqrt(root_d, out=root_d)
        root_d /= np.hypot(det_re, det_im)
        y = (coef @ powers).reshape(4, 2, 3, omega.size)
        y *= root_d
        y = y.reshape(4, 6, omega.size)
        return 2.0 * np.einsum("ikn,jkn->nij", y, y)

    return integrand


def _feature_breakpoints(params: SystemParams, drift_eigs: np.ndarray,
                         cutoff: float) -> np.ndarray:
    """Quadrature seeds: windows around every resonance at its own width.

    ``drift_eigs`` are the eigenvalues of the 4x4 optomechanical drift; a
    conjugate pair has one window, taken from its member with Im >= 0.
    Returns the distinct seeds in [0, cutoff], sorted.
    """
    pts = {0.0, cutoff}
    floor = 1e-9 * params.omega_m
    features = [(abs(lam.imag), max(abs(lam.real), floor))
                for lam in drift_eigs.tolist() if lam.imag >= 0.0]
    spec = params.phase_noise
    if spec.kind == "bandpass":
        width = max(spec.gamma_tilde, 1e-9 * spec.omega_band)
        features.append((spec.omega_band, width))
    for center, width in features:
        pts.add(min(center, cutoff))
        for k in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
            for side in (center - k * width, center + k * width):
                if 0.0 < side < cutoff:
                    pts.add(side)
    return np.array(sorted(pts))


def _integrate_cm(params: SystemParams, ss: SteadyState,
                  spectrum_at: Callable[[np.ndarray], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Shared spectral integration; returns (real CM integral, error).

    ``spectrum_at`` must be even in omega: the integrand is taken over
    omega >= 0 only (see _resolvent_integrand).
    """
    a4 = optomechanical_block(params, ss)
    eigs = np.linalg.eigvals(a4)
    if np.max(eigs.real) >= 0:
        raise UnstableDrift("spectral oracle needs a stable working point")
    spec = params.phase_noise
    if _undamped_band(spec):
        raise UnstableDrift(_UNDAMPED_BAND)
    scale = max(params.omega_m, abs(ss.delta_eff), params.kappa,
                spec.omega_band, spec.gamma_tilde)
    cutoff = 50.0 * scale
    integrand = _resolvent_integrand(a4, vacuum_diffusion(params),
                                     ss.photon_number, spectrum_at)

    def tail_integrand(u_flat: np.ndarray) -> np.ndarray:
        # |omega| > cutoff via u = 1/omega; the transformed integrand is
        # smooth and tends to the diffusion matrix as u -> 0
        return integrand(1.0 / u_flat) / u_flat[:, None, None] ** 2

    pts = _feature_breakpoints(params, eigs, cutoff)
    value, err = integrate_adaptive(integrand, pts)
    tail, tail_err = integrate_adaptive(tail_integrand,
                                        np.linspace(0.0, 1.0 / cutoff, 9))
    return (value + tail) / (2.0 * math.pi), (err + tail_err) / (2.0 * math.pi)


def cm_spectral_oracle(params: SystemParams, ss: SteadyState) -> CovarianceMatrix:
    """Stationary 4x4 covariance by frequency integration.

    Integrates the resolvent spectrum T(w) D(w) T(w)^dag of the
    vacuum/thermal noises plus the frequency noise at its full spectrum
    S(omega); independent of the Lyapunov route. The drift is real and
    S(omega) even, so the integrand is evaluated at omega >= 0 only, as
    2 Re[T D T^dag]. Raises UnstableDrift for an unstable drift and for an
    undamped noise band (gamma_tilde = 0, or so small that the noise pair's
    drift is not Hurwitz, as build_model finds it), whose S(omega) is
    infinite at the band center; a stack raises ValueError.
    """
    _one_point("cm_spectral_oracle", params.omega_m, ss.g_eff)
    value, _ = _integrate_cm(params, ss,
                             partial(phase_noise_spectrum, params.phase_noise))
    return CovarianceMatrix(matrix=value)


def approx_cm_phase_correction(params: SystemParams,
                               ss: SteadyState) -> CovarianceMatrix:
    """Covariance with the noise spectrum frozen at its resonance value.

    Same integral as the oracle but with S(omega) replaced by the constant
    S(omega_eff); exact for flat spectra, accurate in the resolved-sideband
    regime (warns when kappa > omega_m). Raises UnstableDrift where the
    oracle does, an undamped noise band included; a stack raises ValueError.
    """
    _one_point("approx_cm_phase_correction", params.omega_m, ss.g_eff)
    if params.kappa > params.omega_m:
        warnings.warn("peak-spectrum approximation is calibrated for the "
                      "resolved-sideband regime (kappa < omega_m)",
                      stacklevel=2)
    omega_eff = effective_response(params, ss).omega_eff
    s_peak = phase_noise_spectrum(params.phase_noise, omega_eff)
    value, _ = _integrate_cm(params, ss, lambda w: np.full_like(w, s_peak))
    return CovarianceMatrix(matrix=value)


def threshold_eta_minus(params: SystemParams, ss_like: SteadyState, s_value):
    """Closed-form lowest symplectic eigenvalue at the instability threshold.

    Valid for a working point driven at the threshold coupling and with
    thermal noise neglected; ``s_value`` is the frequency-noise spectrum at
    the effective mechanical resonance, one or one per point of a stack.
    """
    k, wm = params.kappa, params.omega_m
    delta = ss_like.delta_eff
    n_ph = ss_like.photon_number
    k2, d2, w2 = k * k, delta * delta, wm * wm
    k3, n2, s, s2 = k * k2, n_ph * n_ph, s_value, s_value * s_value
    a = k3 * (k2 + d2) * (4 * d2 * d2 + 4 * d2 * (k2 + w2) + w2 * w2)
    b = 2 * n_ph * d2 * k2 * (4 * (d2 + k2) * (2 * d2 + k2)
                              + 6 * (d2 + k2) * w2 + w2 * w2)
    c = 4 * n2 * d2 * d2 * k * (5 * (d2 + k2) + 2 * w2)
    d = 8 * n2 * n_ph * d2 * d2 * d2
    f = 8 * k3 * d2 * (k2 + d2) * (d2 + k2 + 5 * w2)
    g = 16 * n_ph * k2 * d2 * d2 * (d2 + k2 + w2)
    return np.sqrt((a + b * s + c * s2 + d * (s2 * s)) / (f + g * s) / 2.0)


def optimal_detuning_and_max_en(kappa_over_omega_m):
    """Detuning that minimizes eta_minus at threshold, and the peak E_N.

    Noise-free closed forms; the peak log-negativity approaches ln(5/3)
    deep in the resolved-sideband limit. Elementwise in kappa/omega_m.
    """
    k2 = kappa_over_omega_m * kappa_over_omega_m
    delta = 0.25 * np.sqrt(1.0 + np.sqrt(16.0 * k2 + 81.0))
    e_n = -np.log(np.sqrt(9.0 + 128.0 * k2 / (8.0 * k2 + 45.0)) / 5.0)
    return delta, e_n


# largest band center, as a fraction of min(static frequency, kappa, |delta|),
# at which the static channel is still trusted: over 60 random working points
# inside the weak-coupling regime (G <= kappa/2, omega_m/2) with band widths
# 0.01 W, 0.5 W and 10 W, its worst relative gap to the spectral oracle was
# 0.8% at W = 0.05, 3.1% at 0.1, 7.1% at 0.15 and 13% at 0.2 of that scale
STATIC_BAND_LIMIT = 0.1


# what ClosedForm.checked does where a flag of the occupancy forms is set
_RULES = {
    "kappa_regime": "occupancy formula assumes kappa >> gamma_m, G",
    "omega_m_regime": "occupancy formula assumes omega_m >> n*gamma_m, G",
    "imaginary_spring": lambda form: ImaginaryFrequency(
        float(form.radicands["imaginary_spring"])),
    "undamped_band": lambda form: UnstableDrift(_UNDAMPED_BAND),
    "imaginary_static": lambda form: ImaginaryFrequency(
        float(form.radicands["imaginary_static"])),
    "static_band": "static phase-noise heating assumes the noise band far "
                   "below omega_m, kappa and |delta|",
}


def _static_heating(params, ss, terms: dict):
    """The value, flags and 1/chi0 of ``static_phase_noise_heating`` from
    the response terms, floating-point errors unchecked.
    """
    spec = params.phase_noise
    applies = np.logical_and(spec.kind == "bandpass", ss.delta_eff != 0.0)
    if not applies.any():
        return np.zeros(applies.shape), dict.fromkeys(
            ("undamped_band", "imaginary_static", "static_band"), applies), None
    delta, band, width = ss.delta_eff, spec.omega_band, spec.gamma_tilde
    cavity = terms["k2"] + terms["delta2"]
    stiffness = terms["wm2"] - terms["spring"] / cavity
    shift2, band2, cavity2 = np.square(
        [ss.g_eff * delta * params.omega_m / stiffness, band, cavity])
    dn = ss.photon_number * shift2 * spec.gamma_l * band2 / (width * cavity2)
    scale = np.minimum(np.minimum(np.sqrt(stiffness), params.kappa), np.abs(delta))
    undamped = applies & _undamped_band(spec)
    valid = applies & ~undamped
    imaginary = valid & (stiffness < 0)
    flags = {"undamped_band": undamped, "imaginary_static": imaginary,
             "static_band": valid & (band > STATIC_BAND_LIMIT * scale)}
    dn = np.where(applies, np.where(valid & ~imaginary, dn, np.nan), 0.0)
    return dn, flags, stiffness


def static_phase_noise_heating(params, ss) -> ClosedForm:
    """Occupancy added by the noise band through the static mirror response.

    Frequency noise at omega << omega_m, kappa, |delta| displaces the mirror
    through the static radiation-pressure susceptibility
    chi0 = 1/(omega_m^2 - G^2*delta*omega_m/(kappa^2 + delta^2)), with the
    cavity factor frozen at (kappa^2 + delta^2)^2. The bandpass spectrum
    integrates to 2*pi*Gamma_l*W^2/gt over the real line, so

    dn = |alpha|^2 chi0^2 (G*delta*omega_m)^2 Gamma_l W^2 / (gt (kappa^2 + delta^2)^2).

    Its relative error grows as W^2 (W is the band's rms frequency for any
    gt). Of one point or a stack. Zero for no noise and for white noise,
    whose flat spectrum has no low-frequency band. ``checked`` warns when W
    exceeds STATIC_BAND_LIMIT times min(sqrt(1/chi0), kappa, |delta|)
    (``static_band``); it raises ImaginaryFrequency past the static
    instability (1/chi0 < 0, ``imaginary_static``) and UnstableDrift for an
    undamped band (``undamped_band``: gt = 0, or so small that the noise
    pair's drift is not Hurwitz, as build_model finds it), where the value
    is NaN.
    """
    with np.errstate(all="ignore"):
        dn, flags, stiffness = _static_heating(params, ss, _response_terms(params, ss))
    return ClosedForm(dn, flags, _RULES, {"imaginary_static": stiffness})


def approx_n_eff(params, ss) -> ClosedForm:
    """Weak-coupling occupancy including both frequency-noise heating channels.

    n_eff = [n*gamma_m + A_plus + |alpha|^2 * delta * Gamma_op *
    S(omega_eff) / (2*kappa*omega_m)] / (gamma_m + Gamma_op) + dn_static.
    The bracket holds the resonant channel (S frozen at omega_eff);
    dn_static = |alpha|^2 chi0^2 (G*delta*omega_m)^2 Gamma_l W^2 /
    (gt (kappa^2 + delta^2)^2) is the quasi-static channel of a bandpass
    noise band lying far below omega_m, kappa and |delta|
    (static_phase_noise_heating). Of one point or a stack. ``checked``
    warns outside the weak-coupling regime it is calibrated for,
    ``kappa_regime`` (G > kappa/2 or gamma_m > kappa/10) and
    ``omega_m_regime`` (n*gamma_m > omega_m/10 or G > omega_m/2), and where
    the band is not that far below; it raises ImaginaryFrequency where
    omega_eff^2 < 0 (``imaginary_spring``) and where the static channel
    raises, where the value is NaN. The bath phonon number and the noise
    pair's verdict are the ones each point carries (``n_th``,
    ``pair_abscissa``).
    """
    n = params.n_th
    gm, wm, k, g = params.gamma_m, params.omega_m, params.kappa, ss.g_eff
    with np.errstate(all="ignore"):
        terms = _response_terms(params, ss)
        radicand, gamma_op = terms["omega_eff_sq"], terms["gamma_op"]
        static, static_flags, stiffness = _static_heating(params, ss, terms)
        s_peak = phase_noise_spectrum(params.phase_noise, np.sqrt(radicand))
        heating = ss.photon_number * ss.delta_eff * gamma_op * s_peak / (2.0 * k * wm)
        n_eff = (n * gm + terms["a_plus"] + heating) / (gm + gamma_op) + static
    spring = radicand < 0
    # past an imaginary spring frequency the static band's warning is not reached
    flags = {"kappa_regime": (g > 0.5 * k) | (gm > 0.1 * k),
             "omega_m_regime": (n * gm > 0.1 * wm) | (g > 0.5 * wm),
             "imaginary_spring": spring, **static_flags,
             "static_band": static_flags["static_band"] & ~spring}
    return ClosedForm(np.where(spring, np.nan, n_eff), flags, _RULES,
                      {"imaginary_spring": radicand, "imaginary_static": stiffness})


def laser_correlation(spec: NoiseSpec, tau: float) -> float:
    """Field autocorrelation C(tau) = <exp(i[phi(t+tau) - phi(t)])>.

    For stationary Gaussian frequency noise C(tau) = exp(-Var/2), with Var
    the variance of the phase step phi(t+tau) - phi(t). Flat noise of
    strength gamma_l gives exp(-gamma_l |tau|). Bandpass noise is psi of
    the (psi, theta) pair of ``auxiliary_block``, whose drift A has the
    stationary covariance (gamma_l W^2/gt) I, so

    C(tau) = exp(-(gamma_l W^2/gt) [int_0^tau (tau - s) e^(A s) ds]_00),

    the integral being the (0, 2) block of exp([[A, I, 0], [0, 0, I],
    [0, 0, 0]] |tau|) (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)). Raises UnstableDrift for an undamped band (gt = 0, or so small
    that the pair's drift is not Hurwitz, as build_model finds it), and
    ValueError for a stack's noise or a ``tau`` not one finite value.
    """
    _one_point("laser_correlation", spec.gamma_l, tau)
    if not abs(tau) < math.inf:
        raise ValueError(f"laser_correlation needs a finite tau, got {tau!r}")
    if spec.kind == "none" or spec.gamma_l == 0.0 or tau == 0.0:
        return 1.0
    if spec.kind == "white":
        return math.exp(-spec.gamma_l * abs(tau))
    if _undamped_band(spec):
        raise UnstableDrift(_UNDAMPED_BAND)
    block = np.zeros((6, 6))
    block[:2, :2] = auxiliary_block(spec)[0]
    block[:2, 2:4] = block[2:4, 4:] = np.eye(2)
    ramp = _expm(block * abs(tau))[0, 4]
    band = spec.omega_band
    return math.exp(-spec.gamma_l * band * band / spec.gamma_tilde * ramp)
