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

from .dynamics import (REDUCED_BASIS, ClosedForm, optomechanical_block,
                       phase_noise_spectrum, vacuum_diffusion)
from .errors import ImaginaryFrequency, QuadratureNotConverged, UnstableDrift
from .lyapunov import CovarianceMatrix
from .parameters import NoiseSpec, SteadyState, SystemParams
from .quadrature import MAX_SEGMENTS, integrate_adaptive


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


# The closed forms below take one point (SystemParams, SteadyState) or a
# stack of many alike. Each scalar ``x ** 2`` of the one-point forms is
# np.float_power(x, 2): libm's pow, which squaring differs from in the
# last bit for about one value in a thousand. The squares of a form are
# taken in one call: at a single point the number of numpy calls, not
# their arithmetic, sets the cost.


def _response_terms(params, ss) -> dict:
    """Scattering rates and omega_eff^2 of the radiation-pressure response.

    Also returns the squares kappa^2, omega_m^2 and delta^2, the spring
    term G^2*delta*omega_m and the sideband product
    (kappa^2 + (delta - omega_m)^2)(kappa^2 + (delta + omega_m)^2), which
    gamma_eff and the static channel share.
    """
    wm, k, g, delta = params.omega_m, params.kappa, ss.g_eff, ss.delta_eff
    k2, wm2, g2, delta2, minus2, plus2 = np.float_power(
        [k, wm, g, delta, delta - wm, delta + wm], 2)
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
    """Rates kappa*G^2/2 / (kappa^2 + (delta +/- omega_m)^2)."""
    with np.errstate(all="ignore"):
        terms = _response_terms(params, ss)
    return ScatteringRates(**{name: float(terms[name])
                              for name in ("a_plus", "a_minus", "gamma_op")})


def effective_response(params: SystemParams, ss: SteadyState) -> EffectiveResponse:
    """Optical-spring frequency, effective damping, and chi_eff(omega).

    Raises ImaginaryFrequency when the squared effective frequency turns
    negative (working point at or past the static instability).
    """
    wm, gm, k = params.omega_m, params.gamma_m, params.kappa
    g, delta = ss.g_eff, ss.delta_eff
    with np.errstate(all="ignore"):
        terms = _response_terms(params, ss)
    radicand = float(terms["omega_eff_sq"])
    if radicand < 0:
        raise ImaginaryFrequency(radicand)

    def chi_eff(omega):
        w = np.asarray(omega, dtype=complex)
        out = 1.0 / (wm ** 2 - w ** 2 - 1j * gm * w
                     - g ** 2 * delta * wm / ((k - 1j * w) ** 2 + delta ** 2))
        return out if out.ndim else complex(out)

    gamma_eff = gm + 2.0 * float(terms["spring"]) * k / float(terms["sidebands"])
    return EffectiveResponse(omega_eff=math.sqrt(radicand), gamma_eff=gamma_eff,
                             chi_eff=chi_eff)


def _resolvent_integrand(a4: np.ndarray, d4: np.ndarray, photon_number: float,
                         spectrum_at: Callable[[np.ndarray], np.ndarray]
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """Spectral density of (dq, dp, dX, dY), summed over +omega and -omega.

    T(w) D(w) T(w)^dag with T = (i w I - A)^-1 and the diagonal
    D(w) = D4 + 2*|alpha_s|^2 S(w) e_Y e_Y^T: the flat-noise term that
    build_model adds to D[3,3], at each frequency's own S(w).
    """
    eye = np.eye(4)

    def integrand(omega: np.ndarray) -> np.ndarray:
        # evaluate at +w and -w so hermitian symmetry cancels pointwise
        w = np.concatenate([omega, -omega])
        d = np.tile(d4, (len(w), 1))
        d[:, 3] += 2.0 * photon_number * spectrum_at(w)
        t = np.linalg.inv(1j * w[:, None, None] * eye - a4)
        density = (t * d[:, None, :]) @ t.conj().transpose(0, 2, 1)
        return density[:len(omega)] + density[len(omega):]

    return integrand


def _feature_breakpoints(params: SystemParams, drift_eigs: np.ndarray,
                         cutoff: float) -> np.ndarray:
    """Quadrature seeds: windows around every resonance at its own width.

    ``drift_eigs`` are the eigenvalues of the 4x4 optomechanical drift.
    """
    pts = {0.0, cutoff}
    features = []
    for lam in drift_eigs:
        features.append((abs(lam.imag), max(abs(lam.real), 1e-9 * params.omega_m)))
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
                  spectrum_at: Callable[[np.ndarray], np.ndarray],
                  max_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared spectral integration; returns (complex CM integral, error)."""
    a4 = optomechanical_block(params, ss)
    eigs = np.linalg.eigvals(a4)
    if np.max(eigs.real) >= 0:
        raise UnstableDrift("spectral oracle needs a stable working point")
    scale = max(params.omega_m, abs(ss.delta_eff), params.kappa,
                params.phase_noise.omega_band, params.phase_noise.gamma_tilde)
    cutoff = 50.0 * scale
    integrand = _resolvent_integrand(a4, vacuum_diffusion(params),
                                     ss.photon_number, spectrum_at)

    def tail_integrand(u_flat: np.ndarray) -> np.ndarray:
        # |omega| > cutoff via u = 1/omega; the transformed integrand is
        # smooth and tends to the diffusion matrix as u -> 0
        return integrand(1.0 / u_flat) / u_flat[:, None, None] ** 2

    pts = _feature_breakpoints(params, eigs, cutoff)
    value, err = integrate_adaptive(integrand, pts, max_segments=max_segments)
    tail, tail_err = integrate_adaptive(tail_integrand,
                                        np.linspace(0.0, 1.0 / cutoff, 9),
                                        max_segments=max_segments)
    return (value + tail) / (2.0 * math.pi), (err + tail_err) / (2.0 * math.pi)


def cm_spectral_oracle(params: SystemParams, ss: SteadyState, *,
                       max_segments: int = MAX_SEGMENTS) -> CovarianceMatrix:
    """Stationary 4x4 covariance by frequency integration.

    Integrates the resolvent spectrum T(w) D(w) T(w)^dag of the
    vacuum/thermal noises plus the frequency noise at its full spectrum
    S(omega); independent of the Lyapunov route.
    """
    value, _ = _integrate_cm(params, ss,
                             partial(phase_noise_spectrum, params.phase_noise),
                             max_segments)
    imag_ratio = np.abs(value.imag).max() / max(np.abs(value.real).max(), 1e-300)
    if imag_ratio > 1e-10:
        raise QuadratureNotConverged(
            "hermitian symmetry violated in spectral integral",
            achieved_error=float(imag_ratio))
    return CovarianceMatrix(matrix=value.real, basis=REDUCED_BASIS)


def approx_cm_phase_correction(params: SystemParams,
                               ss: SteadyState) -> CovarianceMatrix:
    """Covariance with the noise spectrum frozen at its resonance value.

    Same integral as the oracle but with S(omega) replaced by the constant
    S(omega_eff); exact for flat spectra, accurate in the resolved-sideband
    regime (warns when kappa > omega_m).
    """
    if params.kappa > params.omega_m:
        warnings.warn("peak-spectrum approximation is calibrated for the "
                      "resolved-sideband regime (kappa < omega_m)",
                      stacklevel=2)
    omega_eff = effective_response(params, ss).omega_eff
    s_peak = phase_noise_spectrum(params.phase_noise, omega_eff)
    value, _ = _integrate_cm(params, ss, lambda w: np.full_like(w, s_peak),
                             MAX_SEGMENTS)
    return CovarianceMatrix(matrix=value.real, basis=REDUCED_BASIS)


def threshold_eta_minus(params: SystemParams, ss_like: SteadyState,
                        s_value: float) -> float:
    """Closed-form lowest symplectic eigenvalue at the instability threshold.

    Valid for a working point driven at the threshold coupling and with
    thermal noise neglected; ``s_value`` is the frequency-noise spectrum at
    the effective mechanical resonance.
    """
    k, wm = params.kappa, params.omega_m
    delta = ss_like.delta_eff
    n_ph = ss_like.photon_number
    k2, d2, w2 = k * k, delta * delta, wm * wm
    s = s_value
    a = k ** 3 * (k2 + d2) * (4 * d2 * d2 + 4 * d2 * (k2 + w2) + w2 * w2)
    b = 2 * n_ph * d2 * k2 * (4 * (d2 + k2) * (2 * d2 + k2)
                              + 6 * (d2 + k2) * w2 + w2 * w2)
    c = 4 * n_ph ** 2 * d2 * d2 * k * (5 * (d2 + k2) + 2 * w2)
    d = 8 * n_ph ** 3 * d2 ** 3
    f = 8 * k ** 3 * d2 * (k2 + d2) * (d2 + k2 + 5 * w2)
    g = 16 * n_ph * k2 * d2 * d2 * (d2 + k2 + w2)
    return math.sqrt((a + b * s + c * s ** 2 + d * s ** 3) / (f + g * s) / 2.0)


def optimal_detuning_and_max_en(kappa_over_omega_m: float) -> tuple[float, float]:
    """Detuning that minimizes eta_minus at threshold, and the peak E_N.

    Noise-free closed forms; the peak log-negativity approaches ln(5/3)
    deep in the resolved-sideband limit.
    """
    k = kappa_over_omega_m
    delta = 0.25 * math.sqrt(1.0 + math.sqrt((4.0 * k) ** 2 + 81.0))
    e_n = -math.log(math.sqrt(9.0 + 128.0 * k ** 2 / (8.0 * k ** 2 + 45.0)) / 5.0)
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
    "undamped_band": lambda form: UnstableDrift(
        "undamped noise band (gamma_tilde = 0) has no stationary state"),
    "imaginary_static": lambda form: ImaginaryFrequency(
        float(form.radicands["imaginary_static"])),
    "static_band": "static phase-noise heating assumes the noise band far "
                   "below omega_m, kappa and |delta|",
}


def _static_heating(params, ss, terms: dict):
    """The value, flags and 1/chi0 of ``static_phase_noise_heating`` from
    the response terms, floating-point errors unchecked."""
    spec = params.phase_noise
    applies = np.logical_and(spec.kind == "bandpass", ss.delta_eff != 0.0)
    if not applies.any():
        return np.zeros(applies.shape), dict.fromkeys(
            ("undamped_band", "imaginary_static", "static_band"), applies), None
    delta, band, width = ss.delta_eff, spec.omega_band, spec.gamma_tilde
    cavity = terms["k2"] + terms["delta2"]
    stiffness = terms["wm2"] - terms["spring"] / cavity
    shift2, band2, cavity2 = np.float_power(
        [ss.g_eff * delta * params.omega_m / stiffness, band, cavity], 2)
    dn = ss.photon_number * shift2 * spec.gamma_l * band2 / (width * cavity2)
    scale = np.minimum(np.minimum(np.sqrt(stiffness), params.kappa), np.abs(delta))
    valid = applies & (width != 0.0)
    imaginary = valid & (stiffness < 0)
    flags = {"undamped_band": applies & ~valid, "imaginary_static": imaginary,
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
    undamped band (gt = 0, ``undamped_band``), where the value is NaN.
    """
    with np.errstate(all="ignore"):
        dn, flags, stiffness = _static_heating(params, ss, _response_terms(params, ss))
    return ClosedForm(dn, flags, _RULES, {"imaginary_static": stiffness})


def approx_n_eff(params, ss, *, _phonons=None) -> ClosedForm:
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
    raises, where the value is NaN. ``_phonons`` is
    ``params.thermal_phonons()`` where the point pipeline has it already.
    """
    n = params.thermal_phonons() if _phonons is None else _phonons
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


def _quad_checked(func, a, b, what: str, **kwargs) -> float:
    from scipy.integrate import quad

    out = quad(func, a, b, full_output=1, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # warning message appended on trouble
        raise QuadratureNotConverged(f"{what}: {out[3].splitlines()[0]}",
                                     achieved_error=float(abserr))
    return value


def laser_correlation(spec: NoiseSpec, tau: float) -> float:
    """Field autocorrelation C(tau) = <exp(i[phi(t+tau) - phi(t)])>.

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
