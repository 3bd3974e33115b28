import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import (NoiseSpec, SystemParams, approx_cm_phase_correction,
                      approx_n_eff, build_model,
                      cm_spectral_oracle, effective_response,
                      laser_correlation, log_negativity, occupancy,
                      optimal_detuning_and_max_en, phase_noise_spectrum,
                      power_for_coupling, reduce_to_optomechanical,
                      scattering_rates, solve_lyapunov, solve_steady_state,
                      static_phase_noise_heating, threshold_eta_minus)
from optomech import quadrature, spectral
from optomech.dynamics import optomechanical_block, vacuum_diffusion
from optomech.errors import (ImaginaryFrequency, QuadratureNotConverged,
                             UnstableDrift)
from optomech.spectral import STATIC_BAND_LIMIT

from conftest import (OMEGA_M, bandpass_100hz, make_params,
                      mp_laser_correlation, mp_resolvent_spectrum,
                      quad_laser_correlation, relative_gap)

GAMMA_EFF_ADD_REF = 0.012468827930174564  # at delta=wm=1, kappa=0.1, G=0.05
A_MINUS_REF = 0.0125  # at delta=wm, kappa=0.1wm, G=0.05wm, units of wm
A_PLUS_REF = 3.1172069825436409e-5
OPT_DETUNING_05 = 0.79920055591872899
OPT_EN_05 = 0.47436300381365446
LN_5_3 = 0.51082562376599068


@st.composite
def noise_specs(draw):
    """A noise spec of any kind; a band with a nonzero width."""
    kind = draw(st.sampled_from(["none", "white", "bandpass"]))
    if kind == "none":
        return NoiseSpec.none()
    gamma_l = draw(st.floats(0.0, 1e6))
    if kind == "white":
        return NoiseSpec.white(gamma_l)
    return NoiseSpec.bandpass(gamma_l, draw(st.floats(1e2, 1e9)),
                              draw(st.floats(1e-3, 1e9)))


def _point_with_coupling(g_over_wm, **overrides):
    p = make_params(**overrides)
    power = power_for_coupling(p, g_over_wm * OMEGA_M)
    p = p.with_(laser_power=power)
    return p, solve_steady_state(p)


class TestEffectiveResponse:
    def test_uncoupled_limit(self):
        p, ss = _point_with_coupling(0.0)
        resp = effective_response(p, ss)
        assert resp.omega_eff == pytest.approx(OMEGA_M, rel=1e-12)
        assert resp.gamma_eff == pytest.approx(p.gamma_m, rel=1e-12)

    def test_bare_susceptibility_at_random_frequencies(self):
        p, ss = _point_with_coupling(0.0)
        chi = effective_response(p, ss).chi_eff
        rng = np.random.default_rng(2)
        w = OMEGA_M * rng.uniform(0.01, 3.0, 100)
        bare = 1.0 / (OMEGA_M ** 2 - w ** 2 - 1j * p.gamma_m * w)
        np.testing.assert_allclose(chi(w), bare, rtol=1e-12)

    def test_damping_shift_reference_value(self):
        p, ss = _point_with_coupling(0.05, kappa=0.1 * OMEGA_M)
        resp = effective_response(p, ss)
        assert (resp.gamma_eff - p.gamma_m) / OMEGA_M == pytest.approx(
            GAMMA_EFF_ADD_REF, rel=1e-10)

    def test_damping_identity_with_scattering_rates(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p, ss = _point_with_coupling(
                rng.uniform(0.01, 0.6),
                kappa=OMEGA_M * rng.uniform(0.1, 2.0),
                detuning=OMEGA_M * rng.uniform(0.3, 2.0))
            resp = effective_response(p, ss)
            rates = scattering_rates(p, ss)
            assert rates.gamma_op == pytest.approx(
                resp.gamma_eff - p.gamma_m, rel=1e-12)

    def test_peak_location_matches_omega_eff(self):
        p, ss = _point_with_coupling(0.1, kappa=0.2 * OMEGA_M)
        resp = effective_response(p, ss)
        assert resp.gamma_eff < 0.1 * resp.omega_eff
        w = np.linspace(0.5 * resp.omega_eff, 1.5 * resp.omega_eff, 20001)
        peak = w[np.argmax(np.abs(resp.chi_eff(w)) ** 2)]
        assert peak == pytest.approx(resp.omega_eff, rel=0.02)

    def test_imaginary_frequency_signal(self):
        # past the static threshold the optical-spring radicand turns negative
        p, ss = _point_with_coupling(1.2 * math.sqrt(2.5),
                                     detuning=2.0 * OMEGA_M, kappa=OMEGA_M)
        with pytest.raises(ImaginaryFrequency) as err:
            effective_response(p, ss)
        assert err.value.radicand < 0.0


class TestScatteringRates:
    def test_uncoupled(self):
        p, ss = _point_with_coupling(0.0)
        rates = scattering_rates(p, ss)
        assert rates.a_plus == rates.a_minus == rates.gamma_op == 0.0

    def test_reference_values(self):
        p, ss = _point_with_coupling(0.05, kappa=0.1 * OMEGA_M)
        rates = scattering_rates(p, ss)
        assert rates.a_minus / OMEGA_M == pytest.approx(A_MINUS_REF, rel=1e-10)
        assert rates.a_plus / OMEGA_M == pytest.approx(A_PLUS_REF, rel=1e-10)

    def test_zero_detuning_is_symmetric(self):
        p = make_params(detuning=0.0)
        ss = solve_steady_state(p)
        rates = scattering_rates(p, ss)
        assert rates.a_plus == rates.a_minus
        assert rates.gamma_op == 0.0


class TestThresholdEtaMinus:
    def test_reference_point_without_noise(self):
        p, ss = _point_with_coupling(math.sqrt(1.25))  # threshold at delta=wm
        eta = threshold_eta_minus(p, ss, 0.0)
        assert eta == pytest.approx(math.sqrt(0.1), rel=1e-12)
        assert -math.log(2 * eta) == pytest.approx(0.45814536593707753, rel=1e-10)

    def test_zero_noise_reduces_to_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            kappa = OMEGA_M * rng.uniform(0.05, 2.0)
            delta = OMEGA_M * rng.uniform(0.2, 2.5)
            p = make_params(kappa=kappa, detuning=delta)
            g_thr = math.sqrt((delta ** 2 + kappa ** 2) * OMEGA_M / delta)
            p = p.with_(laser_power=power_for_coupling(p, g_thr))
            ss = solve_steady_state(p)
            eta = threshold_eta_minus(p, ss, 0.0)
            w2, d2, k2 = OMEGA_M ** 2, delta ** 2, kappa ** 2
            closed = math.sqrt((4 * d2 ** 2 + 4 * d2 * (k2 + w2) + w2 ** 2)
                               / (16 * d2 * (d2 + k2 + 5 * w2)))
            assert eta == pytest.approx(closed, rel=1e-12)

    def test_large_noise_kills_entanglement(self):
        p, ss = _point_with_coupling(math.sqrt(1.25))
        etas = [threshold_eta_minus(p, ss, s)
                for s in (0.0, 1e-6, 1e-3, 1.0)]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert etas[-1] > 0.5  # no entanglement left


class TestOptimalDetuning:
    def test_resolved_sideband_limit(self):
        delta, e_n = optimal_detuning_and_max_en(1e-6)
        assert delta == pytest.approx(math.sqrt(10) / 4, rel=1e-9)
        assert e_n == pytest.approx(LN_5_3, rel=1e-9)

    def test_reference_at_half_linewidth(self):
        delta, e_n = optimal_detuning_and_max_en(0.5)
        assert delta == pytest.approx(OPT_DETUNING_05, rel=1e-12)
        assert e_n == pytest.approx(OPT_EN_05, rel=1e-12)

    def test_peak_entanglement_decreases_with_linewidth(self):
        values = [optimal_detuning_and_max_en(k)[1]
                  for k in (0.01, 0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestApproxOccupancy:
    def test_no_coupling_returns_bath_occupancy(self):
        p, ss = _point_with_coupling(0.0)
        assert approx_n_eff(p, ss).checked() == pytest.approx(p.thermal_phonons(),
                                                              rel=1e-12)

    def test_sideband_cooling_limit(self):
        # cold bath, tiny gamma_m: the formula collapses to A+/Gamma_op
        p, ss = _point_with_coupling(
            0.02, kappa=0.05 * OMEGA_M, bath_temperature=0.0,
            quality_factor=1e9)
        rates = scattering_rates(p, ss)
        assert approx_n_eff(p, ss).checked() == pytest.approx(
            rates.a_plus / rates.gamma_op, rel=1e-3)

    def test_against_exact_pipeline_weak_coupling(self):
        p, ss = _point_with_coupling(0.2 * 0.2, kappa=0.2 * OMEGA_M,
                                     phase_noise=bandpass_100hz())
        model = build_model(p, ss)
        v4 = reduce_to_optomechanical(solve_lyapunov(model.drift,
                                                     model.diffusion))
        exact = occupancy(v4, OMEGA_M).n_eff
        approx = approx_n_eff(p, ss).checked()
        assert approx == pytest.approx(exact, rel=0.15)

    def test_warns_outside_regime(self):
        p, ss = _point_with_coupling(0.9, kappa=0.5 * OMEGA_M)
        with pytest.warns(UserWarning):
            approx_n_eff(p, ss).checked()

    def test_warnings_point_at_the_caller(self):
        p, ss = _point_with_coupling(0.9, kappa=0.5 * OMEGA_M)
        form = approx_n_eff(p, ss)
        assert form.flags["kappa_regime"] and form.flags["omega_m_regime"]
        with pytest.warns(UserWarning) as caught:
            form.checked()
        assert {w.filename for w in caught} == {__file__}

    def test_static_channel_matches_spectral_route(self):
        # the oracle minus the frozen-spectrum covariance is exactly what the
        # band below omega_m adds beyond S(omega_eff); the closed form must
        # carry it to the accuracy of its w << omega_m, kappa expansion
        for g_over_kappa in (0.1, 0.2, 0.3):
            p, ss = _point_with_coupling(0.2 * g_over_kappa,
                                         kappa=0.2 * OMEGA_M,
                                         phase_noise=bandpass_100hz())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dn = static_phase_noise_heating(p, ss).checked()
                approx_n_eff(p, ss).checked()
            n_oracle = occupancy(cm_spectral_oracle(p, ss), OMEGA_M).n_eff
            n_frozen = occupancy(approx_cm_phase_correction(p, ss),
                                 OMEGA_M).n_eff
            assert abs(n_oracle - n_frozen - dn) / dn <= 1e-3
        for noise in (NoiseSpec.none(), NoiseSpec.white(2 * math.pi * 100)):
            p, ss = _point_with_coupling(0.06, kappa=0.2 * OMEGA_M,
                                         phase_noise=noise)
            assert static_phase_noise_heating(p, ss).checked() == 0.0
        # band at 0.2 omega_m with kappa, |delta| >= omega_m: not far below
        # omega_m, so the expansion is flagged
        p, ss = _point_with_coupling(0.2, kappa=2.0 * OMEGA_M,
                                     phase_noise=bandpass_100hz(0.2 * OMEGA_M))
        with pytest.warns(UserWarning, match="noise band far below"):
            approx_n_eff(p, ss).checked()
        p, ss = _point_with_coupling(0.06, phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, 0.0))
        with pytest.raises(UnstableDrift):
            static_phase_noise_heating(p, ss).checked()


def _random_working_points(rng, count):
    """Working points over every noise kind, detuning mode and regime."""
    points = []
    for _ in range(count):
        band = 2 * math.pi * 10 ** rng.uniform(3.5, 6.5)
        width = 0.0 if rng.uniform() < 0.05 else band * 10 ** rng.uniform(-2, 1)
        gamma_l = 2 * math.pi * 10 ** rng.uniform(0, 4)
        noise = [NoiseSpec.none(), NoiseSpec.white(gamma_l),
                 NoiseSpec.bandpass(gamma_l, band, width)][rng.integers(3)]
        p = make_params(
            kappa=OMEGA_M * 10 ** rng.uniform(-1.5, 0.5),
            detuning=OMEGA_M * rng.uniform(-0.5, 3.0),
            laser_power=rng.uniform(0.0, 0.15),
            quality_factor=10 ** rng.uniform(3, 7),
            bath_temperature=rng.choice([0.0, 10 ** rng.uniform(-2, 1)]),
            detuning_mode=str(rng.choice(["effective", "bare"])),
            phase_noise=noise)
        points.append((p, solve_steady_state(p)))
    return points


def _outcome(func, *args):
    """(value or raised type, the set of warning messages) of one checked call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = func(*args).checked()
        except (ImaginaryFrequency, UnstableDrift) as err:
            value = type(err)
    return value, {str(w.message) for w in caught}


def _scalar_conditions(p, ss) -> dict:
    """Where the one-point closed forms warn and raise, in scalar arithmetic.

    These are the conditions approx_n_eff and static_phase_noise_heating
    tested point by point before they became batches of one.
    """
    n, gm, wm, k = p.thermal_phonons(), p.gamma_m, p.omega_m, p.kappa
    g, delta, spec = ss.g_eff, ss.delta_eff, p.phase_noise
    sidebands = (k ** 2 + (delta - wm) ** 2) * (k ** 2 + (delta + wm) ** 2)
    spring = wm ** 2 - g ** 2 * delta * wm * (k ** 2 - wm ** 2 + delta ** 2) / sidebands
    stiffness = wm ** 2 - g ** 2 * delta * wm / (k ** 2 + delta ** 2)
    applies = spec.kind == "bandpass" and delta != 0.0
    undamped = applies and spec.gamma_tilde == 0.0
    imaginary = applies and not undamped and stiffness < 0
    band = (applies and not undamped and not imaginary and spec.omega_band
            > STATIC_BAND_LIMIT * min(math.sqrt(stiffness), k, abs(delta)))
    return {"kappa_regime": g > 0.5 * k or gm > 0.1 * k,
            "omega_m_regime": n * gm > 0.1 * wm or g > 0.5 * wm,
            "imaginary_spring": spring < 0, "undamped_band": undamped,
            "imaginary_static": imaginary, "static_band": band}


class TestRegimeFlags:
    KAPPA = "occupancy formula assumes kappa >> gamma_m, G"
    OMEGA = "occupancy formula assumes omega_m >> n*gamma_m, G"
    BAND = ("static phase-noise heating assumes the noise band far below "
            "omega_m, kappa and |delta|")

    @pytest.fixture(scope="class")
    def sample(self):
        points = _random_working_points(np.random.default_rng(20240811), 400)
        params = SystemParams.stack([p for p, _ in points])
        states = solve_steady_state(params)
        return points, params, states

    def test_approx_flags_are_the_scalar_conditions(self, sample):
        points, params, states = sample
        form = approx_n_eff(params, states)
        n_eff, flags = form.value, form.flags
        for name, mask in flags.items():
            assert mask.any() and not mask.all(), name
        for i, (p, ss) in enumerate(points):
            expected = _scalar_conditions(p, ss)
            # past an imaginary spring frequency the scalar form raised
            # before it reached the static channel's warning
            expected["static_band"] &= not expected["imaginary_spring"]
            assert {name: bool(mask[i]) for name, mask in flags.items()} == expected
            value, messages = _outcome(approx_n_eff, p, ss)
            assert (self.KAPPA in messages) == flags["kappa_regime"][i]
            assert (self.OMEGA in messages) == flags["omega_m_regime"][i]
            assert (self.BAND in messages) == flags["static_band"][i]
            if flags["imaginary_spring"][i]:
                assert value is ImaginaryFrequency
            elif flags["undamped_band"][i]:
                assert value is UnstableDrift
            elif flags["imaginary_static"][i]:
                assert value is ImaginaryFrequency
            else:
                assert value == n_eff[i]

    def test_peak_spectrum_is_phase_noise_spectrum(self, sample, monkeypatch):
        points, params, states = sample
        spectrum, seen = spectral.phase_noise_spectrum, []

        def record(spec, omega):
            out = spectrum(spec, omega)
            seen.append((omega, out))
            return out

        monkeypatch.setattr(spectral, "phase_noise_spectrum", record)
        approx_n_eff(params, states)
        (omega, s_peak), = seen
        assert np.count_nonzero(omega == omega) > 300
        for (p, _), w, s in zip(points, omega.tolist(), s_peak.tolist()):
            if w == w:  # NaN past an imaginary spring frequency
                assert s == phase_noise_spectrum(p.phase_noise, w)

    def test_static_flags_are_the_scalar_conditions(self, sample):
        points, params, states = sample
        form = static_phase_noise_heating(params, states)
        dn, flags = form.value, form.flags
        for name, mask in flags.items():
            assert mask.any() and not mask.all(), name
        for i, (p, ss) in enumerate(points):
            expected = _scalar_conditions(p, ss)
            assert {name: bool(mask[i]) for name, mask in flags.items()} == \
                {name: expected[name] for name in flags}
            value, messages = _outcome(static_phase_noise_heating, p, ss)
            assert messages == ({self.BAND} if flags["static_band"][i] else set())
            if flags["undamped_band"][i]:
                assert value is UnstableDrift
            elif flags["imaginary_static"][i]:
                assert value is ImaginaryFrequency
            else:
                assert value == dn[i]

    @pytest.mark.parametrize("width", [1e-200, 1e-20])
    def test_band_too_narrow_to_damp_is_undamped(self, width):
        # damped on paper, but the noise pair's drift abscissa reads 0.0:
        # build_model calls the point unstable, and the closed forms give
        # the oracle's verdict, alone and as one point of a stack
        p, ss = _point_with_coupling(0.06, phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, width))
        assert not build_model(p, ss).stable
        for route in (static_phase_noise_heating, approx_n_eff):
            form = route(p, ss)
            assert form.flags["undamped_band"] and math.isnan(form.value)
            with pytest.raises(UnstableDrift, match="undamped noise band"):
                form.checked()
        with pytest.raises(UnstableDrift, match="undamped noise band"):
            cm_spectral_oracle(p, ss)
        params = SystemParams.stack([p, p.with_(phase_noise=bandpass_100hz()),
                                     p.with_(phase_noise=NoiseSpec.none())])
        flags = static_phase_noise_heating(params, solve_steady_state(params)).flags
        assert flags["undamped_band"].tolist() == [True, False, False]


# the bands of the figure recipes: 0.1 and 1 kHz linewidths, band centers
# 30-140 kHz, band width half the center
RECIPE_BANDS = [NoiseSpec.bandpass(2 * math.pi * gl, 2 * math.pi * w, math.pi * w)
                for gl in (100.0, 1000.0) for w in (3e4, 5e4, 8e4, 1.4e5)]


def _taus(spec):
    """Five delays in (0, 10/gamma_l]."""
    return np.linspace(0.0, 10.0 / spec.gamma_l, 6)[1:]


class TestLaserCorrelation:
    def test_tau_zero(self):
        assert laser_correlation(bandpass_100hz(), 0.0) == 1.0
        assert laser_correlation(NoiseSpec.none(), 1e-3) == 1.0

    def test_white_matches_lorentzian_linewidth(self):
        # the Lorentzian exp(-gamma_l tau) against the spectral integral of
        # the flat S(omega)
        gl = 2 * math.pi * 100.0
        spec = NoiseSpec.white(gl)
        for tau in np.linspace(0.0, 10.0 / gl, 26):
            assert abs(laser_correlation(spec, tau)
                       - quad_laser_correlation(spec, tau)) <= 1e-8

    @pytest.mark.parametrize("spec", RECIPE_BANDS)
    def test_bandpass_matches_spectral_integral(self, spec):
        # the QUADPACK integral is itself within 2.3e-11 of the 40-digit
        # reference at these delays
        for tau in _taus(spec):
            assert abs(laser_correlation(spec, tau)
                       - quad_laser_correlation(spec, tau)) <= 1e-9

    @pytest.mark.parametrize("spec", RECIPE_BANDS + [
        NoiseSpec.bandpass(2 * math.pi * 100, 2 * math.pi * 5e4, 2 * math.pi * 500),
        NoiseSpec.bandpass(2 * math.pi * 100, 2 * math.pi * 5e4, 2 * math.pi * 5e5)])
    def test_bandpass_matches_40_digit_van_loan(self, spec):
        for tau in _taus(spec):
            assert abs(laser_correlation(spec, tau)
                       - mp_laser_correlation(spec, tau)) <= 1e-12

    @pytest.mark.parametrize("gl, band", [(100.0, 5e4), (1000.0, 8e4)])
    def test_narrow_damped_band(self, gl, band):
        # gt = 1e-3 rad/s: the phase swings through a nearly undamped
        # sinusoid, so C(tau) revives after whole periods of the band and is
        # 0 in between; the spectral integral does not converge here
        spec = NoiseSpec.bandpass(2 * math.pi * gl, 2 * math.pi * band, 1e-3)
        period = 2 * math.pi / spec.omega_band
        revivals = [laser_correlation(spec, k * period) for k in (1, 7)]
        assert min(revivals) > 0.4
        for tau in (1e-9, 3e-9, 0.5 * period, period, 7 * period, 100 * period):
            value = laser_correlation(spec, tau)
            assert math.isfinite(value)
            assert abs(value - mp_laser_correlation(spec, tau)) <= 1e-6

    @pytest.mark.parametrize("width", [0.0, 1e-20])
    def test_undamped_band_raises(self, width):
        spec = NoiseSpec.bandpass(2 * math.pi * 100, 2 * math.pi * 5e4, width)
        for tau in _taus(spec):
            with pytest.raises(UnstableDrift, match="undamped noise band"):
                laser_correlation(spec, tau)

    def test_bandpass_comparison_reported(self):
        # colored-vs-flat dephasing at equal strength: recorded, not asserted
        spec = bandpass_100hz()
        gl = spec.gamma_l
        taus = np.linspace(0.0, 10.0 / gl, 9)
        values = [laser_correlation(spec, t) for t in taus]
        assert all(0.0 < c <= 1.0 + 1e-12 for c in values)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


class TestSpectralOracle:
    def test_no_noise_reproduces_lyapunov(self):
        p, ss = _point_with_coupling(0.5)
        model = build_model(p, ss)
        v_lyap = solve_lyapunov(model.drift, model.diffusion).matrix
        v_spec = cm_spectral_oracle(p, ss).matrix
        assert relative_gap(v_spec, v_lyap) <= 1e-6

    def test_bandpass_reproduces_reduced_lyapunov(self, paper_point):
        ss = solve_steady_state(paper_point)
        model = build_model(paper_point, ss)
        v_lyap = reduce_to_optomechanical(
            solve_lyapunov(model.drift, model.diffusion)).matrix
        v_spec = cm_spectral_oracle(paper_point, ss).matrix
        assert relative_gap(v_spec, v_lyap) <= 1e-6
        e_lyap = log_negativity_of(v_lyap)
        e_spec = log_negativity_of(v_spec)
        assert abs(e_lyap - e_spec) <= 1e-6

    def test_oracle_on_other_recipe_subgrids(self):
        # kappa-axis recipe and the strongest-noise recipe, coarse subgrids
        from optomech import figure_recipe

        for fig in ("fig3b", "fig7c"):
            spec = figure_recipe(fig, grid=(3, 3))
            for x in spec.axis_x.values():
                for y in spec.axis_y.values():
                    params = spec.fixed.with_(
                        laser_power=x * 1e-3,
                        kappa=y * spec.fixed.omega_m)
                    ss = solve_steady_state(params)
                    model = build_model(params, ss)
                    if not model.stable:
                        continue
                    v_lyap = reduce_to_optomechanical(
                        solve_lyapunov(model.drift, model.diffusion))
                    v_spec = cm_spectral_oracle(params, ss)
                    assert relative_gap(v_spec.matrix, v_lyap.matrix) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(noises=st.lists(noise_specs(), min_size=1, max_size=6),
           w=hnp.arrays(float, 6, elements=st.floats(0.0, 1e12)))
    def test_spectrum_is_even(self, noises, w):
        # the oracle integrates over omega >= 0 only: S(-w) must be S(w),
        # bit for bit, for every kind, of one point and of a stack
        for spec in noises:
            assert phase_noise_spectrum(spec, -w).tobytes() == \
                phase_noise_spectrum(spec, w).tobytes()
            assert phase_noise_spectrum(spec, -w[0]) == \
                phase_noise_spectrum(spec, w[0])
        stack = SystemParams.stack(
            [make_params(phase_noise=spec) for spec in noises]).phase_noise
        w = w[:len(noises)]
        assert phase_noise_spectrum(stack, -w).tobytes() == \
            phase_noise_spectrum(stack, w).tobytes()

    def test_integral_is_real(self, paper_point):
        ss = solve_steady_state(paper_point)
        value, err = spectral._integrate_cm(
            paper_point, ss, partial(phase_noise_spectrum, paper_point.phase_noise))
        assert value.dtype == err.dtype == np.float64
        assert value.shape == err.shape == (4, 4)

    def test_resolvent_without_inverse_at_nonnegative_abscissae(
            self, paper_point, monkeypatch):
        # T(-w) is conj T(w) for the real drift: only w >= 0 is evaluated,
        # each Kronrod node once, and T is adj/det, never an inverse
        ss = solve_steady_state(paper_point)
        evaluate, make_integrand = (quadrature._evaluate_segments,
                                    spectral._resolvent_integrand)
        inv = np.linalg.inv
        counts = {"inverted": 0, "segments": 0}
        abscissae = []

        def counting_inv(a):
            counts["inverted"] += 1
            return inv(a)

        def counting_evaluate(f, lo, hi):
            counts["segments"] += lo.size
            return evaluate(f, lo, hi)

        def recording_integrand(*args):
            integrand = make_integrand(*args)

            def recorded(omega):
                abscissae.append(np.array(omega))
                return integrand(omega)

            return recorded

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(quadrature, "_evaluate_segments", counting_evaluate)
        monkeypatch.setattr(spectral, "_resolvent_integrand", recording_integrand)
        cm_spectral_oracle(paper_point, ss)
        omega = np.concatenate(abscissae)
        assert counts["segments"] > 0
        assert omega.size == 15 * counts["segments"]
        assert np.all(omega >= 0.0)
        assert counts["inverted"] == 0

    @pytest.mark.parametrize("overrides", [
        dict(phase_noise=bandpass_100hz()),
        dict(quality_factor=1e8, detuning=0.0, phase_noise=bandpass_100hz())],
        ids=["paper-point", "q1e8-resonant"])
    def test_resonances_match_40_digit_resolvent(self, overrides):
        # adj/det at each resonance and one half width to either side of it,
        # where T is worst conditioned: within 8 eps times the condition
        # max|lambda|/min|Re lambda| of the 40-digit inverse of the same
        # drift. |det|^2 expanded in w^2 fails the high-Q point.
        p = make_params(**overrides)
        ss = solve_steady_state(p)
        a4, d4 = optomechanical_block(p, ss), vacuum_diffusion(p)
        spectrum_at = partial(phase_noise_spectrum, p.phase_noise)
        lam = np.linalg.eigvals(a4)
        w = np.concatenate([np.abs(lam.imag) + k * np.abs(lam.real)
                            for k in (-1.0, 0.0, 1.0)])
        d = np.tile(d4, (w.size, 1))
        d[:, 3] += 2.0 * ss.photon_number * spectrum_at(w)
        expected = mp_resolvent_spectrum(a4, d, w)
        got = spectral._resolvent_integrand(a4, d4, ss.photon_number,
                                            spectrum_at)(w)
        cond = np.abs(lam).max() / np.abs(lam.real).min()
        gap = np.abs(got - expected).max(axis=(1, 2))
        assert np.all(gap <= 8.0 * np.finfo(float).eps * cond
                      * np.abs(expected).max(axis=(1, 2)))

    def test_resonant_detuning_reproduces_reduced_lyapunov(self, paper_point):
        # at delta_eff = 0 X is a pure source and Y a pure sink: the drift
        # has the defective double eigenvalue -kappa, which the adj/det
        # resolvent needs no eigenvectors for
        p = paper_point.with_(detuning=0.0)
        ss = solve_steady_state(p)
        assert ss.delta_eff == 0.0
        a4 = optomechanical_block(p, ss)
        assert np.all(a4[2, [0, 1, 3]] == 0.0) and np.all(a4[[0, 1, 2], 3] == 0.0)
        model = build_model(p, ss)
        v_lyap = reduce_to_optomechanical(
            solve_lyapunov(model.drift, model.diffusion)).matrix
        v_spec = cm_spectral_oracle(p, ss).matrix
        assert relative_gap(v_spec, v_lyap) <= 1e-6

    def test_undamped_band_raises(self):
        # S(omega) is infinite at the center of a band with gamma_tilde = 0
        p, ss = _point_with_coupling(0.06, phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, 0.0))
        for route in (cm_spectral_oracle, approx_cm_phase_correction):
            with pytest.raises(UnstableDrift, match="undamped noise band"):
                route(p, ss)

    @pytest.mark.parametrize("route", [cm_spectral_oracle,
                                       approx_cm_phase_correction])
    def test_band_too_narrow_to_damp_raises_quietly(self, route):
        # a band width of 1e-200 is damped on paper, but the drift abscissa
        # of the noise pair reads 0.0, as build_model sees it, and S(omega)
        # overflows at the band center: the same verdict, no warning
        p, ss = _point_with_coupling(0.06, phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, 1e-200))
        assert not build_model(p, ss).stable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableDrift, match="undamped noise band"):
                route(p, ss)

    def test_narrow_damped_band_converges(self):
        p, ss = _point_with_coupling(0.06, phase_noise=NoiseSpec.bandpass(
            2 * math.pi * 100, 2 * math.pi * 5e4, 1e-3))
        assert np.all(np.isfinite(cm_spectral_oracle(p, ss).matrix))

    @pytest.mark.parametrize("noise", [
        bandpass_100hz(), NoiseSpec.white(2 * math.pi * 100), NoiseSpec.none()],
        ids=["bandpass", "white", "none"])
    def test_integrand_is_the_model_resolvent_spectrum(self, noise):
        # the oracle's noise term is the frequency-dependent form of the
        # model's: the (dq, dp, dX, dY) block of the 6x6 model's resolvent
        # spectrum for a noise band, the 4x4 model's for flat noise
        p, ss = _point_with_coupling(0.3, phase_noise=noise)
        integrand = spectral._resolvent_integrand(
            optomechanical_block(p, ss), vacuum_diffusion(p), ss.photon_number,
            lambda w: phase_noise_spectrum(noise, w))
        model = build_model(p, ss)
        eye = np.eye(model.order)
        w = OMEGA_M * 10 ** np.random.default_rng(12).uniform(-4.0, 1.0, 200)
        expected = 0.0
        for sign in (1.0, -1.0):
            t = np.linalg.inv(1j * sign * w[:, None, None] * eye - model.drift)
            spectrum = t @ model.diffusion @ t.conj().transpose(0, 2, 1)
            expected = expected + spectrum[:, :4, :4]
        gap = np.abs(integrand(w) - expected).max(axis=(1, 2))
        assert np.all(gap <= 1e-12 * np.abs(expected).max(axis=(1, 2)))

    def test_dq_diffusion_is_refused(self, paper_point):
        # the integrand drops the dq column of sqrt(D): a dq diffusion
        # entry would be lost without a word, so it is refused instead
        ss = solve_steady_state(paper_point)
        d4 = vacuum_diffusion(paper_point).copy()
        d4[0] = 1e-3 * d4[1]
        with pytest.raises(ValueError, match="dq diffusion"):
            spectral._resolvent_integrand(
                optomechanical_block(paper_point, ss), d4, ss.photon_number,
                partial(phase_noise_spectrum, paper_point.phase_noise))

    def test_white_spectrum_makes_approximation_exact(self):
        p, ss = _point_with_coupling(
            0.5, phase_noise=NoiseSpec.white(2 * math.pi * 100))
        v_oracle = cm_spectral_oracle(p, ss).matrix
        v_approx = approx_cm_phase_correction(p, ss).matrix
        np.testing.assert_allclose(v_approx, v_oracle, rtol=1e-12, atol=1e-14)

    def test_no_noise_gives_zero_correction(self):
        p, ss = _point_with_coupling(0.5)
        v_oracle = cm_spectral_oracle(p, ss).matrix
        v_approx = approx_cm_phase_correction(p, ss).matrix
        np.testing.assert_allclose(v_approx, v_oracle, rtol=1e-12, atol=1e-14)

    def test_peak_approximation_in_weak_coupling_pocket(self):
        # the frozen-spectrum shortcut only holds where the static
        # radiation-pressure channel (fed by the low-frequency noise band)
        # is subdominant, i.e. G well below the cavity linewidth
        p, ss = _point_with_coupling(0.06, kappa=0.2 * OMEGA_M,
                                     phase_noise=bandpass_100hz())
        model = build_model(p, ss)
        v_exact = reduce_to_optomechanical(
            solve_lyapunov(model.drift, model.diffusion))
        v_approx = approx_cm_phase_correction(p, ss)
        n_exact = occupancy(v_exact, OMEGA_M).n_eff
        n_approx = occupancy(v_approx, OMEGA_M).n_eff
        assert n_approx == pytest.approx(n_exact, rel=0.10)
        e_exact = log_negativity_of(v_exact.matrix)
        e_approx = log_negativity_of(v_approx.matrix)
        assert abs(e_approx - e_exact) <= 0.01

    def test_peak_approximation_underestimates_band_noise(self):
        # with the noise band far below the resonance, freezing the spectrum
        # at omega_eff drops most of the heating, so the shortcut bounds the
        # exact entanglement from above and the exact occupancy from below
        p, ss = _point_with_coupling(0.35, kappa=0.2 * OMEGA_M,
                                     phase_noise=bandpass_100hz())
        model = build_model(p, ss)
        v_exact = reduce_to_optomechanical(
            solve_lyapunov(model.drift, model.diffusion))
        v_approx = approx_cm_phase_correction(p, ss)
        assert log_negativity_of(v_approx.matrix) >= \
            log_negativity_of(v_exact.matrix)
        assert occupancy(v_approx, OMEGA_M).n_eff <= \
            occupancy(v_exact, OMEGA_M).n_eff

    def test_quadrature_budget_error(self, paper_point, monkeypatch):
        ss = solve_steady_state(paper_point)
        monkeypatch.setattr(quadrature, "MAX_SEGMENTS", 8)
        with pytest.raises(QuadratureNotConverged) as err:
            cm_spectral_oracle(paper_point, ss)
        assert err.value.achieved_error > 0.0

    def test_unresolved_sideband_warning(self):
        p, ss = _point_with_coupling(0.3, kappa=1.5 * OMEGA_M,
                                     phase_noise=bandpass_100hz())
        with pytest.warns(UserWarning):
            approx_cm_phase_correction(p, ss)


class TestIntegrateAdaptive:
    @staticmethod
    def _counted(f):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        return counted, calls

    def test_nan_integrand_raises_at_once(self):
        f, calls = self._counted(lambda x: np.full((x.size, 1), np.nan))
        with pytest.raises(QuadratureNotConverged, match="non-finite integrand"):
            quadrature.integrate_adaptive(f, [0.0, 1.0])
        assert len(calls) == 1

    def test_infinite_at_a_kronrod_node_raises_at_once(self):
        # 0.5 is the center node of the segment [0.25, 0.75]
        def pole(x):
            out = np.full((x.size, 1), np.inf)
            np.divide(1.0, x[:, None] - 0.5, out=out, where=x[:, None] != 0.5)
            return out

        f, calls = self._counted(pole)
        with pytest.raises(QuadratureNotConverged, match="non-finite integrand"):
            quadrature.integrate_adaptive(f, [0.0, 0.25, 0.75, 1.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(), (2,), (4, 4)],
                             ids=["scalar", "pair", "matrix"])
    def test_polynomials_to_degree_13_are_exact(self, shape):
        # the 7-point Gauss rule is exact to degree 13 and the 15-point
        # Kronrod rule beyond: on every segment both weighted sums give the
        # integral, so the value is exact and the K - G estimate is zero,
        # both to rounding, in one pass and in the integrand's own shape
        poly = np.polynomial.polynomial
        coef = np.random.default_rng(25).uniform(-1.0, 1.0, (14,) + shape)
        breakpoints = [-1.5, -0.4, 0.25, 1.0, 1.5]
        f, calls = self._counted(
            lambda x: np.moveaxis(poly.polyval(x, coef), -1, 0))
        total, err = quadrature.integrate_adaptive(f, breakpoints)
        antiderivative = poly.polyint(coef)
        exact = poly.polyval(1.5, antiderivative) - poly.polyval(-1.5, antiderivative)
        # the integral over [-1.5, 1.5] of sum |c_k| |x|^k bounds every partial sum
        size = 2.0 * poly.polyval(1.5, poly.polyint(np.abs(coef)))
        rounding = 64 * np.finfo(float).eps * size
        assert np.shape(total) == np.shape(err) == shape
        assert np.all(np.abs(total - exact) <= rounding)
        assert np.all(err <= rounding)
        assert len(calls) == 1


def log_negativity_of(matrix) -> float:
    from optomech import CovarianceMatrix

    cm = CovarianceMatrix(matrix=matrix, basis=("dq", "dp", "dX", "dY"))
    return log_negativity(cm).log_negativity
