import math

import numpy as np
import pytest

from optomech import (NoiseSpec, SystemParams, drive_amplitude,
                      power_for_coupling, solve_steady_state, thermal_occupancy)
from optomech.constants import HBAR, K_B
from optomech.errors import NoPhysicalRoot

from conftest import OMEGA_M, make_params

# frozen with 40-digit arithmetic from the defining formulas
N_THERMAL_04K = 832.96486542801101
E0_20MW = 2.2636489431741520e12
ALPHA_PAPER = 32223.610583944786
G_PAPER = 45571067.116443926


class TestThermalOccupancy:
    def test_zero_temperature(self):
        assert thermal_occupancy(OMEGA_M, 0.0) == 0.0

    def test_reference_value(self):
        assert thermal_occupancy(OMEGA_M, 0.4) == pytest.approx(
            N_THERMAL_04K, rel=1e-12)

    def test_log2_identity(self):
        # hbar*omega/(kB*T) = ln 2 makes the occupancy exactly one
        t = HBAR * OMEGA_M / (K_B * math.log(2.0))
        assert thermal_occupancy(OMEGA_M, t) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_omega_and_temperature(self):
        omegas = np.geomspace(1e5, 1e10, 25)
        values = [thermal_occupancy(w, 0.4) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))
        temps = np.geomspace(1e-3, 10.0, 25)
        values = [thermal_occupancy(OMEGA_M, t) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDriveAmplitude:
    def test_zero_power(self):
        assert drive_amplitude(make_params(laser_power=0.0)) == 0.0

    def test_reference_value(self):
        assert drive_amplitude(make_params()) == pytest.approx(E0_20MW, rel=1e-12)

    def test_sqrt_power_scaling(self):
        p = make_params()
        assert drive_amplitude(p.with_(laser_power=4 * p.laser_power)) == \
            pytest.approx(2.0 * drive_amplitude(p), rel=1e-12)


class TestSteadyState:
    def test_overflowing_cubic_has_no_root(self):
        # finite inputs whose drive E0^2 and kappa^2 overflow to inf: the
        # uncoupled cubic's root inf/inf is NaN
        p = make_params(g0=0.0, kappa=1e200, laser_power=1e200,
                        detuning_mode="bare")
        with np.errstate(all="ignore"), pytest.raises(
                NoPhysicalRoot, match="intensity cubic produced no admissible root"):
            solve_steady_state(p)

    def test_zero_drive(self):
        ss = solve_steady_state(make_params(laser_power=0.0, detuning_mode="bare"))
        assert ss.alpha_abs == 0.0
        assert ss.delta_eff == ss.delta_bare
        assert ss.q_static == 0.0

    def test_effective_mode_reference(self):
        ss = solve_steady_state(make_params())
        assert ss.alpha_abs == pytest.approx(ALPHA_PAPER, rel=1e-12)
        assert ss.g_eff == pytest.approx(G_PAPER, rel=1e-12)
        assert ss.delta_eff == pytest.approx(OMEGA_M, rel=1e-15)

    def test_stored_field_consistency(self):
        ss = solve_steady_state(make_params())
        e0 = drive_amplitude(make_params())
        k = make_params().kappa
        assert ss.alpha_abs == pytest.approx(
            e0 / math.hypot(k, ss.delta_eff), rel=1e-12)
        shift = make_params().g0 ** 2 * ss.photon_number / OMEGA_M
        assert ss.delta_eff == pytest.approx(ss.delta_bare - shift, rel=1e-12)

    def test_round_trip_bare_effective(self):
        for delta in (0.3 * OMEGA_M, OMEGA_M, 1.7 * OMEGA_M):
            p_eff = make_params(detuning=delta)
            ss = solve_steady_state(p_eff)
            p_bare = p_eff.with_(detuning=ss.delta_bare, detuning_mode="bare")
            back = solve_steady_state(p_bare, branch=ss.branch
                                      if ss.branch != "monostable" else "lower")
            assert back.delta_eff == pytest.approx(delta, rel=1e-10)
            assert back.photon_number == pytest.approx(ss.photon_number, rel=1e-10)

    def test_cubic_residuals_and_root_count(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = make_params(
                kappa=OMEGA_M * rng.uniform(0.1, 2.0),
                detuning=OMEGA_M * rng.uniform(0.2, 3.0),
                laser_power=10 ** rng.uniform(-4, -1),
                detuning_mode="bare",
            )
            e0_sq = drive_amplitude(p) ** 2
            ss = solve_steady_state(p)
            assert len(ss.all_roots) in (1, 2, 3)
            assert list(ss.all_roots) == sorted(ss.all_roots)
            for root in ss.all_roots:
                assert root >= 0.0
                delta = p.detuning - p.g0 ** 2 * root / OMEGA_M
                residual = abs(root * (p.kappa ** 2 + delta ** 2) - e0_sq)
                assert residual <= 1e-10 * e0_sq

    def test_monostable_bare_equals_effective_inversion(self):
        # weak drive keeps the cubic monostable
        p_eff = make_params(laser_power=1e-4)
        ss = solve_steady_state(p_eff)
        assert ss.branch in ("monostable", "lower")
        p_bare = p_eff.with_(detuning=ss.delta_bare, detuning_mode="bare")
        again = solve_steady_state(p_bare)
        assert again.photon_number == pytest.approx(ss.photon_number, rel=1e-12)

    def test_bistable_branches(self):
        # strong drive at large bare detuning gives three admissible roots
        p = make_params(detuning=2.5 * OMEGA_M, laser_power=45e-3,
                        detuning_mode="bare")
        lower = solve_steady_state(p, branch="lower")
        upper = solve_steady_state(p, branch="upper")
        middle = solve_steady_state(p, branch="middle")
        assert len(lower.all_roots) == 3
        assert lower.photon_number < middle.photon_number < upper.photon_number
        assert (lower.branch, middle.branch, upper.branch) == (
            "lower", "middle", "upper")

    def test_linear_limit_without_coupling(self):
        p = make_params(g0=0.0, detuning_mode="bare")
        ss = solve_steady_state(p)
        e0 = drive_amplitude(p)
        direct = e0 ** 2 / (p.kappa ** 2 + p.detuning ** 2)
        assert ss.photon_number == pytest.approx(direct, rel=1e-14)


class TestPowerForCoupling:
    def test_round_trip(self):
        p = make_params()
        target = 0.8 * G_PAPER
        power = power_for_coupling(p, target)
        ss = solve_steady_state(p.with_(laser_power=power))
        assert ss.g_eff == pytest.approx(target, rel=1e-12)


class TestValidation:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            make_params(omega_m=-1.0)
        with pytest.raises(ValueError):
            make_params(kappa=0.0)
        with pytest.raises(ValueError):
            make_params(laser_power=-1e-3)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec.white(-1.0)
        with pytest.raises(ValueError):
            NoiseSpec.bandpass(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec(kind="pink")

    def test_gamma_m_definition(self):
        p = make_params()
        assert p.gamma_m == p.omega_m / p.quality_factor

    @pytest.mark.parametrize("name", [
        "omega_m", "quality_factor", "kappa", "laser_wavelength", "g0",
        "laser_power", "bath_temperature", "cavity_thermal_occupancy"])
    def test_nan_fails_the_range_check(self, name):
        with pytest.raises(ValueError) as negative:
            make_params().with_(**{name: -1.0})
        stack = SystemParams.repeat(make_params(), 3)
        for change, nan in ((make_params().with_, math.nan),
                            (stack.with_, math.nan),
                            (stack.with_, [1.0, math.nan, 2.0])):
            with pytest.raises(ValueError) as err:
                change(**{name: nan})
            assert str(err.value) == str(negative.value)

    @pytest.mark.parametrize("make", [
        lambda bad: NoiseSpec.white(bad),
        lambda bad: NoiseSpec.bandpass(1.0, bad, 1.0),
        lambda bad: NoiseSpec.bandpass(1.0, 1.0, bad),
        lambda bad: thermal_occupancy(bad, 0.4),
        lambda bad: thermal_occupancy(OMEGA_M, bad)],
        ids=["gamma_l", "omega_band", "gamma_tilde", "omega", "temperature"])
    def test_nan_fails_the_noise_and_occupancy_checks(self, make):
        with pytest.raises(ValueError) as negative:
            make(-1.0)
        with pytest.raises(ValueError) as err:
            make(math.nan)
        assert str(err.value) == str(negative.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        "omega_m", "quality_factor", "kappa", "detuning", "g0", "laser_power",
        "laser_wavelength", "bath_temperature", "cavity_thermal_occupancy"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
    def test_non_finite_fails_the_range_check(self, stacked, name, bad):
        if name == "detuning":
            message = "detuning must be finite"
        else:
            with pytest.raises(ValueError) as negative:
                make_params().with_(**{name: -1.0})
            message = str(negative.value)
        if stacked:
            stack = SystemParams.repeat(make_params(), 3)
            with pytest.raises(ValueError) as column:
                stack.with_(**{name: [1.0, bad, 2.0]})
            assert str(column.value) == message
            change = stack.with_
        else:
            change = make_params().with_
        with pytest.raises(ValueError) as err:
            change(**{name: bad})
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [
        lambda bad: NoiseSpec.white(bad),
        lambda bad: NoiseSpec.bandpass(bad, 1.0, 1.0),
        lambda bad: NoiseSpec.bandpass(1.0, bad, 1.0),
        lambda bad: NoiseSpec.bandpass(1.0, 1.0, bad),
        lambda bad: thermal_occupancy(bad, 0.4),
        lambda bad: thermal_occupancy(OMEGA_M, bad)],
        ids=["white", "gamma_l", "omega_band", "gamma_tilde", "omega",
             "temperature"])
    def test_non_finite_fails_the_noise_and_occupancy_checks(self, make, bad):
        with pytest.raises(ValueError) as negative:
            make(-1.0)
        with pytest.raises(ValueError) as err:
            make(bad)
        assert str(err.value) == str(negative.value)


class TestStack:
    """A stack is a SystemParams whose fields hold one array item per point."""

    def points(self):
        return [make_params(), make_params(kappa=0.2 * OMEGA_M, detuning_mode="bare"),
                make_params(phase_noise=NoiseSpec.white(600.0)),
                make_params(phase_noise=NoiseSpec.bandpass(600.0, 3e5, 1.5e5))]

    def test_take_gives_back_each_point(self):
        points = self.points()
        stack = SystemParams.stack(points)
        assert len(stack) == 4
        for i, p in enumerate(points):
            row = stack.take([i])
            assert len(row) == 1
            for name in ("omega_m", "kappa", "detuning_mode", "laser_power"):
                assert getattr(row, name)[0] == getattr(p, name)
            for name in ("kind", "gamma_l", "omega_band", "gamma_tilde"):
                assert getattr(row.phase_noise, name)[0] == getattr(p.phase_noise, name)
            assert row.thermal_phonons()[0] == p.thermal_phonons()
            assert row.gamma_m[0] == p.gamma_m
            assert row.omega_laser[0] == p.omega_laser

    @pytest.mark.parametrize("change", [
        {"kappa": 0.0}, {"laser_power": -1e-3}, {"omega_m": -1.0},
        {"bath_temperature": -0.1}, {"detuning_mode": "sideways"}],
        ids=lambda change: next(iter(change)))
    def test_with_checks_a_stack_as_a_point(self, change):
        with pytest.raises(ValueError) as point_error:
            make_params().with_(**change)
        stack = SystemParams.repeat(make_params(), 3)
        (name, value), = change.items()
        for bad in (value, [1.0, value, 1.0] if name != "detuning_mode"
                    else ["bare", value, "bare"]):
            with pytest.raises(ValueError) as stack_error:
                stack.with_(**{name: bad})
            assert str(stack_error.value) == str(point_error.value)

    def test_with_broadcasts_a_scalar(self):
        stack = SystemParams.stack(self.points())
        changed = stack.with_(laser_power=0.03, kappa=[1.0, 2.0, 3.0, 4.0],
                              phase_noise=NoiseSpec.white(50.0))
        np.testing.assert_array_equal(changed.laser_power, [0.03] * 4)
        np.testing.assert_array_equal(changed.kappa, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(changed.phase_noise.kind, ["white"] * 4)
        np.testing.assert_array_equal(changed.phase_noise.gamma_l, [50.0] * 4)
        np.testing.assert_array_equal(changed.detuning, stack.detuning)
        np.testing.assert_array_equal(stack.laser_power, 20e-3)
