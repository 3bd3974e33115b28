import dataclasses
import math
import pickle
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optomech
from optomech import (NoiseSpec, SystemParams, default_fixed_params,
                      drive_amplitude, evaluate_point, figure_recipe,
                      power_for_coupling, solve_steady_state, thermal_occupancy)
from optomech.constants import HBAR, K_B
from optomech.errors import NoPhysicalRoot
from optomech.dynamics import _undamped_band, auxiliary_block, drift_abscissa
from optomech.parameters import (_BRANCH_TAGS, _BRANCHES, _IMAGINARY_TOL,
                                 _concatenate, _take)
from optomech.sweep import _FIGURES

from conftest import (OMEGA_M, _admissible_intensities, bandpass_100hz,
                      grid_points, make_params, mp_intensity_roots)

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

    def test_cold_bath_is_empty(self):
        # hbar*omega/(kB*T) of about 4.8e5, far past exp's range at 709.78
        omega, cold = 2.0 * math.pi * 1e9, 1e-5
        assert HBAR * omega / (K_B * cold) > 709.8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_occupancy(omega, cold) == 0.0
            values = thermal_occupancy(np.array([omega, OMEGA_M, omega]),
                                       np.array([cold, 0.4, 0.0]))
        assert values[0] == values[2] == 0.0
        assert values[1] == thermal_occupancy(OMEGA_M, 0.4)

    def test_array_matches_point_by_point(self):
        omegas = np.geomspace(1e5, 1e10, 25)
        temps = np.geomspace(1e-3, 10.0, 25)
        assert thermal_occupancy(omegas, temps).tolist() == [
            thermal_occupancy(w, t) for w, t in zip(omegas, temps)]


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

    @pytest.mark.parametrize("mode", ["bare", "effective"])
    @pytest.mark.parametrize("g0", [1e3, 0.0], ids=["coupled", "uncoupled"])
    def test_overflow_is_named(self, g0, mode):
        # kappa^2 overflows: the coupled cubic's deflated discriminant is
        # not finite; the uncoupled one's root and the effective closed form
        # inf/inf are NaN
        p = make_params(g0=g0, kappa=1e200, laser_power=1e200,
                        detuning_mode=mode)
        with np.errstate(all="ignore"), pytest.raises(
                NoPhysicalRoot, match="intensity cubic produced no admissible "
                                      "root: .* overflow the float range"):
            solve_steady_state(p)

    def test_zero_drive(self):
        ss = solve_steady_state(make_params(laser_power=0.0, detuning_mode="bare"))
        assert ss.alpha_abs == 0.0
        assert ss.delta_eff == ss.delta_bare
        assert ss.q_static == 0.0

    @pytest.mark.parametrize("mode", ["bare", "effective"])
    def test_zero_drive_is_monostable(self, mode):
        # a zero constant term: the cubic's only admissible root is I = 0
        ss = solve_steady_state(make_params(laser_power=0.0, detuning_mode=mode))
        assert ss.photon_number == 0.0
        assert ss.branch == "monostable"
        assert ss.all_roots == (0.0,)

    def test_vanishing_coupling_is_monostable(self):
        # beta^2 = (g0^2/omega_m)^2 underflows to 0: the cubic is its linear
        # term, with the uncoupled root E0^2/(kappa^2 + delta^2)
        p = make_params(g0=1e-80, detuning_mode="bare")
        ss = solve_steady_state(p)
        assert ss.branch == "monostable"
        assert ss.all_roots == (ss.photon_number,)
        assert ss.photon_number == solve_steady_state(
            p.with_(g0=0.0)).photon_number

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

    @pytest.mark.parametrize("g0, mode", [
        pytest.param(g0, mode, id=f"{mode}-{g0}" if mode == "bare" else f"{g0}")
        for mode in ("effective", "bare") for g0 in (1e-77, 1e-76, 1e-72, 1e-67)])
    def test_weak_effective_coupling_is_the_linear_limit(self, g0, mode):
        # beta^2 is nonzero, yet E0^2/beta^2 and (kappa^2 + delta^2)/beta^2
        # overflow: a companion matrix of this cubic would hold inf
        p = default_fixed_params().with_(g0=g0, detuning_mode=mode)
        beta = g0 * g0 / p.omega_m
        assert beta * beta > 0.0
        with np.errstate(over="ignore"):
            assert drive_amplitude(p) ** 2 / (beta * beta) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate_point(p)
            ss = solve_steady_state(p)
        linear = solve_steady_state(p.with_(g0=0.0)).photon_number
        assert result.error is None and result.stable
        assert result.branch == "monostable"
        assert result.photon_number == linear
        assert ss.all_roots == (linear,)


def _cubic(params):
    """The intensity-cubic columns ``solve_steady_state`` forms, formed
    independently: beta, delta0, kappa^2, kappa^2 + delta0^2 and E0^2,
    with an effective point's bare detuning delta0 = Delta + beta*I0."""
    e0_sq = drive_amplitude(params) ** 2
    beta = params.g0 * params.g0 / params.omega_m
    kappa_sq = params.kappa * params.kappa
    closed_form = e0_sq / (kappa_sq + params.detuning * params.detuning)
    delta0 = np.where(params.detuning_mode == "effective",
                      params.detuning + beta * closed_form, params.detuning)
    return np.array([beta, delta0, kappa_sq, kappa_sq + delta0 * delta0, e0_sq])


def _tags(params, roots, branch):
    """Branch tags of points whose admissible roots are the NaN-padded rows
    ``roots``: an effective point's is the position of the root nearest its
    closed form, a bare point's the one ``branch`` names among three."""
    count = (roots == roots).sum(axis=1)
    closed_form = (drive_amplitude(params) ** 2
                   / (params.kappa ** 2 + params.detuning ** 2))
    nearest = np.fmin(np.abs(roots - closed_form[:, None]), np.inf).argmin(axis=1)
    idx = np.where(params.detuning_mode == "effective", nearest,
                   (count == 3) * _BRANCHES.index(branch))
    return _BRANCH_TAGS[(count > 1) * (idx + 1)]


def _companion_route(params, branch="lower"):
    """Branch tags and admissible-root counts by the companion route, on
    the cubic ``solve_steady_state`` forms."""
    cubic = _cubic(params)
    roots = _admissible_intensities(cubic)
    return _tags(params, roots, branch), (roots == roots).sum(axis=1), cubic


def _effective_point(kappa, delta, g0, shift):
    """A coupled effective-detuning point whose Kerr shift beta*I0 is ``shift``."""
    p = make_params(kappa=kappa, detuning=delta, g0=g0)
    intensity = shift * p.omega_m / (g0 * g0)
    return p.with_(laser_power=intensity * (kappa ** 2 + delta ** 2) * HBAR
                   * p.omega_laser / (2.0 * kappa))


def _bare_point(kappa, delta0, g0, drive):
    """A coupled bare-detuning point whose beta E0^2 is ``drive``."""
    p = make_params(kappa=kappa, detuning=delta0, g0=g0, detuning_mode="bare")
    e0_sq = drive * p.omega_m / (g0 * g0)
    return p.with_(laser_power=e0_sq * HBAR * p.omega_laser / (2.0 * kappa))


def _bare_fold(kappa, delta0, sign):
    """beta E0^2 at a fold R^2 = Q^3 of the effective-detuning cubic,
    the lower one for ``sign`` -1, the upper one for +1; they meet at the
    cusp delta0^2 = 3 kappa^2."""
    return (2.0 * delta0 ** 3 + 18.0 * delta0 * kappa ** 2
            + sign * 2.0 * (delta0 ** 2 - 3.0 * kappa ** 2) ** 1.5) / 27.0


@st.composite
def steady_points(draw):
    """Coupled, driven points of either detuning mode. Half the effective
    ones are within a relative 1e-6 to 0.1 of the fold where the two roots
    beside the closed-form one merge, half the bare ones within that of a
    fold R^2 = Q^3 of their effective-detuning cubic."""
    kappa = OMEGA_M * draw(st.floats(0.02, 2.0))
    g0 = 10.0 ** draw(st.floats(1.0, 4.0))
    offset = (1.0 + draw(st.sampled_from((-1.0, 1.0)))
              * 10.0 ** draw(st.floats(-6.0, -1.0)))
    near_fold = draw(st.booleans())
    if draw(st.booleans()):
        delta = OMEGA_M * draw(st.floats(0.05, 3.0))
        if near_fold:
            # the deflated discriminant vanishes where the shift x = beta*I0
            # solves x^2 + 4 delta x - 4 kappa^2 = 0
            return _effective_point(kappa, delta, g0, 2.0 * (
                math.hypot(delta, kappa) - delta) * offset)
        return make_params(kappa=kappa, detuning=delta, g0=g0,
                           laser_power=10.0 ** draw(st.floats(-5.0, -0.5)))
    if near_fold:
        delta0 = math.sqrt(3.0) * kappa * draw(st.floats(1.01, 10.0))
        return _bare_point(kappa, delta0, g0, _bare_fold(
            kappa, delta0, draw(st.sampled_from((-1.0, 1.0)))) * offset)
    return make_params(kappa=kappa, detuning=OMEGA_M * draw(st.floats(0.05, 3.0)),
                       g0=g0, laser_power=10.0 ** draw(st.floats(-5.0, -0.5)),
                       detuning_mode="bare")


class TestDeflatedCubic:
    """Every coupled point deflates its cubic by the root it knows in closed
    form; the companion route of ``conftest`` is the float reference."""

    def test_recipes_match_the_companion_route(self):
        # all 24 recipes at 80x80: 153600 points, 44682 not monostable
        bistable = 0
        for fig_id in [f"{fig}{letter}" for fig in _FIGURES for letter in "abc"]:
            params = grid_points(figure_recipe(fig_id))
            ss = solve_steady_state(params)
            tags, count, (beta, delta0, kappa_sq, _, e0_sq) = _companion_route(params)
            assert ss.branch.tolist() == tags.tolist(), fig_id
            np.testing.assert_array_equal((ss.all_roots == ss.all_roots).sum(axis=1), count)
            roots = ss.all_roots
            residual = np.abs(roots * (kappa_sq[:, None] + (
                delta0[:, None] - beta[:, None] * roots) ** 2) - e0_sq[:, None])
            assert np.nanmax(residual / e0_sq[:, None]) <= 1e-10, fig_id
            bistable += np.count_nonzero(count > 1)
        assert bistable == 44682

    def test_pair_within_the_imaginary_tolerance_is_real(self):
        # a sub-photon working point 1e-9 from the fold: the deflated
        # discriminant rounds below zero, the imaginary part it implies is
        # within the tolerance the companion route admits a root under, and
        # both routes find three roots
        p = make_params(kappa=4186492.3809975698, detuning=116605358.39441873,
                        g0=796496490.7603923, laser_power=5.934200793405822e-15)
        params = SystemParams.stack([p])
        tags, count, (beta, delta0, _, linear, _) = _companion_route(params)
        known = solve_steady_state(params).photon_number
        q2 = beta * beta
        q1 = -2.0 * delta0 * beta + q2 * known
        assert q1 * q1 - 4.0 * q2 * (linear + q1 * known) < 0.0
        ss = solve_steady_state(p)
        assert len(ss.all_roots) == count[0] == 3
        assert ss.branch == tags[0] == "lower"

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(steady_points(), min_size=1, max_size=8),
           branch=st.sampled_from(_BRANCHES))
    def test_random_points_match_the_companion_route(self, points, branch):
        params = SystemParams.stack(points)
        ss = solve_steady_state(params, branch)
        tags, count, _ = _companion_route(params, branch)
        assert ss.branch.tolist() == tags.tolist()
        np.testing.assert_array_equal((ss.all_roots == ss.all_roots).sum(axis=1), count)


def _fold_and_cusp_points():
    """Coupled points of both detuning modes at relative offsets of 1e-2 to
    1e-8 from a fold and from the cusp of their intensity cubic."""
    offsets = [sign * 10.0 ** -e for e in (2, 4, 6, 8) for sign in (-1.0, 1.0)]
    points = []
    for kappa, delta, g0 in ((0.3, 2.0, 1e3), (0.05, 0.5, 30.0)):
        kappa, delta = kappa * OMEGA_M, delta * OMEGA_M
        for e in offsets:
            points += [_bare_point(kappa, delta, g0, _bare_fold(kappa, delta, sign)
                                   * (1.0 + e)) for sign in (-1.0, 1.0)]
            # the cusp: a triple root Delta = delta0/3 at R = Q = 0
            cusp = math.sqrt(3.0) * kappa * (1.0 + e)
            points.append(_bare_point(kappa, cusp, g0, (
                2.0 * cusp ** 3 + 18.0 * cusp * kappa ** 2) / 27.0))
            # the two other roots merge where the shift x = beta*I0 solves
            # x^2 + 4 Delta x - 4 kappa^2 = 0; I0 meets one of them where
            # x = (Delta^2 + kappa^2)/(2 Delta), and an offset e of x there
            # is one of about e^2 from a fold; both at kappa^2 = 3 Delta^2
            delta_eff = delta / 3.0
            points += [
                _effective_point(kappa, delta_eff, g0, 2.0 * (1.0 + e) * (
                    math.hypot(delta_eff, kappa) - delta_eff)),
                _effective_point(kappa, delta_eff, g0, (
                    delta_eff ** 2 + kappa ** 2) / (2.0 * delta_eff)
                    * (1.0 + math.copysign(math.sqrt(abs(e)), e)))]
            points.append(_effective_point(math.sqrt(3.0) * delta_eff * (1.0 + e),
                                           delta_eff, g0, 2.0 * delta_eff))
    return SystemParams.stack(points)


def _root_condition(cubic, roots):
    """Relative condition number of each root of each point's intensity
    cubic: sum_k |a_k| r^k / (r |p'(r)|), the relative change of r per
    relative change of the coefficients a_k (Wilkinson)."""
    beta, delta0, _, linear, e0_sq = (c[:, None] for c in cubic)
    size = (beta * beta * roots + 2.0 * np.abs(delta0) * beta) * roots ** 2 \
        + linear * roots + e0_sq
    slope = (3.0 * beta * beta * roots - 4.0 * delta0 * beta) * roots + linear
    return size / (roots * np.abs(slope))


# Each intensity within ROOT_TOL eps cond I of the reference root I: cond
# is the root's own condition number for the working point, whose closed
# form is its one rounding-level step; the worst condition number among a
# point's roots for every admissible root, since deflating by a known root
# passes that root's error on. The worst seen on the fold and cusp set was
# 0.58 (working point) and 3.0 (any root): at most 1.6e-8 relative, at 1e-8
# from the cusp, where cond reaches 5.3e8.
ROOT_TOL = 8.0


class TestIntensityReference:
    """The intensity cubic's roots against a 60-digit ``polyroots``."""

    def test_folds_and_cusp_match_60_digit_roots(self):
        params = _fold_and_cusp_points()
        cubic = _cubic(params)
        reference = mp_intensity_roots(cubic)
        count = np.array([len(r) for r in reference])
        ref = np.array([r + [math.nan] * (3 - len(r)) for r in reference])
        assert np.count_nonzero(count == 3) > len(count) // 3
        cond = _root_condition(cubic, ref)
        scale = ROOT_TOL * np.finfo(float).eps
        for branch in _BRANCHES:
            ss = solve_steady_state(params, branch)
            np.testing.assert_array_equal(
                (ss.all_roots == ss.all_roots).sum(axis=1), count)
            tags = _tags(params, ref, branch)
            assert ss.branch.tolist() == tags.tolist()
            err = np.abs(ss.all_roots - ref)
            admitted = ref == ref
            assert (err <= scale * np.nanmax(cond, axis=1)[:, None] * ref)[admitted].all()
            # the working point is the root its tag names
            idx = [_BRANCHES.index(t) if t in _BRANCHES else 0 for t in tags]
            rows = np.arange(len(ref))
            assert (np.abs(ss.photon_number - ref[rows, idx])
                    <= scale * cond[rows, idx] * ref[rows, idx]).all(), branch

    def test_far_detuned_working_points_are_exact_to_rounding(self):
        # bare detuning delta0 of 10 to 1000 kappa with an effective one
        # Delta of 0.1 to 10 kappa: the closed form loses about
        # eps delta0/kappa, and its Newton step leaves the error relative to
        # sqrt(kappa^2 + Delta^2); without the step it reached 1.7e4 eps
        rng = np.random.default_rng(5)
        points = []
        for _ in range(24):
            kappa = OMEGA_M * 10.0 ** rng.uniform(-2.0, 0.0)
            delta0 = kappa * 10.0 ** rng.uniform(1.0, 3.0)
            delta = kappa * 10.0 ** rng.uniform(-1.0, 1.0) * rng.choice([-1.0, 1.0])
            points.append(_bare_point(kappa, delta0, 1e3, (delta0 - delta) * (
                kappa ** 2 + delta ** 2)))
        params = SystemParams.stack(points)
        reference = mp_intensity_roots(_cubic(params))
        assert sum(len(r) == 3 for r in reference) > 12
        for i, branch in enumerate(_BRANCHES):
            ss = solve_steady_state(params, branch)
            chosen = [r[i if len(r) == 3 else 0] for r in reference]
            # the worst seen was 2.0 eps
            np.testing.assert_allclose(ss.photon_number, chosen,
                                       rtol=4.0 * np.finfo(float).eps, atol=0.0)

    def test_exact_fold_takes_the_named_branch(self):
        # a bare point at a fold: its effective-detuning cubic has one real
        # root by R^2 >= Q^3, yet the intensity cubic's double root is a
        # complex pair within the imaginary tolerance, so three roots are
        # admitted and each branch gets the root it names
        p = make_params(kappa=28995052.510445688, detuning=94844360.0387094,
                        g0=1598.5692484572662, laser_power=0.008087250395447295,
                        detuning_mode="bare")
        cubic = _cubic(SystemParams.stack([p]))
        beta, delta0, kappa_sq, _, e0_sq = cubic[:, 0]
        q = (delta0 * delta0 - 3.0 * kappa_sq) / 9.0
        r = (27.0 * beta * e0_sq - 2.0 * delta0 ** 3 - 18.0 * delta0 * kappa_sq) / 54.0
        assert r * r >= q * q * q
        assert len(mp_intensity_roots(cubic)[0]) == 1
        reference = mp_intensity_roots(cubic, _IMAGINARY_TOL)[0]
        assert len(reference) == 3
        for i, branch in enumerate(_BRANCHES):
            ss = solve_steady_state(p, branch)
            assert len(ss.all_roots) == 3
            assert ss.branch == branch
            assert ss.photon_number == ss.all_roots[i]
            # floats fix a double root to about sqrt(eps)
            assert ss.photon_number == pytest.approx(reference[i], rel=1e-7)


class TestPowerForCoupling:
    def test_round_trip(self):
        p = make_params()
        target = 0.8 * G_PAPER
        power = power_for_coupling(p, target)
        ss = solve_steady_state(p.with_(laser_power=power))
        assert ss.g_eff == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("target", [-1e6, -1e-300, math.nan, math.inf,
                                        np.array([1e6, -1e6])])
    def test_target_must_be_finite_and_nonnegative(self, target):
        # a negative target gave the power of +|target|, a NaN one NaN
        with pytest.raises(ValueError, match="finite g_target >= 0"):
            power_for_coupling(SystemParams.repeat(make_params(), 2)
                               if np.ndim(target) else make_params(), target)


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
        lambda bad: NoiseSpec("white", 1.0, omega_band=bad),
        lambda bad: NoiseSpec("white", 1.0, gamma_tilde=bad),
        lambda bad: NoiseSpec("none", omega_band=bad),
        lambda bad: NoiseSpec("none", gamma_tilde=bad),
        lambda bad: thermal_occupancy(bad, 0.4),
        lambda bad: thermal_occupancy(OMEGA_M, bad)],
        ids=["gamma_l", "omega_band", "gamma_tilde", "white-omega_band",
             "white-gamma_tilde", "none-omega_band", "none-gamma_tilde", "omega",
             "temperature"])
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

    def test_stack_of_a_stack_refused(self):
        # reshaping the (1, 14, N) rows of a stacked record scrambled its
        # fields across the record; a point beside a stack met numpy's
        # inhomogeneous-shape error
        stack = SystemParams.stack(self.points())
        for items in ([stack], [self.points()[0], stack]):
            with pytest.raises(ValueError, match="SystemParams.stack takes points"):
                SystemParams.stack(items)

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
            assert row.n_th[0] == p.n_th
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


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_carried(params):
    """The derived values of a point or a stack are, to the bit, the ones
    its fields give."""
    assert _bits(params.n_th) == _bits(
        thermal_occupancy(params.omega_m, params.bath_temperature))
    spec = params.phase_noise
    band = spec.kind == "bandpass"
    expected = np.full(np.shape(band), np.nan)
    if np.any(band):
        banded = spec if np.all(band) else _take(spec, band)
        expected[band] = drift_abscissa(auxiliary_block(banded)[0])
    assert _bits(spec.pair_abscissa) == _bits(expected)


# band widths, rad/s, at and near the edge of damping at a 50 kHz center
_EDGE_WIDTHS = (0.0, 1e-200, 1e-20, 1e-3)

_bands = st.builds(
    NoiseSpec.bandpass, st.floats(0.0, 1e5), st.floats(1.0, 1e8),
    st.sampled_from(_EDGE_WIDTHS) | st.floats(0.0, 1e8))


class TestCarriedValues:
    """Each record takes its bath phonon number and its noise pair's
    abscissa when it is made, and every way of making one keeps them."""

    @settings(max_examples=60, deadline=None)
    @given(band=_bands, omega=st.floats(1e3, 1e9),
           temperature=st.floats(0.0, 300.0) | st.just(1e-8))
    def test_every_record_carries_the_values_of_its_fields(self, band, omega,
                                                           temperature):
        points = [make_params(omega_m=omega, bath_temperature=temperature,
                              phase_noise=band),
                  make_params(phase_noise=NoiseSpec.white(600.0)),
                  make_params(bath_temperature=0.0),
                  make_params(phase_noise=bandpass_100hz())]
        stack = SystemParams.stack(points)
        records = [*points, stack, stack.take([3, 0, 0]), stack.take([0]),
                   SystemParams.repeat(points[0], 3),
                   _concatenate([stack, stack.take([2, 0])]),
                   dataclasses.replace(points[1], phase_noise=band),
                   points[0].with_(omega_m=2.0 * omega, bath_temperature=0.5),
                   # a stack's with_ takes n_th again, never keeps a stale one
                   stack.with_(omega_m=2.0 * stack.omega_m),
                   stack.with_(bath_temperature=[0.1, temperature, 4.0, 0.0]),
                   stack.with_(phase_noise=band, omega_m=3e6),
                   pickle.loads(pickle.dumps(stack))]
        for record in records:
            _assert_carried(record)

    @pytest.mark.parametrize("width", _EDGE_WIDTHS)
    def test_edge_widths(self, width):
        spec = NoiseSpec.bandpass(2.0 * math.pi * 100.0, 2.0 * math.pi * 5e4, width)
        _assert_carried(make_params(phase_noise=spec))
        _assert_carried(SystemParams.repeat(make_params(phase_noise=spec), 2))
        # only the widest of them damps the noise pair
        assert _undamped_band(spec) == (width != 1e-3)

    def test_fields_and_documents_are_unchanged(self):
        p = make_params(phase_noise=bandpass_100hz())
        assert list(dataclasses.asdict(p)) == [
            "omega_m", "quality_factor", "kappa", "detuning", "g0",
            "laser_power", "laser_wavelength", "bath_temperature",
            "phase_noise", "cavity_thermal_occupancy", "detuning_mode"]
        assert list(dataclasses.asdict(p.phase_noise)) == [
            "kind", "gamma_l", "omega_band", "gamma_tilde"]
        assert list(dataclasses.asdict(p)["phase_noise"]) == [
            "kind", "gamma_l", "omega_band", "gamma_tilde"]
        assert "n_th" not in repr(p) and "pair_abscissa" not in repr(p)
        assert p == make_params(phase_noise=bandpass_100hz())


# one value, or one per point of TestStack.points, for each drawn field
_PER_POINT = {
    "omega_m": st.floats(1e3, 1e9), "quality_factor": st.floats(1.0, 1e8),
    "kappa": st.floats(1e3, 1e9), "detuning": st.floats(-1e9, 1e9),
    "g0": st.floats(0.0, 1e5), "laser_power": st.floats(0.0, 1.0),
    "laser_wavelength": st.floats(1e-7, 1e-5),
    "bath_temperature": st.floats(0.0, 300.0) | st.just(1e-8),
    "cavity_thermal_occupancy": st.floats(0.0, 10.0),
    "detuning_mode": st.sampled_from(("effective", "bare"))}
_changes = st.fixed_dictionaries({}, optional={
    **{name: values | st.lists(values, min_size=4, max_size=4)
       for name, values in _PER_POINT.items()},
    "phase_noise": _bands | st.builds(NoiseSpec.white, st.floats(0.0, 1e5))
    | st.just(NoiseSpec.none())})


class TestWith:
    """``with_`` is one path for a point and a stack: a stack broadcasts
    each new value over its points, then both are replaced alike."""

    @settings(max_examples=60, deadline=None)
    @given(changes=_changes)
    def test_a_stack_changes_as_each_of_its_points(self, changes):
        points = TestStack().points()
        changed = SystemParams.stack(points).with_(**changes)
        expected = SystemParams.stack([
            p.with_(**{name: value[i] if isinstance(value, list) else value
                       for name, value in changes.items()})
            for i, p in enumerate(points)])
        for name in [f.name for f in dataclasses.fields(SystemParams)
                     if f.name not in ("phase_noise", "detuning_mode")] + ["n_th"]:
            assert _bits(getattr(changed, name)) == _bits(getattr(expected, name)), name
        np.testing.assert_array_equal(changed.detuning_mode, expected.detuning_mode)
        np.testing.assert_array_equal(changed.phase_noise.kind,
                                      expected.phase_noise.kind)
        for name in ("gamma_l", "omega_band", "gamma_tilde", "pair_abscissa"):
            assert _bits(getattr(changed.phase_noise, name)) == _bits(
                getattr(expected.phase_noise, name)), name

    @pytest.mark.parametrize("name", ["kapa", "n_th", "pair_abscissa"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["point", "stack"])
    def test_a_name_that_is_not_a_field_fails(self, stacked, name):
        params = make_params()
        if stacked:
            params = SystemParams.repeat(params, 2)
        with pytest.raises(TypeError, match=name):
            params.with_(**{name: 1.0})


def test_package_exports_no_module():
    # ``from optomech import *`` binds the public functions, classes and
    # constants, not the submodules that define them
    assert not [name for name in optomech.__all__
                if isinstance(getattr(optomech, name), types.ModuleType)]
    assert {"solve_lyapunov", "SystemParams", "HBAR"} <= set(optomech.__all__)
