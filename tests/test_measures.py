import math

import numpy as np
import pytest
import scipy.linalg

from optomech import (CovarianceMatrix, build_model,
                      eta_minus_partial_transpose, figure_recipe,
                      log_negativity, occupancy, reduce_to_optomechanical,
                      solve_lyapunov, solve_steady_state, symplectic_form,
                      thermal_occupancy)
from optomech.constants import HBAR
from optomech.errors import NegativeDiscriminant, UnphysicalState
from optomech.measures import _eta_minus
from optomech.sweep import run_pipeline

from conftest import (OMEGA_M, det_eta_minus, grid_points, make_params,
                      mp_eta_minus)

def _cm(matrix) -> CovarianceMatrix:
    return CovarianceMatrix(matrix=np.asarray(matrix, float))


def two_mode_squeezed(r: float) -> CovarianceMatrix:
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    top = np.hstack([c * np.eye(2), s * z])
    bottom = np.hstack([s * z, c * np.eye(2)])
    return _cm(np.vstack([top, bottom]))


def random_physical_cm(rng) -> CovarianceMatrix:
    # pure-state covariance through a random symplectic, plus PSD noise
    h = rng.standard_normal((4, 4))
    h = 0.5 * (h + h.T)
    s = scipy.linalg.expm(symplectic_form(2) @ h)
    v = 0.5 * s @ s.T
    if rng.uniform() < 0.5:
        w = 0.3 * rng.standard_normal((4, 4))
        v = v + w @ w.T
    return _cm(v)


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        result = log_negativity(_cm(0.5 * np.eye(4)))
        assert result.eta_minus == pytest.approx(0.5, rel=1e-12)
        assert result.log_negativity == 0.0
        assert not result.entangled

    def test_two_mode_squeezed_closed_form(self):
        r = 0.5
        result = log_negativity(two_mode_squeezed(r))
        assert result.eta_minus == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)
        assert result.log_negativity == pytest.approx(2 * r, rel=1e-12)
        assert result.entangled

    def test_product_state_has_no_entanglement(self):
        v = np.diag([2.0, 2.0, 0.7, 0.7])
        result = log_negativity(_cm(v))
        assert result.log_negativity == 0.0
        assert result.raw_log_negativity < 0.0

    def test_unphysical_input_rejected(self):
        with pytest.raises(UnphysicalState):
            log_negativity(_cm(0.3 * np.eye(4)))

    def test_negative_discriminant_rejected(self):
        # a spectrum and a det C whose gap term (nu+ - nu-)^2 - 4 det C is
        # negative beyond slack belong to no covariance; the symplectic check
        # rejects an indefinite matrix first, so the guard is reached directly
        with pytest.raises(NegativeDiscriminant, match=r"gap term -4\.000000e\+00"
                           r" < 0 for \(nu\+ \+ nu-\)\^2 = 1\.000000e\+00"):
            _eta_minus(np.array([[0.5, 0.5]]), np.array([1.0]))
        m = np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(UnphysicalState, match="not positive definite"):
            log_negativity(_cm(m + m.T))

    @pytest.mark.parametrize("n", [0.0, 1e-6, 1.0, 1e3, 1e9])
    def test_product_state_raw_log_negativity_is_zero(self, n):
        # diag(n + 1/2, n + 1/2, 1/2, 1/2): eta_minus is exactly 1/2
        result = log_negativity(_cm(np.diag([n + 0.5, n + 0.5, 0.5, 0.5])))
        assert abs(result.raw_log_negativity) <= 2.0 * np.finfo(float).eps
        assert result.log_negativity <= 2.0 * np.finfo(float).eps

    def test_formula_agrees_with_partial_transpose_route(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            cm = random_physical_cm(rng)
            eta_formula = log_negativity(cm).eta_minus
            eta_pt = eta_minus_partial_transpose(cm)
            assert abs(eta_formula - eta_pt) <= 1e-9 * max(1.0, eta_pt)

    def test_agrees_with_determinant_formula(self):
        # the four-determinant route, within its own accuracy on moderate
        # states
        rng = np.random.default_rng(321)
        v = np.stack([random_physical_cm(rng).matrix for _ in range(1000)])
        eta = log_negativity(_cm(v)).eta_minus
        np.testing.assert_allclose(eta, det_eta_minus(v), rtol=1e-8)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(7)
        j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(100):
            cm = random_physical_cm(rng)
            eta0 = log_negativity(cm).eta_minus
            blocks = []
            for _ in range(2):
                h = rng.standard_normal((2, 2))
                blocks.append(scipy.linalg.expm(j2 @ (h + h.T) / 2))
            s_local = scipy.linalg.block_diag(*blocks)
            transformed = _cm(s_local @ cm.matrix @ s_local.T)
            assert log_negativity(transformed).eta_minus == pytest.approx(
                eta0, abs=1e-9 * max(1.0, eta0))

    def test_local_noise_never_creates_entanglement(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            cm = random_physical_cm(rng)
            e0 = log_negativity(cm).log_negativity
            w = 0.4 * rng.standard_normal((2, 2))
            noisy = cm.matrix.copy()
            noisy[2:, 2:] += w @ w.T
            e1 = log_negativity(_cm(noisy)).log_negativity
            assert e1 <= e0 + 1e-9


def _stable_reduced(fig_id, grid):
    """The reduced covariances of the stable points of a recipe's grid."""
    _, _, models = run_pipeline(grid_points(figure_recipe(fig_id, grid)))
    stacks = []
    for _, model in models:
        stable = model.stable
        cov = solve_lyapunov(model.drift[stable], model.diffusion[stable],
                             stable=stable[stable])
        stacks.append((reduce_to_optomechanical(cov) if cov.order == 6 else cov).matrix)
    return np.concatenate(stacks)


# relative error of eta_minus against the 50-digit reference; the worst
# seen on the two grids below was 2.7e-14 (the four-determinant formula
# reaches 5.7e-11 on the fig7c one)
ETA_MINUS_RTOL = 1e-11


class TestEtaMinusPartialTranspose:
    @pytest.mark.parametrize("shape", [(2, 2), (6, 6), (3, 6, 6)])
    def test_takes_a_4x4_covariance(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            eta_minus_partial_transpose(np.eye(shape[-1]) * np.ones(shape))
        with pytest.raises(ValueError, match="4x4"):
            eta_minus_partial_transpose(CovarianceMatrix(matrix=np.ones(shape)))

    def test_one_value_per_covariance(self):
        # a stack gave one float, its minimum
        stack = np.array([0.5 * np.eye(4), 2.0 * np.eye(4)])
        assert eta_minus_partial_transpose(stack).tolist() == [0.5, 2.0]
        one = eta_minus_partial_transpose(stack[1])
        assert isinstance(one, float) and np.ndim(one) == 0 and one == 2.0


class TestEtaMinusAccuracy:
    @pytest.mark.parametrize("fig_id", ["fig2b", "fig7c"])
    def test_against_50_digit_reference(self, fig_id):
        v = _stable_reduced(fig_id, (8, 8))
        assert len(v) > 40
        eta = log_negativity(_cm(v)).eta_minus
        ref = np.array([mp_eta_minus(m) for m in v])
        assert np.max(np.abs(eta - ref) / ref) <= ETA_MINUS_RTOL


class TestOccupancy:
    def test_ground_state(self):
        occ = occupancy(_cm(0.5 * np.eye(4)), OMEGA_M)
        assert occ.n_eff == pytest.approx(0.0, abs=1e-15)
        assert occ.energy == pytest.approx(0.5 * HBAR * OMEGA_M, rel=1e-12)

    def test_thermal_state(self):
        n = 7.25
        v = np.diag([n + 0.5, n + 0.5, 0.5, 0.5])
        occ = occupancy(_cm(v), OMEGA_M)
        assert occ.n_eff == pytest.approx(n, rel=1e-12)
        assert occ.energy == pytest.approx(HBAR * OMEGA_M * (n + 0.5), rel=1e-12)

    def test_decoupled_pipeline_recovers_bath_occupancy(self):
        p = make_params(laser_power=0.0)
        ss = solve_steady_state(p)
        m = build_model(p, ss)
        v4 = solve_lyapunov(m.drift, m.diffusion)
        occ = occupancy(v4, OMEGA_M)
        assert occ.n_eff == pytest.approx(
            thermal_occupancy(OMEGA_M, 0.4), rel=1e-9)

    def test_invariant_under_optical_rotations(self):
        rng = np.random.default_rng(31)
        cm = random_physical_cm(rng)
        base = occupancy(cm, OMEGA_M).n_eff
        theta = 0.83
        rot = scipy.linalg.block_diag(
            np.eye(2), [[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
        rotated = _cm(rot @ cm.matrix @ rot.T)
        assert occupancy(rotated, OMEGA_M).n_eff == pytest.approx(base, rel=1e-12)
