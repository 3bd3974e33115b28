import math

import numpy as np
import pytest
import scipy.linalg

from optomech import (CovarianceMatrix, build_model,
                      eta_minus_partial_transpose, log_negativity, occupancy,
                      solve_lyapunov, solve_steady_state, symplectic_form,
                      thermal_occupancy)
from optomech.constants import HBAR
from optomech.errors import NegativeDiscriminant, UnphysicalState
from optomech.measures import _eta_minus_formula

from conftest import OMEGA_M, make_params

BASIS4 = ("dq", "dp", "dX", "dY")


def _cm(matrix) -> CovarianceMatrix:
    return CovarianceMatrix(matrix=np.asarray(matrix, float), basis=BASIS4)


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
        # an indefinite symmetric matrix has Sigma^2 < 4 det V; the symplectic
        # check rejects it first, so the formula's guard is reached directly
        m = np.random.default_rng(0).standard_normal((4, 4))
        with pytest.raises(NegativeDiscriminant, match=r"discriminant -7\.081231e\+00"
                           r" < 0 for sigma\^2 = 9\.885556e-04"):
            _eta_minus_formula((m + m.T)[None])
        with pytest.raises(UnphysicalState, match="not positive definite"):
            log_negativity(_cm(m + m.T))

    def test_formula_agrees_with_partial_transpose_route(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            cm = random_physical_cm(rng)
            eta_formula = log_negativity(cm).eta_minus
            eta_pt = eta_minus_partial_transpose(cm)
            assert abs(eta_formula - eta_pt) <= 1e-9 * max(1.0, eta_pt)

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
