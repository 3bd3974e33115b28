import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optomech import (CovarianceMatrix, SystemParams, build_model,
                      check_physical, eta_minus_partial_transpose,
                      figure_recipe, log_negativity,
                      reduce_to_optomechanical, run_pipeline, solve_lyapunov,
                      solve_steady_state, symplectic_eigenvalues,
                      symplectic_form, thermal_occupancy)
from optomech.dynamics import FULL_BASIS, REDUCED_BASIS
from optomech.errors import SolverSingular, UnphysicalState, UnstableDrift
from optomech.lyapunov import _leading_orders

from conftest import (OMEGA_M, bandpass_100hz, grid_points, make_params,
                      mp_symplectic_eigenvalues)



def _random_stable_system(rng, n=6):
    a = rng.standard_normal((n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.5, 2.0)) * np.eye(n)
    b = rng.standard_normal((n, n))
    return a, b @ b.T


class TestClosedForms:
    def test_thermal_equilibrium(self):
        n = 12.5
        gm = 31.4
        a = np.array([[0.0, OMEGA_M], [-OMEGA_M, -gm]])
        d = np.diag([0.0, gm * (2 * n + 1)])
        v = solve_lyapunov(a, d).matrix
        np.testing.assert_allclose(v, (n + 0.5) * np.eye(2), rtol=1e-10, atol=1e-8)

    def test_empty_cavity_vacuum(self):
        k, delta = 0.5 * OMEGA_M, OMEGA_M
        a = np.array([[-k, delta], [-delta, -k]])
        d = np.diag([k, k])
        v = solve_lyapunov(a, d).matrix
        np.testing.assert_allclose(v, 0.5 * np.eye(2), rtol=1e-12, atol=1e-14)


class TestSolverContract:
    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, d = _random_stable_system(rng)
            v = solve_lyapunov(a, d).matrix
            res = np.linalg.norm(a @ v + v @ a.T + d)
            assert res <= 1e-10 * max(np.linalg.norm(d), 1.0)

    def test_unstable_drift_rejected(self):
        a = np.array([[0.1, 1.0], [-1.0, 0.05]])
        with pytest.raises(UnstableDrift):
            solve_lyapunov(a, np.eye(2))

    def test_input_validation(self):
        a = np.array([[-1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(ValueError):
            solve_lyapunov(a, np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            solve_lyapunov(a, -np.eye(2))  # not PSD

    def test_singular_system_rejected(self):
        # A = 0 with a claimed abscissa: kron(I, A) + kron(A, I) is zero
        with pytest.raises(SolverSingular, match="vectorized Lyapunov system "
                           r"is singular \(condition estimate inf\)") as err:
            solve_lyapunov(np.zeros((2, 2)), np.eye(2), abscissa=np.array([-1.0]))
        assert err.value.condition == np.inf

    @pytest.mark.filterwarnings("ignore:Input \"a\" has an eigenvalue pair")
    def test_residual_beyond_tolerance_rejected(self):
        # the Schur route perturbs A = 0 into a solution; whatever V it
        # returns, the residual A V + V A^T + D is D, of norm sqrt(2)
        with pytest.raises(SolverSingular, match=r"Lyapunov residual 1\.414e\+00 "
                           r"exceeds 1\.414e-10 \(condition estimate inf\)"):
            solve_lyapunov(np.zeros((2, 2)), np.eye(2), method="schur",
                           abscissa=np.array([-1.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_solution_rejected(self):
        # D and A V overflow: the covariance comes back NaN, alone or as
        # one member of a stack
        a = np.array([[-1.0, 1e200], [0.0, -1.0]])
        with pytest.raises(SolverSingular, match="Lyapunov residual nan"):
            solve_lyapunov(a, 1e200 * np.eye(2))
        good = np.array([[-1.0, 0.0], [0.0, -2.0]])
        with pytest.raises(SolverSingular, match="Lyapunov residual nan"):
            solve_lyapunov(np.stack([good, a]),
                           np.stack([np.eye(2), 1e200 * np.eye(2)]))

    @pytest.mark.filterwarnings("ignore:Input \"a\" has an eigenvalue pair")
    def test_overflowing_residual_terms_are_still_checked(self):
        # scipy returns V of about -1.8e47 here, so A V and the squares of
        # its Frobenius norm overflow; the check runs on scaled matrices
        a = np.array([[-1.0, 1e200], [0.0, -1.0]])
        with pytest.raises(SolverSingular, match=r"Lyapunov residual 4\.056e\+231 "
                           r"exceeds 4\.056e\+221"):
            solve_lyapunov(a, 1e200 * np.eye(2), method="schur")

    @pytest.mark.parametrize("method", ["vectorized", "schur"])
    def test_diffusion_near_the_float_range(self, method):
        # D + D^T and the residual's norms overflow; V = D/2 is exact
        v = solve_lyapunov(-np.eye(3), 1e308 * np.eye(3), method=method).matrix
        np.testing.assert_array_equal(v, 5e307 * np.eye(3))

    def test_nan_drift_with_a_given_abscissa(self):
        # rejected before the solve, whatever abscissa the caller gives
        with pytest.raises(ValueError, match="A must be finite"):
            solve_lyapunov(np.array([[np.nan, 0.0], [0.0, -1.0]]), np.eye(2),
                           abscissa=[-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_named(self, bad):
        stable = np.array([[-1.0, 0.0], [0.0, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="A must be finite"):
                solve_lyapunov(np.where(np.eye(2) == 0, bad, stable), np.eye(2))
            with pytest.raises(ValueError, match="D must be finite"):
                solve_lyapunov(stable, np.full((2, 2), bad))
            # one bad member of a stack
            with pytest.raises(ValueError, match="D must be finite"):
                solve_lyapunov(np.stack([stable, stable]),
                               np.stack([np.eye(2), np.diag([1.0, bad])]))

    @pytest.mark.parametrize("abscissa", [[-1.0, -1.0, -1.0], [], [[-1.0, -1.0]]])
    def test_one_abscissa_per_drift(self, abscissa):
        with pytest.raises(ValueError, match="one value per drift"):
            solve_lyapunov(-np.eye(2), np.eye(2), abscissa=abscissa)
        with pytest.raises(ValueError, match="one value per drift"):
            solve_lyapunov(np.stack([-np.eye(2)] * 2), np.stack([np.eye(2)] * 2),
                           abscissa=[-1.0])

    def test_nan_abscissa_is_not_hurwitz(self):
        with pytest.raises(UnstableDrift, match="max Re eigenvalue nan"):
            solve_lyapunov(np.eye(2), np.eye(2), abscissa=[np.nan])
        with pytest.raises(UnstableDrift):
            solve_lyapunov(np.stack([-np.eye(2)] * 2), np.stack([np.eye(2)] * 2),
                           abscissa=[-1.0, np.nan])

    def test_two_solver_paths_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, d = _random_stable_system(rng)
            v1 = solve_lyapunov(a, d, method="vectorized").matrix
            v2 = solve_lyapunov(a, d, method="schur").matrix
            assert np.max(np.abs(v1 - v2)) <= 1e-9 * np.max(np.abs(v1))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        a, d = _random_stable_system(rng)
        v = solve_lyapunov(a, d).matrix
        assert np.max(np.abs(v - v.T)) == 0.0


def _bandpass_model():
    p = make_params(phase_noise=bandpass_100hz())
    return build_model(p, solve_steady_state(p))


class TestBlockSplit:
    """The vectorized route splits off an autonomous trailing block."""

    def test_bandpass_model_splits_off_the_noise_pair(self):
        m = _bandpass_model()
        assert _leading_orders(m.drift[None]).tolist() == [4]
        v = solve_lyapunov(m.drift, m.diffusion).matrix
        schur = solve_lyapunov(m.drift, m.diffusion, method="schur").matrix
        assert np.max(np.abs(v - schur)) <= 1e-12 * np.max(np.abs(schur))

    def test_bandpass_model_at_zero_power_splits_off_the_noise_pair(self):
        p = make_params(phase_noise=bandpass_100hz(), laser_power=0.0)
        m = build_model(p, solve_steady_state(p))
        assert _leading_orders(m.drift[None]).tolist() == [4]

    def test_uncoupled_and_coupled_4x4_stack(self):
        # at zero power the cavity pair is autonomous and splits off; the
        # coupled point is one block. Each row keeps the bits it gets alone.
        uncoupled = make_params(laser_power=0.0)
        params = SystemParams.stack([uncoupled, make_params()])
        m = build_model(params, solve_steady_state(params))
        assert _leading_orders(m.drift).tolist() == [2, 4]
        stacked = solve_lyapunov(m.drift, m.diffusion).matrix
        schur = np.array([solve_lyapunov(a, d, method="schur").matrix
                          for a, d in zip(m.drift, m.diffusion)])
        # uncoupled, V is diag(n + 1/2, n + 1/2, 1/2, 1/2) exactly; at
        # Q = 2e6 the Schur route is itself 8e-11 of max|V| off it
        n = uncoupled.n_th
        reference = [np.diag([n + 0.5, n + 0.5, 0.5, 0.5]), schur[1]]
        for i in range(2):
            alone = solve_lyapunov(m.drift[i], m.diffusion[i]).matrix
            assert stacked[i].tobytes() == alone.tobytes()
            scale = np.max(np.abs(alone))
            assert np.max(np.abs(alone - reference[i])) <= 1e-12 * scale
            assert np.max(np.abs(alone - schur[i])) <= 1e-9 * scale

    def test_coupled_trailing_pair_is_one_block(self):
        m = _bandpass_model()
        a = m.drift.copy()
        a[4, 0] = 1e-3 * OMEGA_M  # the mechanics now drive the noise pair
        assert np.linalg.eigvals(a).real.max() < 0.0
        assert _leading_orders(a[None]).tolist() == [6]
        v = solve_lyapunov(a, m.diffusion).matrix
        schur = solve_lyapunov(a, m.diffusion, method="schur").matrix
        assert np.max(np.abs(v - schur)) <= 1e-9 * np.max(np.abs(schur))

    def test_split_takes_any_symmetric_diffusion(self):
        # D couples the noise pair to the rest; only A's block decides
        m = _bandpass_model()
        b = np.random.default_rng(37).standard_normal((6, 6))
        d = m.diffusion + np.max(m.diffusion) * (b @ b.T)
        v = solve_lyapunov(m.drift, d).matrix
        schur = solve_lyapunov(m.drift, d, method="schur").matrix
        assert np.max(np.abs(v - schur)) <= 1e-9 * np.max(np.abs(schur))

    def test_generic_drifts_are_one_block(self):
        rng = np.random.default_rng(31)
        drifts = np.array([_random_stable_system(rng)[0] for _ in range(20)])
        assert (_leading_orders(drifts) == 6).all()

    def test_order_follows_each_drift_alone(self):
        # one split point, one whole point and a diagonal one: each row of
        # the stack gets the bits it gets alone
        m = _bandpass_model()
        coupled = m.drift.copy()
        coupled[4, 0] = 1e-3 * OMEGA_M
        diagonal = -OMEGA_M * np.diag(np.arange(1.0, 7.0))
        a = np.array([m.drift, coupled, diagonal])
        d = np.array([m.diffusion] * 3)
        assert _leading_orders(a).tolist() == [4, 6, 4]
        stacked = solve_lyapunov(a, d).matrix
        for i in range(3):
            alone = solve_lyapunov(a[i], d[i]).matrix
            assert stacked[i].tobytes() == alone.tobytes()


class TestOrderStructure:
    def test_loewner_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, d1 = _random_stable_system(rng)
            extra = rng.standard_normal((6, 6))
            d2 = d1 + extra @ extra.T
            v1 = solve_lyapunov(a, d1).matrix
            v2 = solve_lyapunov(a, d2).matrix
            smallest = np.min(np.linalg.eigvalsh(v2 - v1))
            assert smallest >= -1e-10 * np.max(np.abs(v2))

    def test_noise_strength_never_decreases_variances(self, paper_point):
        ss = solve_steady_state(paper_point)
        diags = []
        for gl_hz in (0.0, 100.0, 1000.0):
            spec = bandpass_100hz()
            p = paper_point.with_(phase_noise=spec.__class__(
                kind="bandpass", gamma_l=2 * np.pi * gl_hz,
                omega_band=spec.omega_band, gamma_tilde=spec.gamma_tilde))
            m = build_model(p, ss)
            diags.append(np.diag(solve_lyapunov(m.drift, m.diffusion).matrix))
        for lo, hi in zip(diags, diags[1:]):
            assert np.all(hi >= lo - 1e-10 * np.abs(hi))

    def test_scale_covariance(self):
        rng = np.random.default_rng(23)
        a, d = _random_stable_system(rng)
        v1 = solve_lyapunov(a, d).matrix
        v3 = solve_lyapunov(a, 3.0 * d).matrix
        np.testing.assert_allclose(v3, 3.0 * v1, rtol=1e-12)


class TestRecord:
    def test_basis_follows_the_order(self):
        assert CovarianceMatrix(matrix=np.eye(4)).basis == REDUCED_BASIS
        assert CovarianceMatrix(matrix=np.eye(6)).basis == FULL_BASIS
        assert CovarianceMatrix(matrix=np.eye(2)).basis == ("x0", "x1")
        assert CovarianceMatrix(matrix=np.zeros((3, 4, 4))).basis == REDUCED_BASIS

    def test_basis_is_not_an_argument(self):
        with pytest.raises(TypeError):
            CovarianceMatrix(matrix=np.eye(4), basis=("psi",))

    @pytest.mark.parametrize("matrix", [1.0, np.ones(4), np.ones((4, 3))])
    def test_not_square_rejected(self, matrix):
        with pytest.raises(ValueError, match="square"):
            CovarianceMatrix(matrix=matrix)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_solver_and_reduction_tag_by_order(self, n):
        rng = np.random.default_rng(n)
        cov = solve_lyapunov(*_random_stable_system(rng, n))
        assert cov.basis == CovarianceMatrix(matrix=cov.matrix).basis
        if n == 6:
            assert cov.basis == FULL_BASIS
            assert reduce_to_optomechanical(cov).basis == REDUCED_BASIS


class TestReduction:
    def test_identity(self):
        v6 = CovarianceMatrix(matrix=np.eye(6))
        v4 = reduce_to_optomechanical(v6)
        np.testing.assert_array_equal(v4.matrix, np.eye(4))
        assert v4.order == 4

    def test_no_noise_reduction_equals_direct_solve(self, paper_point):
        ss = solve_steady_state(paper_point)
        p6 = paper_point.with_(phase_noise=bandpass_100hz().__class__(
            kind="bandpass", gamma_l=0.0,
            omega_band=bandpass_100hz().omega_band,
            gamma_tilde=bandpass_100hz().gamma_tilde))
        m6 = build_model(p6, ss)
        v_reduced = reduce_to_optomechanical(
            solve_lyapunov(m6.drift, m6.diffusion)).matrix
        p4 = paper_point.with_(phase_noise=paper_point.phase_noise.none())
        m4 = build_model(p4, ss)
        v_direct = solve_lyapunov(m4.drift, m4.diffusion).matrix
        np.testing.assert_allclose(v_reduced, v_direct, rtol=1e-10, atol=1e-10)

    def test_wrong_order_rejected(self):
        v4 = CovarianceMatrix(matrix=np.eye(4))
        with pytest.raises(ValueError):
            reduce_to_optomechanical(v4)

    @pytest.mark.parametrize("count", [3, 6])
    def test_stack_symmetrises_and_reduces_each_matrix(self, count):
        m = np.random.default_rng(count).standard_normal((count, 6, 6))
        v6 = CovarianceMatrix(matrix=m)
        v4 = reduce_to_optomechanical(v6)
        assert v6.order == 6 and v4.order == 4
        for i in range(count):
            symmetric = 0.5 * (m[i] + m[i].T)
            np.testing.assert_array_equal(v6.matrix[i], symmetric)
            np.testing.assert_array_equal(v4.matrix[i], symmetric[:4, :4])


class TestPhysicality:
    def test_pipeline_state_is_physical(self, paper_point):
        ss = solve_steady_state(paper_point)
        m = build_model(paper_point, ss)
        v4 = reduce_to_optomechanical(solve_lyapunov(m.drift, m.diffusion))
        check_physical(v4)
        assert np.min(symplectic_eigenvalues(v4.matrix)) >= 0.5 - 1e-9

    def test_below_vacuum_rejected(self):
        v = CovarianceMatrix(matrix=0.3 * np.eye(4))
        with pytest.raises(UnphysicalState):
            check_physical(v)

    @pytest.mark.parametrize("matrix", [
        pytest.param(np.diag([1.0, 1.0, 1.0, -1.0]), id="indefinite"),
        pytest.param(np.zeros((4, 4)), id="zero"),
        pytest.param(np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]),
                               0.5 * np.eye(4)]), id="stack-one-indefinite")])
    @pytest.mark.parametrize("measure", [check_physical, log_negativity])
    def test_not_positive_definite_rejected(self, matrix, measure):
        # no Williamson form: neither a spectrum nor an E_N, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnphysicalState, match="not positive definite"):
                measure(CovarianceMatrix(matrix=matrix))

    def test_decoupled_thermal_pipeline_value(self):
        p = make_params(laser_power=0.0)
        ss = solve_steady_state(p)
        m = build_model(p, ss)
        v = solve_lyapunov(m.drift, m.diffusion).matrix
        n = thermal_occupancy(OMEGA_M, 0.4)
        np.testing.assert_allclose(v[:2, :2], (n + 0.5) * np.eye(2),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(v[2:, 2:], 0.5 * np.eye(2),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("measure", [symplectic_eigenvalues, check_physical,
                                         log_negativity,
                                         eta_minus_partial_transpose])
    def test_non_finite_rejected(self, measure):
        cases = [np.full((4, 4), np.nan), np.diag([1.0, 1.0, np.inf, 1.0]),
                 np.stack([np.eye(4), np.diag([1.0, np.nan, 1.0, 1.0])])]
        if measure in (symplectic_eigenvalues, check_physical):
            # its spectrum was [nan], which the Heisenberg check passed
            cases.append(np.full((2, 2), np.nan))
        for matrix in cases:
            arg = matrix if measure is symplectic_eigenvalues else CovarianceMatrix(
                matrix=matrix)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UnphysicalState, match="not finite"):
                    measure(arg)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 3), (4, 2), (2, 4, 3), (0, 0)])
    def test_shape_not_2n_by_2n_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(\.\.\., 2n, 2n\)"):
            symplectic_eigenvalues(np.ones(shape))

    def test_symplectic_eigenvalues_of_squeezed_state(self):
        r = 0.7
        sq = scipy.linalg.block_diag(
            np.diag([np.exp(2 * r), np.exp(-2 * r)]) / 2, np.eye(2) / 2)
        vals = symplectic_eigenvalues(sq)
        np.testing.assert_allclose(vals, [0.5, 0.5], rtol=1e-12)


# |nu - nu_ref| <= SYMPLECTIC_TOL (2n)^2 eps max|V|: the backward errors of
# the Cholesky factor and the eigen-solve grow with the order 2n, and
# ||V||_2 <= 2n max|V|. With each nu the extended-precision Rayleigh
# quotient of its eigenvector, the worst seen over 4000 states of each kind,
# drawn by the construction below, was 0.79 (2n)^2 eps max|V| for pure
# states, where near-equal nu mix in the eigen-solve (an n x n Rayleigh-Ritz
# pencil gave 0.50 on the same draws), 0.37 for hot ones (pencil 0.50), and
# 0.0012 on the fig2b set.
SYMPLECTIC_TOL = 8.0


@st.composite
def williamson_states(draw, hot):
    """V = S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T of n = 1 to 3 modes.

    S = expm(Omega H) is symplectic for symmetric H. A pure or near-pure
    state has every nu at 1/2 or at most 1e-3 above it; a hot one has each
    nu log-uniform in [1/2, 1e8]. Symmetrised, as a CovarianceMatrix is.
    """
    n = draw(st.integers(1, 3))
    h = draw(hnp.arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    s = scipy.linalg.expm(symplectic_form(n) @ (h + h.T))
    if hot:
        nu = 0.5 * 10.0 ** draw(hnp.arrays(
            np.float64, n, elements=st.floats(0.0, math.log10(2e8))))
    else:
        nu = 0.5 + draw(hnp.arrays(
            np.float64, n, elements=st.just(0.0) | st.floats(1e-12, 1e-3)))
    v = (s * np.repeat(nu, 2)) @ s.T
    return 0.5 * (v + v.T)


def _fig2b_extremes():
    """The 12 reduced fig2b 40x40 covariances of largest max|V|."""
    _, _, ((_, model),) = run_pipeline(grid_points(figure_recipe("fig2b", (40, 40))))
    stable = model.stable
    v = reduce_to_optomechanical(solve_lyapunov(
        model.drift[stable], model.diffusion[stable],
        abscissa=model.abscissa[stable])).matrix
    return v[np.argsort(np.abs(v).max(axis=(1, 2)))[-12:]]


class TestSymplecticAccuracy:
    """The Williamson route against a 50-digit eigen-solve of i Omega V on
    the same float matrices: each nu within SYMPLECTIC_TOL (2n)^2 eps max|V|."""

    @staticmethod
    def _check(v):
        gap = np.abs(symplectic_eigenvalues(v) - mp_symplectic_eigenvalues(v))
        order = v.shape[-1]
        assert gap.max() <= (SYMPLECTIC_TOL * order ** 2 * np.finfo(float).eps
                             * np.abs(v).max())

    @settings(max_examples=25, deadline=None)
    @given(v=williamson_states(hot=False))
    def test_pure_and_near_pure_states(self, v):
        self._check(v)

    @settings(max_examples=25, deadline=None)
    @given(v=williamson_states(hot=True))
    def test_hot_states(self, v):
        self._check(v)

    def test_fig2b_extremes(self):
        extremes = _fig2b_extremes()
        assert np.abs(extremes).max() > 3e7
        for v in extremes:
            self._check(v)

    @staticmethod
    def _squeezed_pure_state(r):
        """Both modes of a pure two-mode state squeezed by r, then rotated
        by expm(0.3 Omega): every nu is 1/2 and cond(V) is about e^(4r)."""
        rot = scipy.linalg.expm(0.3 * symplectic_form(2))
        v = (rot * np.exp([2 * r, -2 * r, 2 * r, -2 * r]) / 2) @ rot.T
        return 0.5 * (v + v.T)

    def test_squeezed_state_within_double_precision(self):
        self._check(self._squeezed_pure_state(6.0))

    @pytest.mark.parametrize("r", [10.0, 15.0])
    def test_squeezed_past_double_precision_raises(self, r):
        # the Cholesky factor exists, but the spectrum it gives is wrong
        # (0.645 against 1/2 at r = 10)
        with pytest.raises(UnphysicalState, match="ill-conditioned"):
            symplectic_eigenvalues(self._squeezed_pure_state(r))
