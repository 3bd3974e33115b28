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
from optomech import lyapunov
from optomech.lyapunov import (_condition, _residual, _split,
                               _sylvester_operator, _symmetric_operator,
                               _triangle_index)

from conftest import (OMEGA_M, bandpass_100hz, grid_points, make_params,
                      mp_lyapunov, mp_symplectic_eigenvalues)



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

    @pytest.mark.parametrize("low, physical", [(-0.5e-12, True), (-2e-12, False)])
    def test_diagonal_and_full_diffusion_share_the_psd_verdict(self, low, physical):
        # a diagonal D is checked by its diagonal, any other by eigvalsh of
        # its symmetric part: the same verdict on the same spectrum
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        for d in (np.diag([1.0, low]), rot @ np.diag([1.0, low]) @ rot.T):
            if physical:
                solve_lyapunov(-np.eye(2), d)
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    solve_lyapunov(-np.eye(2), d)

    def test_singular_system_rejected(self):
        # A = 0 with a claimed verdict: kron(I, A) + kron(A, I) is zero
        with pytest.raises(SolverSingular, match="vectorized Lyapunov system "
                           r"is singular \(condition estimate inf\)") as err:
            solve_lyapunov(np.zeros((2, 2)), np.eye(2), stable=np.array([True]))
        assert err.value.condition == np.inf

    @pytest.mark.filterwarnings("ignore:Input \"a\" has an eigenvalue pair")
    def test_residual_beyond_tolerance_rejected(self):
        # the Schur route perturbs A = 0 into a solution; whatever V it
        # returns, the residual A V + V A^T + D is D, of norm sqrt(2)
        with pytest.raises(SolverSingular, match=r"Lyapunov residual 1\.414e\+00 "
                           r"exceeds 1\.414e-10 \(condition estimate inf\)"):
            solve_lyapunov(np.zeros((2, 2)), np.eye(2), method="schur",
                           stable=np.array([True]))

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
        # rejected before the solve, whatever verdict the caller gives
        with pytest.raises(ValueError, match="A must be finite"):
            solve_lyapunov(np.array([[np.nan, 0.0], [0.0, -1.0]]), np.eye(2),
                           stable=[True])

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

    @pytest.mark.parametrize("stable", [[True, True, True], [], [[True, True]]])
    def test_one_verdict_per_drift(self, stable):
        with pytest.raises(ValueError, match="one bool per drift"):
            solve_lyapunov(-np.eye(2), np.eye(2), stable=stable)
        with pytest.raises(ValueError, match="one bool per drift"):
            solve_lyapunov(np.stack([-np.eye(2)] * 2), np.stack([np.eye(2)] * 2),
                           stable=[True])

    def test_nan_abscissa_is_not_hurwitz(self):
        # an abscissa in place of the verdict is refused, NaN included,
        # which as a bool would read True
        for value in ([np.nan], [-1.0]):
            with pytest.raises(ValueError, match="one bool per drift"):
                solve_lyapunov(-np.eye(2), np.eye(2), stable=value)

    def test_a_false_verdict_names_the_drifts_eigenvalues(self):
        # the message is worded from the refused drift's own eigenvalues: a
        # False verdict on a Hurwitz drift reports its negative abscissa, and
        # without the keyword the first drift that is not Hurwitz is named
        with pytest.raises(UnstableDrift, match=r"max Re eigenvalue -1\.000e\+00"):
            solve_lyapunov(-np.eye(2), np.eye(2), stable=[False])
        with pytest.raises(UnstableDrift, match=r"max Re eigenvalue 5\.000e-02"):
            solve_lyapunov(np.stack([-np.eye(2), np.diag([-1.0, 0.05])]),
                           np.stack([np.eye(2)] * 2))

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


def _broadcast_operator(a, b):
    """kron(I, A) + kron(B, I) of each pair of (N, m, m) and (N, p, p) stacks,
    by two broadcasts: the reference for the gathered operator."""
    count, m, _ = a.shape
    p = b.shape[-1]
    # axes (point, i, k, j, l) address row i*m + k, column j*m + l
    system = (np.eye(p)[:, None, :, None] * a[:, None, :, None, :]
              + b[:, :, None, :, None] * np.eye(m)[:, None, :])
    return system.reshape(count, m * p, m * p)


class TestSylvesterOperator:
    @pytest.mark.parametrize("m, p", [(6, 2), (4, 4), (6, 6), (2, 6), (1, 3), (3, 1)])
    def test_gather_is_the_broadcast_bit_for_bit(self, m, p):
        # signed zeros included: 0 A_kl + B_ij 0 is -0 only where both
        # factors are negative, and A_kl + 0 B_ii is +0 for A_kl = -0 and
        # B_ii > 0, so one shared zero in the row would not do
        rng = np.random.default_rng(10 * m + p)
        a, b = _random_drifts(rng, 64, m), _random_drifts(rng, 64, p)
        assert np.signbit(a[a == 0.0]).any() and not np.signbit(a[a == 0.0]).all()
        found, expected = _sylvester_operator(a, b), _broadcast_operator(a, b)
        assert np.signbit(expected[expected == 0.0]).any()
        assert found.shape == expected.shape
        assert found.tobytes() == expected.tobytes()

    def test_gather_on_the_drifts_of_a_grid(self):
        _, _, ((_, model),) = run_pipeline(grid_points(figure_recipe("fig2b", (12, 12))))
        a = model.drift
        # the pairs of one dense solve and of the split's two solves
        for lead, trail in ((a, a), (a, a[:, 4:, 4:]), (a[:, :4, :4], a[:, :4, :4])):
            assert (_sylvester_operator(lead, trail).tobytes()
                    == _broadcast_operator(lead, trail).tobytes())


def _vech_pairs(n):
    """The lower-triangle entries (i, j), i >= j, column by column (vech)."""
    return [(i, j) for j in range(n) for i in range(j, n)]


def _folded_operator(a):
    """E (kron(I, A) + kron(A, I)) D_n of each drift of an (N, n, n) stack.

    The reference for the gathered symmetric operator: E keeps the rows of
    the lower-triangle entries and the duplication matrix D_n sums the
    columns of (i, j) and (j, i), on the column-stacked V of
    ``_broadcast_operator`` (V_ij at j n + i).
    """
    n = a.shape[-1]
    pairs = _vech_pairs(n)
    duplication = np.zeros((n * n, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        duplication[[j * n + i, i * n + j], col] = 1.0
    return _broadcast_operator(a, a)[:, [j * n + i for i, j in pairs]] @ duplication


def _random_drifts(rng, count, n):
    """Gaussian (count, n, n) drifts with 40% zeros of either sign."""
    x = rng.standard_normal((count, n, n))
    x[rng.random(x.shape) < 0.4] = 0.0
    return np.where(rng.random(x.shape) < 0.5, -x, x)


def _fig2b_drifts(grid=(12, 12)):
    """The drifts and diffusions of the stable fig2b points of a grid."""
    _, _, ((_, model),) = run_pipeline(grid_points(figure_recipe("fig2b", grid)))
    stable = model.stable
    return model.drift[stable], model.diffusion[stable]


class TestSymmetricOperator:
    """The map V -> A V + V A^T on the lower-triangle unknowns of V."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_gather_is_the_folded_kronecker_operator(self, n):
        # equal values: every entry is the sum of at most two entries of A,
        # in either order; a zero's sign may differ
        a = _random_drifts(np.random.default_rng(n), 64, n)
        assert np.array_equal(_symmetric_operator(a), _folded_operator(a))

    def test_gather_on_the_drifts_of_a_grid(self):
        a, _ = _fig2b_drifts()
        for block in (a, a[:, 4:, 4:], a[:, :4, :4]):
            assert np.array_equal(_symmetric_operator(block), _folded_operator(block))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_triangle_index_is_vech(self, n):
        lower, full = _triangle_index(n)
        assert lower.ravel().tolist() == [i * n + j for i, j in _vech_pairs(n)]
        v = np.arange(n * n, dtype=float).reshape(n, n)
        v += v.T
        assert np.array_equal(v.ravel()[lower.ravel()][full], v)

    def test_each_drift_alone_as_in_the_stack(self):
        a, d = _fig2b_drifts()
        stacked = solve_lyapunov(a, d).matrix
        for i in range(0, len(a), 7):
            assert solve_lyapunov(a[i], d[i]).matrix.tobytes() == stacked[i].tobytes()
        rng = np.random.default_rng(41)
        a = np.array([_random_stable_system(rng, 4)[0] for _ in range(9)])
        d = np.array([_random_stable_system(rng, 4)[1] for _ in range(9)])
        stacked = solve_lyapunov(a, d).matrix
        for i in range(9):
            assert solve_lyapunov(a[i], d[i]).matrix.tobytes() == stacked[i].tobytes()

    def test_condition_is_that_of_the_systems_solved(self):
        # split: the noise pair's symmetric operator, X's Sylvester operator
        # and the leading block's symmetric operator; whole: the drift's
        m = _bandpass_model()
        a = m.drift[None]
        lead, trail = a[:, :4, :4], a[:, 4:, 4:]
        split = max(np.linalg.cond(system)[0] for system in (
            _folded_operator(trail), _broadcast_operator(lead, trail),
            _folded_operator(lead)))
        assert _condition(a, 4) == pytest.approx(split, rel=1e-12)
        assert _condition(a, 6) == pytest.approx(
            np.linalg.cond(_folded_operator(a))[0], rel=1e-12)
        assert _condition(lead, 4) == pytest.approx(
            np.linalg.cond(_folded_operator(lead))[0], rel=1e-12)


class TestBlockResidual:
    """A split point's leading block is checked against its own terms."""

    def test_scaled_leading_block_fails_only_the_block_check(self, monkeypatch):
        # V4 times 1 + 1e-8: the whole matrix's residual, dominated by the
        # noise pair, passes it at 108 of these 109 points; the leading
        # block's fails at every one
        a, d = _fig2b_drifts()
        split = _split(a)
        assert split.all()
        v = solve_lyapunov(a, d).matrix.copy()
        v[:, :4, :4] *= 1.0 + 1e-8
        residual, bound = _residual(a, v, d, split)
        assert (residual[0] <= bound[0]).sum() > 0.9 * len(a)
        assert (residual[1] > bound[1]).all()

        solve = lyapunov._solve_split

        def scaled(*args):
            v = solve(*args)
            v[:, :4, :4] *= 1.0 + 1e-8
            return v

        monkeypatch.setattr(lyapunov, "_solve_split", scaled)
        for i in (0, len(a) - 1):
            with pytest.raises(SolverSingular, match="Lyapunov residual of the "
                               "leading 4x4 block"):
                solve_lyapunov(a[i], d[i])

    def test_whole_points_of_a_mixed_stack_keep_the_whole_check(self):
        m = _bandpass_model()
        coupled = m.drift.copy()
        coupled[4, 0] = 1e-3 * OMEGA_M
        a, d = np.array([m.drift, coupled]), np.array([m.diffusion] * 2)
        v = solve_lyapunov(a, d).matrix
        split = _split(a)
        assert split.tolist() == [True, False]
        residual, bound = _residual(a, v, d, split)
        whole, _ = _residual(a, v, d, np.zeros(2, dtype=bool))
        assert residual[1, 1] == whole[0, 1] and residual[1, 0] != whole[0, 0]
        assert (residual <= bound).all()


# The 4 stable points of each 40x40 recipe, by grid index, where the
# Kronecker solve this one replaced was furthest from 40 digits.
ACCURACY_SAMPLE = {"fig2a": [37, 38, 730, 1255], "fig2b": [37, 39, 730, 1255],
                   "fig7c": [21, 30, 34, 1492]}


def _skeel_condition(a, v):
    """|| |L^-1| |L| |vech V| ||_inf / ||vech V||_inf, L the symmetric
    operator of drift ``a``: the componentwise condition of the solve."""
    system = _folded_operator(a[None])[0]
    x = np.abs([v[i, j] for i, j in _vech_pairs(a.shape[-1])])
    return np.max(np.abs(np.linalg.inv(system)) @ (np.abs(system) @ x)) / np.max(x)


class TestAccuracy:
    @pytest.mark.parametrize("fig_id", sorted(ACCURACY_SAMPLE))
    def test_leading_block_against_40_digits(self, fig_id):
        # Within 4e-15 of max|V4|, or where the problem itself is
        # ill-conditioned within eps times its componentwise condition,
        # which one step of refinement reaches (Skeel 1980). The Kronecker
        # solve this one replaced was 6.1e-14 (fig2a), 7.0e-14 (fig2b) and
        # 3.7e-14 (fig7c) off at worst here, past the bound at 9 of the 12
        # points; without the refinement step 8 of 12 are past it. On all
        # 4023 stable points of the three 40x40 grids the refined solve
        # used at most 0.32 of the bound.
        params = grid_points(figure_recipe(fig_id, (40, 40))).take(ACCURACY_SAMPLE[fig_id])
        _, _, ((_, model),) = run_pipeline(params)
        assert model.stable.all()
        v4 = solve_lyapunov(model.drift, model.diffusion,
                            stable=model.stable).matrix[:, :4, :4]
        eps = np.finfo(float).eps
        for a, d, found in zip(model.drift, model.diffusion, v4):
            reference = mp_lyapunov(a, d)[:4, :4]
            bound = max(4e-15, eps * _skeel_condition(a[:4, :4], reference))
            assert np.abs(found - reference).max() <= bound * np.abs(reference).max()


def _bandpass_model():
    p = make_params(phase_noise=bandpass_100hz())
    return build_model(p, solve_steady_state(p))


class TestBlockSplit:
    """The vectorized route splits off an autonomous trailing block."""

    def test_bandpass_model_splits_off_the_noise_pair(self):
        m = _bandpass_model()
        assert _split(m.drift[None]).tolist() == [True]
        v = solve_lyapunov(m.drift, m.diffusion).matrix
        schur = solve_lyapunov(m.drift, m.diffusion, method="schur").matrix
        assert np.max(np.abs(v - schur)) <= 1e-12 * np.max(np.abs(schur))

    def test_bandpass_model_at_zero_power_splits_off_the_noise_pair(self):
        p = make_params(phase_noise=bandpass_100hz(), laser_power=0.0)
        m = build_model(p, solve_steady_state(p))
        assert _split(m.drift[None]).tolist() == [True]

    def test_uncoupled_and_coupled_4x4_stack(self):
        # at zero power the cavity pair is autonomous and splits off; the
        # coupled point is one block. Each row keeps the bits it gets alone.
        uncoupled = make_params(laser_power=0.0)
        params = SystemParams.stack([uncoupled, make_params()])
        m = build_model(params, solve_steady_state(params))
        assert _split(m.drift).tolist() == [True, False]
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
        assert _split(a[None]).tolist() == [False]
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
        assert not _split(drifts).any()

    def test_order_follows_each_drift_alone(self):
        # one split point, one whole point and a diagonal one: each row of
        # the stack gets the bits it gets alone
        m = _bandpass_model()
        coupled = m.drift.copy()
        coupled[4, 0] = 1e-3 * OMEGA_M
        diagonal = -OMEGA_M * np.diag(np.arange(1.0, 7.0))
        a = np.array([m.drift, coupled, diagonal])
        d = np.array([m.diffusion] * 3)
        assert _split(a).tolist() == [True, False, True]
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
        stable=stable[stable])).matrix
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
