"""Stationary covariance from the continuous-time Lyapunov equation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import _hurwitz, drift_abscissa, state_basis
from .errors import SolverSingular, UnphysicalState, UnstableDrift
from .parameters import _unchecked

# on ||A V + V A^T + D||_F relative to max(2 ||A V||_F + ||D||_F, 1), the
# size of the terms that cancel
RESIDUAL_TOL = 1e-10
PHYSICALITY_SLACK = 1e-9  # allowed dip of symplectic eigenvalues below 1/2
# on eps x^H x / x^H i Omega x, the condition of a symplectic eigenvalue: test
# draws reach 2.4e-12, recipes 6.9e-14 and a pure two-mode state squeezed by
# r = 6 1.8e-11 within the error bound; at r = 8 (9.9e-10) it is twice past it
SPECTRUM_CONDITION_LIMIT = 1e-10


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric stationary covariance; its ``basis`` is the tag of its order.

    Vacuum variance is 1/2 in this convention ([q, p] = i), so a reduced
    two-mode block is physical iff both symplectic eigenvalues are >= 1/2.
    The covariances of a stack are the same record with an (N, n, n)
    matrix, each (n, n) symmetrised.
    """

    matrix: NDArray[np.float64]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError("a covariance must be a square matrix")
        m = 0.5 * (m + m.swapaxes(-1, -2))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[-1]

    @property
    def basis(self) -> tuple[str, ...]:
        return state_basis(self.order)


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form for n quadrature-ordered modes (read-only)."""
    form = np.zeros((2 * n_modes, 2 * n_modes))
    q = np.arange(0, 2 * n_modes, 2)
    form[q, q + 1] = 1.0
    form[q + 1, q] = -1.0
    form.setflags(write=False)
    return form


def symplectic_eigenvalues(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic spectrum, ascending, of each covariance of an (..., 2n, 2n) stack.

    By Williamson's theorem: with V = L L^T (Cholesky), the Hermitian
    i K, K = L^T Omega L, is similar to i Omega V, so its eigenvalues are
    +/-nu_k; a matrix that is not positive definite, as a physical one is
    (V >= i Omega / 2), raises UnphysicalState. That solve loses digits on
    a squeezed state, so each nu is the Rayleigh quotient
    x^H V x / x^H i Omega x of its eigenvector x = Omega L z (i K z = nu z),
    summed in np.longdouble: an error of x enters only squared, but x mixes
    the eigenvectors of nu closer than the solve resolves, and its quotient
    lands between them. Over 4000 drawn states of each kind (up to 3 modes,
    nu up to 1e8) every nu was within 0.79 (2n)^2 eps max|V| of a 50-digit
    reference. A state squeezed past double, where eps x^H x / x^H i Omega x
    exceeds SPECTRUM_CONDITION_LIMIT, raises UnphysicalState, as a
    non-finite matrix does; a shape that is not (..., 2n, 2n) with n >= 1
    raises ValueError. An empty stack gives an empty stack.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 or not m.shape[-1]:
        raise ValueError(f"a covariance must be (..., 2n, 2n), not {m.shape}")
    if not np.isfinite(m).all():
        raise UnphysicalState("covariance is not finite")
    n = m.shape[-1] // 2
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise UnphysicalState("covariance is not positive definite") from err
    lift = symplectic_form(n) @ chol
    _, z = np.linalg.eigh(1j * (chol.swapaxes(-1, -2) @ lift))
    x = (lift @ z[..., n:]).astype(np.clongdouble)
    gram = (x.conj() * (m.astype(np.longdouble) @ x)).real.sum(axis=-2)
    metric = -2.0 * (x[..., 0::2, :].conj() * x[..., 1::2, :]).imag.sum(axis=-2)
    worst = ((x.real ** 2 + x.imag ** 2).sum(axis=-2) / metric).max(initial=0.0)
    if (worst := float(worst) * np.finfo(float).eps) > SPECTRUM_CONDITION_LIMIT:
        raise UnphysicalState(f"symplectic spectrum ill-conditioned: eps times its "
                              f"condition {worst:.3g} > {SPECTRUM_CONDITION_LIMIT:g}")
    return np.sort((gram / metric).astype(float), axis=-1)


def _physical_spectrum(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic spectrum of each covariance, with the Heisenberg check."""
    nu = symplectic_eigenvalues(matrix)
    if (bad := nu[..., 0] < 0.5 - PHYSICALITY_SLACK).any():
        raise UnphysicalState(f"smallest symplectic eigenvalue "
                              f"{nu[..., 0][bad].flat[0]:.12g} violates the 1/2 bound")
    return nu


def check_physical(cov: CovarianceMatrix):
    """Smallest symplectic eigenvalue of a covariance, or of each of a stack.

    A float for one covariance, an array for a stack. Raises
    UnphysicalState where ``symplectic_eigenvalues`` does, or where one is
    below 1/2 - PHYSICALITY_SLACK.
    """
    low = _physical_spectrum(cov.matrix)[..., 0]
    return low if low.ndim else low.item()


def _sylvester_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(I, A) + kron(B, I) of each pair of (N, m, m) and (N, p, p) stacks.

    As (N, m p, m p): acting on column-stacked X (m x p), it gives the
    column-stacked A X + X B^T. Entry (i m + k, j m + l) is the sum
    I_ij A_kl + B_ij I_kl: each product is gathered from the point's row
    [0 A, A, 0 B, B] (0 A is zero times A, a zero of each entry's sign)
    by a cached index, and the two are summed, so every bit, a zero's sign
    included, is that of the products themselves.
    """
    count, m, _ = a.shape
    p = b.shape[-1]
    mm, pp = m * m, p * p
    row = np.empty((count, 2 * (mm + pp)))
    flat_a, flat_b = a.reshape(count, mm), b.reshape(count, pp)
    np.multiply(flat_a, 0.0, out=row[:, :mm])
    row[:, mm:2 * mm] = flat_a
    np.multiply(flat_b, 0.0, out=row[:, 2 * mm:2 * mm + pp])
    row[:, 2 * mm + pp:] = flat_b
    index = _operator_index(m, p)
    system = row.take(index[0], axis=1)
    system += row.take(index[1], axis=1)
    return system


@functools.lru_cache(maxsize=None)
def _operator_index(m: int, p: int) -> NDArray[np.intp]:
    """Where each term of ``_sylvester_operator``'s entries sits in its row.

    (2, m p, m p): the I_ij A_kl terms, then the B_ij I_kl terms, on the
    row [0 A, A, 0 B, B] of an (m, m) A and a (p, p) B (read-only).
    """
    # axes (i, k, j, l) address row i*m + k, column j*m + l
    i, k, j, l = np.ix_(range(p), range(m), range(p), range(m))
    index = np.stack(np.broadcast_arrays(
        np.where(i == j, m * m, 0) + k * m + l,
        2 * m * m + np.where(k == l, p * p, 0) + i * p + j))
    index = index.reshape(2, m * p, m * p)
    index.setflags(write=False)
    return index


def _solve_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X of A X + X B^T = C for each triple of a stack, by one dense solve."""
    count, m, p = c.shape
    x = np.linalg.solve(_sylvester_operator(a, b),
                        c.transpose(0, 2, 1).reshape(count, m * p, 1))
    return x.reshape(count, p, m).transpose(0, 2, 1)


def _leading_orders(a: np.ndarray) -> np.ndarray:
    """Per drift of a stack, the order k of the leading block its solve splits off.

    n - 2 where the trailing pair is autonomous, A[n-2:, :n-2] exactly
    zero, as the (psi, theta) noise pair of the bandpass model is; n (one
    block) otherwise, and always for n <= 2. Each drift's order follows
    from its own entries, so a point is solved alike alone and in any stack.
    """
    count, n, _ = a.shape
    if n <= 2:
        return np.full(count, n)
    return np.where(a[:, n - 2:, :n - 2].any(axis=(1, 2)), n, n - 2)


def _solve_split(a: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """V of A V + V A^T = -D for a stack split at leading order ``k``.

    With k < n and A = [[A_k, C], [0, A_t]], the right column block
    W = [X; V_t] of V solves A W + W A_t^T = -D[:, k:], and then V_k solves
    A_k V_k + V_k A_k^T = -(D_k + C X^T + X C^T); V being symmetric, that
    is all of it. With k = n it is one dense solve.
    """
    n = a.shape[-1]
    if k == n:
        return _solve_sylvester(a, a, -d)
    w = _solve_sylvester(a, a[:, k:, k:], -d[:, :, k:])
    xt = w[:, :k].transpose(0, 2, 1)
    cx = a[:, :k, k:] @ xt
    lead = a[:, :k, :k]
    v = np.empty(a.shape)
    v[:, :k, :k] = _solve_sylvester(
        lead, lead, -(d[:, :k, :k] + cx + cx.transpose(0, 2, 1)))
    v[:, :, k:] = w
    v[:, k:, :k] = xt
    return v


def _condition(a: np.ndarray, k: int) -> float:
    """Largest condition estimate of the operators the split at ``k`` solves.

    Over a stack; inf where the estimate itself fails.
    """
    n = a.shape[-1]
    pairs = ([(a, a)] if k == n else
             [(a, a[:, k:, k:]), (a[:, :k, :k], a[:, :k, :k])])
    try:
        cond = np.concatenate([np.linalg.cond(_sylvester_operator(*pair))
                               for pair in pairs])
    except np.linalg.LinAlgError:  # the SVD of a non-finite operator
        return math.inf
    return math.inf if np.isnan(cond).any() else float(cond.max())


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (n, n) of a stack, as np.linalg.norm sums it."""
    return np.sqrt(np.add.reduce(m * m, axis=(1, 2)))


def _residual(a: np.ndarray, v: np.ndarray, d: np.ndarray, floor=1.0) -> tuple:
    """||A V + V A^T + D||_F of each point and the bound it must meet.

    The bound is ``RESIDUAL_TOL * max(2 ||A V||_F + ||D||_F, floor)``, the
    size of the terms that cancel.
    """
    av = a @ v  # V A^T is its transpose, V being symmetric
    residual = _frobenius(av + av.transpose(0, 2, 1) + d)
    return residual, RESIDUAL_TOL * np.maximum(
        2.0 * _frobenius(av) + _frobenius(d), floor)


def _overflow_exponent(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per point, the exponent s that keeps every residual term finite.

    2^-s brings the larger of max|A| max|V| and max|D| into [1/4, 1).
    """
    mantissa, exponent = np.frexp(np.abs(np.stack([a, v, d])).max(axis=(2, 3)))
    # the exponent of max|D| where max|A| max|V| is zero
    return np.maximum(np.where(mantissa[0] * mantissa[1] != 0,
                               exponent[0] + exponent[1], exponent[2]), exponent[2])


def solve_lyapunov(a: NDArray[np.float64], d: NDArray[np.float64],
                   method: str = "vectorized",
                   stable: NDArray[np.bool_] | None = None
                   ) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the stationary covariance V.

    ``a`` and ``d`` are one (n, n) pair, giving one covariance, or (N, n, n)
    stacks, giving the stacked covariance of every pair; a non-finite one
    raises ValueError naming it. ``method`` is
    "vectorized" (dense solves of Kronecker systems, the default) or
    "schur" (Bartels-Stewart via scipy, the independent reference route).
    The vectorized route splits a point whose trailing pair of variables
    is autonomous, as the (psi, theta) noise pair of the bandpass model is:
    with A[n-2:, :n-2] exactly zero, it solves for the right two columns of
    V (2n unknowns), then for the leading block ((n - 2)^2 unknowns), in
    place of all n^2 at once; every other point, and every point with
    n <= 2, is one dense solve. Every drift must be Hurwitz and every D
    symmetric positive semidefinite; each V is symmetrized and its
    residual is required to satisfy ``RESIDUAL_TOL``, on V and D scaled by
    a power of two where a term of the residual would overflow. A failed
    check raises SolverSingular with the condition estimate of the systems
    solved, inf where that estimate fails. ``stable`` is the verdict that
    each drift is Hurwitz, one bool per drift, when the caller has it
    already, as a LinearModel does; otherwise the model's one stability
    rule, ``dynamics._hurwitz``, takes it. A drift that is not Hurwitz
    raises UnstableDrift, worded from that drift's own eigenvalues. An
    empty stack gives an empty stack.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or d.shape != a.shape:
        raise ValueError("A and D must be square matrices of equal size")
    if method not in ("vectorized", "schur"):
        raise ValueError(f"unknown method {method!r}")
    point = a.ndim == 2
    if point:
        a, d = a[None], d[None]
    for name, m in (("A", a), ("D", d)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} must be finite")
    d_scale = np.maximum(np.abs(d).max(axis=(1, 2), initial=0.0), 1.0)
    if not (np.abs(d - d.transpose(0, 2, 1)) <= 1e-12 * d_scale[:, None, None]).all():
        raise ValueError("D must be symmetric")
    # halves first: the sum of two entries near the float range overflows
    if (np.linalg.eigvalsh(0.5 * d + 0.5 * d.transpose(0, 2, 1)).min(
            axis=-1, initial=np.inf) < -1e-12 * d_scale).any():
        raise ValueError("D must be positive semidefinite")
    count, n, _ = a.shape
    stable = np.ravel(_hurwitz(a) if stable is None else stable)
    if stable.dtype != bool or stable.shape != (count,):
        raise ValueError(f"stable must give one bool per drift: "
                         f"{stable.size} of {stable.dtype} for {count}")
    if not stable.all():
        first = drift_abscissa(a[np.argmin(stable)])
        raise UnstableDrift(f"drift is not Hurwitz (max Re eigenvalue {first:.3e})")

    if method == "vectorized":
        orders = _leading_orders(a)
        # one group of points per split, the whole stack where all share
        # one, none for an empty stack
        groups = ([(slice(None), k) for k in orders[:1]]
                  if (orders == orders[:1]).all()
                  else [(orders == k, k) for k in np.unique(orders)])
        v = np.empty(a.shape)
        for group, k in groups:
            try:
                v[group] = _solve_split(a[group], d[group], k)
            except np.linalg.LinAlgError as err:
                raise SolverSingular("vectorized Lyapunov system is singular",
                                     condition=_condition(a[group], k)) from err
    else:
        from scipy.linalg import solve_continuous_lyapunov

        orders = np.full(count, n)
        v = np.array([solve_continuous_lyapunov(ai, -di)
                      for ai, di in zip(a, d)]).reshape(a.shape)

    v = 0.5 * (v + v.transpose(0, 2, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        residual, bound = _residual(a, v, d)
    # where a term overflows, the same check with V, D and the floor times
    # 2^-s, which scales exactly. NaN fails the comparison, and the scaled
    # residual of finite matrices is finite, so a non-finite V fails too.
    s = np.zeros(count, dtype=int)
    over = np.isinf(bound)
    if over.any():
        s[over] = _overflow_exponent(a[over], v[over], d[over])
        shift = -s[over]
        residual[over], bound[over] = _residual(
            a[over], np.ldexp(v[over], shift[:, None, None]),
            np.ldexp(d[over], shift[:, None, None]), np.ldexp(1.0, shift))
    failed = ~(residual <= bound) | np.isinf(residual)
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise SolverSingular(
            f"Lyapunov residual {np.ldexp(residual[i], s[i]):.3e} exceeds "
            f"{np.ldexp(bound[i], s[i]):.3e}",
            condition=_condition(a[i:i + 1], orders[i]))
    v = v[0] if point else v
    v.setflags(write=False)
    # symmetrized above: the record takes the matrices as they are
    return _unchecked(CovarianceMatrix, dict(matrix=v))


def reduce_to_optomechanical(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Principal 4x4 block (dq, dp, dX, dY) of the full 6x6 covariance.

    Of one covariance, or of each of a stack.
    """
    if cov.order != 6:
        raise ValueError("reduction expects the 6x6 covariance")
    # a principal block of a symmetric read-only matrix is one too
    return _unchecked(CovarianceMatrix, dict(matrix=cov.matrix[..., :4, :4]))
