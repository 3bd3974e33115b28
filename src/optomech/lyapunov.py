"""Stationary covariance from the continuous-time Lyapunov equation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import MODEL_DIMS, REDUCED_BASIS, drift_abscissa
from .errors import SolverSingular, UnphysicalState, UnstableDrift
from .parameters import _unchecked

RESIDUAL_TOL = 1e-10  # on ||A V + V A^T + D||_F relative to max(||D||_F, 1)
PHYSICALITY_SLACK = 1e-9  # allowed dip of symplectic eigenvalues below 1/2


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric stationary covariance with its basis tag.

    Vacuum variance is 1/2 in this convention ([q, p] = i), so a reduced
    two-mode block is physical iff both symplectic eigenvalues are >= 1/2.
    The covariances of a stack are the same record with an (N, n, n)
    matrix, each (n, n) symmetrised.
    """

    matrix: NDArray[np.float64]
    basis: tuple[str, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m = 0.5 * (m + m.swapaxes(-1, -2))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[-1]

    def to_document(self) -> dict:
        """JSON-ready matrix document for fixtures."""
        return {"kind": "covariance", "basis": list(self.basis),
                "matrix": self.matrix.tolist()}

    @classmethod
    def from_document(cls, doc: dict) -> "CovarianceMatrix":
        if doc.get("kind") != "covariance":
            raise ValueError("not a covariance document")
        return cls(matrix=np.array(doc["matrix"], dtype=float),
                   basis=tuple(doc["basis"]))


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
    """Symplectic spectrum, ascending, of each covariance of an (..., 2n, 2n) stack."""
    m = np.asarray(matrix, dtype=float)
    eig = np.linalg.eigvals(1j * symplectic_form(m.shape[-1] // 2) @ m)
    vals = np.sort(np.abs(eig), axis=-1)
    return vals[..., ::2]  # eigenvalues of i*Omega*V come in +/- pairs


def check_physical(cov: CovarianceMatrix):
    """Smallest symplectic eigenvalue of a covariance, or of each of a stack.

    A float for one covariance, an array for a stack. Raises
    UnphysicalState if one of them is below 1/2 - PHYSICALITY_SLACK.
    """
    low = symplectic_eigenvalues(cov.matrix).min(axis=-1)
    bad = np.flatnonzero(low < 0.5 - PHYSICALITY_SLACK)
    if bad.size:
        worst = np.ravel(low)[bad[0]]
        raise UnphysicalState(
            f"smallest symplectic eigenvalue {worst:.12g} violates the 1/2 bound")
    return low if low.ndim else low.item()


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each (n, n) of a stack, as np.linalg.norm sums it."""
    return np.sqrt(np.add.reduce(m * m, axis=(1, 2)))


def _lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """kron(I, A) + kron(A, I) of each A of an (N, n, n) stack, as (N, n^2, n^2).

    Acting on column-stacked V, it gives the column-stacked A V + V A^T.
    """
    count, n, _ = a.shape
    eye = np.eye(n)
    # axes (point, i, k, j, l) address row i*n + k, column j*n + l
    system = (eye[:, None, :, None] * a[:, None, :, None, :]
              + a[:, :, None, :, None] * eye[:, None, :])
    return system.reshape(count, n * n, n * n)


def solve_lyapunov(a: NDArray[np.float64], d: NDArray[np.float64],
                   method: str = "vectorized",
                   abscissa: NDArray[np.float64] | None = None
                   ) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the stationary covariance V.

    ``a`` and ``d`` are one (n, n) pair, giving one covariance, or (N, n, n)
    stacks, giving the stacked covariance of every pair. ``method`` is
    "vectorized" (dense solve of the n^2 x n^2 system, the default) or
    "schur" (Bartels-Stewart via scipy, the independent reference route).
    Every drift must be Hurwitz and every D symmetric positive
    semidefinite; each V is symmetrized and its residual is required to
    satisfy ``RESIDUAL_TOL``. ``abscissa`` is the largest real part of
    each drift's eigenvalues when the caller has them already.
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
    d_scale = np.maximum(np.abs(d).max(axis=(1, 2), initial=0.0), 1.0)
    if not (np.abs(d - d.transpose(0, 2, 1)) <= 1e-12 * d_scale[:, None, None]).all():
        raise ValueError("D must be symmetric")
    if (np.linalg.eigvalsh(0.5 * (d + d.transpose(0, 2, 1))).min(
            axis=-1, initial=np.inf) < -1e-12 * d_scale).any():
        raise ValueError("D must be positive semidefinite")
    abscissa = np.ravel(drift_abscissa(a) if abscissa is None else abscissa)
    if (abscissa >= 0.0).any():
        first = abscissa[np.flatnonzero(abscissa >= 0.0)[0]]
        raise UnstableDrift(f"drift is not Hurwitz (max Re eigenvalue {first:.3e})")

    count, n, _ = a.shape
    if method == "vectorized":
        system = _lyapunov_operator(a)
        rhs = -d.transpose(0, 2, 1).reshape(count, n * n, 1)  # column-stacked
        try:
            v = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as err:
            raise SolverSingular(
                "vectorized Lyapunov system is singular",
                condition=float(np.max(np.linalg.cond(system)))) from err
        v = v.reshape(count, n, n).transpose(0, 2, 1)
    else:
        from scipy.linalg import solve_continuous_lyapunov

        v = np.array([solve_continuous_lyapunov(ai, -di)
                      for ai, di in zip(a, d)]).reshape(a.shape)

    v = 0.5 * (v + v.transpose(0, 2, 1))
    residual = _frobenius(a @ v + v @ a.transpose(0, 2, 1) + d)
    bound = RESIDUAL_TOL * np.maximum(_frobenius(d), 1.0)
    if (residual > bound).any():
        i = np.flatnonzero(residual > bound)[0]
        cond = float(np.linalg.cond(_lyapunov_operator(a[i:i + 1])[0]))
        raise SolverSingular(f"Lyapunov residual {residual[i]:.3e} exceeds "
                             f"{bound[i]:.3e}", condition=cond)
    v = v[0] if point else v
    v.setflags(write=False)
    # symmetrized above: the record takes the matrices as they are
    return _unchecked(CovarianceMatrix, dict(
        matrix=v, basis=MODEL_DIMS.get(n) or tuple(f"x{i}" for i in range(n))))


def reduce_to_optomechanical(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Principal 4x4 block (dq, dp, dX, dY) of the full 6x6 covariance.

    Of one covariance, or of each of a stack.
    """
    if cov.order != 6:
        raise ValueError("reduction expects the 6x6 covariance")
    # a principal block of a symmetric read-only matrix is one too
    return _unchecked(CovarianceMatrix, dict(matrix=cov.matrix[..., :4, :4],
                                             basis=REDUCED_BASIS))
