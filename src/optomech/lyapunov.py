"""Stationary covariance from the continuous-time Lyapunov equation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .dynamics import FULL_BASIS, REDUCED_BASIS
from .errors import SolverSingular, UnphysicalState, UnstableDrift

RESIDUAL_TOL = 1e-10  # on ||A V + V A^T + D||_F relative to max(||D||_F, 1)
PHYSICALITY_SLACK = 1e-9  # allowed dip of symplectic eigenvalues below 1/2


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric stationary covariance with its basis tag.

    Vacuum variance is 1/2 in this convention ([q, p] = i), so a reduced
    two-mode block is physical iff both symplectic eigenvalues are >= 1/2.
    """

    matrix: NDArray[np.float64]
    basis: tuple[str, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def block(self, rows: slice, cols: slice) -> NDArray[np.float64]:
        return self.matrix[rows, cols]

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


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form for n quadrature-ordered modes."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return scipy.linalg.block_diag(*([j] * n_modes))


def symplectic_eigenvalues(matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic spectrum of a (2n x 2n) covariance matrix, ascending."""
    m = np.asarray(matrix, dtype=float)
    n_modes = m.shape[0] // 2
    eig = np.linalg.eigvals(1j * symplectic_form(n_modes) @ m)
    vals = np.sort(np.abs(eig))
    return vals[::2]  # eigenvalues of i*Omega*V come in +/- pairs


def check_physical(cov: CovarianceMatrix, slack: float = PHYSICALITY_SLACK) -> float:
    """Smallest symplectic eigenvalue; UnphysicalState if below 1/2 - slack."""
    low = float(np.min(symplectic_eigenvalues(cov.matrix)))
    if low < 0.5 - slack:
        raise UnphysicalState(
            f"smallest symplectic eigenvalue {low:.12g} violates the 1/2 bound")
    return low


def _solve_vectorized(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Reference path: dense solve of the n^2 x n^2 vectorized system."""
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, a) + np.kron(a, eye)
    try:
        v = np.linalg.solve(system, -d.flatten(order="F"))
    except np.linalg.LinAlgError as err:
        raise SolverSingular("vectorized Lyapunov system is singular",
                             condition=float(np.linalg.cond(system))) from err
    return v.reshape((n, n), order="F")


def solve_lyapunov(a: NDArray[np.float64], d: NDArray[np.float64],
                   method: str = "vectorized") -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the stationary covariance V.

    ``method`` is "vectorized" (reference dense solve, default) or "schur"
    (Bartels-Stewart via scipy). The drift must be Hurwitz and D symmetric
    positive semidefinite; the result is symmetrized and its residual is
    required to satisfy ``RESIDUAL_TOL``.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or d.shape != (n, n):
        raise ValueError("A and D must be square matrices of equal size")
    if not np.allclose(d, d.T, rtol=0.0, atol=1e-12 * max(np.abs(d).max(), 1.0)):
        raise ValueError("D must be symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (d + d.T))) < -1e-12 * max(np.abs(d).max(), 1.0):
        raise ValueError("D must be positive semidefinite")
    max_re = float(np.max(np.linalg.eigvals(a).real))
    if max_re >= 0.0:
        raise UnstableDrift(f"drift is not Hurwitz (max Re eigenvalue {max_re:.3e})")

    if method == "vectorized":
        v = _solve_vectorized(a, d)
    elif method == "schur":
        v = scipy.linalg.solve_continuous_lyapunov(a, -d)
    else:
        raise ValueError(f"unknown method {method!r}")

    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(a @ v + v @ a.T + d, "fro")
    bound = RESIDUAL_TOL * max(np.linalg.norm(d, "fro"), 1.0)
    if residual > bound:
        eye = np.eye(n)
        cond = float(np.linalg.cond(np.kron(eye, a) + np.kron(a, eye)))
        raise SolverSingular(
            f"Lyapunov residual {residual:.3e} exceeds {bound:.3e}", condition=cond)

    basis = {6: FULL_BASIS, 4: REDUCED_BASIS}.get(n, tuple(f"x{i}" for i in range(n)))
    return CovarianceMatrix(matrix=v, basis=basis)


def reduce_to_optomechanical(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Principal 4x4 block (dq, dp, dX, dY) of the full 6x6 covariance."""
    if cov.order != 6:
        raise ValueError("reduction expects the 6x6 covariance")
    return CovarianceMatrix(matrix=cov.matrix[:4, :4], basis=REDUCED_BASIS)
