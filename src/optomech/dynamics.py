"""Linearized fluctuation dynamics: drift and diffusion matrices, stability.

State ordering of the full model is (dq, dp, dX, dY, psi, theta): mechanical
position/momentum, cavity quadratures, and the two auxiliary variables that
realize the bandpass frequency noise. White or absent noise uses the reduced
(dq, dp, dX, dY) model with the flat noise folded into the diffusion matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import NonpositiveDetuning
from .parameters import (NoiseSpec, SteadyState, SystemParams, _pair_drift,
                         _unchecked)

FULL_BASIS = ("dq", "dp", "dX", "dY", "psi", "theta")
REDUCED_BASIS = ("dq", "dp", "dX", "dY")
MODEL_DIMS = {6: FULL_BASIS, 4: REDUCED_BASIS}  # basis by model order
_DIAG4 = np.arange(4)


def state_basis(order: int) -> tuple[str, ...]:
    """Basis tag of an order-n model or covariance: MODEL_DIMS, else x0..x{n-1}."""
    return MODEL_DIMS.get(order) or tuple(f"x{i}" for i in range(order))


@dataclass(frozen=True)
class LinearModel:
    """Drift/diffusion pair of a linear Langevin system; the rest follows from it.

    ``stable`` is the verdict that the drift is Hurwitz (every eigenvalue
    in the open left half-plane), taken when the record is made by the
    model's one stability rule, ``_hurwitz``: the fluctuations then relax
    to a stationary state. A non-finite drift or diffusion raises
    ValueError naming it. ``dims`` is the basis tag of the model's order.
    The models of a stack sharing one order are the same record with
    (N, n, n) matrices and one verdict per model.
    """

    drift: NDArray[np.float64]
    diffusion: NDArray[np.float64]
    stable: bool | NDArray[np.bool_] = field(init=False)

    def __post_init__(self):
        a = np.array(self.drift, dtype=float)
        d = np.array(self.diffusion, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2] or d.shape != a.shape:
            raise ValueError("drift and diffusion must be square and of one shape")
        for name, m in (("drift", a), ("diffusion", d)):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} must be finite")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)
        stable = _hurwitz(a)
        object.__setattr__(self, "stable", stable if stable.ndim else stable.item())

    @property
    def order(self) -> int:
        return self.drift.shape[-1]

    @property
    def dims(self) -> tuple[str, ...]:
        return state_basis(self.order)

    def __getitem__(self, i: int) -> "LinearModel":
        """The model ``i`` of a stack."""
        return _unchecked(LinearModel, dict(
            drift=self.drift[i], diffusion=self.diffusion[i],
            stable=self.stable[i].item()))

    def to_document(self) -> dict:
        """JSON-ready matrix document of a model or a stack, for inspection."""
        return {
            "kind": "linear_model",
            "dims": list(self.dims),
            "stable": np.array(self.stable).tolist(),
            "drift": self.drift.tolist(),
            "diffusion": self.diffusion.tolist(),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "LinearModel":
        """The model or stack of a document's matrices; dims and stable must agree."""
        if doc.get("kind") != "linear_model":
            raise ValueError("not a linear_model document")
        model = cls(drift=np.array(doc["drift"], dtype=float),
                    diffusion=np.array(doc["diffusion"], dtype=float))
        for key, value in (("dims", list(model.dims)),
                           ("stable", np.array(model.stable).tolist())):
            if key in doc and doc[key] != value:
                raise ValueError(f"document {key!r} is {doc[key]!r}, but its "
                                 f"drift gives {value!r}")
        return model


@dataclass(frozen=True)
class ClosedForm:
    """A closed form's value at one point or a stack, with its regime flags.

    ``flags`` maps each regime condition to a bool or a mask, in the order
    ``checked`` reads them. ``rules`` maps a flag to its warning text or to
    the builder of its error; ``value`` is NaN where an error's flag is
    set. ``radicands`` holds by flag what an ImaginaryFrequency reports.
    """

    value: float | NDArray[np.float64]
    flags: dict
    rules: dict = field(repr=False, compare=False)
    radicands: dict = field(default_factory=dict, repr=False, compare=False)

    def checked(self) -> float:
        """The value of one point, after each flag set there warns or raises.

        A warning points at the caller.
        """
        if np.ndim(self.value):
            raise ValueError("checked() takes the closed form of one point")
        for name, flag in self.flags.items():
            if flag and isinstance(self.rules[name], str):
                warnings.warn(self.rules[name], stacklevel=2)
            elif flag:
                raise self.rules[name](self)
        return float(self.value)


def phase_noise_spectrum(spec: NoiseSpec, omega):
    """Frequency-noise spectrum S(omega) of the laser, rad/s.

    Flat 2*gamma_l for white noise; the bandpass form
    2*gamma_l*W^4 / ((W^2 - omega^2)^2 + omega^2*gt^2) otherwise.
    ``spec`` is one noise spec with scalar or array ``omega``, or the noise
    of a stack with one frequency per point.
    """
    w = np.asarray(omega, dtype=float)
    out = np.where(spec.kind == "white", 2.0 * spec.gamma_l, np.zeros_like(w))
    bandpass = spec.kind == "bandpass"
    if np.any(bandpass):
        w2 = w * w
        band2, width2 = np.square([spec.omega_band, spec.gamma_tilde])
        gap = band2 - w2
        # divided only at bandpass points: the others keep their flat value
        # and never take the 0/0 of a missing band at omega = 0
        np.divide(2.0 * spec.gamma_l * (band2 * band2), gap * gap + w2 * width2,
                  out=out, where=bandpass)
    return out if out.ndim else float(out)


def drift_abscissa(drift: NDArray[np.float64]) -> NDArray[np.float64]:
    """Largest real part of the drift eigenvalues, per matrix of an (..., n, n) stack.

    Negative means Hurwitz: the fluctuations relax to a stationary state.
    """
    return np.linalg.eigvals(np.asarray(drift)).real.max(axis=-1)


def _characteristic(a4: NDArray[np.float64]) -> tuple:
    """Characteristic polynomial and adjugate of each 4x4 of an (..., 4, 4) stack.

    det(sI - A) = s^4 + c1 s^3 + c2 s^2 + c3 s + c4 and
    adj(sI - A) = s^3 I + s^2 B1 + s B2 + B3, by the Faddeev-LeVerrier
    recursion (S.-H. Hou, SIAM Rev. 40, 706 (1998)): B0 = I,
    c_k = -tr(A B_(k-1))/k, B_k = A B_(k-1) + c_k I. Returns
    ``(c1, c2, c3, c4), (B1, B2, B3)``, a value or an (...,) array each c.
    No eigendecomposition is taken.
    """
    eye = np.eye(4)
    # x / -k is -(x / k) bit for bit
    c1 = -a4.trace(axis1=-2, axis2=-1)
    b1 = a4 + c1[..., None, None] * eye  # A B0 = A
    ab = a4 @ b1
    c2 = ab.trace(axis1=-2, axis2=-1) / -2.0
    b2 = ab + c2[..., None, None] * eye
    ab = a4 @ b2
    c3 = ab.trace(axis1=-2, axis2=-1) / -3.0
    b3 = ab + c3[..., None, None] * eye
    c4 = (a4 @ b3).trace(axis1=-2, axis2=-1) / -4.0
    return (c1, c2, c3, c4), (b1, b2, b3)


def _hurwitz(a: NDArray[np.float64], pair_stable=None) -> NDArray[np.bool_]:
    """Whether each drift of an (..., n, n) stack is Hurwitz: the one stability rule.

    A 4x4 drift by the Lienard-Chipart form of Routh-Hurwitz for a monic
    quartic (DeJesus & Kaufman, Phys. Rev. A 35, 5288 (1987)): c1 > 0,
    c4 > 0, c1 c2 - c3 > 0 and c3 (c1 c2 - c3) - c1^2 c4 > 0, NaN failing
    each test. A 6x6 drift whose trailing pair is autonomous (A[4:, :4]
    exactly zero), as the bandpass model's is, by those conditions on its
    4x4 block and the pair's own verdict: ``pair_stable`` where the caller
    has it, else ``drift_abscissa`` of the 2x2 block negative. Any other
    drift by ``drift_abscissa`` negative.
    """
    n = a.shape[-1]
    if n == 4:
        (c1, c2, c3, c4), _ = _characteristic(a)
        lead = c1 * c2 - c3
        return (c1 > 0) & (c4 > 0) & (lead > 0) & (c3 * lead - c1 * c1 * c4 > 0)
    if n != 6:
        return drift_abscissa(a) < 0.0
    if pair_stable is None:
        pair_stable = drift_abscissa(a[..., 4:, 4:]) < 0.0
    stable = _hurwitz(a[..., :4, :4]) & pair_stable
    split = ~a[..., 4:, :4].any(axis=(-2, -1))
    return stable if split.all() else np.where(split, stable, drift_abscissa(a) < 0.0)


# what ClosedForm.checked does where a flag of stability_margin is set
_MARGIN_RULES = {"nonpositive_detuning": lambda form: NonpositiveDetuning(
    "analytic threshold needs delta > 0; use the eigenvalue test instead")}


def stability_margin(params, ss) -> ClosedForm:
    """Coupling relative to the static instability threshold, G/G_threshold.

    The threshold sqrt((delta^2 + kappa^2)*omega_m/delta) is the analytic
    stability boundary for a red-detuned drive; values below 1 are stable.
    Of one point or of a stack; NaN where delta_eff <= 0, which is flagged
    ``nonpositive_detuning`` and raises NonpositiveDetuning.
    """
    delta = ss.delta_eff
    nonpositive = delta <= 0
    with np.errstate(all="ignore"):
        delta2, kappa2 = np.square([delta, params.kappa])
        g_threshold = np.sqrt((delta2 + kappa2) * params.omega_m / delta)
        margin = np.where(nonpositive, np.nan, ss.g_eff / g_threshold)
    return ClosedForm(margin, {"nonpositive_detuning": nonpositive}, _MARGIN_RULES)


def auxiliary_block(spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Drift/diffusion of the (psi, theta) pair realizing bandpass noise.

    2x2 matrices for one noise spec, (N, 2, 2) stacks for the noise of a
    stack, whose points must all be bandpass.
    """
    if not np.all(spec.kind == "bandpass"):
        raise ValueError("auxiliary block exists only for bandpass noise")
    a = _pair_drift(spec)
    d = np.zeros_like(a)
    d[..., 1, 1] = 2.0 * spec.gamma_l * (spec.omega_band * spec.omega_band)
    return a, d


def _undamped_band(spec: NoiseSpec) -> NDArray[np.bool_]:
    """Whether each noise spec has a band whose (psi, theta) drift is not Hurwitz.

    The verdict the spec carries (``pair_abscissa``): such a band has no
    stationary state. It holds at gamma_tilde = 0 and where gamma_tilde is
    below about 1e-11 of the band center; never without a band.
    """
    return spec.pair_abscissa >= 0


def vacuum_diffusion(params) -> np.ndarray:
    """Thermal/vacuum diffusion diagonal of (dq, dp, dX, dY), phase noise excluded.

    ``params`` is one point (giving shape (4,)) or a stack (giving (N, 4)).
    """
    k2n1 = params.kappa * (2.0 * params.cavity_thermal_occupancy + 1.0)
    return np.array([np.zeros_like(k2n1), params.gamma_m * (2.0 * params.n_th + 1.0),
                     k2n1, k2n1]).T


def _optomechanical_drift(params: SystemParams, ss: SteadyState,
                          order: int) -> np.ndarray:
    """(..., order, order) drifts whose (dq, dp, dX, dY) block is filled in.

    (order, order) for one point, (N, order, order) for a stack.
    """
    wm, g, delta = params.omega_m, ss.g_eff, ss.delta_eff
    a = np.zeros(np.shape(wm) + (order, order))
    a[..., 0, 1] = wm
    a[..., 1, 0] = -wm
    a[..., 1, 1] = -params.gamma_m
    a[..., 1, 2] = g
    a[..., 2, 2] = -params.kappa
    # The Y quadrature carries the detuning rotation from X (-delta on dX);
    # writing the detuning term on dY instead would destroy the rotational
    # structure of the cavity block.
    a[..., 2, 3] = delta
    a[..., 3, 0] = g
    a[..., 3, 2] = -delta
    a[..., 3, 3] = -params.kappa
    return a


def optomechanical_block(params: SystemParams, ss: SteadyState) -> np.ndarray:
    """4x4 drift of (dq, dp, dX, dY); phase noise enters only the diffusion."""
    return _optomechanical_drift(params, ss, 4)


def build_model(params, ss) -> LinearModel:
    """Assemble the linear fluctuation model around a working point.

    (n, n) matrices for one point, (N, n, n) stacks for a stack, whose
    points must share one model order. Bandpass noise yields the 6x6
    system with the auxiliary pair attached; white or absent noise yields
    the 4x4 system, with the flat frequency noise folded into the
    Y-quadrature diffusion as 2*|alpha_s|^2*S, where S = 2*gamma_l is the
    flat spectrum value. Each model's ``stable`` verdict is the one rule
    ``_hurwitz``, given the noise pair's verdict that each noise spec
    carries (``pair_abscissa`` negative), so no eigenvalue is solved for.
    The diffusion reads the bath phonon number that each point carries.
    """
    kind = params.phase_noise.kind
    bands = np.count_nonzero(kind == "bandpass")
    if 0 < bands < np.size(kind):
        raise ValueError("build_model takes a stack of one noise model order")
    order = 6 if bands else 4
    a = _optomechanical_drift(params, ss, order)
    d = np.zeros_like(a)
    d[..., _DIAG4, _DIAG4] = vacuum_diffusion(params)
    if order == 6:
        # the (psi, theta) pair, driving dY through psi
        a[..., 4:, 4:], d[..., 4:, 4:] = auxiliary_block(params.phase_noise)
        a[..., 3, 4] = math.sqrt(2.0) * ss.alpha_abs
    else:
        white = kind == "white"
        if np.any(white):
            d[..., 3, 3] += np.where(
                white, 2.0 * ss.photon_number * 2.0 * params.phase_noise.gamma_l, 0.0)
    stable = _hurwitz(a, params.phase_noise.pair_abscissa < 0)
    a.setflags(write=False)
    d.setflags(write=False)
    # the matrices were just made here and their verdict taken: the record
    # takes them as they are
    return _unchecked(LinearModel, dict(
        drift=a, diffusion=d, stable=stable if a.ndim == 3 else stable.item()))
