"""Physical parameters, derived quantities, and the classical working point.

All frequencies and rates are stored as angular quantities (rad/s); any
"/2pi" input convention is converted at the boundary (see optomech.config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .errors import NoPhysicalRoot

EFFECTIVE = "effective"
BARE = "bare"

_BRANCHES = ("lower", "middle", "upper")
_BRANCH_TAGS = np.array(("monostable",) + _BRANCHES)  # by 1 + root index


@dataclass(frozen=True)
class NoiseSpec:
    """Laser frequency-noise model: none, flat (white), or bandpass.

    White noise of strength ``gamma_l`` has the flat spectrum 2*gamma_l.
    The bandpass variant is peaked at ``omega_band`` with width
    ``gamma_tilde`` and reduces to the white case as both grow large.
    """

    kind: str  # "none" | "white" | "bandpass"
    gamma_l: float = 0.0  # laser linewidth, rad/s
    omega_band: float = 0.0  # band center, rad/s
    gamma_tilde: float = 0.0  # bandwidth, rad/s

    def __post_init__(self):
        if self.kind not in ("none", "white", "bandpass"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        # each check is written so that NaN and infinity fail it
        if not 0 <= self.gamma_l < math.inf:
            raise ValueError("noise strength gamma_l must be >= 0")
        if self.kind == "bandpass":
            if not 0 < self.omega_band < math.inf:
                raise ValueError("bandpass noise requires omega_band > 0")
            if not 0 <= self.gamma_tilde < math.inf:
                raise ValueError("bandpass noise requires gamma_tilde >= 0")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(kind="none")

    @classmethod
    def white(cls, gamma_l: float) -> "NoiseSpec":
        return cls(kind="white", gamma_l=gamma_l)

    @classmethod
    def bandpass(cls, gamma_l: float, omega_band: float, gamma_tilde: float) -> "NoiseSpec":
        return cls(kind="bandpass", gamma_l=gamma_l, omega_band=omega_band,
                   gamma_tilde=gamma_tilde)


_POSITIVE_FIELDS = ("omega_m", "quality_factor", "kappa", "laser_wavelength")
_NONNEGATIVE_FIELDS = ("g0", "laser_power", "bath_temperature",
                       "cavity_thermal_occupancy")


def _all(condition) -> bool:
    """Whether a condition holds for one value or everywhere in a column."""
    # one value stays plain Python: SystemParams is built point by point
    return condition.all() if isinstance(condition, np.ndarray) else condition


def _finite(value):
    """Whether a value, or each value of a column, is finite; NaN is not."""
    return abs(value) < math.inf


def _check_fields(values: dict) -> None:
    """ValueError for a SystemParams field (a value or a column) out of range.

    Each range is checked as the condition that holds, finite included, so
    NaN and infinity fail it.
    """
    for name in _POSITIVE_FIELDS:
        if name in values and not _all(_finite(values[name]) & (values[name] > 0)):
            raise ValueError(f"{name} must be > 0")
    for name in _NONNEGATIVE_FIELDS:
        if name in values and not _all(_finite(values[name]) & (values[name] >= 0)):
            raise ValueError(f"{name} must be >= 0")
    if "detuning" in values and not _all(_finite(values["detuning"])):
        raise ValueError("detuning must be finite")
    mode = values.get("detuning_mode", EFFECTIVE)
    if not _all((mode == EFFECTIVE) | (mode == BARE)):
        raise ValueError(f"detuning_mode must be '{EFFECTIVE}' or '{BARE}'")


def _unchecked(cls, values: dict):
    """A record of the frozen dataclass ``cls`` holding ``values``, unchecked.

    Stacks are built this way: each of their points was checked when it
    was built.
    """
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def _take(record, idx):
    """The points ``idx`` of a stacked record, its noise spec included."""
    return _unchecked(type(record), {
        name: _take(value, idx) if isinstance(value, NoiseSpec) else value[idx]
        for name, value in vars(record).items()})


def _concatenate(records):
    """The stack of a sequence of stacked records of one type, in order."""
    first = records[0]
    return _unchecked(type(first), {
        name: (_concatenate if isinstance(value, NoiseSpec) else np.concatenate)(
            [vars(r)[name] for r in records])
        for name, value in vars(first).items()})


def _broadcast(value, shape):
    """One value, or one per point, as a field of a stack of ``shape``."""
    if isinstance(value, NoiseSpec):
        return _unchecked(NoiseSpec, {name: np.broadcast_to(v, shape)
                                      for name, v in vars(value).items()})
    return np.broadcast_to(value, shape)


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs of the driven cavity, in coherent internal units.

    A point holds one value per field. A stack of N points (``stack``) is
    the same record with one array item per point in every field, its
    noise spec included; every formula reads both alike.

    Parameters
    ----------
    omega_m:
        Mechanical angular frequency, rad/s.
    quality_factor:
        Mechanical quality factor; the damping rate is
        ``gamma_m = omega_m / quality_factor``.
    kappa:
        Cavity amplitude decay rate, rad/s.
    detuning:
        Cavity-laser detuning, rad/s; its meaning is set by ``detuning_mode``:
        "effective" (radiation-pressure-shifted) or "bare".
    g0:
        Single-photon optomechanical coupling, rad/s.
    laser_power:
        Input laser power, W.
    laser_wavelength:
        Drive wavelength, m (sets the photon energy of the drive).
    bath_temperature:
        Mechanical bath temperature, K.
    phase_noise:
        Laser frequency-noise model.
    cavity_thermal_occupancy:
        Thermal photon number of the optical bath (0 at optical frequencies).
    """

    omega_m: float
    quality_factor: float
    kappa: float
    detuning: float
    g0: float
    laser_power: float
    laser_wavelength: float
    bath_temperature: float
    phase_noise: NoiseSpec = NoiseSpec.none()
    cavity_thermal_occupancy: float = 0.0
    detuning_mode: str = EFFECTIVE

    def __post_init__(self):
        _check_fields(vars(self))

    @property
    def gamma_m(self) -> float:
        """Mechanical damping rate omega_m / Q, rad/s."""
        return self.omega_m / self.quality_factor

    @property
    def omega_laser(self) -> float:
        """Drive angular frequency 2*pi*c / wavelength, rad/s."""
        return 2.0 * math.pi * C_LIGHT / self.laser_wavelength

    def thermal_phonons(self):
        """Mean bath phonon number at the mechanical frequency of each point.

        A stack takes it point by point with ``math.expm1``, whose last bit
        numpy's vectorised expm1 does not always reproduce.
        """
        if isinstance(self.omega_m, np.ndarray):
            return np.array([thermal_occupancy(w, t) for w, t in zip(
                self.omega_m.tolist(), self.bath_temperature.tolist())])
        return thermal_occupancy(self.omega_m, self.bath_temperature)

    def with_(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced.

        On a stack each new value is one value or one per point; it is
        broadcast over the stack and checked as a point's value is.
        """
        if not isinstance(self.omega_m, np.ndarray):
            return replace(self, **changes)
        shape = self.omega_m.shape
        columns = {name: _broadcast(value, shape) for name, value in changes.items()}
        _check_fields(columns)
        return _unchecked(SystemParams, {**vars(self), **columns})

    @classmethod
    def stack(cls, points) -> "SystemParams":
        """The stack of a sequence of points, which are not checked again."""
        rows = [(p.omega_m, p.quality_factor, p.kappa, p.detuning, p.g0,
                 p.laser_power, p.laser_wavelength, p.bath_temperature,
                 p.cavity_thermal_occupancy, p.phase_noise.gamma_l,
                 p.phase_noise.omega_band, p.phase_noise.gamma_tilde,
                 p.phase_noise.kind, p.detuning_mode) for p in points]
        numbers = np.array([r[:12] for r in rows], dtype=float).reshape(-1, 12).T
        noise = _unchecked(NoiseSpec, dict(
            kind=np.array([r[12] for r in rows], dtype="U8"),
            gamma_l=numbers[9], omega_band=numbers[10], gamma_tilde=numbers[11]))
        return _unchecked(cls, dict(
            zip(("omega_m", "quality_factor", "kappa", "detuning", "g0",
                 "laser_power", "laser_wavelength", "bath_temperature",
                 "cavity_thermal_occupancy"), numbers[:9]),
            phase_noise=noise,
            detuning_mode=np.array([r[13] for r in rows], dtype="U9")))

    @classmethod
    def repeat(cls, point: "SystemParams", count: int) -> "SystemParams":
        """The stack of ``count`` copies of one point."""
        return cls.stack([point]).take(np.zeros(count, dtype=int))

    def __len__(self) -> int:
        return len(self.omega_m)

    def take(self, idx) -> "SystemParams":
        """The stack of the points at the indices ``idx``."""
        return _take(self, idx)


@dataclass(frozen=True)
class SteadyState:
    """Classical working point of the driven cavity.

    ``all_roots`` lists every admissible intracavity intensity |alpha_s|^2
    of the static cubic (ascending); ``branch`` records which one was taken.
    The working points of a stack are the same record with one array item
    per point in every field; there ``all_roots`` is (N, 3), each row
    NaN-padded.
    """

    alpha_abs: float  # |alpha_s|
    photon_number: float  # |alpha_s|^2
    delta_eff: float  # effective detuning, rad/s
    delta_bare: float  # bare detuning, rad/s
    q_static: float  # static mechanical displacement, dimensionless
    g_eff: float  # field-enhanced coupling G = g0*sqrt(2)*|alpha_s|, rad/s
    branch: str  # "monostable" | "lower" | "middle" | "upper"
    all_roots: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.alpha_abs)

    def __getitem__(self, i: int) -> "SteadyState":
        """The working point ``i`` of a stack."""
        roots = self.all_roots[i].tolist()
        return SteadyState(
            *(getattr(self, f.name)[i].item() for f in fields(self)[:-1]),
            all_roots=tuple(r for r in roots if r == r))

    def take(self, idx) -> "SteadyState":
        """The stack of the working points at the indices ``idx``."""
        return _take(self, idx)


def thermal_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein occupancy 1/(exp(hbar*omega/kB*T) - 1).

    Returns 0 in the zero-temperature limit.
    """
    if not 0 < omega < math.inf:
        raise ValueError("omega must be > 0")
    if not 0 <= temperature < math.inf:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    return 1.0 / math.expm1(x)


def drive_amplitude(params):
    """Coherent drive amplitude sqrt(2*kappa*P/(hbar*omega_laser)), 1/s.

    Of one point, or of each point of a stack.
    """
    return np.sqrt(2.0 * params.kappa * params.laser_power
                   / (HBAR * params.omega_laser))


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coeffs`` (highest first) at ``x``.

    The multiply-add sequence of ``np.polyval``, less its first step
    0*x + c0, which is c0 for every finite x. Coefficients may be arrays
    of x's shape.
    """
    y = coeffs[0]
    for c in coeffs[1:]:
        y = y * x + c
    return y


# with finite coefficients the cubic is negative at I=0 and grows without
# bound, so it lacks an admissible root only where finite inputs overflow
_OVERFLOW = ("intensity cubic produced no admissible root: products of the "
             "finite inputs overflow the float range")


def _cubic_roots(coeffs: np.ndarray) -> np.ndarray:
    """``np.roots`` of every row of an (N, 4) coefficient stack, NaN-padded to (N, 3).

    Rows whose leading and trailing coefficients are nonzero share one
    ``eigvals`` call on the companion matrices that ``np.roots`` builds, so
    their roots are the same to the bit; the rest go through ``np.roots``,
    which strips those zeros.
    """
    regular = (coeffs[:, 0] != 0.0) & (coeffs[:, 3] != 0.0)
    companion = np.zeros((len(coeffs), 3, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    irregular = np.flatnonzero(~regular)
    companion[irregular] = 0.0
    try:
        roots = np.linalg.eigvals(companion).astype(complex)
    except np.linalg.LinAlgError as err:  # an inf or NaN companion matrix
        raise NoPhysicalRoot(_OVERFLOW) from err
    for i in irregular:
        r = np.roots(coeffs[i])
        roots[i] = np.nan
        roots[i, :r.size] = r
    return roots


def _admissible_intensities(cubic: np.ndarray) -> np.ndarray:
    """Nonnegative real roots of each point's intensity cubic, ascending.

    ``cubic`` has one column per point: beta, delta0, kappa^2,
    kappa^2 + delta0^2 and E0^2, where beta = g0^2/omega_m and delta0 is
    the bare detuning. The cubic is
    beta^2 I^3 - 2*delta0*beta I^2 + (kappa^2 + delta0^2) I - E0^2 = 0.
    Each admissible root gets up to three Newton steps on the residual
    I*(kappa^2 + (delta0 - beta*I)^2) - E0^2, keeping the best nonnegative
    iterate. Rows are NaN-padded to three roots.
    """
    beta, delta0, kappa_sq, linear, e0_sq = cubic
    coeffs = np.array([np.float_power(beta, 2), -2.0 * delta0 * beta, linear, -e0_sq])
    roots = _cubic_roots(coeffs.T).ravel()
    # one entry per root from here on: same-shape operands keep the small
    # arrays of a single point cheap
    beta, delta0, kappa_sq, e0_sq = np.repeat(cubic[[0, 1, 2, 4]], 3, axis=1)
    coeffs = np.repeat(coeffs, 3, axis=1)
    scale = np.maximum(e0_sq / coeffs[2], 1.0)
    # NaN padding compares false, so it is never admissible
    admissible = ((np.abs(roots.imag)
                   <= 1e-8 * np.maximum(np.hypot(roots.real, roots.imag), scale))
                  & (roots.real >= -1e-8 * scale))

    def residual(x):
        # float_power is libm's pow, like a scalar ``delta ** 2``; squaring
        # differs from it in the last bit for about one value in a thousand
        delta = delta0 - beta * x
        return np.abs(x * (kappa_sq + np.float_power(delta, 2)) - e0_sq)

    deriv = coeffs[:-1] * np.arange(3.0, 0.0, -1.0)[:, None]
    x = np.maximum(roots.real, 0.0)
    best, best_res = np.where(admissible, x, np.nan), residual(x)
    active = admissible
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            slope = _horner(deriv, x)
            active &= slope != 0.0
            # a root that stopped keeps its best iterate: x no longer matters
            x = x - _horner(coeffs, x) / slope
            res = residual(x)
            better = active & (res < best_res) & (x >= 0)
            np.copyto(best, x, where=better)
            np.copyto(best_res, res, where=better)
    return np.sort(best.reshape(-1, 3), axis=1)


def solve_steady_state(params, branch: str = "lower") -> SteadyState:
    """Solve the classical steady state of the driven cavity.

    In "effective" detuning mode the intensity follows in closed form and
    the bare detuning is backed out; in "bare" mode the static cubic is
    solved and a root is selected by ``branch`` ("lower", "middle", or
    "upper"; ignored when the cubic is monostable).

    ``params`` is one point, giving one working point, or a stack or a
    sequence of points, giving their stacked working points. One
    ``eigvals`` call finds the roots of every point's intensity cubic and
    the Newton polish runs on all of them at once, so a point gets the
    same bits alone as inside a stack. Raises NoPhysicalRoot, naming the
    overflow, if a point's cubic or closed-form intensity overflows or a
    bare-detuning point has no admissible root.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}")
    if not isinstance(params, SystemParams):
        params = SystemParams.stack(params)
    point = not isinstance(params.omega_m, np.ndarray)
    p = SystemParams.stack([params]) if point else params
    # float_power is libm's pow, like a scalar ``x ** 2``; squaring differs
    # from it in the last bit for about one value in a thousand
    e0 = drive_amplitude(p)
    e0_sq = e0 * e0
    beta = np.float_power(p.g0, 2) / p.omega_m
    kappa_sq = np.float_power(p.kappa, 2)
    effective = p.detuning_mode == EFFECTIVE
    closed_form = e0_sq / (kappa_sq + np.float_power(p.detuning, 2))
    delta0 = np.where(effective, p.detuning + beta * closed_form, p.detuning)
    linear = kappa_sq + np.float_power(delta0, 2)
    cubic = np.array([beta, delta0, kappa_sq, linear, e0_sq])
    coupled = p.g0 != 0.0
    if coupled.all():
        roots = _admissible_intensities(cubic)
    else:
        roots = np.full((len(p), 3), np.nan)
        roots[coupled] = _admissible_intensities(cubic[:, coupled])
        # without coupling the cubic degenerates to its linear term
        roots[~coupled, 0] = (e0_sq / linear)[~coupled]

    count = (roots == roots).sum(axis=1)
    # effective mode: the closed-form intensity, tagged by the nearest root;
    # bare mode: the root the branch policy picks among three, else the one
    # fmin turns the NaN padding into inf, so it is never the nearest
    distance = np.fmin(np.abs(roots - closed_form[:, None]), np.inf)
    idx = np.where(effective, distance.argmin(axis=1),
                   (count == 3) * _BRANCHES.index(branch))
    intensity = np.where(effective, closed_form, roots[np.arange(len(p)), idx])
    # NaN where a bare-detuning point has no admissible root, and NaN or inf
    # where an effective-detuning point's closed form overflows
    if not np.isfinite(intensity).all():
        raise NoPhysicalRoot(_OVERFLOW)
    alpha_abs = np.sqrt(intensity)
    ss = SteadyState(
        alpha_abs=alpha_abs,
        photon_number=intensity,
        delta_eff=np.where(effective, p.detuning, delta0 - beta * intensity),
        delta_bare=delta0,
        q_static=p.g0 * intensity / p.omega_m,
        g_eff=p.g0 * math.sqrt(2.0) * alpha_abs,
        branch=_BRANCH_TAGS[(count > 1) * (idx + 1)],
        all_roots=roots,
    )
    return ss[0] if point else ss


def power_for_coupling(params: SystemParams, g_target: float) -> float:
    """Input power that realizes a field-enhanced coupling ``g_target``.

    Valid in effective-detuning mode, where |alpha_s| depends on power
    in closed form.
    """
    if params.detuning_mode != EFFECTIVE:
        raise ValueError("power_for_coupling requires effective detuning mode")
    if params.g0 <= 0:
        raise ValueError("power_for_coupling requires g0 > 0")
    alpha_abs = g_target / (params.g0 * math.sqrt(2.0))
    e0_sq = alpha_abs ** 2 * (params.kappa ** 2 + params.detuning ** 2)
    return e0_sq * HBAR * params.omega_laser / (2.0 * params.kappa)
