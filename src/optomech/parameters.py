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

    A spec carries the drift abscissa ``pair_abscissa`` of the (psi, theta)
    pair realizing its band, NaN without one, taken when it is made and not
    a field: the band has a stationary state only where it is negative.
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
        if not 0 <= self.omega_band < math.inf:
            raise ValueError("noise band center omega_band must be >= 0")
        if not 0 <= self.gamma_tilde < math.inf:
            raise ValueError("noise bandwidth gamma_tilde must be >= 0")
        abscissa = math.nan
        if self.kind == "bandpass":
            if not self.omega_band > 0:
                raise ValueError("bandpass noise requires omega_band > 0")
            abscissa = np.linalg.eigvals(_pair_drift(self)).real.max().item()
        object.__setattr__(self, "pair_abscissa", abscissa)

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


def _pair_drift(spec: NoiseSpec) -> np.ndarray:
    """Drift of the (psi, theta) pair realizing the band of ``spec``.

    2x2 for one noise spec, (N, 2, 2) for the noise of a stack.
    """
    band = spec.omega_band
    a = np.zeros(np.shape(band) + (2, 2))
    a[..., 0, 1] = band
    a[..., 1, 0] = -band
    a[..., 1, 1] = -spec.gamma_tilde
    return a


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


def _one_point(name: str, *values) -> None:
    """Raise ValueError naming ``name`` where a value is a stack's column."""
    if any(np.ndim(v) for v in values):
        raise ValueError(f"{name} takes one point, not a stack")


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

    A record carries the Bose occupancy ``n_th`` of its bath at ``omega_m``,
    taken when it is made and not a field; a stack holds it as a column, as
    its noise spec holds ``pair_abscissa``.

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
        # each range is checked as the condition that holds, finite
        # included, so NaN and infinity fail it; on a stack, in every column
        values = vars(self)
        for name in _POSITIVE_FIELDS:
            if not _all(_finite(values[name]) & (values[name] > 0)):
                raise ValueError(f"{name} must be > 0")
        for name in _NONNEGATIVE_FIELDS:
            if not _all(_finite(values[name]) & (values[name] >= 0)):
                raise ValueError(f"{name} must be >= 0")
        if not _all(_finite(self.detuning)):
            raise ValueError("detuning must be finite")
        mode = self.detuning_mode
        if not _all((mode == EFFECTIVE) | (mode == BARE)):
            raise ValueError(f"detuning_mode must be '{EFFECTIVE}' or '{BARE}'")
        object.__setattr__(self, "n_th", _bose(self.omega_m, self.bath_temperature))

    @property
    def gamma_m(self) -> float:
        """Mechanical damping rate omega_m / Q, rad/s."""
        return self.omega_m / self.quality_factor

    @property
    def omega_laser(self) -> float:
        """Drive angular frequency 2*pi*c / wavelength, rad/s."""
        return 2.0 * math.pi * C_LIGHT / self.laser_wavelength

    def with_(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced, checked and with
        ``n_th`` taken again as a new record is.

        On a stack each new value is one value or one per point, broadcast
        over the stack first. A name that is not a field raises TypeError.
        """
        if isinstance(self.omega_m, np.ndarray):
            changes = {name: _broadcast(value, self.omega_m.shape)
                       for name, value in changes.items()}
        return replace(self, **changes)

    @classmethod
    def stack(cls, points) -> "SystemParams":
        """The stack of points (not stacks), not checked or derived again."""
        rows = [(p.omega_m, p.quality_factor, p.kappa, p.detuning, p.g0,
                 p.laser_power, p.laser_wavelength, p.bath_temperature,
                 p.cavity_thermal_occupancy, p.n_th, p.phase_noise.gamma_l,
                 p.phase_noise.omega_band, p.phase_noise.gamma_tilde,
                 p.phase_noise.pair_abscissa, p.phase_noise.kind,
                 p.detuning_mode) for p in points]
        if any(np.ndim(r[0]) for r in rows):
            raise ValueError("SystemParams.stack takes points, not stacks")
        numbers = np.array([r[:14] for r in rows], dtype=float).reshape(-1, 14).T
        noise = _unchecked(NoiseSpec, dict(
            kind=np.array([r[14] for r in rows], dtype="U8"),
            gamma_l=numbers[10], omega_band=numbers[11], gamma_tilde=numbers[12],
            pair_abscissa=numbers[13]))
        return _unchecked(cls, dict(
            zip(("omega_m", "quality_factor", "kappa", "detuning", "g0",
                 "laser_power", "laser_wavelength", "bath_temperature",
                 "cavity_thermal_occupancy", "n_th"), numbers[:10]),
            phase_noise=noise,
            detuning_mode=np.array([r[15] for r in rows], dtype="U9")))

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


def thermal_occupancy(omega, temperature):
    """Bose-Einstein occupancy 1/(exp(hbar*omega/kB*T) - 1).

    Of one mode, or of each item of arrays ``omega`` and ``temperature``.
    Returns 0 in the zero-temperature limit and wherever the exponential
    overflows, a bath too cold to hold a phonon.
    """
    omega = np.asarray(omega, dtype=float)
    temperature = np.asarray(temperature, dtype=float)
    if not (np.isfinite(omega) & (omega > 0)).all():
        raise ValueError("omega must be > 0")
    if not (np.isfinite(temperature) & (temperature >= 0)).all():
        raise ValueError("temperature must be >= 0")
    return _bose(omega, temperature)


def _bose(omega, temperature):
    """``thermal_occupancy`` of arguments in its range, which it does not check."""
    # T = 0 makes the exponent inf, and 1/inf is the limit 0
    with np.errstate(divide="ignore", over="ignore"):
        n = 1.0 / np.expm1(np.divide(HBAR * omega, K_B * temperature))
    return n if n.ndim else float(n)


def drive_amplitude(params):
    """Coherent drive amplitude sqrt(2*kappa*P/(hbar*omega_laser)), 1/s.

    Of one point, or of each point of a stack.
    """
    return np.sqrt(2.0 * params.kappa * params.laser_power
                   / (HBAR * params.omega_laser))


# with finite coefficients the cubic is negative at I=0 and grows without
# bound, so it lacks an admissible root only where finite inputs overflow
_OVERFLOW = ("intensity cubic produced no admissible root: products of the "
             "finite inputs overflow the float range")
# a root counts as real where its imaginary part is within this fraction of
# the larger of its modulus and max(E0^2/(kappa^2 + delta0^2), 1); it
# decides a near-double pair of the deflated cubic, a fold, as real
_IMAGINARY_TOL = 1e-8


def _bare_intensity(beta, delta0, kappa_sq, e0_sq, branch: str):
    """Intensity E0^2/(kappa^2 + Delta^2) of each bare-detuning point, on
    ``branch`` where the point has three working points.

    The effective detuning Delta = delta0 - beta*I solves the monic cubic
    Delta^3 - delta0 Delta^2 + kappa^2 Delta + beta E0^2 - delta0 kappa^2 = 0.
    With Q = (delta0^2 - 3 kappa^2)/9 and
    R = (27 beta E0^2 - 2 delta0^3 - 18 delta0 kappa^2)/54 it has three real
    roots where R^2 < Q^3, taken by Viete's trigonometric form, and else one,
    taken by Cardano's (Press et al., Numerical Recipes, 3rd ed., 5.6); one
    Newton step on (Delta - delta0)(kappa^2 + Delta^2) + beta E0^2 polishes
    it. The largest Delta gives the smallest intensity. Elementwise; NaN
    where products of the inputs overflow.
    """
    k = (1, 2, 0)[_BRANCHES.index(branch)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        drive = beta * e0_sq
        q = (delta0 * delta0 - 3.0 * kappa_sq) / 9.0
        r = (27.0 * drive - 2.0 * delta0 ** 3 - 18.0 * delta0 * kappa_sq) / 54.0
        q_cubed = q * q * q
        root_q = np.sqrt(q)
        theta = np.arccos(np.clip(r / (q * root_q), -1.0, 1.0))
        viete = -2.0 * root_q * np.cos((theta + 2.0 * math.pi * k) / 3.0)
        a = -np.copysign(np.cbrt(np.abs(r) + np.sqrt(r * r - q_cubed)), r)
        cardano = a + np.where(a != 0.0, q / a, 0.0)
        delta = np.where(r * r < q_cubed, viete, cardano) + delta0 / 3.0
        slope = (3.0 * delta - 2.0 * delta0) * delta + kappa_sq
        residual = (delta - delta0) * (kappa_sq + delta * delta) + drive
        delta = np.where(slope != 0.0, delta - residual / slope, delta)
        return e0_sq / (kappa_sq + delta * delta)


def _deflated_intensities(cubic: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Nonnegative real roots of each point's intensity cubic, ascending,
    given one root ``known`` of each.

    ``cubic`` has one column per point: beta, delta0, kappa^2 + delta0^2
    and E0^2, where beta = g0^2/omega_m and delta0 is the bare detuning;
    the cubic is
    beta^2 I^3 - 2*delta0*beta I^2 + (kappa^2 + delta0^2) I - E0^2 = 0.
    Synthetic division by (I - known) leaves q2 I^2 + q1 I + q0, whose roots
    are taken without cancellation as q/q2 and q0/q,
    q = -(q1 + sgn(q1) sqrt(q1^2 - 4 q2 q0))/2 (Press et al., Numerical
    Recipes, 3rd ed., 5.6). A complex pair whose imaginary part is within
    ``_IMAGINARY_TOL`` counts as a real double root, as at a fold; a root
    that is not finite is not admissible. Rows are NaN-padded to three
    roots. Raises NoPhysicalRoot where the discriminant is not finite, as
    it is wherever the known root or a coefficient of the cubic or of the
    quadratic is not.
    """
    beta, delta0, linear, e0_sq = cubic
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q2 = beta * beta
        q1 = -2.0 * delta0 * beta + q2 * known
        q0 = linear + q1 * known
        disc = q1 * q1 - 4.0 * q2 * q0
        if not np.isfinite(disc).all():
            raise NoPhysicalRoot(_OVERFLOW)
        # a complex pair has modulus sqrt(q0/q2) and imaginary part
        # sqrt(-disc)/(2 q2)
        gap = np.sqrt(np.abs(disc))
        tol = 2.0 * _IMAGINARY_TOL * np.maximum(
            np.sqrt(np.abs(q0 * q2)), q2 * np.maximum(e0_sq / linear, 1.0))
        real = (disc >= 0.0) | (gap <= tol)
        q = -0.5 * (q1 + np.copysign(np.where(disc > 0.0, gap, 0.0), q1))
        pair = np.array([q / q2, q0 / q])
    # NaN fails both comparisons, so it is never admissible
    pair = np.where(real & (pair >= 0.0) & (pair < math.inf), pair, np.nan)
    return np.sort(np.array([known, *pair]).T, axis=1)


def solve_steady_state(params, branch: str = "lower") -> SteadyState:
    """Solve the classical steady state of the driven cavity.

    In "effective" detuning mode the intensity follows in closed form and
    the bare detuning is backed out; in "bare" mode the static cubic is
    solved and a root is selected by ``branch`` ("lower", "middle", or
    "upper"; ignored when the cubic is monostable).

    ``params`` is one point, giving one working point, or a stack or a
    sequence of points, giving their stacked working points. Each coupled,
    driven point knows one root I0 of its intensity cubic: an
    effective-detuning point the closed form E0^2/(kappa^2 + Delta^2), a
    bare-detuning point the same with Delta the root of the monic cubic
    that the effective detuning solves, in closed form on ``branch``
    (``_bare_intensity``). Every such point deflates its cubic by I0 and
    solves the quadratic left (``_deflated_intensities``); a point without
    coupling or drive takes the root of the linear term. No route solves
    an eigenproblem, and each is elementwise, so a point gets the same bits
    alone as inside any stack. An effective point's tag is the position of
    I0 among its admissible roots; a bare point with three takes the one
    ``branch`` names, else its one. Raises NoPhysicalRoot, naming the
    overflow, if a point's cubic, deflated quadratic or closed-form
    intensity overflows.
    """
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be one of {_BRANCHES}")
    if not isinstance(params, SystemParams):
        params = SystemParams.stack(params)
    point = not isinstance(params.omega_m, np.ndarray)
    p = SystemParams.stack([params]) if point else params
    count = len(p)
    e0 = drive_amplitude(p)
    e0_sq = e0 * e0
    beta = p.g0 * p.g0 / p.omega_m
    kappa_sq = p.kappa * p.kappa
    effective = p.detuning_mode == EFFECTIVE
    closed_form = e0_sq / (kappa_sq + p.detuning * p.detuning)
    delta0 = np.where(effective, p.detuning + beta * closed_form, p.detuning)
    linear = kappa_sq + delta0 * delta0
    cubic = np.array([beta, delta0, linear, e0_sq])
    # a cubic with a nonzero leading coefficient beta^2 and constant E0^2;
    # without coupling or drive it degenerates to its linear term
    coupled = (beta * beta != 0.0) & (e0_sq != 0.0)
    known = closed_form
    if not effective.all():
        known = np.where(effective, closed_form, _bare_intensity(
            beta, delta0, kappa_sq, e0_sq, branch))
    roots = np.full((count, 3), np.nan)
    roots[:, 0] = e0_sq / linear
    deflated = np.count_nonzero(coupled)
    if deflated == count:
        roots = _deflated_intensities(cubic, known)
    elif deflated:
        roots[coupled] = _deflated_intensities(cubic[:, coupled], known[coupled])

    found = (roots == roots).sum(axis=1)
    # effective mode: the closed-form intensity, tagged by its position
    # among the roots, which hold it (the first of equal ones); bare mode:
    # the root the branch policy picks among three, else the one, which
    # is I0 wherever the closed form and the deflation agree
    idx = np.where(effective, (roots < known[:, None]).sum(axis=1),
                   (found == 3) * _BRANCHES.index(branch))
    intensity = np.where(effective, closed_form, roots[np.arange(count), idx])
    # NaN or inf where the closed form or the linear term overflows
    if not np.isfinite(intensity).all():
        raise NoPhysicalRoot(_OVERFLOW)
    alpha_abs = np.sqrt(intensity)
    # every field was just made here: the record takes them as they are
    ss = _unchecked(SteadyState, dict(
        alpha_abs=alpha_abs,
        photon_number=intensity,
        delta_eff=np.where(effective, p.detuning, delta0 - beta * intensity),
        delta_bare=delta0,
        q_static=p.g0 * intensity / p.omega_m,
        g_eff=p.g0 * math.sqrt(2.0) * alpha_abs,
        branch=_BRANCH_TAGS[(found > 1) * (idx + 1)],
        all_roots=roots,
    ))
    return ss[0] if point else ss


def power_for_coupling(params: SystemParams, g_target):
    """Input power that realizes a field-enhanced coupling ``g_target``.

    Valid in effective-detuning mode, where |alpha_s| depends on power in
    closed form, for targets finite and >= 0: one, or one per point of a stack.
    """
    if np.any(params.detuning_mode != EFFECTIVE):
        raise ValueError("power_for_coupling requires effective detuning mode")
    if np.any(params.g0 <= 0):
        raise ValueError("power_for_coupling requires g0 > 0")
    if not np.all(_finite(g_target) & (g_target >= 0)):
        raise ValueError("power_for_coupling requires a finite g_target >= 0")
    alpha_abs = g_target / (params.g0 * math.sqrt(2.0))
    e0_sq = alpha_abs * alpha_abs * (params.kappa * params.kappa
                                     + params.detuning * params.detuning)
    return e0_sq * HBAR * params.omega_laser / (2.0 * params.kappa)
