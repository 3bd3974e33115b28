"""JSON configuration documents with explicit-unit field names.

Inputs carry their unit in the key (``omega_m_over_2pi_hz``,
``laser_power_mw``); everything is converted to angular internal units at
this boundary. Every field of every document is read once through
``Fields``, with one type rule for numbers, and a field that no reader
takes is rejected. Validation errors cite the file and line of the
offending key where it can be located.
"""

from __future__ import annotations

import json
import math
import re

from .errors import ConfigError
from .parameters import BARE, EFFECTIVE, NoiseSpec, SystemParams
from .sweep import OUTPUT_NAMES, SweepAxis, SweepSpec, figure_recipe

TWO_PI = 2.0 * math.pi

# (quantity, {spelling: factor}, default): the internal value is the given
# value times the factor, a number or the quantity it is relative to; a
# quantity without a default is required.
PARAMETER_SPELLINGS = (
    ("omega_m", {"omega_m_over_2pi_hz": TWO_PI, "omega_m_rad_s": 1.0}, None),
    ("quality_factor", {"quality_factor": 1.0}, None),
    ("kappa", {"kappa_over_2pi_hz": TWO_PI, "kappa_over_omega_m": "omega_m",
               "kappa_rad_s": 1.0}, None),
    ("detuning", {"delta_over_omega_m": "omega_m", "delta_over_2pi_hz": TWO_PI,
                  "delta_rad_s": 1.0}, None),
    ("g0", {"g0_rad_s": 1.0}, None),
    ("laser_power", {"laser_power_mw": 1e-3, "laser_power_w": 1.0}, None),
    ("laser_wavelength", {"laser_wavelength_nm": 1e-9,
                          "laser_wavelength_m": 1.0}, 810e-9),
    ("bath_temperature", {"bath_temperature_k": 1.0}, None),
    ("cavity_thermal_occupancy", {"cavity_thermal_occupancy": 1.0}, 0.0),
)
NOISE_SPELLINGS = (
    ("gamma_l", {"linewidth_over_2pi_hz": TWO_PI, "linewidth_rad_s": 1.0}, None),
    ("omega_band", {"band_center_over_2pi_hz": TWO_PI,
                    "band_center_rad_s": 1.0}, None),
    ("gamma_tilde", {"bandwidth_over_2pi_hz": TWO_PI, "bandwidth_rad_s": 1.0,
                     "bandwidth_over_band_center": "omega_band"}, None),
)
_NOISE_QUANTITIES = {"none": 0, "white": 1, "bandpass": 3}  # leading entries taken
# ``internal_params``: each internal name is its own spelling at factor 1,
# and every noise quantity is there whatever the kind
INTERNAL_PARAMETERS = tuple((name, {name: 1.0}, default)
                            for name, _, default in PARAMETER_SPELLINGS)
INTERNAL_NOISE = tuple((name, {name: 1.0}, 0.0) for name, _, _ in NOISE_SPELLINGS)

_ABSENT = object()


class _Source:
    """Locates keys in the raw document text for error messages.

    Lookups start at offset ``start``, the key of the object being read.
    """

    def __init__(self, text: str, name: str, start: int = 0):
        self.text = text
        self.name = name
        self.start = start

    def _find(self, key: str):
        return re.compile(rf'"{re.escape(key)}"\s*:').search(self.text, self.start)

    def within(self, key: str) -> "_Source":
        """The source of the object under ``key``."""
        match = self._find(key)
        return _Source(self.text, self.name,
                       self.start if match is None else match.start())

    def error(self, key: str | None, message: str) -> ConfigError:
        where = self.name
        if key is not None:
            match = self._find(key)
            if match is not None:
                line = self.text.count("\n", 0, match.start()) + 1
                where = f"{self.name}:{line}"
            message = f'field "{key}": {message}'
        return ConfigError(f"{where}: {message}")


def load_document(path) -> tuple[dict, _Source]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err.reason} at byte "
                          f"{err.start}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level document must be a JSON object")
    return doc, _Source(text, str(path))


class Fields:
    """The fields of one JSON object that no reader has taken yet.

    Each field is taken once; ``close`` rejects whatever is left.
    """

    def __init__(self, doc: dict, src: _Source):
        self.rest = dict(doc)
        self.src = src

    def take(self, key: str, default=None):
        """Field ``key`` as given, else ``default``."""
        return self.rest.pop(key, default)

    def number(self, key: str, default=None, integer: bool = False,
               minimum=None):
        """Field ``key`` as a float (an int if ``integer``), else ``default``.

        The value must be a finite JSON number and not a bool (``json``
        reads NaN and Infinity as floats), integral if ``integer``, and at
        least ``minimum`` if one is given; a default is held to the same
        minimum. None if absent without a default.
        """
        value = self.take(key, _ABSENT)
        if value is _ABSENT:
            if default is None:
                return None
            value = default
        expected = "an integer" if integer else "a finite number"
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or isinstance(value, float) and not math.isfinite(value)
                or integer and isinstance(value, float) and not value.is_integer()):
            raise self.src.error(key, f"expected {expected}, got {value!r}")
        try:
            number = int(value) if integer else float(value)
        except OverflowError:
            raise self.src.error(key, f"expected {expected}, got {value!r}") from None
        if minimum is not None and not number >= minimum:
            raise self.src.error(key, f"must be >= {minimum}, got {value!r}")
        return number

    def object(self, key: str) -> tuple[dict, _Source] | None:
        """Field ``key``, which must be a JSON object, with its source."""
        value = self.take(key, _ABSENT)
        if value is _ABSENT:
            return None
        if not isinstance(value, dict):
            raise self.src.error(key, "must be an object")
        return value, self.src.within(key)

    def quantities(self, table) -> dict:
        """Each quantity of ``table`` in internal units, from its one spelling."""
        values = {}
        for name, spellings, default in table:
            given = [(key, value) for key in spellings
                     if (value := self.number(key)) is not None]
            if len(given) > 1:
                raise self.src.error(given[1][0],
                                     f"conflicts with {given[0][0]!r}")
            if given:
                key, value = given[0]
                factor = spellings[key]
                values[name] = value * (values[factor] if isinstance(factor, str)
                                        else factor)
            elif default is not None:
                values[name] = default
            else:
                raise self.src.error(None, f"one of {list(spellings)} is required")
        return values

    def close(self, what: str = "field") -> None:
        """Reject the first field that no reader took."""
        if self.rest:
            raise self.src.error(next(iter(self.rest)), f"unknown {what}")


def _noise(fields: Fields, internal: bool) -> NoiseSpec:
    kind = fields.take("kind")
    if not isinstance(kind, str) or kind not in _NOISE_QUANTITIES:
        raise fields.src.error("kind", "must be 'none', 'white' or 'bandpass'")
    values = fields.quantities(
        INTERNAL_NOISE if internal else NOISE_SPELLINGS[:_NOISE_QUANTITIES[kind]])
    fields.close(f"phase_noise field for kind {kind!r}")
    try:
        return NoiseSpec(kind=kind, **values)
    except ValueError as err:
        raise fields.src.error("phase_noise", str(err)) from err


def _params(fields: Fields, internal: bool = False) -> SystemParams:
    """Take the parameter fields, or ``internal_params``, out of ``fields``."""
    src = fields.src
    resolved = None if internal else fields.object("internal_params")
    if resolved is not None:
        inner = Fields(*resolved)
        params = _params(inner, internal=True)
        inner.close("internal_params field")
        return params
    values = fields.quantities(INTERNAL_PARAMETERS if internal
                               else PARAMETER_SPELLINGS)
    mode = fields.take("detuning_mode", EFFECTIVE)
    if mode not in (EFFECTIVE, BARE):
        raise src.error("detuning_mode", f"must be '{EFFECTIVE}' or '{BARE}'")
    noise = fields.object("phase_noise")
    noise = NoiseSpec.none() if noise is None else _noise(Fields(*noise), internal)
    try:
        return SystemParams(**values, phase_noise=noise, detuning_mode=mode)
    except ValueError as err:
        raise src.error(None, str(err)) from err


def params_from_config(doc: dict, src: _Source) -> SystemParams:
    """Build SystemParams from a unit-suffixed document."""
    fields = Fields(doc, src)
    params = _params(fields)
    fields.close("parameter field")
    return params


def extract_params(doc: dict, src: _Source) -> tuple[SystemParams, Fields]:
    """Parameters from a document that may also carry run-control fields.

    Accepts either a nested "params" object or parameter keys at top level.
    Returns the parameters and the fields they left, which the command
    reads its own fields from and then closes.
    """
    fields = Fields(doc, src)
    nested = fields.object("params")
    params = _params(fields) if nested is None else params_from_config(*nested)
    return params, fields


def sweep_from_config(doc: dict, src: _Source) -> SweepSpec:
    """Sweep specification: a named recipe or explicit axes over fixed params."""
    fields = Fields(doc, src)
    recipe = fields.take("recipe")
    if recipe is not None:
        grid = fields.take("grid", [80, 80])
        if (not isinstance(grid, list) or len(grid) != 2
                or not all(isinstance(g, int) and g >= 2 for g in grid)):
            raise src.error("grid", "must be a [count_x, count_y] pair of ints >= 2")
        if not isinstance(recipe, str):
            raise src.error("recipe", f"expected a recipe name, got {recipe!r}")
        fields.close("sweep field")
        try:
            return figure_recipe(recipe, grid=tuple(grid))
        except ValueError as err:
            raise src.error("recipe", str(err)) from err

    parts = {}
    for key in ("axis_x", "axis_y", "fixed"):
        parts[key] = fields.object(key)
        if parts[key] is None:
            raise src.error(None, f'field "{key}" is required (or use "recipe")')
    outputs = fields.take("outputs", list(OUTPUT_NAMES))
    if not isinstance(outputs, list):
        raise src.error("outputs", f"expected a list of output names, got {outputs!r}")
    fields.close("sweep field")
    axes = [_axis(Fields(*parts[key]), key) for key in ("axis_x", "axis_y")]
    try:
        return SweepSpec(axis_x=axes[0], axis_y=axes[1],
                         fixed=params_from_config(*parts["fixed"]),
                         outputs=tuple(outputs))
    except ValueError as err:
        raise src.error(getattr(err, "field", None), str(err)) from err


def _axis(fields: Fields, key: str) -> SweepAxis:
    name = fields.take("name")
    bounds = fields.number("min"), fields.number("max")
    count = fields.number("count", integer=True)
    scale = fields.take("scale", "linear")
    fields.close("axis field")
    if None in (*bounds, count):
        raise fields.src.error(key, "min, max and count are required")
    try:
        return SweepAxis(name=name, minimum=bounds[0], maximum=bounds[1],
                         count=count, scale=scale)
    except ValueError as err:
        raise fields.src.error(key, str(err)) from err
