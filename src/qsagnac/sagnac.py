"""Fiber loop geometry, Sagnac phase, scale factor, and transmission model.

A fiber loop of effective area A rotating at angular rate Omega picks up a
phase shift between its counter-propagating modes

    phi_s = 8 pi A Omega cos(Theta) / (lambda c)

where Theta is the angle between the loop normal and the rotation axis.
The scale factor S = 8 pi A / (lambda c) converts rotation rate to phase.
check_config checks a whole JSON config against its schema once, and
config_kwargs then reads each of its blocks, the geometry block here and
the others in sensedesign and cli.
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used throughout, as the module's CONSTANTS."""

    c: float = 2.9979e8              # speed of light, m/s
    omega_earth: float = 7.292115e-5  # Earth rotation rate, rad/s
    omega_gr_ratio: float = 1e-9     # relativistic correction, fraction of omega_earth

    def __post_init__(self):
        if self.c <= 0.0 or self.omega_earth <= 0.0 or self.omega_gr_ratio <= 0.0:
            raise ValueError("physical constants must be positive")

    @property
    def omega_gr(self) -> float:
        return self.omega_gr_ratio * self.omega_earth


CONSTANTS = PhysicalConstants()


class SwitchState(Enum):
    """Optical switch routing the light through the loop (on) or past it (off)."""

    ON = "on"
    OFF = "off"


# off state: loop bypassed, residual transmission of the switch path
OFF_TRANSMISSION = 0.9


@dataclass(frozen=True)
class InterferometerGeometry:
    """Wound-fiber loop geometry.

    The effective area is the sum over turns.  n_t turns wound on a square
    frame of side L_f / (4 n_t) enclose A = (1/n_t) (L_f/4)^2; n_t circular
    turns of perimeter P enclose A = n_t pi (P / 2 pi)^2.

    frame_angle is the angle between the loop normal and the rotation axis
    (projection cos); latitude applies to surface-parallel loops whose
    projection is sin(latitude).  Angles in radians, lengths in meters.
    """

    shape: str
    fiber_length: float
    perimeter: float
    turns: int
    effective_area: float
    frame_angle: float = 0.0
    latitude: float = 0.0
    wavelength: float = 1550e-9

    def __post_init__(self):
        if self.shape not in ("square", "circular"):
            raise ValueError(f"unknown loop shape {self.shape!r}")
        if min(self.fiber_length, self.perimeter, self.effective_area,
               self.wavelength) <= 0.0:
            raise ValueError("lengths, area and wavelength must be positive")
        if self.turns < 1:
            raise ValueError("need at least one turn")
        # perimeter, turns and total length must describe the same winding
        if abs(self.turns - self.fiber_length / self.perimeter) > 1.0:
            raise ValueError(
                f"inconsistent winding: {self.turns} turns of perimeter "
                f"{self.perimeter} m do not add up to {self.fiber_length} m")

    @classmethod
    def square(cls, fiber_length, turns, frame_angle=0.0, latitude=0.0,
               wavelength=1550e-9, effective_area=None):
        """Square frame wound with `turns` turns of total fiber length `fiber_length`."""
        perimeter = fiber_length / turns
        side = perimeter / 4.0
        area = side * side * turns if effective_area is None else effective_area
        return cls("square", fiber_length, perimeter, turns, area,
                   frame_angle, latitude, wavelength)

    @classmethod
    def circular(cls, fiber_length, perimeter, frame_angle=0.0, latitude=0.0,
                 wavelength=1550e-9, effective_area=None):
        """Circular coil of given single-turn perimeter; turn count is rounded."""
        turns = int(round(fiber_length / perimeter))
        radius = perimeter / (2.0 * math.pi)
        area = turns * math.pi * radius * radius if effective_area is None else effective_area
        return cls("circular", fiber_length, perimeter, turns, area,
                   frame_angle, latitude, wavelength)


def scale_factor(geom):
    """Phase per unit rotation rate, S = 8 pi A / (lambda c), in seconds."""
    return 8.0 * math.pi * geom.effective_area / (geom.wavelength * CONSTANTS.c)


def sagnac_phase(geom, omega, switch=SwitchState.ON):
    """Rotation phase picked up in one pass; 0 in the off state, which bypasses the loop."""
    if switch is SwitchState.OFF:
        return 0.0
    return scale_factor(geom) * omega * math.cos(geom.frame_angle)


def switch_transmission(switch):
    """Power transmission of the switch path relative to the on state."""
    return 1.0 if switch is SwitchState.ON else OFF_TRANSMISSION


def transmission(alpha_db_per_km, fiber_length, n_photons=1):
    """Probability that all n photons of a probe survive the fiber.

    alpha is the loss coefficient in dB/km, fiber_length in meters.
    Single-photon survival is eta = 10^(-alpha L / 10); an n-photon
    probe survives with eta^n.
    """
    if alpha_db_per_km < 0.0:
        raise ValueError("loss coefficient must be >= 0")
    if fiber_length < 0.0:
        raise ValueError("fiber length must be >= 0")
    if n_photons < 1:
        raise ValueError("need at least one photon")
    eta = 10.0 ** (-alpha_db_per_km * (fiber_length / 1000.0) / 10.0)
    return eta ** n_photons


def _json_type_needed(value, kind):
    """The JSON type that kind reads, or None when value is of that type.

    bool reads a boolean, str a string, int an integral number and float
    and from_degrees any number; a boolean is not a number, so no value is
    coerced into another type.
    """
    if kind is bool:
        return None if isinstance(value, bool) else "boolean"
    if kind is str:
        return None if isinstance(value, str) else "string"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "integer" if kind is int else "number"
    if kind is int and not (isinstance(value, int) or value.is_integer()):
        return "integer"
    return None


def check_config(value, schema, where="config"):
    """Raise ValueError, naming the key path, where value does not fit schema.

    A dict schema is a JSON object of its keys and [spec] a JSON array of
    spec.  A (keyword, type) entry is one value of the JSON type that type
    reads (see _json_type_needed), a finite one if a number, and a
    (keyword, [type]) entry a JSON array of such values.  null fits no
    schema.
    """
    if isinstance(schema, tuple):
        schema = schema[1]
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: {value!r} is not a JSON object")
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
        for key, item in value.items():
            check_config(item, schema[key], f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: {value!r} is not a JSON array")
        for i, item in enumerate(value):
            check_config(item, schema[0], f"{where}[{i}]")
    else:
        needed = _json_type_needed(value, schema)
        if needed:
            raise ValueError(f"{where}: {value!r} is not a JSON {needed}")
        # NaN, an infinity, or an integer too large for a float
        if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: non-finite number {value!r}")


def config_kwargs(cfg, table):
    """Keyword arguments from a checked block through a key -> (keyword, type) table.

    cfg is a block that check_config has passed, so each value already has
    the JSON type and shape its key declares; nothing is checked here.  Only
    keys present in cfg are passed on, so every default stays with the
    signature it configures.  The type converts the value, or each item of
    a (keyword, [type]) list.
    """
    kwargs = {}
    for key, (field, kind) in table.items():
        if key in cfg:
            value = cfg[key]
            kwargs[field] = ([kind[0](v) for v in value] if isinstance(kind, list)
                             else kind(value))
    return kwargs


def from_degrees(degrees):
    """Config converter: degrees in, radians out."""
    return math.radians(float(degrees))


_GEOMETRY_KEYS = {
    "shape": ("shape", str),
    "fiber_length_m": ("fiber_length", float),
    "turns": ("turns", int),
    "perimeter_m": ("perimeter", float),
    "frame_angle_deg": ("frame_angle", from_degrees),
    "latitude_deg": ("latitude", from_degrees),
    "wavelength_m": ("wavelength", float),
    "effective_area_m2": ("effective_area", float),
}


def geometry_from_dict(d):
    """InterferometerGeometry from its JSON form; `shape` defaults to square.

    A square loop takes `turns` and a circular one `perimeter_m`; the other
    shape's key is an error, not ignored.
    """
    kwargs = config_kwargs(d, _GEOMETRY_KEYS)
    shape = kwargs.pop("shape", "square")
    if shape == "square":
        build, other = InterferometerGeometry.square, "perimeter_m"
    elif shape == "circular":
        build, other = InterferometerGeometry.circular, "turns"
    else:
        raise ValueError(f"unknown loop shape {shape!r}")
    if other in d:
        raise ValueError(f"{other}: a {shape} loop does not read it")
    return build(**kwargs)
