"""Fiber loop geometry, Sagnac phase, scale factor, and transmission model.

A fiber loop of effective area A rotating at angular rate Omega picks up a
phase shift between its counter-propagating modes

    phi_s = 8 pi A Omega cos(Theta) / (lambda c)

where Theta is the angle between the loop normal and the rotation axis.
The scale factor S = 8 pi A / (lambda c) converts rotation rate to phase.

Every stage imports this module, and it loads no numpy, so it also holds
what the CLI needs without importing the stages: the exit-3 errors of the
estimation pipeline and of the design optimizer, and new_file, through
which every output is written.
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum


class FitError(RuntimeError):
    """Fit failed to converge or inputs cannot be fit."""


class DegenerateDesignError(ValueError):
    """Data do not constrain the model (span too small, flat fringe...)."""


class UndefinedRatioError(ValueError):
    """Denominator consistent with zero; the ratio carries no information."""


class InfeasibleDesignError(ValueError):
    """No design inside the search bounds reaches the requested target."""


@contextmanager
def new_file(path, newline=None):
    """Open path for writing text as a new file; remove it if the body raises.

    A file already at path is unlinked first and never truncated: ext4
    starts writeback of a truncated (or renamed-over) file when it is
    closed, and the next rewrite of the path waits for that I/O.  A hard
    link or symlink at path is replaced, not written through.
    """
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    f = open(path, "x", newline=newline)
    try:
        with f:
            yield f
    except BaseException:
        os.remove(path)
        raise


C = 2.9979e8                  # speed of light, m/s
OMEGA_EARTH = 7.292115e-5      # Earth rotation rate, rad/s
OMEGA_GR = 1e-9 * OMEGA_EARTH  # relativistic correction to it, rad/s


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

    frame_angle, in radians, is the angle between the loop normal and the
    rotation axis; a design spec carries its own orientation.  Lengths in meters.
    """

    shape: str
    fiber_length: float
    perimeter: float
    turns: int
    effective_area: float
    frame_angle: float = 0.0
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
    def square(cls, fiber_length, turns, frame_angle=0.0, wavelength=1550e-9,
               effective_area=None):
        """Square frame wound with `turns` turns of total fiber length `fiber_length`."""
        if turns < 1:
            raise ValueError("need at least one turn")
        perimeter = fiber_length / turns
        side = perimeter / 4.0
        area = side * side * turns if effective_area is None else effective_area
        return cls("square", fiber_length, perimeter, turns, area,
                   frame_angle, wavelength)

    @classmethod
    def circular(cls, fiber_length, perimeter, frame_angle=0.0,
                 wavelength=1550e-9, effective_area=None):
        """Circular coil of given single-turn perimeter; turn count is rounded."""
        if perimeter <= 0.0:
            raise ValueError("perimeter must be positive")
        turns = int(round(fiber_length / perimeter))
        radius = perimeter / (2.0 * math.pi)
        area = turns * math.pi * radius * radius if effective_area is None else effective_area
        return cls("circular", fiber_length, perimeter, turns, area,
                   frame_angle, wavelength)


def scale_factor(geom):
    """Phase per unit rotation rate, S = 8 pi A / (lambda c), in seconds."""
    return 8.0 * math.pi * geom.effective_area / (geom.wavelength * C)


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
