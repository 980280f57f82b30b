"""Shared physical constants, S=1 spin operators, units and data records.

Unit conventions used throughout the package:

* magnetic field B0           mT
* angles                      rad
* frequencies f               MHz (ordinary, cycles per us)
* angular frequencies omega   rad/us  (omega = 2*pi*f)
* times                       us
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# the photon-count channels in synthesis order: signal, its 3 pi / 2
# complement, bright reference, dark reference
PHOTON_CHANNELS = ("SIG1", "SIG2", "REF1", "REF2")


class NvSenseError(Exception):
    """Base class for toolkit-specific failures."""


class DegenerateTransitionError(NvSenseError, ValueError):
    """Eigenstate labels cannot be assigned unambiguously."""


class DegenerateReferenceError(NvSenseError, ValueError):
    """Reference channels too close together to normalize against."""


class NoPeakError(NvSenseError, RuntimeError):
    """Peak fit did not find a feature above the residual noise."""


class TraceFormatError(NvSenseError, ValueError):
    """On-disk trace data violates the CSV contract."""


class ConfigError(NvSenseError, ValueError):
    """Run configuration failed schema validation."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Physical constants; every physics function reads DEFAULT_CONSTANTS.

    gamma_nv, gamma_c13, gamma_n14 and mu_b_over_h are gyromagnetic ratios
    in MHz/mT.  zero_field_d is the S=1 zero-field splitting in MHz.
    """

    gamma_nv: float = 28.024        # MHz/mT
    zero_field_d: float = 2870.0    # MHz
    gamma_c13: float = 0.010708     # MHz/mT
    gamma_n14: float = 0.003077     # MHz/mT
    mu_b_over_h: float = 13.9962    # MHz/mT, Bohr magneton over Planck constant

    def __post_init__(self):
        for name in ("gamma_nv", "zero_field_d", "gamma_c13", "gamma_n14",
                     "mu_b_over_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        g_nv = self.gamma_nv / self.mu_b_over_h
        if not 2.000 <= g_nv <= 2.005:
            raise ValueError(
                f"gamma_nv/mu_b_over_h = {g_nv:.4f} is outside the NV g-factor "
                "range [2.000, 2.005]")


DEFAULT_CONSTANTS = PhysicalConstants()


def spin1_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for S=1 in the {|+1>, |0>, |-1>} basis."""
    s = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    sy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]],
                  dtype=complex)
    sz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    for m in (sx, sy, sz):
        m.setflags(write=False)
    return sx, sy, sz


SX, SY, SZ = spin1_operators()


class XKind(enum.Enum):
    """What the swept x axis of a trace means (and its unit)."""

    FREQUENCY = "frequency"            # MHz
    PULSE_LENGTH = "pulse_length"      # us
    EVOLUTION_TIME = "evolution_time"  # us

    @property
    def unit(self) -> str:
        return "MHz" if self is XKind.FREQUENCY else "us"


@dataclass(frozen=True)
class Trace:
    """A swept measurement: one x grid, one or more named value channels.

    Channel values are unitless (photon counts per shot, or normalized
    populations).  n_avg records how many sequence repetitions were
    averaged per point per channel.
    """

    x: np.ndarray
    x_kind: XKind
    channels: dict[str, np.ndarray]
    n_avg: int = 1

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("x must be a 1-d grid with at least 2 points")
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite values")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        if not isinstance(self.x_kind, XKind):
            raise ValueError(f"x_kind must be an XKind, got {self.x_kind!r}")
        if not self.channels:
            raise ValueError("trace needs at least one channel")
        clean = {}
        for name, values in self.channels.items():
            name = str(name)
            if "".join(name.splitlines()) != name:  # CSV rows are lines
                raise ValueError(f"channel name {name!r} has a line break")
            v = np.asarray(values, dtype=float)
            if v.shape != x.shape:
                raise ValueError(
                    f"channel {name!r} has shape {v.shape}, x has {x.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"channel {name!r} contains non-finite values")
            v = v.copy()
            v.setflags(write=False)
            clean[name] = v
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "channels", clean)
        if not (isinstance(self.n_avg, (int, np.integer)) and self.n_avg >= 1):
            raise ValueError(f"n_avg must be a positive integer, got {self.n_avg!r}")
        object.__setattr__(self, "n_avg", int(self.n_avg))

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(
                f"no channel {name!r}; trace has {sorted(self.channels)}") from None

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    def with_channels(self, channels: dict[str, np.ndarray]) -> "Trace":
        """Same grid and metadata, different channel set."""
        return Trace(self.x, self.x_kind, channels, self.n_avg)


@dataclass(frozen=True)
class FieldEstimate:
    """Static field magnitude and polar tilt from the NV axis."""

    b0: float            # mT
    theta: float         # rad
    b0_err: float = 0.0  # mT, 1 sigma
    theta_err: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.b0) and self.b0 >= 0):
            raise ValueError(f"b0 must be finite and >= 0, got {self.b0!r}")
        if not (math.isfinite(self.theta) and 0 <= self.theta <= math.pi / 2):
            raise ValueError(
                f"theta must lie in [0, pi/2], got {self.theta!r}")
        for name in ("b0_err", "theta_err"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
