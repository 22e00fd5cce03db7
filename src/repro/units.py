"""Physical quantities used across the toolchain.

The TeamPlay methodology reasons about time (seconds / cycles), energy
(joules), power (watts) and frequency (hertz) across several layers (source
annotations, static analysis, scheduling, contracts).  To avoid unit mistakes
when values cross layer boundaries, quantities are represented explicitly by
:class:`Quantity` with a dimension string, and helper constructors are
provided for the units that appear in CSL contracts.

Only the handful of dimensions the toolchain needs are supported; this is not
a general units library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

Number = Union[int, float]

#: Canonical dimension names.
TIME = "time"          # seconds
ENERGY = "energy"      # joules
POWER = "power"        # watts
FREQUENCY = "frequency"  # hertz
DIMENSIONLESS = "dimensionless"

_SCALES = {
    # time
    "s": (TIME, 1.0),
    "ms": (TIME, 1e-3),
    "us": (TIME, 1e-6),
    "ns": (TIME, 1e-9),
    # energy
    "J": (ENERGY, 1.0),
    "mJ": (ENERGY, 1e-3),
    "uJ": (ENERGY, 1e-6),
    "nJ": (ENERGY, 1e-9),
    "pJ": (ENERGY, 1e-12),
    # power
    "W": (POWER, 1.0),
    "mW": (POWER, 1e-3),
    "uW": (POWER, 1e-6),
    # frequency
    "Hz": (FREQUENCY, 1.0),
    "kHz": (FREQUENCY, 1e3),
    "MHz": (FREQUENCY, 1e6),
    "GHz": (FREQUENCY, 1e9),
}

_CANONICAL_UNIT = {TIME: "s", ENERGY: "J", POWER: "W",
                   FREQUENCY: "Hz", DIMENSIONLESS: ""}


@dataclass(frozen=True)
class Quantity:
    """A value with a physical dimension, stored in SI base units."""

    value: float
    dimension: str

    # -- constructors ------------------------------------------------------
    @staticmethod
    def parse(text: str) -> "Quantity":
        """Parse a quantity such as ``"2.5 mJ"`` or ``"48 MHz"``.

        Raises :class:`ValueError` on unknown units.
        """
        parts = text.strip().split()
        if len(parts) == 1:
            # Allow "2.5mJ" without whitespace.
            stripped = parts[0]
            idx = len(stripped)
            while idx > 0 and not (stripped[idx - 1].isdigit() or stripped[idx - 1] == "."):
                idx -= 1
            parts = [stripped[:idx], stripped[idx:]]
        if len(parts) != 2 or not parts[0]:
            raise ValueError(f"cannot parse quantity {text!r}")
        number, unit = parts
        if unit not in _SCALES:
            raise ValueError(f"unknown unit {unit!r} in {text!r}")
        dimension, scale = _SCALES[unit]
        return Quantity(float(number) * scale, dimension)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Quantity") -> None:
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}")

    def __add__(self, other: "Quantity") -> "Quantity":
        self._check(other)
        return Quantity(self.value + other.value, self.dimension)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._check(other)
        return Quantity(self.value - other.value, self.dimension)

    def __mul__(self, factor: Number) -> "Quantity":
        return Quantity(self.value * float(factor), self.dimension)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            if other.value == 0:
                raise ZeroDivisionError("division of quantities by zero")
            if self.dimension == other.dimension:
                return self.value / other.value
            if self.dimension == ENERGY and other.dimension == TIME:
                return Quantity(self.value / other.value, POWER)
            if self.dimension == ENERGY and other.dimension == POWER:
                return Quantity(self.value / other.value, TIME)
            raise ValueError(
                f"unsupported quotient {self.dimension}/{other.dimension}")
        return Quantity(self.value / float(other), self.dimension)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dimension)

    # -- comparisons -------------------------------------------------------
    def __lt__(self, other: "Quantity") -> bool:
        self._check(other)
        return self.value < other.value

    def __le__(self, other: "Quantity") -> bool:
        self._check(other)
        return self.value <= other.value

    def __gt__(self, other: "Quantity") -> bool:
        self._check(other)
        return self.value > other.value

    def __ge__(self, other: "Quantity") -> bool:
        self._check(other)
        return self.value >= other.value

    def close_to(self, other: "Quantity", rel: float = 1e-9) -> bool:
        self._check(other)
        return math.isclose(self.value, other.value, rel_tol=rel, abs_tol=1e-15)

    # -- conversions -------------------------------------------------------
    def to(self, unit: str) -> float:
        """Return the numeric value expressed in ``unit``."""
        if unit not in _SCALES:
            raise ValueError(f"unknown unit {unit!r}")
        dimension, scale = _SCALES[unit]
        if dimension != self.dimension:
            raise ValueError(
                f"cannot express {self.dimension} in {unit} ({dimension})")
        return self.value / scale

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:g} {_CANONICAL_UNIT.get(self.dimension, '')}".strip()


# -- convenience constructors ---------------------------------------------
def seconds(value: Number) -> Quantity:
    return Quantity(float(value), TIME)


def milliseconds(value: Number) -> Quantity:
    return Quantity(float(value) * 1e-3, TIME)


def joules(value: Number) -> Quantity:
    return Quantity(float(value), ENERGY)


def millijoules(value: Number) -> Quantity:
    return Quantity(float(value) * 1e-3, ENERGY)


def microjoules(value: Number) -> Quantity:
    return Quantity(float(value) * 1e-6, ENERGY)


def watts(value: Number) -> Quantity:
    return Quantity(float(value), POWER)


def hertz(value: Number) -> Quantity:
    return Quantity(float(value), FREQUENCY)


def cycles_to_time(cycles: Number, frequency_hz: Number) -> Quantity:
    """Convert a cycle count at ``frequency_hz`` into a time quantity."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return Quantity(float(cycles) / float(frequency_hz), TIME)


def time_to_cycles(time: Quantity, frequency_hz: Number) -> float:
    """Convert a time quantity into (fractional) cycles at ``frequency_hz``."""
    if time.dimension != TIME:
        raise ValueError("expected a time quantity")
    return time.value * float(frequency_hz)


def energy_from_power(power: Quantity, time: Quantity) -> Quantity:
    """E = P * t."""
    if power.dimension != POWER or time.dimension != TIME:
        raise ValueError("expected power and time quantities")
    return Quantity(power.value * time.value, ENERGY)
