"""Piecewise-constant pulse schedules.

A schedule is an ordered tuple of segments; within each segment the laser
gate, microwave detuning, and Rabi amplitude are constant. Durations are
integer nanoseconds, so segments with equal controls compare (and cache)
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigError


@dataclass(frozen=True)
class PulseSegment:
    """One constant-control interval.

    Attributes:
        duration_ns: Length in nanoseconds (>= 0).
        laser_on: Optical pumping gate.
        mw_on: Microwave drive gate.
        mw_delta: Drive detuning from the bare 0 <-> +1 transition (Hz).
        mw_rabi: Rabi amplitude (Hz, >= 0).
    """

    duration_ns: int
    laser_on: bool = False
    mw_on: bool = False
    mw_delta: float = 0.0
    mw_rabi: float = 0.0

    def __post_init__(self) -> None:
        if int(self.duration_ns) != self.duration_ns or self.duration_ns < 0:
            raise ConfigError(
                f"duration_ns must be a non-negative integer, got {self.duration_ns}"
            )
        object.__setattr__(self, "duration_ns", int(self.duration_ns))
        if self.mw_rabi < 0:
            raise ConfigError(f"mw_rabi must be >= 0, got {self.mw_rabi}")
        if not self.mw_on:
            # Normalize so equal controls compare (and cache) equal.
            object.__setattr__(self, "mw_delta", 0.0)
            object.__setattr__(self, "mw_rabi", 0.0)


@dataclass(frozen=True)
class Schedule:
    """An ordered pulse sequence."""

    segments: tuple[PulseSegment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[PulseSegment]:
        return iter(self.segments)

    @property
    def duration_ns(self) -> int:
        return sum(s.duration_ns for s in self.segments)

    def __add__(self, other: "Schedule") -> "Schedule":
        return Schedule(self.segments + other.segments)


def chopped_laser_train(on_ns: int, off_ns: int, reps: int) -> Schedule:
    """reps repetitions of (laser on for on_ns, off for off_ns)."""
    if reps < 0:
        raise ConfigError("reps must be >= 0")
    if reps > 0 and on_ns <= 0:
        raise ConfigError("on_ns must be > 0")
    if off_ns < 0:
        raise ConfigError("off_ns must be >= 0")
    pair = []
    if reps > 0:
        pair = [PulseSegment(on_ns, laser_on=True)]
        if off_ns > 0:
            pair.append(PulseSegment(off_ns))
    return Schedule(tuple(pair) * reps)


def standard_polarization_schedule(
    delta: float,
    omega: float,
    n_cycles: int,
    t_mw_ns: int,
    *,
    chop_on_ns: int = 30,
    chop_off_ns: int = 60,
    chop_reps: int = 17,
    rest_ns: int = 100,
) -> Schedule:
    """The polarization sequence: n_cycles of (laser train, rest, MW, rest).

    Each cycle is the chopped laser train followed by a rest, a single
    microwave segment of t_mw_ns at (delta, omega), and another rest.
    """
    if n_cycles < 0:
        raise ConfigError("n_cycles must be >= 0")
    cycle = (
        chopped_laser_train(chop_on_ns, chop_off_ns, chop_reps).segments
        + (
            PulseSegment(rest_ns),
            PulseSegment(t_mw_ns, mw_on=True, mw_delta=delta, mw_rabi=omega),
            PulseSegment(rest_ns),
        )
    )
    return Schedule(cycle * n_cycles)


__all__ = [
    "PulseSegment",
    "Schedule",
    "chopped_laser_train",
    "standard_polarization_schedule",
]
