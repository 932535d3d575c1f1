"""Piecewise-constant pulse schedules.

A schedule is an ordered tuple of segments; within each segment the laser
gate, microwave detuning, and Rabi amplitude are constant. Durations are
integer nanoseconds, so segments with equal controls compare (and cache)
equal.
"""

from __future__ import annotations

from dataclasses import dataclass

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


#: A pulse sequence: its segments in order.
Schedule = tuple[PulseSegment, ...]


def duration_ns(segments: Schedule) -> int:
    """Total length of a sequence in nanoseconds."""
    return sum(seg.duration_ns for seg in segments)


def chopped_laser_train(on_ns: int, off_ns: int, reps: int) -> Schedule:
    """reps repetitions of (laser on for on_ns, off for off_ns); Preset keeps both >= 0."""
    pair = []
    if reps > 0:
        pair = [PulseSegment(on_ns, laser_on=True)]
        if off_ns > 0:
            pair.append(PulseSegment(off_ns))
    return tuple(pair) * reps

