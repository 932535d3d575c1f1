"""Pulse schedule construction."""

import numpy as np
import pytest

from nvpolar.errors import ConfigError
from nvpolar.schedule import PulseSegment, chopped_laser_train, duration_ns


def test_segment_validation():
    with pytest.raises(ConfigError):
        PulseSegment(-1)
    with pytest.raises(ConfigError):
        PulseSegment(10, mw_on=True, mw_rabi=-5.0)


def test_chopped_train_structure():
    train = chopped_laser_train(30, 60, 17)
    assert isinstance(train, tuple) and len(train) == 34
    assert duration_ns(train) == 17 * 90
    on = [seg for seg in train if seg.laser_on]
    off = [seg for seg in train if not seg.laser_on]
    assert len(on) == len(off) == 17
    assert all(seg.duration_ns == 30 for seg in on)
    assert all(seg.duration_ns == 60 for seg in off)
    assert all(not seg.mw_on for seg in train)


def test_chopped_train_without_dark_gaps():
    train = chopped_laser_train(25, 0, 4)
    assert len(train) == 4
    assert all(seg.laser_on for seg in train)


def test_standard_schedule_cycle_layout(table_a1):
    schedule = table_a1.schedule(3.2e5, n_cycles=2)
    per_cycle = 34 + 3
    assert isinstance(schedule, tuple) and len(schedule) == 2 * per_cycle
    cycle = schedule[:per_cycle]
    assert all(seg.laser_on for seg in cycle[:34:2])
    rest1, mw, rest2 = cycle[34], cycle[35], cycle[36]
    assert rest1.duration_ns == rest2.duration_ns == 100
    assert not rest1.laser_on and not rest1.mw_on
    assert mw.mw_on and not mw.laser_on
    assert mw.duration_ns == 1700
    assert mw.mw_delta == 3.2e5 and mw.mw_rabi == 294.1176e3
    assert duration_ns(schedule) == 2 * (17 * 90 + 100 + 1700 + 100)
    assert schedule[per_cycle:] == cycle
    assert table_a1.readout_tail() == cycle[:35]


def test_schedule_concatenation_and_repeat():
    a = chopped_laser_train(30, 60, 2)
    b = (PulseSegment(50),)
    combined = a + b
    assert len(combined) == len(a) + 1
    assert duration_ns(combined) == duration_ns(a) + 50 == 230
    assert duration_ns(a * 3) == 3 * duration_ns(a)
    assert duration_ns(()) == 0


def test_bundled_drives_are_exact_pi_pulses():
    """Both preset drive settings satisfy rabi * duration = 1/2 exactly."""
    for omega, t_ns in ((1.0 / (2 * 1700e-9), 1700), (25e3, 20000)):
        area = omega * t_ns * 1e-9
        assert abs(area - 0.5) < 1e-12
