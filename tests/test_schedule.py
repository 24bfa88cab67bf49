"""Secondary-load schedule parsing and energy-profile tests."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offgrid.errors import ConfigError
from offgrid.schedule import SecondaryLoadSchedule, build_secondary_profile, parse_window

STEP = 1.0 / 6.0


def paper_schedule():
    return SecondaryLoadSchedule(
        light_windows=["18:00-24:00"],
        fan_windows=["21:00-09:00"],
        n_lights=6, p_light_w=8.0, n_fans=4, p_fan_w=65.0,
    )


def grid_for_day(step_hours=STEP, days=1):
    start = datetime(2017, 9, 11)
    n = int(round(days * 24 / step_hours))
    return [start + timedelta(hours=k * step_hours) for k in range(n)]


class TestWindowParsing:
    def test_simple(self):
        assert parse_window("18:00-24:00") == [(18 * 60, 24 * 60)]

    def test_midnight_end_means_end_of_day(self):
        assert parse_window("18:00-00:00") == [(18 * 60, 24 * 60)]

    def test_wrap_splits(self):
        assert parse_window("21:00-09:00") == [(21 * 60, 24 * 60), (0, 9 * 60)]

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            parse_window("9pm to 9am")

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_window("25:00-26:00")

    def test_empty_window(self):
        with pytest.raises(ConfigError):
            parse_window("09:00-09:00")


class TestSecondaryProfile:
    def test_both_loads_at_22h(self):
        # lights 6x8 W + fans 4x65 W for a sixth of an hour
        sched = paper_schedule()
        e = build_secondary_profile(sched, [datetime(2017, 9, 11, 22, 0)], STEP)
        assert e[0] == pytest.approx((6 * 8 + 4 * 65) / 6.0)
        assert e[0] == pytest.approx(51.33, abs=5e-3)

    def test_nothing_at_noon(self):
        e = build_secondary_profile(paper_schedule(), [datetime(2017, 9, 11, 12, 0)], STEP)
        assert e[0] == 0.0

    def test_lights_only_at_19h(self):
        e = build_secondary_profile(paper_schedule(), [datetime(2017, 9, 11, 19, 0)], STEP)
        assert e[0] == pytest.approx(8.0)

    def test_window_edges_half_open(self):
        sched = paper_schedule()
        assert sched.fans_on(datetime(2017, 9, 11, 21, 0))      # start inclusive
        assert not sched.fans_on(datetime(2017, 9, 11, 9, 0))   # end exclusive
        assert not sched.lights_on(datetime(2017, 9, 11, 0, 0))

    def test_daily_periodicity(self):
        sched = paper_schedule()
        grid = grid_for_day(days=3)
        e = build_secondary_profile(sched, grid, STEP)
        per_day = len(grid) // 3
        assert np.array_equal(e[:per_day], e[per_day:2 * per_day])
        assert np.array_equal(e[:per_day], e[2 * per_day:])

    @given(step_idx=st.integers(0, 143))
    def test_periodicity_pointwise(self, step_idx):
        sched = paper_schedule()
        t0 = datetime(2017, 9, 11) + timedelta(hours=step_idx * STEP)
        t1 = t0 + timedelta(days=1)
        assert sched.power_at(t0) == sched.power_at(t1)

    def test_counts_and_powers_scale(self):
        sched = SecondaryLoadSchedule(light_windows=["00:00-24:00"], fan_windows=[],
                                      n_lights=3, p_light_w=10.0, n_fans=0, p_fan_w=0.0)
        e = build_secondary_profile(sched, grid_for_day(), STEP)
        assert np.allclose(e, 30.0 * STEP)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            SecondaryLoadSchedule(light_windows=[], fan_windows=[],
                                  n_lights=-1, p_light_w=8.0, n_fans=4, p_fan_w=65.0)
