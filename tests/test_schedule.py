"""Secondary-load schedule parsing and energy-profile tests."""

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
    """Clock (seconds after midnight) of each step of `days` days from midnight."""
    n = int(round(days * 24 / step_hours))
    return np.round(np.arange(n) * step_hours * 3600).astype(np.int64) % 86400


def at(hour, minute=0, second=0):
    return np.array([hour * 3600 + minute * 60 + second])


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
        e = build_secondary_profile(sched, at(22), STEP)
        assert e[0] == pytest.approx((6 * 8 + 4 * 65) / 6.0)
        assert e[0] == pytest.approx(51.33, abs=5e-3)

    def test_nothing_at_noon(self):
        e = build_secondary_profile(paper_schedule(), at(12), STEP)
        assert e[0] == 0.0

    def test_lights_only_at_19h(self):
        e = build_secondary_profile(paper_schedule(), at(19), STEP)
        assert e[0] == pytest.approx(8.0)
        # the step's start minute decides, seconds included or not
        e = build_secondary_profile(paper_schedule(), np.array([18 * 3600, 20 * 3600 + 59]), STEP)
        assert e.tolist() == pytest.approx([8.0, 8.0])

    def test_window_edges_half_open(self):
        sched = paper_schedule()
        minute = np.array([21 * 60, 21 * 60 - 1, 9 * 60, 9 * 60 - 1, 0, 24 * 60 - 1])
        watts = [48.0 + 260.0,   # fans' start inclusive (lights on too)
                 48.0,           # one minute before the fans
                 0.0,            # fans' end exclusive
                 260.0,
                 260.0,          # lights' 24:00 end exclusive
                 48.0 + 260.0]
        assert sched.power_w(minute).tolist() == watts
        assert sched.power_w(21 * 60) == 308.0   # a scalar minute gives a scalar

    def test_daily_periodicity(self):
        sched = paper_schedule()
        grid = grid_for_day(days=3)
        e = build_secondary_profile(sched, grid, STEP)
        per_day = len(grid) // 3
        assert np.array_equal(e[:per_day], e[per_day:2 * per_day])
        assert np.array_equal(e[:per_day], e[2 * per_day:])

    @given(step_idx=st.integers(0, 143), minutes=st.sampled_from([5, 10, 15, 30, 60]))
    def test_periodicity_pointwise(self, step_idx, minutes):
        e = build_secondary_profile(paper_schedule(), grid_for_day(minutes / 60, days=2), STEP)
        per_day = 24 * 60 // minutes
        k = step_idx % per_day
        assert e[k] == e[k + per_day]

    def test_counts_and_powers_scale(self):
        sched = SecondaryLoadSchedule(light_windows=["00:00-24:00"], fan_windows=[],
                                      n_lights=3, p_light_w=10.0, n_fans=0, p_fan_w=0.0)
        e = build_secondary_profile(sched, grid_for_day(), STEP)
        assert np.allclose(e, 30.0 * STEP)

    @pytest.mark.parametrize("step", [0.0, -STEP, float("nan"), float("inf")])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ConfigError, match="step_hours must be finite and > 0"):
            build_secondary_profile(paper_schedule(), at(22), step)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            SecondaryLoadSchedule(light_windows=[], fan_windows=[],
                                  n_lights=-1, p_light_w=8.0, n_fans=4, p_fan_w=65.0)
