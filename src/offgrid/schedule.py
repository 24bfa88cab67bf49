"""Daily on/off schedule for the secondary loads (lights and fans).

Windows are clock-time intervals "HH:MM-HH:MM" repeated every day. A window
whose end is at or before its start wraps past midnight and is stored as two
intervals, so internally every interval lies inside [00:00, 24:00). A step is
"on" when its start instant falls inside a window (half-open on the right).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, check_numbers

_WINDOW_RE = re.compile(r"^(\d{1,2}):(\d{2})-(\d{1,2}):(\d{2})$")

MINUTES_PER_DAY = 24 * 60


def parse_window(text: str) -> list[tuple[int, int]]:
    """Parse one "HH:MM-HH:MM" window into minute intervals within a day.

    Returns one interval, or two when the window wraps past midnight
    (e.g. "21:00-09:00"). "24:00" and "00:00" are both accepted as the
    end-of-day boundary.
    """
    m = _WINDOW_RE.match(text.strip())
    if not m:
        raise ConfigError(f"bad schedule window {text!r}; expected 'HH:MM-HH:MM'")
    h0, m0, h1, m1 = (int(g) for g in m.groups())
    start = h0 * 60 + m0
    end = h1 * 60 + m1
    if h0 > 24 or h1 > 24 or m0 > 59 or m1 > 59 or start > MINUTES_PER_DAY or end > MINUTES_PER_DAY:
        raise ConfigError(f"schedule window {text!r} outside 00:00-24:00")
    if end == 0:
        end = MINUTES_PER_DAY
    if start == end:
        raise ConfigError(f"schedule window {text!r} is empty")
    if end < start:  # wraps midnight
        return [(start, MINUTES_PER_DAY), (0, end)]
    return [(start, end)]


def _normalize(windows: Iterable[str]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for w in windows:
        out.extend(parse_window(w))
    return sorted(out)


def _format_intervals(intervals: Sequence[tuple[int, int]]) -> list[str]:
    return [f"{a // 60:02d}:{a % 60:02d}-{b // 60:02d}:{b % 60:02d}" for a, b in intervals]


@dataclass(frozen=True)
class SecondaryLoadSchedule:
    """Counts, rated powers and daily on-windows of the lights and fans."""

    light_windows: tuple[tuple[int, int], ...]
    fan_windows: tuple[tuple[int, int], ...]
    n_lights: int
    p_light_w: float
    n_fans: int
    p_fan_w: float

    def __post_init__(self):
        check_numbers(self, "loads.")
        if self.n_lights < 0 or self.n_fans < 0:
            raise ConfigError("load counts must be >= 0")
        if self.p_light_w < 0 or self.p_fan_w < 0:
            raise ConfigError("load rated powers must be >= 0")
        for a, b in (*self.light_windows, *self.fan_windows):
            if not (0 <= a < b <= MINUTES_PER_DAY):
                raise ConfigError(f"schedule interval ({a},{b}) outside 00:00-24:00")

    @classmethod
    def from_windows(
        cls,
        light_windows: Iterable[str],
        fan_windows: Iterable[str],
        n_lights: int,
        p_light_w: float,
        n_fans: int,
        p_fan_w: float,
    ) -> "SecondaryLoadSchedule":
        return cls(
            light_windows=tuple(_normalize(light_windows)),
            fan_windows=tuple(_normalize(fan_windows)),
            n_lights=n_lights,
            p_light_w=p_light_w,
            n_fans=n_fans,
            p_fan_w=p_fan_w,
        )

    def light_windows_text(self) -> list[str]:
        return _format_intervals(self.light_windows)

    def fan_windows_text(self) -> list[str]:
        return _format_intervals(self.fan_windows)

    def lights_on(self, when: datetime) -> bool:
        minute = when.hour * 60 + when.minute
        return any(a <= minute < b for a, b in self.light_windows)

    def fans_on(self, when: datetime) -> bool:
        minute = when.hour * 60 + when.minute
        return any(a <= minute < b for a, b in self.fan_windows)

    def power_at(self, when: datetime) -> float:
        """Scheduled secondary power draw in W at a clock instant."""
        p = 0.0
        if self.lights_on(when):
            p += self.n_lights * self.p_light_w
        if self.fans_on(when):
            p += self.n_fans * self.p_fan_w
        return p


def build_secondary_profile(
    schedule: SecondaryLoadSchedule,
    grid: Sequence[datetime],
    step_hours: float,
) -> np.ndarray:
    """Scheduled secondary-load energy in Wh for each step of a time grid.

    A step contributes (n_lights*p_light*on + n_fans*p_fan*on) * step_hours,
    where "on" is evaluated at the step's start instant.
    """
    if step_hours <= 0:
        raise ConfigError("step_hours must be > 0")
    return np.array([schedule.power_at(t) * step_hours for t in grid], dtype=float)
