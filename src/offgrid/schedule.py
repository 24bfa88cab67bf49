"""Daily on/off schedule for the secondary loads (lights and fans).

Windows are clock-time intervals "HH:MM-HH:MM" repeated every day. A window
whose end is at or before its start wraps past midnight and is stored as two
intervals, so internally every interval lies inside [00:00, 24:00). A step is
"on" when its start instant falls inside a window (half-open on the right).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

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
    if h0 > 24 or h1 > 24 or m0 > 59 or m1 > 59 or start >= MINUTES_PER_DAY or end > MINUTES_PER_DAY:
        raise ConfigError(f"schedule window {text!r} outside 00:00-24:00")
    if end == 0:
        end = MINUTES_PER_DAY
    if start == end:
        raise ConfigError(f"schedule window {text!r} is empty")
    if end < start:  # wraps midnight
        return [(start, MINUTES_PER_DAY), (0, end)]
    return [(start, end)]


def _parse_windows(windows, name: str) -> tuple[tuple[int, int], ...]:
    """Sorted minute intervals of a list of "HH:MM-HH:MM" windows; errors name `name`."""
    if not isinstance(windows, (list, tuple)) or not all(isinstance(w, str) for w in windows):
        raise ConfigError(f"{name} must be a list of 'HH:MM-HH:MM' strings, got {windows!r}")
    try:
        return tuple(sorted(iv for w in windows for iv in parse_window(w)))
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _format_intervals(intervals: Sequence[tuple[int, int]]) -> tuple[str, ...]:
    return tuple(f"{a // 60:02d}:{a % 60:02d}-{b // 60:02d}:{b % 60:02d}" for a, b in intervals)


@dataclass(frozen=True)
class SecondaryLoadSchedule:
    """Counts, rated powers and daily on-windows of the lights and fans.

    The windows are stored in canonical form: sorted, with a window that
    wraps midnight split in two ("21:00-09:00" -> "00:00-09:00",
    "21:00-24:00"). Their minute intervals are parsed once, here.
    """

    light_windows: tuple[str, ...] = ("18:00-24:00",)
    fan_windows: tuple[str, ...] = ("21:00-09:00",)
    n_lights: int = 6
    p_light_w: float = 8.0
    n_fans: int = 4
    p_fan_w: float = 65.0

    def __post_init__(self):
        check_numbers(self, "loads.")
        if self.n_lights < 0 or self.n_fans < 0:
            raise ConfigError("load counts must be >= 0")
        if self.p_light_w < 0 or self.p_fan_w < 0:
            raise ConfigError("load rated powers must be >= 0")
        for name in ("light_windows", "fan_windows"):
            intervals = _parse_windows(getattr(self, name), f"loads.{name}")
            object.__setattr__(self, name, _format_intervals(intervals))
            object.__setattr__(self, f"_{name}", intervals)  # not a field: asdict skips it

    def lights_on(self, when: datetime) -> bool:
        minute = when.hour * 60 + when.minute
        return any(a <= minute < b for a, b in self._light_windows)

    def fans_on(self, when: datetime) -> bool:
        minute = when.hour * 60 + when.minute
        return any(a <= minute < b for a, b in self._fan_windows)

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
