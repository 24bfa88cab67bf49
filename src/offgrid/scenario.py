"""Scenario assembly: exogenous series on the control grid plus forecasts.

A scenario bundles everything outside the controller's influence: resampled
weather, the indoor house temperature (from a CSV trace or the built-in daily
sinusoid), the scheduled secondary-load energy, and the PV energy potential.
Each is one array over the grid, built with whole-array operations from the
weather's clock (seconds after midnight of each step) and read by step index.
`build_scenario` is the only place that turns weather into PV energy: the
plant and the baseline (by index) and the optimizing controller's forecasts
(through `forecast`) all read the one `pv_avail_wh` series, so they see the
same inputs by construction. The optimizing controller thus operates with
perfect foresight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .config import HouseTempParams, SystemConfig
from .csvtable import parse_finite, parse_timestamp, read_table
from .devices import pv_potential
from .errors import DataError
from .schedule import build_secondary_profile
from .weather import WeatherSeries, check_step_hours


@dataclass(frozen=True)
class HouseTemperatureTrace:
    """Indoor temperature samples aligned with the simulation grid."""

    start: datetime
    step_hours: float
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) == 0:
            raise DataError("house temperature trace is empty")
        if not np.all(np.isfinite(self.values)):
            raise DataError("house temperature trace contains non-finite values")

    def __len__(self) -> int:
        return len(self.values)


def sinusoid_house_temperature(clock: np.ndarray, params: HouseTempParams) -> np.ndarray:
    """Daily sinusoid fallback used when no measured house trace is supplied.

    `clock` holds each step's start in whole seconds after midnight.
    """
    hod = clock // 3600 + clock // 60 % 60 / 60.0 + clock % 60 / 3600.0
    return params.mean_c + params.amplitude_c * np.cos(
        2.0 * np.pi * (hod - params.peak_hour) / 24.0
    )


def load_house_trace_csv(path: str | Path, step_hours: float) -> HouseTemperatureTrace:
    """Read a (timestamp, temperature) CSV and interpolate onto the control step."""
    check_step_hours(step_hours)
    times, temps = zip(*(values for _, values in read_table(
        path, {"timestamp": parse_timestamp, "temperature": parse_finite})))
    t0 = times[0]
    src_h = np.array([(t - t0).total_seconds() / 3600.0 for t in times])
    n = int(math.floor(src_h[-1] / step_hours)) + 1
    tgt_h = np.arange(n) * step_hours
    values = np.interp(tgt_h, src_h, np.array(temps))
    return HouseTemperatureTrace(start=t0, step_hours=step_hours, values=values)


@dataclass(frozen=True)
class ForecastWindow:
    """Exogenous predictions over one planning horizon (all length N)."""

    g_avail_wh: np.ndarray    # PV energy potential per step
    t_house_c: np.ndarray
    e_secondary_wh: np.ndarray

    def __post_init__(self):
        n = len(self.g_avail_wh)
        if len(self.t_house_c) != n or len(self.e_secondary_wh) != n:
            raise DataError("forecast series must share one length")
        for name in ("g_avail_wh", "t_house_c", "e_secondary_wh"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise DataError(f"forecast {name} is not finite at step {bad[0]}")
        if np.any(self.g_avail_wh < 0) or np.any(self.e_secondary_wh < 0):
            raise DataError("forecast energies must be >= 0")

    def __len__(self) -> int:
        return len(self.g_avail_wh)


@dataclass(frozen=True)
class Scenario:
    """Exogenous series covering `n_steps` plant steps plus one planning horizon."""

    weather: WeatherSeries
    t_house: np.ndarray
    e_secondary: np.ndarray
    pv_avail_wh: np.ndarray
    n_steps: int
    horizon: int

    def __post_init__(self):
        need = self.n_steps + self.horizon
        for name, arr in (("t_house", self.t_house), ("e_secondary", self.e_secondary),
                          ("pv_avail_wh", self.pv_avail_wh)):
            if len(arr) < need:
                raise DataError(f"scenario series {name} shorter than simulation + horizon")
        if len(self.weather) < need:
            raise DataError("scenario weather shorter than simulation + horizon")

    def forecast(self, k: int, horizon: int) -> ForecastWindow:
        sl = slice(k, k + horizon)
        return ForecastWindow(
            g_avail_wh=self.pv_avail_wh[sl].copy(),
            t_house_c=self.t_house[sl].copy(),
            e_secondary_wh=self.e_secondary[sl].copy(),
        )


def build_scenario(
    weather: WeatherSeries,
    config: SystemConfig,
    days: float | None = None,
    house_trace: HouseTemperatureTrace | None = None,
) -> Scenario:
    """Resample/extend the inputs and precompute the exogenous series.

    The simulated window is `days` (default: the weather coverage). Weather is
    extended past the end of data by repeating its last day so the final
    planning horizons stay fully populated.
    """
    if abs(weather.step_hours - config.step_hours) > 1e-9:
        from .weather import resample

        weather = resample(weather, config.step_hours)
    if days is None:
        n_steps = len(weather)
    elif not math.isfinite(days):
        raise DataError(f"days must be finite, got {days!r}")
    else:
        n_steps = int(round(days * 24.0 / config.step_hours))
    if n_steps < 1:
        raise DataError("simulation window must contain at least one step")
    weather.require_coverage(n_steps * config.step_hours)
    need = n_steps + config.horizon_steps
    weather = weather.extended_by_last_day(need)

    clock = weather.clock()
    if house_trace is None and config.house.trace_csv:
        house_trace = load_house_trace_csv(config.house.trace_csv, config.step_hours)
    if house_trace is None:
        t_house = sinusoid_house_temperature(clock, config.house)
    else:
        if abs(house_trace.step_hours - config.step_hours) > 1e-9:
            raise DataError("house trace step does not match the simulation step")
        offset = (weather.start - house_trace.start).total_seconds() / 3600.0
        k0 = offset / config.step_hours
        if abs(k0 - round(k0)) > 1e-6 or k0 < -1e-6:
            raise DataError("house trace is not aligned with the weather grid")
        k0 = int(round(k0))
        if len(house_trace) - k0 < need:
            raise DataError("house temperature trace shorter than simulation + horizon")
        t_house = house_trace.values[k0 : k0 + need].astype(float)

    return Scenario(
        weather=weather,
        t_house=np.asarray(t_house, dtype=float),
        e_secondary=build_secondary_profile(config.loads, clock, config.step_hours),
        pv_avail_wh=pv_potential(config.pv, weather.ghi, weather.t_ambient,
                                 weather.wind_speed, config.step_hours),
        n_steps=n_steps,
        horizon=config.horizon_steps,
    )
