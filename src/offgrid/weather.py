"""Weather ingestion, resampling onto the control grid, and synthetic profiles.

CSV format: a table in the shared format of `offgrid.csvtable` with columns
`timestamp` (ISO-8601, local time), `ghi` (W/m2, >= 0), `air_temperature`
(degC) and `wind_speed` (m/s, >= 0), all finite. Records must be uniformly
spaced; the spacing must be an integer divisor or multiple of the simulation
step.

A record stamped t describes the interval [t, t + step): GHI is the mean
irradiance over that interval, which is what makes block-averaging on
downsampling and sample-holding on upsampling conserve energy exactly.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .csvtable import parse_finite, parse_timestamp, read_table
from .errors import DataError

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly spaced weather records starting at `start`, spaced `step_hours`."""

    start: datetime
    step_hours: float
    ghi: np.ndarray
    t_ambient: np.ndarray
    wind_speed: np.ndarray

    def __post_init__(self):
        check_step_hours(self.step_hours)
        n = len(self.ghi)
        if len(self.t_ambient) != n or len(self.wind_speed) != n:
            raise DataError("weather arrays must have equal length")
        if n == 0:
            raise DataError("no records")
        for name in ("ghi", "t_ambient", "wind_speed"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise DataError(f"weather {name} is not finite at record {bad[0]}")
        if np.any(self.ghi < 0):
            raise DataError("negative irradiance in series")
        if np.any(self.wind_speed < 0):
            raise DataError("negative wind speed in series")

    def __len__(self) -> int:
        return len(self.ghi)

    @property
    def coverage_hours(self) -> float:
        return len(self) * self.step_hours

    def timestamp(self, k: int) -> datetime:
        return self.start + timedelta(hours=k * self.step_hours)

    def clock(self) -> np.ndarray:
        """Each record's start as whole seconds after midnight (int64): the
        clock time of `timestamp(k)` with its fraction of a second dropped."""
        t0 = self.start
        us = (t0.hour * 3600 + t0.minute * 60 + t0.second) * 10**6 + t0.microsecond
        us = us + np.round(np.arange(len(self)) * (self.step_hours * 3.6e9)).astype(np.int64)
        return us // 10**6 % 86400

    def require_coverage(self, hours: float) -> None:
        if self.coverage_hours + 1e-9 < hours:
            raise DataError(
                f"weather coverage {self.coverage_hours:.1f} h is shorter than the "
                f"requested window of {hours:.1f} h"
            )

    def total_irradiance_wh_per_m2(self) -> float:
        """Integral of GHI over the series (Wh/m2); conserved by resampling."""
        return float(np.sum(self.ghi) * self.step_hours)

    def extended_by_last_day(self, n_steps: int) -> "WeatherSeries":
        """Pad to at least n_steps by repeating the last full day (or the whole
        series when it is shorter than a day)."""
        if len(self) >= n_steps:
            return self
        head = len(self) - min(max(1, int(round(24.0 / self.step_hours))), len(self))
        ghi, t_amb, wind = (np.concatenate([a[:head], np.resize(a[head:], n_steps - head)])
                            for a in (self.ghi, self.t_ambient, self.wind_speed))
        return WeatherSeries(self.start, self.step_hours, ghi, t_amb, wind)


def check_step_hours(step_hours: float) -> None:
    """Raise DataError unless the step is a finite number of hours > 0."""
    if not (math.isfinite(step_hours) and step_hours > 0):
        raise DataError(f"step_hours must be finite and > 0, got {step_hours!r}")


def _non_negative(what: str):
    def parse(text: str) -> float:
        value = parse_finite(text)
        if value < 0:
            raise ValueError(f"negative {what}")
        return value
    return parse


_PARSERS = {
    "timestamp": parse_timestamp,
    "ghi": _non_negative("irradiance"),
    "wind_speed": _non_negative("wind speed"),
    "air_temperature": parse_finite,
}


def parse_weather_csv(path: str | Path, step_hours: float) -> WeatherSeries:
    """Read a weather CSV and resample it onto the simulation grid.

    Irradiance is resampled conservatively (block mean going down, sample-hold
    going up); temperature and wind speed are linearly interpolated.
    """
    check_step_hours(step_hours)
    path = Path(path)
    lines, records = zip(*read_table(path, _PARSERS))
    timestamps, ghi, wind, t_amb = zip(*records)
    if len(timestamps) == 1:
        raise DataError(f"{path}: need at least two records to infer the source step")

    deltas = np.diff([ts.timestamp() for ts in timestamps])
    src_step_s = deltas[0]
    if np.any(np.abs(deltas - src_step_s) > 0.5):
        bad = int(np.argmax(np.abs(deltas - src_step_s))) + 1  # the later record of the gap
        raise DataError(f"{path}: non-uniform timestamp spacing near line {lines[bad]}")
    src_step_h = src_step_s / 3600.0

    series = WeatherSeries(
        start=timestamps[0],
        step_hours=src_step_h,
        ghi=np.asarray(ghi, dtype=float),
        t_ambient=np.asarray(t_amb, dtype=float),
        wind_speed=np.asarray(wind, dtype=float),
    )
    out = resample(series, step_hours)
    log.info("parsed %s: %d records at %.0f min -> %d records at %.0f min",
             path.name, len(series), src_step_h * 60, len(out), step_hours * 60)
    return out


def resample(series: WeatherSeries, step_hours: float) -> WeatherSeries:
    """Resample onto a grid whose step is an integer divisor or multiple of the source step."""
    ratio = series.step_hours / step_hours
    if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1:
        return _upsample(series, int(round(ratio)), step_hours)
    inv = step_hours / series.step_hours
    if abs(inv - round(inv)) < 1e-9 and round(inv) >= 1:
        return _downsample(series, int(round(inv)), step_hours)
    raise DataError(
        f"source step {series.step_hours * 60:.1f} min is neither an integer divisor "
        f"nor an integer multiple of the requested {step_hours * 60:.1f} min step"
    )


def _upsample(series: WeatherSeries, k: int, step_hours: float) -> WeatherSeries:
    if k == 1:
        return WeatherSeries(series.start, step_hours, series.ghi.copy(),
                             series.t_ambient.copy(), series.wind_speed.copy())
    n_src = len(series)
    ghi = np.repeat(series.ghi, k)  # hold: conserves interval energy exactly
    src_t = np.arange(n_src) * series.step_hours
    tgt_t = np.arange(n_src * k) * step_hours
    t_amb = np.interp(tgt_t, src_t, series.t_ambient)
    wind = np.interp(tgt_t, src_t, series.wind_speed)
    return WeatherSeries(series.start, step_hours, ghi, t_amb, wind)


def _downsample(series: WeatherSeries, k: int, step_hours: float) -> WeatherSeries:
    n_blocks = len(series) // k
    if n_blocks == 0:
        raise DataError("series shorter than one resampled step")
    dropped = len(series) - n_blocks * k
    if dropped:
        log.warning("dropping %d trailing record(s) not filling a %d-sample block", dropped, k)
    ghi = series.ghi[: n_blocks * k].reshape(n_blocks, k).mean(axis=1)
    t_amb = series.t_ambient[: n_blocks * k : k].copy()
    wind = series.wind_speed[: n_blocks * k : k].copy()
    return WeatherSeries(series.start, step_hours, ghi, t_amb, wind)


def write_weather_csv(series: WeatherSeries, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "ghi", "air_temperature", "wind_speed"])
        for k in range(len(series)):
            writer.writerow([
                series.timestamp(k).isoformat(sep=" "),
                f"{series.ghi[k]:.6g}",
                f"{series.t_ambient[k]:.6g}",
                f"{series.wind_speed[k]:.6g}",
            ])


# ---------------------------------------------------------------------------
# Synthetic weather profiles

SYNTH_PROFILES = ("clear", "cloudy", "post-storm")


def synthesize_weather(
    days: int,
    profile: str = "clear",
    seed: int = 0,
    step_hours: float = 1.0 / 6.0,
    start: datetime | None = None,
) -> WeatherSeries:
    """Deterministic synthetic weather for desk-scale studies.

    clear: smooth sinusoidal daytime GHI peaking at 900 W/m2, zero at night.
    cloudy: the clear shape scaled to a 300 W/m2 peak with seeded variability.
    post-storm: day 1 overcast (150 W/m2 peak, windy) then clearing day by day.
    """
    if not (math.isfinite(days) and days >= 1):
        raise DataError(f"days must be finite and >= 1, got {days!r}")
    check_step_hours(step_hours)
    if profile not in SYNTH_PROFILES:
        raise DataError(f"unknown profile {profile!r}; choose from {SYNTH_PROFILES}")
    if start is None:
        start = datetime(2017, 9, 11, 0, 0)  # midnight start
    rng = np.random.default_rng(seed)
    n = int(round(days * 24.0 / step_hours))
    hours = np.arange(n) * step_hours
    hod = hours % 24.0
    day = (hours // 24.0).astype(int)

    shape = np.where((hod >= 6.0) & (hod <= 18.0),
                     np.sin(np.pi * (hod - 6.0) / 12.0), 0.0)
    shape = np.clip(shape, 0.0, None)

    if profile == "clear":
        ghi = 900.0 * shape
        noise = np.ones(n)
    elif profile == "cloudy":
        noise = _smooth_noise(rng, n, scale=0.25, floor=0.5)
        ghi = 300.0 * shape * noise
    else:  # post-storm
        peak = np.minimum(900.0, 150.0 + 375.0 * day)
        noise = _smooth_noise(rng, n, scale=0.12, floor=0.7)
        ghi = peak * shape * noise

    t_amb = 28.5 + 4.5 * np.cos(2.0 * np.pi * (hod - 15.0) / 24.0)
    wind = 2.5 + 1.5 * np.sin(2.0 * np.pi * (hod - 12.0) / 24.0)
    if profile == "post-storm":
        wind = wind + 6.0 * np.exp(-day.astype(float))
    if profile != "clear":
        wind = wind + 0.5 * _smooth_noise(rng, n, scale=1.0, floor=-1.0)
    wind = np.clip(wind, 0.0, None)

    return WeatherSeries(start, step_hours, ghi, t_amb, wind)


def _smooth_noise(rng: np.random.Generator, n: int, scale: float, floor: float) -> np.ndarray:
    """Low-frequency multiplicative factor around 1.0, clipped below at `floor`."""
    raw = rng.standard_normal(n)
    kernel = np.ones(13) / 13.0
    smooth = np.convolve(raw, kernel, mode="same")
    return np.clip(1.0 + scale * smooth, floor, None)
