"""Scenario assembly: house-temperature traces, forecasts, coverage rules."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from offgrid.config import default_config
from offgrid.devices import pv_potential
from offgrid.errors import DataError
from offgrid.scenario import (
    ForecastWindow,
    build_scenario,
    load_house_trace_csv,
    sinusoid_house_temperature,
)
from offgrid.schedule import SecondaryLoadSchedule, parse_window
from offgrid.weather import synthesize_weather

CFG = default_config().replace(horizon_steps=12)


class TestHouseTemperature:
    def test_sinusoid_peaks_at_configured_hour(self):
        t = sinusoid_house_temperature(np.arange(24) * 3600, CFG.house)
        assert t[15] == pytest.approx(30.0)          # mean 27 + amplitude 3
        assert t[3] == pytest.approx(24.0)           # trough 12 h later
        assert t.mean() == pytest.approx(27.0, abs=0.01)
        # minutes and seconds count as fractions of the hour
        t = sinusoid_house_temperature(np.array([15 * 3600 + 90, 7 * 3600 + 23 * 60 + 41]),
                                       CFG.house)
        hod = np.array([15 + 1 / 60 + 30 / 3600, 7 + 23 / 60 + 41 / 3600])
        assert t == pytest.approx(27.0 + 3.0 * np.cos(2 * np.pi * (hod - 15.0) / 24))

    def test_trace_csv_interpolates_to_step(self, tmp_path):
        path = tmp_path / "house.csv"
        path.write_text(
            "timestamp,temperature\n"
            "2017-09-11 00:00,20.0\n"
            "2017-09-11 01:00,26.0\n"
        )
        trace = load_house_trace_csv(path, 1.0 / 6.0)
        assert len(trace) == 7
        assert trace.values.tolist() == pytest.approx([20, 21, 22, 23, 24, 25, 26])

    def test_trace_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "house.csv"
        path.write_text("timestamp,temperature\n2017-09-11 00:00,warm\n")
        with pytest.raises(DataError, match="line 2"):
            load_house_trace_csv(path, 1.0 / 6.0)


    def test_trace_rejects_short_row(self, tmp_path):
        path = tmp_path / "house.csv"
        path.write_text("timestamp,temperature\n2017-09-11 00:00,20.0\n2017-09-11 01:00\n")
        with pytest.raises(DataError, match=r"house\.csv: short row at line 3"):
            load_house_trace_csv(path, 1.0 / 6.0)

class TestForecastWindow:
    def test_lengths_must_match(self):
        with pytest.raises(DataError):
            ForecastWindow(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_negative_energy_rejected(self):
        with pytest.raises(DataError):
            ForecastWindow(np.array([-1.0]), np.array([25.0]), np.array([0.0]))

    @pytest.mark.parametrize("series", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_series_and_step(self, series, bad):
        values = [np.full(4, 10.0), np.full(4, 25.0), np.full(4, 43.0)]
        values[series][2] = bad
        name = ("g_avail_wh", "t_house_c", "e_secondary_wh")[series]
        with pytest.raises(DataError, match=f"forecast {name} is not finite at step 2"):
            ForecastWindow(*values)


class TestBuildScenario:
    def test_covers_window_plus_horizon(self):
        weather = synthesize_weather(1, "clear", seed=0)
        scenario = build_scenario(weather, CFG, days=1)
        assert scenario.n_steps == 144
        assert len(scenario.t_house) >= 144 + CFG.horizon_steps
        fc = scenario.forecast(143, CFG.horizon_steps)
        assert len(fc) == CFG.horizon_steps

    def test_final_horizon_repeats_last_day(self):
        weather = synthesize_weather(1, "clear", seed=0)
        scenario = build_scenario(weather, CFG, days=1)
        assert scenario.pv_avail_wh[144] == pytest.approx(scenario.pv_avail_wh[0])

    def test_insufficient_coverage_raises(self):
        weather = synthesize_weather(1, "clear", seed=0)
        with pytest.raises(DataError, match="shorter than the requested"):
            build_scenario(weather, CFG, days=2)

    def test_pv_potential_consistent_with_device_model(self):
        weather = synthesize_weather(1, "clear", seed=0)
        scenario = build_scenario(weather, CFG, days=1)
        k = 72  # noon
        wx = scenario.weather
        expected = pv_potential(CFG.pv, float(wx.ghi[k]), float(wx.t_ambient[k]),
                                float(wx.wind_speed[k]), CFG.step_hours)
        assert scenario.pv_avail_wh[k] == pytest.approx(expected)

    def test_forecast_reads_the_plant_series(self):
        """The controller's forecast is exactly the plant's series."""
        weather = synthesize_weather(1, "clear", seed=0)
        scenario = build_scenario(weather, CFG, days=1)
        fc = scenario.forecast(10, 6)
        assert np.array_equal(fc.g_avail_wh, scenario.pv_avail_wh[10:16])
        assert np.array_equal(fc.e_secondary_wh, scenario.e_secondary[10:16])

    def test_misaligned_house_trace_rejected(self, tmp_path):
        path = tmp_path / "house.csv"
        path.write_text(
            "timestamp,temperature\n"
            "2017-09-11 00:03,25.0\n"
            "2017-09-12 00:03,25.0\n"
        )
        trace = load_house_trace_csv(path, 1.0 / 6.0)
        weather = synthesize_weather(1, "clear", seed=0)
        with pytest.raises(DataError, match="aligned"):
            build_scenario(weather, CFG, days=0.5, house_trace=trace)

    def test_house_trace_used_when_supplied(self, tmp_path):
        path = tmp_path / "house.csv"
        rows = ["timestamp,temperature"]
        start = datetime(2017, 9, 11)
        # constant 22 C trace covering two days at 10-min steps
        from datetime import timedelta

        for k in range(2 * 144 + 1):
            ts = start + timedelta(minutes=10 * k)
            rows.append(f"{ts.isoformat(sep=' ')},22.0")
        path.write_text("\n".join(rows) + "\n")
        trace = load_house_trace_csv(path, 1.0 / 6.0)
        weather = synthesize_weather(2, "clear", seed=0)
        cfg = CFG.replace(horizon_steps=6)
        scenario = build_scenario(weather, cfg, days=1, house_trace=trace)
        assert np.allclose(scenario.t_house[:150], 22.0)


@pytest.mark.parametrize("make, name", [
    (lambda csv: build_scenario(synthesize_weather(1), CFG, days=math.nan), "days"),
    (lambda csv: build_scenario(synthesize_weather(1), CFG, days=math.inf), "days"),
    (lambda csv: synthesize_weather(math.nan), "days"),
    (lambda csv: synthesize_weather(1, step_hours=0.0), "step_hours"),
    (lambda csv: synthesize_weather(1, step_hours=-1.0), "step_hours"),
    (lambda csv: load_house_trace_csv(csv, 0.0), "step_hours"),
    (lambda csv: load_house_trace_csv(csv, math.nan), "step_hours"),
], ids=["scenario-days-nan", "scenario-days-inf", "synth-days-nan", "synth-step-0",
        "synth-step-negative", "house-step-0", "house-step-nan"])
def test_bad_days_or_step_raise_data_error(make, name, tmp_path):
    csv = tmp_path / "house.csv"
    csv.write_text("timestamp,temperature\n2017-09-11 00:00,20.0\n2017-09-11 01:00,26.0\n")
    with pytest.raises(DataError, match=f"^{name} must be finite"):
        make(csv)


# The per-step code the array builders replaced, kept as references: every
# array must equal its reference byte for byte.

def _ref_extended(wx, n_steps):
    per_day = int(round(24.0 / wx.step_hours))
    block = min(per_day, len(wx))
    ghi, tam, wnd = list(wx.ghi), list(wx.t_ambient), list(wx.wind_speed)
    while len(ghi) < n_steps:
        ghi.extend(wx.ghi[-block:])
        tam.extend(wx.t_ambient[-block:])
        wnd.extend(wx.wind_speed[-block:])
    return np.array(ghi[:n_steps]), np.array(tam[:n_steps]), np.array(wnd[:n_steps])


def _ref_timestamps(wx):
    return [wx.start + timedelta(hours=k * wx.step_hours) for k in range(len(wx))]


def _ref_power_at(loads, when):
    minute = when.hour * 60 + when.minute
    p = 0.0
    if any(a <= minute < b for w in loads.light_windows for a, b in parse_window(w)):
        p += loads.n_lights * loads.p_light_w
    if any(a <= minute < b for w in loads.fan_windows for a, b in parse_window(w)):
        p += loads.n_fans * loads.p_fan_w
    return p


def _ref_sinusoid(grid, params):
    hod = np.array([t.hour + t.minute / 60.0 + t.second / 3600.0 for t in grid])
    return params.mean_c + params.amplitude_c * np.cos(
        2.0 * np.pi * (hod - params.peak_hour) / 24.0)


def _ref_pv_potential(pv, ghi, t_ambient, wind, step_hours):
    if pv.faiman_literal:
        denom = pv.u0_w_per_m2k + pv.u1_w_per_m2k + wind
    else:
        denom = pv.u0_w_per_m2k + pv.u1_w_per_m2k * wind
    t_m = t_ambient + ghi / denom
    derate = 1.0 + (pv.gamma_pct_per_c / 100.0) * (t_m - pv.t_std_c)
    e = pv.n_panels * pv.p_rated_w * (ghi / pv.g_std_w_per_m2) * derate * step_hours
    return max(0.0, e)


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestArrayParity:
    @pytest.mark.parametrize("minutes", [5, 10, 15, 30, 60])
    @pytest.mark.parametrize("start", [datetime(2017, 9, 11), datetime(2017, 9, 11, 7, 23, 41),
                                       datetime(2017, 9, 30, 20, 50)],
                             ids=["midnight", "odd-second", "month-end"])
    @pytest.mark.parametrize("profile", ["clear", "cloudy", "post-storm"])
    @pytest.mark.parametrize("loads", [
        SecondaryLoadSchedule(),
        SecondaryLoadSchedule(light_windows=["07:25-07:35", "18:05-23:55"],
                              fan_windows=["21:10-09:05"], n_lights=3, p_light_w=7.5),
    ], ids=["paper-loads", "odd-windows"])
    def test_scenario_arrays_match_per_step_reference(self, minutes, start, profile, loads):
        step = minutes / 60
        weather = synthesize_weather(2, profile, seed=5, step_hours=step, start=start)
        # a 36 h horizon runs the scenario 1.5 days past the end of its data
        cfg = CFG.replace(step_hours=step, horizon_steps=36 * 60 // minutes, loads=loads)
        scenario = build_scenario(weather, cfg, days=2)
        wx = scenario.weather
        assert len(wx) > len(weather)
        for got, want in zip((wx.ghi, wx.t_ambient, wx.wind_speed),
                             _ref_extended(weather, len(wx))):
            assert _same_bytes(got, want)
        grid = _ref_timestamps(wx)
        assert _same_bytes(wx.clock(), np.array([t.hour * 3600 + t.minute * 60 + t.second
                                                 for t in grid]))
        assert _same_bytes(scenario.t_house, _ref_sinusoid(grid, cfg.house))
        assert _same_bytes(scenario.e_secondary,
                           np.array([_ref_power_at(loads, t) * step for t in grid], dtype=float))
        assert _same_bytes(scenario.pv_avail_wh, np.array([
            _ref_pv_potential(cfg.pv, float(wx.ghi[k]), float(wx.t_ambient[k]),
                              float(wx.wind_speed[k]), step)
            for k in range(len(wx))]))
