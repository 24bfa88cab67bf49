"""Scenario assembly: house-temperature traces, forecasts, coverage rules."""

from datetime import datetime

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
from offgrid.weather import synthesize_weather

CFG = default_config().replace(horizon_steps=12)


class TestHouseTemperature:
    def test_sinusoid_peaks_at_configured_hour(self):
        grid = [datetime(2017, 9, 11, h, 0) for h in range(24)]
        t = sinusoid_house_temperature(grid, CFG.house)
        assert t[15] == pytest.approx(30.0)          # mean 27 + amplitude 3
        assert t[3] == pytest.approx(24.0)           # trough 12 h later
        assert t.mean() == pytest.approx(27.0, abs=0.01)

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

    def test_forecast_noise_hook_defaults_off(self):
        """The controller reads exactly the plant's series unless a hook is set."""
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
