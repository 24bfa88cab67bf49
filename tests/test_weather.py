"""Weather CSV parsing, resampling and synthetic-profile tests."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgrid.errors import DataError
from offgrid.weather import (
    WeatherSeries,
    parse_weather_csv,
    resample,
    synthesize_weather,
    write_weather_csv,
)

STEP = 1.0 / 6.0


def write_csv(path, rows, header="timestamp,ghi,air_temperature,wind_speed"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def make_rows(start, step_minutes, values):
    rows = []
    for i, (g, t, w) in enumerate(values):
        ts = start + timedelta(minutes=i * step_minutes)
        rows.append(f"{ts.isoformat(sep=' ')},{g},{t},{w}")
    return rows


def synthetic_rows(days, step_minutes):
    start = datetime(2017, 9, 11)
    n = days * 24 * 60 // step_minutes
    vals = []
    for i in range(n):
        h = (i * step_minutes / 60.0) % 24
        g = max(0.0, 800.0 * np.sin(np.pi * (h - 6) / 12)) if 6 <= h <= 18 else 0.0
        vals.append((round(g, 3), round(25 + 5 * np.sin(h), 3), 2.0))
    return make_rows(start, step_minutes, vals)


class TestParsing:
    def test_seven_day_30min_file_resamples_to_1008(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", synthetic_rows(7, 30))
        series = parse_weather_csv(path, STEP)
        assert len(series) == 1008

    def test_columns_case_insensitive_any_order(self, tmp_path):
        rows = ["2017-09-11 00:00,1.0,25.0,100"]
        rows.append("2017-09-11 00:10,1.0,25.0,200")
        path = write_csv(tmp_path / "w.csv", rows,
                         header="Wind_Speed,Air_Temperature,GHI,Timestamp")
        # columns reordered: wind,temp,ghi,timestamp
        path.write_text(
            "Wind_Speed,Air_Temperature,GHI,Timestamp\n"
            "1.0,25.0,100,2017-09-11 00:00\n"
            "1.5,26.0,200,2017-09-11 00:10\n"
        )
        series = parse_weather_csv(path, STEP)
        assert series.ghi.tolist() == [100.0, 200.0]
        assert series.wind_speed.tolist() == [1.0, 1.5]

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", ["2017-09-11 00:00,1,25"],
                         header="timestamp,ghi,air_temperature")
        with pytest.raises(DataError, match="missing column"):
            parse_weather_csv(path, STEP)

    def test_negative_irradiance_reports_line(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 10,
                         [(0, 25, 2), (-5, 25, 2), (0, 25, 2)])
        path = write_csv(tmp_path / "w.csv", rows)
        with pytest.raises(DataError, match="negative irradiance at line 3"):
            parse_weather_csv(path, STEP)

    def test_unparsable_row_reports_line(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 10, [(0, 25, 2)])
        rows.append("2017-09-11 00:10,not_a_number,25,2")
        path = write_csv(tmp_path / "w.csv", rows)
        with pytest.raises(DataError, match="line 3"):
            parse_weather_csv(path, STEP)

    def test_non_monotonic_reports_line(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 10, [(0, 25, 2), (0, 25, 2)])
        rows.append(rows[0])
        path = write_csv(tmp_path / "w.csv", rows)
        with pytest.raises(DataError, match="non-monotonic timestamp at line 4"):
            parse_weather_csv(path, STEP)

    def test_non_uniform_spacing_reports_line_after_blank_rows(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 10, [(0, 25, 2)] * 4)
        rows[2:] = make_rows(datetime(2017, 9, 11, 0, 30), 10, [(0, 25, 2)] * 2)
        # header on line 1, blank lines 2-3, records on lines 4-7; the
        # 20-minute gap ends at the record on line 6
        path = write_csv(tmp_path / "w.csv", ["", ""] + rows)
        with pytest.raises(DataError, match="non-uniform timestamp spacing near line 6$"):
            parse_weather_csv(path, STEP)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", [])
        with pytest.raises(DataError, match="no records"):
            parse_weather_csv(path, STEP)

    def test_headers_only_no_records(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("timestamp,ghi,air_temperature,wind_speed\n")
        with pytest.raises(DataError, match="no records"):
            parse_weather_csv(path, STEP)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            parse_weather_csv(tmp_path / "nope.csv", STEP)

    def test_incommensurate_step_rejected(self, tmp_path):
        path = write_csv(tmp_path / "w.csv",
                         make_rows(datetime(2017, 9, 11), 7, [(0, 25, 2)] * 10))
        with pytest.raises(DataError, match="neither an integer divisor"):
            parse_weather_csv(path, STEP)


class TestResampling:
    def test_upsample_holds_ghi_and_interpolates_temp(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 30,
                         [(300, 20.0, 1.0), (600, 26.0, 4.0)])
        series = parse_weather_csv(write_csv(tmp_path / "w.csv", rows), STEP)
        assert len(series) == 6
        assert series.ghi.tolist() == [300, 300, 300, 600, 600, 600]
        assert series.t_ambient.tolist() == pytest.approx([20, 22, 24, 26, 26, 26])
        assert series.wind_speed.tolist() == pytest.approx([1, 2, 3, 4, 4, 4])

    def test_downsample_averages_ghi(self, tmp_path):
        rows = make_rows(datetime(2017, 9, 11), 5,
                         [(100, 20, 1), (200, 21, 1), (300, 22, 1), (400, 23, 1)])
        series = parse_weather_csv(write_csv(tmp_path / "w.csv", rows), STEP)
        assert len(series) == 2
        assert series.ghi.tolist() == [150.0, 350.0]
        assert series.t_ambient.tolist() == [20.0, 22.0]

    @given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3, 6]))
    @settings(max_examples=40, deadline=None)
    def test_energy_conserved_both_directions(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 144
        base = WeatherSeries(
            start=datetime(2017, 9, 11),
            step_hours=STEP,
            ghi=rng.uniform(0, 1000, n),
            t_ambient=rng.uniform(10, 35, n),
            wind_speed=rng.uniform(0, 10, n),
        )
        up = resample(base, STEP / k)
        down = resample(base, STEP * k)
        for other in (up, down):
            assert abs(other.total_irradiance_wh_per_m2()
                       - base.total_irradiance_wh_per_m2()) <= \
                0.001 * max(1.0, base.total_irradiance_wh_per_m2())

    def test_extend_by_last_day(self):
        series = synthesize_weather(2, "cloudy", seed=0)
        longer = series.extended_by_last_day(len(series) + 144)
        assert len(longer) == len(series) + 144
        assert np.array_equal(longer.ghi[-144:], series.ghi[-144:])
        # past one day the last day repeats again, cut at n_steps
        longer = series.extended_by_last_day(len(series) + 200)
        for got, src in ((longer.ghi, series.ghi), (longer.t_ambient, series.t_ambient),
                         (longer.wind_speed, series.wind_speed)):
            assert np.array_equal(got, np.concatenate([src, src[-144:], src[-144:-88]]))
        # a series shorter than a day repeats whole
        short = WeatherSeries(datetime(2017, 9, 11), STEP, np.array([1.0, 2.0, 3.0]),
                              np.zeros(3), np.zeros(3))
        assert short.extended_by_last_day(8).ghi.tolist() == [1, 2, 3, 1, 2, 3, 1, 2]
        assert series.extended_by_last_day(len(series)) is series

    def test_require_coverage(self):
        series = synthesize_weather(1, "clear", seed=0)
        series.require_coverage(24.0)
        with pytest.raises(DataError, match="shorter than the requested"):
            series.require_coverage(25.0)


class TestSeriesValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("ghi", np.nan, "weather ghi is not finite at record 2"),
        ("t_ambient", np.nan, "weather t_ambient is not finite at record 2"),
        ("wind_speed", np.inf, "weather wind_speed is not finite at record 2"),
        ("step_hours", 0.0, "step_hours must be finite and > 0, got 0.0"),
        ("step_hours", np.nan, "step_hours must be finite and > 0, got nan"),
        ("step_hours", -STEP, "step_hours must be finite and > 0, got -0.1666"),
    ], ids=["ghi-nan", "t_ambient-nan", "wind-inf", "step-0", "step-nan", "step-negative"])
    def test_non_finite_or_bad_step_rejected(self, field, value, message):
        args = dict(start=datetime(2017, 9, 11), step_hours=STEP, ghi=np.full(4, 100.0),
                    t_ambient=np.full(4, 25.0), wind_speed=np.full(4, 2.0))
        if field == "step_hours":
            args[field] = value
        else:
            args[field][2] = value
        with pytest.raises(DataError, match=f"^{message}"):
            WeatherSeries(**args)


class TestSynthetic:
    def test_deterministic_given_seed(self, tmp_path):
        a = synthesize_weather(7, "post-storm", seed=42)
        b = synthesize_weather(7, "post-storm", seed=42)
        assert np.array_equal(a.ghi, b.ghi)
        assert np.array_equal(a.wind_speed, b.wind_speed)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_weather_csv(a, pa)
        write_weather_csv(b, pb)
        assert pa.read_text() == pb.read_text()

    def test_clear_nights_exactly_zero(self):
        series = synthesize_weather(3, "clear", seed=0)
        hod = (np.arange(len(series)) * STEP) % 24
        night = (hod < 6.0) | (hod > 18.0)
        assert np.all(series.ghi[night] == 0.0)

    def test_post_storm_clears_up(self):
        series = synthesize_weather(7, "post-storm", seed=3)
        per_day = 144
        day_energy = [series.ghi[i * per_day:(i + 1) * per_day].sum() * STEP
                      for i in range(7)]
        assert day_energy[0] < day_energy[2]

    def test_round_trip_through_csv(self, tmp_path):
        series = synthesize_weather(2, "cloudy", seed=5)
        path = tmp_path / "w.csv"
        write_weather_csv(series, path)
        again = parse_weather_csv(path, STEP)
        assert len(again) == len(series)
        assert np.allclose(again.ghi, series.ghi, rtol=1e-5)
        assert np.allclose(again.t_ambient, series.t_ambient, rtol=1e-5)

    def test_unknown_profile(self):
        with pytest.raises(DataError, match="unknown profile"):
            synthesize_weather(1, "sunny-with-meatballs", seed=0)
