"""End-to-end CLI tests on tiny scenarios (desk horizons shrunk further)."""

import concurrent.futures
import csv
from pathlib import Path

import pytest
import yaml

from offgrid import cli
from offgrid.cli import _build_parser, main, read_solver_log
from offgrid.config import config_from_dict
from offgrid.metrics import load_metrics
from offgrid.plant import read_trace_csv
from offgrid.weather import parse_weather_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def weather_csv(tmp_path):
    out = tmp_path / "weather.csv"
    assert run("--out", tmp_path, "synth-weather", "--days", "2",
               "--profile", "clear", "--out-file", out) == 0
    return out


class TestSynthWeather:
    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("--seed", 9, "synth-weather", "--days", 3,
                   "--profile", "post-storm", "--out-file", a) == 0
        assert run("--seed", 9, "synth-weather", "--days", 3,
                   "--profile", "post-storm", "--out-file", b) == 0
        assert a.read_text() == b.read_text()

    def test_output_parses_back(self, weather_csv):
        series = parse_weather_csv(weather_csv, 1.0 / 6.0)
        assert len(series) == 288

    def test_post_storm_day1_below_day3(self, tmp_path):
        out = tmp_path / "w.csv"
        run("synth-weather", "--days", 3, "--profile", "post-storm", "--out-file", out)
        series = parse_weather_csv(out, 1.0 / 6.0)
        day = lambda d: series.ghi[d * 144:(d + 1) * 144].sum()
        assert day(0) < day(2)


class TestSimulate:
    def test_proposed_writes_all_artifacts(self, tmp_path, weather_csv):
        out = tmp_path / "run"
        code = run("--out", out, "simulate", "--controller", "proposed",
                   "--weather", weather_csv, "--days", "0.25",
                   "--horizon", "12", "--time-limit", "5")
        assert code == 0
        trace = read_trace_csv(out / "trace.csv")
        assert len(trace) == 36
        metrics = load_metrics(out / "metrics.txt")
        assert metrics.days == pytest.approx(0.25)
        log_rows = read_solver_log(out / "solver_log.csv")
        assert len(log_rows) == 36
        assert all(r["status"] in ("Optimal", "GapLimit", "TimeLimit") for r in log_rows)
        for row, rec in zip(log_rows, trace):
            assert (row["status"], int(row["nodes"]), int(row["simplex_iters"])) == \
                (rec.solver_status, rec.solver_nodes, rec.solver_iterations)
            assert rec.solver_iterations > 0

    def test_baseline_writes_no_solver_log(self, tmp_path, weather_csv):
        out = tmp_path / "runb"
        code = run("--out", out, "simulate", "--controller", "baseline",
                   "--weather", weather_csv, "--days", "0.5")
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "metrics.txt").exists()
        assert not (out / "solver_log.csv").exists()

    def test_missing_weather_file_fails_with_message(self, tmp_path, capsys):
        code = run("--out", tmp_path, "simulate", "--weather", tmp_path / "nope.csv")
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_truncated_house_trace_fails_with_message(self, tmp_path, capsys):
        house = tmp_path / "house.csv"
        house.write_text("timestamp,temperature\n2017-09-11 00:00,20.0\n2017-09-11 01:00\n")
        code = run("--out", tmp_path / "runh", "simulate", "--controller", "baseline",
                   "--days", "0.5", "--profile", "clear", "--house-temp", house)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "house.csv: short row at line 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--time-limit", "0"), ("--time-limit", "nan"),
                                            ("--horizon", "0")])
    def test_bad_solver_limit_fails_with_message(self, tmp_path, capsys, flag, value):
        code = run("--out", tmp_path, "simulate", "--days", "0.5", "--profile", "clear",
                   flag, value)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_synthetic_fallback_when_no_weather_given(self, tmp_path):
        out = tmp_path / "runs"
        code = run("--out", out, "simulate", "--controller", "baseline",
                   "--days", "0.5", "--profile", "clear")
        assert code == 0

    def test_fractional_days_synthesize_enough_weather(self, tmp_path):
        # 2.4 days need 57.7 h of weather; rounding to 2 days gave only 48 h.
        out = tmp_path / "runf"
        code = run("--out", out, "simulate", "--controller", "baseline", "--days", "2.4")
        assert code == 0
        assert len(read_trace_csv(out / "trace.csv")) == 346

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_days_fails_with_message(self, tmp_path, capsys, value):
        code = run("--out", tmp_path, "simulate", "--controller", "baseline", "--days", value)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--days" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-5"])
    def test_bad_violation_tol_fails_with_message(self, tmp_path, capsys, value):
        code = run("--out", tmp_path, "simulate", "--controller", "baseline", "--days", "1",
                   "--violation-tol", value)
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--violation-tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,field", [("--gap", "rel_gap_limit"),
                                            ("--time-limit", "time_limit")])
    def test_infinite_solver_limit_fails_with_message(self, tmp_path, capsys, flag, field):
        code = run("--out", tmp_path, "simulate", "--days", "0.05", "--horizon", "3", flag, "inf")
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be positive and finite, got inf" in err
        assert "Traceback" not in err and not (tmp_path / "trace.csv").exists()


    @pytest.mark.parametrize("line,message", [
        ("mpc: {lambda1: .nan}", "mpc.lambda1 must be finite, got nan"),
        ("step_minutes: abc", "step_minutes must be a number, got 'abc'"),
        ("loads: {n_light: 3}", "loads: unknown field(s) ['n_light']"),
        ("loads: {light_windows: '18:00-24:00'}", "loads.light_windows must be a list"),
        ("loads: {light_windows: null}", "loads.light_windows must be a list"),
        ("loads: {light_windows: [1800]}", "loads.light_windows must be a list"),
    ])
    def test_bad_config_number_fails_with_message(self, tmp_path, capsys, line, message):
        config = tmp_path / "bad.yaml"
        config.write_text(line + "\n")
        code = run("--config", config, "--out", tmp_path, "simulate",
                   "--controller", "baseline", "--days", "0.05")
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()


class TestCompare:
    def test_emits_two_metric_rows(self, tmp_path, weather_csv, capsys):
        out = tmp_path / "cmp"
        code = run("--out", out, "compare", "--weather", weather_csv,
                   "--days", "0.25", "--horizon", "9", "--time-limit", "5")
        assert code == 0
        printed = capsys.readouterr().out
        assert "Refrigerator temp. violation" in printed
        assert "Secondary loads not served" in printed
        assert (out / "comparison.txt").exists()
        assert (out / "baseline" / "trace.csv").exists()
        assert (out / "proposed" / "trace.csv").exists()

    def test_abundant_energy_secondary_served_by_both(self, tmp_path, capsys):
        """On a clear, energy-rich window both controllers serve the schedule;
        the optimizing controller also keeps the band (the dead-band rule
        overshoots the band by construction at this discretization)."""
        out = tmp_path / "cmp2"
        code = run("--out", out, "compare", "--days", "0.25", "--profile",
                   "clear", "--horizon", "9", "--time-limit", "5")
        assert code == 0
        b = load_metrics(out / "baseline" / "metrics.txt")
        p = load_metrics(out / "proposed" / "metrics.txt")
        assert b.secondary_unserved_pct == pytest.approx(0.0)
        assert p.secondary_unserved_pct == pytest.approx(0.0)
        assert p.temp_violation_hours_per_day <= b.temp_violation_hours_per_day


class TestSweep:
    def test_seven_rows_with_costs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run("--out", out, "sweep-sizes", "--days", "0.25",
                   "--profile", "post-storm", "--horizon", "6", "--time-limit", "2")
        assert code == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        assert [r["size"] for r in rows] == ["A", "B", "C", "D", "E", "F", "A"]
        assert rows[-1]["controller"] == "proposed"
        assert [float(r["cost"]) for r in rows[:6]] == [1100, 1200, 1900, 2000, 2100, 2200]

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        args = ["sweep-sizes", "--days", "0.25", "--profile", "clear",
                "--horizon", "6", "--time-limit", "2"]
        assert run("--out", serial, *args) == 0
        assert run("--out", parallel, *args, "--jobs", "3") == 0
        a = (serial / "sweep.csv").read_text()
        b = (parallel / "sweep.csv").read_text()
        assert a == b


    def test_workers_capped_at_job_count(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and runs the jobs in this
        # process, so no worker is ever started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = ["sweep-sizes", "--days", "0.05", "--profile", "clear",
                "--horizon", "3", "--time-limit", "2"]
        assert run("--out", tmp_path / "serial", *args) == 0
        assert run("--out", tmp_path / "many", *args, "--jobs", "64") == 0
        assert run("--out", tmp_path / "two", *args, "--jobs", "2") == 0
        assert sizes == [7, 2]
        serial = (tmp_path / "serial" / "sweep.csv").read_text()
        assert (tmp_path / "many" / "sweep.csv").read_text() == serial

    def test_weather_parsed_once(self, tmp_path, monkeypatch):
        weather = tmp_path / "storm.csv"
        assert run("synth-weather", "--days", "2", "--profile", "post-storm",
                   "--out-file", weather) == 0
        calls = []

        def counting_parse(*args, **kwargs):
            calls.append(args)
            return parse_weather_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_weather_csv", counting_parse)
        assert run("--out", tmp_path, "sweep-sizes", "--weather", weather, "--days", "1",
                   "--horizon", "6", "--time-limit", "2") == 0
        assert len(calls) == 1
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        # the baseline rows as written when each size parsed the file itself
        assert lines[:7] == [
            "size,controller,description,cost,primary_unserved_h_per_day,"
            "temp_violation_h_per_day,secondary_unserved_pct",
            "A,baseline,3 PV panels + 2 battery units,1100.0,2.166667,9.166667,15.5556",
            "B,baseline,4 PV panels + 2 battery units,1200.0,1.000000,8.333333,12.2222",
            "C,baseline,3 PV panels + 4 battery units,1900.0,0.000000,7.500000,0.0000",
            "D,baseline,4 PV panels + 4 battery units,2000.0,0.000000,7.500000,0.0000",
            "E,baseline,5 PV panels + 4 battery units,2100.0,0.000000,7.500000,0.0000",
            "F,baseline,6 PV panels + 4 battery units,2200.0,0.000000,7.500000,0.0000",
        ]
        assert lines[7].startswith("A,proposed,")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_fail_with_message(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        assert run("--out", tmp_path, "sweep-sizes", "--jobs", jobs, "--days", "0.05") == 1
        err = capsys.readouterr().err
        assert f"error: --jobs must be >= 1, got {jobs}" in err
        assert not (tmp_path / "sweep.csv").exists()


class TestSize:
    def test_reference_output(self, capsys):
        assert run("size") == 0
        out = capsys.readouterr().out
        assert "panels (parallel)      3" in out
        assert "battery units          2" in out
        assert "24 V" in out
        assert "$1100" in out

    def test_overrides(self, capsys):
        assert run("size", "--storage-days", "2") == 0
        out = capsys.readouterr().out
        assert "battery units          4" in out

    @pytest.mark.parametrize("argv,what", [
        (["--demand-wh", "1e308", "--storage-days", "1e308"], "battery string count"),
        (["--insolation", "1e-320"], "panel count"),
    ])
    def test_overflowing_sizing_fails_with_message(self, capsys, argv, what):
        assert run("size", *argv) == 1
        err = capsys.readouterr().err
        assert f"error: {what} overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,field", [("--demand-wh", "daily_demand_wh"),
                                            ("--storage-days", "storage_days"),
                                            ("--insolation", "insolation_psh")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_override_fails_with_message(self, capsys, flag, field, value):
        assert run("size", flag, value) == 1
        err = capsys.readouterr().err
        assert f"error: sizing.{field} must be finite" in err and "Traceback" not in err


class TestReadme:
    def test_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        examples = [line.split() for line in block.splitlines() if line.startswith("offgrid ")]
        assert len(examples) == 5
        for argv in examples:
            _build_parser().parse_args(argv[1:])  # exits 2 on a flag it does not take

    def test_config_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(yaml.safe_load(block))
        assert (cfg.loads.n_fans, cfg.loads.p_fan_w) == (4, 65)
