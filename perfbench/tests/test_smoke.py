"""Smoke test of the benchmark: tiny runs of every workload, and the trace
checks against deliberately corrupted rows.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_STEPS = {"storm-n36": 2, "clear-n144": 1, "ladder-csv": 144}

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import checks  # noqa: E402
from offgrid import (  # noqa: E402
    build_scenario, default_config, read_trace_csv, run_closed_loop, synthesize_weather)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--episode-steps", str(TINY_STEPS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    done = run(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert printed(lines, m["name"], m["unit"])


def test_traced_run_prints_every_per_layer_metric():
    done = run("storm-n36", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed(lines, m["name"], m["unit"])
    assert res["metrics"]["mpc.plans"]["value"] == TINY_STEPS["storm-n36"]
    assert res["metrics"]["milp.simplex.iters"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = run("ladder-csv", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _baseline_day():
    config = default_config()
    weather = synthesize_weather(1, "clear", seed=0, step_hours=config.step_hours)
    trace = run_closed_loop("baseline", build_scenario(weather, config, days=1), config)
    return config, trace


@pytest.mark.parametrize("field, delta", [("e_pv_used", 1.0), ("e_pv_used", -1.0),
                                          ("e_bat_end", 1e4)])
def test_identity_check_flags_a_corrupted_row(field, delta):
    config, trace = _baseline_day()
    bat = config.battery
    assert checks.plant_identity_failures(trace, bat.e_min_wh, bat.e_max_wh) == []
    k = next(i for i, r in enumerate(trace.records) if r.e_pv > 0 and r.e_pv_used > 0)
    setattr(trace.records[k], field, getattr(trace.records[k], field) + delta)
    assert checks.plant_identity_failures(trace, bat.e_min_wh, bat.e_max_wh) == [k]


def test_gap_and_repeat_checks_flag_a_corrupted_row():
    _, trace = _baseline_day()
    reference = checks.decision_signature(trace)
    trace.records[5].solver_status = "GapLimit"
    trace.records[5].solver_rel_gap = 0.02
    assert checks.solver_failures(trace, 0.01) == [5]
    assert checks.mismatched_steps(reference, checks.decision_signature(trace)) == [5]


def test_round_trip_check_flags_a_changed_row(tmp_path):
    _, trace = _baseline_day()
    trace.to_csv(tmp_path / "trace.csv")
    back = read_trace_csv(tmp_path / "trace.csv", step_hours=trace.step_hours)
    assert checks.round_trip_failures(trace, back) == []
    back.records[7].e_c += 1.0
    assert checks.round_trip_failures(trace, back) == [7]
