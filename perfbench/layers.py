"""Which offgrid attributes the traced run wraps, and how their spans roll up
into the per-layer metrics.

Every target is looked up by the program at call time (a module global or a
class attribute), so replacing it on its owner puts a span around each call.
The attributes must be resolved after `src` is on sys.path.
"""

from __future__ import annotations

import os

import offgrid.metrics
import offgrid.milp.branch_bound
import offgrid.mpc
import offgrid.plant
import offgrid.scenario
import offgrid.weather
from offgrid.baseline import BaselineController
from offgrid.milp.simplex import NUMERICAL


def _count_milp(tracer, solution, _args):
    tracer.counts["milp.bb.nodes"] += solution.nodes_explored
    if solution.status == "TimeLimit":
        tracer.counts["milp.bb.stalls"] += 1


def _count_lp(tracer, result, _args):
    tracer.counts["milp.simplex.iters"] += result.iterations
    if result.status == NUMERICAL:
        tracer.counts["milp.simplex.failed"] += 1


def _count_records(tracer, series, _args):
    tracer.counts["weather.records"] += len(series)


def _count_bytes(tracer, _result, args):
    tracer.counts["io.trace_bytes"] += os.path.getsize(args[1])


TARGETS = [
    (offgrid.plant, "run_closed_loop", "plant.loop", None),
    (offgrid.plant, "plant_step", "plant.step", None),
    (offgrid.mpc.MpcController, "decide", "mpc.decide", None),
    (offgrid.mpc, "plan", "mpc.plan", None),
    (offgrid.mpc, "solve_milp", "milp.bb", _count_milp),
    (offgrid.mpc, "check_solution", "milp.model.check", None),
    # solve_milp audits its seed incumbents with check_solution as well
    (offgrid.milp.branch_bound, "check_solution", "milp.model.check", None),
    (offgrid.milp.branch_bound, "solve_lp_std", "milp.simplex", _count_lp),
    (BaselineController, "decide", "baseline.decide", None),
    (offgrid.scenario, "build_scenario", "scenario.build", None),
    (offgrid.weather, "parse_weather_csv", "weather.parse", _count_records),
    (offgrid.metrics, "compute_metrics", "metrics.compute", None),
    (offgrid.plant.SimulationTrace, "to_csv", "io.trace_write", _count_bytes),
    (offgrid.plant, "read_trace_csv", "io.trace_read", None),
]

# name -> unit, in the order they are printed; BENCHMARK.json lists the same.
UNITS = {
    "milp.bb.solves": "count",
    "milp.bb.nodes": "count",
    "milp.bb.nodes_per_solve": "count",
    "milp.bb.stalls": "count",
    "milp.bb.self_s": "s",
    "milp.simplex.lp_calls": "count",
    "milp.simplex.iters": "count",
    "milp.simplex.iters_per_lp": "count",
    "milp.simplex.s": "s",
    "milp.simplex.us_per_iter": "us",
    "milp.simplex.failed": "count",
    "milp.model.check_calls": "count",
    "milp.model.check_s": "s",
    "mpc.plans": "count",
    "mpc.plan_s": "s",
    "mpc.self_s": "s",
    "mpc.decide_s": "s",
    "plant.steps": "count",
    "plant.step_s": "s",
    "plant.loop_self_s": "s",
    "baseline.decide_s": "s",
    "scenario.build_s": "s",
    "weather.parse_s": "s",
    "weather.records": "count",
    "metrics.compute_s": "s",
    "io.trace_write_s": "s",
    "io.trace_read_s": "s",
    "io.trace_bytes": "bytes",
    "trace.steps_per_s": "steps/s",
    "trace.untraced_steps_per_s": "steps/s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, untraced_steps_per_s: float, traced_steps_per_s: float) -> dict:
    """Per-layer values from the recorded spans and counts."""
    calls, total, own = tracer.layer_times()
    c = tracer.counts
    solves = calls["milp.bb"]
    lp_calls = calls["milp.simplex"]
    return {
        "milp.bb.solves": solves,
        "milp.bb.nodes": c["milp.bb.nodes"],
        "milp.bb.nodes_per_solve": _ratio(c["milp.bb.nodes"], solves),
        "milp.bb.stalls": c["milp.bb.stalls"],
        "milp.bb.self_s": own["milp.bb"],
        "milp.simplex.lp_calls": lp_calls,
        "milp.simplex.iters": c["milp.simplex.iters"],
        "milp.simplex.iters_per_lp": _ratio(c["milp.simplex.iters"], lp_calls),
        "milp.simplex.s": total["milp.simplex"],
        "milp.simplex.us_per_iter": 1e6 * _ratio(total["milp.simplex"], c["milp.simplex.iters"]),
        "milp.simplex.failed": c["milp.simplex.failed"],
        "milp.model.check_calls": calls["milp.model.check"],
        "milp.model.check_s": total["milp.model.check"],
        "mpc.plans": calls["mpc.plan"],
        "mpc.plan_s": total["mpc.plan"],
        "mpc.self_s": own["mpc.plan"],
        "mpc.decide_s": total["mpc.decide"],
        "plant.steps": calls["plant.step"],
        "plant.step_s": total["plant.step"],
        "plant.loop_self_s": own["plant.loop"],
        "baseline.decide_s": total["baseline.decide"],
        "scenario.build_s": total["scenario.build"],
        "weather.parse_s": total["weather.parse"],
        "weather.records": c["weather.records"],
        "metrics.compute_s": total["metrics.compute"],
        "io.trace_write_s": total["io.trace_write"],
        "io.trace_read_s": total["io.trace_read"],
        "io.trace_bytes": c["io.trace_bytes"],
        "trace.steps_per_s": traced_steps_per_s,
        "trace.untraced_steps_per_s": untraced_steps_per_s,
        "trace.overhead_pct": 100.0 * (1.0 - _ratio(traced_steps_per_s, untraced_steps_per_s)),
    }


def plan_accounting(tracer) -> tuple[float, float]:
    """(mpc.plan_s, sum of the self times of mpc, milp.bb, milp.simplex and
    milp.model inside plan spans)."""
    calls, total, own = tracer.layer_times()
    parts = own["mpc.plan"] + own["milp.bb"] + total["milp.simplex"] + total["milp.model.check"]
    return total["mpc.plan"], parts
