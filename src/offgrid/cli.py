"""Batch command-line interface.

Subcommands: simulate, compare, sweep-sizes, size, synth-weather. Desk-scale
defaults keep every optimizer solve in the sub-second range (6 h planning
horizon); `--paper-scale` restores the 24 h horizon and 5-minute solver
budget of the reference study.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import logging
import math
import sys
from pathlib import Path

from . import __version__
from .config import SystemConfig, default_config, load_config, save_config
from .errors import ConfigError, OffgridError
from .metrics import ResiliencyMetrics, compute_metrics, save_metrics
from .milp import SolverOptions
from .plant import SimulationTrace, run_closed_loop
from .scenario import build_scenario, load_house_trace_csv
from .sizing import SizingSpec, scale_config_to_size, size_ladder, size_system
from .weather import SYNTH_PROFILES, parse_weather_csv, synthesize_weather, write_weather_csv

log = logging.getLogger(__name__)

DESK_HORIZON = 36
DESK_TIME_LIMIT_S = 1.0
PAPER_HORIZON = 144
PAPER_TIME_LIMIT_S = 300.0

SOLVER_LOG_COLUMNS = ["step", "status", "objective", "best_bound", "rel_gap",
                      "nodes", "simplex_iters", "wall_s", "fallback"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="offgrid",
        description="Outage-resiliency study tool for a home PV+battery system.",
    )
    p.add_argument("--version", action="version", version=f"offgrid {__version__}")
    p.add_argument("--config", type=Path, default=None,
                   help="YAML system configuration (defaults: reference system)")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic weather")
    p.add_argument("--paper-scale", action="store_true",
                   help="24 h horizon (N=144) and 300 s solver budget instead of the "
                        "desk-scale 6 h horizon and 1 s budget")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="closed-loop run of one controller")
    _add_run_args(sim)
    sim.add_argument("--controller", choices=["proposed", "baseline"], default="proposed")

    cmp_ = sub.add_parser("compare", help="run both controllers on one scenario")
    _add_run_args(cmp_)

    swp = sub.add_parser("sweep-sizes",
                         help="baseline across the size ladder plus proposed at size A")
    _add_run_args(swp)
    swp.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")

    sz = sub.add_parser("size", help="standalone PV+battery sizing")
    sz.add_argument("--demand-wh", type=float, default=None)
    sz.add_argument("--insolation", type=float, default=None)
    sz.add_argument("--storage-days", type=float, default=None)

    syn = sub.add_parser("synth-weather", help="write a synthetic weather CSV")
    syn.add_argument("--days", type=int, default=7)
    syn.add_argument("--profile", choices=list(SYNTH_PROFILES), default="clear")
    syn.add_argument("--out-file", type=Path, default=None,
                     help="target CSV (default <out>/weather.csv)")
    return p


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weather", type=Path, default=None,
                   help="weather CSV; omitted: synthesize --profile for --days")
    p.add_argument("--profile", choices=list(SYNTH_PROFILES), default="post-storm",
                   help="synthetic profile when no --weather is given")
    p.add_argument("--days", type=float, default=7.0, help="simulated days")
    p.add_argument("--house-temp", type=Path, default=None,
                   help="house temperature CSV (timestamp,temperature); "
                        "default: built-in daily sinusoid")
    p.add_argument("--gap", type=float, default=0.01, help="solver relative MIP gap")
    p.add_argument("--time-limit", type=float, default=None,
                   help="per-solve budget in seconds (default by scale)")
    p.add_argument("--horizon", type=int, default=None,
                   help="planning horizon in steps (default by scale)")
    p.add_argument("--violation-tol", type=float, default=0.05,
                   help="degC beyond the band counted as violation")


def _load_config(args) -> SystemConfig:
    cfg = load_config(args.config) if args.config else default_config()
    horizon = args.horizon if getattr(args, "horizon", None) is not None else (
        PAPER_HORIZON if args.paper_scale else DESK_HORIZON)
    return cfg.replace(horizon_steps=horizon)


def _solver_options(args) -> SolverOptions:
    limit = args.time_limit if args.time_limit is not None else (
        PAPER_TIME_LIMIT_S if args.paper_scale else DESK_TIME_LIMIT_S)
    return SolverOptions(rel_gap_limit=args.gap, time_limit=limit)


def _inputs(args, cfg: SystemConfig):
    """The run's weather and house-temperature trace (None: the sinusoid) at cfg's step."""
    if not (math.isfinite(args.days) and args.days > 0):
        raise ConfigError(f"--days must be a positive finite number, got {args.days}")
    # checked here too, so a bad value fails before the simulation runs
    if not (math.isfinite(args.violation_tol) and args.violation_tol >= 0):
        raise ConfigError(f"--violation-tol must be finite and >= 0, got {args.violation_tol}")
    if args.weather:
        weather = parse_weather_csv(args.weather, cfg.step_hours)
    else:
        weather = synthesize_weather(math.ceil(args.days), args.profile,
                                     seed=args.seed, step_hours=cfg.step_hours)
        log.info("synthesized %s weather for %.1f days (seed %d)",
                 args.profile, args.days, args.seed)
    trace = load_house_trace_csv(args.house_temp, cfg.step_hours) if args.house_temp else None
    return weather, trace


def _scenario(args, cfg: SystemConfig):
    weather, trace = _inputs(args, cfg)
    return build_scenario(weather, cfg, days=args.days, house_trace=trace)


def _write_solver_log(trace: SimulationTrace, path: Path) -> None:
    """Per-step solver log."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SOLVER_LOG_COLUMNS)
        for i, rec in enumerate(trace):
            writer.writerow([i, rec.solver_status, f"{rec.solver_objective:.8g}",
                             f"{rec.solver_bound:.8g}", f"{rec.solver_rel_gap:.6g}",
                             rec.solver_nodes, rec.solver_iterations,
                             f"{rec.solver_wall_s:.4g}", rec.fallback])


def _run_one(controller: str, scenario, cfg: SystemConfig, options: SolverOptions,
             out_dir: Path, violation_tol: float) -> ResiliencyMetrics:
    trace = run_closed_loop(controller, scenario, cfg, options)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    metrics = compute_metrics(trace, (cfg.fridge.t_min_c, cfg.fridge.t_max_c),
                              tol=violation_tol)
    save_metrics(metrics, out_dir / "metrics.txt",
                 header=f"controller: {controller}")
    if controller == "proposed":
        _write_solver_log(trace, out_dir / "solver_log.csv")
        log.info("solver stalled (TimeLimit) on %d of %d steps",
                 metrics.solver_stalls, len(trace))
    return metrics


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = _scenario(args, cfg)
    metrics = _run_one(args.controller, scenario, cfg, _solver_options(args),
                       args.out, args.violation_tol)
    print(f"controller            : {args.controller}")
    print(f"days simulated        : {metrics.days:.2f}")
    print(f"temp violation        : {metrics.temp_violation_hours_per_day:.4f} h/day")
    print(f"secondary unserved    : {metrics.secondary_unserved_pct:.2f} %")
    print(f"primary unserved      : {metrics.primary_unserved_hours_per_day:.4f} h/day")
    print(f"artifacts             : {args.out}/trace.csv, metrics.txt"
          + (", solver_log.csv" if args.controller == "proposed" else ""))
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    scenario = _scenario(args, cfg)
    options = _solver_options(args)
    results: dict[str, ResiliencyMetrics] = {}
    for controller in ("baseline", "proposed"):
        results[controller] = _run_one(controller, scenario, cfg, options,
                                       args.out / controller, args.violation_tol)
    b, p = results["baseline"], results["proposed"]
    table = [
        ("Refrigerator temp. violation (hours/day)",
         f"{b.temp_violation_hours_per_day:.4f}", f"{p.temp_violation_hours_per_day:.4f}"),
        ("Secondary loads not served (% time)",
         f"{b.secondary_unserved_pct:.2f}", f"{p.secondary_unserved_pct:.2f}"),
    ]
    lines = _format_table(("Metric", "Baseline", "Proposed"), table)
    print(lines)
    (args.out / "comparison.txt").parent.mkdir(parents=True, exist_ok=True)
    (args.out / "comparison.txt").write_text(lines + "\n")
    return 0


def _sweep_entry(payload):
    label, controller, cfg, scenario, options, tol = payload
    trace = run_closed_loop(controller, scenario, cfg, options)
    m = compute_metrics(trace, (cfg.fridge.t_min_c, cfg.fridge.t_max_c), tol=tol)
    return label, controller, m


def cmd_sweep_sizes(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args)
    options = _solver_options(args)
    ladder = size_ladder()
    # Every size shares the step, so the inputs are loaded once for all of them.
    weather, trace = _inputs(args, cfg)
    jobs = []
    for size, controller in [(s, "baseline") for s in ladder] + [(ladder[0], "proposed")]:
        size_cfg = scale_config_to_size(cfg, size.n_panels_parallel, size.n_battery_units)
        scenario = build_scenario(weather, size_cfg, days=args.days, house_trace=trace)
        jobs.append((size.label, controller, size_cfg, scenario, options, args.violation_tol))

    # A pool starts all its workers at once, so none beyond the job count.
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_entry, jobs))
    else:
        results = [_sweep_entry(j) for j in jobs]

    cost = {s.label: s.total_cost for s in ladder}
    desc = {s.label: s.describe() for s in ladder}
    rows = []
    for label, controller, m in results:
        rows.append((label, controller, desc[label], f"{cost[label]:.0f}",
                     f"{m.primary_unserved_hours_per_day:.4f}"))
    lines = _format_table(
        ("Size", "Controller", "Description", "Cost $", "Primary unserved h/day"), rows)
    print(lines)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "controller", "description", "cost",
                         "primary_unserved_h_per_day", "temp_violation_h_per_day",
                         "secondary_unserved_pct"])
        for label, controller, m in results:
            writer.writerow([label, controller, desc[label], cost[label],
                             f"{m.primary_unserved_hours_per_day:.6f}",
                             f"{m.temp_violation_hours_per_day:.6f}",
                             f"{m.secondary_unserved_pct:.4f}"])
    return 0


def cmd_size(args) -> int:
    spec = SizingSpec()
    overrides = {}
    if args.demand_wh is not None:
        overrides["daily_demand_wh"] = args.demand_wh
    if args.insolation is not None:
        overrides["insolation_psh"] = args.insolation
    if args.storage_days is not None:
        overrides["storage_days"] = args.storage_days
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    size = size_system(spec)
    print("assumptions:")
    for f in dataclasses.fields(spec):
        print(f"  {f.name:22s} {getattr(spec, f.name)}")
    print("result:")
    print(f"  panels (parallel)      {size.n_panels_parallel}")
    print(f"  battery units          {size.n_battery_units} "
          f"({size.n_battery_strings} string(s) of {size.n_battery_series} in series)")
    print(f"  dc bus voltage         {spec.system_voltage_v:.0f} V")
    print(f"  hardware cost          ${size.total_cost:.0f}")
    return 0


def cmd_synth_weather(args) -> int:
    series = synthesize_weather(args.days, args.profile, seed=args.seed)
    target = args.out_file or (args.out / "weather.csv")
    write_weather_csv(series, target)
    print(f"wrote {len(series)} records ({args.days} days, {args.profile}, "
          f"seed {args.seed}) to {target}")
    return 0


def _format_table(header: tuple, rows: list[tuple]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep-sizes": cmd_sweep_sizes,
    "size": cmd_size,
    "synth-weather": cmd_synth_weather,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except OffgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
