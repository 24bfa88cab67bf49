"""The benchmark's workloads: inputs from a seed, warm-up, and one episode.

An episode is a fixed amount of closed-loop work on the seed's inputs. A run
repeats it, so every repetition must reproduce the first one's decisions;
outcome metrics come from the first. Only calls into offgrid are timed; the
correctness checks run between them.

The offgrid functions that the traced run wraps are called through their
modules (`offgrid.scenario.build_scenario`, not a local name), so the wrappers
installed on those modules see the calls.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import offgrid.config
import offgrid.metrics
import offgrid.mpc
import offgrid.plant
import offgrid.scenario
import offgrid.sizing
import offgrid.weather
from offgrid.baseline import BaselineController
from offgrid.milp import SolverOptions
from offgrid.plant import PlantState

STEPS_PER_DAY = 144
# Larger than any run, so only the node budget ends a solve.
NEVER_S = 1e6
REL_GAP_LIMIT = 0.01


class TimedController:
    """Times each decision of the wrapped controller and labels the spans of
    one control step with a shared id. run_closed_loop accepts any object
    with decide(state, scenario, k)."""

    def __init__(self, inner, tracer=None, episode: int = 0):
        self.inner = inner
        self.tracer = tracer
        self.episode = episode
        self.decide_s: list[float] = []

    def decide(self, state, scenario, k):
        if self.tracer is not None:
            self.tracer.step_id = f"{self.episode}:{k}"
        t0 = perf_counter()
        decision = self.inner.decide(state, scenario, k)
        self.decide_s.append(perf_counter() - t0)
        return decision


@dataclass
class Episode:
    steps: int = 0
    wall_s: float = 0.0
    decide_s: list[float] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    outcomes: dict = field(default_factory=dict)
    per_size: dict = field(default_factory=dict)


def _band(config) -> tuple[float, float]:
    return config.fridge.t_min_c, config.fridge.t_max_c


def _resiliency(metrics) -> dict:
    return {
        "temp_violation_h_per_day": metrics.temp_violation_hours_per_day,
        "secondary_unserved_pct": metrics.secondary_unserved_pct,
        "primary_unserved_h_per_day": metrics.primary_unserved_hours_per_day,
    }


class MpcWorkload:
    """The proposed controller over one synthetic-weather scenario under a
    node budget, so the work done does not depend on machine speed."""

    def __init__(self, profile: str, horizon: int, node_limit: int, steps: int,
                 soc: float, t_fridge_c: tuple[float, float]):
        self.profile = profile
        self.horizon = horizon
        self.node_limit = node_limit
        self.steps = steps
        self.soc = soc
        self.t_fridge_c = t_fridge_c
        self.reference: list | None = None

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.config = offgrid.config.default_config().replace(horizon_steps=self.horizon)
        days = math.ceil((self.steps + self.horizon) / STEPS_PER_DAY)
        weather = offgrid.weather.synthesize_weather(
            days, self.profile, seed=seed, step_hours=self.config.step_hours)
        self.scenario = offgrid.scenario.build_scenario(
            weather, self.config, days=self.steps / STEPS_PER_DAY)
        bat = self.config.battery
        self.initial = PlantState(
            e_bat_wh=bat.e_min_wh + self.soc * (bat.e_max_wh - bat.e_min_wh),
            t_fr_c=float(rng.uniform(*self.t_fridge_c)))
        self.options = SolverOptions(rel_gap_limit=REL_GAP_LIMIT, time_limit=NEVER_S,
                                     node_limit=self.node_limit)

    def warm_up(self) -> None:
        """One untimed plan; the first in a process pays one-off costs
        (lazy imports, BLAS start-up) that later plans do not."""
        window = self.scenario.forecast(0, min(self.horizon, 36))
        offgrid.mpc.plan(self.initial, window, self.config, self.options)

    def run_episode(self, tracer=None, index: int = 0) -> Episode:
        ctl = TimedController(offgrid.mpc.MpcController(self.config, self.options),
                              tracer, index)
        t0 = perf_counter()
        trace = offgrid.plant.run_closed_loop(ctl, self.scenario, self.config,
                                              initial_state=self.initial)
        ep = Episode(len(trace), perf_counter() - t0, ctl.decide_s)
        bat = self.config.battery
        ep.failed.update(checks.plant_identity_failures(trace, bat.e_min_wh, bat.e_max_wh))
        ep.failed.update(checks.solver_failures(trace, REL_GAP_LIMIT))
        signature = checks.decision_signature(trace)
        if self.reference is None:
            self.reference = signature
            ep.outcomes = self._outcomes(trace)
        else:
            ep.failed.update(checks.mismatched_steps(self.reference, signature))
        return ep

    def _outcomes(self, trace) -> dict:
        m = offgrid.metrics.compute_metrics(trace, _band(self.config))
        gaps = [r.solver_rel_gap for r in trace.records]
        stalls = sum(r.solver_status == "TimeLimit" for r in trace.records)
        return {
            "stall_pct": 100.0 * stalls / len(trace),
            "mean_rel_gap": statistics.fmean(gaps),
            **_resiliency(m),
        }


class LadderWorkload:
    """The baseline controller across the A-F size ladder on weather parsed
    from a CSV file; each size's trace goes through CSV and back before it is
    scored."""

    def __init__(self, days: int, work_dir: Path):
        self.days = days
        self.work_dir = work_dir
        self.reference: dict[str, list] = {}

    def prepare(self, seed: int) -> None:
        base = offgrid.config.default_config()
        self.step_hours = base.step_hours
        self.sizes = [
            (s.label, offgrid.sizing.scale_config_to_size(base, s.n_panels_parallel,
                                                           s.n_battery_units))
            for s in offgrid.sizing.size_ladder()
        ]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        csv_path = self.work_dir / "weather.csv"
        offgrid.weather.write_weather_csv(
            offgrid.weather.synthesize_weather(self.days, "cloudy", seed=seed, step_hours=0.5),
            csv_path)
        self.weather = offgrid.weather.parse_weather_csv(csv_path, self.step_hours)

    def warm_up(self) -> None:
        _, config = self.sizes[0]
        scenario = offgrid.scenario.build_scenario(self.weather, config, days=1)
        offgrid.plant.run_closed_loop(BaselineController(config), scenario, config)

    def run_episode(self, tracer=None, index: int = 0) -> Episode:
        ep = Episode()
        for label, config in self.sizes:
            path = self.work_dir / f"trace_{label}.csv"
            ctl = TimedController(BaselineController(config), tracer, index)
            t0 = perf_counter()
            scenario = offgrid.scenario.build_scenario(self.weather, config, days=self.days)
            trace = offgrid.plant.run_closed_loop(ctl, scenario, config)
            trace.to_csv(path)
            back = offgrid.plant.read_trace_csv(path, step_hours=config.step_hours)
            metrics = offgrid.metrics.compute_metrics(back, _band(config))
            ep.wall_s += perf_counter() - t0

            offset = ep.steps
            ep.steps += len(trace)
            ep.decide_s.extend(ctl.decide_s)
            bat = config.battery
            bad = set(checks.plant_identity_failures(trace, bat.e_min_wh, bat.e_max_wh))
            bad.update(checks.round_trip_failures(trace, back))
            signature = checks.decision_signature(trace)
            if label not in self.reference:
                self.reference[label] = signature
                ep.per_size[label] = _resiliency(metrics)
            else:
                bad.update(checks.mismatched_steps(self.reference[label], signature))
            ep.failed.update(offset + i for i in bad)
        if ep.per_size:
            sizes = ep.per_size.values()
            ep.outcomes = {name: statistics.fmean(v[name] for v in sizes)
                           for name in next(iter(sizes))}
        return ep


WORKLOADS = {
    # B&B does real work. The storm night has drained the battery to half of
    # its usable range: the first 8 solves close at the root, the next 4 run
    # to the node budget (about what 1 s buys at N=36 on a 2-core box).
    "storm-n36": lambda steps, work_dir: MpcWorkload(
        "post-storm", horizon=36, node_limit=30, steps=steps or 12, soc=0.5,
        t_fridge_c=(2.0, 2.0)),  # the seed moves the weather only
    # Every solve closes at the root, so B&B is bypassed; the time goes to
    # dense simplex on the 576-row paper-horizon LP.
    "clear-n144": lambda steps, work_dir: MpcWorkload(
        "clear", horizon=144, node_limit=5, steps=steps or 2, soc=1.0,
        t_fridge_c=(1.5, 2.5)),
    # No solver: scenario build, plant loop, trace CSV write/read and metrics.
    "ladder-csv": lambda steps, work_dir: LadderWorkload(
        days=math.ceil(steps / STEPS_PER_DAY) if steps else 60, work_dir=work_dir),
}
