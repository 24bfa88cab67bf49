"""Ground-truth closed-loop plant: interaction equations, shedding, tracing.

Each step: take the step's PV potential from the scenario, derive the house
load of the granted load set (inverter losses included), let the charge
controller move energy subject to its caps and the battery's true headroom,
advance the battery and fridge states. Commands that are not energy-feasible
degrade by shedding the secondary circuit first, then the refrigerator;
unserved energy is recorded so the metrics stay honest under controller error.

Conservation identities maintained every step (audited by the test suite):
  pv_potential == pv_used + pv_unused
  pv_used      == load_served_from_pv + battery_charge
and the battery never leaves [e_min, e_max].

The trace CSV has one column per StepRecord field, in field order; each
column's text format and parser follow from the field's type, and it is read
back through the table reader every input file shares (`offgrid.csvtable`).
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, fields
from datetime import datetime
from pathlib import Path
from typing import Literal, get_type_hints

from .config import SystemConfig
from .csvtable import parse_timestamp, read_table
from .devices import battery_step, fridge_discretize, fridge_energy, fridge_step
from .errors import OffgridError
from .milp import MilpSolution, SolverOptions
from .mpc import ControlCommand, MpcController
from .scenario import Scenario

BOUND_EPS = 1e-9


@dataclass(frozen=True)
class PlantState:
    """Dynamic plant state x(k): battery energy and fridge temperature."""

    e_bat_wh: float
    t_fr_c: float


@dataclass(frozen=True)
class PlantFlows:
    """Per-step energy bookkeeping of the PV/battery/load interactions."""

    e_pv: float
    e_pv_used: float
    e_pv_unused: float
    e_hl: float
    e_charge: float
    e_discharge: float
    unserved_fr: float
    unserved_s: float


@dataclass
class ControllerDecision:
    """What a controller wanted (requested) and what it commands."""

    command: ControlCommand
    requested_u_fr: int
    requested_u_s: int
    solver: MilpSolution | None = None
    fallback: bool = False


@dataclass
class StepRecord:
    """One trace row: state at step start, commands, flows, exogenous inputs."""

    timestamp: datetime
    t_fr: float
    e_bat: float
    u_fr_req: int
    u_fr_applied: int
    u_s_req: int
    u_s_applied: int
    gamma: float
    c: int
    d: int
    x_bat: int
    e_pv: float
    e_pv_used: float
    e_hl: float
    e_c: float
    e_dc: float
    unserved_fr: float
    unserved_s: float
    ghi: float
    t_house: float
    e_s_scheduled: float
    t_fr_end: float
    e_bat_end: float
    solver_status: str = ""
    solver_objective: float = float("nan")
    solver_bound: float = float("nan")
    solver_rel_gap: float = float("nan")
    solver_nodes: int = 0
    solver_iterations: int = 0
    solver_wall_s: float = 0.0
    fallback: int = 0


TRACE_COLUMNS = [f.name for f in fields(StepRecord)]

# Field type -> (format spec for to_csv, parser for read_trace_csv). An empty
# spec writes str(value); a datetime then reads back as an ISO-8601 timestamp.
_CSV_CODECS = {
    datetime: ("", parse_timestamp),
    float: (".10g", float),
    int: ("", int),
    str: ("", str),
}
_FIELD_CODECS = [_CSV_CODECS[t] for t in get_type_hints(StepRecord).values()]
_TRACE_PARSERS = {name: parse for name, (_, parse) in zip(TRACE_COLUMNS, _FIELD_CODECS)}
_record_values = operator.attrgetter(*TRACE_COLUMNS)


@dataclass
class SimulationTrace:
    """Full closed-loop record plus the defining run parameters."""

    records: list[StepRecord]
    step_hours: float
    controller: str

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for r in self.records:
                writer.writerow([format(v, spec) for (spec, _), v
                                 in zip(_FIELD_CODECS, _record_values(r))])


def read_trace_csv(path: str | Path, step_hours: float | None = None,
                   controller: str = "") -> SimulationTrace:
    """Re-read a trace written by SimulationTrace.to_csv."""
    records = [StepRecord(*values) for _, values in read_table(path, _TRACE_PARSERS)]
    if step_hours is None:
        if len(records) > 1:
            step_hours = (records[1].timestamp - records[0].timestamp).total_seconds() / 3600.0
        else:
            step_hours = 1.0 / 6.0
    return SimulationTrace(records=records, step_hours=step_hours, controller=controller)


def plant_step(
    state: PlantState,
    cmd: ControlCommand,
    e_pv_wh: float,
    t_house: float,
    e_secondary: float,
    config: SystemConfig,
    requested: tuple[int, int] | None = None,
) -> tuple[PlantState, PlantFlows, int, int]:
    """Apply one command to the physical models; total, never raises on shortfall.

    `e_pv_wh` is the step's PV energy potential (Wh), as the scenario holds it.
    Returns (next_state, flows, applied_u_fr, applied_u_s). `requested` is the
    controller's pre-shedding wish used for the unserved-energy bookkeeping
    (defaults to the command itself).
    """
    bat = config.battery
    if not (bat.e_min_wh - 1e-6 <= state.e_bat_wh <= bat.e_max_wh + 1e-6):
        raise OffgridError(f"battery state {state.e_bat_wh} outside bounds")
    e_fr = fridge_energy(config.fridge, config.step_hours)
    req_fr, req_s = requested if requested is not None else (cmd.u_fr, cmd.u_s)

    # Deliverable battery energy this step: the headroom term carries the
    # discharge efficiency so the stored level can never cross e_min.
    deliverable = max(0.0, min((state.e_bat_wh - bat.e_min_wh) * bat.eta_discharge,
                               bat.e_discharge_max_wh))

    # An energized circuit draws power regardless of the commanded charging
    # regime: the charge controller covers granted loads beyond PV from the
    # battery (that IS the discharge regime), and the c/x_bat command only
    # governs whether and how fast PV surplus is stored. Without this, a
    # controller-side charge command issued into a small PV deficit (the
    # inverter-loss mismatch) would shed loads while the battery sits full.
    for fr, s in ((cmd.u_fr, cmd.u_s), (cmd.u_fr, 0), (0, 0)):
        e_hl = (fr * e_fr + s * e_secondary) / config.inverter_efficiency
        if e_pv_wh + deliverable >= e_hl - BOUND_EPS:
            break

    e_charge = cmd.c * max(0.0, min(e_pv_wh - e_hl,
                                    bat.e_max_wh - state.e_bat_wh,
                                    cmd.x_bat * bat.e_charge_max_wh))
    e_discharge = max(0.0, min(e_hl - e_pv_wh, deliverable, bat.e_discharge_max_wh))
    pv_to_load = min(e_pv_wh, e_hl)
    e_pv_used = pv_to_load + e_charge
    e_pv_unused = e_pv_wh - e_pv_used

    e_next = battery_step(bat, state.e_bat_wh, e_charge, e_discharge)
    e_next = min(max(e_next, bat.e_min_wh), bat.e_max_wh)  # snap roundoff only
    disc = fridge_discretize(config.fridge, config.step_hours)
    t_next = fridge_step(disc, state.t_fr_c, fr, t_house)

    flows = PlantFlows(
        e_pv=e_pv_wh,
        e_pv_used=e_pv_used,
        e_pv_unused=e_pv_unused,
        e_hl=e_hl,
        e_charge=e_charge,
        e_discharge=e_discharge,
        unserved_fr=(req_fr - fr) * e_fr,
        unserved_s=(req_s - s) * e_secondary,
    )
    next_state = PlantState(e_bat_wh=e_next, t_fr_c=t_next)
    return next_state, flows, fr, s


ControllerName = Literal["proposed", "baseline"]


def make_controller(name: ControllerName, config: SystemConfig,
                    options: SolverOptions | None = None):
    if name == "proposed":
        return MpcController(config, options)
    if name == "baseline":
        from .baseline import BaselineController

        return BaselineController(config)
    raise OffgridError(f"unknown controller {name!r}")


def initial_plant_state(config: SystemConfig, t_fr_c: float = 2.0) -> PlantState:
    """Study initial condition: battery full, fridge at 2 degC."""
    return PlantState(e_bat_wh=config.battery.e_max_wh, t_fr_c=t_fr_c)


def run_closed_loop(
    controller,
    scenario: Scenario,
    config: SystemConfig,
    options: SolverOptions | None = None,
    initial_state: PlantState | None = None,
) -> SimulationTrace:
    """Simulate the plant under a controller for the scenario's window.

    `controller` is "proposed", "baseline", or any object with a
    decide(state, scenario, k) -> ControllerDecision method.
    """
    if isinstance(controller, str):
        name = controller
        controller = make_controller(controller, config, options)
    else:
        name = type(controller).__name__
    state = initial_state or initial_plant_state(config)
    records: list[StepRecord] = []
    for k in range(scenario.n_steps):
        t_house = float(scenario.t_house[k])
        e_secondary = float(scenario.e_secondary[k])
        decision = controller.decide(state, scenario, k)
        cmd = decision.command
        next_state, flows, fr, s = plant_step(
            state, cmd, float(scenario.pv_avail_wh[k]), t_house, e_secondary, config,
            requested=(decision.requested_u_fr, decision.requested_u_s),
        )
        rec = StepRecord(
            timestamp=scenario.weather.timestamp(k),
            t_fr=state.t_fr_c,
            e_bat=state.e_bat_wh,
            u_fr_req=decision.requested_u_fr,
            u_fr_applied=fr,
            u_s_req=decision.requested_u_s,
            u_s_applied=s,
            gamma=cmd.gamma,
            c=cmd.c,
            d=cmd.d,
            x_bat=cmd.x_bat,
            e_pv=flows.e_pv,
            e_pv_used=flows.e_pv_used,
            e_hl=flows.e_hl,
            e_c=flows.e_charge,
            e_dc=flows.e_discharge,
            unserved_fr=flows.unserved_fr,
            unserved_s=flows.unserved_s,
            ghi=float(scenario.weather.ghi[k]),
            t_house=t_house,
            e_s_scheduled=e_secondary,
            t_fr_end=next_state.t_fr_c,
            e_bat_end=next_state.e_bat_wh,
        )
        if decision.solver is not None:
            rec.solver_status = decision.solver.status
            rec.solver_objective = decision.solver.objective
            rec.solver_bound = decision.solver.best_bound
            rec.solver_rel_gap = decision.solver.rel_gap
            rec.solver_nodes = decision.solver.nodes_explored
            rec.solver_iterations = decision.solver.simplex_iterations
            rec.solver_wall_s = decision.solver.wall_time
        rec.fallback = 1 if decision.fallback else 0
        records.append(rec)
        state = next_state
    return SimulationTrace(records=records, step_hours=config.step_hours, controller=name)
