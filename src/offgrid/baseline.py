"""Rule-based comparison controller: dead-band fridge + PV-surplus charge rules.

The fridge runs on plain hysteresis over the temperature band. Loads are
granted only if the current step's PV energy plus what the battery can
deliver right now covers the resulting house load; the secondary circuit is
shed before the refrigerator. The battery charges whenever PV exceeds the
granted house load and discharges whenever it falls short (normal charging
mode only). No forecasts are used anywhere - that is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import BatteryParams, SystemConfig
from .devices import fridge_energy
from .mpc import ControlCommand

if TYPE_CHECKING:
    from .plant import PlantState
    from .scenario import Scenario

FEAS_EPS = 1e-9


@dataclass
class BaselineState:
    """Hysteresis memory of the dead-band rule."""

    u_fr_prev: int = 0

    def __post_init__(self):
        if self.u_fr_prev not in (0, 1):
            raise ValueError("u_fr_prev must be binary")


def deadband_fridge(state: BaselineState, t_fridge: float, t_min: float, t_max: float) -> int:
    """On at/above the upper band edge, off at/below the lower, hold in between."""
    if t_min >= t_max:
        raise ValueError("dead band requires t_min < t_max")
    if t_fridge >= t_max:
        u = 1
    elif t_fridge <= t_min:
        u = 0
    else:
        u = state.u_fr_prev
    state.u_fr_prev = u
    return u


def available_discharge_estimate(e_bat: float, params: BatteryParams) -> float:
    """Energy the baseline believes the battery can deliver this step (Wh).

    Deliberately conservative: the discharge efficiency is applied after the
    min of the energy headroom and the per-step cap.
    """
    return max(0.0, min(e_bat - params.e_min_wh, params.e_discharge_max_wh)) * params.eta_discharge


def baseline_dispatch(
    e_pv: float,
    demand_fr: float,
    demand_s: float,
    e_bat: float,
    params: BatteryParams,
    eta_inv: float,
) -> tuple[int, int, int, int]:
    """Grant loads by current-step adequacy and set the charge-controller flags.

    Returns (u_fr_granted, u_s_granted, c, d). A load is granted only when
    PV plus the battery's deliverable energy covers the house load that would
    result; the secondary circuit is shed first. c/d compare PV against the
    granted house load with strict inequalities, so they are never both 1.
    """
    if demand_fr < 0 or demand_s < 0:
        raise ValueError("demands must be >= 0")
    budget = e_pv + available_discharge_estimate(e_bat, params)
    fr_req = 1 if demand_fr > 0 else 0
    s_req = 1 if demand_s > 0 else 0
    candidates = [(fr_req, s_req), (fr_req, 0), (0, 0)]
    fr = s = 0
    e_hl = 0.0
    for fr, s in candidates:
        e_hl = (fr * demand_fr + s * demand_s) / eta_inv
        if budget >= e_hl - FEAS_EPS:
            break
    c = 1 if e_pv > e_hl else 0
    d = 1 if e_pv < e_hl else 0
    return fr, s, c, d


class BaselineController:
    """Closed-loop wrapper holding the hysteresis bit and the device constants."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.state = BaselineState()
        self._e_fr = fridge_energy(config.fridge, config.step_hours)

    def decide(self, state: "PlantState", scenario: "Scenario", k: int):
        from .plant import ControllerDecision

        e_secondary = float(scenario.e_secondary[k])
        f = self.config.fridge
        u_req = deadband_fridge(self.state, state.t_fr_c, f.t_min_c, f.t_max_c)
        fr, s, c, d = baseline_dispatch(
            e_pv=float(scenario.pv_avail_wh[k]),
            demand_fr=u_req * self._e_fr,
            demand_s=e_secondary,
            e_bat=state.e_bat_wh,
            params=self.config.battery,
            eta_inv=self.config.inverter_efficiency,
        )
        gamma = 1.0 if c else (-1.0 if d else 0.0)  # normal charging mode only
        cmd = ControlCommand(u_fr=fr, u_s=s, gamma=gamma)
        return ControllerDecision(
            command=cmd,
            requested_u_fr=u_req,
            requested_u_s=1 if e_secondary > 0 else 0,
        )
