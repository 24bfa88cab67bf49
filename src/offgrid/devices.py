"""Physical device models: PV array, battery bucket, refrigerator thermal RC.

Unit conventions: energies are Wh per control step, powers W, temperatures
degC. The refrigerator RC discretization works in seconds because its thermal
capacitance is in J/degC; the exact A + D = 1 identity of the discrete model
pins that choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import BatteryParams, FridgeParams, PvArrayParams

SECONDS_PER_HOUR = 3600.0


def module_temperature(params: PvArrayParams, ghi, t_ambient, wind):
    """PV module temperature from ambient temperature, irradiance and wind,
    for scalars or elementwise over arrays.

    Default mode uses the standard wind-proportional denominator
    U0 + U1*W; `faiman_literal` switches to the additive variant U0 + U1 + W.
    """
    if np.any(ghi < 0):
        raise ValueError("ghi must be >= 0")
    if np.any(wind < 0):
        raise ValueError("wind speed must be >= 0")
    if params.faiman_literal:
        denom = params.u0_w_per_m2k + params.u1_w_per_m2k + wind
    else:
        denom = params.u0_w_per_m2k + params.u1_w_per_m2k * wind
    return t_ambient + ghi / denom


def pv_energy(params: PvArrayParams, ghi, t_module, step_hours: float):
    """Array energy potential over one step, Wh, clamped below at zero.

    E = n * P_rated * (G/G_std) * (1 + gamma/100 * (T_m - T_std)) * dt, for
    scalars or elementwise over arrays. The temperature term can push the
    product negative at extreme module temperatures; a panel never consumes
    energy, so the result is clamped (a signed zero to +0.0).
    """
    if np.any(ghi < 0):
        raise ValueError("ghi must be >= 0")
    derate = 1.0 + (params.gamma_pct_per_c / 100.0) * (t_module - params.t_std_c)
    e = params.n_panels * params.p_rated_w * (ghi / params.g_std_w_per_m2) * derate * step_hours
    return np.maximum(e, 0.0)


def pv_potential(params: PvArrayParams, ghi, t_ambient, wind, step_hours: float):
    """PV energy potential from raw weather (module temperature resolved
    internally), for one step or elementwise over a whole series."""
    t_m = module_temperature(params, ghi, t_ambient, wind)
    return pv_energy(params, ghi, t_m, step_hours)


def battery_step(params: BatteryParams, e_now: float, e_charge: float, e_discharge: float) -> float:
    """Advance the battery energy bucket by one step.

    e_charge is energy absorbed at the terminals (stored amount is reduced by
    the charging efficiency); e_discharge is energy delivered at the terminals
    (stored amount drops by e_discharge / discharge efficiency). The caller is
    responsible for keeping the result within the energy bounds.
    """
    if e_charge < 0 or e_discharge < 0:
        raise ValueError("charge and discharge energies must be >= 0")
    if e_charge > 0 and e_discharge > 0:
        raise ValueError("battery cannot charge and discharge in the same step")
    return e_now + params.eta_charge * e_charge - e_discharge / params.eta_discharge


@dataclass(frozen=True)
class FridgeDiscretization:
    """Exact zero-order-hold discretization of the fridge thermal RC model."""

    a: float        # decay of the internal temperature toward the house temperature
    b: float        # degC per W of rejected thermal power over one step (negative)
    d: float        # coupling to the house temperature; a + d == 1 exactly
    q_fr_w: float   # thermal power rejected while the compressor runs (COP * P_rated)

    def __post_init__(self):
        if not 0 < self.a < 1:
            raise ValueError("discretization requires 0 < a < 1")
        if abs(self.a + self.d - 1.0) > 1e-12:
            raise ValueError("a + d must equal 1 (shared RC time constant)")
        if self.b >= 0:
            raise ValueError("b must be negative (compressor cools)")


@functools.lru_cache(maxsize=32)  # pure in frozen params; the plant asks once per step
def fridge_discretize(params: FridgeParams, step_hours: float) -> FridgeDiscretization:
    """Discrete one-step constants of the continuous RC model dT/dt = Ac*T + Bc*u*Q + Dc*T_house.

    Ac = -1/(C*R), Bc = -1/C, Dc = 1/(C*R) per second; the discrete constants
    are A = exp(Ac*dt), B = (A-1)/Ac * Bc, D = (A-1)/Ac * Dc with dt in
    seconds. Because Dc = -Ac, D = 1 - A algebraically.
    """
    if step_hours <= 0:
        raise ValueError("step_hours must be > 0")
    dt_s = step_hours * SECONDS_PER_HOUR
    c = params.c_thermal_j_per_c
    r = params.r_thermal_c_per_w
    a_c = -1.0 / (c * r)
    b_c = -1.0 / c
    d_c = 1.0 / (c * r)
    a = math.exp(a_c * dt_s)
    growth = (a - 1.0) / a_c
    b = growth * b_c
    d = growth * d_c
    return FridgeDiscretization(a=a, b=b, d=d, q_fr_w=params.cop * params.p_rated_w)


def fridge_step(disc: FridgeDiscretization, t_fridge: float, u_fr: int, t_house: float) -> float:
    """One step of the internal fridge temperature under compressor command u_fr."""
    if u_fr not in (0, 1):
        raise ValueError("u_fr must be binary")
    return disc.a * t_fridge + disc.b * u_fr * disc.q_fr_w + disc.d * t_house


def fridge_energy(params: FridgeParams, step_hours: float) -> float:
    """Electrical energy drawn by the fridge over one on-step, Wh."""
    return params.p_rated_w * step_hours
