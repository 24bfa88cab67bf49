"""Standalone PV+battery sizing and the fixed size/cost ladder.

The sizing routine follows the classic standalone-system recipe: battery
units in series to reach the DC bus voltage, parallel series-strings to hold
the demanded days of storage within the usable depth of discharge, and
parallel panels to replace a day's demand at the site's peak-sun-hours. The
default spec lands on the reference system (3 panels, one 2-unit string,
24 V); every calibration constant lives in the spec, not in code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError, check_numbers

PANEL_UNIT_COST = 100.0
BATTERY_UNIT_COST = 400.0


@dataclass(frozen=True)
class SizingSpec:
    """Inputs of the sizing method; defaults documented below.

    daily_demand_wh: 3456 Wh/day = refrigerator at its ~27% steady duty cycle
    (1608 Wh) + 6x8 W lights for 6 h (288 Wh) + 4x65 W fans at half
    coincidence over their 12 h window (1560 Wh).
    insolation_psh: 5.0 peak-sun-hours, a north-central-Florida yearly figure.
    depth_of_discharge: 0.8 usable fraction of the lead-acid bank.
    """

    daily_demand_wh: float = 3456.0
    insolation_psh: float = 5.0
    storage_days: float = 1.0
    system_voltage_v: float = 24.0
    panel_rated_w: float = 285.0
    panel_cost: float = PANEL_UNIT_COST
    battery_unit_wh: float = 2700.0      # 12 V x 225 Ah
    battery_nominal_v: float = 12.0
    depth_of_discharge: float = 0.8
    battery_cost: float = BATTERY_UNIT_COST
    inverter_efficiency: float = 0.9

    def __post_init__(self):
        check_numbers(self, "sizing.")
        positives = (
            "daily_demand_wh", "storage_days", "system_voltage_v",
            "panel_rated_w", "panel_cost", "battery_unit_wh",
            "battery_nominal_v", "battery_cost",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ConfigError(f"sizing.{name} must be > 0")
        if self.insolation_psh < 0:
            raise ConfigError("sizing.insolation_psh must be >= 0")
        if not 0 < self.depth_of_discharge <= 1:
            raise ConfigError("sizing.depth_of_discharge must lie in (0,1]")
        if not 0 < self.inverter_efficiency <= 1:
            raise ConfigError("sizing.inverter_efficiency must lie in (0,1]")


@dataclass(frozen=True)
class SystemSize:
    """A sized system: panel count, battery string layout and hardware cost."""

    label: str
    n_panels_parallel: int
    n_battery_series: int
    n_battery_strings: int
    total_cost: float

    def __post_init__(self):
        if min(self.n_panels_parallel, self.n_battery_series, self.n_battery_strings) < 1:
            raise ConfigError("system size counts must be >= 1")

    @property
    def n_battery_units(self) -> int:
        return self.n_battery_series * self.n_battery_strings

    def describe(self) -> str:
        return (f"{self.n_panels_parallel} PV panels + "
                f"{self.n_battery_units} battery units")


def _count(ratio: float, what: str) -> int:
    """Units needed for a demand-over-capacity ratio; finite fields can still
    overflow it (1e308 Wh over 1e308 days, or a denormal insolation)."""
    if not math.isfinite(ratio):
        raise ConfigError(f"{what} count overflows: the sizing inputs are out of range")
    return math.ceil(ratio)


def size_system(spec: SizingSpec, label: str = "sized") -> SystemSize:
    """Panel and battery counts to carry the demand through the storage days."""
    if spec.insolation_psh == 0:
        raise ConfigError("cannot size for zero sun")
    n_series = _count(spec.system_voltage_v / spec.battery_nominal_v, "battery series")
    usable_string_wh = n_series * spec.battery_unit_wh * spec.depth_of_discharge
    n_strings = _count(
        spec.daily_demand_wh * spec.storage_days
        / (usable_string_wh * spec.inverter_efficiency), "battery string")
    n_panels = _count(
        spec.daily_demand_wh
        / (spec.insolation_psh * spec.panel_rated_w * spec.inverter_efficiency), "panel")
    cost = n_panels * spec.panel_cost + n_series * (n_strings * spec.battery_cost)
    if not math.isfinite(cost):
        raise ConfigError("hardware cost overflows: the sizing inputs are out of range")
    return SystemSize(
        label=label,
        n_panels_parallel=n_panels,
        n_battery_series=n_series,
        n_battery_strings=n_strings,
        total_cost=cost,
    )


# (panels, battery units) per ladder entry; units stack as 2-unit series strings.
_LADDER = {
    "A": (3, 2),
    "B": (4, 2),
    "C": (3, 4),
    "D": (4, 4),
    "E": (5, 4),
    "F": (6, 4),
}


def size_ladder() -> list[SystemSize]:
    """The six fixed study sizes A-F in ascending cost order."""
    out = []
    for label, (panels, units) in _LADDER.items():
        out.append(SystemSize(
            label=label,
            n_panels_parallel=panels,
            n_battery_series=2,
            n_battery_strings=units // 2,
            total_cost=panels * PANEL_UNIT_COST + units * BATTERY_UNIT_COST,
        ))
    return out


def scale_config_to_size(config, n_panels: int, n_battery_units: int):
    """Rescale a reference SystemConfig to a ladder entry.

    Panels go in parallel; battery units stack as parallel 2-unit series
    strings, so capacity and the per-step charge/discharge caps scale with
    the string count while voltages and efficiencies stay put.
    """
    if n_battery_units % 2:
        raise ConfigError("battery units must come in series pairs")
    scale = n_battery_units / 2.0
    bat = config.battery
    return config.replace(
        pv=dataclasses.replace(config.pv, n_panels=n_panels),
        battery=dataclasses.replace(
            bat,
            e_min_wh=bat.e_min_wh * scale,
            e_max_wh=bat.e_max_wh * scale,
            e_charge_max_wh=bat.e_charge_max_wh * scale,
            e_discharge_max_wh=bat.e_discharge_max_wh * scale,
        ),
    )
