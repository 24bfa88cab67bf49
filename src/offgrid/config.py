"""System configuration: device parameters, loads, controller weights.

The on-disk format is YAML with units spelled out in the field names.
Every field has a default taken from the reference residential system
(3 x 285 W panels, 5.4 kWh lead-acid bank, one refrigerator, 6 LED lights,
4 fans), so an empty file is a complete, valid configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError, check_number, check_numbers
from .schedule import SecondaryLoadSchedule

STEP_HOURS_DEFAULT = 1.0 / 6.0  # 10-minute control interval


@dataclass(frozen=True)
class PvArrayParams:
    """Rooftop PV array: rating, temperature derating and Faiman constants."""

    n_panels: int = 3
    p_rated_w: float = 285.0
    gamma_pct_per_c: float = -0.39
    g_std_w_per_m2: float = 1000.0
    t_std_c: float = 25.0
    u0_w_per_m2k: float = 25.0
    u1_w_per_m2k: float = 6.84
    # Reproduce the additive-wind variant of the module-temperature formula
    # (T_am + G/(U0+U1+W)) instead of the standard U0+U1*W denominator.
    faiman_literal: bool = False

    def __post_init__(self):
        check_numbers(self, "pv.")
        if self.n_panels < 1:
            raise ConfigError("pv.n_panels must be >= 1")
        if self.p_rated_w <= 0:
            raise ConfigError("pv.p_rated_w must be > 0")
        if self.g_std_w_per_m2 <= 0:
            raise ConfigError("pv.g_std_w_per_m2 must be > 0")
        if self.u0_w_per_m2k <= 0:
            raise ConfigError("pv.u0_w_per_m2k must be > 0")
        if self.u1_w_per_m2k < 0:
            raise ConfigError("pv.u1_w_per_m2k must be >= 0")


@dataclass(frozen=True)
class BatteryParams:
    """Energy-bucket battery with per-step charge/discharge caps."""

    e_min_wh: float = 1080.0
    e_max_wh: float = 5400.0
    e_charge_max_wh: float = 810.0
    e_discharge_max_wh: float = 844.5
    eta_charge: float = 0.9
    eta_discharge: float = 0.9

    def __post_init__(self):
        check_numbers(self, "battery.")
        if not 0 <= self.e_min_wh < self.e_max_wh:
            raise ConfigError("battery bounds must satisfy 0 <= e_min_wh < e_max_wh")
        if self.e_charge_max_wh <= 0 or self.e_discharge_max_wh <= 0:
            raise ConfigError("battery charge/discharge caps must be > 0")
        for name in ("eta_charge", "eta_discharge"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ConfigError(f"battery.{name} must lie in (0,1]")


@dataclass(frozen=True)
class FridgeParams:
    """Refrigerator thermal RC model and electrical rating."""

    c_thermal_j_per_c: float = 8937.4
    r_thermal_c_per_w: float = 1.4749
    cop: float = 0.2324
    p_rated_w: float = 250.0
    t_min_c: float = 0.0
    t_max_c: float = 4.0

    def __post_init__(self):
        check_numbers(self, "fridge.")
        if self.c_thermal_j_per_c <= 0:
            raise ConfigError("fridge.c_thermal_j_per_c must be > 0")
        if self.r_thermal_c_per_w <= 0:
            raise ConfigError("fridge.r_thermal_c_per_w must be > 0")
        if self.cop <= 0:
            raise ConfigError("fridge.cop must be > 0")
        if self.p_rated_w < 0:
            raise ConfigError("fridge.p_rated_w must be >= 0")
        if self.t_min_c >= self.t_max_c:
            raise ConfigError("fridge temperature band must satisfy t_min_c < t_max_c")


@dataclass(frozen=True)
class MpcParams:
    """Objective weights and charge-fraction bounds of the optimizing controller."""

    lambda1: float = 1.0   # weight on fridge-temperature slack
    lambda2: float = 1.0   # reward for stored battery energy
    lambda3: float = 1.0   # penalty on the charge fraction (discourages fast charge)
    lambda4: float = 10.0  # reward for serving the secondary loads
    eta_controller: float = 1.0  # battery efficiency assumed by the controller model
    gamma_min: float = -1.0
    gamma_max: float = 2.0

    def __post_init__(self):
        check_numbers(self, "mpc.")
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ConfigError(f"mpc.{name} must be >= 0")
        if not 0 < self.eta_controller <= 1:
            raise ConfigError("mpc.eta_controller must lie in (0,1]")
        if not (self.gamma_min < 0 < self.gamma_max):
            raise ConfigError("mpc gamma bounds must satisfy gamma_min < 0 < gamma_max")
        # the discrete charge-mode mapping is defined on [-1, 2] only
        if self.gamma_min < -1.0 or self.gamma_max > 2.0:
            raise ConfigError("mpc gamma bounds must lie within [-1, 2]")


@dataclass(frozen=True)
class HouseTempParams:
    """Exogenous indoor-temperature trace: CSV file, or a daily sinusoid fallback."""

    mean_c: float = 27.0
    amplitude_c: float = 3.0
    peak_hour: float = 15.0
    trace_csv: str | None = None

    def __post_init__(self):
        check_numbers(self, "house.")
        if self.amplitude_c < 0:
            raise ConfigError("house.amplitude_c must be >= 0")
        if not 0 <= self.peak_hour < 24:
            raise ConfigError("house.peak_hour must lie in [0,24)")


@dataclass(frozen=True)
class SystemConfig:
    """All plant, load and controller parameters in one validated structure."""

    pv: PvArrayParams = field(default_factory=PvArrayParams)
    battery: BatteryParams = field(default_factory=BatteryParams)
    fridge: FridgeParams = field(default_factory=FridgeParams)
    loads: SecondaryLoadSchedule = field(default_factory=SecondaryLoadSchedule)
    house: HouseTempParams = field(default_factory=HouseTempParams)
    mpc: MpcParams = field(default_factory=MpcParams)
    inverter_efficiency: float = 0.9
    step_hours: float = STEP_HOURS_DEFAULT
    horizon_steps: int = 144

    def __post_init__(self):
        check_numbers(self, "")
        if not 0 < self.inverter_efficiency <= 1:
            raise ConfigError("inverter efficiency must lie in (0,1]")
        if self.step_hours <= 0:
            raise ConfigError("step_hours must be > 0")
        if self.horizon_steps < 1:
            raise ConfigError("horizon must be >= 1")

    @property
    def steps_per_day(self) -> int:
        n = 24.0 / self.step_hours
        if abs(n - round(n)) > 1e-9:
            raise ConfigError("step_hours must divide 24 h evenly")
        return int(round(n))

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


def default_config() -> SystemConfig:
    return SystemConfig()


# ---------------------------------------------------------------------------
# YAML serialization


def config_to_dict(config: SystemConfig) -> dict:
    return {
        "pv": dataclasses.asdict(config.pv),
        "battery": dataclasses.asdict(config.battery),
        "fridge": dataclasses.asdict(config.fridge),
        "loads": dataclasses.asdict(config.loads),
        "house": dataclasses.asdict(config.house),
        "mpc": dataclasses.asdict(config.mpc),
        "inverter_efficiency": config.inverter_efficiency,
        "step_minutes": config.step_hours * 60.0,
        "horizon_steps": config.horizon_steps,
    }


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict | None) -> SystemConfig:
    data = dict(data or {})
    kwargs = {}
    for section, cls in (
        ("pv", PvArrayParams),
        ("battery", BatteryParams),
        ("fridge", FridgeParams),
        ("loads", SecondaryLoadSchedule),
        ("house", HouseTempParams),
        ("mpc", MpcParams),
    ):
        if section in data:
            kwargs[section] = _build_section(cls, data.pop(section), section)
    if "step_minutes" in data and "step_hours" in data:
        raise ConfigError("give either step_minutes or step_hours, not both")
    for key, per_hour in (("step_minutes", 60.0), ("step_hours", 1.0)):
        if key in data:
            value = data.pop(key)
            check_number(key, value)
            kwargs["step_hours"] = value / per_hour
    for scalar in ("inverter_efficiency", "horizon_steps"):
        if scalar in data:
            kwargs[scalar] = data.pop(scalar)
    if data:
        raise ConfigError(f"unknown top-level field(s) {sorted(data)}")
    return SystemConfig(**kwargs)


def load_config(path: str | Path) -> SystemConfig:
    """Load a YAML config file; omitted fields fall back to the reference system."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(raw)


def save_config(config: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(config_to_dict(config), sort_keys=False))
