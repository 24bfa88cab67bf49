"""Configuration defaults, validation and round-trip tests."""

import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest

from offgrid.config import (
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from offgrid.errors import ConfigError
from offgrid.schedule import build_secondary_profile


class TestDefaults:
    def test_empty_file_gives_reference_system(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.pv.p_rated_w == 285.0
        assert cfg.pv.gamma_pct_per_c == -0.39
        assert cfg.inverter_efficiency == 0.9
        assert cfg.pv.n_panels == 3
        assert cfg.battery.e_min_wh == 1080.0
        assert cfg.battery.e_max_wh == 5400.0
        assert cfg.battery.e_charge_max_wh == 810.0
        assert cfg.battery.e_discharge_max_wh == 844.5
        assert cfg.fridge.p_rated_w == 250.0
        assert cfg.fridge.cop == 0.2324
        assert (cfg.fridge.t_min_c, cfg.fridge.t_max_c) == (0.0, 4.0)
        assert cfg.mpc.lambda4 == 10.0
        assert cfg.step_hours == pytest.approx(1.0 / 6.0)
        assert cfg.horizon_steps == 144

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("pv:\n  n_panels: 5\nbattery:\n  e_max_wh: 10800\n  e_min_wh: 2160\n")
        cfg = load_config(path)
        assert cfg.pv.n_panels == 5
        assert cfg.pv.p_rated_w == 285.0  # untouched default
        assert cfg.battery.e_max_wh == 10800


def numeric_fields() -> list[str]:
    """Every numeric field of the config file, as `<section>.<field>` (or
    the bare name at top level)."""
    out = []
    for key, value in config_to_dict(default_config()).items():
        if isinstance(value, dict):
            out += [f"{key}.{name}" for name, v in value.items() if type(v) in (int, float)]
        elif type(value) in (int, float):
            out.append(key)
    return out


class TestValidation:
    def test_numeric_fields_cover_every_section(self):
        fields = numeric_fields()
        assert {f.partition(".")[0] for f in fields} == {
            "pv", "battery", "fridge", "loads", "house", "mpc",
            "inverter_efficiency", "step_minutes", "horizon_steps"}
        assert {"loads.n_lights", "loads.p_light_w", "loads.n_fans", "loads.p_fan_w"} <= set(fields)

    @pytest.mark.parametrize("path", numeric_fields() + ["step_hours"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "abc"])
    def test_non_finite_or_non_numeric_field_rejected(self, path, value):
        section, _, name = path.rpartition(".")
        data = {section: {name: value}} if section else {name: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be"):
            config_from_dict(data)

    @pytest.mark.parametrize("data,path", [
        ({"horizon_steps": 2.5}, "horizon_steps"),
        ({"loads": {"n_fans": 1.5}}, "loads.n_fans"),
        ({"pv": {"n_panels": True}}, "pv.n_panels"),
    ])
    def test_counts_must_be_whole_numbers(self, data, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be a"):
            config_from_dict(data)

    def test_inverter_efficiency_range(self):
        with pytest.raises(ConfigError, match="inverter efficiency"):
            SystemConfig(inverter_efficiency=1.2)

    def test_horizon_at_least_one(self):
        with pytest.raises(ConfigError, match="horizon"):
            SystemConfig(horizon_steps=0)

    def test_unknown_field_reports_path(self):
        with pytest.raises(ConfigError, match="pv"):
            config_from_dict({"pv": {"n_panls": 3}})

    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"battrey": {}})

    def test_crossed_battery_bounds(self):
        with pytest.raises(ConfigError):
            config_from_dict({"battery": {"e_min_wh": 6000.0, "e_max_wh": 5400.0}})

    def test_crossed_fridge_band(self):
        with pytest.raises(ConfigError):
            config_from_dict({"fridge": {"t_min_c": 5.0, "t_max_c": 4.0}})

    def test_gamma_bounds_must_straddle_zero(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mpc": {"gamma_min": 0.5}})

    @pytest.mark.parametrize("loads,message", [
        ({"n_light": 3}, "loads: unknown field(s) ['n_light']"),
        ({"light_windows": "18:00-24:00"}, "loads.light_windows must be a list"),
        ({"light_windows": None}, "loads.light_windows must be a list"),
        ({"light_windows": [1800]}, "loads.light_windows must be a list"),
        ({"fan_windows": ["9pm-9am"]}, "loads.fan_windows: bad schedule window"),
        ({"fan_windows": ["24:00-01:00"]}, "loads.fan_windows: schedule window"),
    ])
    def test_malformed_loads_rejected(self, loads, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            config_from_dict({"loads": loads})


class TestRoundTrip:
    def test_default_round_trips(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_modified_round_trips(self, tmp_path):
        cfg = config_from_dict({
            "pv": {"n_panels": 4, "faiman_literal": True},
            "battery": {"eta_charge": 0.85},
            "loads": {"fan_windows": ["20:30-07:15"], "n_fans": 2},
            "mpc": {"lambda4": 3.5},
            "step_minutes": 15,
            "horizon_steps": 96,
        })
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        again = load_config(path)
        assert again == cfg
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_dict_round_trip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_saved_text_is_stable(self, tmp_path):
        # windows are written sorted, a wrapping window split at midnight
        path = tmp_path / "cfg.yaml"
        save_config(default_config(), path)
        assert path.read_text() == DEFAULT_YAML


DEFAULT_YAML = """\
pv:
  n_panels: 3
  p_rated_w: 285.0
  gamma_pct_per_c: -0.39
  g_std_w_per_m2: 1000.0
  t_std_c: 25.0
  u0_w_per_m2k: 25.0
  u1_w_per_m2k: 6.84
  faiman_literal: false
battery:
  e_min_wh: 1080.0
  e_max_wh: 5400.0
  e_charge_max_wh: 810.0
  e_discharge_max_wh: 844.5
  eta_charge: 0.9
  eta_discharge: 0.9
fridge:
  c_thermal_j_per_c: 8937.4
  r_thermal_c_per_w: 1.4749
  cop: 0.2324
  p_rated_w: 250.0
  t_min_c: 0.0
  t_max_c: 4.0
loads:
  light_windows:
  - 18:00-24:00
  fan_windows:
  - 00:00-09:00
  - 21:00-24:00
  n_lights: 6
  p_light_w: 8.0
  n_fans: 4
  p_fan_w: 65.0
house:
  mean_c: 27.0
  amplitude_c: 3.0
  peak_hour: 15.0
  trace_csv: null
mpc:
  lambda1: 1.0
  lambda2: 1.0
  lambda3: 1.0
  lambda4: 10.0
  eta_controller: 1.0
  gamma_min: -1.0
  gamma_max: 2.0
inverter_efficiency: 0.9
step_minutes: 10.0
horizon_steps: 144
"""


def test_default_secondary_profile():
    # 6 x 8 W lights 18:00-24:00 and 4 x 65 W fans 21:00-09:00, two days
    cfg = default_config()
    step = cfg.step_hours
    grid = [datetime(2017, 9, 11) + timedelta(hours=k * step) for k in range(288)]
    minute = np.arange(288) % 144 * 10
    watts = 48.0 * (minute >= 18 * 60) + 260.0 * ((minute >= 21 * 60) | (minute < 9 * 60))
    profile = build_secondary_profile(cfg.loads, grid, step)
    assert profile.tobytes() == (watts * step).tobytes()
