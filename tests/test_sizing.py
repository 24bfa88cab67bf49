"""Standalone sizing arithmetic and the fixed size/cost ladder."""

import dataclasses
import math

import pytest

from offgrid.errors import ConfigError
from offgrid.sizing import SizingSpec, size_ladder, size_system


class TestSizeSystem:
    def test_reference_calibration(self):
        size = size_system(SizingSpec())
        assert size.n_panels_parallel == 3
        assert size.n_battery_series == 2
        assert size.n_battery_strings == 1
        assert size.n_battery_units == 2
        assert size.total_cost == pytest.approx(1100.0)

    def test_two_storage_days_doubles_batteries(self):
        size = size_system(dataclasses.replace(SizingSpec(), storage_days=2.0))
        assert size.n_battery_units == 4
        assert size.n_battery_strings == 2

    def test_monotone_in_demand(self):
        base = SizingSpec()
        prev = size_system(base)
        for factor in (1.5, 2.0, 3.0):
            spec = dataclasses.replace(base, daily_demand_wh=base.daily_demand_wh * factor)
            cur = size_system(spec)
            assert cur.n_panels_parallel >= prev.n_panels_parallel
            assert cur.n_battery_units >= prev.n_battery_units
            prev = cur

    def test_monotone_in_storage_days(self):
        base = SizingSpec()
        counts = [size_system(dataclasses.replace(base, storage_days=d)).n_battery_units
                  for d in (0.5, 1.0, 2.0, 3.0)]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SizingSpec)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"sizing.{field} must be finite"):
            dataclasses.replace(SizingSpec(), **{field: value})

    def test_zero_insolation_rejected(self):
        with pytest.raises(ConfigError, match="zero sun"):
            size_system(dataclasses.replace(SizingSpec(), insolation_psh=0.0))

    @pytest.mark.parametrize("overrides,what", [
        ({"daily_demand_wh": 1e308, "storage_days": 1e308}, "battery string count"),
        ({"insolation_psh": 1e-320}, "panel count"),
        ({"system_voltage_v": 1e308, "battery_nominal_v": 1e-300}, "battery series count"),
        ({"daily_demand_wh": 1e308, "insolation_psh": 0.01}, "hardware cost"),
        ({"daily_demand_wh": 2e8, "battery_unit_wh": 1e-300}, "hardware cost"),
    ])
    def test_finite_fields_that_overflow_rejected(self, overrides, what):
        spec = dataclasses.replace(SizingSpec(), **overrides)
        with pytest.raises(ConfigError, match=f"{what} overflows"):
            size_system(spec)

    def test_series_count_from_bus_voltage(self):
        spec = dataclasses.replace(SizingSpec(), system_voltage_v=48.0)
        assert size_system(spec).n_battery_series == 4


class TestSizeLadder:
    def test_six_entries_with_fixed_costs(self):
        ladder = size_ladder()
        assert [s.label for s in ladder] == ["A", "B", "C", "D", "E", "F"]
        assert [s.total_cost for s in ladder] == [1100, 1200, 1900, 2000, 2100, 2200]

    def test_entry_a(self):
        a = size_ladder()[0]
        assert a.n_panels_parallel == 3
        assert a.n_battery_units == 2
        assert a.total_cost == 1100

    def test_entry_d(self):
        d = size_ladder()[3]
        assert d.n_panels_parallel == 4
        assert d.n_battery_units == 4
        assert d.total_cost == 2000

    def test_unit_price_identity(self):
        for s in size_ladder():
            assert s.total_cost == pytest.approx(
                100.0 * s.n_panels_parallel + 400.0 * s.n_battery_units)

    def test_two_unit_series_strings(self):
        for s in size_ladder():
            assert s.n_battery_series == 2
            assert s.n_battery_units == 2 * s.n_battery_strings
