"""Plant-step physics, shedding, conservation, and closed-loop tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgrid.config import default_config
from offgrid.devices import fridge_energy, pv_potential
from offgrid.errors import DataError
from offgrid.metrics import ResiliencyMetrics, compute_metrics, load_metrics, save_metrics
from offgrid.mpc import ControlCommand
from offgrid.plant import (
    PlantState,
    initial_plant_state,
    plant_step,
    read_trace_csv,
    run_closed_loop,
)
from offgrid.scenario import build_scenario
from offgrid.weather import synthesize_weather

CFG = default_config().replace(horizon_steps=12)
E_FR = fridge_energy(CFG.fridge, CFG.step_hours)


def pv_wh(ghi=0.0, t_ambient=30.0, wind=2.0, config=CFG):
    """PV energy of one step under this weather, as build_scenario computes it."""
    return pv_potential(config.pv, ghi, t_ambient, wind, config.step_hours)


def cmd_gamma(u_fr=0, u_s=0, gamma=0.0):
    return ControlCommand(u_fr=u_fr, u_s=u_s, gamma=gamma)


def assert_flow_identities(flows):
    assert flows.e_pv == pytest.approx(flows.e_pv_used + flows.e_pv_unused, abs=1e-9)
    pv_to_load = min(flows.e_pv, flows.e_hl)
    assert flows.e_pv_used == pytest.approx(pv_to_load + flows.e_charge, abs=1e-9)
    for value in (flows.e_pv, flows.e_pv_used, flows.e_pv_unused, flows.e_hl,
                  flows.e_charge, flows.e_discharge, flows.unserved_fr, flows.unserved_s):
        assert value >= -1e-12


class TestPlantStep:
    def test_full_battery_cannot_charge(self):
        state = PlantState(e_bat_wh=CFG.battery.e_max_wh, t_fr_c=2.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(gamma=1.0), pv_wh(ghi=900.0),
                                       25.0, 0.0, CFG)
        assert flows.e_charge == 0.0
        assert nxt.e_bat_wh == CFG.battery.e_max_wh
        assert_flow_identities(flows)

    def test_big_surplus_charge_capped_at_rate(self):
        big_pv = CFG.replace(pv=dataclasses.replace(CFG.pv, n_panels=30))
        state = PlantState(e_bat_wh=2000.0, t_fr_c=2.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(gamma=1.0),
                                       pv_wh(ghi=900.0, config=big_pv), 25.0, 0.0, big_pv)
        assert flows.e_charge == pytest.approx(big_pv.battery.e_charge_max_wh)  # 810
        assert flows.e_pv_unused > 0
        assert_flow_identities(flows)

    def test_fast_mode_doubles_the_cap(self):
        big_pv = CFG.replace(pv=dataclasses.replace(CFG.pv, n_panels=60))
        state = PlantState(e_bat_wh=1500.0, t_fr_c=2.0)
        nxt, flows, _, _ = plant_step(state, cmd_gamma(gamma=1.5),
                                      pv_wh(ghi=900.0, config=big_pv), 25.0, 0.0, big_pv)
        assert flows.e_charge == pytest.approx(2 * big_pv.battery.e_charge_max_wh)

    def test_night_discharge_covers_fridge(self):
        state = PlantState(e_bat_wh=3000.0, t_fr_c=4.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=1, gamma=-0.0515),
                                       pv_wh(ghi=0.0), 25.0, 0.0, CFG)
        assert fr == 1
        assert flows.e_discharge == pytest.approx(E_FR / CFG.inverter_efficiency)
        assert flows.e_discharge == pytest.approx(46.296, abs=1e-3)
        assert nxt.e_bat_wh == pytest.approx(3000.0 - 46.2963 / 0.9, abs=1e-3)
        assert_flow_identities(flows)

    def test_shedding_order_secondary_first(self):
        p = CFG.battery
        state = PlantState(e_bat_wh=p.e_min_wh + 60.0, t_fr_c=4.0)  # 54 Wh deliverable
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=1, u_s=1, gamma=-0.2),
                                       pv_wh(ghi=0.0), 25.0, 51.333, CFG)
        assert (fr, s) == (1, 0)
        assert flows.unserved_s == pytest.approx(51.333)
        assert flows.unserved_fr == 0.0
        assert_flow_identities(flows)

    def test_shedding_total_when_battery_floored(self):
        state = PlantState(e_bat_wh=CFG.battery.e_min_wh, t_fr_c=4.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=1, u_s=1, gamma=-0.2),
                                       pv_wh(ghi=0.0), 25.0, 51.333, CFG)
        assert (fr, s) == (0, 0)
        assert flows.unserved_fr == pytest.approx(E_FR)
        assert nxt.e_bat_wh == CFG.battery.e_min_wh
        assert nxt.t_fr_c > 4.0  # fridge warms when shed

    def test_commanded_discharge_never_breaches_floor(self):
        p = CFG.battery
        state = PlantState(e_bat_wh=p.e_min_wh + 40.0, t_fr_c=4.0)  # 36 Wh deliverable
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=1, gamma=-0.5),
                                       pv_wh(ghi=0.0), 25.0, 0.0, CFG)
        assert (fr, s) == (0, 0)  # 46.3 Wh needed > 36 deliverable
        assert nxt.e_bat_wh >= p.e_min_wh - 1e-9

    def test_charge_command_into_deficit_still_serves_loads(self):
        # a charge command at night cannot store anything, but the energized
        # fridge circuit still draws through the battery (discharge regime is
        # set by the power flow, not by the commanded flag)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=4.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=1, gamma=0.5),
                                       pv_wh(ghi=0.0), 25.0, 0.0, CFG)
        assert flows.e_charge == 0.0
        assert flows.e_discharge == pytest.approx(E_FR / CFG.inverter_efficiency)
        assert (fr, s) == (1, 0)

    def test_requested_vs_applied_bookkeeping(self):
        state = PlantState(e_bat_wh=CFG.battery.e_min_wh, t_fr_c=4.0)
        nxt, flows, fr, s = plant_step(state, cmd_gamma(u_fr=0, u_s=0),
                                       pv_wh(ghi=0.0), 25.0, 51.333, CFG,
                                       requested=(1, 1))
        assert flows.unserved_fr == pytest.approx(E_FR)
        assert flows.unserved_s == pytest.approx(51.333)

    @given(
        e_bat=st.floats(1080.0, 5400.0),
        ghi=st.floats(0.0, 1100.0),
        t_amb=st.floats(15.0, 40.0),
        wind=st.floats(0.0, 12.0),
        u_fr=st.integers(0, 1),
        u_s=st.integers(0, 1),
        gamma=st.floats(-1.0, 2.0),
        e_s=st.sampled_from([0.0, 8.0, 51.333]),
    )
    @settings(max_examples=400, deadline=None)
    def test_conservation_and_bounds_for_any_command(self, e_bat, ghi, t_amb, wind,
                                                     u_fr, u_s, gamma, e_s):
        state = PlantState(e_bat_wh=e_bat, t_fr_c=3.0)
        command = cmd_gamma(u_fr=u_fr, u_s=u_s, gamma=gamma)
        nxt, flows, fr, s = plant_step(state, command, pv_wh(ghi, t_amb, wind),
                                       25.0, e_s, CFG)
        assert_flow_identities(flows)
        assert CFG.battery.e_min_wh - 1e-9 <= nxt.e_bat_wh <= CFG.battery.e_max_wh + 1e-9
        assert fr <= u_fr and s <= u_s


class TestClosedLoop:
    def test_one_day_trace_has_144_steps(self):
        cfg = default_config().replace(horizon_steps=6)
        scenario = build_scenario(synthesize_weather(2, "clear", seed=0), cfg, days=1)
        trace = run_closed_loop("baseline", scenario, cfg)
        assert len(trace) == 144
        assert trace.records[0].e_bat == cfg.battery.e_max_wh  # starts full
        assert trace.records[0].t_fr == 2.0

    def test_zero_irradiance_battery_monotone_nonincreasing(self):
        cfg = default_config().replace(horizon_steps=6)
        wx7 = synthesize_weather(2, "clear", seed=0)
        dark = dataclasses.replace(wx7, ghi=np.zeros(len(wx7)))
        scenario = build_scenario(dark, cfg, days=1)
        trace = run_closed_loop("baseline", scenario, cfg)
        e = [r.e_bat for r in trace.records] + [trace.records[-1].e_bat_end]
        assert all(b <= a + 1e-9 for a, b in zip(e, e[1:]))

    def test_every_step_conserves_and_stays_bounded(self):
        cfg = default_config().replace(horizon_steps=6)
        scenario = build_scenario(synthesize_weather(2, "post-storm", seed=1), cfg, days=1)
        trace = run_closed_loop("baseline", scenario, cfg)
        for k, r in enumerate(trace.records):
            assert r.e_pv == scenario.pv_avail_wh[k]  # the plant reads the scenario's PV
            assert r.e_pv == pytest.approx(
                min(r.e_pv, r.e_hl) + r.e_c + (r.e_pv - r.e_pv_used), abs=1e-9)
            assert cfg.battery.e_min_wh - 1e-9 <= r.e_bat_end <= cfg.battery.e_max_wh + 1e-9

    def test_trace_csv_round_trip(self, tmp_path):
        """Every StepRecord field survives to_csv/read_trace_csv, for a baseline
        trace and a proposed one with its solver columns filled."""
        cfg = default_config().replace(horizon_steps=6)
        weather = synthesize_weather(1, "clear", seed=0)
        baseline = run_closed_loop("baseline", build_scenario(weather, cfg, days=0.25), cfg)
        proposed = run_closed_loop("proposed", build_scenario(weather, cfg, days=1 / 24), cfg)
        assert all(r.solver_status and r.solver_wall_s > 0 and r.solver_iterations > 0
                   for r in proposed.records)
        for trace in (baseline, proposed):
            path = tmp_path / f"{trace.controller}.csv"
            trace.to_csv(path)
            again = read_trace_csv(path)
            assert len(again) == len(trace)
            for a, b in zip(trace.records, again.records):
                for f in dataclasses.fields(a):
                    x, y = getattr(a, f.name), getattr(b, f.name)
                    assert type(x) is type(y), f.name
                    if isinstance(x, float) and math.isnan(x):
                        assert math.isnan(y), f.name
                    elif isinstance(x, float):
                        assert y == pytest.approx(x, rel=1e-9), f.name
                    else:
                        assert x == y, f.name

    def test_metrics_additivity_over_days(self):
        cfg = default_config().replace(horizon_steps=6)
        scenario = build_scenario(synthesize_weather(3, "post-storm", seed=2), cfg, days=2)
        trace = run_closed_loop("baseline", scenario, cfg)
        m = compute_metrics(trace, (0.0, 4.0))
        assert sum(m.temp_violation_hours_by_day) == pytest.approx(
            m.temp_violation_hours_per_day * m.days)
        assert sum(m.primary_unserved_hours_by_day) == pytest.approx(
            m.primary_unserved_hours_per_day * m.days)
        total_sched = sum(m.secondary_scheduled_steps_by_day)
        total_unsrv = sum(m.secondary_unserved_steps_by_day)
        assert m.secondary_unserved_pct == pytest.approx(100.0 * total_unsrv / total_sched)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -5.0, -1e-9])
    def test_metrics_reject_non_finite_or_negative_tol(self, tol):
        cfg = default_config().replace(horizon_steps=6)
        scenario = build_scenario(synthesize_weather(1, "clear", seed=0), cfg, days=1 / 24)
        trace = run_closed_loop("baseline", scenario, cfg)
        with pytest.raises(DataError, match="violation tolerance"):
            compute_metrics(trace, (0.0, 4.0), tol=tol)

    def test_proposed_short_run_keeps_band_with_plenty_of_energy(self):
        cfg = default_config().replace(horizon_steps=12)
        scenario = build_scenario(synthesize_weather(1, "clear", seed=0), cfg, days=0.25)
        trace = run_closed_loop("proposed", scenario, cfg)
        m = compute_metrics(trace, (cfg.fridge.t_min_c, cfg.fridge.t_max_c))
        assert m.temp_violation_hours_per_day == 0.0
        assert m.primary_unserved_hours_per_day == 0.0


class TestLoadMetrics:
    @pytest.mark.parametrize("text", [
        None,                             # no file
        lambda good: "- 1\n- 2\n",        # top level is a list
        lambda good: good + "extra: 1\n",  # unknown field
        lambda good: "days: [1\n",        # not YAML
    ], ids=["missing", "list", "unknown-key", "invalid-yaml"])
    def test_bad_file_raises_data_error_naming_it(self, tmp_path, text):
        good = tmp_path / "good.txt"
        save_metrics(ResiliencyMetrics(1.0, 0.5, 10.0, 0.0), good, header="run")
        assert load_metrics(good) == ResiliencyMetrics(1.0, 0.5, 10.0, 0.0)
        path = tmp_path / "bad.txt"
        if text is not None:
            path.write_text(text(good.read_text()))
        with pytest.raises(DataError, match=r"bad\.txt"):
            load_metrics(path)


class TestTraceCsvErrors:
    """A malformed trace row raises DataError naming the file and the line
    (the header is line 1, so the six records are lines 2-7)."""

    @pytest.fixture()
    def lines(self, tmp_path):
        cfg = default_config().replace(horizon_steps=6)
        scenario = build_scenario(synthesize_weather(1, "clear", seed=0), cfg, days=1 / 24)
        path = tmp_path / "trace.csv"
        run_closed_loop("baseline", scenario, cfg).to_csv(path)
        return path.read_text().splitlines()

    @staticmethod
    def write(tmp_path, lines):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_last_row(self, tmp_path, lines):
        lines[-1] = lines[-1][:40]
        path = self.write(tmp_path, lines)
        with pytest.raises(DataError, match=r"bad\.csv: short row at line 7"):
            read_trace_csv(path)

    def test_unparsable_timestamp(self, tmp_path, lines):
        lines[3] = "not-a-time" + lines[3][lines[3].index(","):]
        path = self.write(tmp_path, lines)
        with pytest.raises(DataError, match=r"bad\.csv: .* at line 4, column timestamp"):
            read_trace_csv(path)

    def test_non_increasing_timestamps(self, tmp_path, lines):
        lines[2], lines[3] = lines[3], lines[2]
        path = self.write(tmp_path, lines)
        with pytest.raises(DataError, match=r"bad\.csv: non-monotonic timestamp at line 4"):
            read_trace_csv(path)


class TestForecastNoiseHook:
    def test_noise_hook_changes_decisions(self):
        """A scenario whose forecasts are blacked out makes the controller
        plan for darkness; the scenario itself is perfect foresight."""
        from offgrid.mpc import MpcController
        from offgrid.scenario import ForecastWindow
        from tests.test_mpc import with_noise

        cfg = default_config().replace(horizon_steps=8)
        scenario = build_scenario(synthesize_weather(1, "clear", seed=0), cfg, days=0.5)

        def blackout(fc: ForecastWindow, k: int) -> ForecastWindow:
            return ForecastWindow(np.zeros(len(fc)), fc.t_house_c, fc.e_secondary_wh)

        k_noon = 72
        state = PlantState(e_bat_wh=2000.0, t_fr_c=2.0)
        plain = MpcController(cfg).decide(state, scenario, k_noon)
        dark = MpcController(cfg).decide(state, with_noise(scenario, blackout), k_noon)
        assert plain.command.gamma > 0      # charges with the real sun
        assert dark.command.gamma <= 0.0    # believes there is nothing to charge with


class TestMatchedModelTracking:
    def test_plant_tracks_mpc_prediction_without_mismatch(self):
        """With unity efficiencies everywhere the plant reproduces the MPC's
        first-step prediction exactly."""
        cfg = default_config()
        cfg = cfg.replace(
            horizon_steps=12,
            inverter_efficiency=1.0,
            battery=dataclasses.replace(cfg.battery, eta_charge=1.0, eta_discharge=1.0),
        )
        scenario = build_scenario(synthesize_weather(1, "clear", seed=3), cfg, days=0.5)
        from offgrid.milp import SolverOptions
        from offgrid.mpc import MpcController

        controller = MpcController(cfg, SolverOptions(rel_gap_limit=1e-12, time_limit=60.0))
        state = initial_plant_state(cfg)
        for k in range(18):
            decision = controller.decide(state, scenario, k)
            predicted_e = controller.last_plan.predicted_e_bat[0]
            predicted_t = controller.last_plan.predicted_t_fr[0]
            state, flows, fr, s = plant_step(
                state, decision.command, scenario.pv_avail_wh[k], scenario.t_house[k],
                scenario.e_secondary[k], cfg,
                requested=(decision.requested_u_fr, decision.requested_u_s))
            assert state.t_fr_c == pytest.approx(predicted_t, abs=1e-6)
            assert state.e_bat_wh == pytest.approx(predicted_e, abs=1e-6)
