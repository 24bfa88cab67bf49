"""Controller-side tests: model construction, gamma mapping, plan extraction."""

import dataclasses
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offgrid.config import default_config
from offgrid.devices import fridge_discretize, fridge_energy
from offgrid.errors import DataError, InfeasiblePlanError
from offgrid.milp import (MilpModel, MilpSolution, SolverOptions, check_solution, solve_lp,
                          solve_milp, to_lp_text)
from offgrid.milp.simplex import _BoundedSimplex, solve_lp_std
import offgrid.mpc
from offgrid.mpc import (
    ControlCommand,
    MpcController,
    _fallback_command,
    _greedy_rollout,
    _greedy_seeds,
    build_mpc_milp,
    gamma_to_discrete,
    plan,
)
from offgrid.plant import PlantState, run_closed_loop
from offgrid.scenario import ForecastWindow, build_scenario
from offgrid.weather import synthesize_weather
from tests.test_milp import linprog_oracle

EXACT = SolverOptions(rel_gap_limit=1e-12, time_limit=120.0)
NODE_BUDGET = SolverOptions(rel_gap_limit=0.01, time_limit=1e6, node_limit=30)


def forecast(n, g=0.0, t_house=25.0, e_s=0.0):
    as_arr = lambda v: np.full(n, float(v)) if np.isscalar(v) else np.asarray(v, dtype=float)
    return ForecastWindow(g_avail_wh=as_arr(g), t_house_c=as_arr(t_house),
                          e_secondary_wh=as_arr(e_s))


def small_config(n):
    return default_config().replace(horizon_steps=n)


def horizon_form(e_bat0, t_fr0, fc, cfg):
    return build_mpc_milp(PlantState(e_bat_wh=e_bat0, t_fr_c=t_fr0), fc, cfg)


def with_noise(scenario, noise):
    """The scenario as the controller reads it, with each forecast window
    passed through `noise(window, k)`."""
    return SimpleNamespace(forecast=lambda k, n: noise(scenario.forecast(k, n), k))


class TestGammaToDiscrete:
    @pytest.mark.parametrize("gamma,expected", [
        (0.5, (1, 0, 1)),
        (-0.3, (0, 1, 0)),
        (0.0, (0, 0, 0)),
        (1.5, (1, 0, 2)),
        (1.0, (1, 0, 1)),
        (2.0, (1, 0, 2)),
        (-1.0, (0, 1, 0)),
    ])
    def test_case_rows(self, gamma, expected):
        assert gamma_to_discrete(gamma) == expected

    def test_out_of_range(self):
        for gamma in (2.5, -1.1, math.nan):
            with pytest.raises(ValueError):
                gamma_to_discrete(gamma)

    @given(st.floats(-1.0, 2.0))
    @settings(max_examples=300)
    def test_sweep_consistency(self, gamma):
        c, d, x_bat = gamma_to_discrete(gamma)
        assert c * d == 0
        assert c == (1 if gamma > 0 else 0)
        assert d == (1 if gamma < 0 else 0)
        if gamma <= 0:
            assert x_bat == 0
        elif gamma <= 1:
            assert x_bat == 1
        else:
            assert x_bat == 2
        # the command derives the same triple from its gamma
        cmd = ControlCommand(u_fr=0, u_s=0, gamma=gamma)
        assert (cmd.c, cmd.d, cmd.x_bat) == (c, d, x_bat)


class TestModelShape:
    def test_full_horizon_variable_counts(self):
        cfg = small_config(144)
        state = PlantState(e_bat_wh=5400.0, t_fr_c=2.0)
        model = build_mpc_milp(state, forecast(144, g=100.0, e_s=43.0), cfg)
        binaries = np.flatnonzero(model.is_binary)
        assert len(binaries) == 288                       # u_fr and u_s per step
        assert model.n - len(binaries) == 720             # gamma, g, zeta, e_bat, t_fr

    def test_secondary_bound_forced_to_zero_without_schedule(self):
        cfg = small_config(4)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=2.0)
        model = build_mpc_milp(state, forecast(4, g=100.0, e_s=0.0), cfg)
        ub = model.ub
        names = model.names
        for j, name in enumerate(names):
            if name.startswith("u_s"):
                assert ub[j] == 0.0
        sol = solve_milp(model, EXACT)
        for j, name in enumerate(names):
            if name.startswith("u_s"):
                assert sol.values[j] == pytest.approx(0.0, abs=1e-9)

    def test_dark_forecast_forces_nonpositive_gamma(self):
        # with g == 0 the balance row makes charging impossible
        cfg = small_config(6)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=2.0)
        model = build_mpc_milp(state, forecast(6, g=0.0), cfg)
        sol = solve_milp(model, EXACT)
        names = model.names
        for j, name in enumerate(names):
            if name.startswith("gamma"):
                assert sol.values[j] <= 1e-9

    def test_battery_nonincreasing_at_night_from_floor(self):
        cfg = small_config(6)
        state = PlantState(e_bat_wh=cfg.battery.e_min_wh, t_fr_c=2.0)
        p = plan(state, forecast(6, g=0.0), cfg, EXACT)
        assert np.all(np.diff(np.concatenate([[state.e_bat_wh], p.predicted_e_bat])) <= 1e-9)
        assert len(p.gamma) == 6 and np.all(p.gamma <= 1e-12)


class TestPlanExtraction:
    def test_sunny_plan_charges_and_respects_band(self):
        cfg = small_config(12)
        state = PlantState(e_bat_wh=2000.0, t_fr_c=3.0)
        p = plan(state, forecast(12, g=140.0, e_s=0.0), cfg, EXACT)
        assert p.solver.status == "Optimal"
        assert len(p.u_s) == 12 and np.all(p.u_s == 0)
        assert np.all(p.predicted_t_fr >= cfg.fridge.t_min_c - 1e-9)
        # Early in the horizon the stored-energy reward dominates the linear
        # charge-fraction penalty, so the battery charges monotonically there.
        # (Near the tail that linear term makes discharging marginally
        # profitable, a known artifact of the printed cost; receding-horizon
        # use discards the tail.)
        diffs = np.diff(np.concatenate([[state.e_bat_wh], p.predicted_e_bat]))
        assert np.all(diffs[:5] >= -1e-9)
        assert np.all(diffs[:5][:3] > 1.0)  # actually charging, not idle

    def test_prediction_audit_consistency(self):
        """Re-simulating the dynamics reproduces the solver's trajectories."""
        cfg = small_config(10)
        disc = fridge_discretize(cfg.fridge, cfg.step_hours)
        state = PlantState(e_bat_wh=4000.0, t_fr_c=3.5)
        fc = forecast(10, g=[0, 0, 50, 120, 140, 140, 120, 50, 0, 0], e_s=43.33)
        p = plan(state, fc, cfg, EXACT)
        t = state.t_fr_c
        e = state.e_bat_wh
        assert len(p.u_fr) == len(p.gamma) == 10
        for i, (u_fr, gamma) in enumerate(zip(p.u_fr, p.gamma)):
            t = disc.a * t + disc.b * u_fr * disc.q_fr_w + disc.d * 25.0
            e = e + cfg.mpc.eta_controller * cfg.battery.e_charge_max_wh * gamma
            assert t == pytest.approx(p.predicted_t_fr[i], abs=1e-6)
            assert e == pytest.approx(p.predicted_e_bat[i], abs=1e-6)
        assert np.all(p.slack >= -1e-9)

    def test_infeasible_raises_with_dump(self, tmp_path):
        # subcooled fridge below the hard lower edge cannot recover in one step
        cfg = small_config(3)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=-10.0)
        with pytest.raises(InfeasiblePlanError) as err:
            plan(state, forecast(3, g=0.0, t_house=-20.0), cfg, EXACT, dump_dir=tmp_path)
        assert err.value.dump_path is not None
        assert (tmp_path / err.value.dump_path.split("/")[-1]).exists()

    def test_infeasible_dumps_keep_one_file_per_plan(self, tmp_path):
        # Two infeasible plans into one directory, within the same second,
        # must not overwrite each other's dump.
        cfg = small_config(3)
        fc = forecast(3, g=0.0, t_house=-20.0)
        dumps = []
        for t_fr0 in (-10.0, -12.0):
            with pytest.raises(InfeasiblePlanError) as err:
                plan(PlantState(e_bat_wh=3000.0, t_fr_c=t_fr0), fc, cfg, EXACT, dump_dir=tmp_path)
            dumps.append(Path(err.value.dump_path))
        assert sorted(tmp_path.iterdir()) == sorted(dumps) and dumps[0] != dumps[1]
        thermal = []
        for t_fr0, dump in zip((-10.0, -12.0), dumps):
            std = horizon_form(3000.0, t_fr0, fc, cfg)
            text = dump.read_text()
            assert text == to_lp_text(std)
            thermal.append(next(line for line in text.splitlines() if "thermal[0]:" in line))
        assert thermal[0] != thermal[1]

    def test_nan_secondary_forecast_rejected(self):
        # A NaN e_secondary_wh must not read as "no load scheduled".
        cfg = small_config(6)
        weather = synthesize_weather(2, "clear", seed=1, step_hours=cfg.step_hours)
        scenario = build_scenario(weather, cfg, days=1)

        def noise(fc, k):
            e_s = fc.e_secondary_wh.copy()
            e_s[2] = np.nan
            return ForecastWindow(fc.g_avail_wh, fc.t_house_c, e_s)

        ctl = MpcController(cfg, EXACT)
        with pytest.raises(DataError, match="forecast e_secondary_wh is not finite at step 2"):
            ctl.decide(PlantState(e_bat_wh=3000.0, t_fr_c=2.0), with_noise(scenario, noise), 0)

    def test_fallback_command_rule(self):
        cfg = small_config(4)
        hot = PlantState(e_bat_wh=3000.0, t_fr_c=5.0)
        cmd = _fallback_command(hot, forecast(4, g=100.0), cfg)
        assert cmd.u_fr == 1 and cmd.u_s == 0
        surplus = 100.0 - fridge_energy(cfg.fridge, cfg.step_hours)
        assert cmd.gamma == pytest.approx(surplus / cfg.battery.e_charge_max_wh)
        cold = PlantState(e_bat_wh=3000.0, t_fr_c=2.0)
        cmd = _fallback_command(cold, forecast(4, g=0.0), cfg)
        assert cmd.u_fr == 0 and cmd.gamma == 0.0

    def test_no_incumbent_falls_back_to_the_dead_band_command(self, monkeypatch):
        cfg = small_config(4)
        scenario = build_scenario(synthesize_weather(1, "clear", seed=0), cfg, days=1 / 24)
        hot = PlantState(e_bat_wh=3000.0, t_fr_c=5.0)
        fc = scenario.forecast(0, 4)

        def stalled(std, options, initial_solution=None, root_start=None):
            return MilpSolution(status="TimeLimit", values=None, objective=math.inf,
                                best_bound=-math.inf, rel_gap=math.inf, nodes_explored=30,
                                wall_time=0.0, simplex_iterations=0)

        monkeypatch.setattr(offgrid.mpc, "solve_milp", stalled)
        p = plan(hot, fc, cfg, EXACT)
        assert p.fallback_used
        assert p.first == _fallback_command(hot, fc, cfg)
        for predicted in (p.predicted_e_bat, p.predicted_t_fr, p.slack):
            assert len(predicted) == 4 and np.isnan(predicted).all()
        decision = MpcController(cfg, EXACT).decide(hot, scenario, 0)
        assert decision.fallback and decision.command == _fallback_command(hot, fc, cfg)
        trace = run_closed_loop(MpcController(cfg, EXACT), scenario, cfg)
        assert len(trace) == 6
        assert all(r.fallback == 1 and r.solver_status == "TimeLimit" for r in trace.records)


def enumeration_objective(std):
    bins = np.flatnonzero(std.is_binary)
    best = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(bins)):
        lo, hi = std.lb.copy(), std.ub.copy()
        lo[bins] = bits
        hi[bins] = bits
        r = solve_lp_std(std, lo, hi)
        if r.status == "optimal":
            best = min(best, r.objective)
    return best


class TestAgainstEnumeration:
    def test_small_horizon_matches_enumeration(self):
        cfg = small_config(3)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=3.9)
        fc = forecast(3, g=[80.0, 100.0, 0.0], e_s=[43.33, 0.0, 43.33])
        model = build_mpc_milp(state, fc, cfg)
        sol = solve_milp(model, EXACT)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(enumeration_objective(model), abs=1e-6)

    def test_more_sun_never_raises_optimum(self):
        cfg = small_config(3)
        state = PlantState(e_bat_wh=3000.0, t_fr_c=3.5)
        base_g = np.array([20.0, 60.0, 40.0])
        objs = []
        for bump in (0.0, 30.0, 80.0):
            model = build_mpc_milp(state, forecast(3, g=base_g + bump, e_s=43.33), cfg)
            objs.append(enumeration_objective(model))
        assert objs[0] >= objs[1] - 1e-9 >= objs[2] - 2e-9

    def test_no_free_lunch_with_zero_secondary_reward(self):
        """With lambda4 = 0 (and lambda3 = 0 so the linear charge-fraction
        term cannot subsidize discharging), serving the fans only costs
        battery, so the optimum leaves them off."""
        cfg = small_config(4)
        cfg = cfg.replace(mpc=dataclasses.replace(cfg.mpc, lambda4=0.0, lambda3=0.0))
        state = PlantState(e_bat_wh=3000.0, t_fr_c=2.0)
        model = build_mpc_milp(state, forecast(4, g=0.0, e_s=43.33), cfg)
        sol = solve_milp(model, EXACT)
        assert sol.objective == pytest.approx(enumeration_objective(model), abs=1e-6)
        names = model.names
        for j, name in enumerate(names):
            if name.startswith("u_s"):
                assert sol.values[j] == pytest.approx(0.0, abs=1e-9)


def build_horizon_reference(e_bat0, t_fr0, forecast, config):
    """Reference horizon build, one variable and one row dict at a time
    through `MilpModel`: the layout `build_mpc_milp` must reproduce array for array."""
    n = len(forecast)
    p = config.mpc
    bat = config.battery
    disc = fridge_discretize(config.fridge, config.step_hours)
    e_fr = fridge_energy(config.fridge, config.step_hours)
    ec = bat.e_charge_max_wh
    g_av = forecast.g_avail_wh
    t_house = forecast.t_house_c
    e_s = forecast.e_secondary_wh

    m = MilpModel(name=f"horizon{n}")
    u_fr = [m.add_variable(f"u_fr[{i}]", 0, 1, binary=True) for i in range(n)]
    u_s = [m.add_variable(f"u_s[{i}]", 0, 1.0 if e_s[i] > 0 else 0.0, binary=True)
           for i in range(n)]
    gamma = [m.add_variable(f"gamma[{i}]", p.gamma_min, p.gamma_max) for i in range(n)]
    g = [m.add_variable(f"g[{i}]", 0.0, float(g_av[i])) for i in range(n)]
    zeta = [m.add_variable(f"zeta[{i}]", 0.0, np.inf) for i in range(n)]
    e_bat = [m.add_variable(f"e_bat[{i}]", bat.e_min_wh, bat.e_max_wh) for i in range(n)]
    t_fr = [m.add_variable(f"t_fr[{i}]", config.fridge.t_min_c, np.inf) for i in range(n)]

    for i in range(n):
        w = float(n - i)
        m.set_objective_coeff(zeta[i], p.lambda1 * w)
        m.set_objective_coeff(e_bat[i], -p.lambda2 / bat.e_max_wh)
        m.set_objective_coeff(gamma[i], p.lambda3)
        if e_s[i] > 0:
            m.set_objective_coeff(u_s[i], -p.lambda4 * w)

    bq = disc.b * disc.q_fr_w
    for i in range(n):
        row = {t_fr[i]: 1.0, u_fr[i]: -bq}
        rhs = disc.d * float(t_house[i])
        if i == 0:
            rhs += disc.a * t_fr0
        else:
            row[t_fr[i - 1]] = -disc.a
        m.add_constraint(row, "=", rhs, name=f"thermal[{i}]")

        row = {e_bat[i]: 1.0, gamma[i]: -p.eta_controller * ec}
        if i > 0:
            row[e_bat[i - 1]] = -1.0
        m.add_constraint(row, "=", e_bat0 if i == 0 else 0.0, name=f"battery[{i}]")

        row = {u_fr[i]: e_fr, gamma[i]: ec, g[i]: -1.0}
        if e_s[i] > 0:
            row[u_s[i]] = float(e_s[i])
        m.add_constraint(row, "=", 0.0, name=f"balance[{i}]")

        m.add_constraint({t_fr[i]: 1.0, zeta[i]: -1.0}, "<=", config.fridge.t_max_c,
                         name=f"band_up[{i}]")
    return m


def horizon_windows():
    """(e_bat0, t_fr0, forecast, config) over N in {1, 3, 36, 144}, post-storm
    and clear weather, and steps 0, 50 and 137 of a one-day scenario."""
    cfg = default_config()
    bat = cfg.battery
    for profile in ("post-storm", "clear"):
        weather = synthesize_weather(3, profile, seed=1, step_hours=cfg.step_hours)
        scenario = build_scenario(weather, cfg, days=1)
        for k, soc, t_fr0 in ((0, 0.5, 2.0), (50, 0.1, 3.7), (137, 1.0, 0.5)):
            e_bat0 = bat.e_min_wh + soc * (bat.e_max_wh - bat.e_min_wh)
            for n in (1, 3, 36, 144):
                yield e_bat0, t_fr0, scenario.forecast(k, n), cfg.replace(horizon_steps=n)


def raw_greedy_seeds(monkeypatch, e_bat0, t_fr0, fc, cfg):
    """_greedy_seeds' result, and every rollout it built before dropping
    copies: the rationed rollout (the last of its repair loop), then each
    rung of the serve-first-K ladder, which passes fridge_priority."""
    rationed, ladder = [], []

    def record(*args, **kwargs):
        out = _greedy_rollout(*args, **kwargs)
        if out is not None:
            (ladder if "fridge_priority" in kwargs else rationed).append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(offgrid.mpc, "_greedy_rollout", record)
        seeds = _greedy_seeds(e_bat0, t_fr0, fc, cfg)
    return seeds, rationed[-1:] + ladder


def full_ladder_seeds(e_bat0, t_fr0, fc, cfg):
    """The seed ladder with a fans-first rollout on every serve-first-K rung,
    not only the serve-everything one: the reference for the trimmed ladder."""
    n = len(fc)
    seeds = []
    serve = fc.e_secondary_wh > 0
    rationed = None
    for _ in range(n + 1):
        out = _greedy_rollout(e_bat0, t_fr0, fc, cfg, serve)
        if out is None:
            break
        rationed, fail = out
        if fail is None:
            break
        served_before = np.flatnonzero(serve[: fail + 1])
        if served_before.size == 0:
            break
        serve = serve.copy()
        serve[served_before[-1]] = False
    if rationed is not None:
        seeds.append(rationed)
    scheduled = np.flatnonzero(fc.e_secondary_wh > 0)
    prefix_ks = sorted({0, 2, 4, 6, 9, 12, 18, 24, len(scheduled)} & set(range(len(scheduled) + 1)))
    for k in prefix_ks:
        plan_k = np.zeros(n, dtype=bool)
        plan_k[scheduled[:k]] = True
        for priority in (True, False):
            out = _greedy_rollout(e_bat0, t_fr0, fc, cfg, plan_k, fridge_priority=priority)
            if out is not None:
                seeds.append(out[0])
    distinct = {}
    for seed in seeds:
        distinct.setdefault(seed.tobytes(), seed)
    return list(distinct.values())


def assert_forms_byte_equal(mine, ref):
    for name in ("c", "b", "lb", "ub", "is_binary"):
        got, want = getattr(mine, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mine.a_csc, name), getattr(ref.a_csc, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert mine.a_csc.shape == ref.a_csc.shape
    assert (mine.name, mine.relations, mine.names, mine.row_names) == \
        (ref.name, ref.relations, ref.names, ref.row_names)
    assert to_lp_text(mine) == to_lp_text(ref)


class TestHorizonBuild:
    def test_matches_reference_byte_for_byte(self):
        windows = list(horizon_windows())
        assert len(windows) == 24
        scheduled = empty = 0
        for e_bat0, t_fr0, fc, cfg in windows:
            mine = horizon_form(e_bat0, t_fr0, fc, cfg)
            assert_forms_byte_equal(mine, build_horizon_reference(e_bat0, t_fr0, fc, cfg).standard_form())
            n = len(fc)
            assert mine.names[n:2 * n] == [f"u_s[{i}]" for i in range(n)]
            scheduled += int(np.sum(fc.e_secondary_wh > 0))
            empty += int(np.sum(fc.e_secondary_wh == 0))
        assert scheduled and empty  # both kinds of u_s column are covered

    def test_zero_weights_match_reference(self):
        # -lambda4*w and -lambda2/e_max are -0.0 here; the reference drops them.
        e_bat0, t_fr0, fc, cfg = list(horizon_windows())[6]
        cfg = cfg.replace(mpc=dataclasses.replace(cfg.mpc, lambda2=0.0, lambda3=0.0, lambda4=0.0))
        mine = horizon_form(e_bat0, t_fr0, fc, cfg)
        assert_forms_byte_equal(mine, build_horizon_reference(e_bat0, t_fr0, fc, cfg).standard_form())
        assert not np.signbit(mine.c).any()

    def test_seeds_include_both_all_on_rollouts(self):
        # K = every scheduled step is the serve-everything rollout, so the
        # ladder of serve-first-K seeds already holds both all-on rollouts.
        checked = 0
        for e_bat0, t_fr0, fc, cfg in horizon_windows():
            if len(fc) > 36:
                continue
            seeds = {seed.tobytes() for seed in _greedy_seeds(e_bat0, t_fr0, fc, cfg)}
            all_on = np.ones(len(fc), dtype=bool)
            for priority in (True, False):
                out = _greedy_rollout(e_bat0, t_fr0, fc, cfg, all_on, fridge_priority=priority)
                if out is not None:
                    assert out[0].tobytes() in seeds
                    checked += 1
        assert checked >= 12

    def test_seeds_are_the_distinct_rollouts_first_copy_kept(self, monkeypatch):
        solved = 0
        for e_bat0, t_fr0, fc, cfg in horizon_windows():
            std = horizon_form(e_bat0, t_fr0, fc, cfg)
            seeds, raw = raw_greedy_seeds(monkeypatch, e_bat0, t_fr0, fc, cfg)
            keys = [seed.tobytes() for seed in seeds]
            assert len(set(keys)) == len(keys)
            assert keys == list(dict.fromkeys(seed.tobytes() for seed in raw))
            if len(fc) > 36:
                continue
            distinct = solve_milp(std, NODE_BUDGET, initial_solution=seeds)
            full = solve_milp(std, NODE_BUDGET, initial_solution=raw)
            assert distinct.values.tobytes() == full.values.tobytes()
            assert (distinct.objective, distinct.best_bound) == (full.objective, full.best_bound)
            solved += len(raw) > len(seeds)
        assert solved == 18  # every window up to N=36 had copies to drop

    def test_trimmed_ladder_solves_as_the_full_ladder(self):
        solved = 0
        for e_bat0, t_fr0, fc, cfg in horizon_windows():
            if len(fc) > 36:
                continue
            std = horizon_form(e_bat0, t_fr0, fc, cfg)
            trimmed = solve_milp(std, NODE_BUDGET,
                                 initial_solution=_greedy_seeds(e_bat0, t_fr0, fc, cfg))
            full = solve_milp(std, NODE_BUDGET,
                              initial_solution=full_ladder_seeds(e_bat0, t_fr0, fc, cfg))
            assert trimmed.values.tobytes() == full.values.tobytes()
            assert (trimmed.objective, trimmed.best_bound, trimmed.nodes_explored) == \
                (full.objective, full.best_bound, full.nodes_explored)
            solved += 1
        assert solved == 18

    def test_one_fans_first_rollout_per_window(self, monkeypatch):
        for e_bat0, t_fr0, fc, cfg in horizon_windows():
            fans_first = []

            def record(*args, **kwargs):
                if kwargs.get("fridge_priority") is False:
                    fans_first.append(args[4].copy())
                return _greedy_rollout(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(offgrid.mpc, "_greedy_rollout", record)
                _greedy_seeds(e_bat0, t_fr0, fc, cfg)
            assert len(fans_first) == 1
            assert np.array_equal(fans_first[0], fc.e_secondary_wh > 0)

    def test_check_solution_names_the_violated_row(self):
        state = PlantState(e_bat_wh=3000.0, t_fr_c=2.0)
        std = build_mpc_milp(state, forecast(6, g=100.0, e_s=43.33), small_config(6))
        x = solve_lp(std).x
        x[std.names.index("g[3]")] += 1.0  # PV drawn but not used: balance[3] breaks
        report = [v for v in check_solution(std, x) if v.kind == "row"]
        assert [(v.name, v.index) for v in report] == [("balance[3]", 4 * 3 + 2)]


# The benchmark's MPC workloads, storm extended to half a day:
# (profile, horizon, node budget, steps, battery SOC, fridge start range, seed).
STORM = ("post-storm", 36, 30, 72, 0.5, (2.0, 2.0), 1)
CLEAR = ("clear", 144, 5, 12, 1.0, (1.5, 2.5), 1)


def closed_loop(profile, horizon, node_limit, steps, soc, t_fridge_c, seed, shift=True):
    """A closed loop of the proposed controller at a node budget. Returns the
    trace records and, per step, the solved form, the root start it was given
    and the solution. With `shift` off every root starts cold."""
    rng = np.random.default_rng(seed)
    cfg = default_config().replace(horizon_steps=horizon)
    weather = synthesize_weather(math.ceil((steps + horizon) / 144), profile, seed=seed,
                                 step_hours=cfg.step_hours)
    scenario = build_scenario(weather, cfg, days=steps / 144)
    bat = cfg.battery
    initial = PlantState(e_bat_wh=bat.e_min_wh + soc * (bat.e_max_wh - bat.e_min_wh),
                         t_fr_c=float(rng.uniform(*t_fridge_c)))
    options = SolverOptions(rel_gap_limit=0.01, time_limit=1e6, node_limit=node_limit)
    solves = []

    def record(std, options, initial_solution=None, root_start=None):
        solution = solve_milp(std, options, initial_solution=initial_solution,
                              root_start=root_start)
        solves.append((std, root_start, solution))
        return solution

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(offgrid.mpc, "solve_milp", record)
        if not shift:
            patch.setattr(offgrid.mpc, "_shift_basis", lambda basis, std: None)
        trace = run_closed_loop(MpcController(cfg, options), scenario, cfg,
                                initial_state=initial)
    assert len(trace) == steps
    return trace.records, solves


def without(record, *names):
    return repr(dataclasses.replace(record, **{name: 0 for name in names}))


@pytest.fixture(scope="module")
def loops():
    return {(name, shift): closed_loop(*workload, shift=shift)
            for name, workload in (("storm", STORM), ("clear", CLEAR))
            for shift in (True, False)}


class TestShiftedRootStart:
    # The weights (N - i) fall by one at every shift, so on storm windows the
    # start is often dual infeasible and the dual pass starts with some of its
    # reduced costs set to 0.
    @pytest.mark.parametrize("name,shifted,moving", [("storm", 61, 39), ("clear", 11, 0)])
    def test_shifted_roots_reach_the_cold_and_highs_optimum(self, loops, name, shifted, moving):
        warm_iters = cold_iters = moved = 0
        starts = [(std, start) for std, start, _ in loops[name, True][1] if start is not None]
        assert len(starts) == shifted
        for std, start in starts:
            # Straight into the engine: a _Trouble here would skip the retry.
            engine = _BoundedSimplex(std, std.lb, std.ub, start=start)
            priced = engine.c - std.a_ext_t @ engine._btran(engine.c[engine.basis])
            wrong = engine._wrong_sign(priced)
            d = engine._dual_costs()
            assert np.all(d[wrong] == 0)
            assert d[~wrong].tobytes() == priced[~wrong].tobytes()
            moved += bool(wrong.any())
            warm = engine.solve()
            cold = solve_lp_std(std, std.lb, std.ub)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
            assert linprog_oracle(std) == ("optimal", pytest.approx(warm.objective, rel=1e-7))
            warm_iters += warm.iterations
            cold_iters += cold.iterations
        assert warm_iters * 10 < cold_iters
        assert moved == moving

    def test_steps_whose_first_step_holds_five_basics_start_cold(self, loops):
        solves = loops["storm", True][1]
        assert [k for k, (_, start, _) in enumerate(solves) if start is None] == \
            [0, *range(35, 45)]
        for k in range(1, len(solves)):
            std, basis = solves[k][0], solves[k - 1][2].root_basis
            n = std.n // 7
            step_zero = np.concatenate([np.arange(7) * n, std.n + np.arange(4)])
            held = np.count_nonzero(np.isin(basis.rows, step_zero))
            assert held == (5 if 35 <= k < 45 else 4), k

    def test_closed_loop_repeats_bit_for_bit(self, loops):
        again, _ = closed_loop(*STORM)
        first = loops["storm", True][0]
        assert [without(r, "solver_wall_s") for r in again] == \
            [without(r, "solver_wall_s") for r in first]

    def test_decisions_equal_those_of_cold_roots(self, loops):
        for shifted, cold in zip(loops["clear", True][0], loops["clear", False][0]):
            assert without(shifted, "solver_wall_s", "solver_iterations") == \
                without(cold, "solver_wall_s", "solver_iterations")
        # On storm steps that stall or stop at the gap, a different optimal
        # root vertex grows a different tree, so the bound and gap may move;
        # commands, status, objective and nodes may not.
        for shifted, cold in zip(loops["storm", True][0], loops["storm", False][0]):
            volatile = ("solver_wall_s", "solver_iterations", "solver_bound", "solver_rel_gap")
            assert without(shifted, *volatile) == without(cold, *volatile)
            if shifted.solver_bound != cold.solver_bound:
                assert shifted.solver_status in ("TimeLimit", "GapLimit")
                assert shifted.solver_bound == pytest.approx(cold.solver_bound, rel=0.05)

    def test_episode_iterations_fall(self, loops):
        for name in ("storm", "clear"):
            shifted = sum(r.solver_iterations for r in loops[name, True][0])
            cold = sum(r.solver_iterations for r in loops[name, False][0])
            assert shifted < cold / 2
