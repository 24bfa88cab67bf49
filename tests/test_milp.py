"""MILP engine tests: LP geometry, enumeration oracles, gap/limit semantics."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csc_matrix

from offgrid.config import default_config
from offgrid.errors import MilpError
from offgrid.milp import EQ, GE, LE, MilpModel, SolverOptions, check_solution, solve_lp, solve_milp
from offgrid.milp.model import Violation, as_standard_form
import offgrid.milp.branch_bound
from offgrid.milp.simplex import (
    AT_LB,
    AT_UB,
    BASIC,
    FREE,
    Basis,
    _BoundedSimplex,
    _IdentityFactor,
    _Trouble,
    solve_lp_std,
)
from offgrid.mpc import _greedy_seeds, build_mpc_milp
from offgrid.plant import PlantState
from offgrid.scenario import build_scenario
from offgrid.weather import synthesize_weather

EXACT = SolverOptions(rel_gap_limit=1e-12, time_limit=120.0)


def random_model(rng, n_bin, n_cont, n_rows, anchor=True):
    """Random bounded MILP; `anchor` guarantees feasibility at a known point."""
    m = MilpModel()
    for i in range(n_bin):
        m.add_variable(f"b{i}", 0, 1, binary=True)
    lo_hi = []
    for i in range(n_cont):
        lo = float(rng.uniform(-5, 0))
        hi = lo + float(rng.uniform(0.5, 6))
        lo_hi.append((lo, hi))
        m.add_variable(f"c{i}", lo, hi)
    n = n_bin + n_cont
    m.set_objective({j: float(rng.integers(-9, 10)) for j in range(n)})
    x0 = np.concatenate([
        rng.integers(0, 2, n_bin).astype(float),
        np.array([rng.uniform(lo, hi) for lo, hi in lo_hi]),
    ]) if n else np.zeros(0)
    for _ in range(n_rows):
        nnz = int(rng.integers(1, min(n, 4) + 1))
        idx = rng.choice(n, size=nnz, replace=False)
        coeffs = {int(j): float(rng.integers(-5, 6)) or 1.0 for j in idx}
        rel = str(rng.choice([LE, GE, EQ] if anchor else [LE, GE]))
        lhs = sum(v * x0[j] for j, v in coeffs.items())
        if anchor:
            rhs = lhs + abs(rng.normal(0, 2)) if rel == LE else (
                lhs - abs(rng.normal(0, 2)) if rel == GE else lhs)
        else:
            rhs = float(rng.normal(0, 3))
        m.add_constraint(coeffs, rel, rhs)
    return m


def mixed_bounds_model(rng):
    """Random LP whose variables mix two-sided, lower-only, upper-only and
    free bounds, so it may be optimal, infeasible or unbounded."""
    m = MilpModel()
    n = int(rng.integers(2, 12))
    for j in range(n):
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        kind = rng.integers(0, 4)
        m.add_variable(f"x{j}", lo if kind in (0, 1) else -math.inf,
                       hi if kind in (0, 2) else math.inf)
    m.set_objective({j: float(rng.integers(-5, 6)) for j in range(n)})
    for _ in range(int(rng.integers(1, n + 2))):
        idx = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        m.add_constraint({int(j): float(rng.integers(-5, 6)) or 1.0 for j in idx},
                         str(rng.choice([LE, GE, EQ])), float(rng.normal(0, 3)))
    return m


def lp_vertex_oracle(model):
    """Independent LP oracle: enumerate candidate active sets (rows + bounds),
    solve the square systems, keep feasible points, return the best value."""
    std = model.standard_form()
    n = std.n
    a_dense = std.a_csc.toarray()
    cands = [(a_dense[i], std.b[i]) for i in range(std.m)]
    eye = np.eye(n)
    for j in range(n):
        if math.isfinite(std.lb[j]):
            cands.append((eye[j], std.lb[j]))
        if math.isfinite(std.ub[j]):
            cands.append((eye[j], std.ub[j]))
    best = None
    for combo in itertools.combinations(range(len(cands)), n):
        a = np.array([cands[i][0] for i in combo])
        b = np.array([cands[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-9:
            continue
        x = np.linalg.solve(a, b)
        if np.any(x < std.lb - 1e-7) or np.any(x > std.ub + 1e-7):
            continue
        lhs = a_dense @ x if std.m else np.zeros(0)
        ok = True
        for i, rel in enumerate(std.relations):
            r = lhs[i] - std.b[i]
            if (rel == LE and r > 1e-7) or (rel == GE and r < -1e-7) or (rel == EQ and abs(r) > 1e-7):
                ok = False
                break
        if ok:
            val = float(std.c @ x)
            best = val if best is None else min(best, val)
    return best


def linprog_oracle(model, lb=None, ub=None):
    """Independent LP oracle: HiGHS through scipy.optimize.linprog, over the
    model's bounds or the given ones. Returns (status, objective) with status
    "optimal", "infeasible" or "unbounded"."""
    std = as_standard_form(model)
    lb = std.lb if lb is None else lb
    ub = std.ub if ub is None else ub
    a_dense = std.a_csc.toarray()
    rel = np.array(std.relations)
    sign = np.where(rel == GE, -1.0, 1.0)
    ub_rows, eq_rows = rel != EQ, rel == EQ
    res = linprog(
        std.c,
        A_ub=(a_dense[ub_rows] * sign[ub_rows, None]) if ub_rows.any() else None,
        b_ub=(std.b * sign)[ub_rows] if ub_rows.any() else None,
        A_eq=a_dense[eq_rows] if eq_rows.any() else None,
        b_eq=std.b[eq_rows] if eq_rows.any() else None,
        bounds=list(zip(np.where(np.isfinite(lb), lb, None),
                        np.where(np.isfinite(ub), ub, None))),
        method="highs",
    )
    assert res.status in (0, 2, 3), res.message
    if res.status == 0:
        return "optimal", float(res.fun)
    return ("infeasible" if res.status == 2 else "unbounded"), None


def horizon_window(profile, n, soc, k=0):
    """(e_bat0, t_fr0, forecast, config) of the controller at step k of a
    3-day synthetic scenario, battery at `soc` of its usable range."""
    cfg = default_config()
    weather = synthesize_weather(3, profile, seed=1, step_hours=cfg.step_hours)
    scenario = build_scenario(weather, cfg, days=1)
    bat = cfg.battery
    return bat.e_min_wh + soc * (bat.e_max_wh - bat.e_min_wh), 2.0, scenario.forecast(k, n), cfg


def horizon_model(profile, n, soc):
    """The controller's horizon MILP at step 0 of a 3-day synthetic scenario."""
    e_bat0, t_fr0, forecast, cfg = horizon_window(profile, n, soc)
    return build_mpc_milp(PlantState(e_bat_wh=e_bat0, t_fr_c=t_fr0), forecast, cfg)


def seeded_horizon(profile, n, soc, k=0):
    """The controller's horizon MILP at step k, with the greedy seeds the
    controller passes the solver."""
    e_bat0, t_fr0, forecast, cfg = window = horizon_window(profile, n, soc, k)
    std = build_mpc_milp(PlantState(e_bat_wh=e_bat0, t_fr_c=t_fr0), forecast, cfg)
    return std, _greedy_seeds(*window)


def milp_oracle(std):
    """Independent MILP oracle: HiGHS through scipy.optimize.milp at a 1e-7
    relative gap. Returns the optimal objective."""
    rel = np.array(std.relations)
    rows = LinearConstraint(std.a_csc, np.where(rel == LE, -np.inf, std.b),
                            np.where(rel == GE, np.inf, std.b))
    res = milp(std.c, constraints=rows, integrality=std.is_binary.astype(int),
               bounds=Bounds(std.lb, std.ub), options={"mip_rel_gap": 1e-7})
    assert res.status == 0, res.message
    return float(res.fun)


def check_solution_loop(model, values, tol=1e-7, integrality_tol=1e-6):
    """Reference audit, one variable and one row at a time over the dense matrix."""
    std = as_standard_form(model)
    out = []
    for j in range(std.n):
        excess = max(std.lb[j] - values[j], values[j] - std.ub[j])
        if excess > tol:
            out.append(Violation("bound", std.names[j], j, float(excess)))
    lhs = std.a_csc.toarray() @ values
    for i, rel in enumerate(std.relations):
        resid = lhs[i] - std.b[i]
        excess = resid if rel == LE else (-resid if rel == GE else abs(resid))
        if excess > tol:
            out.append(Violation("row", std.row_names[i], i, float(excess)))
    for j in np.flatnonzero(std.is_binary):
        frac = abs(values[j] - round(values[j]))
        if frac > integrality_tol:
            out.append(Violation("integrality", std.names[j], int(j), float(frac)))
    return out


def basis_gather_reference(std, basis):
    """The basis columns of [A | I], gathered by index arithmetic from A's
    CSC arrays with the slack columns implicit: the reference for the
    column slice of the explicit [A | I]."""
    a = std.a_csc
    n, m = std.n, std.m
    struct = basis < n
    sb = basis[struct]
    counts = np.ones(m, dtype=np.int64)
    counts[struct] = a.indptr[sb + 1] - a.indptr[sb]
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    in_struct = np.repeat(struct, counts)
    src = np.repeat(a.indptr[sb] - ptr[:-1][struct], counts[struct]) + np.flatnonzero(in_struct)
    rows = np.empty(ptr[-1], dtype=np.int64)
    rows[in_struct] = a.indices[src]
    rows[~in_struct] = basis[~struct] - n
    vals = np.ones(ptr[-1])
    vals[in_struct] = a.data[src]
    return csc_matrix((vals, rows, ptr), shape=(m, m))


def row_free_reference(std):
    """Closed-form LP without rows: each variable at the bound its cost
    favours (unbounded when that bound is infinite), a zero-cost one where
    the all-slack start puts it."""
    lb, ub, c = std.lb, std.ub, std.c
    at_ub = np.isfinite(ub) & ((c < 0) | ~np.isfinite(lb))
    start = np.where(at_ub, ub, np.where(np.isfinite(lb), lb, 0.0))
    x = np.where(c > 0, lb, np.where(c < 0, ub, start))
    if np.any(~np.isfinite(x)):
        return "unbounded", None, -math.inf
    return "optimal", x, float(c @ x)


def row_free_model(rng):
    """Random model without rows: binaries and variables with two-sided,
    one-sided or no bounds, costs often zero."""
    m = MilpModel()
    for j in range(int(rng.integers(0, 8))):
        kind = rng.integers(0, 5)
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        if kind == 4:
            m.add_variable(f"b{j}", 0, 1, binary=True)
        else:
            m.add_variable(f"x{j}", lo if kind in (0, 1) else -math.inf,
                           hi if kind in (0, 2) else math.inf)
    m.set_objective({j: float(rng.integers(-3, 4)) for j in range(m.n_variables)})
    return m


def milp_enum_oracle(model):
    """Exhaustive oracle: LP for every binary assignment, best value wins."""
    std = model.standard_form()
    bin_idx = np.flatnonzero(std.is_binary)
    best = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
        lo, hi = std.lb.copy(), std.ub.copy()
        lo[bin_idx] = bits
        hi[bin_idx] = bits
        res = solve_lp_std(std, lo, hi)
        if res.status == "optimal":
            best = min(best, res.objective)
    return best if math.isfinite(best) else None


class TestSolveLp:
    def test_min_above_floor(self):
        m = MilpModel()
        x = m.add_variable("x", 0, 10)
        m.set_objective({x: 1.0})
        m.add_constraint({x: 1.0}, GE, 3.0)
        r = solve_lp(m)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(3.0)
        assert r.x[0] == pytest.approx(3.0)

    def test_two_variable_facet(self):
        m = MilpModel()
        x = m.add_variable("x", 0, 1)
        y = m.add_variable("y", 0, 1)
        m.set_objective({x: -1.0, y: -1.0})
        m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
        r = solve_lp(m)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-1.0)
        assert r.x[0] + r.x[1] == pytest.approx(1.0)

    def test_infeasible_box(self):
        m = MilpModel()
        x = m.add_variable("x", 0, 10)
        m.set_objective({x: 1.0})
        m.add_constraint({x: 1.0}, GE, 2.0)
        m.add_constraint({x: 1.0}, LE, 1.0)
        assert solve_lp(m).status == "infeasible"

    def test_unbounded(self):
        m = MilpModel()
        x = m.add_variable("x", -math.inf, math.inf)
        m.set_objective({x: 1.0})
        m.add_constraint({x: 1.0}, LE, 5.0)
        assert solve_lp(m).status == "unbounded"

    def test_free_variable_pinned_by_equalities(self):
        # min x subject to x = 1 + 2y, y in [0,4]: optimum at y=0, x=1
        m = MilpModel()
        x = m.add_variable("x", -math.inf, math.inf)
        y = m.add_variable("y", 0, 4)
        m.set_objective({x: 1.0})
        m.add_constraint({x: 1.0, y: -2.0}, EQ, 1.0)
        r = solve_lp(m)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(1.0)
        assert r.x[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("basis", [[0, 0], [0, 1]])
    def test_singular_basis_raises_trouble(self, basis):
        # [0, 0] repeats a column (SuperLU reports an exactly singular
        # factor); [0, 1] holds two columns parallel up to 1e-14, which only
        # the check on the diagonal of U catches.
        m = MilpModel()
        x = m.add_variable("x", 0, 1)
        y = m.add_variable("y", 0, 1)
        m.add_constraint({x: 1.0, y: 1.0}, LE, 1.0)
        m.add_constraint({x: 1.0, y: 1.0 + 1e-14}, LE, 1.0)
        std = m.standard_form()
        engine = _BoundedSimplex(std, std.lb, std.ub)
        engine.basis = np.array(basis)
        with pytest.raises(_Trouble, match="singular basis"):
            engine._refactor()

    def test_basis_slice_equals_gather_reference(self):
        rng = np.random.default_rng(16)
        forms = [as_standard_form(horizon_model("post-storm", 36, 0.5)),
                 as_standard_form(horizon_model("clear", 144, 1.0))]
        forms += [random_model(rng, int(rng.integers(0, 4)), int(rng.integers(1, 30)),
                               int(rng.integers(1, 20))).standard_form() for _ in range(40)]
        mixed = 0
        for std in forms:
            res = solve_lp_std(std, std.lb, std.ub)
            assert res.status == "optimal"
            basis = res.basis.rows
            got, want = std.a_ext[:, basis], basis_gather_reference(std, basis)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.shape == want.shape
            mixed += bool(np.any(basis < std.n) and np.any(basis >= std.n))
        assert mixed >= 30  # most bases hold structural and slack columns

    def test_row_free_models_take_the_one_lp_path(self):
        rng = np.random.default_rng(600)
        statuses = set()
        for trial in range(600):
            std = row_free_model(rng).standard_form()
            status, x, objective = row_free_reference(std)
            lp = solve_lp(std)
            assert lp.status == status, f"trial {trial}"
            assert lp.objective == objective, f"trial {trial}"
            mip = solve_milp(std, EXACT)
            if status == "unbounded":
                assert lp.x is None and mip.status == "Unbounded", f"trial {trial}"
            else:
                assert lp.x.tobytes() == x.tobytes(), f"trial {trial}"
                assert mip.status == "Optimal", f"trial {trial}"
                assert mip.values.tobytes() == x.tobytes(), f"trial {trial}"
                assert mip.objective == objective, f"trial {trial}"
            statuses.add(status)
        assert statuses == {"optimal", "unbounded"}

    def test_matches_vertex_oracle_on_random_lps(self):
        rng = np.random.default_rng(2024)
        for trial in range(120):
            m = random_model(rng, 0, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                             anchor=bool(rng.integers(0, 2)))
            mine = solve_lp(m)
            oracle = lp_vertex_oracle(m)
            if oracle is None:
                assert mine.status == "infeasible", f"trial {trial}"
            else:
                assert mine.status == "optimal", f"trial {trial}"
                assert mine.objective == pytest.approx(oracle, abs=1e-6), f"trial {trial}"


class TestLinprogOracle:
    @pytest.mark.parametrize("profile,n,soc", [("post-storm", 36, 0.5), ("clear", 144, 1.0)])
    def test_horizon_root_lp_matches_highs(self, profile, n, soc):
        model = horizon_model(profile, n, soc)
        mine = solve_lp(model)
        status, objective = linprog_oracle(model)
        assert mine.status == status == "optimal"
        assert mine.objective == pytest.approx(objective, rel=1e-7)

    def test_random_sparse_lps_match_highs(self):
        rng = np.random.default_rng(31)
        seen = set()
        for trial in range(30):
            n_cont = int(rng.integers(5, 40))
            m = random_model(rng, 0, n_cont, int(rng.integers(3, n_cont)),
                             anchor=bool(rng.integers(0, 2)))
            mine = solve_lp(m)
            status, objective = linprog_oracle(m)
            assert mine.status == status, f"trial {trial}"
            if status == "optimal":
                assert mine.objective == pytest.approx(objective, rel=1e-7, abs=1e-7), f"trial {trial}"
            seen.add(status)
        assert seen == {"optimal", "infeasible"}

    def test_mixed_bound_lps_match_highs(self):
        rng = np.random.default_rng(77)
        seen = set()
        for trial in range(400):
            m = mixed_bounds_model(rng)
            mine = solve_lp(m)
            status, objective = linprog_oracle(m)
            assert mine.status == status, f"trial {trial}"
            if status == "optimal":
                assert mine.objective == pytest.approx(objective, rel=1e-7, abs=1e-7), f"trial {trial}"
            seen.add(status)
        assert seen == {"optimal", "infeasible", "unbounded"}

    def test_horizon_root_lp_is_deterministic(self):
        model = horizon_model("clear", 144, 1.0)
        first, second = solve_lp(model), solve_lp(model)
        assert first.x.tobytes() == second.x.tobytes()
        assert first.iterations == second.iterations


class TestSlackBasis:
    def test_slacks_basic_structurals_at_favoured_bound(self):
        rng = np.random.default_rng(8)
        models = [random_model(rng, int(rng.integers(0, 4)), int(rng.integers(1, 30)),
                               int(rng.integers(1, 20)), anchor=bool(rng.integers(0, 2)))
                  for _ in range(40)]
        models += [mixed_bounds_model(rng) for _ in range(40)]
        shifted = 0
        for model in models:
            std = as_standard_form(model)
            n, m = std.n, std.m
            engine = _BoundedSimplex(std, std.lb, std.ub)
            assert engine.basis.tolist() == list(range(n, n + m))
            assert np.all(engine.status[n:] == BASIC)
            assert isinstance(engine.lu, _IdentityFactor)
            has_lb, has_ub = np.isfinite(std.lb), np.isfinite(std.ub)
            for j in range(n):
                c, status, x = std.c[j], engine.status[j], engine.x[j]
                if has_ub[j] and (c < 0 or not has_lb[j]):
                    assert (status, x) == (AT_UB, std.ub[j])
                elif has_lb[j]:
                    assert (status, x) == (AT_LB, std.lb[j])
                else:
                    assert (status, x) == (FREE, 0.0)
            assert np.allclose(engine.x[n:], std.b - std.a_csc @ engine.x[:n])
            # The slack basis prices every column at its cost: the starting
            # reduced costs must be dual feasible for each nonbasic status.
            start = engine._dual_costs()
            d = start[:n]
            assert np.all(d[engine.status[:n] == AT_LB] >= 0)
            assert np.all(d[engine.status[:n] == AT_UB] <= 0)
            assert np.all(d[engine.status[:n] == FREE] == 0)
            changed = start != engine.c
            assert np.all(start[changed] == 0)
            assert np.array_equal(changed, engine._wrong_sign(engine.c))
            shifted += bool(changed.any())
        assert 0 < shifted < len(models)

    @pytest.mark.parametrize("profile,n,soc", [("post-storm", 36, 0.5), ("clear", 144, 1.0)])
    def test_horizon_forms_need_no_cost_shift(self, profile, n, soc):
        std = as_standard_form(horizon_model(profile, n, soc))
        engine = _BoundedSimplex(std, std.lb, std.ub)
        assert not engine._wrong_sign(engine.c).any()
        assert engine._dual_costs().tobytes() == engine.c.tobytes()


class TestSolverOptions:
    @pytest.mark.parametrize("field", ["rel_gap_limit", "time_limit"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_and_nan_limits(self, field, value):
        with pytest.raises(MilpError, match=f"{field} must be positive"):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("field", ["rel_gap_limit", "time_limit"])
    def test_rejects_infinite_limits(self, field):
        with pytest.raises(MilpError, match=f"{field} must be positive and finite"):
            SolverOptions(**{field: math.inf})


NODE_BUDGET = SolverOptions(rel_gap_limit=0.01, time_limit=1e6, node_limit=30)


def recorded_lps(monkeypatch, model, options, seeds=None):
    """Solve the MILP, recording every LP branch-and-bound asks for as
    (lb, ub, start, result)."""
    calls = []

    def record(std, lb, ub, start=None):
        res = solve_lp_std(std, lb, ub, start=start)
        calls.append((lb.copy(), ub.copy(), start, res))
        return res

    monkeypatch.setattr(offgrid.milp.branch_bound, "solve_lp_std", record)
    return solve_milp(model, options, initial_solution=seeds), calls


def round_fix_lps(std, calls):
    """The recorded LPs that fix every binary: round-and-fix LPs."""
    bins = np.flatnonzero(std.is_binary)
    return [k for k, (lb, ub, _start, _res) in enumerate(calls) if np.all(lb[bins] == ub[bins])]


class TestRoundFix:
    """Round-and-fix runs only when no seed passes the audit (the seedless
    case is in TestWarmStart)."""

    @pytest.mark.parametrize("k,status", [(0, "GapLimit"), (55, "TimeLimit")])
    def test_no_round_fix_lp_when_a_seed_passes(self, monkeypatch, k, status):
        # Step 0 closes at the root; step 55 runs the tree to the node budget.
        std, seeds = seeded_horizon("post-storm", 36, 0.5, k)
        solution, calls = recorded_lps(monkeypatch, std, NODE_BUDGET, seeds)
        assert solution.status == status and solution.has_incumbent
        assert round_fix_lps(std, calls) == []


class TestMilpOracle:
    """Horizon MILPs with their seeds at the node budget, against HiGHS."""

    def test_status_bound_and_gap_hold_against_highs(self):
        statuses = set()
        for k in (0, 20, 28, 45, 55, 65):
            std, seeds = seeded_horizon("post-storm", 36, 0.5, k)
            sol = solve_milp(std, NODE_BUDGET, initial_solution=seeds)
            optimum = milp_oracle(std)
            tol = 1e-6 * max(1.0, abs(optimum))
            assert sol.best_bound <= optimum + tol, k
            assert optimum <= sol.objective + tol, k
            if sol.status == "Optimal":
                assert sol.objective == pytest.approx(optimum, rel=1e-6, abs=1e-6), k
            elif sol.status == "GapLimit":
                true_gap = (sol.objective - optimum) / max(abs(sol.objective), 1e-10)
                assert true_gap <= NODE_BUDGET.rel_gap_limit, k
            statuses.add(sol.status)
        assert {"TimeLimit", "GapLimit"} <= statuses


class TestWarmStart:
    """Child LPs and the root's round-fix LP reoptimize from their parent's
    basis."""

    @pytest.fixture(scope="class")
    def storm(self):
        monkeypatch = pytest.MonkeyPatch()
        model = horizon_model("post-storm", 36, 0.5)
        try:
            solution, calls = recorded_lps(monkeypatch, model, NODE_BUDGET)
        finally:
            monkeypatch.undo()
        assert solution.status == "TimeLimit" and solution.nodes_explored >= 30
        return model, solution, calls

    def test_every_warm_lp_equals_cold_and_highs(self, storm):
        model, _solution, calls = storm
        std = as_standard_form(model)
        warm = [(lb, ub, res) for lb, ub, start, res in calls if start is not None]
        assert len(warm) == len(calls) - 1  # all but the root
        statuses = set()
        for k, (lb, ub, res) in enumerate(warm):
            cold = solve_lp_std(std, lb, ub)
            assert res.status == cold.status, f"LP {k}"
            status, objective = linprog_oracle(model, lb, ub)
            assert res.status == status, f"LP {k}"
            if status == "optimal":
                assert res.objective == pytest.approx(cold.objective, rel=1e-9), f"LP {k}"
                assert res.objective == pytest.approx(objective, rel=1e-7), f"LP {k}"
            statuses.add(status)
        assert statuses == {"optimal", "infeasible"}

    def test_seedless_solve_rounds_and_fixes_at_the_root_only(self, storm):
        model, solution, calls = storm
        assert solution.has_incumbent
        assert round_fix_lps(as_standard_form(model), calls) == [1]  # right after the root
        assert calls[1][2] is calls[0][3].basis

    def test_node_lps_take_a_fifth_of_cold_iterations(self, storm):
        model, _solution, calls = storm
        std = as_standard_form(model)
        bins = np.flatnonzero(std.is_binary)
        nodes = [(lb, ub, res) for lb, ub, _start, res in calls[1:]
                 if np.any(lb[bins] < ub[bins])]  # round-fix LPs fix every binary
        assert len(nodes) >= 20
        warm = sum(res.iterations for _lb, _ub, res in nodes)
        cold = sum(solve_lp_std(std, lb, ub).iterations for lb, ub, _res in nodes)
        assert warm * 5 <= cold, (warm, cold)

    def test_repeats_bit_for_bit(self, storm):
        model, first, _calls = storm
        second = solve_milp(model, NODE_BUDGET)
        assert first.values.tobytes() == second.values.tobytes()
        assert (first.nodes_explored, first.simplex_iterations) == \
            (second.nodes_explored, second.simplex_iterations)
        assert (first.objective, first.best_bound) == (second.objective, second.best_bound)

    def test_singular_start_falls_back_to_cold_optimum(self):
        model = random_model(np.random.default_rng(12), 0, 8, 6)
        std = model.standard_form()
        cold = solve_lp_std(std, std.lb, std.ub)
        rows = cold.basis.rows.copy()
        rows[1] = rows[0]  # a repeated column: SuperLU finds the basis singular
        start = Basis(rows, cold.basis.status)
        with pytest.raises(_Trouble, match="singular basis"):
            _BoundedSimplex(std, std.lb, std.ub, start=start)
        res = solve_lp_std(std, std.lb, std.ub, start=start)
        assert res.status == cold.status == "optimal"
        assert res.objective == pytest.approx(cold.objective, rel=1e-9)


class TestSolveMilp:
    def test_binary_knapsack_pair(self):
        m = MilpModel()
        a = m.add_variable("a", 0, 1, binary=True)
        b = m.add_variable("b", 0, 1, binary=True)
        m.set_objective({a: -3.0, b: -2.0})
        m.add_constraint({a: 1.0, b: 1.0}, LE, 1.0)
        s = solve_milp(m, EXACT)
        assert s.status == "Optimal"
        assert s.objective == pytest.approx(-3.0)
        assert s.values.tolist() == [1.0, 0.0]

    def test_all_continuous_equals_lp(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 0, 3, 3)
        lp = solve_lp(m)
        s = solve_milp(m, EXACT)
        assert s.status == "Optimal"
        assert s.objective == pytest.approx(lp.objective, abs=1e-9)
        assert np.allclose(s.values, lp.x, atol=1e-9)

    def test_six_binary_knapsack_vs_enumeration(self):
        rng = np.random.default_rng(99)
        m = MilpModel()
        weights = rng.integers(1, 8, 6)
        values = rng.integers(1, 9, 6)
        idx = [m.add_variable(f"b{i}", 0, 1, binary=True) for i in range(6)]
        m.set_objective({j: -float(values[i]) for i, j in enumerate(idx)})
        m.add_constraint({j: float(weights[i]) for i, j in enumerate(idx)}, LE, 12.0)
        s = solve_milp(m, EXACT)
        assert s.objective == pytest.approx(milp_enum_oracle(m), abs=1e-9)

    def test_infeasible_integer(self):
        m = MilpModel()
        a = m.add_variable("a", 0, 1, binary=True)
        m.set_objective({a: 1.0})
        m.add_constraint({a: 2.0}, EQ, 1.0)  # needs a = 0.5
        s = solve_milp(m, EXACT)
        assert s.status == "Infeasible"
        assert not s.has_incumbent

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(31415)
        for trial in range(80):
            m = random_model(rng, int(rng.integers(1, 7)), int(rng.integers(0, 3)),
                             int(rng.integers(1, 6)), anchor=bool(rng.integers(0, 2)))
            s = solve_milp(m, EXACT)
            oracle = milp_enum_oracle(m)
            if oracle is None:
                assert s.status == "Infeasible", f"trial {trial}"
            else:
                assert s.status == "Optimal", f"trial {trial}"
                assert s.objective == pytest.approx(oracle, abs=1e-6), f"trial {trial}"

    def test_determinism(self):
        rng = np.random.default_rng(555)
        m = random_model(rng, 6, 2, 5)
        a = solve_milp(m, EXACT)
        b = solve_milp(m, EXACT)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.nodes_explored == b.nodes_explored
        assert np.array_equal(a.values, b.values)

    def test_objective_scaling_leaves_argmin(self):
        rng = np.random.default_rng(777)
        base = random_model(rng, 5, 2, 4)
        res = solve_milp(base, EXACT)
        std = base.standard_form()
        for scale in (0.5, 3.7):
            scaled = random_model(np.random.default_rng(777), 5, 2, 4)
            scaled.set_objective({j: float(std.c[j]) * scale
                                  for j in range(base.n_variables) if std.c[j]})
            res2 = solve_milp(scaled, EXACT)
            assert np.allclose(res.values, res2.values, atol=1e-9)
            assert res2.objective == pytest.approx(res.objective * scale, rel=1e-9)

    def test_weak_duality_and_monotone_bound(self):
        # Each node budget stops the same deterministic search earlier, so the
        # reported bound must never fall as the budget grows.
        rng = np.random.default_rng(4242)
        for _ in range(20):
            m = random_model(rng, int(rng.integers(2, 8)), 2, 4)
            s = solve_milp(m, EXACT)
            if not s.has_incumbent:
                continue
            assert s.best_bound <= s.objective + 1e-9
            bound = -math.inf
            for limit in range(1, s.nodes_explored + 1):
                r = solve_milp(m, SolverOptions(rel_gap_limit=1e-12, time_limit=120.0,
                                                node_limit=limit))
                assert r.best_bound >= bound - 1e-9
                assert r.best_bound <= r.objective + 1e-9
                bound = r.best_bound
            assert s.best_bound >= bound - 1e-9

    def test_initial_solution_seeds_incumbent(self):
        m = MilpModel()
        a = m.add_variable("a", 0, 1, binary=True)
        b = m.add_variable("b", 0, 1, binary=True)
        m.set_objective({a: -1.0, b: -1.0})
        m.add_constraint({a: 1.0, b: 1.0}, LE, 2.0)
        seed = np.array([1.0, 0.0])
        s = solve_milp(m, EXACT, initial_solution=[seed, np.array([1.0, 1.0])])
        assert s.objective == pytest.approx(-2.0)

    def test_infeasible_seed_ignored(self):
        m = MilpModel()
        a = m.add_variable("a", 0, 1, binary=True)
        m.set_objective({a: -1.0})
        m.add_constraint({a: 1.0}, LE, 0.0)
        s = solve_milp(m, EXACT, initial_solution=np.array([1.0]))
        assert s.status == "Optimal"
        assert s.objective == pytest.approx(0.0)

    def test_node_budget_reports_time_limit_status(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 12, 2, 8)
        s = solve_milp(m, SolverOptions(rel_gap_limit=1e-12, time_limit=60.0, node_limit=3))
        assert s.status in ("TimeLimit", "Optimal", "GapLimit", "Infeasible")
        if s.status == "TimeLimit":
            assert s.nodes_explored >= 3

    def test_gap_semantics_on_terminated_solves(self):
        rng = np.random.default_rng(2718)
        opts = SolverOptions(rel_gap_limit=0.01, time_limit=60.0)
        checked = 0
        for _ in range(25):
            m = random_model(rng, int(rng.integers(2, 10)), 2, 5)
            s = solve_milp(m, opts)
            if s.status in ("Optimal", "GapLimit"):
                assert (s.objective - s.best_bound) / max(abs(s.objective), 1e-10) \
                    <= 0.01 + 1e-9
                checked += 1
        assert checked > 0


class TestCheckSolution:
    def _model(self):
        m = MilpModel()
        a = m.add_variable("a", 0, 1, binary=True)
        x = m.add_variable("x", 0, 5)
        m.set_objective({x: 1.0})
        m.add_constraint({a: 1.0, x: 1.0}, LE, 3.0)
        return m

    def test_feasible_point_empty_report(self):
        m = self._model()
        assert check_solution(m, np.array([1.0, 2.0])) == []

    def test_fractional_binary_flagged(self):
        m = self._model()
        report = check_solution(m, np.array([0.4, 1.0]))
        assert any(v.kind == "integrality" for v in report)

    def test_tiny_violation_within_tol_ignored(self):
        m = self._model()
        assert check_solution(m, np.array([1.0, 2.0 + 1e-9]), tol=1e-7) == []

    def test_row_and_bound_violations(self):
        m = self._model()
        report = check_solution(m, np.array([1.0, 6.0]))
        kinds = {v.kind for v in report}
        assert "bound" in kinds and "row" in kinds

    def test_wrong_length_rejected(self):
        with pytest.raises(MilpError):
            check_solution(self._model(), np.array([1.0]))

    def test_non_finite_values_flagged(self):
        m = self._model()
        for values in ([np.nan, 2.0], [1.0, np.nan], [1.0, np.inf]):
            report = check_solution(m, np.array(values))
            assert [v.kind for v in report if v.kind == "bound"], values

    def test_matches_loop_reference_exactly(self):
        # Eighths keep every product and row sum exact, so the reports must
        # agree to the last bit whatever the summation order.
        rng = np.random.default_rng(5)
        flagged = set()
        for _ in range(40):
            m = random_model(rng, int(rng.integers(0, 6)), int(rng.integers(1, 8)),
                             int(rng.integers(0, 8)), anchor=bool(rng.integers(0, 2)))
            values = rng.integers(-48, 49, m.n_variables) / 8.0
            report = check_solution(m, values, tol=0.1, integrality_tol=0.2)
            assert report == check_solution_loop(m, values, tol=0.1, integrality_tol=0.2)
            flagged.update(v.kind for v in report)
        assert flagged == {"bound", "row", "integrality"}

    def test_matches_loop_reference_on_horizon_model(self):
        model = horizon_model("post-storm", 36, 0.5)
        x = solve_lp(model).x
        values = x + np.random.default_rng(3).normal(0.0, 1e-3, x.size)
        report = check_solution(model, values)
        reference = check_solution_loop(model, values)
        assert report
        assert [(v.kind, v.name, v.index) for v in report] == \
            [(v.kind, v.name, v.index) for v in reference]
        assert [v.amount for v in report] == pytest.approx([v.amount for v in reference], rel=1e-9)


class TestModelPlumbing:
    def test_lp_dump_lists_everything(self, tmp_path):
        m = MilpModel(name="demo")
        a = m.add_variable("a", 0, 1, binary=True)
        x = m.add_variable("x", -1, 2.5)
        m.set_objective({a: 3.0, x: -1.0})
        m.add_constraint({a: 2.0, x: 1.0}, LE, 4.0, name="cap")
        text = m.to_lp_text()
        for token in ("minimize", "cap:", "binary:", "a", "x", "<= 4"):
            assert token in text
        path = m.dump(tmp_path / "m.lp")
        assert path.read_text() == text

    def test_binary_bounds_enforced(self):
        m = MilpModel()
        with pytest.raises(MilpError):
            m.add_variable("b", 0, 2, binary=True)

    def test_crossed_bounds_rejected(self):
        m = MilpModel()
        with pytest.raises(MilpError):
            m.add_variable("x", 3, 1)

    def test_nonfinite_coeff_rejected(self):
        m = MilpModel()
        x = m.add_variable("x")
        with pytest.raises(MilpError):
            m.add_constraint({x: math.inf}, LE, 1.0)
