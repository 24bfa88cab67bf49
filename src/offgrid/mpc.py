"""Optimizing controller: horizon MILP build, solve, and command extraction.

Per within-horizon step i (0-based, N steps) the decision variables are the
binary load commands u_fr[i], u_s[i], the battery charge fraction gamma[i]
in [-1, 2], the PV energy drawn g[i] in [0, G[i]], the upper-band temperature
slack zeta[i] >= 0, and the successor states e_bat[i] (battery) and t_fr[i]
(fridge temperature, bounded below by the hard band edge). The stage cost is

    lambda1*(N-i)*zeta[i] - lambda2*soc[i] + lambda3*gamma[i]
    - lambda4*(N-i)*u_s[i]

with soc[i] = e_bat[i]/e_max: the battery reward is taken on the
state-of-charge fraction, not raw Wh, so that with unit weights all four
terms are commensurate (degrees, fractions, binaries) and the controller
trades a few Wh for band-keeping instead of hoarding stored energy while the
fridge drifts warm. Slack and secondary-load service near the start of the
horizon dominate the same terms later on. The controller's battery model uses a single
efficiency (eta_controller, default 1) and no inverter losses; the plant
applies the real efficiencies, and that deliberate mismatch is part of the
architecture: only the sign/magnitude class of gamma reaches the charge
controller, which then moves whatever energy is actually available.

The variables are laid out as the blocks of `_BLOCKS`, N each, so a vector
over them reshapes to one row per block and one column per step
(`x.reshape(len(_BLOCKS), N)`); the builder, the greedy seeds, the plan and
the basis shift all read it that way. A plan is those solved rows, and only
its first column becomes a `ControlCommand` for the plant.

Each step builds its horizon MILP straight into a `StandardForm`, the type
the solver stack reads, in one vectorized pass. It is built fresh, with no
cache: on a 2-vCPU host the build takes 0.4-0.5 ms at N=36 and 0.6-0.8 ms at
N=144, about a tenth of a median post-storm N=36 plan (~4.5 ms). The window
moves on one step at a time, so each step's root LP starts from the previous
step's optimal root basis shifted one step (`_shift_basis`), and cold only at
the first step or when the shifted basis would not be square.
"""

from __future__ import annotations

import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csc_matrix

from .config import SystemConfig
from .devices import FridgeDiscretization, fridge_discretize, fridge_energy
from .errors import InfeasiblePlanError, MilpError
from .milp import MilpSolution, SolverOptions, StandardForm, check_solution, dump_lp, solve_milp
from .milp.branch_bound import FEASIBILITY_TOL, INTEGRALITY_TOL
from .milp.simplex import AT_LB, BASIC, Basis, cold_status
from .scenario import ForecastWindow

if TYPE_CHECKING:  # runtime import would be circular (plant imports controllers)
    from .plant import PlantState

log = logging.getLogger(__name__)

GAMMA_SNAP_TOL = 1e-9


def gamma_to_discrete(gamma: float) -> tuple[int, int, int]:
    """Map the continuous charge fraction to (c, d, x_bat) charge-controller flags.

    c=1 for gamma > 0, d=1 for gamma < 0; x_bat is 1 in (0,1] (normal charge),
    2 in (1,2] (fast charge), 0 otherwise. gamma must lie in [-1, 2] (NaN
    does not).
    """
    if not (-1.0 - GAMMA_SNAP_TOL <= gamma <= 2.0 + GAMMA_SNAP_TOL):
        raise ValueError(f"gamma {gamma} outside [-1, 2]")
    gamma = min(2.0, max(-1.0, gamma))
    c = 1 if gamma > 0 else 0
    d = 1 if gamma < 0 else 0
    if 0 < gamma <= 1:
        x_bat = 1
    elif 1 < gamma <= 2:
        x_bat = 2
    else:
        x_bat = 0
    return c, d, x_bat


@dataclass(frozen=True)
class ControlCommand:
    """One step of commands as applied to the plant: the load commands and
    the charge fraction, with the charge-controller flags (c, d, x_bat)
    derived from gamma by `gamma_to_discrete`."""

    u_fr: int
    u_s: int
    gamma: float
    c: int = field(init=False)
    d: int = field(init=False)
    x_bat: int = field(init=False)

    def __post_init__(self):
        if self.u_fr not in (0, 1) or self.u_s not in (0, 1):
            raise ValueError("load commands must be binary")
        for name, flag in zip(("c", "d", "x_bat"), gamma_to_discrete(self.gamma)):
            object.__setattr__(self, name, flag)


@dataclass
class MpcPlan:
    """Solved horizon as arrays over its steps: the rounded load commands,
    the charge fraction (clipped to its box, snapped onto the mode edges),
    the predicted states and the band slack, with the solver's metadata.
    Only `first` reaches the plant. A fallback plan holds the one fallback
    command and NaN predictions."""

    u_fr: np.ndarray
    u_s: np.ndarray
    gamma: np.ndarray
    predicted_e_bat: np.ndarray
    predicted_t_fr: np.ndarray
    slack: np.ndarray
    solver: MilpSolution
    fallback_used: bool = False

    @property
    def first(self) -> ControlCommand:
        return ControlCommand(int(self.u_fr[0]), int(self.u_s[0]), float(self.gamma[0]))


_BLOCKS = ("u_fr", "u_s", "gamma", "g", "zeta", "e_bat", "t_fr")
_ROWS = ("thermal", "battery", "balance", "band_up")


def build_mpc_milp(state: "PlantState", forecast: ForecastWindow,
                   config: SystemConfig) -> StandardForm:
    """The horizon MILP for the given state and forecast, as a standard form:
    variables in the blocks of `_BLOCKS`, N each; rows interleaved per step
    as in `_ROWS`."""
    bat = config.battery
    if not (bat.e_min_wh - 1e-6 <= state.e_bat_wh <= bat.e_max_wh + 1e-6):
        raise MilpError(f"battery state {state.e_bat_wh} Wh outside its bounds")
    if not np.isfinite(state.t_fr_c):
        raise MilpError("fridge temperature must be finite")
    n = len(forecast)
    if n < 1:
        raise MilpError("forecast must cover at least one step")
    p = config.mpc
    f = config.fridge
    disc = fridge_discretize(f, config.step_hours)
    ec = bat.e_charge_max_wh
    e_s = forecast.e_secondary_wh
    scheduled = e_s > 0
    u_fr, u_s, gamma, g, zeta, e_bat, t_fr = np.arange(7 * n).reshape(7, n)
    w = np.arange(n, 0, -1.0)  # steps-from-now weight

    c = np.repeat([0.0, 0.0, p.lambda3, 0.0, 0.0, -p.lambda2 / bat.e_max_wh, 0.0], n)
    c[u_s] = np.where(scheduled, -p.lambda4 * w, 0.0)
    c[zeta] = p.lambda1 * w
    c += 0.0  # a zero weight gives -0.0 where an absent term is +0.0
    # The hard lower band edge lives on t_fr; the soft upper edge needs the
    # slack and stays a row.
    lb = np.repeat([0.0, 0.0, p.gamma_min, 0.0, 0.0, bat.e_min_wh, f.t_min_c], n)
    ub = np.repeat([1.0, 1.0, p.gamma_max, 0.0, np.inf, bat.e_max_wh, np.inf], n)
    ub[u_s] = scheduled
    ub[g] = forecast.g_avail_wh

    r = 4 * np.arange(n)
    entries = [
        # fridge thermal dynamics
        (r, t_fr, 1.0), (r, u_fr, -disc.b * disc.q_fr_w), (r[1:], t_fr[:-1], -disc.a),
        # battery dynamics with the controller-side efficiency
        (r + 1, e_bat, 1.0), (r + 1, gamma, -p.eta_controller * ec),
        (r[1:] + 1, e_bat[:-1], -1.0),
        # energy balance: loads + charging draw exactly the PV energy used
        (r + 2, u_fr, fridge_energy(f, config.step_hours)), (r + 2, gamma, ec),
        (r + 2, g, -1.0), (r + 2, u_s, e_s),
        # temperature band: only the slack-softened upper edge is a row
        (r + 3, t_fr, 1.0), (r + 3, zeta, -1.0),
    ]
    rows, cols, vals = (np.concatenate([np.broadcast_to(e[k], e[0].shape) for e in entries])
                        for k in range(3))
    keep = vals != 0.0
    b = np.zeros(4 * n)
    b[r] = disc.d * forecast.t_house_c
    b[0] += disc.a * state.t_fr_c
    b[1] = state.e_bat_wh
    b[r + 3] = f.t_max_c

    return StandardForm(
        name=f"horizon{n}", c=c,
        a_csc=csc_matrix((vals[keep], (rows[keep], cols[keep])), shape=(4 * n, 7 * n)),
        relations=["=", "=", "=", "<="] * n, b=b, lb=lb, ub=ub,
        is_binary=np.repeat([True, True, False, False, False, False, False], n),
        names=[f"{block}[{i}]" for block in _BLOCKS for i in range(n)],
        row_names=[f"{row}[{i}]" for i in range(n) for row in _ROWS],
    )


def _shift_basis(basis: Basis, std: StandardForm) -> Basis | None:
    """The previous step's root basis moved on one step, as the start of
    this step's root LP; None (start cold) when it does not fit.

    The step-0 columns and the slacks of rows 0-3 are dropped, and every
    other column and slack moves down one step, basic ones keeping their
    place in the basis order. In the new last step t_fr, e_bat and the
    balance and band slacks are basic; the other columns sit at the bound a
    cold start picks, and the slacks of the two dynamics rows, which are
    equalities, at 0.
    """
    n = std.n // len(_BLOCKS)
    if basis.status.size != std.n + std.m:  # the horizon length has changed
        return None
    rows = basis.rows
    step = np.where(rows < std.n, rows % n, (rows - std.n) // len(_ROWS))
    # The horizon is block lower-triangular: a column of step j touches only
    # rows of steps j and j+1. Ordered by step, the previous basis is
    # [[B00, 0], [B10, B11]], with B00 the step-0 basics on rows 0-3. When
    # step 0 holds exactly four basics, B00 is square, so B11 (the later
    # steps' basics on their own rows) is nonsingular. The forecast slides
    # one step, so B11 is the block of steps 0..N-2 in the new form; the new
    # last step adds a unit lower-triangular block on its own rows. The
    # shifted basis then has exactly m columns and is nonsingular. With any
    # other count it has more or fewer than m columns: start cold.
    if np.count_nonzero(step == 0) != len(_ROWS):
        return None
    kept = rows[step > 0]
    last = np.arange(len(_BLOCKS)) * n + n - 1
    added = [last[_BLOCKS.index("t_fr")], last[_BLOCKS.index("e_bat")],
             std.n + std.m - 2, std.n + std.m - 1]  # the balance and band slacks
    rows = np.concatenate([kept - np.where(kept < std.n, 1, len(_ROWS)), added])

    cols = basis.status[: std.n].reshape(len(_BLOCKS), n)
    slacks = basis.status[std.n:].reshape(n, len(_ROWS))
    cols = np.column_stack([cols[:, 1:], cold_status(std.c[last], std.lb[last], std.ub[last])])
    slacks = np.vstack([slacks[1:], [AT_LB, AT_LB, BASIC, BASIC]])
    status = np.concatenate([cols.ravel(), slacks.ravel()])
    status[rows] = BASIC
    return Basis(rows, status)


def _greedy_rollout(e_bat0: float, t_fr0: float, forecast: ForecastWindow,
                    config: SystemConfig, serve_plan: np.ndarray,
                    fridge_priority: bool = True) -> tuple[np.ndarray, int | None] | None:
    """Simulate a deadband-plus-greedy-charging policy through the horizon.

    The compressor runs only when the off-trajectory would leave the band
    upward (respecting the hard lower edge); the secondary circuit follows
    `serve_plan` where the charge-fraction box admits it; charging takes all
    admissible PV. Under scarcity the fridge is kept ahead of the secondary
    circuit unless `fridge_priority` is off (the horizon cost can genuinely
    prefer a small slack excursion over shedding a heavily-weighted fan step).
    Returns the assembled decision vector (one column of the block layout
    per step) and the first step (if any) at which the fridge had to be
    dropped for lack of energy.
    """
    p = config.mpc
    bat = config.battery
    disc = fridge_discretize(config.fridge, config.step_hours)
    e_fr = fridge_energy(config.fridge, config.step_hours)
    ec = bat.e_charge_max_wh
    n = len(forecast)
    x = np.zeros((len(_BLOCKS), n))
    t = t_fr0
    e = e_bat0
    first_fridge_fail: int | None = None
    for i in range(n):
        g_max = float(forecast.g_avail_wh[i])
        e_s = float(forecast.e_secondary_wh[i])
        th = float(forecast.t_house_c[i])
        t_on = disc.a * t + disc.b * disc.q_fr_w + disc.d * th
        t_off = disc.a * t + disc.d * th
        u_db = 1 if (t_off > config.fridge.t_max_c and t_on >= config.fridge.t_min_c) else 0
        s_want = 1 if (e_s > 0 and serve_plan[i]) else 0
        if fridge_priority:
            candidates = ((u_db, s_want), (u_db, 0), (0, 0))
        else:
            candidates = ((u_db, s_want), (0, s_want), (u_db, 0), (0, 0))
        for u, s in candidates:
            load = u * e_fr + s * e_s
            lo = max(p.gamma_min, -load / ec,
                     (bat.e_min_wh - e) / (p.eta_controller * ec))
            hi = min(p.gamma_max, (g_max - load) / ec,
                     (bat.e_max_wh - e) / (p.eta_controller * ec))
            if lo <= hi + 1e-12:
                break
        else:
            return None
        if u < u_db and first_fridge_fail is None:
            first_fridge_fail = i
        gam = hi  # greediest admissible charge; equals the needed discharge at night
        t_next = t_on if u else t_off
        if t_next < config.fridge.t_min_c - 1e-9:
            return None
        e = e + p.eta_controller * ec * gam
        x[:, i] = (u, s, gam, u * e_fr + s * e_s + ec * gam,
                   max(0.0, t_next - config.fridge.t_max_c), e, t_next)
        t = t_next
    return x.ravel(), first_fridge_fail


def _greedy_seeds(e_bat0: float, t_fr0: float, forecast: ForecastWindow,
                  config: SystemConfig) -> list[np.ndarray]:
    """Candidate incumbents for the solver, cheapest-first quality ladder:

    1. rationed: serve the secondary loads as much as possible without ever
       dropping the fridge for lack of energy - built by serving everything
       and then unserving the latest served step before each fridge failure
       (late service carries the smallest reward under the (N-i) weights);
    2. serve-first-K: serve only the first K scheduled steps of the window,
       fridge first, for a ladder of K values - the shape the time-varying
       weights actually favor under scarcity; K = 0 is the fridge-only
       rollout and K = all the serve-everything one;
    3. fans-first: the serve-everything plan with the fans kept ahead of the
       fridge. Fans-first rollouts of the shorter plans are not built: on
       closed-loop storm and clear runs none held a better incumbent than
       the other seeds.

    Each distinct rollout is returned once, first copy kept: rungs often
    coincide (both priorities agree while energy suffices), and solve_milp
    keeps the first of equal seeds, so later copies would only be audited.
    """
    n = len(forecast)
    seeds: list[np.ndarray] = []

    serve = forecast.e_secondary_wh > 0
    rationed = None
    for _ in range(n + 1):
        out = _greedy_rollout(e_bat0, t_fr0, forecast, config, serve)
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

    scheduled = np.flatnonzero(forecast.e_secondary_wh > 0)
    prefix_ks = sorted({0, 2, 4, 6, 9, 12, 18, 24, len(scheduled)} & set(range(len(scheduled) + 1)))
    for k, priority in [(k, True) for k in prefix_ks] + [(len(scheduled), False)]:
        plan_k = np.zeros(n, dtype=bool)
        plan_k[scheduled[:k]] = True
        out = _greedy_rollout(e_bat0, t_fr0, forecast, config, plan_k,
                              fridge_priority=priority)
        if out is not None:
            seeds.append(out[0])
    distinct: dict[bytes, np.ndarray] = {}
    for seed in seeds:
        distinct.setdefault(seed.tobytes(), seed)
    return list(distinct.values())


def _fallback_command(state: "PlantState", forecast: ForecastWindow,
                      config: SystemConfig) -> ControlCommand:
    """Degraded one-step rule when the solver produced no incumbent at all:
    dead-band fridge (off inside the band), secondary off, greedy normal-mode
    charging with the current PV surplus."""
    f = config.fridge
    if state.t_fr_c >= f.t_max_c:
        u_fr = 1
    else:
        u_fr = 0
    e_fr = fridge_energy(f, config.step_hours)
    surplus = float(forecast.g_avail_wh[0]) - u_fr * e_fr
    gamma = float(np.clip(surplus / config.battery.e_charge_max_wh, -1.0, 1.0))
    return ControlCommand(u_fr=u_fr, u_s=0, gamma=gamma)


def plan(state: "PlantState", forecast: ForecastWindow, config: SystemConfig,
         options: SolverOptions | None = None,
         dump_dir: str | Path | None = None,
         previous_root: Basis | None = None) -> MpcPlan:
    """Solve the horizon problem; the plan is the solution's block rows.

    `previous_root` is the root basis of the previous step's plan; the root
    LP starts from it shifted one step when it fits, else cold.

    Raises InfeasiblePlanError (with an LP-format model dump) if the MILP has
    no feasible point; falls back to a dead-band command when the solver hits
    its budget without any incumbent.
    """
    options = options or SolverOptions()
    std = build_mpc_milp(state, forecast, config)
    seeds = _greedy_seeds(state.e_bat_wh, state.t_fr_c, forecast, config)
    root_start = None if previous_root is None else _shift_basis(previous_root, std)
    solution = solve_milp(std, options, initial_solution=seeds, root_start=root_start)

    if solution.status == "Infeasible":
        directory = Path(dump_dir) if dump_dir else Path(tempfile.gettempdir())
        directory.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(prefix="infeasible_", suffix=".lp", dir=directory)
        os.close(fd)
        dump = dump_lp(std, name)
        raise InfeasiblePlanError(
            f"horizon problem infeasible (dump: {dump})", dump_path=str(dump))
    if solution.status in ("Unbounded", "NumericalFailure"):
        raise MilpError(f"solver failed: {solution.status} ({solution.message})")
    if not solution.has_incumbent:
        log.warning("no incumbent within budget; using dead-band fallback command")
        cmd = _fallback_command(state, forecast, config)
        e_bat, t_fr, zeta = np.full((3, len(forecast)), np.nan)
        return MpcPlan(u_fr=np.array([cmd.u_fr]), u_s=np.array([cmd.u_s]),
                       gamma=np.array([cmd.gamma]), predicted_e_bat=e_bat,
                       predicted_t_fr=t_fr, slack=zeta, solver=solution, fallback_used=True)

    values = solution.values
    violations = check_solution(std, values, FEASIBILITY_TOL * 10, INTEGRALITY_TOL * 10)
    if violations:
        raise MilpError(f"incumbent failed the feasibility audit: {violations[:3]}")

    blocks = values.reshape(len(_BLOCKS), -1).copy()  # the plan does not alias the solution
    u_fr, u_s, gamma, _g, zeta, e_bat, t_fr = blocks
    u_fr = np.round(u_fr).astype(int)
    _audit_dynamics(state, forecast, config, blocks, u_fr)
    gamma = np.clip(gamma, config.mpc.gamma_min, config.mpc.gamma_max)
    for snap in (0.0, 1.0, 2.0, -1.0):
        gamma[np.abs(gamma - snap) < GAMMA_SNAP_TOL] = snap
    return MpcPlan(u_fr=u_fr, u_s=np.round(u_s).astype(int), gamma=gamma,
                   predicted_e_bat=e_bat, predicted_t_fr=t_fr, slack=zeta, solver=solution)


def _audit_dynamics(state: "PlantState", forecast: ForecastWindow, config: SystemConfig,
                    blocks: np.ndarray, u_fr: np.ndarray, tol: float = 2e-4) -> None:
    """Re-simulate the model dynamics under the rounded fridge commands and
    the solver's own charge fractions, and require agreement with the
    solver's state trajectory (extraction consistency). `blocks` is the
    solution in the block layout, one row per block of `_BLOCKS`.

    The default tolerance covers the worst legal case of a binary sitting at
    the integrality tolerance and being rounded in the command (the rounding
    propagates as |b*q|*tol/(1-a) through the thermal recursion); exact solves
    agree to 1e-6 and the test suite pins that tighter bound separately.
    """
    _, _, gamma, _, zeta, e_bat, t_fr = blocks
    if np.any(zeta < -1e-9):
        raise MilpError("negative temperature slack in solution")
    disc = fridge_discretize(config.fridge, config.step_hours)
    ec = config.battery.e_charge_max_wh
    eta = config.mpc.eta_controller
    t = state.t_fr_c
    e = state.e_bat_wh
    for i in range(len(u_fr)):
        t = disc.a * t + disc.b * u_fr[i] * disc.q_fr_w + disc.d * float(forecast.t_house_c[i])
        e = e + eta * ec * float(gamma[i])
        if abs(t - t_fr[i]) > tol or abs(e - e_bat[i]) > tol:
            raise MilpError(
                f"extracted plan diverges from solver trajectory at step {i}: "
                f"T {t:.8f} vs {t_fr[i]:.8f}, E {e:.6f} vs {e_bat[i]:.6f}"
            )


class MpcController:
    """Receding-horizon controller: one plan per plant step, first command
    applied; each plan's root LP starts from the last plan's root basis."""

    def __init__(self, config: SystemConfig, options: SolverOptions | None = None):
        self.config = config
        self.options = options or SolverOptions()
        self.last_plan: MpcPlan | None = None

    def decide(self, state: "PlantState", scenario, k: int):
        from .plant import ControllerDecision

        forecast = scenario.forecast(k, self.config.horizon_steps)
        previous_root = self.last_plan.solver.root_basis if self.last_plan is not None else None
        p = plan(state, forecast, self.config, self.options, previous_root=previous_root)
        self.last_plan = p
        cmd = p.first
        return ControllerDecision(
            command=cmd,
            requested_u_fr=cmd.u_fr,
            requested_u_s=cmd.u_s,
            solver=p.solver,
            fallback=p.fallback_used,
        )
