"""Best-bound branch-and-bound over the binary variables of a MILP.

Nodes are solved eagerly and kept on a min-heap keyed by their LP relaxation
value, so the popped bound is always the proven global lower bound; the
relative gap against the incumbent is therefore meaningful at every step.
Branching picks the most fractional binary (ties to the lowest index). The
incumbent starts as the best seed that passes the audit; only when none does
is a round-and-fix LP solved, once, at the root, with every binary fixed at
its rounded root value. The root LP starts cold, or from a given basis of the
same form (the MPC controller passes the previous step's root basis, shifted
one step), and its optimal basis is returned for the next step. Each heap
entry keeps its LP's optimal basis: both children of a node, and the root's
round-fix LP, differ from it only in bounds, so they reoptimize from it with
the dual simplex instead of starting cold. Terminal status:

  Optimal   - the tree is exhausted (or the bound meets the incumbent).
  GapLimit  - the relative gap reached rel_gap_limit with open nodes left.
  TimeLimit - wall-clock or node budget exhausted (incumbent may be absent).
  Infeasible / Unbounded - certified by the root relaxation or exhaustion.
  NumericalFailure - an LP relaxation broke down irrecoverably.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import MilpError
from .model import MilpModel, StandardForm, as_standard_form, check_solution
from .simplex import FEASIBILITY_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, Basis, solve_lp_std

GAP_DENOM_FLOOR = 1e-10
INTEGRALITY_TOL = 1e-6  # a binary this close to 0 or 1 counts as integral


@dataclass(frozen=True)
class SolverOptions:
    """Termination limits for solve_milp."""

    rel_gap_limit: float = 0.01
    time_limit: float = 300.0
    node_limit: int | None = None

    def __post_init__(self):
        # An infinite gap stops every solve at its first incumbent, and an
        # infinite time limit leaves a solve without a node budget unbounded.
        for name in ("rel_gap_limit", "time_limit"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise MilpError(f"{name} must be positive and finite, got {value}")
        if self.node_limit is not None and self.node_limit <= 0:
            raise MilpError("node_limit must be positive")


@dataclass
class MilpSolution:
    """Solver outcome; `values` is None when no incumbent was found, and
    `root_basis` is None when the root LP did not reach its optimum."""

    status: str
    values: np.ndarray | None
    objective: float
    best_bound: float
    rel_gap: float
    nodes_explored: int
    wall_time: float
    simplex_iterations: int
    message: str = ""
    root_basis: Basis | None = None

    @property
    def has_incumbent(self) -> bool:
        return self.values is not None


def relative_gap(objective: float, best_bound: float) -> float:
    if not math.isfinite(objective):
        return math.inf
    return (objective - best_bound) / max(abs(objective), GAP_DENOM_FLOOR)


def solve_milp(model: MilpModel | StandardForm, options: SolverOptions | None = None,
               initial_solution=None, root_start: Basis | None = None) -> MilpSolution:
    """Solve a MILP by LP-based branch-and-bound on its binary variables.

    `initial_solution` (one assignment or an iterable of candidates) seeds
    the incumbent; every candidate is audited with check_solution first and
    infeasible ones are ignored. `root_start`, a nonsingular basis of the
    same form, starts the root LP in place of the slack basis.
    """
    options = options or SolverOptions()
    t0 = time.perf_counter()
    std = as_standard_form(model)
    bin_idx = np.flatnonzero(std.is_binary)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    if initial_solution is not None:
        if isinstance(initial_solution, np.ndarray):
            initial_solution = [initial_solution]
        for cand in initial_solution:
            cand = np.asarray(cand, dtype=float)
            if check_solution(std, cand, FEASIBILITY_TOL, INTEGRALITY_TOL):
                continue
            obj = float(std.c @ cand)
            if obj < incumbent_obj:
                incumbent_x = cand.copy()
                incumbent_obj = obj

    total_iters = 0
    nodes = 0

    def elapsed() -> float:
        return time.perf_counter() - t0

    def done(status: str, best_bound: float, message: str = "") -> MilpSolution:
        # incumbent_obj is inf, and so the gap, while there is no incumbent
        best_bound = min(best_bound, incumbent_obj)
        return MilpSolution(
            status=status,
            values=incumbent_x.copy() if incumbent_x is not None else None,
            objective=incumbent_obj,
            best_bound=best_bound,
            rel_gap=relative_gap(incumbent_obj, best_bound),
            nodes_explored=nodes,
            wall_time=elapsed(),
            simplex_iterations=total_iters,
            message=message,
            root_basis=root.basis,
        )

    root = solve_lp_std(std, std.lb, std.ub, start=root_start)
    nodes += 1
    total_iters += root.iterations
    if root.status == INFEASIBLE:
        return done("Infeasible", math.inf, root.message)
    if root.status == UNBOUNDED:
        return done("Unbounded", -math.inf, root.message)
    if root.status != OPTIMAL:
        return done("NumericalFailure", -math.inf, root.message)

    def is_integral(x: np.ndarray) -> bool:
        vals = x[bin_idx]
        return bool(np.max(np.abs(vals - np.round(vals)), initial=0.0) <= INTEGRALITY_TOL)

    def try_incumbent(x: np.ndarray, obj: float) -> None:
        nonlocal incumbent_x, incumbent_obj
        if obj < incumbent_obj - 1e-12:
            incumbent_x = x.copy()
            incumbent_obj = obj

    if is_integral(root.x):
        try_incumbent(root.x, root.objective)
        return done("Optimal", incumbent_obj)

    if incumbent_x is None:
        # No seed passed the audit: round and fix.
        lo, hi = std.lb.copy(), std.ub.copy()
        lo[bin_idx] = hi[bin_idx] = np.clip(np.round(root.x[bin_idx]), lo[bin_idx], hi[bin_idx])
        res = solve_lp_std(std, lo, hi, start=root.basis)
        total_iters += res.iterations
        if res.status == OPTIMAL:
            try_incumbent(res.x, res.objective)

    seq = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray, Basis]] = []
    heapq.heappush(heap, (root.objective, seq, root.x, std.lb.copy(), std.ub.copy(), root.basis))

    while heap:
        bound, _n, x_lp, lb, ub, basis = heapq.heappop(heap)

        if incumbent_x is not None:
            if bound >= incumbent_obj - 1e-9:
                return done("Optimal", incumbent_obj)
            if relative_gap(incumbent_obj, bound) <= options.rel_gap_limit:
                return done("GapLimit", bound)
        if elapsed() > options.time_limit:
            return done("TimeLimit", bound, "wall-clock limit reached")
        if options.node_limit is not None and nodes >= options.node_limit:
            return done("TimeLimit", bound, "node budget exhausted")

        fracs = np.abs(x_lp[bin_idx] - np.round(x_lp[bin_idx]))
        j = int(bin_idx[int(np.argmax(np.minimum(fracs, 1.0 - fracs)))])

        for fix in (0.0, 1.0):
            if fix < lb[j] or fix > ub[j]:
                continue
            lo, hi = lb.copy(), ub.copy()
            lo[j] = fix
            hi[j] = fix
            res = solve_lp_std(std, lo, hi, start=basis)
            nodes += 1
            total_iters += res.iterations
            if res.status == INFEASIBLE:
                continue
            if res.status != OPTIMAL:
                return done("NumericalFailure", bound, res.message)
            child_bound = max(res.objective, bound)
            if incumbent_x is not None and child_bound >= incumbent_obj - 1e-9:
                continue
            if is_integral(res.x):
                try_incumbent(res.x, child_bound)
            else:
                seq += 1
                heapq.heappush(heap, (child_bound, seq, res.x, lo, hi, res.basis))

    if incumbent_x is not None:
        return done("Optimal", incumbent_obj)
    return done("Infeasible", math.inf, "exhausted without integer-feasible point")
