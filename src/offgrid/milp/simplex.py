"""Bounded-variable revised simplex used for all LP relaxations.

Rows are turned into equalities with one slack each (bounds encode the
relation), so variable bounds never become explicit rows. The LP is solved
over the form's cached sparse [A | I], whose last m columns are the slacks;
the basis matrix is a column slice of it. The basis inverse is a sparse LU
factorization (SuperLU) plus a product-form eta file, refreshed every few
dozen pivots. A form without rows takes the same path, with an empty basis.

Every LP takes one path: a bounded dual simplex drives the basic variables
into their bounds, then the primal simplex cleans up any dual infeasibility
left. A cold LP starts from the all-slack basis, whose factor is the
identity, with each structural at the bound its cost favours. An LP may
instead start from a given basis of the same form, with the nonbasic
variables at their bounds: the optimal basis of an LP that differs only in
its variable bounds (a branch-and-bound child, a round-and-fix LP), or the
previous MPC step's root basis shifted one step. The dual simplex starts
from the start's reduced costs, with one rule for every start: each nonbasic
reduced cost of the wrong sign for its status is taken as 0. A cold start
zeroes only the costs whose sign no finite bound fits, and an optimal basis
under new bounds zeroes none. The primal simplex then runs on the true
costs. Either way an infeasible LP is proven by a dual ratio test that finds
no entering column.

Pivoting is deterministic: Dantzig pricing (largest reduced cost, lowest
index on ties), switching to Bland's rule after a run of degenerate steps.
The dual simplex takes the row with the largest bound violation and the
smallest dual ratio, lowest index on ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .model import MilpModel, StandardForm, as_standard_form

AT_LB, AT_UB, FREE, BASIC = 0, 1, 2, 3

FEASIBILITY_TOL = 1e-7  # row or bound excess a seed may carry; LP solutions and plans 10x

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"


class _Trouble(Exception):
    """Internal signal for numerical breakdown; triggers one careful retry."""


@dataclass(frozen=True)
class Basis:
    """A final simplex basis: the basic column of each row, and the status
    (AT_LB, AT_UB, FREE or BASIC) of every column of [A | I]."""

    rows: np.ndarray
    status: np.ndarray


@dataclass
class LpResult:
    """Outcome of one LP solve over the structural variables; `basis` is the
    optimal basis, from which an LP on the same form may start."""

    status: str
    x: np.ndarray | None
    objective: float
    iterations: int
    message: str = ""
    basis: Basis | None = None


def solve_lp(model: MilpModel | StandardForm) -> LpResult:
    """Solve the LP relaxation of a model (integrality markers ignored)."""
    std = as_standard_form(model)
    return solve_lp_std(std, std.lb, std.ub)


def solve_lp_std(std: StandardForm, lb: np.ndarray, ub: np.ndarray,
                 start: Basis | None = None) -> LpResult:
    """Solve with explicit variable bounds (used by branch-and-bound nodes).

    `start` is a nonsingular basis of the same form, such as the optimal
    basis of an LP that differs only in bounds; the solve then reoptimizes
    from it with the dual simplex.
    """
    try:
        engine = _BoundedSimplex(std, lb, ub, start=start)
        return engine.solve()
    except _Trouble as exc:
        iterations = exc.iterations
    # Deterministic retry: cold, Bland from the start, refactor on every pivot.
    try:
        engine = _BoundedSimplex(std, lb, ub, bland=True, refactor_every=1)
        result = engine.solve()
        result.iterations += iterations
        return result
    except _Trouble as exc:
        return LpResult(NUMERICAL, None, math.nan,
                        iterations + exc.iterations, str(exc))


def cold_status(c: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Status of nonbasic structurals in a cold start: at the upper bound if
    the cost is negative or there is no lower bound, else at the lower bound,
    else free at 0."""
    at_ub = np.isfinite(ub) & ((c < 0) | ~np.isfinite(lb))
    return np.where(at_ub, AT_UB, np.where(np.isfinite(lb), AT_LB, FREE))


class _IdentityFactor:
    """Factor of the all-slack basis, whose columns are the identity, so
    solving with it is a copy."""

    @staticmethod
    def solve(v: np.ndarray, trans: str = "N") -> np.ndarray:
        return v.copy()


class _BoundedSimplex:
    DUAL_TOL = 1e-9
    PIV_TOL = 1e-9
    PRIMAL_TOL = 1e-9  # basic bound violation the dual simplex leaves alone
    DEGEN_LIMIT = 40

    def __init__(self, std: StandardForm, lb: np.ndarray, ub: np.ndarray,
                 bland: bool = False, refactor_every: int = 32,
                 start: Basis | None = None):
        self.std = std
        self.m, self.n = std.m, std.n
        self.nt = self.n + self.m
        self.A = std.a_ext
        self.b = std.b
        self.c = np.concatenate([std.c, np.zeros(self.m)])
        self.max_iter = 10_000 + 20 * self.nt
        self.bland_base = bland
        self.bland = bland
        self.refactor_every = refactor_every
        self.iterations = 0
        self.degen_streak = 0

        self.lb = np.concatenate([lb, std.slack_lb])
        self.ub = np.concatenate([ub, std.slack_ub])
        if np.any(self.lb[: self.n] > self.ub[: self.n]):
            raise self._trouble("crossed variable bounds")

        self.lu = _IdentityFactor()
        self.etas: list[tuple[int, np.ndarray]] = []
        if start is None:
            self._slack_basis()
        else:
            self._load_basis(start)

    # -- setup --------------------------------------------------------------

    def _slack_basis(self) -> None:
        """All-slack start, each structural at the bound `cold_status` picks."""
        n, m = self.n, self.m
        self.basis = n + np.arange(m)
        status = cold_status(self.std.c, self.lb[:n], self.ub[:n])
        self.status = np.concatenate([status, np.full(m, BASIC)])
        x = np.select([status == AT_LB, status == AT_UB], [self.lb[:n], self.ub[:n]], 0.0)
        self.x = np.concatenate([x, self.b - self.std.a_csc @ x])

    def _load_basis(self, start: Basis) -> None:
        """Start from a given basis: nonbasic variables at their (new) bounds,
        basic values from a fresh factorization."""
        self.basis = start.rows.copy()
        self.status = start.status.copy()
        self.x = np.select([self.status == AT_LB, self.status == AT_UB], [self.lb, self.ub], 0.0)
        if not np.all(np.isfinite(self.x)):
            raise self._trouble("start basis puts a variable at an infinite bound")
        self._refactor()

    def _dual_costs(self) -> np.ndarray:
        """The reduced costs d = c - [A | I]^T y the dual simplex starts from,
        with each `_wrong_sign` entry set to 0, so they are dual feasible for
        the start. On the slack basis the reduced costs are the costs, so this
        zeroes the costs whose sign no finite bound fits."""
        d = self.c - self.std.a_ext_t @ self._btran(self.c[self.basis])
        d[self._wrong_sign(d)] = 0.0
        return d

    def _wrong_sign(self, d: np.ndarray) -> np.ndarray:
        """Movable nonbasic columns whose entry of d has the wrong sign for
        their status, beyond DUAL_TOL: the primal simplex's candidates when d
        holds reduced costs, the dual ratio test's when it is a signed row."""
        s, tol = self.status, self.DUAL_TOL
        return (self.lb < self.ub) & (((s == AT_LB) & (d < -tol)) | ((s == AT_UB) & (d > tol))
                                      | ((s == FREE) & (np.abs(d) > tol)))

    # -- basis inverse maintenance ------------------------------------------

    def _column(self, j: int) -> np.ndarray:
        """Dense copy of column j of [A | I]."""
        col = np.zeros(self.m)
        lo, hi = self.A.indptr[j], self.A.indptr[j + 1]
        col[self.A.indices[lo:hi]] = self.A.data[lo:hi]
        return col

    def _refactor(self) -> None:
        cols = self.A[:, self.basis]
        try:
            self.lu = splu(cols)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise self._trouble(f"singular basis ({exc})") from None
        diag = np.abs(self.lu.U.diagonal())
        if diag.size and diag.min() < 1e-12 * max(1.0, diag.max()):
            raise self._trouble("singular basis")
        self.etas = []
        nonbasic_part = self.A @ self.x - cols @ self.x[self.basis]
        xb = self.lu.solve(self.b - nonbasic_part)
        if not np.all(np.isfinite(xb)):
            raise self._trouble("non-finite basic values")
        self.x[self.basis] = xb

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        z = self.lu.solve(v)
        for r, w in self.etas:
            zr = z[r] / w[r]
            z = z - w * zr
            z[r] = zr
        return z

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        z = cb.astype(float, copy=True)
        for r, w in reversed(self.etas):
            s = w @ z - w[r] * z[r]
            z[r] = (z[r] - s) / w[r]
        return self.lu.solve(z, trans="T")

    def _push_eta(self, r: int, w: np.ndarray) -> None:
        if abs(w[r]) < 1e-11:
            raise self._trouble("pivot element below threshold")
        self.etas.append((r, w.copy()))
        if len(self.etas) >= self.refactor_every:
            self._refactor()

    def _trouble(self, message: str) -> _Trouble:
        exc = _Trouble(message)
        exc.iterations = self.iterations
        return exc

    # -- core iteration -----------------------------------------------------

    def _iterate(self, c: np.ndarray) -> str:
        """Primal simplex from a basis within its bounds."""
        m = self.m
        while True:
            if self.iterations >= self.max_iter:
                raise self._trouble("iteration limit exceeded")
            self.iterations += 1

            d = c - self.std.a_ext_t @ self._btran(c[self.basis])
            eligible = self._wrong_sign(d)
            if not eligible.any():
                return OPTIMAL
            if self.bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                score = np.where(eligible, np.abs(d), -1.0)
                j = int(np.argmax(score))
            sigma = 1.0 if d[j] < 0 else -1.0  # the direction that lowers the cost

            w = self._ftran(self._column(j))
            delta = -sigma * w
            xb = self.x[self.basis]
            lb_b = self.lb[self.basis]
            ub_b = self.ub[self.basis]
            t_arr = np.full(m, math.inf)
            pos = delta > self.PIV_TOL
            neg = delta < -self.PIV_TOL
            t_arr[pos] = (ub_b[pos] - xb[pos]) / delta[pos]
            t_arr[neg] = (lb_b[neg] - xb[neg]) / delta[neg]
            t_arr = np.maximum(t_arr, 0.0)
            t_basic = t_arr.min() if m else math.inf
            t_bound = self.ub[j] - self.lb[j]
            t = min(t_basic, t_bound)
            if not math.isfinite(t):
                return UNBOUNDED

            self.x[self.basis] = xb + t * delta
            if t_bound <= t_basic:
                self.x[j] = self.ub[j] if sigma > 0 else self.lb[j]
                self.status[j] = AT_UB if sigma > 0 else AT_LB
            else:
                cand = np.flatnonzero(t_arr <= t_basic + 1e-12)
                if self.bland:
                    r = int(cand[np.argmin(self.basis[cand])])
                else:
                    r = int(cand[np.argmax(np.abs(delta[cand]))])
                leave = self.basis[r]
                self.x[j] = self.x[j] + sigma * t
                self.x[leave] = ub_b[r] if delta[r] > 0 else lb_b[r]
                self.status[leave] = AT_UB if delta[r] > 0 else AT_LB
                self.status[j] = BASIC
                self.basis[r] = j
                self._push_eta(r, w)

            if t <= 1e-10:
                self.degen_streak += 1
                if self.degen_streak > self.DEGEN_LIMIT:
                    self.bland = True
            else:
                self.degen_streak = 0
                self.bland = self.bland_base

    def _dual(self, d: np.ndarray) -> bool:
        """Bounded dual simplex from the dual feasible reduced costs d, until
        every basic variable is within its bounds; False when a row proves
        the LP infeasible."""
        while True:
            xb = self.x[self.basis]
            below = self.lb[self.basis] - xb
            above = xb - self.ub[self.basis]
            violation = np.maximum(below, above)
            if violation.max(initial=0.0) <= self.PRIMAL_TOL:
                return True
            r = int(np.argmax(violation))
            if self.iterations >= self.max_iter:
                raise self._trouble("iteration limit exceeded")
            self.iterations += 1

            # Row r of B^-1 [A | I]; s = +1 when x_p, the basic variable of
            # row r, must rise to its lower bound, -1 when it must fall to its
            # upper bound.
            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            alpha = self.std.a_ext_t @ self._btran(e_r)
            s = 1.0 if below[r] > 0 else -1.0
            a = s * alpha
            eligible = self._wrong_sign(a)
            if not eligible.any():
                return False
            ratio = np.full(self.nt, math.inf)
            ratio[eligible] = np.abs(d[eligible]) / np.abs(a[eligible])
            q = int(np.argmin(ratio))
            t = ratio[q]

            w = self._ftran(self._column(q))
            if abs(w[r] - alpha[q]) > 1e-7 * (1.0 + abs(alpha[q])):
                raise self._trouble("pivot row and column disagree")
            p = self.basis[r]
            target = self.lb[p] if s > 0 else self.ub[p]
            theta = (xb[r] - target) / w[r]
            self.x[self.basis] = xb - theta * w
            self.x[q] += theta
            self.x[p] = target
            self.status[p] = AT_LB if s > 0 else AT_UB
            self.status[q] = BASIC
            self.basis[r] = q
            d += t * a
            d[q] = 0.0
            self._push_eta(r, w)

    # -- driver ---------------------------------------------------------------

    def solve(self) -> LpResult:
        if not self._dual(self._dual_costs()):
            return LpResult(INFEASIBLE, None, math.nan, self.iterations,
                            "dual simplex: a basic variable cannot reach its bounds")
        if self._iterate(self.c) == UNBOUNDED:
            return LpResult(UNBOUNDED, None, -math.inf, self.iterations,
                            "objective unbounded below")
        self._verify()
        x_struct = self.x[: self.n].copy()
        return LpResult(OPTIMAL, x_struct, float(self.std.c @ x_struct), self.iterations,
                        basis=Basis(self.basis.copy(), self.status.copy()))

    def _verify(self) -> None:
        resid = self.A @ self.x - self.b
        if resid.size and np.max(np.abs(resid)) > FEASIBILITY_TOL * 10:
            raise self._trouble(f"row residual {np.max(np.abs(resid)):.3e} after solve")
        below = self.lb - self.x
        above = self.x - self.ub
        worst = max(below.max(initial=0.0), above.max(initial=0.0))
        if worst > FEASIBILITY_TOL * 10:
            raise self._trouble(f"bound violation {worst:.3e} after solve")
