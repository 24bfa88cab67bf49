"""Model types for mixed-integer linear programs (always minimization).

The solver stack reads one type, `StandardForm`: arrays for the objective,
a sparse constraint matrix A (and, built once on first use, the [A | I] the
simplex runs on), bounds and binary markers, plus names. The
controller builds its horizon MILP straight into one. `MilpModel` is the
builder for hand-written models (variables with bounds, sparse rows with a
relation and right-hand side); the solver functions take its cached
`standard_form()`. Treat either as immutable once handed to a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, hstack, identity

from ..errors import MilpError

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class Violation:
    """One audited defect of a candidate solution."""

    kind: str       # "bound" | "row" | "integrality"
    name: str
    index: int
    amount: float

    def __str__(self) -> str:
        return f"{self.kind} violation at {self.name}: {self.amount:.3e}"


@dataclass
class StandardForm:
    """Arrays of a model: the constraint matrix A as CSC (`a_csc`), with no
    stored zeros. Each row gets one slack whose bounds encode the relation;
    the solver works on `a_ext`, the explicit [A | I] with one identity
    column per slack."""

    name: str
    c: np.ndarray
    a_csc: csc_matrix
    relations: list[str]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray
    names: list[str]
    row_names: list[str]

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.b)

    @cached_property
    def a_ext(self) -> csc_matrix:
        return hstack([self.a_csc, identity(self.m, format="csc")], format="csc")

    @cached_property
    def a_ext_t(self) -> csr_matrix:  # for pricing; .T is not free, so it is kept
        return self.a_ext.T

    @cached_property
    def slack_lb(self) -> np.ndarray:
        return np.where(np.asarray(self.relations, dtype=str) == GE, -math.inf, 0.0)

    @cached_property
    def slack_ub(self) -> np.ndarray:
        return np.where(np.asarray(self.relations, dtype=str) == LE, math.inf, 0.0)


class MilpModel:
    """Minimization MILP with bounded continuous and binary variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._binary: list[bool] = []
        self._obj: dict[int, float] = {}
        self._rows: list[tuple[dict[int, float], str, float, str]] = []
        self._std: StandardForm | None = None

    # -- construction -------------------------------------------------------

    def add_variable(self, name: str | None = None, lb: float = 0.0,
                     ub: float = math.inf, binary: bool = False) -> int:
        idx = len(self._names)
        if name is None:
            name = f"x{idx}"
        if binary:
            if lb < 0 or ub > 1:
                raise MilpError(f"binary variable {name} must have bounds within [0,1]")
        if math.isnan(lb) or math.isnan(ub):
            raise MilpError(f"variable {name} has NaN bounds")
        if lb > ub:
            raise MilpError(f"variable {name} has lb {lb} > ub {ub}")
        self._names.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._binary.append(bool(binary))
        self._std = None
        return idx

    def add_constraint(self, coeffs: dict[int, float], relation: str, rhs: float,
                       name: str | None = None) -> int:
        if relation not in _RELATIONS:
            raise MilpError(f"unknown relation {relation!r}")
        if not math.isfinite(rhs):
            raise MilpError("constraint rhs must be finite")
        clean: dict[int, float] = {}
        for j, v in coeffs.items():
            if not 0 <= j < len(self._names):
                raise MilpError(f"constraint references unknown variable index {j}")
            if not math.isfinite(v):
                raise MilpError("constraint coefficients must be finite")
            if v != 0.0:
                clean[int(j)] = float(v)
        if name is None:
            name = f"r{len(self._rows)}"
        self._rows.append((clean, relation, float(rhs), name))
        self._std = None
        return len(self._rows) - 1

    def set_objective_coeff(self, var: int, coeff: float) -> None:
        if not math.isfinite(coeff):
            raise MilpError("objective coefficients must be finite")
        if coeff == 0.0:
            self._obj.pop(var, None)
        else:
            self._obj[var] = float(coeff)
        self._std = None

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self._obj = {}
        for j, v in coeffs.items():
            self.set_objective_coeff(j, v)

    # -- introspection ------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self._names)

    def standard_form(self) -> StandardForm:
        if self._std is not None:
            return self._std
        n, m = len(self._names), len(self._rows)
        c = np.zeros(n)
        for j, v in self._obj.items():
            c[j] = v
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, (coeffs, *_) in enumerate(self._rows):
            rows.extend([i] * len(coeffs))
            cols.extend(coeffs)
            vals.extend(coeffs.values())
        # Row dicts hold no duplicate or zero entries, so the CSC has exactly
        # the model's nonzeros, with sorted row indices in each column.
        a_csc = csc_matrix((np.array(vals, dtype=float),
                            (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
                           shape=(m, n))
        self._std = StandardForm(
            name=self.name, c=c, a_csc=a_csc,
            relations=[row[1] for row in self._rows],
            b=np.array([row[2] for row in self._rows], dtype=float),
            lb=np.array(self._lb, dtype=float), ub=np.array(self._ub, dtype=float),
            is_binary=np.array(self._binary, dtype=bool),
            names=list(self._names),
            row_names=[row[3] for row in self._rows],
        )
        return self._std

    # -- diagnostics --------------------------------------------------------

    def to_lp_text(self) -> str:
        return to_lp_text(self.standard_form())

    def dump(self, path: str | Path) -> Path:
        return dump_lp(self.standard_form(), path)


def as_standard_form(model: MilpModel | StandardForm) -> StandardForm:
    """The form the solver functions read."""
    return model.standard_form() if isinstance(model, MilpModel) else model


def to_lp_text(std: StandardForm) -> str:
    """Plain-text LP-style listing for offline cross-checking."""
    names = std.names
    lines = [f"\\ model {std.name}", "minimize:"]
    terms = [f"{std.c[j]:+g} {names[j]}" for j in np.flatnonzero(std.c)]
    lines.append("  " + (" ".join(terms) if terms else "0"))
    lines.append("subject to:")
    a = std.a_csc.tocsr()
    for i, (nm, rel, rhs) in enumerate(zip(std.row_names, std.relations, std.b)):
        span = slice(a.indptr[i], a.indptr[i + 1])
        row = " ".join(f"{v:+g} {names[j]}" for j, v in zip(a.indices[span], a.data[span]))
        lines.append(f"  {nm}: {row or '0'} {rel} {rhs:g}")
    lines.append("bounds:")
    for nm, lo, hi in zip(names, std.lb, std.ub):
        lines.append(f"  {lo:g} <= {nm} <= {hi:g}")
    if std.is_binary.any():
        lines.append("binary:")
        lines.append("  " + " ".join(names[j] for j in np.flatnonzero(std.is_binary)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def dump_lp(std: StandardForm, path: str | Path) -> Path:
    """Write `to_lp_text(std)` to `path`, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_lp_text(std))
    return path


def check_solution(model: MilpModel | StandardForm, values: np.ndarray, tol: float = 1e-7,
                   integrality_tol: float = 1e-6) -> list[Violation]:
    """Audit a full assignment against bounds, rows and integrality.

    Independent of the solver: recomputes every row product from the model
    data. An empty report means the point is feasible within the tolerances.
    """
    std = as_standard_form(model)
    values = np.asarray(values, dtype=float)
    if values.shape != (std.n,):
        raise MilpError(f"assignment covers {values.shape} values, model has {std.n}")
    out: list[Violation] = []
    bound_excess = np.maximum(std.lb - values, values - std.ub)
    # NaN excess (a NaN or infinite value) is never within bounds
    for j in np.flatnonzero(~(bound_excess <= tol)):
        out.append(Violation("bound", std.names[j], int(j), float(bound_excess[j])))
    if std.m:
        resid = std.a_csc @ values - std.b
        rel = np.asarray(std.relations)
        row_excess = np.where(rel == LE, resid, np.where(rel == GE, -resid, np.abs(resid)))
        for i in np.flatnonzero(row_excess > tol):
            out.append(Violation("row", std.row_names[i], int(i), float(row_excess[i])))
    bins = np.flatnonzero(std.is_binary)
    frac = np.abs(values[bins] - np.round(values[bins]))
    for k in np.flatnonzero(frac > integrality_tol):
        out.append(Violation("integrality", std.names[bins[k]], int(bins[k]), float(frac[k])))
    return out
