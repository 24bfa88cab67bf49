"""Model container for mixed-integer linear programs.

Variables carry bounds and an optional binary marker; constraints are sparse
rows with a relation and right-hand side; the objective is always
minimization. `standard_form()` builds and caches the solver's view: the
constraint matrix in compressed sparse column form, with its transpose for
pricing; treat a model as immutable once handed to a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

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
    """Arrays of the model: the constraint matrix A as CSC (`a_csc`) and its
    transpose as CSR (`a_t`). Each row gets one slack whose bounds encode the
    relation; slack and artificial columns are identity columns, so the
    solver keeps them implicit."""

    c: np.ndarray
    a_csc: csc_matrix
    a_t: csr_matrix
    relations: list[str]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray
    names: list[str]
    slack_lb: np.ndarray
    slack_ub: np.ndarray

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m(self) -> int:
        return len(self.b)


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

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    def variable_names(self) -> list[str]:
        return list(self._names)

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(np.array(self._binary, dtype=bool))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb, dtype=float), np.array(self._ub, dtype=float)

    def standard_form(self) -> StandardForm:
        if self._std is not None:
            return self._std
        n, m = len(self._names), len(self._rows)
        c = np.zeros(n)
        for j, v in self._obj.items():
            c[j] = v
        b = np.zeros(m)
        relations: list[str] = []
        slack_lb = np.zeros(m)
        slack_ub = np.zeros(m)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, (coeffs, rel, rhs, _nm) in enumerate(self._rows):
            rows.extend([i] * len(coeffs))
            cols.extend(coeffs)
            vals.extend(coeffs.values())
            b[i] = rhs
            relations.append(rel)
            if rel == LE:
                slack_lb[i], slack_ub[i] = 0.0, math.inf
            elif rel == GE:
                slack_lb[i], slack_ub[i] = -math.inf, 0.0
            else:
                slack_lb[i], slack_ub[i] = 0.0, 0.0
        # Row dicts hold no duplicate or zero entries, so the CSC has exactly
        # the model's nonzeros, with sorted row indices in each column.
        a_csc = csc_matrix((np.array(vals, dtype=float),
                            (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
                           shape=(m, n))
        self._std = StandardForm(
            c=c, a_csc=a_csc, a_t=a_csc.T,
            relations=relations, b=b,
            lb=np.array(self._lb), ub=np.array(self._ub),
            is_binary=np.array(self._binary, dtype=bool),
            names=list(self._names),
            slack_lb=slack_lb, slack_ub=slack_ub,
        )
        return self._std

    # -- diagnostics --------------------------------------------------------

    def to_lp_text(self) -> str:
        """Plain-text LP-style listing for offline cross-checking."""
        lines = [f"\\ model {self.name}", "minimize:"]
        terms = [f"{v:+g} {self._names[j]}" for j, v in sorted(self._obj.items())]
        lines.append("  " + (" ".join(terms) if terms else "0"))
        lines.append("subject to:")
        for coeffs, rel, rhs, nm in self._rows:
            row = " ".join(f"{v:+g} {self._names[j]}" for j, v in sorted(coeffs.items()))
            lines.append(f"  {nm}: {row or '0'} {rel} {rhs:g}")
        lines.append("bounds:")
        for j, nm in enumerate(self._names):
            lines.append(f"  {self._lb[j]:g} <= {nm} <= {self._ub[j]:g}")
        binaries = [self._names[j] for j in range(len(self._names)) if self._binary[j]]
        if binaries:
            lines.append("binary:")
            lines.append("  " + " ".join(binaries))
        lines.append("end")
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_lp_text())
        return path


def check_solution(model: MilpModel, values: np.ndarray, tol: float = 1e-7,
                   integrality_tol: float = 1e-6) -> list[Violation]:
    """Audit a full assignment against bounds, rows and integrality.

    Independent of the solver: recomputes every row product from the model
    data. An empty report means the point is feasible within the tolerances.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (model.n_variables,):
        raise MilpError(
            f"assignment covers {values.shape} values, model has {model.n_variables}"
        )
    std = model.standard_form()
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
            out.append(Violation("row", model._rows[i][3], int(i), float(row_excess[i])))
    bins = model.binary_indices()
    frac = np.abs(values[bins] - np.round(values[bins]))
    for k in np.flatnonzero(frac > integrality_tol):
        out.append(Violation("integrality", std.names[bins[k]], int(bins[k]), float(frac[k])))
    return out
