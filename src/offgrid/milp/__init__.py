"""Self-contained mixed-integer linear programming engine.

The engine reads one model type, `StandardForm`, in three layers: an
independent feasibility auditor (`check_solution`), a bounded-variable
revised simplex for LP relaxations (`solve_lp`), and a best-bound
branch-and-bound driver over the binary variables (`solve_milp`).
`MilpModel` builds hand-written models; each layer also accepts one.
"""

from .model import (  # noqa: F401
    LE,
    EQ,
    GE,
    MilpModel,
    StandardForm,
    Violation,
    check_solution,
    dump_lp,
    to_lp_text,
)
from .simplex import LpResult, solve_lp  # noqa: F401
from .branch_bound import MilpSolution, SolverOptions, solve_milp  # noqa: F401
