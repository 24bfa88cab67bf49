"""Correctness checks applied to every closed-loop trace the benchmark produces.

Each check returns the indices of the trace steps that fail it, so a run can
count failed steps against the steps it attempted.
"""

from __future__ import annotations

import math

# Plant flows are sums of a few float terms, so exact identities hold to
# roundoff; a 1 Wh error is nine orders of magnitude above this.
FLOW_TOL_WH = 1e-6
# The solver's own feasibility audit allows 1e-6 on the battery state.
BOUND_TOL_WH = 1e-6


def plant_identity_failures(trace, e_min_wh: float, e_max_wh: float) -> list[int]:
    """Steps that break the plant's conservation identities or battery bounds.

    The trace carries e_pv and e_pv_used but not e_pv_unused, so
    e_pv == e_pv_used + e_pv_unused is checked as 0 <= e_pv_used <= e_pv
    (the unused share is never negative). The second identity is
    e_pv_used == min(e_pv, e_hl) + e_c.
    """
    bad = []
    for i, r in enumerate(trace.records):
        ok = (
            -FLOW_TOL_WH <= r.e_pv_used <= r.e_pv + FLOW_TOL_WH
            and abs(r.e_pv_used - (min(r.e_pv, r.e_hl) + r.e_c)) <= FLOW_TOL_WH
            and e_min_wh - BOUND_TOL_WH <= r.e_bat <= e_max_wh + BOUND_TOL_WH
            and e_min_wh - BOUND_TOL_WH <= r.e_bat_end <= e_max_wh + BOUND_TOL_WH
        )
        if not ok:
            bad.append(i)
    return bad


def solver_failures(trace, rel_gap_limit: float) -> list[int]:
    """Steps that fell back to the dead-band rule, or claim GapLimit with a
    final relative gap above the limit."""
    bad = []
    for i, r in enumerate(trace.records):
        if r.fallback or (r.solver_status == "GapLimit"
                          and not r.solver_rel_gap <= rel_gap_limit):
            bad.append(i)
    return bad


def decision_signature(trace) -> list[tuple]:
    """Per-step decisions and solver outcomes, excluding wall times: two runs
    of one workload on one seed must agree on every element."""
    return [
        (r.u_fr_req, r.u_fr_applied, r.u_s_req, r.u_s_applied, r.gamma,
         r.solver_status, r.solver_nodes, r.solver_objective, r.solver_bound,
         r.e_bat_end, r.t_fr_end)
        for r in trace.records
    ]


def mismatched_steps(reference: list[tuple], other: list[tuple]) -> list[int]:
    """Steps whose signatures differ (NaN equals NaN); a length mismatch makes
    every step beyond the shorter one a mismatch."""
    def same(a, b):
        return all(x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
                   for x, y in zip(a, b))

    bad = [i for i, (a, b) in enumerate(zip(reference, other)) if not same(a, b)]
    bad.extend(range(min(len(reference), len(other)), max(len(reference), len(other))))
    return bad


def round_trip_failures(written, read_back) -> list[int]:
    """Steps where a trace read back from CSV differs from the one written.

    Floats are written with 10 significant digits (solver_wall_s with 6), so
    they must agree to that relative precision; every other field must match
    exactly.
    """
    bad = []
    for i, (a, b) in enumerate(zip(written.records, read_back.records)):
        for name, x in vars(a).items():
            y = getattr(b, name)
            tol = 1e-5 if name == "solver_wall_s" else 1e-9
            if isinstance(x, float) and not math.isclose(x, y, rel_tol=tol, abs_tol=1e-9):
                if not (math.isnan(x) and math.isnan(y)):
                    bad.append(i)
                    break
            elif not isinstance(x, float) and x != y:
                bad.append(i)
                break
    bad.extend(range(min(len(written), len(read_back)), max(len(written), len(read_back))))
    return bad
