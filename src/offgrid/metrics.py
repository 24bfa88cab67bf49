"""Resiliency metrics aggregated from a closed-loop trace.

Temperature violation counts every step whose end-of-step fridge temperature
sits outside the band by more than `tol` (default 0.05 degC, so the
controller's minor soft-slack excursions are counted rather than ignored).
Secondary service is measured against the occupants' schedule; primary
service against the controller's own compressor requests (shedding records).
So `primary_unserved_hours_per_day` counts only fridge requests the plant
shed for lack of energy: a fridge that the optimizing controller itself
leaves off is not counted, however warm it gets. That cost shows up in the
temperature-violation metric instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import DataError
from .plant import SimulationTrace

DEFAULT_VIOLATION_TOL_C = 0.05


@dataclass
class ResiliencyMetrics:
    """Table-style aggregates plus per-day breakdowns."""

    days: float
    temp_violation_hours_per_day: float
    secondary_unserved_pct: float
    primary_unserved_hours_per_day: float
    temp_violation_hours_by_day: list[float] = field(default_factory=list)
    primary_unserved_hours_by_day: list[float] = field(default_factory=list)
    secondary_scheduled_steps_by_day: list[int] = field(default_factory=list)
    secondary_unserved_steps_by_day: list[int] = field(default_factory=list)
    solver_stalls: int = 0
    fallback_steps: int = 0

    def __post_init__(self):
        if not 0 <= self.secondary_unserved_pct <= 100:
            raise DataError("secondary_unserved_pct must lie in [0, 100]")
        if not 0 <= self.temp_violation_hours_per_day <= 24 + 1e-9:
            raise DataError("violation hours/day must lie in [0, 24]")
        if not 0 <= self.primary_unserved_hours_per_day <= 24 + 1e-9:
            raise DataError("primary unserved hours/day must lie in [0, 24]")


def compute_metrics(
    trace: SimulationTrace,
    band: tuple[float, float],
    tol: float = DEFAULT_VIOLATION_TOL_C,
) -> ResiliencyMetrics:
    if len(trace) == 0:
        raise DataError("cannot compute metrics of an empty trace")
    if not (math.isfinite(tol) and tol >= 0):
        raise DataError(f"violation tolerance must be finite and >= 0, got {tol}")
    t_min, t_max = band
    if t_min >= t_max:
        raise DataError("band must satisfy t_min < t_max")
    step_h = trace.step_hours
    steps_per_day = max(1, int(round(24.0 / step_h)))
    days = len(trace) * step_h / 24.0

    n_days = math.ceil(len(trace) / steps_per_day)
    viol_by_day = [0.0] * n_days
    prim_by_day = [0.0] * n_days
    sched_by_day = [0] * n_days
    unsrv_by_day = [0] * n_days
    stalls = 0
    fallbacks = 0
    for i, rec in enumerate(trace.records):
        day = i // steps_per_day
        if rec.t_fr_end > t_max + tol or rec.t_fr_end < t_min - tol:
            viol_by_day[day] += step_h
        if rec.u_fr_req == 1 and rec.u_fr_applied == 0:
            prim_by_day[day] += step_h
        if rec.e_s_scheduled > 0:
            sched_by_day[day] += 1
            if rec.u_s_applied == 0:
                unsrv_by_day[day] += 1
        if rec.solver_status == "TimeLimit":
            stalls += 1
        if rec.fallback:
            fallbacks += 1

    total_sched = sum(sched_by_day)
    total_unsrv = sum(unsrv_by_day)
    return ResiliencyMetrics(
        days=days,
        temp_violation_hours_per_day=sum(viol_by_day) / days,
        secondary_unserved_pct=(100.0 * total_unsrv / total_sched) if total_sched else 0.0,
        primary_unserved_hours_per_day=sum(prim_by_day) / days,
        temp_violation_hours_by_day=viol_by_day,
        primary_unserved_hours_by_day=prim_by_day,
        secondary_scheduled_steps_by_day=sched_by_day,
        secondary_unserved_steps_by_day=unsrv_by_day,
        solver_stalls=stalls,
        fallback_steps=fallbacks,
    )


def save_metrics(metrics: ResiliencyMetrics, path: str | Path, header: str = "") -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = ""
    if header:
        text += "".join(f"# {line}\n" for line in header.splitlines())
    text += yaml.safe_dump(asdict(metrics), sort_keys=False)
    path.write_text(text)


def load_metrics(path: str | Path) -> ResiliencyMetrics:
    """Re-read a file written by save_metrics; DataError names the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"metrics file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise DataError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: top level must be a mapping")
    try:
        return ResiliencyMetrics(**data)
    except (TypeError, DataError) as exc:  # unknown or missing fields, bad values
        raise DataError(f"{path}: {exc}") from exc
