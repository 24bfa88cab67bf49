"""Compare benchmark result files of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by run.py with --trace 0 (by
default under perfbench/out/results), from runs of the same workloads, seeds
and --seconds on both commits, made in alternating order. One row is printed
per workload and end-to-end metric of BENCHMARK.json, with each side's median
and quartiles, the pairs the change won (pairs match by seed; ties count for
neither side) and a verdict:

  improved    the change won at least 9/10 of the pairs and the medians differ
              by more than the distance between the parent's quartiles
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  a side's quartile spread is wider than the bound, and not every
              change run is better than every parent run
  unchanged   otherwise

The outcome metrics (stall_pct, the resiliency metrics, ...) follow, marked
same or differs: under node budgets they repeat exactly on a given seed. The
exit code is 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """workload -> metric -> {seed: value}, from untraced result files."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text())
        if res.get("trace") != 0:
            continue
        for group in ("metrics", "outcomes"):
            for name, m in res.get(group, {}).items():
                out[res["workload"]][name][res["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(values: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(values))


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    gain = sign * (c_med - p_med)
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > p_q3 - p_q1:
        return "improved", wins, len(seeds)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = all(sign * (c - p) > 0 for c in change.values() for p in parent.values())
    if spread > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if -gain > bound * abs(p_med):
        return "regressed", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    header = (f"{'workload':12s} {'metric':28s} {'parent q1/median/q3':>30s} "
              f"{'change q1/median/q3':>30s} {'won':>6s}  verdict")
    print(header)
    print("-" * len(header))
    worst = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in parent or wl not in change:
            print(f"{wl:12s} (no result files on at least one side)")
            continue
        for name, m in e2e.items():
            p, c = parent[wl].get(name), change[wl].get(name)
            if not p or not c:
                print(f"{wl:12s} {name:28s} missing")
                continue
            v, wins, pairs = verdict(p, c, m["better"], m["bound"])
            worst = max(worst, v in ("regressed", "unresolved"))
            print(f"{wl:12s} {name:28s} {fmt(list(p.values())):>30s} "
                  f"{fmt(list(c.values())):>30s} {wins:>3d}/{pairs:<2d}  {v}")
        for name in sorted(set(parent[wl]) | set(change[wl])):
            if name in e2e:
                continue
            p, c = parent[wl].get(name, {}), change[wl].get(name, {})
            seeds = sorted(p.keys() & c.keys())
            same = bool(seeds) and all(p[s] == c[s] for s in seeds)
            print(f"{wl:12s} {name:28s} {'':>30s} {'':>30s} {len(seeds):>6d}  "
                  f"{'same' if same else 'differs'}")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
