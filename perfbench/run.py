"""Closed-loop benchmark of offgrid.

Run from the root of a checkout:

    python3 perfbench/run.py --workload storm-n36 --seed 1 --seconds 20 --trace 0

It imports offgrid from the checkout's `src`, builds the workload's inputs
from the seed, repeats the workload's episode until --seconds of closed-loop
time are measured, checks every trace, writes a result file under
perfbench/out/results and prints, as its last line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of one traced episode
(--trace 1). See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("storm-n36", "clear-n144", "ladder-csv")
# setup_s is the median of this many set-ups: this process and fresh ones.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60
# Each step's decision time is averaged over at least this many repetitions.
MIN_EPISODES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="closed-loop time to measure; whole episodes, at least three")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run one traced episode and report per-layer metrics")
    p.add_argument("--episode-steps", type=int, default=None,
                   help="shorten the episode to this many plant steps (smoke tests)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print the set-up time and exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src first on sys.path; refuse any other offgrid."""
    if not (SRC / "offgrid" / "__init__.py").is_file():
        sys.exit(f"error: no offgrid package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import offgrid

    if Path(offgrid.__file__).resolve().parent != (SRC / "offgrid").resolve():
        sys.exit(f"error: imported offgrid from {offgrid.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def tail(samples: list[float]):
    """(percentile, value, n) for the highest percentile that still has ten
    samples beyond it, i.e. the 11th-largest sample; None when n < 11."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11], n


def probe_setup(args) -> float:
    """Set-up time of a fresh process on the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.episode_steps:
        cmd += ["--episode-steps", str(args.episode_steps)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import layers
    import workloads
    from tracing import Tracer

    work_dir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.episode_steps, work_dir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            with tracer.patched(layers.TARGETS):
                wl.prepare(args.seed)
        else:
            wl.prepare(args.seed)
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        episodes = []
        while len(episodes) < MIN_EPISODES or sum(e.wall_s for e in episodes) < args.seconds:
            episodes.append(wl.run_episode(index=len(episodes)))
        traced = None
        if tracer is not None:
            with tracer.patched(layers.TARGETS):
                traced = wl.run_episode(tracer, index=len(episodes))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = episodes + ([traced] if traced else [])
    attempted = sum(e.steps for e in runs)
    failed = sum(len(e.failed) for e in runs)
    steps = sum(e.steps for e in episodes)
    steps_per_s = steps / sum(e.wall_s for e in episodes)
    decide_s = [d for e in episodes for d in e.decide_s]
    # Episodes repeat identical work some seconds apart. The median step
    # takes each step's mean over the repetitions, so that it follows the
    # run's average machine speed instead of snapping to a fast or slow
    # phase of a shared host.
    step_mean_s = [statistics.fmean(reps) for reps in zip(*(e.decide_s for e in episodes))]
    outcomes = episodes[0].outcomes
    tail_info = tail(decide_s)
    env = environment()

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "episode_steps": args.episode_steps,
        "episodes": len(episodes), "steps": steps, "environment": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
    }
    print(f"workload {args.workload}  seed {args.seed}  episodes {len(episodes)}"
          f"  steps {steps}  attempted {attempted}  failed {failed}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    if tracer is None:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "steps_per_s": (steps_per_s, "steps/s"),
            "solve_p50_ms": (1e3 * statistics.median(step_mean_s), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        outcome_values = {
            "failed_pct": (100.0 * failed / attempted, "%"),
            "stall_pct": (outcomes.get("stall_pct"), "%"),
            "mean_rel_gap": (outcomes.get("mean_rel_gap"), "-"),
            "temp_violation_h_per_day": (outcomes["temp_violation_h_per_day"], "h/day"),
            "secondary_unserved_pct": (outcomes["secondary_unserved_pct"], "%"),
            "primary_unserved_h_per_day": (outcomes["primary_unserved_h_per_day"], "h/day"),
        }
        for name, (value, unit) in {**metrics, **outcome_values}.items():
            if value is not None:
                print(f"{name:28s} {value:.6g} {unit}")
        print(f"solve_p50_ms is the median over {len(step_mean_s)} steps of each step's"
              f" mean over {len(episodes)} repetitions (n={len(decide_s)} decisions)")
        if tail_info is None:
            print("solve_tail_ms omitted: fewer than 11 decisions")
        else:
            pct, value, n = tail_info
            print(f"solve_tail_ms                {1e3 * value:.6g} ms (p{pct:.4g} of n={n})")
            result["solve_tail"] = {"value_ms": 1e3 * value, "percentile": pct, "n": n}
        result["outcomes"] = {k: {"value": v, "unit": u}
                              for k, (v, u) in outcome_values.items() if v is not None}
        result["per_size"] = episodes[0].per_size
        result["setup_samples_s"] = setups
    else:
        traced_sps = traced.steps / traced.wall_s
        values = layers.layer_metrics(tracer, steps_per_s, traced_sps)
        metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value:.6g} {unit}")
        plan_s, parts = layers.plan_accounting(tracer)
        if plan_s:
            print(f"self times of mpc + milp.bb + milp.simplex + milp.model: {parts:.6g} s"
                  f" of mpc.plan_s {plan_s:.6g} s")
        print(f"tracing overhead: {values['trace.overhead_pct']:.3g} % of untraced steps/s")
        spans = OUT / "spans" / f"{args.workload}_s{args.seed}_{os.getpid()}.csv"
        tracer.write_csv(spans)
        print(f"{len(tracer.names)} spans written to {spans.relative_to(BENCH_DIR.parent)}")

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{args.workload}_s{args.seed}_t{args.trace}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
