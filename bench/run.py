"""The greylp benchmark: one workload, one run, every metric by name.

    python3 bench/run.py --workload demo-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run writes the workload's inputs and
HiGHS references under ``.bench_work/``, times set-up in fresh interpreters,
then runs the workload in one more fresh interpreter (``worker.py``).  Every
time is reported in reference seconds: scaled by the host speed measured
around it (``speed.py``).  It prints each metric with its unit, then, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# One BLAS thread here and in every child: the benchmark is single-threaded.
_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(_ENV)

import inputs  # noqa: E402  (after the thread settings, since it imports numpy)
import speed  # noqa: E402
from tracer import LAYERS, SOLVE  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".bench_work"
SETUP_PROBES = 9
# Calibration run before each set-up probe.
SETUP_CAL_S = 0.05
TIME_LIMIT_S = 170.0
# Time the worker keeps in hand for its last pass, checks and output.
WORKER_MARGIN_S = 30.0


def _percentiles(values):
    """(p50, p90) by linear interpolation between order statistics."""
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def _git_commit(root: str) -> str:
    """The commit of the checkout, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _run_record(args, root):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
    }


def _child(argv, timeout):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        capture_output=True, text=True, env=env, timeout=timeout, check=False,
    )


def _setup_seconds(plan_path, deadline):
    """Median time, in reference seconds, from starting a fresh interpreter
    until greylp is imported and the workload's problem files are parsed
    once.  Each probe is scaled by the host speed measured just before and
    after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        meter = speed.Meter()
        meter.run(SETUP_CAL_S)
        start = time.perf_counter()
        proc = _child(["--probe", "--plan", plan_path], deadline - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed = float(proc.stdout.split()[-1]) - start
        meter.after(elapsed)
        samples.append(speed.reference_seconds(elapsed, meter.chunk_s))
    return statistics.median(samples)


def _scaled(p, key):
    """A pass's time, or list of times, in reference seconds."""
    value = p[key]
    if isinstance(value, list):
        return [speed.reference_seconds(v, p["chunk_s"]) for v in value]
    return speed.reference_seconds(value, p["chunk_s"])


def _end_to_end(plan, result, setup_s):
    untraced = [p for p in result["passes"] if not p["traced"]]
    settings = sum(op["settings"] for op in plan["ops"])
    walls = [_scaled(p, "wall_s") for p in untraced]
    p50s, p90s = zip(*(_percentiles(_scaled(p, "op_s")) for p in untraced))
    ok = (result["attempted"] - result["failed"]) / result["attempted"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "settings_per_s": (statistics.median(settings / w for w in walls), "1/s"),
        "op_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p90s) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": (ok, "ratio"),
    }


def _per_layer(plan, result):
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    first = traced[0]
    ops = len(plan["ops"])
    settings = sum(op["settings"] for op in plan["ops"])
    metrics = {}
    for key in LAYERS:
        metrics[f"{key}.calls"] = (first["calls"].get(key, 0), "count")
        metrics[f"{key}.self_s"] = (statistics.median(
            speed.reference_seconds(p["self_s"].get(key, 0.0), p["chunk_s"]) for p in traced),
            "s")
    metrics[f"{SOLVE}.nonoptimal"] = (first["nonoptimal"], "count")
    metrics[f"{SOLVE}.per_setting"] = (first["calls"].get(SOLVE, 0) / settings, "ratio")
    metrics["grey_core.validate_problem.per_op"] = (
        first["calls"].get("grey_core.validate_problem", 0) / ops, "ratio")
    metrics["satisfaction.bounds.per_op"] = (
        first["calls"].get("satisfaction.bounds", 0) / ops, "ratio")
    # Passes alternate untraced, traced; pairing neighbours keeps the host's
    # slow drifts in speed out of the difference.
    metrics["trace.overhead_s"] = (statistics.median(
        _scaled(t, "wall_s") - _scaled(u, "wall_s") for u, t in zip(untraced, traced)), "s")
    metrics["trace.count_mismatches"] = (len(result["count_mismatches"]), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one greylp benchmark workload.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "greylp", "__init__.py")):
        print("error: run from the root of a greylp checkout (no src/greylp here)",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(WORKDIR, tag)
    plan = inputs.build_plan(args.workload, args.seed, workdir,
                             cache_dir=os.path.join(WORKDIR, "refcache"))
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    setup_s = _setup_seconds(plan_path, deadline)
    out_path = os.path.join(workdir, f"worker-trace{args.trace}.json")
    spans_path = os.path.join(workdir, "spans.csv.gz")
    budget = deadline - time.perf_counter()
    wanted = inputs.pass_count(args.workload, args.seconds, args.trace)
    proc = _child(
        ["--plan", plan_path, "--passes", str(wanted),
         "--budget", repr(budget - WORKER_MARGIN_S), "--trace", str(args.trace),
         "--out", out_path, "--spans", spans_path],
        budget,
    )
    if proc.returncode != 0:
        print(f"error: worker failed:\n{proc.stderr}", file=sys.stderr)
        return 1
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if len(result["passes"]) < wanted:
        print(f"warning: the time limit cut the run to {len(result['passes'])} of {wanted} "
              "passes, so attempted and failed are smaller than usual", file=sys.stderr)
    correct = result["unit_failed"] == 0
    if args.trace:
        metrics = _per_layer(plan, result)
        correct = correct and result["orphans"] == 0
        for op_id, (kind, want, got) in result["count_mismatches"].items():
            print(f"TRACE COUNT MISMATCH op {op_id} ({kind}): expected {want}, got {got}",
                  file=sys.stderr)
    else:
        metrics = _end_to_end(plan, result, setup_s)
    for op_id, reason in result["failures"].items():
        scaled = " (badly scaled problem)" if plan["ops"][int(op_id)]["scaled"] else ""
        print(f"FAILED op {op_id}{scaled}: {reason}", file=sys.stderr)

    record = _run_record(args, root)
    record.update(passes=len(result["passes"]), ops_per_pass=len(plan["ops"]),
                  settings_per_pass=sum(op["settings"] for op in plan["ops"]),
                  measured_wall_s=statistics.median(p["wall_s"] for p in result["passes"]),
                  chunk_s=statistics.median(p["chunk_s"] for p in result["passes"]),
                  ref_chunk_s=speed.REF_CHUNK_S)
    if args.trace:
        record.update(spans=result["spans"], orphans=result["orphans"], spans_file=spans_path)
    print("run: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(workdir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"run": record, **summary, "failures": result["failures"]}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
