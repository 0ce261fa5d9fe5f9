"""One workload in a fresh interpreter: set-up, timed passes, output checks.

    python3 bench/worker.py --plan PLAN --passes N --budget S --trace 0|1 --out RESULT
    python3 bench/worker.py --probe --plan PLAN

Run from the root of a checkout; the program is imported from its ``src``.
``--probe`` only imports greylp, parses the workload's problem files once and
prints the clock, which ``run.py`` turns into a set-up time; it imports
nothing of the benchmark, so that set-up time is greylp's alone.  Otherwise
the worker runs ``--passes`` timed passes over the plan's ops, so that a run
attempts the same ops every time; it stops early only if ``--budget``
seconds have gone by, to stay inside the run's time limit.  After each op it runs host-speed calibration chunks
(``speed.py``), outside the op's time.  The run reports medians over
passes, which a slow first pass does not move.  With ``--trace 1`` the
passes alternate between untraced and traced.  Each op's output is checked
after its pass, outside the timed region.  The raw timings and each pass's
mean calibration chunk time go to ``--out`` as JSON.
"""

import argparse
import contextlib
import gzip
import io
import json
import os
import sys
import time


def _import_greylp(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import greylp.cli  # noqa: F401  (the program under test)

    where = os.path.realpath(greylp.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"greylp was imported from {where}, not from {src}")
    return greylp


def _load_problems(greylp, files):
    problems = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            problems[path] = greylp.cli.parse_problem(fh.read()).problem
    return problems


def _probe(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    _load_problems(_import_greylp(os.getcwd()), files)
    print(repr(time.perf_counter()))


class _Runner:
    def __init__(self, greylp, plan, problems):
        self.greylp = greylp
        self.ops = plan["ops"]
        self.coeffs = {}
        for op in self.ops:
            if op["kind"] == "positioned_value":
                self.coeffs[op["id"]] = (
                    problems[op["file"]],
                    greylp.PositionCoefficients(**op["coeffs"]),
                )

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.greylp.cli.run(argv)
            except Exception as exc:  # the op failed; the benchmark goes on
                return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()

    def _library(self, op_id):
        problem, coeffs = self.coeffs[op_id]
        try:
            return self.greylp.satisfaction.positioned_value(problem, coeffs), None
        except Exception as exc:  # the op failed; the benchmark goes on
            return None, f"{type(exc).__name__}: {exc}"

    def run_pass(self, tracer=None, meter=None):
        """Run every op once; returns (wall seconds, per-op seconds, results).
        The wall time is the sum of the op times: it leaves out the
        calibration ``meter`` runs after each op."""
        clock = time.perf_counter
        times, results = [], []
        for op in self.ops:
            if tracer is not None:
                tracer.begin_op(op["id"])
            t0 = clock()
            if op["argv"] is None:
                result = self._library(op["id"])
            else:
                result = self._cli(op["argv"])
            times.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
            if meter is not None:
                meter.after(times[-1])
            results.append(result)
        return sum(times), times, results


def _completed(op, result):
    return result[0] is not None if op["argv"] is None else result[0] == 0


def _work(args):
    import checks
    import speed
    import tracer as tracing

    root = os.getcwd()
    greylp = _import_greylp(root)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    problems = _load_problems(greylp, plan["files"])
    runner = _Runner(greylp, plan, problems)
    tracer = tracing.Tracer() if args.trace else None
    failures: dict[int, str] = {}
    attempted = failed = 0

    def check_pass(results):
        nonlocal attempted, failed
        for op, result in zip(runner.ops, results):
            reason = checks.check(op, result)
            attempted += 1
            if reason is not None:
                failed += 1
                failures.setdefault(op["id"], reason)

    passes = []
    mismatches: dict[str, list] = {}
    spans = None
    deadline = time.perf_counter() + args.budget
    min_passes = 4 if args.trace else 3
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        record = {"traced": traced}
        meter = speed.Meter()
        if traced:
            tracer.reset()
            tracer.keep_spans = spans is None
            tracer.install()
            try:
                wall, times, results = runner.run_pass(tracer, meter)
            finally:
                tracer.uninstall()
            record.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                          nonoptimal=tracer.nonoptimal)
            if spans is None:
                spans, tracer.spans = tracer.spans, []
            for op, result in zip(runner.ops, results):
                if not _completed(op, result):
                    continue
                got = {k: v for k, v in tracer.op_calls[op["id"]].items() if v}
                if got != op["expect"]:
                    mismatches.setdefault(str(op["id"]), [op["kind"], op["expect"], got])
        else:
            wall, times, results = runner.run_pass(meter=meter)
        record.update(wall_s=wall, op_s=times, chunk_s=meter.chunk_s)
        passes.append(record)
        check_pass(results)
        done = len(passes) >= args.passes
        late = time.perf_counter() >= deadline and len(passes) >= min_passes
        if (done or late) and (not args.trace or len(passes) % 2 == 0):
            break

    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "unit_failed": sum(not runner.ops[i]["scaled"] for i in failures),
        "failures": {str(i): r for i, r in sorted(failures.items())},
        "peak_rss_mb": _peak_rss_mb(),
    }
    if args.trace:
        out["count_mismatches"] = mismatches
        out["orphans"] = tracing.orphans(spans)
        out["spans"] = len(spans)
        _write_spans(args.spans, spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def _peak_rss_mb():
    """High-water RSS of this process's own address space.  getrusage's
    ru_maxrss would also count the parent's RSS at the moment it forked this
    process, which depends on what the parent had loaded."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write_spans(path, spans):
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,name,start,end,parent,op\n")
        for span_id, key, start, end, parent, op in spans:
            fh.write(f"{span_id},{key},{start!r},{end!r},{'' if parent is None else parent},{op}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--passes", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.probe:
        _probe(args.plan)
    else:
        _work(args)


if __name__ == "__main__":
    main()
