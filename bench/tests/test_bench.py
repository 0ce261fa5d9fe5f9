"""Tests of the benchmark itself: inputs, output checks and tracing.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import os

import numpy as np
import pytest

import checks
import greylp
import inputs
import speed
import tracer as tracing
import worker


def _files(plan):
    out = {}
    for path in plan["files"]:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["synth-grid", "synth-scatter"])
def test_same_seed_gives_same_bytes(tmp_path, workload):
    a = inputs.build_plan(workload, 7, str(tmp_path / "a"))
    b = inputs.build_plan(workload, 7, str(tmp_path / "b"))
    c = inputs.build_plan(workload, 8, str(tmp_path / "c"))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    strip = lambda plan: [{k: v for k, v in op.items() if k not in ("argv", "file")}
                          for op in plan["ops"]]
    assert strip(a) == strip(b)


def test_scaled_slice_and_pass_count_do_not_depend_on_the_seed(tmp_path):
    def scaled(seed):
        plan = inputs.build_plan("synth-scatter", seed, str(tmp_path / str(seed)))
        files = _files({"files": sorted({op["file"] for op in plan["ops"]
                                         if op["scaled"] and op["kind"] == "positioned_value"})})
        ops = [{k: v for k, v in op.items() if k not in ("argv", "file")}
               for op in plan["ops"] if op["scaled"]]
        return files, ops

    assert scaled(7) == scaled(8)
    assert inputs.pass_count("demo-grid", 1, 0) == 3
    assert inputs.pass_count("demo-grid", 1, 1) == 4
    assert inputs.pass_count("synth-grid", 25, 1) % 2 == 0


@pytest.fixture(scope="module")
def scatter_plan(tmp_path_factory):
    return inputs.build_plan("synth-scatter", 3, str(tmp_path_factory.mktemp("scatter")))


def test_every_problem_is_valid_and_unit_scale_ones_solve(scatter_plan):
    scaled = {op["file"] for op in scatter_plan["ops"]
              if op["scaled"] and op["kind"] == "positioned_value"}
    assert len(scaled) == (len(inputs.SCALE_KINDS) * len(set(inputs.SCATTER_SIZES))
                           * inputs.SCALED_PER_KIND_AND_SIZE)
    for path in scatter_plan["files"]:
        with open(path, encoding="utf-8") as fh:
            p = greylp.parse_problem(fh.read()).problem
        assert greylp.validate_problem(p) == []
        if path in scaled:
            continue
        for triple in ((0, 0, 1), (1, 1, 0), (0.5, 0.5, 0.5)):
            k = greylp.uniform_coefficients(*triple, p.m, p.n)
            assert greylp.solve_max(greylp.build_positioned(p, k)).status is greylp.SolveStatus.OPTIMAL


def _small_plan(tmp_path):
    rng = np.random.default_rng(0)
    base = inputs.generate_problem(rng, 4, 5)
    path = str(tmp_path / "p.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.problem_text(base, "small"))
    coeffs = (rng.uniform(size=5), rng.uniform(size=4), rng.uniform(size=(4, 5)))
    pb = inputs._Plan(None)
    pb.sweep(path, base, 0.5, (0.5, 1.0))
    pb.satisfactory(path, base, 0.5, 0.5, 0.5)
    pb.monotonicity(path, "beta", 0.5)
    pb.verify_example()
    pb.degrees(path, base, (0.1, 0.2, 0.3), 0.4, 0.5)
    pb.positioned_value(path, base, coeffs)
    plan = {"files": [path], "ops": pb.ops}
    problems = {path: greylp.parse_problem(open(path, encoding="utf-8").read()).problem}
    return plan, worker._Runner(greylp, plan, problems)


def test_traced_counts_match_expected_and_spans_nest(tmp_path):
    plan, runner = _small_plan(tmp_path)
    tracer = tracing.Tracer()
    tracer.keep_spans = True
    tracer.install()
    try:
        _, _, results = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    for op, result in zip(plan["ops"], results):
        assert checks.check(op, result) is None, op["kind"]
        assert dict(tracer.op_calls[op["id"]]) == op["expect"], op["kind"]
    assert tracing.orphans(tracer.spans) == 0
    assert sum(s[1] == tracing.OP for s in tracer.spans) == len(plan["ops"])
    # Uninstalling restores every binding site.
    assert greylp.analysis.solve_max is greylp.lp_solver.solve_max
    assert not hasattr(greylp.cli.run, "__wrapped__")


def test_demo_sweep_expects_grid_plus_bounds_solves():
    assert inputs.expected_calls("sweep", 21**3, 4)["lp_solver.solve_max"] == 9263


def test_checks_reject_wrong_outputs(tmp_path):
    plan, runner = _small_plan(tmp_path)
    _, _, results = runner.run_pass()
    by_kind = {op["kind"]: (op, res) for op, res in zip(plan["ops"], results)}

    op, (code, out, err) = by_kind["sweep"]
    lines = out.splitlines()
    cells = lines[3].split(",")
    cells[3] = "%.2f" % (float(cells[3]) + 0.02)
    lines[3] = ",".join(cells)
    assert checks.check(op, (code, "\n".join(lines) + "\n", err))
    assert checks.check(op, (1, out, "error"))

    op, (code, out, err) = by_kind["satisfactory"]
    lines = out.splitlines()
    if len(lines) > 1:
        assert checks.check(op, (code, "\n".join(lines[:-1]) + "\n", err))

    op, (code, out, err) = by_kind["degrees"]
    f = out.splitlines()[0].split(" = ")[1]
    assert checks.check(op, (code, out.replace(f, repr(float(f) * (1 + 1e-5)), 1), err))

    op, (value, error) = by_kind["positioned_value"]
    assert checks.check(op, (value * (1 + 1e-5), None))
    assert checks.check(op, (None, "SolverFailure: x"))

    op, (code, out, err) = by_kind["monotonicity"]
    assert checks.check(op, (code, out.replace("violations = 0", "violations = 1"), err))


def test_reported_metrics_are_the_ones_benchmark_json_names():
    import json

    import run
    from conftest import ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = {"ops": [{"settings": 3}, {"settings": 1}]}
    ref = speed.REF_CHUNK_S
    passes = [
        {"traced": False, "wall_s": 1.0, "op_s": [0.4, 0.6], "chunk_s": ref},
        {"traced": True, "wall_s": 1.2, "op_s": [0.5, 0.7], "chunk_s": ref,
         "calls": {"lp_solver.solve_max": 4}, "self_s": {"lp_solver.solve_max": 0.3},
         "nonoptimal": 0},
    ]
    result = {"passes": passes, "attempted": 4, "failed": 1, "peak_rss_mb": 50.0,
              "count_mismatches": {}}
    e2e = run._end_to_end(plan, result, 0.2)
    layer = run._per_layer(plan, result)
    for reported, listed in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in reported.items()}
    assert e2e["ok_ratio"][0] == 0.75
    assert e2e["wall_s"][0] == 1.0
    assert layer["lp_solver.solve_max.per_setting"][0] == 1.0
    # A host twice as slow doubles every measured time and every chunk time,
    # and leaves the reported times alone.
    for p in passes:
        p.update(wall_s=2 * p["wall_s"], op_s=[2 * t for t in p["op_s"]], chunk_s=2 * ref)
    assert run._end_to_end(plan, result, 0.2)["wall_s"][0] == 1.0


def _bound(name):
    import json

    from conftest import ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}[name]


def test_failing_the_whole_scaled_slice_breaches_the_ok_ratio_bound(scatter_plan):
    problems = {}
    for path in scatter_plan["files"]:
        with open(path, encoding="utf-8") as fh:
            problems[path] = greylp.parse_problem(fh.read()).problem
    runner = worker._Runner(greylp, scatter_plan, problems)
    _, _, results = runner.run_pass()
    ops = scatter_plan["ops"]
    failed = {op["id"] for op, res in zip(ops, results) if checks.check(op, res) is not None}
    assert all(op["scaled"] for op in ops if op["id"] in failed)
    today = 1 - len(failed) / len(ops)
    all_scaled = 1 - sum(op["scaled"] for op in ops) / len(ops)
    assert (today - all_scaled) / today > _bound("ok_ratio")
