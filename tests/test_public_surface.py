"""The public surface: the names ``greylp`` and its modules export, the
public attributes of its data classes, the functions README's "Library
use" names, the output of the commands its "Quick start" and
"Subcommands" show, the subcommands its "Subcommands" table lists, and
the names the benchmark under ``bench/`` binds.

An API is added or removed on purpose, by editing ``EXPORTED`` or
``ATTRIBUTES`` here along with the code.
"""

import argparse
import importlib
import importlib.util
import inspect
import pathlib
import re
import shlex

import pytest

import greylp
from greylp.cli import _parser, run

README = pathlib.Path(__file__).parents[1] / "README.md"

EXPORTED = {
    "__version__",
    # grey_core
    "GreyLP", "PositionCoefficients", "WhiteLP", "Violation",
    "build_positioned", "uniform_coefficients", "validate_problem",
    # lp_solver
    "SolveStatus", "LPSolution", "solve_max",
    # satisfaction
    "ValueBounds", "positioned_value", "bounds", "pleased_degree", "pleased_degrees",
    "lambda_satisfaction", "lambda_satisfactions",
    # analysis
    "SweepTable", "MonotonicityReport", "unit_grid", "lambda_sweep", "grid_sweep",
    "check_monotonicity", "find_satisfactory", "render_table",
    # cli
    "ProblemFile", "parse_problem", "run",
    # errors
    "GreyLPError", "DomainError", "StructureError", "ValidationError", "ParseError",
    "UnboundedValueError", "InconsistentInputsError", "SolverFailure",
    "DegenerateBoundsWarning",
}


# The data classes hold arrays only; a tuple view of them, or another
# attribute, is an API of its own.
ATTRIBUTES = {
    "GreyLP": {"c_lo", "c_hi", "A_lo", "A_hi", "b_lo", "b_hi", "n", "m"},
    "PositionCoefficients": {"alpha_array", "beta_array", "gamma_array"},
    "WhiteLP": {"c_array", "A_array", "b_array", "n", "m"},
    "SweepTable": {"lambdas", "coefficients", "f", "mu", "mu_tilde"},
}


# Names removed on purpose, each with the module that defined it.
GONE = {
    "SatisfactionRecord": "analysis",
    "GridSolution": "analysis",
    "Interval": "grey_core",
    "whiten": "grey_core",
    "theta_coefficients": "grey_core",
    "is_pleased": "satisfaction",
    "is_lambda_satisfactory": "satisfaction",
    "serialize_problem": "cli",
    "solve_grid": "analysis",
}


def test_package_exports_exactly_the_expected_names():
    assert sorted(greylp.__all__) == sorted(EXPORTED)  # also: no name listed twice
    for gone, module in GONE.items():
        assert not hasattr(greylp, gone), gone
        assert not hasattr(importlib.import_module(f"greylp.{module}"), gone), gone


def test_data_classes_have_exactly_the_expected_attributes():
    p = greylp.parse_problem(greylp.bundled.EXAMPLE_PROBLEM_JSON).problem
    k = greylp.uniform_coefficients(0.5, 0.5, 0.5, p.m, p.n)
    instances = {
        "GreyLP": p,
        "PositionCoefficients": k,
        "WhiteLP": greylp.build_positioned(p, k),
        "SweepTable": greylp.grid_sweep(p, 0.5),
    }
    for name, obj in instances.items():
        assert type(obj) is getattr(greylp, name)
        assert {a for a in dir(obj) if not a.startswith("_")} == ATTRIBUTES[name], name


MODULES = ["greylp", "greylp.analysis", "greylp.cli", "greylp.grey_core",
           "greylp.lp_solver", "greylp.satisfaction"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # The package re-exports its modules' names (the CLI's ``main`` aside).
    if module != "greylp":
        assert set(mod.__all__) - {"main"} <= EXPORTED


def test_readme_library_use_names_exactly_the_exported_functions():
    section = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    named = set(re.findall(r"\b([a-z_]+)\(", section)) | set(re.findall(r"`([a-z_]+)`", section))
    named |= {
        name for line in re.findall(r"from greylp import \(([^)]*)\)", section)
        for name in re.findall(r"\w+", line)
    }
    modules = [importlib.import_module(module) for module in MODULES]
    in_greylp = {
        name for name in named
        if any(inspect.isfunction(getattr(mod, name, None)) for mod in modules)
    }
    assert in_greylp == {name for name in EXPORTED if inspect.isfunction(getattr(greylp, name))}
    assert named & set(GONE) == set()


def test_readme_library_use_example_runs_and_shows_its_values(monkeypatch, capsys):
    # The section's Python block, run from the repository root: each value
    # with a "# 1.2345…" comment starts with those digits.
    section = README.read_text(encoding="utf-8").split("## Library use")[1].split("\n## ")[0]
    [block] = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    shown = dict(re.findall(r"^(\w+) = .*# ([\d.]+)…$", block, re.MULTILINE))
    assert shown == {"f": "42995.8899", "mu": "0.5472", "mt": "0.4040"}
    monkeypatch.chdir(README.parent)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert {name: repr(names[name])[: len(digits)] for name, digits in shown.items()} == shown
    assert capsys.readouterr().out.startswith("| alpha | beta | gamma | f | mu |")


def test_readme_subcommands_table_lists_the_parsers_subcommands_in_order():
    section = README.read_text(encoding="utf-8").split("## Subcommands")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", section, re.MULTILINE)
    [sub] = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_readme_quick_start_shows_what_the_commands_print(monkeypatch, capsys):
    # Each "$ greylp ..." line of the section's shell block, run from the
    # repository root, prints exactly the lines below it.
    section = README.read_text(encoding="utf-8").split("## Quick start")[1].split("\n## ")[0]
    [block] = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    commands = [c.strip("\n").split("\n", 1) for c in block.split("$ greylp ")[1:]]
    assert len(commands) == 3
    monkeypatch.chdir(README.parent)
    for argv, shown in commands:
        assert run(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == shown + "\n", argv


def test_readme_subcommand_examples_show_lines_the_commands_print(monkeypatch, capsys):
    # The section's two shell blocks are elided with "...": every other
    # line below "$ greylp ..." is a line the command prints, in order.
    section = README.read_text(encoding="utf-8").split("## Subcommands")[1].split("\n## ")[0]
    blocks = re.findall(r"```sh\n\$ greylp (.*?)\n(.*?)```", section, re.DOTALL)
    assert [argv for argv, _ in blocks] == [
        "sweep --file data/demo_problem.json --step 0.5 --lambdas 0.5,1",
        "verify-example",
    ]
    monkeypatch.chdir(README.parent)
    for argv, shown in blocks:
        lines = shown.splitlines()
        assert "..." in lines, argv
        assert run(shlex.split(argv)) == 0, argv
        printed = iter(capsys.readouterr().out.splitlines())
        # ``in`` consumes the iterator up to the match, so each shown line
        # must come after the one before it.
        assert all(line in printed for line in lines if line != "..."), argv


def test_the_benchmark_binds_names_that_exist():
    # bench/tracer.py wraps its LAYERS by name and bench/worker.py calls a
    # few names directly; one that is gone stops a traced benchmark run
    # with "no binding site found".  The tracer imports only the stdlib.
    path = README.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for key in tracer.LAYERS:
        module, name = key.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"greylp.{module}"), name)), key
    # The worker's calls, with the keywords it passes.
    assert inspect.isfunction(greylp.cli.run)
    p = greylp.cli.parse_problem(greylp.bundled.EXAMPLE_PROBLEM_JSON).problem
    k = greylp.PositionCoefficients(
        alphas=[0.5] * p.n, betas=[0.5] * p.m, gammas=[[0.5] * p.n] * p.m
    )
    assert greylp.satisfaction.positioned_value(p, k) > 0.0
    # The tracer counts a solve as optimal by comparing its status to this text.
    assert greylp.SolveStatus.OPTIMAL == "optimal"
