"""Command-line surface: parsing, serialization, subcommands, exit codes."""

import copy
import hashlib
import json
import logging
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import greylp
from conftest import random_bounded_problem, random_loose_problem
from greylp import (
    Interval,
    LPSolution,
    ParseError,
    ProblemFile,
    GreyLP,
    ValidationError,
    bundled,
    parse_problem,
    cli,
    positioned_value,
    run,
    serialize_problem,
    SolveStatus,
    theta_coefficients,
)
from greylp import analysis, grey_core, satisfaction

UNCAPPED_DOC = json.dumps(
    {"objective": [[1, 2]], "matrix": [[[0, 1]]], "rhs": [[5, 6]]}
)


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(bundled.EXAMPLE_PROBLEM_JSON, encoding="utf-8")
    return str(path)


@pytest.fixture()
def uncapped_file(tmp_path):
    path = tmp_path / "uncapped.json"
    path.write_text(UNCAPPED_DOC, encoding="utf-8")
    return str(path)


class TestParseProblem:
    def test_parses_demo_document(self):
        pf = parse_problem(bundled.EXAMPLE_PROBLEM_JSON)
        assert pf.problem.n == 2 and pf.problem.m == 3
        assert pf.problem.objective == (Interval(600, 800), Interval(900, 1500))
        assert pf.name == "two-product interval planning demo"
        assert pf.description is not None

    def test_metadata_is_optional(self):
        pf = parse_problem('{"objective": [[1, 2]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')
        assert pf.name is None and pf.description is None

    def test_empty_document(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("")
        assert "line 1" in str(exc.value)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('{"objective": [[1, 2]],\n  "matrix": }')
        assert "line 2" in str(exc.value)

    def test_non_object_top_level(self):
        with pytest.raises(ParseError):
            parse_problem("[1, 2, 3]")

    def test_missing_field(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('{"objective": [[1, 2]], "matrix": [[[1, 2]]]}')
        assert "rhs" in str(exc.value)

    def test_unknown_field(self):
        doc = '{"objective": [[1,2]], "matrix": [[[1,2]]], "rhs": [[1,2]], "objektive": 1}'
        with pytest.raises(ParseError) as exc:
            parse_problem(doc)
        assert "objektive" in str(exc.value)

    def test_bad_pair_shape(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('{"objective": [[1, 2, 3]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')
        assert "objective[0]" in str(exc.value)

    def test_rejects_non_numeric_bounds(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('{"objective": [[1, "2"]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')
        assert "objective[0]" in str(exc.value)
        with pytest.raises(ParseError):
            parse_problem('{"objective": [[true, 1]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')

    def test_rejects_non_string_metadata(self):
        doc = '{"name": 7, "objective": [[1,2]], "matrix": [[[1,2]]], "rhs": [[1,2]]}'
        with pytest.raises(ParseError):
            parse_problem(doc)

    def test_reversed_interval_is_a_validation_error(self):
        doc = '{"objective": [[800, 600]], "matrix": [[[1, 2]]], "rhs": [[3, 4]]}'
        with pytest.raises(ValidationError) as exc:
            parse_problem(doc)
        assert "lower bound 800 exceeds upper bound 600" in str(exc.value)

    def test_all_violations_reported_at_once(self):
        doc = '{"objective": [[800, 600]], "matrix": [[[-1, 2]]], "rhs": [[3, 4]]}'
        with pytest.raises(ValidationError) as exc:
            parse_problem(doc)
        assert len(exc.value.violations) == 2

    def test_non_finite_numbers_fail_validation(self):
        doc = '{"objective": [[1, Infinity]], "matrix": [[[1, 2]]], "rhs": [[3, 4]]}'
        with pytest.raises(ValidationError):
            parse_problem(doc)


_GOOD_DOC = {
    "objective": [[1, 2], [3, 4]],
    "matrix": [[[1, 2], [1, 2]], [[1, 2], [1, 2]]],
    "rhs": [[5, 6], [7, 8]],
}


def _doc_with(*edits):
    """The good document with each ``(key, ..., value)`` edit applied: the
    keys lead to the entry that the value replaces."""
    doc = copy.deepcopy(_GOOD_DOC)
    for *path, last, value in edits:
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
    return json.dumps(doc)


# The error text of each malformed document, as the per-entry parser wrote it.
PARSE_ERRORS = [
    ([("objective", 1, [True, 2])], ParseError,
     "objective[1]: interval bounds must be numbers, got True"),
    ([("matrix", 1, 0, [True, 2])], ParseError,
     "matrix[1][0]: interval bounds must be numbers, got True"),
    ([("rhs", 1, [True, 2])], ParseError, "rhs[1]: interval bounds must be numbers, got True"),
    ([("objective", 1, [1, "2"])], ParseError,
     "objective[1]: interval bounds must be numbers, got '2'"),
    ([("matrix", 1, 0, [1, "2"])], ParseError,
     "matrix[1][0]: interval bounds must be numbers, got '2'"),
    ([("rhs", 1, [1, "2"])], ParseError, "rhs[1]: interval bounds must be numbers, got '2'"),
    ([("objective", 1, [None, 2])], ParseError,
     "objective[1]: interval bounds must be numbers, got None"),
    ([("matrix", 1, 0, [None, 2])], ParseError,
     "matrix[1][0]: interval bounds must be numbers, got None"),
    ([("rhs", 1, [None, 2])], ParseError, "rhs[1]: interval bounds must be numbers, got None"),
    ([("objective", 1, [1, 2, 3])], ParseError,
     "objective[1]: expected a [lo, hi] pair, got [1, 2, 3]"),
    ([("matrix", 1, 0, [1, 2, 3])], ParseError,
     "matrix[1][0]: expected a [lo, hi] pair, got [1, 2, 3]"),
    ([("rhs", 1, [1, 2, 3])], ParseError, "rhs[1]: expected a [lo, hi] pair, got [1, 2, 3]"),
    ([("matrix", 1, 7)], ParseError, "matrix[1]: expected a list of [lo, hi] pairs"),
    ([("matrix", 1, [[1, 2]])], ValidationError,
     "invalid problem: matrix[1]: 1 entries but 2 objective coefficients"),
    ([("matrix", 1, [[1, 2], [1, 2], [True, 2]])], ParseError,
     "matrix[1][2]: interval bounds must be numbers, got True"),
    # The first bad field wins: objective, then matrix, then rhs; within a
    # field, the first bad entry.
    ([("rhs", 1, [True, 2]), ("matrix", 1, 0, [1, "2"]), ("objective", 1, [None, 2])],
     ParseError, "objective[1]: interval bounds must be numbers, got None"),
    ([("rhs", 1, [True, 2]), ("matrix", 1, 7)], ParseError,
     "matrix[1]: expected a list of [lo, hi] pairs"),
    ([("objective", 1, 5), ("objective", 0, [1, 2, 3])], ParseError,
     "objective[0]: expected a [lo, hi] pair, got [1, 2, 3]"),
]


@pytest.mark.parametrize("edits, kind, text", PARSE_ERRORS)
def test_parse_error_text_is_unchanged(edits, kind, text):
    with pytest.raises(kind) as exc:
        parse_problem(_doc_with(*edits))
    assert type(exc.value) is kind and str(exc.value) == text


@pytest.mark.parametrize("field, text", [
    ("objective", "objective: expected a list of [lo, hi] pairs"),
    ("matrix", "matrix: expected a list of rows"),
    ("rhs", "rhs: expected a list of [lo, hi] pairs"),
])
def test_field_that_is_not_a_list(field, text):
    doc = dict(_GOOD_DOC, **{field: {"lo": 1}})
    with pytest.raises(ParseError) as exc:
        parse_problem(json.dumps(doc))
    assert str(exc.value) == text


def test_parsed_arrays_match_the_document():
    p = parse_problem(_doc_with(("matrix", 1, [[0.5, 9], [2, 3.25]]))).problem
    assert p.A_lo.tolist() == [[1.0, 1.0], [0.5, 2.0]]
    assert p.A_hi.tolist() == [[2.0, 2.0], [9.0, 3.25]]
    assert p.c_lo.tolist() == [1.0, 3.0] and p.b_hi.tolist() == [6.0, 8.0]
    assert p.A_lo.dtype == np.float64 and p.row_lengths.tolist() == [2, 2]


class TestSerializeProblem:
    def test_round_trips_demo(self):
        pf = parse_problem(bundled.EXAMPLE_PROBLEM_JSON)
        assert parse_problem(serialize_problem(pf)) == pf

    def test_round_trips_without_metadata(self):
        pf = parse_problem('{"objective": [[1, 2]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')
        text = serialize_problem(pf)
        assert "name" not in text
        assert parse_problem(text) == pf

    def test_round_trips_random_problems(self):
        rng = random.Random(4242)
        for i in range(20):
            problem = (random_bounded_problem if i % 2 else random_loose_problem)(rng)
            pf = ProblemFile(
                problem=problem,
                name=None if i % 3 else f"case {i}",
                description=None if i % 4 else "generated",
            )
            assert parse_problem(serialize_problem(pf)) == pf


class TestExitCodes:
    def test_success(self, capsys, demo_file):
        assert run(["validate", "--file", demo_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")
        assert "2 variable(s), 3 constraint(s)" in out

    def test_missing_file_is_a_parse_failure(self, capsys, tmp_path):
        assert run(["validate", "--file", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        assert run(["validate", "--file", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_invalid_problem_exits_1(self, capsys, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(
            '{"objective": [[800, 600]], "matrix": [[[1, 2]]], "rhs": [[3, 4]]}',
            encoding="utf-8",
        )
        assert run(["validate", "--file", str(path)]) == 1
        assert "exceeds upper bound" in capsys.readouterr().err

    def test_unbounded_solve_exits_2(self, capsys, uncapped_file):
        code = run(
            ["solve", "--file", uncapped_file, "--alpha", "1", "--beta", "1", "--gamma", "0"]
        )
        assert code == 2
        assert "unbounded" in capsys.readouterr().err

    def test_unbounded_bounds_exits_2(self, capsys, uncapped_file):
        assert run(["bounds", "--file", uncapped_file]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["solve", "--file", "x.json", "--alpha", "2.0", "--beta", "0.5", "--gamma", "0.5"],
            ["solve", "--file", "x.json", "--alpha", "abc", "--beta", "0.5", "--gamma", "0.5"],
            ["sweep", "--file", "x.json", "--step", "0.7"],
            ["degrees", "--file", "x.json", "--theta", "0.5", "--lambda", "1.5"],
            ["solve"],
        ],
    )
    def test_usage_errors_exit_3(self, capsys, argv):
        assert run(argv) == 3
        assert "error:" in capsys.readouterr().err

    def test_mixed_coefficient_flags_exit_3(self, capsys, demo_file):
        code = run(["solve", "--file", demo_file, "--theta", "0.5", "--alpha", "0.5"])
        assert code == 3
        assert "--theta" in capsys.readouterr().err

    def test_incomplete_coefficient_flags_exit_3(self, capsys, demo_file):
        assert run(["solve", "--file", demo_file, "--alpha", "0.5"]) == 3
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "SUBCOMMAND" in capsys.readouterr().out


class TestSolveCommand:
    def test_prints_reference_value(self, capsys, demo_file):
        code = run(
            ["solve", "--file", demo_file, "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        f_line, x_line = out.splitlines()
        assert f_line.startswith("f = ")
        # the printed value is rounded to 2 dp, which can add up to half a
        # cent on top of the reference tolerance
        assert float(f_line.removeprefix("f = ")) == pytest.approx(42995.88, abs=0.0151)
        assert x_line.startswith("x = (")

    def test_theta_matches_uniform_flags(self, capsys, demo_file):
        run(["solve", "--file", demo_file, "--theta", "0.6"])
        via_theta = capsys.readouterr().out
        run(["solve", "--file", demo_file, "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.6"])
        via_flags = capsys.readouterr().out
        assert via_theta == via_flags

    def test_precise_flag_prints_full_precision(self, capsys, demo_file):
        run(
            ["solve", "--file", demo_file, "--precise",
             "--alpha", "0.6", "--beta", "0.6", "--gamma", "0.6"]
        )
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].removeprefix("f = "))
        assert value == pytest.approx(42995.8899, abs=1e-3)
        assert len(out.splitlines()[0]) > len("f = 42995.89")

    def test_output_is_deterministic(self, capsys, demo_file):
        argv = ["solve", "--file", demo_file, "--theta", "0.3"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first

    def test_unbounded_message(self, capsys, uncapped_file):
        assert run(["solve", "--file", uncapped_file, "--theta", "0"]) == 2
        assert capsys.readouterr() == ("", "error: positioned program is unbounded\n")

    def test_other_status_message(self, capsys, monkeypatch, demo_file):
        # Unreachable for a valid problem (x = 0 is always feasible), so the
        # solver is made to answer "infeasible".
        infeasible = LPSolution(status=SolveStatus.INFEASIBLE)
        monkeypatch.setattr(satisfaction, "solve_max", lambda lp, start=None: infeasible)
        assert run(["solve", "--file", demo_file, "--theta", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: solver finished with status infeasible\n")


class TestBoundsCommand:
    def test_prints_reference_bounds(self, capsys, demo_file):
        assert run(["bounds", "--file", demo_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        critical = float(lines[0].removeprefix("critical = "))
        ideal = float(lines[1].removeprefix("ideal = "))
        # 2 dp printing adds up to half a cent on top of the reference tolerance
        assert critical == pytest.approx(20657.71, abs=0.0151)
        assert ideal == pytest.approx(74783.51, abs=0.0151)


class TestDegreesCommand:
    def test_reports_degrees_and_verdicts(self, capsys, demo_file):
        code = run(
            ["degrees", "--file", demo_file, "--theta", "0.6",
             "--lambda", "0.5", "--mu0", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mu = 0.5472" in out
        assert "mu_tilde[lambda=0.5] = 0.3659" in out
        assert "pleased (mu >= 0.5): yes" in out
        assert "satisfactory (mu_tilde >= 0.5): no" in out

    @pytest.mark.parametrize("argv, calls", [
        (["degrees", "--theta", "0.6"], 1),
        (["degrees", "--alpha", "1", "--beta", "0", "--gamma", "0.5", "--precise"], 1),
        (["sweep", "--step", "0.5"], 2),
    ])
    def test_validates_the_problem_once(self, monkeypatch, capsys, demo_file, argv, calls):
        # Parsing validates; the degrees query and its bounds do not again
        # (a sweep validates once more, as the library grid_sweep does).
        original = grey_core.validate_problem
        counted = []

        def counting(p):
            counted.append(p)
            return original(p)

        for module in (grey_core, cli, satisfaction, analysis):
            if getattr(module, "validate_problem", None) is original:
                monkeypatch.setattr(module, "validate_problem", counting)
        assert run([argv[0], "--file", demo_file, *argv[1:]]) == 0
        assert len(counted) == calls

    def test_unbounded_degrees_exit_2(self, capsys, uncapped_file):
        assert run(["degrees", "--file", uncapped_file, "--theta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: positioned program is unbounded; satisfaction analysis is undefined\n"
        )

    def test_invalid_problem_exits_1(self, capsys, tmp_path):
        path = tmp_path / "reversed.json"
        path.write_text(
            '{"objective": [[2, 1]], "matrix": [[[1, 2]]], "rhs": [[5, 6]]}', encoding="utf-8"
        )
        assert run(["degrees", "--file", str(path), "--theta", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSweepCommand:
    def test_stdout_csv(self, capsys, demo_file):
        assert run(["sweep", "--file", demo_file, "--step", "0.5"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "alpha,beta,gamma,f,mu"
        assert len(lines) == 1 + 27

    def test_out_file_and_lambdas(self, capsys, tmp_path, demo_file):
        dest = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--file", demo_file, "--step", "0.5",
             "--lambdas", "0.5,1", "--out", str(dest)]
        )
        assert code == 0
        assert "wrote 27 row(s)" in capsys.readouterr().out
        header = dest.read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith("mu_tilde[0.5],mu_tilde[1]")

    def test_markdown_format(self, capsys, demo_file):
        assert run(["sweep", "--file", demo_file, "--step", "0.5", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| alpha | beta | gamma |")


class TestMonotonicityCommand:
    def test_reports_clean_axis(self, capsys, demo_file):
        assert run(["monotonicity", "--file", demo_file, "--axis", "gamma"]) == 0
        out = capsys.readouterr().out
        assert "axis = gamma (expected nonincreasing)" in out
        assert "violations = 0" in out

    def test_requires_axis(self, capsys, demo_file):
        assert run(["monotonicity", "--file", demo_file]) == 3
        capsys.readouterr()


class TestSatisfactoryCommand:
    def test_lists_reaching_settings(self, capsys, demo_file):
        code = run(
            ["satisfactory", "--file", demo_file, "--mu0", "0.5",
             "--lambda", "0.8", "--step", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "9 of 27 grid setting(s) reach mu_tilde[lambda=0.8] >= 0.5"
        )
        assert "alpha=1 beta=1 gamma=0  mu_tilde=1.0000" in out


class TestVerifyExample:
    def test_exits_zero_with_all_cells_matching(self, capsys):
        assert run(["verify-example"]) == 0
        out = capsys.readouterr().out
        assert "result: 56 of 56 cells match" in out
        assert "FAIL" not in out

    def test_solves_only_its_two_bounds(self, capsys, caplog):
        # The critical and ideal bases certify all six reference settings.
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            assert run(["verify-example"]) == 0
        capsys.readouterr()
        records = [(r.name, r.levelname) for r in caplog.records]
        assert records == [("greylp.lp_solver", "DEBUG")] * 2 + [("greylp.analysis", "INFO")]
        messages = [r.getMessage() for r in caplog.records]
        assert all(m.startswith("solve_max: ") for m in messages[:2])
        assert messages[2] == (
            "solve_grid: 6 points, 0 cold solves, 0 warm starts, 6 certified, 2 bases, "
            "0 non-optimal"
        )

    def test_is_deterministic(self, capsys):
        run(["verify-example"])
        first = capsys.readouterr().out
        run(["verify-example"])
        assert capsys.readouterr().out == first


class TestParserReuse:
    """The parser is built once per process; no call may see another's
    options."""

    def test_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_back_to_back_commands_share_no_state(self, capsys, tmp_path, demo_file):
        dest = tmp_path / "sweep.csv"
        argv = ["sweep", "--file", demo_file, "--step", "0.5", "--lambdas", "0.5,1",
                "--out", str(dest)]
        assert run(argv) == 0
        assert capsys.readouterr().out == f"wrote 27 row(s) to {dest}\n"
        # Neither --lambdas nor --out carries over to the next sweep.
        dest.unlink()
        assert run(["sweep", "--file", demo_file, "--step", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "alpha,beta,gamma,f,mu"
        assert not dest.exists()
        # --theta does not carry over either: it would clash with --alpha.
        assert run(["solve", "--file", demo_file, "--theta", "0.5"]) == 0
        theta = capsys.readouterr().out
        argv = ["solve", "--file", demo_file, "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"]
        assert run(argv) == 0
        assert capsys.readouterr().out == theta

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep"],
            ["solve", "--file", "x.json", "--theta", "2"],
            ["monotonicity", "--file", "x.json", "--axis", "delta"],
            ["no-such-command"],
        ],
    )
    def test_usage_errors_still_exit_3_between_good_calls(self, capsys, demo_file, argv):
        assert run(["bounds", "--file", demo_file]) == 0
        assert run(argv) == 3
        assert run(["bounds", "--file", demo_file]) == 0
        out = capsys.readouterr().out
        assert out == "critical = 20657.72\nideal = 74783.51\n" * 2


# sha256 of the demo's stdout for commands whose bytes must not change.  The
# first four were taken from the per-row implementation before sweeps were
# scored as arrays, the last four before degree cells were formatted from a
# lookup table (step 0.02 puts many more cells next to a rounding tie).
GOLDEN_STDOUT = {
    ("sweep", "--step", "0.05", "--lambdas", "0.25,0.5,0.75,1"):
        "1ac4fa9eacb623b1ddcbb8d349d2150a9c996c49e0fcd408ea165e2580c12d93",
    ("sweep", "--step", "0.1", "--lambdas", "0,0.5,1", "--format", "markdown"):
        "137d25e8d888b57ac020c58ed0175305d17e8740b746bfe51a1a240278c309ce",
    ("satisfactory", "--mu0", "0.5", "--lambda", "0.5", "--step", "0.05"):
        "e9208c54d70554a213af641607d4b0885a9bf8cb24b2e1dd2279f3376e25ffed",
    ("monotonicity", "--axis", "gamma", "--step", "0.05"):
        "01adac0f90bdf2e648c067a8dc54a18903bce3adf8a202aea374c303418551fc",
    ("verify-example",):
        "22f62a4782f3d0780e7218b965da872dc28b34d9de5af70f58139992e45333c3",
    ("sweep", "--step", "0.02", "--lambdas", "0,0.25,0.5,0.75,1"):
        "e1e8f758f51118143d7f1f0d67de1ccf822482b4ab7503385ab860738934f8e3",
    ("satisfactory", "--mu0", "0.4", "--lambda", "0.9", "--step", "0.02"):
        "5a9664ad4d7c9a5b504d08d5fbcc18dd56e604a2fd50359b085e9d7b153c71d0",
    ("sweep", "--step", "0.05", "--lambdas", "0.5", "--format", "markdown"):
        "b4b0f4904646732f84cb86439c250055550d4d83d327d72a1ff9f108b925757a",
}


@pytest.mark.parametrize(
    "argv", sorted(GOLDEN_STDOUT), ids=lambda argv: "_".join(a.lstrip("-") for a in argv)
)
def test_golden_stdout(capsys, demo_file, argv):
    file = [] if argv[0] == "verify-example" else ["--file", demo_file]  # it embeds the demo
    assert run([argv[0], *file, *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[argv]


def test_grid_commands_leave_numpy_ma_unimported(demo_file):
    # Importing numpy.ma adds about a megabyte of resident memory.  np.unique
    # imports it when called without return_inverse, so a grid command that
    # did would carry it in its peak RSS.  Only a fresh interpreter shows it.
    commands = [
        ["sweep", "--file", demo_file, "--step", "0.1", "--lambdas", "0.5,1"],
        ["satisfactory", "--file", demo_file, "--mu0", "0.5", "--step", "0.1"],
        ["monotonicity", "--file", demo_file, "--axis", "beta", "--step", "0.1"],
        ["verify-example"],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from greylp.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    src = str(pathlib.Path(greylp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.stdout == "[0, 0, 0, 0] False\n", done.stderr


def _seeded_problem(size: int, seed: int) -> GreyLP:
    """A seeded size x size grey LP.  Every matrix entry is nonnegative and
    the diagonal is heavy, so every positioned program is bounded."""
    rng = np.random.default_rng(seed)

    def grey(lo):
        hi = lo + rng.uniform(0.0, 0.3, lo.shape) * lo
        return np.stack([lo, hi], axis=-1).round(6)

    A = rng.uniform(0.0, 1.0, (size, size)) + size * np.eye(size)
    return GreyLP(
        objective=grey(rng.uniform(1.0, 10.0, size)),
        matrix=grey(A),
        rhs=grey(rng.uniform(50.0, 100.0, size)),
    )


def test_cold_degrees_query_benchmark_smoke(benchmark, capsys, caplog, tmp_path):
    # One timed round with no time bound: a 60x60 query runs parse,
    # validate and whiten, solves its own setting cold and both bounds from
    # that basis, and the suite does not depend on host speed.
    p = _seeded_problem(60, seed=2012)
    path = tmp_path / "synthetic60.json"
    path.write_text(serialize_problem(ProblemFile(problem=p)), encoding="utf-8")
    argv = ["degrees", "--file", str(path), "--theta", "0.3", "--precise"]
    with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
        code = benchmark.pedantic(run, args=(argv,), rounds=1, iterations=1)
    assert code == 0
    starts = [r.getMessage().split(",")[0] for r in caplog.records]
    assert starts[0] == "solve_max: cold start"
    assert len(starts) == 3
    assert set(starts[1:]) <= {"solve_max: certified start", "solve_max: warm start"}
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == f"f = {positioned_value(p, theta_coefficients(0.3, 60, 60))!r}"
