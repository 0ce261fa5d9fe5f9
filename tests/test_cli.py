"""Command-line surface: parsing, file round trips, subcommands, exit codes."""

import argparse
import contextlib
import copy
import gc
import hashlib
import itertools
import json
import logging
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import greylp
from conftest import (
    count_collections, exact_check, many_basis_problem, problem_text, random_bounded_problem,
    random_loose_problem,
)
from greylp import (
    ParseError,
    ProblemFile,
    GreyLP,
    ValidationError,
    build_positioned,
    bundled,
    parse_problem,
    cli,
    find_satisfactory,
    grid_sweep,
    positioned_value,
    render_table,
    run,
    solve_max,
    uniform_coefficients,
    unit_grid,
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
        assert pf.problem.c_lo.tolist() == [600.0, 900.0]
        assert pf.problem.c_hi.tolist() == [800.0, 1500.0]
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


# The `validate` error of each file whose blocks do not make an m x n
# problem: the dimension findings first, then those of every bound present.
SHAPE_ERRORS = [
    ([("objective", [])], "objective: no variables; "
     "matrix[0]: 2 entries but 0 objective coefficients; "
     "matrix[1]: 2 entries but 0 objective coefficients"),
    ([("rhs", [])], "rhs: no constraints; matrix: 2 matrix rows but 0 right-hand sides"),
    ([("matrix", [])], "matrix: 0 matrix rows but 2 right-hand sides"),
    ([("objective", []), ("matrix", []), ("rhs", [])],
     "objective: no variables; rhs: no constraints"),
    ([("matrix", [[[1, 2], [1, 2]]])], "matrix: 1 matrix rows but 2 right-hand sides"),
    ([("matrix", [[[1, 2], [1, 2]]] * 3)], "matrix: 3 matrix rows but 2 right-hand sides"),
    ([("matrix", 1, [[1, 2]])], "matrix[1]: 1 entries but 2 objective coefficients"),
    ([("matrix", 1, [[1, 2]] * 3)], "matrix[1]: 3 entries but 2 objective coefficients"),
    ([("matrix", 1, [[1, 2], [1, 2], [5, 3]])],
     "matrix[1]: 3 entries but 2 objective coefficients; "
     "matrix[1][2]: lower bound 5 exceeds upper bound 3"),
    ([("matrix", 0, [[-1, 2]])],
     "matrix[0]: 1 entries but 2 objective coefficients; "
     "matrix[0][0]: negative lower bound -1 (all parameters must be >= 0)"),
    ([("matrix", 1, [[1, 2], [1, 2], [1, float("inf")]])],
     "matrix[1]: 3 entries but 2 objective coefficients; "
     "matrix[1][2]: upper bound inf is not finite"),
    ([("objective", 1, [4, 3]), ("matrix", 0, [[-1, 2]]),
      ("matrix", 1, [[1, 2], [1, 2], [1, float("inf")]]), ("rhs", 0, [-5, 6])],
     "matrix[0]: 1 entries but 2 objective coefficients; "
     "matrix[1]: 3 entries but 2 objective coefficients; "
     "objective[1]: lower bound 4 exceeds upper bound 3; "
     "matrix[0][0]: negative lower bound -1 (all parameters must be >= 0); "
     "matrix[1][2]: upper bound inf is not finite; "
     "rhs[0]: negative lower bound -5 (all parameters must be >= 0)"),
]


@pytest.mark.parametrize("edits, text", SHAPE_ERRORS)
def test_validate_text_for_blocks_that_do_not_fit(capsys, tmp_path, edits, text):
    path = tmp_path / "shape.json"
    path.write_text(_doc_with(*edits), encoding="utf-8")
    assert run(["validate", "--file", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: invalid problem: {text}\n")


def test_parsed_arrays_match_the_document():
    p = parse_problem(_doc_with(("matrix", 1, [[0.5, 9], [2, 3.25]]))).problem
    assert p.A_lo.tolist() == [[1.0, 1.0], [0.5, 2.0]]
    assert p.A_hi.tolist() == [[2.0, 2.0], [9.0, 3.25]]
    assert p.c_lo.tolist() == [1.0, 3.0] and p.b_hi.tolist() == [6.0, 8.0]
    assert p.A_lo.dtype == np.float64 and p.A_lo.shape == p.A_hi.shape == (2, 2)


class TestParseCollectorPause:
    """``parse_problem`` decodes with the cyclic collector paused, restores
    the caller's setting whatever the outcome, and frees the decoded tree
    before the collector is back on."""

    BAD_JSON = '{"objective": [[1, 2]],\n  "matrix": }'
    BAD_PAIR = '{"objective": [[1, 2, 3]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}'
    INVALID = '{"objective": [[800, 600]], "matrix": [[[1, 2]]], "rhs": [[3, 4]]}'

    def test_large_document_starts_no_collection(self):
        text = problem_text(ProblemFile(problem=_seeded_problem(60, seed=7)))
        # The list made after the call would start a collection if the
        # decoded tree's allocations were still counted against the
        # threshold when the collector came back on.
        (pf,), started = count_collections(lambda: [parse_problem(text)])
        assert (pf.problem.m, pf.problem.n) == (60, 60)
        assert started == 0 and gc.isenabled()

    @pytest.mark.parametrize("text, error", [
        (bundled.EXAMPLE_PROBLEM_JSON, None),
        (BAD_JSON, ParseError),
        (BAD_PAIR, ParseError),
        (INVALID, ValidationError),
    ], ids=["valid", "bad-json", "bad-pair", "invalid"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "paused-by-caller"])
    def test_collector_setting_is_restored(self, text, error, enabled):
        if not enabled:
            gc.disable()
        try:
            if error is None:
                parse_problem(text)
            else:
                with pytest.raises(error):
                    parse_problem(text)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestProblemFileRoundTrip:
    def test_round_trips_demo(self):
        pf = parse_problem(bundled.EXAMPLE_PROBLEM_JSON)
        assert parse_problem(problem_text(pf)) == pf

    def test_round_trips_without_metadata(self):
        pf = parse_problem('{"objective": [[1, 2]], "matrix": [[[1, 2]]], "rhs": [[1, 2]]}')
        text = problem_text(pf)
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
            assert parse_problem(problem_text(pf)) == pf


# The commands that solve a cube of grid triples, without their --file and
# --step.
GRID_COMMANDS = [
    ["monotonicity", "--axis", "alpha"],
    ["sweep"],
    ["satisfactory", "--mu0", "0.5", "--lambda", "0.5"],
]


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

    @pytest.mark.parametrize("edits, entry", [
        ([("objective", 1, [1, 10**400])], "objective[1]"),
        ([("rhs", 0, [-(10**400), 6])], "rhs[0]"),
        ([("matrix", 1, 0, [1, 10**400])], "matrix[1][0]"),
        ([("matrix", 1, [[1, 2], [1, 2], [1, 10**400]])], "matrix[1][2]"),  # a ragged matrix
    ], ids=["objective", "rhs", "matrix", "ragged-matrix"])
    def test_integer_too_large_for_a_float_exits_1(self, capsys, tmp_path, edits, entry):
        path = tmp_path / "big.json"
        path.write_text(_doc_with(*edits), encoding="utf-8")
        assert run(["validate", "--file", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {entry}: interval bound is too large for a float\n"
        )

    @pytest.mark.parametrize("text, error", [
        ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"rhs": [[1, %s]]}' % ("1" * 5000), "invalid JSON: Exceeds the limit"),
    ], ids=["nested", "digits"])
    def test_json_the_decoder_refuses_exits_1(self, capsys, tmp_path, text, error):
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        assert run(["validate", "--file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {error}") and err.count("\n") == 1

    def test_file_that_is_not_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        assert run(["validate", "--file", str(path)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: cannot read problem file {str(path)!r}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        ))

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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--precise"],
        ["sweep", "--step", "0.5", "--lambdas", "0.5"],
        ["solve", "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"],
    ], ids=["bounds", "sweep", "solve"])
    def test_optimum_that_overflows_exits_2(self, capsys, tmp_path, argv):
        # A valid file whose optima pass float range: one error line and no
        # inf printed.  numpy's overflow RuntimeWarning would fail the test,
        # as every unexpected warning does in this suite.
        path = tmp_path / "overflow.json"
        path.write_text(
            '{"objective": [[1e308, 1.5e308]], "matrix": [[[1, 1]]], "rhs": [[1e308, 1.2e308]]}'
        )
        assert run([*argv, "--file", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: solution failed the feasibility post-check\n")

    @pytest.mark.parametrize("argv", GRID_COMMANDS, ids=["monotonicity", "sweep", "satisfactory"])
    def test_grid_too_large_to_allocate_exits_2(self, capsys, demo_file, argv):
        # numpy refuses the 500001**3 cube of this step at once, before
        # anything is allocated.
        assert run([*argv, "--file", demo_file, "--step", "2e-6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["1e-6", "4e-7", "1e-12", "1e-320"])
    @pytest.mark.parametrize("argv", GRID_COMMANDS, ids=["monotonicity", "sweep", "satisfactory"])
    def test_grid_too_fine_to_index_exits_2(self, capsys, demo_file, argv, step):
        # Refused from the step alone, before the grid's values are listed.
        assert run([*argv, "--file", demo_file, "--step", step]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        limit = np.iinfo(np.intp).max
        assert err.startswith("error: grid step ") and err.count("\n") == 1
        assert err.endswith(
            f" is too fine: its cube of grid triples needs more than {limit} bytes\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["solve", "--file", "x.json", "--alpha", "2.0", "--beta", "0.5", "--gamma", "0.5"],
            ["solve", "--file", "x.json", "--alpha", "abc", "--beta", "0.5", "--gamma", "0.5"],
            ["sweep", "--file", "x.json", "--step", "0.7"],
            ["degrees", "--file", "x.json", "--theta", "0.5", "--lambda", "1.5"],
            ["degrees", "--file", "x.json", "--theta", "0.5", "--mu0", "-0.1"],
            ["degrees", "--file", "x.json", "--theta", "0.5", "--mu0", "nan"],
            ["solve"],
        ],
    )
    def test_usage_errors_exit_3(self, capsys, argv):
        assert run(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, error", [
        ("--step", "abc", "argument --step: 'abc' is not a number"),
        ("--lambdas", ",", "argument --lambdas: expected a comma-separated list of values in [0, 1]"),
    ], ids=["step", "lambdas"])
    def test_option_error_text(self, capsys, option, value, error):
        assert run(["sweep", "--file", "x.json", option, value]) == 3
        assert capsys.readouterr() == ("", f"error: greylp sweep: {error}\n")

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

    def test_verdicts_take_the_closed_grey_target(self, capsys, demo_file):
        # A degree equal to mu0 lies in the target [mu0, 1]; one ulp below
        # mu0 does not.
        query = ["degrees", "--file", demo_file, "--theta", "0.6", "--lambda", "0.5"]
        assert run([*query, "--precise"]) == 0
        lines = capsys.readouterr().out.splitlines()
        mu = float(lines[1].removeprefix("mu = "))
        mu_tilde = float(lines[2].removeprefix("mu_tilde[lambda=0.5] = "))
        for line, degree in ((3, mu), (4, mu_tilde)):
            for mu0, verdict in (
                (np.nextafter(degree, 0.0), "yes"),
                (degree, "yes"),
                (np.nextafter(degree, 1.0), "no"),
            ):
                assert run([*query, "--mu0", repr(float(mu0))]) == 0
                assert capsys.readouterr().out.splitlines()[line].endswith(f": {verdict}")

    @pytest.mark.parametrize("precise, f, mu_tilde", [
        ([], "0.00", "1.0000"), (["--precise"], "0.0", "1.0"),
    ], ids=["rounded", "precise"])
    def test_undefined_pleased_degree_prints_nan(self, capsys, tmp_path, precise, f, mu_tilde):
        # Every objective interval is [0, 0], so the ideal value is 0: mu is
        # undefined, as a sweep row's empty mu cell shows, and the bounds
        # coincide, so mu_tilde is 1 with a warning.
        path = tmp_path / "zero.json"
        path.write_text(
            '{"objective": [[0, 0], [0, 0]], "matrix": [[[1, 2], [0, 1]], [[2, 3], [1, 1]]], '
            '"rhs": [[4, 5], [3, 6]]}', encoding="utf-8",
        )
        assert run(["degrees", "--file", str(path), "--theta", "0.5", *precise]) == 0
        assert capsys.readouterr() == (
            f"f = {f}\nmu = nan\nmu_tilde[lambda=1] = {mu_tilde}\n"
            "pleased (mu >= 0.5): no\nsatisfactory (mu_tilde >= 0.5): yes\n",
            "warning: critical and ideal values coincide (effectively white problem); "
            "reporting satisfaction degree 1\n",
        )

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


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["solve", "--theta", "0.6"],
    ["bounds"],
    ["degrees", "--theta", "0.6"],
    ["degrees", "--alpha", "1", "--beta", "0", "--gamma", "0.5", "--precise"],
    ["sweep", "--step", "0.5"],
    ["monotonicity", "--axis", "gamma", "--step", "0.5"],
    ["satisfactory", "--mu0", "0.5", "--step", "0.5"],
    ["verify-example"],
], ids=" ".join)
def test_validates_the_problem_once(monkeypatch, capsys, demo_file, argv):
    # Building the GreyLP, while the file is parsed, is the one validation:
    # no command validates the problem again.
    original = grey_core.validate_problem
    counted = []

    def counting(p):
        counted.append(p)
        return original(p)

    for module in (grey_core, cli, satisfaction, analysis):
        if getattr(module, "validate_problem", None) is original:
            monkeypatch.setattr(module, "validate_problem", counting)
    problem = [] if argv == ["verify-example"] else ["--file", demo_file]
    assert run([argv[0], *problem, *argv[1:]]) == 0
    assert len(counted) == 1


@pytest.mark.parametrize("command", ["solve", "degrees"])
@pytest.mark.parametrize("precise", [[], ["--precise"]], ids=["rounded", "precise"])
def test_theta_prints_what_the_three_flags_print(capsys, demo_file, command, precise):
    assert run([command, "--file", demo_file, "--theta", "0.3", *precise]) == 0
    via_theta = capsys.readouterr()
    argv = [command, "--file", demo_file, "--alpha", "0.3", "--beta", "0.3", "--gamma", "0.3"]
    assert run([*argv, *precise]) == 0
    assert capsys.readouterr() == via_theta


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

    @pytest.mark.parametrize("lambdas", [(), (0.25, 0.5, 0.75, 1.0)], ids=["no-lambdas", "lambdas"])
    @pytest.mark.parametrize("step", [0.05, 0.07, 0.45])
    @pytest.mark.parametrize("format", ["csv", "markdown"])
    def test_streamed_text_is_render_table_text(
        self, capsys, tmp_path, demo_file, demo_problem, format, step, lambdas
    ):
        # The table is written a block at a time (9 261, 3 375 and 64 rows:
        # full blocks, a partial last one, a single one); the bytes are
        # render_table's, on standard output and in an --out file alike.
        want = render_table(grid_sweep(demo_problem, step, lambdas), format).encode("utf-8")
        argv = ["sweep", "--file", demo_file, "--step", str(step), "--format", format]
        if lambdas:
            argv += ["--lambdas", ",".join(map(str, lambdas))]
        assert run(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == hashlib.sha256(want).hexdigest()
        dest = tmp_path / "sweep.txt"
        assert run([*argv, "--out", str(dest)]) == 0
        rows = len(unit_grid(step)) ** 3
        assert capsys.readouterr() == (f"wrote {rows} row(s) to {dest}\n", "")
        assert dest.read_bytes() == want

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path, demo_file):
        dest = tmp_path / "missing" / "sweep.csv"
        assert run(["sweep", "--file", demo_file, "--step", "0.5", "--out", str(dest)]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{dest}'\n"
        )
        assert not dest.parent.exists()

    def test_peak_memory_holds_one_copy_of_the_text(self, demo_file):
        # Written to a sink that keeps nothing, the step-0.02 table (51**3
        # rows of 58 bytes of text) is held as its arrays, 72 bytes a row
        # with four lambdas, and one block's text at a time.  Rendering the
        # whole text before writing it would hold another 58 bytes a row
        # at least, and a joined copy of it more.
        rows = len(unit_grid(0.02)) ** 3
        argv = ["sweep", "--file", demo_file, "--step", "0.02", "--lambdas", "0.25,0.5,0.75,1"]
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 136 * rows


# A white problem: its critical and ideal values coincide (f = 10).
WHITE_DOC = json.dumps({
    "objective": [[3, 3], [2, 2]],
    "matrix": [[[1, 1], [1, 1]], [[2, 2], [1, 1]]],
    "rhs": [[4, 4], [6, 6]],
})


@pytest.mark.parametrize("argv, out", [
    (["degrees", "--theta", "0.5"],
     "f = 10.00\nmu = 0.5000\nmu_tilde[lambda=1] = 1.0000\npleased (mu >= 0.5): yes\n"
     "satisfactory (mu_tilde >= 0.5): yes\n"),
    (["sweep", "--step", "0.5", "--lambdas", "0.5,1"],
     "alpha,beta,gamma,f,mu,mu_tilde[0.5],mu_tilde[1]\n"
     + "".join(f"{a},{b},{g},10.00,0.5000,1.0000,1.0000\n"
               for a, b, g in itertools.product(("0", "0.5", "1"), repeat=3))),
], ids=["degrees", "sweep"])
def test_warning_prints_once_as_plain_text(capsys, tmp_path, argv, out):
    # The suite turns every warning into an error, and run still records
    # this one: the degenerate bounds warn once per lambda scored (twice in
    # the sweep), and the text is printed once, with no source location.
    path = tmp_path / "white.json"
    path.write_text(WHITE_DOC, encoding="utf-8")
    assert run([*argv, "--file", str(path)]) == 0
    assert capsys.readouterr() == (
        out,
        "warning: critical and ideal values coincide (effectively white problem); "
        "reporting satisfaction degree 1\n",
    )


class TestMonotonicityCommand:
    def test_reports_clean_axis(self, capsys, demo_file):
        assert run(["monotonicity", "--file", demo_file, "--axis", "gamma"]) == 0
        out = capsys.readouterr().out
        assert "axis = gamma (expected nonincreasing)" in out
        assert "violations = 0" in out

    def test_requires_axis(self, capsys, demo_file):
        assert run(["monotonicity", "--file", demo_file]) == 3
        capsys.readouterr()

    def test_prints_each_violation(self, capsys, demo_file, monkeypatch):
        report = analysis.MonotonicityReport(
            axis="beta", direction="nondecreasing", axis_values=(0.0, 0.5, 1.0),
            violations=((((0.5, 0.0, 1.0), (0.5, 0.5, 1.0)), (30000.5, 29999.25)),),
        )
        monkeypatch.setattr(cli, "check_monotonicity", lambda p, axis, step: report)
        assert run(["monotonicity", "--file", demo_file, "--axis", "beta"]) == 0
        assert capsys.readouterr().out == (
            "axis = beta (expected nondecreasing)\n"
            "pairs checked = 18\n"
            "violations = 1\n"
            "  (0.5,0,1) -> (0.5,0.5,1): f 30000.5 -> 29999.25\n"
        )


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

    def test_hit_lines_match_percent_format(self, capsys, demo_file, demo_problem):
        argv = ["satisfactory", "--file", demo_file, "--mu0", "0.4", "--lambda", "0.9",
                "--step", "0.05"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        triples, degrees = find_satisfactory(demo_problem, 0.4, 0.9, 0.05)
        assert len(lines) == 1 + len(degrees) > 1 + analysis._BLOCK
        assert lines[1:] == [
            "  alpha=%g beta=%g gamma=%g  mu_tilde=%.4f" % (*triple, degree)
            for triple, degree in zip(triples.tolist(), degrees.tolist())
        ]

    def test_no_hits_print_the_count_alone(self, capsys, demo_file, monkeypatch):
        monkeypatch.setattr(
            analysis, "_satisfactory_hits",
            lambda p, mu0, lam, step: ((0.0, 0.5, 1.0), np.zeros(0, dtype=np.intp), np.zeros(0)),
        )
        argv = ["satisfactory", "--file", demo_file, "--mu0", "1", "--step", "0.5"]
        assert run(argv) == 0
        assert capsys.readouterr().out == (
            "0 of 27 grid setting(s) reach mu_tilde[lambda=1] >= 1\n"
        )


class TestVerifyExample:
    def test_exits_zero_with_all_cells_matching(self, capsys):
        assert run(["verify-example"]) == 0
        out = capsys.readouterr().out
        assert "result: 56 of 56 cells match" in out
        assert "FAIL" not in out

    def test_solves_only_its_two_bounds(self, capsys, caplog):
        # Both bounds are reference settings, solved first and last in
        # lexicographic order; their bases certify the other four.
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            assert run(["verify-example"]) == 0
        capsys.readouterr()
        records = [(r.name, r.levelname) for r in caplog.records]
        assert records == [("greylp.lp_solver", "DEBUG")] * 2 + [("greylp.satisfaction", "INFO")]
        messages = [r.getMessage() for r in caplog.records]
        assert all(m.startswith("solve_max: cold start") for m in messages[:2])
        assert messages[2] == (
            "solve_grid: 6 points, 2 cold solves, 0 warm starts, 4 certified, 2 bases, "
            "0 non-optimal"
        )

    def test_reports_a_cell_that_misses(self, capsys, monkeypatch):
        rows = list(bundled.REFERENCE_POSITIONED)
        rows[2] = ((0.6, 0.6, 0.6), 42995.0, 0.54724)
        monkeypatch.setattr(bundled, "REFERENCE_POSITIONED", tuple(rows))
        assert run(["verify-example"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  f(0.6,0.6,0.6): computed 42995.889908, reference 42995.0, "
            "|diff| 8.90e-01 (tol 0.01)"
        ]
        assert lines[-1] == "result: 55 of 56 cells match"

    def test_is_deterministic(self, capsys):
        run(["verify-example"])
        first = capsys.readouterr().out
        run(["verify-example"])
        assert capsys.readouterr().out == first

    def test_checks_the_shipped_demo_file(self):
        # README's Quick start and the benchmark's demo-grid workload read
        # data/demo_problem.json; verify-example checks the bundled copy.
        demo = pathlib.Path(__file__).parents[1] / "data" / "demo_problem.json"
        assert demo.read_bytes() == bundled.EXAMPLE_PROBLEM_JSON.encode("utf-8")


@pytest.mark.parametrize("argv, message", [
    (["bounds"], "2 points, 2 cold solves, 0 warm starts, 0 certified, 2 bases"),
    (["degrees", "--theta", "0.4"], "3 points, 2 cold solves, 0 warm starts, 1 certified, 2 bases"),
    (["sweep", "--step", "0.05"],
     "9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases"),
    (["satisfactory", "--mu0", "0.5", "--step", "0.05"],
     "9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases"),
    (["monotonicity", "--axis", "gamma", "--step", "0.05"],
     "9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases"),
    (["verify-example"], "6 points, 2 cold solves, 0 warm starts, 4 certified, 2 bases"),
], ids=["bounds", "degrees", "sweep", "satisfactory", "monotonicity", "verify-example"])
def test_one_kernel_call_per_command(capsys, caplog, demo_file, argv, message):
    # Each command solves its settings and both bounds in one call of the
    # stacked kernel, which logs one INFO record.
    file = [] if argv[0] == "verify-example" else ["--file", demo_file]
    with caplog.at_level(logging.INFO, logger="greylp"):
        assert run([argv[0], *file, *argv[1:]]) == 0
    capsys.readouterr()
    assert [r.getMessage() for r in caplog.records] == [
        f"solve_grid: {message}, 0 non-optimal"
    ]


_UNDEFINED = "error: positioned program is unbounded; satisfaction analysis is undefined\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["sweep", "--step", "0.02"], 2, "", _UNDEFINED),
    (["sweep", "--step", "0.02", "--lambdas", "0.5", "--format", "markdown"], 2, "", _UNDEFINED),
    (["satisfactory", "--mu0", "0.5", "--step", "0.02"], 2, "", _UNDEFINED),
    (["monotonicity", "--axis", "gamma", "--step", "0.02"], 0,
     "axis = gamma (expected nonincreasing)\npairs checked = 130050\nviolations = 0\n"
     "skipped = 2601\n", ""),
    (["monotonicity", "--axis", "alpha", "--step", "0.02"], 0,
     "axis = alpha (expected nondecreasing)\npairs checked = 130050\nviolations = 0\n"
     "skipped = 2550\n", ""),
    (["monotonicity", "--axis", "beta", "--step", "0.02"], 0,
     "axis = beta (expected nondecreasing)\npairs checked = 130050\nviolations = 0\n"
     "skipped = 2550\n", ""),
], ids=["sweep", "sweep-markdown", "satisfactory", "monotonicity-gamma", "monotonicity-alpha",
        "monotonicity-beta"])
def test_unbounded_slice_is_settled_by_one_ray(capsys, caplog, uncapped_file, argv, code, out,
                                               err):
    # Every program of the gamma = 0 slice of max x s.t. [0, 1].x <= [5, 6]
    # is unbounded.  The ray of its first cold solve settles all 51 x 51 of
    # its points, and each command prints what solving every point cold
    # would make it print.
    with caplog.at_level(logging.INFO, logger="greylp"):
        assert run([argv[0], "--file", uncapped_file, *argv[1:]]) == code
    assert capsys.readouterr() == (out, err)
    assert [r.getMessage() for r in caplog.records] == [
        "solve_grid: 132651 points, 2 cold solves, 0 warm starts, 132649 certified, 1 bases, "
        "2601 non-optimal"
    ]


@pytest.mark.parametrize("size", [3, 10])
@pytest.mark.parametrize("seed", range(5))
def test_degrees_at_the_bounds_are_exact(capsys, tmp_path, seed, size):
    # A query at a bound triple is the bound's own point, so its
    # satisfaction degree is exactly 0 at (0, 0, 1) and 1 at (1, 1, 0).
    p = many_basis_problem(np.random.default_rng(seed), size, size)
    path = tmp_path / "p.json"
    path.write_text(problem_text(ProblemFile(problem=p)), encoding="utf-8")
    for triple, degree in (((0, 0, 1), "0.0"), ((1, 1, 0), "1.0")):
        for lam in ("0", "0.5", "1"):
            argv = ["degrees", "--file", str(path), "--lambda", lam, "--precise"]
            argv += [f"--{name}={v}" for name, v in zip(("alpha", "beta", "gamma"), triple)]
            assert run(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[2] == f"mu_tilde[lambda={lam}] = {degree}"


def _declared(parser):
    """Each option of ``parser``, in order, as (flags, dest, default,
    required, choices, metavar, nargs, help); a subcommand option lists
    its subcommands' names as its choices."""
    return [
        (tuple(a.option_strings), a.dest, a.default, a.required,
         list(a.choices) if isinstance(a.choices, dict) else a.choices, a.metavar, a.nargs, a.help)
        for a in parser._actions
    ]


def _subcommands():
    """The top-level parser's subcommand option."""
    [sub] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


# The command line, as the parser declares it: its help output and usage
# errors are built from these fields alone.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None, None, 0,
         "show this help message and exit")
_FILE = (("--file",), "file", None, True, None, None, None, "path to a problem JSON file")
_PRECISE = (("--precise",), "precise", False, False, None, None, 0, "print full-precision numbers")
_COEFFICIENTS = [
    (("--alpha",), "alpha", None, False, None, None, None,
     "objective position coefficient in [0, 1]"),
    (("--beta",), "beta", None, False, None, None, None,
     "right-hand-side position coefficient in [0, 1]"),
    (("--gamma",), "gamma", None, False, None, None, None,
     "constraint-matrix position coefficient in [0, 1]"),
    (("--theta",), "theta", None, False, None, None, None,
     "single position coefficient applied to all three roles"),
]
_LAMBDA = (("--lambda",), "lam", 1.0, False, None, None, None,
           "attitude weight in [0, 1] (default 1)")
_STEP_01 = (("--step",), "step", 0.1, False, None, None, None,
            "grid step in (0, 0.5] (default 0.1)")

SUBCOMMANDS = {
    "validate": ("Parse a problem file and report whether it is valid.", [_HELP, _FILE]),
    "solve": (
        "Solve the positioned program for one coefficient setting.",
        [_HELP, _FILE, *_COEFFICIENTS, _PRECISE],
    ),
    "bounds": ("Compute the critical and ideal optimal values.", [_HELP, _FILE, _PRECISE]),
    "degrees": (
        "Compute pleased and satisfaction degrees for one setting.",
        [_HELP, _FILE, *_COEFFICIENTS, _LAMBDA,
         (("--mu0",), "mu0", 0.5, False, None, None, None,
          "grey target threshold in [0, 1] (default 0.5)"),
         _PRECISE],
    ),
    "sweep": (
        "Tabulate optima and degrees over a uniform coefficient grid.",
        [_HELP, _FILE, _STEP_01,
         (("--lambdas",), "lambdas", (), False, None, None, None,
          "comma-separated attitude weights to tabulate"),
         (("--format",), "format", "csv", False, ("csv", "markdown"), None, None,
          "output format (default csv)"),
         (("--out",), "out", None, False, None, None, None,
          "write the table to this file instead of standard output")],
    ),
    "monotonicity": (
        "Check the expected ordering of optima along one coefficient axis.",
        [_HELP, _FILE,
         (("--axis",), "axis", None, True, ("alpha", "beta", "gamma"), None, None,
          "coefficient axis to probe"),
         (("--step",), "step", 0.25, False, None, None, None,
          "grid step in (0, 0.5] (default 0.25)")],
    ),
    "satisfactory": (
        "List grid settings whose satisfaction degree reaches a target.",
        [_HELP, _FILE,
         (("--mu0",), "mu0", None, True, None, None, None, "grey target threshold in [0, 1]"),
         _LAMBDA, _STEP_01],
    ),
    "verify-example": (
        "Recompute the bundled demo problem's reference tables and compare.", [_HELP]
    ),
}


class TestParserDeclaration:
    """The parser's declared fields, pinned option by option; they do
    not depend on the terminal's width."""

    def test_top_level(self):
        parser = cli._parser()
        assert parser.prog == "greylp"
        assert parser.description == (
            "Whiten, solve, and rank interval-coefficient linear programs."
        )
        assert _declared(parser) == [
            _HELP,
            ((), "command", None, True, list(SUBCOMMANDS), "SUBCOMMAND", argparse.PARSER, None),
        ]

    def test_subcommand_names_and_help_in_order(self):
        listed = [(a.dest, a.help) for a in _subcommands()._choices_actions]
        assert listed == [(name, help_) for name, (help_, _) in SUBCOMMANDS.items()]

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_subcommand_options(self, name):
        help_, options = SUBCOMMANDS[name]
        sp = _subcommands().choices[name]
        assert (sp.prog, sp.description) == (f"greylp {name}", help_)
        assert _declared(sp) == options


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
# scored as arrays, the next three before degree cells were formatted from a
# lookup table (step 0.02 puts many more cells next to a rounding tie).
# Default-format output does not change when every optimum moves by up to 16
# ulp (test_golden_stdout_holds_under_noise), so these seven match across
# BLAS kernels whose optima agree that closely.  verify-example prints each cell's |diff| to three digits and bounds
# --precise the repr() of each bound, so those two pin the solver's own bits;
# they are the same under OpenBLAS's SkylakeX, Prescott, Haswell, Sandybridge
# and Nehalem kernels.  degrees --precise is pinned by value
# (test_golden_precise_degrees_lie_within_4_ulp_of_exact).
GOLDEN_STDOUT = {
    ("sweep", "--step", "0.05", "--lambdas", "0.25,0.5,0.75,1"):
        "1ac4fa9eacb623b1ddcbb8d349d2150a9c996c49e0fcd408ea165e2580c12d93",
    ("sweep", "--step", "0.1", "--lambdas", "0,0.5,1", "--format", "markdown"):
        "137d25e8d888b57ac020c58ed0175305d17e8740b746bfe51a1a240278c309ce",
    ("satisfactory", "--mu0", "0.5", "--lambda", "0.5", "--step", "0.05"):
        "e9208c54d70554a213af641607d4b0885a9bf8cb24b2e1dd2279f3376e25ffed",
    ("monotonicity", "--axis", "gamma", "--step", "0.05"):
        "01adac0f90bdf2e648c067a8dc54a18903bce3adf8a202aea374c303418551fc",
    ("sweep", "--step", "0.02", "--lambdas", "0,0.25,0.5,0.75,1"):
        "e1e8f758f51118143d7f1f0d67de1ccf822482b4ab7503385ab860738934f8e3",
    ("satisfactory", "--mu0", "0.4", "--lambda", "0.9", "--step", "0.02"):
        "5a9664ad4d7c9a5b504d08d5fbcc18dd56e604a2fd50359b085e9d7b153c71d0",
    ("sweep", "--step", "0.05", "--lambdas", "0.5", "--format", "markdown"):
        "b4b0f4904646732f84cb86439c250055550d4d83d327d72a1ff9f108b925757a",
    ("verify-example",):
        "3c44a9bef0b9392cd83ce79e35404a3c0b879e49dfc14af53c8b59958e20d11e",
    ("bounds", "--precise"):
        "aca0aeff99ccb4f7e441571892cf5c3766498728f88484636d3d95d30942cf2d",
}
DEFAULT_FORMAT = [
    argv for argv in sorted(GOLDEN_STDOUT) if argv[0] != "verify-example" and "--precise" not in argv
]


def _golden_id(argv):
    return "_".join(a.lstrip("-") for a in argv)


def _golden_out(capsys, demo_file, argv) -> str:
    file = [] if argv[0] == "verify-example" else ["--file", demo_file]  # it embeds the demo
    assert run([argv[0], *file, *argv[1:]]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=_golden_id)
def test_golden_stdout(capsys, demo_file, argv):
    out = _golden_out(capsys, demo_file, argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ulps", [1, 4, 16])
@pytest.mark.parametrize("argv", DEFAULT_FORMAT, ids=_golden_id)
def test_golden_stdout_holds_under_noise(monkeypatch, capsys, demo_file, argv, ulps, seed):
    # Every optimum the kernel returns, both bounds included, moved by
    # ``ulps`` units in the last place, each up or down at random: the
    # printed digits are not rounding noise.
    rng = np.random.default_rng(seed)
    solve = satisfaction._solve_points

    def noisy(*stack):
        values, *rest = solve(*stack)
        toward = np.where(rng.random(values.shape) < 0.5, np.inf, -np.inf)
        for _ in range(ulps):
            values = np.nextafter(values, toward)
        return (values, *rest)

    monkeypatch.setattr(satisfaction, "_solve_points", noisy)
    out = _golden_out(capsys, demo_file, argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[argv]


def test_golden_precise_degrees_lie_within_4_ulp_of_exact(capsys, demo_file):
    # degrees --precise prints the repr() of f, mu and mu_tilde, whose last
    # bits depend on the BLAS kernel (mu_tilde reads ...23796 under
    # OpenBLAS's SkylakeX kernel and ...238 under Prescott, Haswell,
    # Sandybridge and Nehalem).  Each must lie within 4 ulp of its exact
    # value: f and both bounds proven by exact_check, the degrees computed
    # from them in rational arithmetic.
    p = parse_problem(bundled.EXAMPLE_PROBLEM_JSON).problem

    def exact(*triple):
        lp = build_positioned(p, uniform_coefficients(*triple, p.m, p.n))
        status, value = exact_check(lp, solve_max(lp))
        assert status == "optimal"
        return value

    f, critical, ideal = exact(0.4, 0.4, 0.4), exact(0, 0, 1), exact(1, 1, 0)
    mu = (1 - critical / f) / 2 + f / ideal / 2
    mu_tilde = (f - critical) / (ideal - critical)  # lambda = 1
    lines = _golden_out(capsys, demo_file, ("degrees", "--theta", "0.4", "--precise")).splitlines()
    names = [line.partition(" = ")[0] for line in lines[:3]]
    assert names == ["f", "mu", "mu_tilde[lambda=1]"]
    assert lines[3:] == ["pleased (mu >= 0.5): yes", "satisfactory (mu_tilde >= 0.5): no"]
    for line, want in zip(lines, (f, mu, mu_tilde)):
        got = float(line.partition(" = ")[2])
        assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(float(want))), line


def _src_env():
    """The environment of a fresh interpreter that imports this greylp."""
    src = str(pathlib.Path(greylp.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_grid_commands_leave_numpy_ma_unimported(demo_file):
    # Importing numpy.ma adds about a megabyte of resident memory.  np.unique
    # imports it when called without return_inverse, so a grid command that
    # did would carry it in its peak RSS.  The csv module, which the CSV
    # renderer does not need, costs about a millisecond per start.  Only a
    # fresh interpreter shows either.
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
        "print(codes, 'numpy.ma' in sys.modules, 'csv' in sys.modules)\n"
    )
    env = _src_env()
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.stdout == "[0, 0, 0, 0] False False\n", done.stderr


def test_import_builds_no_digit_table(demo_file):
    # The renderers' digit table is built on first use, so start-up (and a
    # command that renders nothing) does not pay for it.
    script = (
        "import greylp.cli, greylp.analysis as analysis\n"
        "print(analysis._digit_groups.cache_info().currsize)\n"
        "greylp.cli.run(['sweep', '--file', %r, '--step', '0.5'])\n"
        "print(analysis._digit_groups.cache_info().currsize)\n"
    )
    env = _src_env()
    done = subprocess.run(
        [sys.executable, "-c", script % demo_file], capture_output=True, text=True, env=env,
        timeout=120,
    )
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1], len(lines)) == ("0", "1", 2 + 27 + 1), done.stderr


def test_module_entry_point_runs_the_command_line(capsys, tmp_path):
    # ``python -m greylp`` goes through __main__ and cli.main, which exits
    # with run's code and prints what run prints.
    env = _src_env()

    def entry(*argv):
        return subprocess.run(
            [sys.executable, "-m", "greylp", *argv], capture_output=True, text=True, env=env,
            timeout=120,
        )

    done = entry("verify-example")
    assert run(["verify-example"]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    missing = str(tmp_path / "missing.json")
    done = entry("bounds", "--file", missing)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: cannot read problem file {missing!r}: No such file or directory\n"
    )


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


def test_cold_degrees_query_solves_its_bounds_from_its_basis(capsys, caplog, tmp_path):
    # A 60x60 query runs parse, validate and whiten, solves its own setting
    # cold and, in the same kernel call, both bounds from that basis.  The
    # ideal program pivots on from the query's basis (in 2 pivots); a
    # cached basis certifies the critical one, which logs no record.
    p = _seeded_problem(60, seed=2012)
    path = tmp_path / "synthetic60.json"
    path.write_text(problem_text(ProblemFile(problem=p)), encoding="utf-8")
    argv = ["degrees", "--file", str(path), "--theta", "0.3", "--precise"]
    with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
        code = run(argv)
    assert code == 0
    starts = [r.getMessage().split(",")[0] for r in caplog.records]
    assert starts == ["solve_max: cold start", "solve_max: warm start"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == f"f = {positioned_value(p, uniform_coefficients(0.3, 0.3, 0.3, 60, 60))!r}"
