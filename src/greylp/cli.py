"""Command-line surface: problem-file ingestion and every analysis flow.

Problem files are JSON documents::

    {
      "name": "optional text",
      "description": "optional text",
      "objective": [[lo, hi], ...],
      "matrix": [[[lo, hi], ...], ...],
      "rhs": [[lo, hi], ...]
    }

The subcommands, with their help texts and options, are declared once,
in the table :data:`_COMMANDS`.

Exit codes: 0 success, 1 validation/parse error, 2 computation failure
(unbounded, iteration cap, or a grid whose allocation numpy refuses), 3
usage error.
Error messages go to the error stream; identical invocations produce
identical bytes on the output stream.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import pathlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import bundled
from .analysis import (
    _DEGREE_DECIMALS,
    _VALUE_DECIMALS,
    _hit_lines,
    _table_blocks,
    check_monotonicity,
    grid_sweep,
    lambda_sweep,
)
from .errors import (
    DegenerateBoundsWarning,
    GreyLPError,
    ParseError,
    SolverFailure,
    UnboundedValueError,
    ValidationError,
)
from .grey_core import (
    GreyLP,
    Violation,
    _REALS,
    _STEP,
    _UNIT,
    _interval_violations,
    uniform_coefficients,
)
from .satisfaction import _solve_positioned, _triple_text, bounds

__all__ = ["ProblemFile", "parse_problem", "run", "main"]


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem document: the grey LP plus optional metadata."""

    problem: GreyLP
    name: str | None = None
    description: str | None = None


_REQUIRED_FIELDS = ("objective", "matrix", "rhs")
_OPTIONAL_FIELDS = ("name", "description")


def _pair_array(items, path: str) -> np.ndarray:
    """A decoded list of [lo, hi] pairs as a k x 2 float array.  Anything
    else raises the :class:`ParseError` of the first bad entry.  The types
    are checked by set operations and the pairs converted by one numpy
    call; only a list with a bad entry is walked, to name that entry."""
    if type(items) is not list:
        raise ParseError(f"{path}: expected a list of [lo, hi] pairs")
    # A bool is not a number here, so types are compared exactly.
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        bounds = list(itertools.chain.from_iterable(items))
        if set(map(type, bounds)) <= _REALS:
            with contextlib.suppress(OverflowError):  # named by the walk below
                return np.array(bounds, dtype=float).reshape(-1, 2)
    # Some entry failed a check above: name the first one.
    for i, pair in enumerate(items):
        if type(pair) is not list or len(pair) != 2:
            raise ParseError(f"{path}[{i}]: expected a [lo, hi] pair, got {pair!r}")
        for bound in pair:
            if type(bound) not in _REALS:
                raise ParseError(f"{path}[{i}]: interval bounds must be numbers, got {bound!r}")
            try:
                float(bound)
            except OverflowError:
                raise ParseError(f"{path}[{i}]: interval bound is too large for a float") from None


def _matrix_array(rows) -> np.ndarray | list[np.ndarray]:
    """The matrix field as an m x n x 2 float array, or as one k x 2 array
    per row in an invalid file, whose rows differ in length or are none."""
    if type(rows) is not list:
        raise ParseError("matrix: expected a list of rows")
    if set(map(type, rows)) <= {list} and len(set(map(len, rows))) == 1:
        with contextlib.suppress(ParseError):  # named row by row below
            bounds = _pair_array(list(itertools.chain.from_iterable(rows)), "matrix")
            return bounds.reshape(len(rows), len(rows[0]), 2)
    return [_pair_array(row, f"matrix[{i}]") for i, row in enumerate(rows)]


def _dimension_violations(n: int, m: int, lengths: list[int]) -> list[Violation]:
    """The dimension findings on a problem file's blocks: ``n`` objective
    pairs, ``m`` right-hand sides and one matrix row per entry of
    ``lengths`` (its number of pairs).  Empty iff the blocks make an m x n
    problem with m, n >= 1."""
    violations: list[Violation] = []
    if n < 1:
        violations.append(Violation("objective", "dimension", "no variables"))
    if m < 1:
        violations.append(Violation("rhs", "dimension", "no constraints"))
    if len(lengths) != m:
        violations.append(
            Violation("matrix", "dimension", f"{len(lengths)} matrix rows but {m} right-hand sides")
        )
    violations += [
        Violation(f"matrix[{i}]", "dimension", f"{length} entries but {n} objective coefficients")
        for i, length in enumerate(lengths)
        if length != n
    ]
    return violations


def parse_problem(text: str) -> ProblemFile:
    """Parse problem-file JSON into a validated :class:`ProblemFile`.

    Malformed syntax raises :class:`ParseError` with line/column or field
    context; a well-formed document whose data breaks a problem invariant
    raises :class:`ValidationError` listing every violation at once.  Only
    a file reports dimension violations (:func:`_dimension_violations`):
    they are listed first, then the findings on every bound present, and
    such blocks never become a :class:`GreyLP`.

    The cyclic garbage collector is paused while the document is decoded,
    checked and turned into arrays, and restored (to on, unless the caller
    had paused it) once the decoded tree is freed.  Decoding allocates one
    tracked list per pair and per row, thousands for a 60 x 60 problem,
    each step towards a collection that scans everything alive in the
    process, yet the tree holds no cycle and none of it outlives the call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)  # the decoded tree dies with _parse's frame
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> ProblemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = sorted(set(doc) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS))
    if unknown:
        raise ParseError("unknown field(s): " + ", ".join(repr(k) for k in unknown))
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    meta: dict[str, str] = {}
    for key in _OPTIONAL_FIELDS:
        if key in doc:
            if not isinstance(doc[key], str):
                raise ParseError(f"{key}: expected a string, got {doc[key]!r}")
            meta[key] = doc[key]
    objective = _pair_array(doc["objective"], "objective")
    matrix = _matrix_array(doc["matrix"])
    rhs = _pair_array(doc["rhs"], "rhs")
    violations = _dimension_violations(len(objective), len(rhs), list(map(len, doc["matrix"])))
    if violations:  # no GreyLP has these shapes: check the intervals present, row by row
        violations += _interval_violations(*objective.T, "objective[{}]".format)
        for i, row in enumerate(matrix):
            violations += _interval_violations(*row.T, f"matrix[{i}][{{}}]".format)
        violations += _interval_violations(*rhs.T, "rhs[{}]".format)
        raise ValidationError(violations)
    problem = GreyLP(objective=objective, matrix=matrix, rhs=rhs)  # validates the intervals
    return ProblemFile(problem=problem, name=meta.get("name"), description=meta.get("description"))


class _UsageError(GreyLPError):
    """Bad command-line usage (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse funnels every usage problem here
        raise _UsageError(f"{self.prog}: {message}")


def _number_in(rng):
    """The argparse type of a number option: its text as a float in the
    range ``rng``."""

    def number(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
        if not rng.within(v):
            raise argparse.ArgumentTypeError(f"{text} is outside {rng.text}")
        return v

    return number


_unit = _number_in(_UNIT)


def _lambda_list(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        expected = f"expected a comma-separated list of values in {_UNIT.text}"
        raise argparse.ArgumentTypeError(expected)
    return tuple(_unit(part) for part in parts)


def _triple(args) -> tuple[float, float, float]:
    """The (alpha, beta, gamma) of the options."""
    has_abc = any(v is not None for v in (args.alpha, args.beta, args.gamma))
    if args.theta is not None:
        if has_abc:
            raise _UsageError("--theta cannot be combined with --alpha/--beta/--gamma")
        return (args.theta,) * 3
    if args.alpha is None or args.beta is None or args.gamma is None:
        raise _UsageError("provide either --theta or all three of --alpha, --beta, --gamma")
    return args.alpha, args.beta, args.gamma


def _fmt(v: float, decimals: int, precise: bool) -> str:
    return repr(float(v)) if precise else "%.*f" % (decimals, v)


def _load(path: str) -> ProblemFile:
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise ParseError(f"cannot read problem file {path!r}: {reason}") from None
    return parse_problem(text)


def _cmd_validate(args, pf) -> int:
    p = pf.problem
    label = f" ({pf.name})" if pf.name else ""
    print(f"ok: valid problem{label} with {p.n} variable(s), {p.m} constraint(s)")
    return 0


def _cmd_solve(args, pf) -> int:
    k = uniform_coefficients(*_triple(args), pf.problem.m, pf.problem.n)
    sol = _solve_positioned(pf.problem, k)
    print(f"f = {_fmt(sol.objective, _VALUE_DECIMALS, args.precise)}")
    xs = ", ".join(_fmt(v, 6, args.precise) for v in sol.x)
    print(f"x = ({xs})")
    return 0


def _cmd_bounds(args, pf) -> int:
    vb = bounds(pf.problem)
    print(f"critical = {_fmt(vb.critical, _VALUE_DECIMALS, args.precise)}")
    print(f"ideal = {_fmt(vb.ideal, _VALUE_DECIMALS, args.precise)}")
    return 0


def _cmd_degrees(args, pf) -> int:
    # The setting is scored as a table row is, so an undefined mu (ideal
    # value 0) prints nan.
    table = lambda_sweep(pf.problem, [_triple(args)], (args.lam,))
    (f,), (mu,), ((mu_tilde,),) = table.f, table.mu, table.mu_tilde
    print(f"f = {_fmt(f, _VALUE_DECIMALS, args.precise)}")
    print(f"mu = {_fmt(mu, _DEGREE_DECIMALS, args.precise)}")
    print(f"mu_tilde[lambda={args.lam:g}] = {_fmt(mu_tilde, _DEGREE_DECIMALS, args.precise)}")
    print(f"pleased (mu >= {args.mu0:g}): {'yes' if mu >= args.mu0 else 'no'}")
    print(f"satisfactory (mu_tilde >= {args.mu0:g}): {'yes' if mu_tilde >= args.mu0 else 'no'}")
    return 0


def _cmd_sweep(args, pf) -> int:
    table = grid_sweep(pf.problem, args.step, lambdas=args.lambdas)
    blocks = _table_blocks(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(blocks)
        print(f"wrote {len(table.f)} row(s) to {args.out}")
    else:
        sys.stdout.writelines(blocks)
    return 0


def _cmd_monotonicity(args, pf) -> int:
    report = check_monotonicity(pf.problem, args.axis, args.step)
    print(f"axis = {report.axis} (expected {report.direction})")
    print(f"pairs checked = {report.pair_count}")
    print(f"violations = {len(report.violations)}")
    if report.skipped:
        print(f"skipped = {len(report.skipped)}")
    for pair, (f_lo, f_hi) in report.violations:
        print(f"  {_triple_text(pair[0])} -> {_triple_text(pair[1])}: f {f_lo!r} -> {f_hi!r}")
    return 0


def _cmd_satisfactory(args, pf) -> int:
    sys.stdout.writelines(_hit_lines(pf.problem, args.mu0, args.lam, args.step))
    return 0


def _cmd_verify_example(args, pf) -> int:
    p = parse_problem(bundled.EXAMPLE_PROBLEM_JSON).problem
    # One table holds every cell.  Both bounds are reference settings, and
    # their bases certify the other four in the same kernel call.
    table = lambda_sweep(
        p, [triple for triple, _, _ in bundled.REFERENCE_POSITIONED], bundled.REFERENCE_LAMBDA_GRID
    )
    row = {tuple(t): i for i, t in enumerate(table.coefficients.tolist())}
    f, mu, mu_tilde = table.f.tolist(), table.mu.tolist(), table.mu_tilde.tolist()
    # Every cell as (label, computed, reference, tolerance), in print order.
    cells = []
    for triple, f_ref, mu_ref in bundled.REFERENCE_POSITIONED:
        i = row[triple]
        cells.append((f"f{_triple_text(triple)}", f[i], f_ref, bundled.F_TOL))
        cells.append((f"mu{_triple_text(triple)}", mu[i], mu_ref, bundled.MU_TOL))
    for triple, refs in bundled.REFERENCE_SATISFACTION:
        cells += [
            (f"mu_tilde[lambda={lam:g}]{_triple_text(triple)}", got, want, bundled.MU_TILDE_TOL)
            for lam, got, want in zip(bundled.REFERENCE_LAMBDA_GRID, mu_tilde[row[triple]], refs)
        ]
    passed = 0
    for label, got, want, tol in cells:
        diff = abs(got - want)
        ok = diff <= tol
        passed += ok
        print(
            f"{'PASS' if ok else 'FAIL'}  {label}: computed {got:.6f}, "
            f"reference {want}, |diff| {diff:.2e} (tol {tol:g})"
        )
    print(f"result: {passed} of {len(cells)} cells match")
    return 0 if passed == len(cells) else 1


# The options that several subcommands share, each a (flag, argparse
# keywords) pair.
_FILE = ("--file", dict(required=True, help="path to a problem JSON file"))
_PRECISE = ("--precise", dict(action="store_true", help="print full-precision numbers"))
_LAMBDA = ("--lambda", dict(dest="lam", type=_unit, default=1.0,
                            help="attitude weight in [0, 1] (default 1)"))
_COEFFICIENTS = (
    ("--alpha", dict(type=_unit, help="objective position coefficient in [0, 1]")),
    ("--beta", dict(type=_unit, help="right-hand-side position coefficient in [0, 1]")),
    ("--gamma", dict(type=_unit, help="constraint-matrix position coefficient in [0, 1]")),
    ("--theta", dict(type=_unit, help="single position coefficient applied to all three roles")),
)


def _step(default: float):
    """The --step option of a grid command whose default step is ``default``."""
    return "--step", dict(type=_number_in(_STEP), default=default,
                          help=f"grid step in (0, 0.5] (default {default:g})")


def _mu0(default: float | None):
    """The --mu0 option with its ``default``; without one it is required."""
    note = "" if default is None else f" (default {default:g})"
    return "--mu0", dict(type=_unit, default=default, required=default is None,
                         help=f"grey target threshold in [0, 1]{note}")


# The subcommands in help order, each as (name, help, handler, options).
# The handler is called as handler(args, pf), where pf is the ProblemFile
# that run loads from --file, or None for a subcommand without --file.
_COMMANDS = (
    ("validate", "Parse a problem file and report whether it is valid.", _cmd_validate, [_FILE]),
    ("solve", "Solve the positioned program for one coefficient setting.", _cmd_solve,
     [_FILE, *_COEFFICIENTS, _PRECISE]),
    ("bounds", "Compute the critical and ideal optimal values.", _cmd_bounds, [_FILE, _PRECISE]),
    ("degrees", "Compute pleased and satisfaction degrees for one setting.", _cmd_degrees,
     [_FILE, *_COEFFICIENTS, _LAMBDA, _mu0(0.5), _PRECISE]),
    ("sweep", "Tabulate optima and degrees over a uniform coefficient grid.", _cmd_sweep, [
        _FILE,
        _step(0.1),
        ("--lambdas", dict(type=_lambda_list, default=(),
                           help="comma-separated attitude weights to tabulate")),
        ("--format", dict(choices=("csv", "markdown"), default="csv",
                          help="output format (default csv)")),
        ("--out", dict(help="write the table to this file instead of standard output")),
    ]),
    ("monotonicity", "Check the expected ordering of optima along one coefficient axis.",
     _cmd_monotonicity, [
        _FILE,
        ("--axis", dict(required=True, choices=("alpha", "beta", "gamma"),
                        help="coefficient axis to probe")),
        _step(0.25),
    ]),
    ("satisfactory", "List grid settings whose satisfaction degree reaches a target.",
     _cmd_satisfactory, [_FILE, _mu0(None), _LAMBDA, _step(0.1)]),
    ("verify-example", "Recompute the bundled demo problem's reference tables and compare.",
     _cmd_verify_example, []),
)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser of :data:`_COMMANDS`, built once per process
    (parsing keeps no state in it: each call gets a fresh namespace)."""
    parser = _Parser(
        prog="greylp",
        description="Whiten, solve, and rank interval-coefficient linear programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, help_, handler, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(handler=handler)
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return parser


# Exit code of each error a command can raise; the first matching row wins,
# so the subclasses of GreyLPError come before it.
_EXIT_CODES = (
    (_UsageError, 3),
    ((UnboundedValueError, SolverFailure, MemoryError), 2),
    ((OSError, GreyLPError), 1),
)


def run(args) -> int:
    """Execute one command line and return the process exit code (see the
    module docstring).  The problem file of a subcommand that declares
    --file is loaded and parsed here, so its errors come before those of
    the options the handler checks.  The warnings the command issues are
    recorded, and each distinct text is printed once, after the command,
    as ``warning: <text>`` on the error stream.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateBoundsWarning)
        try:
            ns = _parser().parse_args(list(args))
            code = int(ns.handler(ns, _load(ns.file) if "file" in ns else None))
        except SystemExit as exc:  # --help prints and exits 0
            code = exc.code if isinstance(exc.code, int) else 0
        except (GreyLPError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))
    for text in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {text}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
