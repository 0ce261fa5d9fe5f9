"""Command-line surface: problem-file ingestion and every analysis flow.

Problem files are JSON documents::

    {
      "name": "optional text",
      "description": "optional text",
      "objective": [[lo, hi], ...],
      "matrix": [[[lo, hi], ...], ...],
      "rhs": [[lo, hi], ...]
    }

Subcommands: ``validate``, ``solve``, ``bounds``, ``degrees``, ``sweep``,
``monotonicity``, ``satisfactory``, and ``verify-example`` (recomputes the
bundled demo problem's reference tables from embedded data).

Exit codes: 0 success, 1 validation/parse error, 2 solve failure (unbounded
or iteration cap), 3 usage error.  Error messages go to the error stream;
identical invocations produce identical bytes on the output stream.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

from . import bundled
from .analysis import (
    _coeff_texts,
    _degree_texts,
    _solve_grid,
    check_monotonicity,
    find_satisfactory,
    grid_sweep,
    render_table,
    unit_grid,
)
from .errors import (
    GreyLPError,
    ParseError,
    SolverFailure,
    UnboundedValueError,
    ValidationError,
)
from .grey_core import (
    GreyLP,
    PositionCoefficients,
    theta_coefficients,
    uniform_coefficients,
    validate_problem,
)
from .satisfaction import (
    _bounds,
    _solve_positioned,
    bounds,
    is_lambda_satisfactory,
    is_pleased,
    lambda_satisfaction,
    pleased_degree,
)

__all__ = ["ProblemFile", "parse_problem", "serialize_problem", "run", "main"]


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem document: the grey LP plus optional metadata."""

    problem: GreyLP
    name: str | None = None
    description: str | None = None


_REQUIRED_FIELDS = ("objective", "matrix", "rhs")
_OPTIONAL_FIELDS = ("name", "description")


def _as_pair(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{path}: expected a [lo, hi] pair, got {value!r}")
    out = []
    for bound in value:
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise ParseError(f"{path}: interval bounds must be numbers, got {bound!r}")
        out.append(float(bound))
    return out[0], out[1]


def _as_pair_list(value, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of [lo, hi] pairs")
    return tuple(_as_pair(item, f"{path}[{i}]") for i, item in enumerate(value))


_NUMBERS = {int, float}


def _pair_bounds(items) -> list | None:
    """Every bound of ``items`` (decoded JSON) in order, if it is a list of
    [lo, hi] pairs of numbers (a bool is not a number here); else None."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        flat = list(itertools.chain.from_iterable(items))
        if set(map(type, flat)) <= _NUMBERS:
            return flat
    return None


def _pair_array(value, path: str) -> np.ndarray:
    """A list of [lo, hi] pairs as a k x 2 float array.  Anything else
    raises the :class:`ParseError` of the first bad entry."""
    flat = _pair_bounds(value) if type(value) is list else None
    if flat is None:
        flat = _as_pair_list(value, path)
    return np.array(flat, dtype=float).reshape(-1, 2)


def _matrix_array(rows) -> np.ndarray | list[np.ndarray]:
    """The matrix field as an m x n x 2 float array, or as one k x 2 array
    per row when the rows differ in length."""
    if not isinstance(rows, list):
        raise ParseError("matrix: expected a list of rows")
    flat = None
    if set(map(type, rows)) <= {list}:
        flat = _pair_bounds(list(itertools.chain.from_iterable(rows)))
    if flat is None:
        return [_pair_array(row, f"matrix[{i}]") for i, row in enumerate(rows)]
    bounds = np.array(flat, dtype=float).reshape(-1, 2)
    lengths = [len(row) for row in rows]
    if len(set(lengths)) == 1:
        return bounds.reshape(len(rows), lengths[0], 2)
    return np.split(bounds, np.cumsum(lengths)[:-1]) if rows else []


def parse_problem(text: str) -> ProblemFile:
    """Parse problem-file JSON into a validated :class:`ProblemFile`.

    Malformed syntax raises :class:`ParseError` with line/column or field
    context; a well-formed document whose data breaks a problem invariant
    raises :class:`ValidationError` listing every violation at once.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
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
    problem = GreyLP(objective=objective, matrix=matrix, rhs=rhs)
    violations = validate_problem(problem)
    if violations:
        raise ValidationError(violations)
    return ProblemFile(problem=problem, name=meta.get("name"), description=meta.get("description"))


def serialize_problem(pf: ProblemFile) -> str:
    """Render a :class:`ProblemFile` back to problem-file JSON.

    Round-trips: ``parse_problem(serialize_problem(pf)) == pf`` for every
    valid ``pf``.
    """
    doc: dict = {}
    if pf.name is not None:
        doc["name"] = pf.name
    if pf.description is not None:
        doc["description"] = pf.description
    p = pf.problem
    doc["objective"] = np.column_stack([p.c_lo, p.c_hi]).tolist()
    doc["matrix"] = [
        np.column_stack([lo[:k], hi[:k]]).tolist()
        for lo, hi, k in zip(p.A_lo, p.A_hi, p.row_lengths.tolist())
    ]
    doc["rhs"] = np.column_stack([p.b_lo, p.b_hi]).tolist()
    return json.dumps(doc, indent=2) + "\n"


class _UsageError(GreyLPError):
    """Bad command-line usage (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse funnels every usage problem here
        raise _UsageError(f"{self.prog}: {message}")


def _unit(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return v


def _step(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < v <= 0.5:
        raise argparse.ArgumentTypeError(f"{text} is outside (0, 0.5]")
    return v


def _lambda_list(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated list of values in [0, 1]")
    return tuple(_unit(part) for part in parts)


def _add_file(sp) -> None:
    sp.add_argument("--file", required=True, help="path to a problem JSON file")


def _add_precise(sp) -> None:
    sp.add_argument("--precise", action="store_true", help="print full-precision numbers")


def _add_coefficients(sp) -> None:
    sp.add_argument("--alpha", type=_unit, help="objective position coefficient in [0, 1]")
    sp.add_argument("--beta", type=_unit, help="right-hand-side position coefficient in [0, 1]")
    sp.add_argument("--gamma", type=_unit, help="constraint-matrix position coefficient in [0, 1]")
    sp.add_argument(
        "--theta", type=_unit, help="single position coefficient applied to all three roles"
    )


def _coefficients(args, p: GreyLP) -> PositionCoefficients:
    has_abc = any(v is not None for v in (args.alpha, args.beta, args.gamma))
    if args.theta is not None:
        if has_abc:
            raise _UsageError("--theta cannot be combined with --alpha/--beta/--gamma")
        return theta_coefficients(args.theta, p.m, p.n)
    if args.alpha is None or args.beta is None or args.gamma is None:
        raise _UsageError("provide either --theta or all three of --alpha, --beta, --gamma")
    return uniform_coefficients(args.alpha, args.beta, args.gamma, p.m, p.n)


def _fmt_value(v: float, precise: bool) -> str:
    return repr(float(v)) if precise else "%.2f" % v


def _fmt_degree(v: float, precise: bool) -> str:
    return repr(float(v)) if precise else "%.4f" % v


def _fmt_triple(t) -> str:
    return "(%g,%g,%g)" % tuple(t)


def _load(path: str) -> ProblemFile:
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise ParseError(f"cannot read problem file {path!r}: {reason}") from None
    return parse_problem(text)


def _cmd_validate(args) -> int:
    pf = _load(args.file)
    p = pf.problem
    label = f" ({pf.name})" if pf.name else ""
    print(f"ok: valid problem{label} with {p.n} variable(s), {p.m} constraint(s)")
    return 0


def _cmd_solve(args) -> int:
    pf = _load(args.file)
    k = _coefficients(args, pf.problem)
    sol = _solve_positioned(
        pf.problem, k,
        unbounded="positioned program is unbounded",
        failed="solver finished with status {}",
    )
    print(f"f = {_fmt_value(sol.objective, args.precise)}")
    xs = ", ".join(repr(float(v)) if args.precise else "%.6f" % v for v in sol.x)
    print(f"x = ({xs})")
    return 0


def _cmd_bounds(args) -> int:
    pf = _load(args.file)
    vb = bounds(pf.problem)
    print(f"critical = {_fmt_value(vb.critical, args.precise)}")
    print(f"ideal = {_fmt_value(vb.ideal, args.precise)}")
    return 0


def _cmd_degrees(args) -> int:
    pf = _load(args.file)
    p = pf.problem
    k = _coefficients(args, p)
    # Parsing validated the problem.  The query is solved cold, as
    # positioned_value solves it, and both bounds start from its basis.
    sol = _solve_positioned(p, k)
    vb, _ = _bounds(p, sol.basis)
    f = sol.objective
    mu = pleased_degree(f, vb)
    mu_tilde = lambda_satisfaction(f, vb, args.lam)
    print(f"f = {_fmt_value(f, args.precise)}")
    print(f"mu = {_fmt_degree(mu, args.precise)}")
    print(f"mu_tilde[lambda={args.lam:g}] = {_fmt_degree(mu_tilde, args.precise)}")
    print(f"pleased (mu >= {args.mu0:g}): {'yes' if is_pleased(mu, args.mu0) else 'no'}")
    print(
        f"satisfactory (mu_tilde >= {args.mu0:g}): "
        f"{'yes' if is_lambda_satisfactory(mu_tilde, args.mu0) else 'no'}"
    )
    return 0


def _cmd_sweep(args) -> int:
    pf = _load(args.file)
    table = grid_sweep(pf.problem, args.step, lambdas=args.lambdas)
    text = render_table(table, args.format)
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(table.f)} row(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_monotonicity(args) -> int:
    pf = _load(args.file)
    report = check_monotonicity(pf.problem, args.axis, args.step)
    print(f"axis = {report.axis} (expected {report.direction})")
    print(f"pairs checked = {report.pair_count}")
    print(f"violations = {len(report.violations)}")
    if report.skipped:
        print(f"skipped = {len(report.skipped)}")
    for pair, (f_lo, f_hi) in report.violations:
        print(f"  {_fmt_triple(pair[0])} -> {_fmt_triple(pair[1])}: f {f_lo!r} -> {f_hi!r}")
    return 0


def _cmd_satisfactory(args) -> int:
    pf = _load(args.file)
    triples, degrees = find_satisfactory(pf.problem, args.mu0, args.lam, args.step)
    total = len(unit_grid(args.step)) ** 3
    print(
        f"{len(degrees)} of {total} grid setting(s) reach "
        f"mu_tilde[lambda={args.lam:g}] >= {args.mu0:g}"
    )
    hits = zip(*_coeff_texts(triples).T.tolist(), _degree_texts(degrees).tolist())
    sys.stdout.write("".join([
        f"  alpha={a} beta={b} gamma={g}  mu_tilde={degree}\n" for a, b, g, degree in hits
    ]))
    return 0


def _cmd_verify_example(args) -> int:
    p = parse_problem(bundled.EXAMPLE_PROBLEM_JSON).problem
    # Parsing validated the problem, and the bounds' bases certify every
    # reference setting, so the grid kernel evaluates them without a solve.
    vb, bases = _bounds(p)
    triples = [triple for triple, _, _ in bundled.REFERENCE_POSITIONED]
    values = _solve_grid(p, np.array(triples, dtype=float), bases).objective
    f_by_triple = dict(zip(triples, values.tolist()))
    checked = 0
    failed = 0

    def cell(label: str, got: float, want: float, tol: float) -> None:
        nonlocal checked, failed
        checked += 1
        diff = abs(got - want)
        ok = diff <= tol
        if not ok:
            failed += 1
        print(
            f"{'PASS' if ok else 'FAIL'}  {label}: computed {got:.6f}, "
            f"reference {want}, |diff| {diff:.2e} (tol {tol:g})"
        )

    for triple, f_ref, mu_ref in bundled.REFERENCE_POSITIONED:
        f = f_by_triple[triple]
        cell(f"f{_fmt_triple(triple)}", f, f_ref, bundled.F_TOL)
        cell(f"mu{_fmt_triple(triple)}", pleased_degree(f, vb), mu_ref, bundled.MU_TOL)
    for triple, refs in bundled.REFERENCE_SATISFACTION:
        f = f_by_triple[triple]
        for lam, want in zip(bundled.REFERENCE_LAMBDA_GRID, refs):
            cell(
                f"mu_tilde[lambda={lam:g}]{_fmt_triple(triple)}",
                lambda_satisfaction(f, vb, lam),
                want,
                bundled.MU_TILDE_TOL,
            )
    print(f"result: {checked - failed} of {checked} cells match")
    return 0 if failed == 0 else 1


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process (parsing keeps no
    state in it: each call gets a fresh namespace)."""
    parser = _Parser(
        prog="greylp",
        description="Whiten, solve, and rank interval-coefficient linear programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, help_: str, handler):
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("validate", "Parse a problem file and report whether it is valid.", _cmd_validate)
    _add_file(sp)

    sp = add("solve", "Solve the positioned program for one coefficient setting.", _cmd_solve)
    _add_file(sp)
    _add_coefficients(sp)
    _add_precise(sp)

    sp = add("bounds", "Compute the critical and ideal optimal values.", _cmd_bounds)
    _add_file(sp)
    _add_precise(sp)

    sp = add("degrees", "Compute pleased and satisfaction degrees for one setting.", _cmd_degrees)
    _add_file(sp)
    _add_coefficients(sp)
    sp.add_argument(
        "--lambda", dest="lam", type=_unit, default=1.0,
        help="attitude weight in [0, 1] (default 1)",
    )
    sp.add_argument(
        "--mu0", type=_unit, default=0.5,
        help="grey target threshold in [0, 1] (default 0.5)",
    )
    _add_precise(sp)

    sp = add("sweep", "Tabulate optima and degrees over a uniform coefficient grid.", _cmd_sweep)
    _add_file(sp)
    sp.add_argument(
        "--step", type=_step, default=0.1, help="grid step in (0, 0.5] (default 0.1)"
    )
    sp.add_argument(
        "--lambdas", type=_lambda_list, default=(),
        help="comma-separated attitude weights to tabulate",
    )
    sp.add_argument(
        "--format", choices=("csv", "markdown"), default="csv",
        help="output format (default csv)",
    )
    sp.add_argument("--out", help="write the table to this file instead of standard output")

    sp = add(
        "monotonicity",
        "Check the expected ordering of optima along one coefficient axis.",
        _cmd_monotonicity,
    )
    _add_file(sp)
    sp.add_argument(
        "--axis", required=True, choices=("alpha", "beta", "gamma"),
        help="coefficient axis to probe",
    )
    sp.add_argument(
        "--step", type=_step, default=0.25, help="grid step in (0, 0.5] (default 0.25)"
    )

    sp = add(
        "satisfactory",
        "List grid settings whose satisfaction degree reaches a target.",
        _cmd_satisfactory,
    )
    _add_file(sp)
    sp.add_argument(
        "--mu0", type=_unit, required=True, help="grey target threshold in [0, 1]"
    )
    sp.add_argument(
        "--lambda", dest="lam", type=_unit, default=1.0,
        help="attitude weight in [0, 1] (default 1)",
    )
    sp.add_argument(
        "--step", type=_step, default=0.1, help="grid step in (0, 0.5] (default 0.1)"
    )

    add(
        "verify-example",
        "Recompute the bundled demo problem's reference tables and compare.",
        _cmd_verify_example,
    )
    return parser


# Exit code of each error a command can raise; the first matching row wins,
# so the subclasses of GreyLPError come before it.
_EXIT_CODES = (
    (_UsageError, 3),
    ((UnboundedValueError, SolverFailure), 2),
    ((ParseError, ValidationError, OSError, GreyLPError), 1),
)


def run(args) -> int:
    """Execute one command line and return the process exit code.

    0 success; 1 validation/parse error; 2 solve failure (unbounded or
    iteration cap); 3 usage error.
    """
    try:
        ns = _parser().parse_args(list(args))
        return int(ns.handler(ns))
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
        return code if isinstance(code, int) else 0
    except (GreyLPError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
