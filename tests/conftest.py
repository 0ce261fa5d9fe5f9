"""Shared fixtures, random-problem generators, and the acceptance summary.

Acceptance tests register their outcome via :func:`record_acceptance`; a
terminal-summary hook then prints one pass/fail line per criterion after the
run, so the criterion status is visible even with captured output.
"""

from __future__ import annotations

import csv
import io
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import settings

from greylp import (
    DomainError,
    GreyLP,
    InconsistentInputsError,
    LPSolution,
    SatisfactionRecord,
    SolverFailure,
    SolveStatus,
    ValueBounds,
    Violation,
    WhiteLP,
    bounds,
    build_positioned,
    bundled,
    parse_problem,
    solve_max,
    uniform_coefficients,
)

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")

_TESTS = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    # An unexpected warning fails a test of this suite.  The mark goes
    # first, so a test's own filterwarnings marks take precedence over it.
    # Reporting a failed hypothesis test imports libcst, whose import warns
    # through mypy_extensions; as an error that would abort the whole run.
    strict = pytest.mark.filterwarnings(
        "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
    for item in items:
        if item.path.is_relative_to(_TESTS):
            item.add_marker(strict, append=False)


def interval(
    rng: random.Random,
    lo_min: float,
    lo_max: float,
    max_width: float,
    white_chance: float = 0.2,
) -> tuple[float, float]:
    """One random valid interval; sometimes a single point."""
    lo = round(rng.uniform(lo_min, lo_max), 3)
    width = 0.0 if rng.random() < white_chance else round(rng.uniform(0.0, max_width), 3)
    return (lo, lo + width)


def random_bounded_problem(
    rng: random.Random, n: int | None = None, m: int | None = None
) -> GreyLP:
    """A valid problem whose every positioned program is bounded.

    Every matrix entry keeps a strictly positive lower bound, so for any
    whitening each variable is capped by each row: A_ij(t) * x_j <= b_i(t).
    """
    n = n if n is not None else rng.randint(1, 4)
    m = m if m is not None else rng.randint(1, 5)
    return GreyLP(
        objective=tuple(interval(rng, 0.0, 50.0, 20.0) for _ in range(n)),
        matrix=tuple(
            tuple(interval(rng, 0.05, 5.0, 3.0) for _ in range(n)) for _ in range(m)
        ),
        rhs=tuple(interval(rng, 0.0, 50.0, 30.0) for _ in range(m)),
    )


def random_loose_problem(
    rng: random.Random, n: int | None = None, m: int | None = None
) -> GreyLP:
    """A valid problem whose matrix entries are often zero (or grey from
    zero), so loose whitenings can leave a variable uncapped (unbounded
    optimum).  Objective lower bounds stay positive so an uncapped variable
    certifies unboundedness."""
    n = n if n is not None else rng.randint(1, 3)
    m = m if m is not None else rng.randint(1, 4)

    def matrix_entry() -> tuple[float, float]:
        roll = rng.random()
        if roll < 0.35:
            return (0.0, 0.0)
        if roll < 0.65:
            return (0.0, round(rng.uniform(0.5, 2.0), 3))
        return interval(rng, 0.05, 2.0, 3.0)

    return GreyLP(
        objective=tuple(interval(rng, 0.5, 50.0, 20.0) for _ in range(n)),
        matrix=tuple(tuple(matrix_entry() for _ in range(n)) for _ in range(m)),
        rhs=tuple(interval(rng, 0.0, 50.0, 30.0) for _ in range(m)),
    )


def grid_triple(rng: random.Random) -> tuple[float, float, float]:
    """A coefficient triple drawn from the quarter grid, so endpoint values
    like 0 and 1 actually occur."""
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    return (rng.choice(grid), rng.choice(grid), rng.choice(grid))


def random_triple(rng: random.Random) -> tuple[float, float, float]:
    return (round(rng.random(), 3), round(rng.random(), 3), round(rng.random(), 3))


def reference_grid(p: GreyLP, triples):
    """The per-point path that ``solve_grid`` replaces, kept as its
    reference: whiten each uniform triple on its own and solve it cold.
    Returns one ``(status, objective)`` pair per triple."""
    out = []
    for alpha, beta, gamma in triples:
        sol = solve_max(build_positioned(p, uniform_coefficients(alpha, beta, gamma, p.m, p.n)))
        out.append((sol.status, sol.objective))
    return out


_TOL_PIVOT = 1e-9
_TOL_FEAS = 1e-7


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _reference_bland_iterate(T, basis, ncols, budget):
    m = T.shape[0] - 1
    used = 0
    while True:
        enter = -1
        for j in range(ncols):
            if T[m, j] > _TOL_PIVOT:
                enter = j
                break
        if enter < 0:
            return "optimal", used, -1
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > _TOL_PIVOT:
                ratio = T[i, -1] / a
                if ratio < best:  # ties keep the lowest row index
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", used, enter
        if used >= budget:
            raise SolverFailure(f"simplex exceeded its iteration cap of {budget} pivots")
        _reference_pivot(T, basis, leave, enter)
        used += 1


def reference_solve_max(lp: WhiteLP) -> LPSolution:
    """The scalar Bland loop that the vectorised pricing in ``solve_max``
    replaces, kept as its reference: one numpy scalar at a time, read from
    the tuple views of ``lp``."""
    A = np.array(lp.A, dtype=float)
    b = np.array(lp.b, dtype=float)
    c = np.array(lp.c, dtype=float)
    m, n = A.shape
    budget = 50 * (m + n)
    neg_rows = [i for i in range(m) if b[i] < 0.0]
    n_art = len(neg_rows)
    T = np.zeros((m + 1, n + m + n_art + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    used_total = 0
    if n_art:
        for k, i in enumerate(neg_rows):
            T[i, :] *= -1.0
            T[i, n + m + k] = 1.0
            basis[i] = n + m + k
        T[m, :] = T[neg_rows, :].sum(axis=0)
        T[m, n + m : -1] = 0.0
        outcome, used_total, _ = _reference_bland_iterate(T, basis, n + m, budget)
        if outcome != "optimal":
            raise SolverFailure("phase 1 is bounded by construction yet did not converge")
        if -T[m, -1] < -_TOL_FEAS:
            return LPSolution(status=SolveStatus.INFEASIBLE)
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if abs(T[i, j]) > _TOL_PIVOT:
                        _reference_pivot(T, basis, i, j)
                        used_total += 1
                        break
        T[m, :] = 0.0
    T[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[m, :] -= c[basis[i]] * T[i, :]
    outcome, _, enter = _reference_bland_iterate(T, basis, n + m, budget - used_total)
    if outcome == "unbounded":
        d = np.zeros(T.shape[1] - 1)
        d[enter] = 1.0
        for i in range(m):
            d[basis[i]] = -T[i, enter]
        d[d < 0.0] = 0.0
        return LPSolution(status=SolveStatus.UNBOUNDED, ray=tuple(float(v) for v in d[:n]))
    x = np.zeros(n + m + n_art)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    xs = x[:n]
    xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0
    slack = b - A @ xs
    if slack.min() < -_TOL_FEAS or xs.min() < -_TOL_PIVOT:
        raise SolverFailure("solution failed the feasibility post-check")
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        x=tuple(float(v) for v in xs),
        objective=float(c @ xs),
        basis=tuple(basis),
    )


def reference_validate_problem(p: GreyLP) -> list[Violation]:
    """The per-entry ``validate_problem`` over the :class:`Interval` tuples,
    kept as the reference for the array masks."""
    violations: list[Violation] = []

    def check_interval(iv, location: str):
        bad_number = False
        for side, v in (("lower", iv.lo), ("upper", iv.hi)):
            if not math.isfinite(v):
                violations.append(
                    Violation(location, "non_finite", f"{side} bound {v} is not finite")
                )
                bad_number = True
        if bad_number:
            return
        if iv.lo > iv.hi:
            violations.append(
                Violation(
                    location,
                    "bounds_order",
                    f"lower bound {iv.lo:g} exceeds upper bound {iv.hi:g}",
                )
            )
        if iv.lo < 0:
            violations.append(
                Violation(
                    location,
                    "negative_lower",
                    f"negative lower bound {iv.lo:g} (all parameters must be >= 0)",
                )
            )

    n, m = p.n, p.m
    if n < 1:
        violations.append(Violation("objective", "dimension", "no variables"))
    if m < 1:
        violations.append(Violation("rhs", "dimension", "no constraints"))
    if len(p.matrix) != m:
        violations.append(
            Violation("matrix", "dimension", f"{len(p.matrix)} matrix rows but {m} right-hand sides")
        )
    for i, row in enumerate(p.matrix):
        if len(row) != n:
            violations.append(
                Violation(f"matrix[{i}]", "dimension", f"{len(row)} entries but {n} objective coefficients")
            )
    for j, iv in enumerate(p.objective):
        check_interval(iv, f"objective[{j}]")
    for i, row in enumerate(p.matrix):
        for j, iv in enumerate(row):
            check_interval(iv, f"matrix[{i}][{j}]")
    for i, iv in enumerate(p.rhs):
        check_interval(iv, f"rhs[{i}]")
    return violations


def _reference_clamp(f: float, vb: ValueBounds) -> float:
    tol = 1e-6 * max(1.0, vb.ideal)
    if f < vb.critical - tol or f > vb.ideal + tol:
        raise InconsistentInputsError(f"value {f} lies outside the bounds")
    return min(max(f, vb.critical), vb.ideal)


def reference_pleased_degree(f: float, vb: ValueBounds) -> float:
    """The pleased degree computed one float at a time with Python
    arithmetic, as the scalar path did before scoring moved to arrays."""
    if vb.ideal <= 0.0:
        raise DomainError("pleased degree needs a positive ideal value")
    f = float(f)
    if f < min(vb.critical, 0.0) - 1e-6 * max(1.0, vb.ideal):
        raise DomainError("pleased degree needs a positive value")
    f = _reference_clamp(f, vb)
    if f < 0.0:
        raise DomainError("pleased degree needs a nonnegative value")
    if f == 0.0:
        if vb.critical != 0.0:
            raise DomainError("pleased degree is undefined at f = 0")
        ratio_term = 0.5
    else:
        ratio_term = 0.5 * (1.0 - vb.critical / f)
    return ratio_term + 0.5 * f / vb.ideal


def reference_lambda_satisfaction(f: float, vb: ValueBounds, lam: float) -> float:
    """The lambda-satisfaction degree one float at a time (degenerate bounds
    give 1, without the warning)."""
    if vb.is_degenerate:
        return 1.0
    f = _reference_clamp(float(f), vb)
    spread = vb.ideal - vb.critical
    gain = f - vb.critical
    linear = gain / spread
    damped = gain / (spread + (1.0 - lam) * (vb.ideal - f))
    return lam * linear + (1.0 - lam) * damped


def reference_records(p: GreyLP, triples, lambdas, vb: ValueBounds | None = None):
    """One sweep record per triple, scored row by row over
    :func:`reference_grid` with the reference degrees; a non-optimal triple
    becomes an error row.  ``vb`` defaults to ``bounds(p)``."""
    vb = bounds(p) if vb is None else vb
    rows = []
    for triple, (status, f) in zip(triples, reference_grid(p, triples)):
        triple = tuple(float(v) for v in triple)
        if status is not SolveStatus.OPTIMAL:
            rows.append(SatisfactionRecord(triple, None, None, error=str(status)))
            continue
        try:
            mu = reference_pleased_degree(f, vb)
        except DomainError:
            mu = None
        mu_tilde = tuple((lam, reference_lambda_satisfaction(f, vb, lam)) for lam in lambdas)
        rows.append(SatisfactionRecord(triple, f, mu, mu_tilde))
    return rows


def reference_render(labels, rows, lambdas, format: str, pivoted: bool = False) -> str:
    """The per-row renderer that ``render_table`` replaces, kept as its
    reference: one list of cells per record (or, ``pivoted``, per lambda),
    written by the csv module or joined as Markdown."""

    def fmt(v, spec, error):
        if error is not None:
            return error
        return "" if v is None else spec % v

    table = [list(labels)]
    if pivoted:
        for lam in lambdas:
            table.append(
                ["%g" % lam]
                + [r.error if r.error is not None else "%.4f" % r.mu_tilde_at(lam) for r in rows]
            )
    else:
        for r in rows:
            by_lam = dict(r.mu_tilde)
            table.append(
                ["%g" % v for v in r.coefficients]
                + [fmt(r.f, "%.2f", r.error), fmt(r.mu, "%.4f", r.error)]
                + [fmt(by_lam.get(lam), "%.4f", r.error) for lam in lambdas]
            )
    if format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()
    header, body = table[0], table[1:]
    lines = ["| " + " | ".join(header) + " |", "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(cell if cell else "-" for cell in row) + " |" for row in body]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def demo_problem():
    return parse_problem(bundled.EXAMPLE_PROBLEM_JSON).problem


@pytest.fixture(scope="session")
def demo_bounds(demo_problem):
    return bounds(demo_problem)


ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_acceptance(number: int, title: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, title, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, ok, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {title}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
