"""Shared fixtures, random-problem generators, a problem-file writer, the
exact check of solver answers, and the acceptance summary.

Acceptance tests register their outcome via :func:`record_acceptance`; a
terminal-summary hook then prints one pass/fail line per criterion after the
run, so the criterion status is visible even with captured output.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import pathlib
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from greylp import (
    DomainError,
    GreyLP,
    InconsistentInputsError,
    LPSolution,
    ProblemFile,
    SolverFailure,
    SolveStatus,
    SweepTable,
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
from greylp.lp_solver import _slack_ok, _solve_stack

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


def count_collections(call):
    """``call()``'s result and the number of cyclic garbage collections
    started while it ran, counted from a fresh ``gc.collect()`` before
    anything else is allocated."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        result = call()
        during = len(started)
    finally:
        gc.callbacks.remove(on_gc)
    return result, during


def problem_text(pf: ProblemFile) -> str:
    """``pf`` as problem-file JSON, for tests that write a problem to a
    file: ``parse_problem(problem_text(pf)) == pf`` for every valid ``pf``
    (Python's float repr reads back exactly)."""
    doc: dict = {}
    if pf.name is not None:
        doc["name"] = pf.name
    if pf.description is not None:
        doc["description"] = pf.description
    p = pf.problem
    doc["objective"] = np.column_stack([p.c_lo, p.c_hi]).tolist()
    doc["matrix"] = np.stack([p.A_lo, p.A_hi], -1).tolist()
    doc["rhs"] = np.column_stack([p.b_lo, p.b_hi]).tolist()
    return json.dumps(doc, indent=2) + "\n"


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


def many_basis_problem(rng: np.random.Generator, m: int, n: int) -> GreyLP:
    """A seeded m x n grey LP whose grids need many optimal bases.

    It is the benchmark's synthetic family (``bench/inputs.generate_problem``)
    without the heavy diagonal that gives those grids one basis everywhere,
    and with wider objective and right-hand side intervals: hi = lo * (1 +
    w * u) with u uniform in [0, 1], w = 2.0 for c and b and 0.3 for A.
    Every entry stays positive, so every positioned program is bounded."""

    def grey(lo, width):
        lo = np.round(lo, 4)
        return np.stack([lo, np.round(lo * (1.0 + width * rng.uniform(0.0, 1.0, lo.shape)), 4)], -1)

    return GreyLP(
        objective=grey(rng.uniform(1.0, 10.0, n), 2.0),
        matrix=grey(rng.uniform(0.1, 1.0, (m, n)), 0.3),
        rhs=grey(rng.uniform(50.0, 100.0, m), 2.0),
    )


def grid_triple(rng: random.Random) -> tuple[float, float, float]:
    """A coefficient triple drawn from the quarter grid, so endpoint values
    like 0 and 1 actually occur."""
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    return (rng.choice(grid), rng.choice(grid), rng.choice(grid))


def random_triple(rng: random.Random) -> tuple[float, float, float]:
    return (round(rng.random(), 3), round(rng.random(), 3), round(rng.random(), 3))


def reference_grid(p: GreyLP, triples):
    """The per-point path that the grid kernel (``satisfaction._solve_grid``)
    replaces, kept as its reference: whiten each uniform triple on its own
    and solve it cold.
    Returns one ``(status, objective)`` pair per triple."""
    out = []
    for alpha, beta, gamma in triples:
        sol = solve_max(build_positioned(p, uniform_coefficients(alpha, beta, gamma, p.m, p.n)))
        out.append((sol.status, sol.objective))
    return out


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _exact_solve(M, rhs):
    """The solution z of M z = rhs (square, lists of Fractions) by
    Gauss-Jordan elimination, or None if M is singular."""
    rows = [row + [r] for row, r in zip(M, rhs)]
    for j in range(len(rows)):
        pivot = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pivot is None:
            return None
        rows[j], rows[pivot] = rows[pivot], rows[j]
        head = rows[j][j]
        rows[j] = [v / head for v in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                factor = row[j]
                rows[i] = [a - factor * p for a, p in zip(row, rows[j])]
    return [row[-1] for row in rows]


def exact_check(lp: WhiteLP, sol: LPSolution):
    """Prove ``sol``, what ``solve_max`` returned for ``lp``, exactly: in
    rational arithmetic on the float data of ``lp``, which every float is.

    An optimal ``sol`` names a basis B of the columns of [A | I].  It is
    proven optimal when B x_B = b and B^T y = c_B have solutions with
    x_B >= 0 (primal) and every reduced cost c_j - a_j.y <= 0 (dual); the
    optimum is then c_B.x_B.  An unbounded ``sol`` is proven by its ray d:
    d >= 0, A.d <= 0 and c.d > 0.  Returns ``("optimal", the exact optimum
    as a Fraction)`` or ``("unbounded", None)``, and otherwise the first
    condition that failed: ``("singular" | "primal" | "dual" | "ray",
    None)``.
    """
    A = [[Fraction(v) for v in row] for row in lp.A_array.tolist()]
    b = [Fraction(v) for v in lp.b_array.tolist()]
    c = [Fraction(v) for v in lp.c_array.tolist()]
    m, n = lp.m, lp.n
    if sol.status is SolveStatus.UNBOUNDED:
        d = [Fraction(v) for v in sol.ray]
        proven = min(d) >= 0 and all(_dot(row, d) <= 0 for row in A) and _dot(c, d) > 0
        return ("unbounded", None) if proven else ("ray", None)
    columns = [[row[j] for row in A] for j in range(n)]
    columns += [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    cost = c + [Fraction(0)] * m
    S = list(sol.basis)
    if len(set(S)) != m:
        return ("singular", None)
    BT = [columns[j] for j in S]
    xB = _exact_solve([list(r) for r in zip(*BT)], b)
    if xB is None:
        return ("singular", None)
    if min(xB) < 0:
        return ("primal", None)
    y = _exact_solve(BT, [cost[j] for j in S])  # B^T is nonsingular too
    if any(cost[j] > _dot(columns[j], y) for j in range(n + m) if j not in S):
        return ("dual", None)
    return ("optimal", _dot([cost[j] for j in S], xB))


_TOL_PIVOT = 1e-9
_TOL_FEAS = 1e-7


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _reference_iterate(T, basis, budget):
    m = T.shape[0] - 1
    used = degenerate = 0
    while True:
        # Dantzig's rule (the largest reduced cost, ties to the lowest index)
        # until the first degenerate pivot, then Bland's rule (the lowest
        # index); a NaN reduced cost compares False and is never chosen.
        enter = -1
        for j in range(T.shape[1] - 1):
            if T[m, j] > _TOL_PIVOT and (enter < 0 or T[m, j] > T[m, enter]):
                enter = j
                if degenerate:
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
        if not best > 0.0:
            degenerate += 1
        _reference_pivot(T, basis, leave, enter)
        used += 1


def reference_solve_max(lp: WhiteLP) -> LPSolution:
    """The scalar pricing loop that the vectorised pricing in ``solve_max``
    replaces, kept as its reference: Dantzig's rule until the first
    degenerate pivot and Bland's rule from then on, one numpy scalar at a
    time, read from copies of the arrays of ``lp``, from the all-slack basis
    (so b >= 0)."""
    A = np.array(lp.A_array, dtype=float)
    b = np.array(lp.b_array, dtype=float)
    c = np.array(lp.c_array, dtype=float)
    assert (b >= 0.0).all(), "the all-slack basis needs b >= 0"
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    basis = list(range(n, n + m))
    outcome, _, enter = _reference_iterate(T, basis, 50 * (m + n))
    if outcome == "unbounded":
        d = np.zeros(T.shape[1] - 1)
        d[enter] = 1.0
        for i in range(m):
            d[basis[i]] = -T[i, enter]
        d[d < 0.0] = 0.0
        return LPSolution(status=SolveStatus.UNBOUNDED, ray=tuple(float(v) for v in d[:n]))
    x = np.zeros(n + m)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    xs = x[:n]
    xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0
    slack = b - A @ xs
    if (slack < -_TOL_FEAS * np.maximum(1.0, np.abs(b))).any() or xs.min() < -_TOL_PIVOT:
        raise SolverFailure("solution failed the feasibility post-check")
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        x=tuple(float(v) for v in xs),
        objective=float(c @ xs),
        basis=tuple(basis),
    )


def _snapped(xs):
    xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0  # as solve_max snaps x
    return xs


def block_primal(A, Bv, basis):
    """The structural values x of the basis ``basis`` (columns of ``[A |
    I]``) at every right-hand side of a stack as ``lp_solver._certify``
    takes it, G x n x kb and snapped as ``solve_max`` snaps them, NaN in
    every slice where the basis is singular.  As ``_certify`` solves them:
    x_S from the k x k block A[F, S] of the basic structural columns S on
    the rows F whose slack is nonbasic, A[F, S] x_S = b_F."""
    (G, m, n), kb = A.shape, Bv.shape[1]
    S = np.asarray(basis)
    F = np.setdiff1d(np.arange(m), S[S >= n] - n)
    xS = _solve_stack(A[:, F][:, :, S[S < n]], Bv[:, :, F].transpose(0, 2, 1))
    xs = np.zeros((G, n, kb))
    xs[:, S[S < n]] = xS
    return _snapped(xs)


def square_primal(A, Bv, basis):
    """What :func:`block_primal` returns, from the full m x m basis matrix
    B taken out of ``[A | I]``, B x_B = b: the accuracy reference of the
    k x k solve."""
    (G, m, n), kb = A.shape, Bv.shape[1]
    S = np.asarray(basis)
    AI = np.concatenate([A, np.broadcast_to(np.eye(m), (G, m, m))], axis=2)
    xB = _solve_stack(AI[:, :, S], Bv.transpose(0, 2, 1))
    xs = np.zeros((G, n, kb))
    xs[:, S[S < n]] = xB[:, S < n]
    return _snapped(xs)


def reference_certify(A, C, Bv, basis):
    """The certification over stacked ``[A | I]`` matrices that
    ``lp_solver._certify`` replaces, kept as its reference: x is taken from
    :func:`block_primal` and the basic slacks are b - A.x; the full m x m
    basis matrix B is taken from ``[A | I]`` (G x m x (n+m)) and the
    objectives padded with zeros over the slacks (G x ka x (n+m)); y solves
    B^T y = c_B, and every nonbasic column of ``[A | I]`` is priced.  Takes
    and returns what ``_certify`` does: (ok, f, primal)."""
    G, m, n = A.shape
    AI = np.concatenate([A, np.broadcast_to(np.eye(m), (G, m, m))], axis=2)
    CI = np.concatenate([C, np.zeros((G, C.shape[1], m))], axis=2)
    S = np.asarray(basis)
    B = AI[:, :, S]
    xs = block_primal(A, Bv, S)
    Y = _solve_stack(B.transpose(0, 2, 1), CI[:, :, S].transpose(0, 2, 1))
    with np.errstate(invalid="ignore", over="ignore"):
        b = Bv.transpose(0, 2, 1)
        x = np.concatenate([xs, b - AI[:, :, :n] @ xs], axis=1)  # every column of [A | I]
        primal = (x[:, S] >= -_TOL_PIVOT).all(axis=1)
        primal &= _slack_ok(b, x[:, n:]).all(axis=1)
        nonbasic = np.ones(n + m, dtype=bool)
        nonbasic[S] = False
        AN = AI[:, :, nonbasic].transpose(0, 2, 1)
        reduced = CI[:, :, nonbasic].transpose(0, 2, 1) - AN @ Y
        dual = (reduced <= _TOL_PIVOT).all(axis=1)
        f = np.einsum("gan,gbn->gab", CI[:, :, :n], np.ascontiguousarray(xs.transpose(0, 2, 1)))
        gap = np.matmul(Y.transpose(0, 2, 1), b) - f
        ok = np.abs(gap) <= _TOL_PIVOT * np.maximum(np.abs(f), 1.0)
        ok &= primal[:, None, :]
        ok &= dual[:, :, None]
    return ok, f, primal


def blocks(p: GreyLP):
    """The objective, matrix rows and right-hand side of ``p`` as lists of
    ``(lo, hi)`` float pairs, read from its arrays."""

    def pairs(lo, hi):
        return list(zip(lo.tolist(), hi.tolist()))

    matrix = [pairs(lo, hi) for lo, hi in zip(p.A_lo, p.A_hi)]
    return pairs(p.c_lo, p.c_hi), matrix, pairs(p.b_lo, p.b_hi)


def reference_validate_problem(objective, matrix, rhs) -> list[Violation]:
    """The per-entry validation of a problem file's blocks (lists of
    ``(lo, hi)`` float pairs, the matrix as a list of rows of any length),
    one pair at a time: the reference for ``parse_problem``'s dimension
    checks and ``validate_problem``'s array masks."""
    violations: list[Violation] = []

    def check_interval(iv, location: str):
        lo, hi = iv
        bad_number = False
        for side, v in (("lower", lo), ("upper", hi)):
            if not math.isfinite(v):
                violations.append(
                    Violation(location, "non_finite", f"{side} bound {v} is not finite")
                )
                bad_number = True
        if bad_number:
            return
        if lo > hi:
            violations.append(
                Violation(
                    location,
                    "bounds_order",
                    f"lower bound {lo:g} exceeds upper bound {hi:g}",
                )
            )
        if lo < 0:
            violations.append(
                Violation(
                    location,
                    "negative_lower",
                    f"negative lower bound {lo:g} (all parameters must be >= 0)",
                )
            )

    n, m = len(objective), len(rhs)
    if n < 1:
        violations.append(Violation("objective", "dimension", "no variables"))
    if m < 1:
        violations.append(Violation("rhs", "dimension", "no constraints"))
    if len(matrix) != m:
        violations.append(
            Violation("matrix", "dimension", f"{len(matrix)} matrix rows but {m} right-hand sides")
        )
    for i, row in enumerate(matrix):
        if len(row) != n:
            violations.append(
                Violation(f"matrix[{i}]", "dimension", f"{len(row)} entries but {n} objective coefficients")
            )
    for j, iv in enumerate(objective):
        check_interval(iv, f"objective[{j}]")
    for i, row in enumerate(matrix):
        for j, iv in enumerate(row):
            check_interval(iv, f"matrix[{i}][{j}]")
    for i, iv in enumerate(rhs):
        check_interval(iv, f"rhs[{i}]")
    return violations


def _reference_clamp(f: float, vb: ValueBounds) -> float:
    tol = 1e-6 * max(1.0, vb.ideal)
    if f < vb.critical - tol or f > vb.ideal + tol:
        raise InconsistentInputsError(f"value {f} lies outside the bounds")
    return min(max(f, vb.critical), vb.ideal)


def reference_pleased_degree(f: float, vb: ValueBounds) -> float:
    """The pleased degree computed one float at a time with Python
    arithmetic, as the scalar path did before scoring moved to arrays.  The
    value is checked against the bounds first, as for the satisfaction
    degree."""
    f = _reference_clamp(float(f), vb)
    if vb.ideal <= 0.0:
        raise DomainError("pleased degree needs a positive ideal value")
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
    """The lambda-satisfaction degree one float at a time.  The value is
    checked against the bounds first, as for the pleased degree; degenerate
    bounds then give 1, without the warning."""
    f = _reference_clamp(float(f), vb)
    if vb.is_degenerate:
        return 1.0
    spread = vb.ideal - vb.critical
    gain = f - vb.critical
    linear = gain / spread
    damped = gain / (spread + (1.0 - lam) * (vb.ideal - f))
    return lam * linear + (1.0 - lam) * damped


class Record(NamedTuple):
    """One sweep row as the per-row references see it: a uniform triple, its
    positioned optimum, its pleased degree (None where it is undefined, at
    ideal value zero) and its ``(lambda, degree)`` pairs."""

    coefficients: tuple[float, float, float]
    f: float
    mu: float | None
    mu_tilde: tuple[tuple[float, float], ...] = ()


def reference_records(p: GreyLP, triples, lambdas):
    """One :class:`Record` per triple, scored row by row over
    :func:`reference_grid` with the reference degrees against ``bounds(p)``;
    every triple must solve to optimality."""
    vb = bounds(p)
    rows = []
    for triple, (status, f) in zip(triples, reference_grid(p, triples)):
        triple = tuple(float(v) for v in triple)
        assert status is SolveStatus.OPTIMAL, (triple, status)
        try:
            mu = reference_pleased_degree(f, vb)
        except DomainError:
            mu = None
        mu_tilde = tuple((lam, reference_lambda_satisfaction(f, vb, lam)) for lam in lambdas)
        rows.append(Record(triple, f, mu, mu_tilde))
    return rows


def table_of(rows, lambdas) -> SweepTable:
    """The :class:`SweepTable` of the records ``rows``: each value in its
    column, NaN where a record has none."""
    by_lam = [dict(r.mu_tilde) for r in rows]
    return SweepTable(
        lambdas=tuple(lambdas),
        coefficients=np.array([r.coefficients for r in rows], dtype=float).reshape(-1, 3),
        f=np.array([r.f for r in rows], dtype=float),
        mu=np.array([np.nan if r.mu is None else r.mu for r in rows], dtype=float),
        mu_tilde=np.array(
            [[d.get(lam, np.nan) for lam in lambdas] for d in by_lam], dtype=float
        ).reshape(len(rows), len(lambdas)),
    )


def reference_render(labels, rows, lambdas, format: str) -> str:
    """The per-row renderer that ``render_table`` replaces, kept as its
    reference: the header ``labels`` and one list of cells per record,
    written by the csv module or joined as Markdown."""

    def fmt(v, spec):
        return "" if v is None else spec % v

    table = [list(labels)]
    for r in rows:
        by_lam = dict(r.mu_tilde)
        table.append(
            ["%g" % v for v in r.coefficients]
            + ["%.2f" % r.f, fmt(r.mu, "%.4f")]
            + [fmt(by_lam.get(lam), "%.4f") for lam in lambdas]
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
