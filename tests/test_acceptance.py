"""Acceptance suite.

Each test checks one release criterion end to end and records a one-line
PASS/FAIL verdict that the conftest hook prints after the run summary.
"""

import random

import numpy as np
import pytest

from conftest import (
    exact_check,
    grid_triple,
    problem_text,
    random_bounded_problem,
    random_loose_problem,
    random_triple,
    record_acceptance,
)
from greylp import (
    ProblemFile,
    SolveStatus,
    ValueBounds,
    bounds,
    build_positioned,
    bundled,
    check_monotonicity,
    grid_sweep,
    lambda_satisfaction,
    lambda_sweep,
    parse_problem,
    pleased_degree,
    positioned_value,
    run,
    solve_max,
    uniform_coefficients,
)

# Hand-checked closed forms for the bundled demo's extreme optima.  Both come
# from solving the 2x2 corner systems of the corresponding white problems.
EXACT_IDEAL = 3_627_000 / 48.5
EXACT_CRITICAL = 769_500 / 37.25


def _run(number, title, fn):
    """Run one criterion body, record its verdict, and re-raise failures."""
    try:
        detail = fn()
    except BaseException as exc:  # noqa: BLE001 - verdict must be recorded
        record_acceptance(number, title, False, f"{type(exc).__name__}: {exc}")
        raise
    record_acceptance(number, title, True, detail or "")


def _check_feasible(white, x, label):
    assert all(v >= -1e-7 for v in x), f"{label}: negative component in {x}"
    b = white.b_array.tolist()
    for i, row in enumerate(white.A_array.tolist()):
        lhs = sum(a * v for a, v in zip(row, x))
        slack_tol = 1e-7 * max(1.0, abs(b[i]))
        assert lhs <= b[i] + slack_tol, (
            f"{label}: row {i} violated ({lhs} > {b[i]})"
        )


def test_criterion_1_demo_value_bounds(demo_bounds):
    def body():
        vb = demo_bounds
        assert vb.critical == pytest.approx(20657.71, abs=bundled.F_TOL)
        assert vb.ideal == pytest.approx(74783.51, abs=bundled.F_TOL)
        assert vb.critical == pytest.approx(EXACT_CRITICAL, rel=1e-9)
        assert vb.ideal == pytest.approx(EXACT_IDEAL, rel=1e-9)
        return f"critical={vb.critical:.5f}, ideal={vb.ideal:.5f}"

    _run(1, "demo value bounds", body)


def test_criterion_2_demo_positioned_values(demo_problem):
    def body():
        worst = 0.0
        for (triple, f_want, _mu) in bundled.REFERENCE_POSITIONED:
            k = uniform_coefficients(*triple, demo_problem.m, demo_problem.n)
            f_got = positioned_value(demo_problem, k)
            worst = max(worst, abs(f_got - f_want))
            assert f_got == pytest.approx(f_want, abs=bundled.F_TOL), triple
        return f"{len(bundled.REFERENCE_POSITIONED)} values, worst |diff| {worst:.2e}"

    _run(2, "demo positioned optima", body)


def test_criterion_3_demo_pleased_degrees(demo_problem, demo_bounds):
    def body():
        worst = 0.0
        for (triple, _f, mu_want) in bundled.REFERENCE_POSITIONED:
            k = uniform_coefficients(*triple, demo_problem.m, demo_problem.n)
            mu_got = pleased_degree(positioned_value(demo_problem, k), demo_bounds)
            worst = max(worst, abs(mu_got - mu_want))
            assert mu_got == pytest.approx(mu_want, abs=bundled.MU_TOL), triple
        return f"{len(bundled.REFERENCE_POSITIONED)} degrees, worst |diff| {worst:.2e}"

    _run(3, "demo pleased degrees", body)


def test_criterion_4_demo_satisfaction_grid(demo_problem):
    def body():
        triples = [t for t, _ in bundled.REFERENCE_SATISFACTION]
        table = lambda_sweep(demo_problem, triples, bundled.REFERENCE_LAMBDA_GRID)
        row = {tuple(t): i for i, t in enumerate(table.coefficients.tolist())}
        worst, checked = 0.0, 0
        for triple, want_row in bundled.REFERENCE_SATISFACTION:
            degrees = table.mu_tilde[row[triple]]
            assert len(degrees) == len(want_row) and not np.isnan(degrees).any()
            for lam, want in zip(bundled.REFERENCE_LAMBDA_GRID, want_row):
                got = degrees[table.lambdas.index(lam)]
                checked += 1
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=bundled.MU_TILDE_TOL), (triple, lam)
        return f"{checked} cells, worst |diff| {worst:.2e}"

    _run(4, "demo satisfaction grid", body)


def test_criterion_5_demo_threshold_behavior(demo_problem, demo_bounds):
    def body():
        f = positioned_value(
            demo_problem,
            uniform_coefficients(0.6, 0.6, 0.6, demo_problem.m, demo_problem.n),
        )
        row = {
            lam: lambda_satisfaction(f, demo_bounds, lam)
            for lam in bundled.REFERENCE_LAMBDA_GRID
        }
        assert max(row.values()) < 0.5
        reaching = {lam for lam, v in row.items() if v >= 0.4}
        assert reaching == {0.8, 0.9, 1.0}
        return f"max mu_tilde {max(row.values()):.4f} < 0.5; >=0.4 at lambda in {sorted(reaching)}"

    _run(5, "demo threshold behavior", body)


def test_criterion_6_solver_agrees_with_exact_check():
    def body():
        rng = random.Random(20260818)
        counts = {SolveStatus.OPTIMAL: 0, SolveStatus.UNBOUNDED: 0}
        worst_gap = 0.0
        for trial in range(1000):
            if trial % 10 == 9:
                problem = random_loose_problem(rng, n=2)
                triple = grid_triple(rng)
            else:
                problem = random_bounded_problem(rng, n=2)
                triple = random_triple(rng)
            k = uniform_coefficients(*triple, problem.m, problem.n)
            white = build_positioned(problem, k)
            got = solve_max(white)
            status, exact = exact_check(white, got)
            assert status == got.status.value, (trial, got.status, status)
            counts[got.status] += 1
            if got.status is SolveStatus.OPTIMAL:
                gap = abs(got.objective - exact) / max(1, abs(exact))
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-6, (trial, got.objective, exact)
                _check_feasible(white, got.x, f"trial {trial} solver")
        assert counts[SolveStatus.UNBOUNDED] > 0
        return (
            f"1000 trials: {counts[SolveStatus.OPTIMAL]} optimal, "
            f"{counts[SolveStatus.UNBOUNDED]} unbounded, worst rel gap {worst_gap:.1e}"
        )

    _run(6, "simplex answers proven by the exact basis check", body)


def test_criterion_7_degree_identities_and_ranges(demo_bounds):
    def body():
        rng = random.Random(77)
        cases = [demo_bounds]
        for _ in range(30):
            critical = rng.choice([0.0, rng.uniform(0.0, 50.0)])
            cases.append(ValueBounds(critical=critical, ideal=critical + rng.uniform(0.5, 1e4)))
        lam_grid = [i / 10 for i in range(11)]
        checked = 0
        for vb in cases:
            spread = vb.ideal - vb.critical
            for lam in lam_grid:
                assert abs(lambda_satisfaction(vb.critical, vb, lam) - 0.0) <= 1e-12
                assert abs(lambda_satisfaction(vb.ideal, vb, lam) - 1.0) <= 1e-12
            for t in (0.1, 0.25, 0.5, 0.75, 0.9):
                f = vb.critical + t * spread
                values = [lambda_satisfaction(f, vb, lam) for lam in lam_grid]
                assert all(0.0 <= v <= 1.0 for v in values)
                assert all(b > a for a, b in zip(values, values[1:])), (vb, f)
                linear = (f - vb.critical) / spread
                assert abs(values[-1] - linear) <= 1e-12
                checked += len(values)
            if vb.ideal > 0 and (vb.critical > 0 or vb.ideal > 0):
                lo = 0.5 * vb.critical / vb.ideal
                for t in (0.0, 0.3, 0.7, 1.0):
                    f = vb.critical + t * spread
                    if f <= 0:
                        continue
                    mu = pleased_degree(f, vb)
                    assert lo - 1e-12 <= mu <= 1.0 - lo + 1e-12, (vb, f, mu)
                    checked += 1
        return f"{len(cases)} bound pairs, {checked} evaluations"

    _run(7, "degree identities and ranges", body)


def test_criterion_8_grid_monotonicity_and_containment(demo_problem):
    def body():
        for axis, direction in (
            ("alpha", "nondecreasing"),
            ("beta", "nondecreasing"),
            ("gamma", "nonincreasing"),
        ):
            report = check_monotonicity(demo_problem, axis, 0.25)
            assert report.ok and not report.skipped
            assert report.direction == direction
        rng = random.Random(881)
        reports_checked = 0
        for case in range(100):
            problem = random_bounded_problem(rng, n=rng.randint(1, 3), m=rng.randint(1, 3))
            vb = bounds(problem)
            tol = 1e-6 * max(1.0, abs(vb.ideal), abs(vb.critical))
            table = grid_sweep(problem, 0.25)
            assert table.f.shape == (125,)
            assert not np.isnan(table.f).any()
            value = dict(zip(map(tuple, table.coefficients.tolist()), table.f.tolist()))
            for f in value.values():
                assert vb.critical - tol <= f <= vb.ideal + tol, (case, f, vb)
            for (a, b, g), f in value.items():
                up = round(a + 0.25, 10)
                if up <= 1.0:
                    assert value[(up, b, g)] >= f - tol, (case, "alpha", (a, b, g))
                up = round(b + 0.25, 10)
                if up <= 1.0:
                    assert value[(a, up, g)] >= f - tol, (case, "beta", (a, b, g))
                up = round(g + 0.25, 10)
                if up <= 1.0:
                    assert value[(a, b, up)] <= f + tol, (case, "gamma", (a, b, g))
            if case % 20 == 0:
                for axis in ("alpha", "beta", "gamma"):
                    report = check_monotonicity(problem, axis, 0.25)
                    assert report.ok, (case, axis, report.violations[:3])
                    reports_checked += 1
        return f"demo axes clean; 100 random grids contained, {reports_checked} reports ok"

    _run(8, "grid monotonicity and containment", body)


def test_criterion_9_cli_verification_and_round_trip(capsys):
    def body():
        assert run(["verify-example"]) == 0
        out = capsys.readouterr().out
        assert "result: 56 of 56 cells match" in out
        rng = random.Random(990)
        for case in range(100):
            problem = (random_bounded_problem if case % 2 else random_loose_problem)(rng)
            pf = ProblemFile(
                problem=problem,
                name=None if case % 3 == 0 else f"generated case {case}",
                description=None if case % 5 == 0 else "round-trip fixture — generated",
            )
            assert parse_problem(problem_text(pf)) == pf
        return "verify-example exit 0 (56/56); 100 file round-trips exact"

    _run(9, "command-line verification and round-trip", body)
