"""Shared fixtures, random-problem generators, and the acceptance summary.

Acceptance tests register their outcome via :func:`record_acceptance`; a
terminal-summary hook then prints one pass/fail line per criterion after the
run, so the criterion status is visible even with captured output.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from greylp import (
    GreyLP,
    bounds,
    build_positioned,
    bundled,
    parse_problem,
    solve_max,
    uniform_coefficients,
)

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


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
