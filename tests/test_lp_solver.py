"""Simplex solver: known optima, statuses, certificates, determinism, and
answers proven by the exact rational check of ``conftest.exact_check``."""

import itertools
import logging
import operator
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    block_primal,
    exact_check,
    grid_triple,
    many_basis_problem,
    random_bounded_problem,
    random_loose_problem,
    random_triple,
    reference_certify,
    reference_solve_max,
    square_primal,
)
from greylp import (
    DomainError,
    GreyLP,
    LPSolution,
    SolveStatus,
    SolverFailure,
    WhiteLP,
    bounds,
    build_positioned,
    solve_max,
    uniform_coefficients,
)
from greylp import analysis, lp_solver
from greylp.grey_core import _cube_layout, _point_layout, _white_stack
from greylp.lp_solver import _iterate

# Loosest whitening of the bundled demo problem: upper objective/rhs bounds,
# lower matrix bounds.  Optimum sits where rows 2 and 3 are active:
# 7x1 + 3x2 = 360 and 2.5x1 + 8x2 = 330, so x = (1890, 1410)/48.5.
LOOSE = WhiteLP(c=(800, 1500), A=((3, 3.5), (7, 3), (2.5, 8)), b=(235, 360, 330))
LOOSE_X = (1890 / 48.5, 1410 / 48.5)
LOOSE_F = 3627000 / 48.5

# Tightest whitening: optimum where rows 1 and 3 are active:
# 5x1 + 6.5x2 = 150 and 3.5x1 + 12x2 = 270, so x = (45, 825)/37.25.
TIGHT = WhiteLP(c=(600, 900), A=((5, 6.5), (11, 5), (3.5, 12)), b=(150, 280, 270))
TIGHT_X = (45 / 37.25, 825 / 37.25)
TIGHT_F = 769500 / 37.25

# Beale's (1955) example, on which Dantzig's rule cycles; the optimum is 5/4
# at x = (1, 0, 1, 0).
BEALE = WhiteLP(
    c=(0.75, -20, 0.5, -6),
    A=((0.25, -8, -1, 9), (0.5, -12, -0.5, 3), (0, 0, 1, 0)),
    b=(0, 0, 1),
)


def _assert_feasible(lp: WhiteLP, x, tol=1e-7):
    A = lp.A_array
    b = lp.b_array
    xs = np.array(x)
    assert (xs >= -tol).all()
    assert (A @ xs <= b + tol).all()


class TestKnownOptima:
    def test_loose_instance(self):
        sol = solve_max(LOOSE)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(LOOSE_F, rel=1e-12)
        assert sol.x == pytest.approx(LOOSE_X, rel=1e-12)
        _assert_feasible(LOOSE, sol.x)

    def test_tight_instance(self):
        sol = solve_max(TIGHT)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(TIGHT_F, rel=1e-12)
        assert sol.x == pytest.approx(TIGHT_X, rel=1e-12)
        _assert_feasible(TIGHT, sol.x)

    def test_single_variable(self):
        sol = solve_max(WhiteLP(c=(3,), A=((2,),), b=(10,)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(15.0, rel=1e-12)
        assert sol.x == pytest.approx((5.0,))

    def test_zero_objective(self):
        sol = solve_max(WhiteLP(c=(0, 0), A=((1, 1),), b=(4,)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0
        assert sol.x == (0.0, 0.0)

    def test_negative_coefficients_pull_to_zero(self):
        sol = solve_max(WhiteLP(c=(-5, -2), A=((1, 1),), b=(4,)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0
        assert sol.x == (0.0, 0.0)

    @pytest.mark.parametrize("lp", [LOOSE, TIGHT])
    def test_final_basis_reproduces_the_optimum(self, lp):
        sol = solve_max(lp)
        m, n = lp.m, lp.n
        assert sorted(sol.basis) == sorted(set(sol.basis)) and len(sol.basis) == m
        AI = np.hstack([lp.A_array, np.eye(m)])
        x = np.zeros(n + m)
        x[list(sol.basis)] = np.linalg.solve(AI[:, list(sol.basis)], lp.b_array)
        assert x[:n] == pytest.approx(sol.x, rel=1e-12)

    def test_status_prints_as_its_value(self):
        assert [str(s) for s in SolveStatus] == ["optimal", "unbounded"]


class TestUnbounded:
    def test_uncapped_single_variable(self):
        sol = solve_max(WhiteLP(c=(1,), A=((0,),), b=(5,)))
        assert sol.status is SolveStatus.UNBOUNDED
        assert sol.objective is None and sol.x == () and sol.basis == ()
        assert sol.ray == (1.0,)

    def test_ray_certificate(self):
        lp = WhiteLP(c=(1, 1), A=((1, -1),), b=(2,))
        sol = solve_max(lp)
        assert sol.status is SolveStatus.UNBOUNDED
        d = np.array(sol.ray)
        assert (d >= 0.0).all() and d.max() > 0.0
        assert lp.c_array @ d > 1e-9
        assert (lp.A_array @ d <= 1e-9).all()

    def test_equality_line_direction(self):
        # Feasible set is the ray x1 = x2 >= 0; profit grows along it.
        lp = WhiteLP(c=(1, 1), A=((1, -1), (-1, 1)), b=(0, 0))
        sol = solve_max(lp)
        assert sol.status is SolveStatus.UNBOUNDED
        d = np.array(sol.ray)
        assert (lp.A_array @ d <= 1e-9).all()
        assert lp.c_array @ d > 1e-9


# Programs with some b_i < 0, the index of the first, and a start of the
# right length.  The all-slack basis is infeasible for them; solve_max
# refuses them, and so does the stacked kernel even with a usable start.
NEGATIVE_RHS = [
    (WhiteLP(c=(1,), A=((-1,), (1,)), b=(-2, 5)), 0, (0, 2)),
    (WhiteLP(c=(-1,), A=((-1,), (1,)), b=(-2, 5)), 0, (1, 2)),
    (WhiteLP(c=(2,), A=((-1,), (1,)), b=(-3, 3)), 0, (0, 2)),
    (WhiteLP(c=(1,), A=((-1,), (1,)), b=(-5, 3)), 0, (1, 2)),
    (WhiteLP(c=(1,), A=((1,),), b=(-2,)), 0, (0,)),
    (WhiteLP(c=(1, 1), A=((1, 1), (-1, -1)), b=(1, -3)), 1, (2, 3)),
    (WhiteLP(c=(1, 1), A=((1, 1), (-1, -1)), b=(-1e-300, -3)), 0, (2, 3)),
]


class TestNegativeRhs:
    @pytest.mark.parametrize("lp, first, start", NEGATIVE_RHS)
    @pytest.mark.parametrize("started", [False, True])
    def test_is_refused_before_any_record(self, caplog, lp, first, start, started):
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            with pytest.raises(DomainError) as exc:
                _started(lp, start) if started else solve_max(lp)
        assert str(exc.value) == (
            f"solve_max needs b >= 0, but b[{first}] = {float(lp.b_array[first])!r}"
        )
        assert caplog.records == []


class TestDeterminismAndDegeneracy:
    def test_repeat_solves_bitwise_identical(self):
        first = solve_max(LOOSE)
        second = solve_max(LOOSE)
        assert first == second

    def test_duplicate_rows(self):
        lp = WhiteLP(c=(1, 2), A=((1, 1), (1, 1), (2, 2)), b=(4, 4, 8))
        sol = solve_max(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0, rel=1e-12)

    def test_degenerate_vertex(self):
        # Three constraints meet at (1, 1); ratio ties resolve by row order.
        lp = WhiteLP(c=(1, 1), A=((1, 0), (0, 1), (1, 1)), b=(1, 1, 2))
        sol = solve_max(lp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, rel=1e-12)

    def test_iteration_budget_exhaustion_raises(self):
        T = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SolverFailure):
            _iterate(T, [1], budget=0)

    def test_beale_cycling_example_terminates(self, caplog):
        # Dantzig's rule with lowest-row ratio ties cycles on Beale's
        # example until the pivot cap; Bland's rule, priced from the first
        # degenerate pivot on, reaches the optimum 5/4.
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            sol = solve_max(BEALE)
        [record] = caplog.records
        assert record.getMessage() == "solve_max: cold start, 6 pivots (4 degenerate), optimal"
        assert sol.objective == pytest.approx(1.25, rel=1e-12)
        assert exact_check(BEALE, sol) == ("optimal", Fraction(5, 4))

    @pytest.mark.parametrize("size, pivots", [(10, 5), (30, 14), (60, 29)])
    def test_cold_pivot_counts_of_dense_programs(self, caplog, size, pivots):
        # Dense programs without a dominant diagonal: A ~ U(0, 1),
        # b ~ U(1, 2), c ~ U(0.5, 1.5), seeded by the size.
        rng = np.random.default_rng(size)
        A, b = rng.uniform(0.0, 1.0, (size, size)), rng.uniform(1.0, 2.0, size)
        lp = WhiteLP(c=rng.uniform(0.5, 1.5, size), A=A, b=b)
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            sol = solve_max(lp)
        [record] = caplog.records
        assert record.getMessage() == (
            f"solve_max: cold start, {pivots} pivots (0 degenerate), optimal"
        )
        assert sol.status is SolveStatus.OPTIMAL


class TestExactCheck:
    """``exact_check`` proves what ``solve_max`` returns in rational
    arithmetic; the first tests check the checker itself."""

    def test_proves_the_demo_bounds(self, demo_problem, demo_bounds):
        # The bounds that `bounds --precise` prints, bit for bit.
        printed = (20657.71812080537, 74783.50515463918)
        assert (demo_bounds.critical, demo_bounds.ideal) == printed
        want = (Fraction(3078000, 149), Fraction(7254000, 97))
        for lp, exact, bound in zip(_bound_programs(demo_problem), want, printed):
            assert exact_check(lp, solve_max(lp)) == ("optimal", exact)
            assert float(exact) == bound

    def test_rejects_the_demo_slack_basis(self, demo_problem):
        # x = 0 is feasible, but every variable has a positive reduced cost.
        slack = LPSolution(SolveStatus.OPTIMAL, basis=(2, 3, 4))
        for lp in _bound_programs(demo_problem):
            assert exact_check(lp, slack) == ("dual", None)

    @pytest.mark.parametrize("lp, sol, failed", [
        (LOOSE, LPSolution(SolveStatus.OPTIMAL, basis=(0, 1, 3)), "primal"),
        (WhiteLP(c=(1, 2), A=((1, 1), (1, 1), (2, 2)), b=(4, 4, 8)),
         LPSolution(SolveStatus.OPTIMAL, basis=(0, 1, 2)), "singular"),
        (LOOSE, LPSolution(SolveStatus.OPTIMAL, basis=(2, 2, 3)), "singular"),
        (LOOSE, LPSolution(SolveStatus.UNBOUNDED, ray=(1.0, 0.0)), "ray"),
        (WhiteLP(c=(-1,), A=((0,),), b=(5,)),
         LPSolution(SolveStatus.UNBOUNDED, ray=(1.0,)), "ray"),
    ])
    def test_rejects_what_is_not_proven(self, lp, sol, failed):
        assert exact_check(lp, sol) == (failed, None)

    def test_matches_simplex_on_known_instances(self):
        for lp in (LOOSE, TIGHT):
            direct = solve_max(lp)
            status, exact = exact_check(lp, direct)
            assert status == "optimal"
            assert float(exact) == pytest.approx(direct.objective, rel=1e-9)

    def test_detects_unbounded(self):
        for lp in (
            WhiteLP(c=(1,), A=((0,),), b=(5,)),
            WhiteLP(c=(1, 1), A=((1, -1),), b=(2,)),
            WhiteLP(c=(1, 1), A=((1, -1), (-1, 1)), b=(0, 0)),
        ):
            assert exact_check(lp, solve_max(lp)) == ("unbounded", None)

    def test_random_cross_validation(self):
        rng = random.Random(20240817)
        for _ in range(150):
            p = random_bounded_problem(rng, n=2)
            a, b, g = random_triple(rng)
            lp = build_positioned(p, uniform_coefficients(a, b, g, p.m, p.n))
            direct = solve_max(lp)
            status, exact = exact_check(lp, direct)
            assert direct.status is SolveStatus.OPTIMAL and status == "optimal"
            assert direct.objective == pytest.approx(
                float(exact), abs=1e-6 * max(1.0, abs(exact))
            )
            _assert_feasible(lp, direct.x)

    def test_random_unbounded_agreement(self):
        rng = random.Random(987)
        seen_unbounded = 0
        for _ in range(150):
            p = random_loose_problem(rng, n=2)
            a, b, g = grid_triple(rng)
            lp = build_positioned(p, uniform_coefficients(a, b, g, p.m, p.n))
            direct = solve_max(lp)
            status, exact = exact_check(lp, direct)
            assert status == direct.status.value
            if direct.status is SolveStatus.UNBOUNDED:
                seen_unbounded += 1
            else:
                assert direct.objective == pytest.approx(
                    float(exact), abs=1e-6 * max(1.0, abs(exact))
                )
        assert seen_unbounded > 0  # the generator must actually exercise the path

    def test_bound_bases_of_synthetic_problems(self):
        # The 10x10 and 30x30 problems of
        # TestWarmStart::test_synthetic_problems_at_three_sizes (an exact
        # check at 60x60 takes about a second).
        rng = random.Random(77)
        for size in (10, 30):
            p = random_bounded_problem(rng, n=size, m=size)
            vb = bounds(p)
            for lp, bound in zip(_bound_programs(p), (vb.critical, vb.ideal)):
                sol = solve_max(lp)
                status, exact = exact_check(lp, sol)
                assert status == "optimal"
                for f in (sol.objective, bound):
                    assert abs(f - float(exact)) <= 1e-9 * max(1.0, abs(f))


def _outcome(solve, lp: WhiteLP):
    """Everything a solve returns, with floats as hex so that equal means
    bit for bit equal (a -0.0 differs from 0.0)."""
    try:
        sol = solve(lp)
    except SolverFailure as exc:
        return ("failure", str(exc))
    assert all(type(j) is int for j in sol.basis)

    def hexes(values):
        return None if values is None else tuple(float(v).hex() for v in values)

    objective = None if sol.objective is None else sol.objective.hex()
    return (sol.status, hexes(sol.x), objective, sol.basis, hexes(sol.ray))


def _scaled(A, b, c, rows, cols, obj):
    """The LP with row i scaled by 10**rows[i] (b too), column j by
    10**cols[j] and the objective by 10**obj."""
    R = 10.0 ** np.array(rows, dtype=float)
    S = 10.0 ** np.array(cols, dtype=float)
    A = np.array(A) * R[:, None] * S[None, :]
    return WhiteLP(c=np.array(c) * S * 10.0**obj, A=A, b=np.array(b) * R)


_sizes = st.tuples(st.integers(1, 6), st.integers(1, 6))
_real = st.floats(-5.0, 5.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def _mixed_sign_lps(draw):
    """b >= 0, with A and c of either sign.  The ``test_phase1_cases``
    tests draw from it; their name predates the narrowing of ``solve_max``
    to b >= 0 and is kept so that the test ids stay stable."""
    m, n = draw(_sizes)
    A = draw(st.lists(st.lists(_real, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.floats(0.0, 10.0).map(lambda v: round(v, 2)), min_size=m, max_size=m))
    return WhiteLP(c=draw(st.lists(_real, min_size=n, max_size=n)), A=A, b=b)


@st.composite
def _unbounded_lps(draw):
    """A profitable column with no positive entry: feasible at the origin
    and unbounded along that column."""
    m, n = draw(_sizes)
    A = draw(st.lists(
        st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n), min_size=m, max_size=m
    ))
    j = draw(st.integers(0, n - 1))
    for row in A:
        row[j] = -draw(st.sampled_from([0.0, 0.5, 2.0]))
    c = draw(st.lists(_real, min_size=n, max_size=n))
    c[j] = draw(st.floats(0.5, 5.0))
    b = draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m))
    return WhiteLP(c=c, A=A, b=b)


@st.composite
def _degenerate_lps(draw):
    """Small integer data with zero right-hand sides and repeated rows, so
    ratio ties and degenerate pivots are common."""
    m, n = draw(_sizes)
    small = st.sampled_from([0.0, 1.0, 2.0])
    A = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):  # repeat a row (and its bound)
        i = draw(st.integers(0, m - 1))
        A.append(list(A[i]))
        b.append(b[i] * draw(st.sampled_from([1.0, 2.0])))
        A[-1] = [v * (b[-1] / b[i] if b[i] else 1.0) for v in A[-1]]
    c = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n))
    return WhiteLP(c=c, A=A, b=b)


@st.composite
def _badly_scaled_lps(draw):
    """Bounded problems with rows, columns and the objective scaled by
    factors from 1e-12 to 1e12."""
    m, n = draw(_sizes)
    A = draw(st.lists(
        st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n), min_size=m, max_size=m
    ))
    b = draw(st.lists(st.floats(0.0, 50.0), min_size=m, max_size=m))
    c = draw(st.lists(st.floats(-5.0, 50.0), min_size=n, max_size=n))
    exponent = st.integers(-12, 12)
    rows = draw(st.lists(exponent, min_size=m, max_size=m))
    cols = draw(st.lists(exponent, min_size=n, max_size=n))
    return _scaled(A, b, c, rows, cols, draw(exponent))


OVERFLOWING = WhiteLP(c=(1.5e308,), A=((1.0,),), b=(1.2e308,))
OVERFLOW_FAILURE = ("failure", "solution failed the feasibility post-check")


class TestVectorisedPricing:
    """``solve_max`` prices with array operations; it must pick the pivots
    of the scalar pricing loop (``reference_solve_max``) and so return the
    same solution bit for bit."""

    @given(lp=_mixed_sign_lps())
    def test_phase1_cases(self, lp):
        assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)

    @given(lp=_unbounded_lps())
    def test_unbounded_cases(self, lp):
        got = _outcome(solve_max, lp)
        assert got[0] is SolveStatus.UNBOUNDED
        assert got == _outcome(reference_solve_max, lp)

    @given(lp=_degenerate_lps())
    def test_degenerate_cases(self, lp):
        assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)

    @given(lp=_badly_scaled_lps())
    def test_badly_scaled_cases(self, lp):
        assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)

    @pytest.mark.parametrize("lp", [
        LOOSE,
        TIGHT,
        WhiteLP(c=(1, 1), A=((1, 0), (0, 1), (1, 1)), b=(1, 1, 2)),
        WhiteLP(c=(1, 1), A=((1, -1), (-1, 1)), b=(0, 0)),
        WhiteLP(c=(1, -1), A=((-1, 1), (1, -2)), b=(0, 3)),
        # The only ratio overflows to +inf, which the running minimum never
        # takes: both report the column unbounded.
        WhiteLP(c=(1,), A=((1e-8,),), b=(1.7e308,)),
        BEALE,
    ])
    # reference_solve_max warns on the overflowing ratio.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_hand_picked_cases(self, lp):
        assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)

    # The suite turns a numpy RuntimeWarning into a failure.
    @pytest.mark.parametrize("lp", [
        # x = 1.2e308 is finite, but c.x and the objective row overflow.
        OVERFLOWING,
        # x = (1, 0) and c.x = 1 are finite, but the pivot row overflows and
        # NaN enters the tableau (inf * 0), where pricing would skip it.
        WhiteLP(c=(1, 1), A=((1e-5, 1e305),), b=(1e-5,)),
    ])
    def test_overflow_fails_the_post_check_without_warning(self, lp):
        assert _outcome(solve_max, lp) == OVERFLOW_FAILURE

    def test_warm_start_that_overflows_fails_without_warning(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            assert _started(OVERFLOWING, (0,)) == OVERFLOW_FAILURE
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: warm start, 0 pivots (0 degenerate), failed",
            "solve_max: cold start, 1 pivots (0 degenerate), failed",
        ]

    @pytest.mark.parametrize("lp, budget, message", [
        (OVERFLOWING, None, "solve_max: cold start, 1 pivots (0 degenerate), failed"),
        (LOOSE, 0,
         "solve_max: cold start, simplex exceeded its iteration cap of 0 pivots, failed"),
    ], ids=["post-check", "pivot-cap"])
    def test_failed_cold_solve_logs_one_record(self, caplog, monkeypatch, lp, budget, message):
        # Every simplex solve logs one record, so a cold solve that fails
        # its post-check or, with its budget cut to 0, its pivot cap logs
        # one before it raises.
        if budget is not None:
            monkeypatch.setattr(
                lp_solver, "_iterate", lambda T, basis, _: _iterate(T, basis, budget)
            )
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            with pytest.raises(SolverFailure):
                solve_max(lp)
        assert [r.getMessage() for r in caplog.records] == [message]

    def test_overflowing_ratio_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_max(WhiteLP(c=(1,), A=((1e-8,),), b=(1.7e308,)))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_synthetic_problems_at_three_sizes(self):
        rng = random.Random(77)
        for size in (10, 30, 60):
            p = random_bounded_problem(rng, n=size, m=size)
            for triple in ((0, 0, 1), (1, 1, 0), (0.3, 0.6, 0.4)):
                lp = build_positioned(p, uniform_coefficients(*triple, p.m, p.n))
                assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)


def _kernel(lp: WhiteLP, start):
    """The stacked kernel on ``lp`` alone, with ``start`` as its one cached
    basis: (value, cache, cold, warm)."""
    values, cache, cold, warm = lp_solver._solve_points(
        lp.A_array[None], lp.c_array[None, None], lp.b_array[None, None], (start,)
    )
    return values[0, 0, 0], cache, cold, warm


def _started(lp: WhiteLP, start):
    """What the kernel's solve of ``lp`` from ``start`` ends with: its value
    as hex (``nan`` if unbounded) and its cold and warm solve counts, or the
    failure it raised."""
    try:
        value, _, cold, warm = _kernel(lp, start)
    except SolverFailure as exc:
        return ("failure", str(exc))
    return (float(value).hex(), cold, warm)


def _as_cold_start(outcome):
    """A cold ``_outcome`` as :func:`_started` reports one cold solve."""
    if outcome[0] == "failure":
        return outcome
    value = outcome[2] if outcome[0] is SolveStatus.OPTIMAL else float("nan").hex()
    return (value, 1, 0)


def _assert_started_like_cold(lp: WhiteLP, start):
    """The kernel's solve of ``lp`` from ``start`` ends as the cold solve
    does: the same failure, NaN where the cold solve is unbounded, and
    otherwise a value within 1e-9 * max(1, |f|) of the cold optimum f."""
    cold = _outcome(solve_max, lp)
    got = _started(lp, start)
    if cold[0] == "failure":
        assert got == cold
    elif cold[0] is SolveStatus.UNBOUNDED:
        assert got[0] == "nan"
    else:
        f, g = float.fromhex(cold[2]), float.fromhex(got[0])
        assert abs(g - f) <= 1e-9 * max(1.0, abs(f))


@st.composite
def _with_start(draw, lps):
    """An LP and a start for it: m distinct columns of [A | I] in random
    order, which may certify, be primal feasible only, or be unusable."""
    lp = draw(lps)
    return lp, tuple(draw(st.permutations(range(lp.n + lp.m)))[: lp.m])


def _bound_programs(p: GreyLP) -> list[WhiteLP]:
    """The critical and ideal programs of ``p``."""
    return [build_positioned(p, uniform_coefficients(*t, p.m, p.n)) for t in ((0, 0, 1), (1, 1, 0))]


# The stack layout of the two bounds as the program solves them: the ideal
# point (1, 1, 0), then the critical one (0, 0, 1).
_BOUND_POINTS = _point_layout(np.array([(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)]))


def _kernel_bounds(p: GreyLP, bases=()):
    """The stacked kernel over the bounds' points of ``p``, with ``bases``
    as its first cached bases: ((critical, ideal), cache), a bound NaN
    where its program is unbounded."""
    values, cache, _, _ = lp_solver._solve_points(*_white_stack(p, *_BOUND_POINTS), bases)
    ideal, critical = values.ravel().tolist()
    return (critical, ideal), cache


def _assert_bounds_like_cold(p: GreyLP, bases):
    """The kernel over the bounds' points, started from ``bases`` and from
    no basis, ends as the cold solves of the bound programs do: some bound
    is unbounded (NaN) if one program is, and otherwise each bound is
    within 1e-9 * max(1, |f|) of the cold optimum f."""
    cold = [solve_max(lp) for lp in _bound_programs(p)]
    unbounded = any(sol.status is SolveStatus.UNBOUNDED for sol in cold)
    for given_bases in (bases, ()):
        got, _ = _kernel_bounds(p, given_bases)
        if unbounded:
            assert np.isnan(got).any()
            continue
        for f, sol in zip(got, cold):
            assert abs(f - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective))


@st.composite
def _grey_with_basis(draw):
    """A random grey problem (bounded, or loose and sometimes unbounded) and
    the optimal basis of one of its whitenings."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = random_bounded_problem if draw(st.booleans()) else random_loose_problem
    size = draw(st.sampled_from([None, 8]))
    p = make(rng, n=size, m=size)
    triple = draw(st.sampled_from([random_triple(rng), grid_triple(rng), (0, 0, 1), (1, 1, 0)]))
    other = solve_max(build_positioned(p, uniform_coefficients(*triple, p.m, p.n)))
    assume(other.status is SolveStatus.OPTIMAL)
    return p, other.basis


# An unbounded program (ray (1, 0, 0)) and a start whose B is singular
# (cond 8e16, rows 2 and 3 of A are equal), which LU does not flag.  Its
# tableau, built by np.linalg.solve, has entries near 1.8e16 and made x = 0
# look optimal.
SINGULAR_START = (
    WhiteLP(c=(1, 0, 0), A=((0, .5, 1), (-.5, .5, .5), (-.5, 2, 1), (-.5, 2, 1), (-.5, 3, 1),
                            (0, 1, .5)), b=(0,) * 6),
    (0, 1, 2, 3, 7, 4),
)


class TestWarmStart:
    """The stacked kernel certifies a cached basis, pivots on from it, or
    solves cold; for one program or for the bounds, it must end as the cold
    solve does."""

    @given(case=_with_start(_mixed_sign_lps()))
    def test_phase1_cases(self, case):
        _assert_started_like_cold(*case)

    @given(case=_with_start(_unbounded_lps()))
    @example(case=SINGULAR_START)
    def test_unbounded_cases(self, case):
        _assert_started_like_cold(*case)

    @given(case=_with_start(_degenerate_lps()))
    def test_degenerate_cases(self, case):
        _assert_started_like_cold(*case)

    @given(case=_grey_with_basis())
    def test_start_from_another_whitening(self, case):
        p, basis = case
        _assert_bounds_like_cold(p, (basis,))

    def test_synthetic_problems_at_three_sizes(self):
        rng = random.Random(77)
        for size in (10, 30, 60):
            p = random_bounded_problem(rng, n=size, m=size)
            query = solve_max(build_positioned(p, uniform_coefficients(0.3, 0.6, 0.4, size, size)))
            _assert_bounds_like_cold(p, (query.basis,))

    @pytest.mark.parametrize("lp", [LOOSE, TIGHT])
    def test_own_basis_certifies_without_pivots(self, lp, caplog):
        cold = solve_max(lp)
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            value, cache, n_cold, n_warm = _kernel(lp, cold.basis[::-1])
        assert caplog.records == []  # a certified point logs no record
        assert (n_cold, n_warm) == (0, 0)
        assert value == pytest.approx(cold.objective, rel=1e-12)
        assert cache == [tuple(sorted(cold.basis))]

    def test_primal_feasible_start_pivots_on(self, caplog):
        # The slack basis of LOOSE is feasible but not optimal.
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            value, _, n_cold, n_warm = _kernel(LOOSE, (2, 3, 4))
        [message] = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(
            r"solve_max: warm start, [1-9]\d* pivots \(0 degenerate\), optimal", message
        )
        assert (n_cold, n_warm) == (0, 1)
        assert value == pytest.approx(LOOSE_F, rel=1e-12)

    def test_primal_feasible_basis_pivots_on(self, demo_problem, caplog):
        # The slack basis is primal feasible but not optimal at both bounds.
        slack = tuple(range(demo_problem.n, demo_problem.n + demo_problem.m))
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            got, cache = _kernel_bounds(demo_problem, (slack,))
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: warm start, 2 pivots (0 degenerate), optimal",
            "solve_max: warm start, 2 pivots (0 degenerate), optimal",
        ]
        assert got == _kernel_bounds(demo_problem)[0]
        assert cache[0] == slack and len(cache) == 3

    @pytest.mark.parametrize("broken", ["_iterate", "_vertex"])
    def test_failed_warm_start_falls_back_to_cold(self, demo_problem, caplog, monkeypatch,
                                                  broken):
        # The first phase 2 exhausts its pivot budget or fails its
        # post-check; that bound is then solved cold.
        real = getattr(lp_solver, broken)
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) > 1:
                return real(*args)
            if broken == "_vertex":
                return None
            raise SolverFailure("simplex exceeded its iteration cap of 0 pivots")

        slack = tuple(range(demo_problem.n, demo_problem.n + demo_problem.m))
        expected = _kernel_bounds(demo_problem)[0]
        monkeypatch.setattr(lp_solver, broken, failing_once)
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            got, _ = _kernel_bounds(demo_problem, (slack,))
        assert got == expected
        assert [r.getMessage().rsplit(", ", 1)[1] for r in caplog.records] == [
            "failed", "optimal", "optimal"
        ]
        starts = [r.getMessage().split(",")[0] for r in caplog.records]
        assert starts == ["solve_max: warm start", "solve_max: cold start", "solve_max: warm start"]


def _infeasible_start(draw, lp: WhiteLP):
    """m distinct columns whose basic solution has a clearly negative entry
    (computed here, independently of the solver)."""
    m, n = lp.m, lp.n
    start = tuple(draw(st.permutations(range(n + m)))[:m])
    B = np.hstack([lp.A_array, np.eye(m)])[:, list(start)]
    try:
        xB = np.linalg.solve(B, lp.b_array)
    except np.linalg.LinAlgError:
        xB = None
    assume(xB is not None and xB.min() < -1e-6 * max(1.0, np.abs(xB).max()))
    return start


@st.composite
def _rejected_start(draw, lps):
    """An LP and a start the kernel cannot use: one with an all-zero column
    (a singular basis) or one that is primal infeasible."""
    lp = draw(lps)
    m, n = lp.m, lp.n
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        A = lp.A_array.copy()
        A[:, j] = 0.0
        lp = WhiteLP(c=lp.c_array, A=A, b=lp.b_array)
        others = [k for k in range(n + m) if k != j]
        return lp, (j, *draw(st.permutations(others))[: m - 1])
    return lp, _infeasible_start(draw, lp)


class TestRejectedStart:
    """A cached basis that cannot be used gives one cold solve, whose value
    the kernel keeps bit for bit."""

    @given(case=_rejected_start(_mixed_sign_lps()))
    def test_phase1_cases(self, case):
        lp, start = case
        assert _started(lp, start) == _as_cold_start(_outcome(solve_max, lp))

    @given(case=_rejected_start(_unbounded_lps()))
    def test_unbounded_cases(self, case):
        lp, start = case
        assert _started(lp, start) == _as_cold_start(_outcome(solve_max, lp))

    @given(case=_rejected_start(_degenerate_lps()))
    def test_degenerate_cases(self, case):
        lp, start = case
        assert _started(lp, start) == _as_cold_start(_outcome(solve_max, lp))

    @given(case=_rejected_start(_badly_scaled_lps()))
    def test_badly_scaled_cases(self, case):
        lp, start = case
        assert _started(lp, start) == _as_cold_start(_outcome(solve_max, lp))

    # Every basis of LOOSE with a negative basic value.
    @pytest.mark.parametrize("start", [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 4),
                                       (1, 3, 4)])
    def test_primal_infeasible_starts_log_only_the_cold_solve(self, caplog, start):
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            got = _started(LOOSE, start)
        [record] = caplog.records
        message = record.getMessage()
        assert re.fullmatch(r"solve_max: cold start, \d+ pivots \(0 degenerate\), optimal", message)
        assert got == _as_cold_start(_outcome(solve_max, LOOSE))

    def test_exhausted_budget_falls_back(self, monkeypatch):
        calls = []

        def failing_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise SolverFailure("simplex exceeded its iteration cap of 0 pivots")
            return _iterate(*args)

        monkeypatch.setattr(lp_solver, "_iterate", failing_once)
        assert _started(LOOSE, (2, 3, 4)) == _as_cold_start(_outcome(solve_max, LOOSE))
        assert len(calls) == 3  # the warm start, then the cold solve twice

    def test_numerically_singular_start_is_refused(self, caplog):
        # Phase 2 from this start finds B^-1 B far from the identity and
        # fails before any pivot.  The kernel never gets that far: the
        # start's k x k structural block is exactly singular, so it
        # certifies nothing, is feasible nowhere, and the program is solved
        # cold.
        lp, start = SINGULAR_START
        assert lp_solver._phase2(lp.A_array, lp.b_array, lp.c_array, np.array(start)) is None
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            got = _started(lp, start)
        assert got == _as_cold_start(_outcome(solve_max, lp)) == ("nan", 1, 0)
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: cold start, 0 pivots (0 degenerate), unbounded",
        ]

    def test_exactly_singular_start_is_refused(self, caplog):
        # B = [[1, 1], [2, 2]] is singular in exact arithmetic, so LU flags
        # it under every BLAS kernel.  Phase 2 refuses the start as it
        # refuses a numerically singular one, and the kernel, which cannot
        # certify the basis anywhere, solves the program cold.
        lp, start = WhiteLP(c=(1, 1), A=((1, 1), (2, 2)), b=(1, 2)), (0, 1)
        assert lp_solver._phase2(lp.A_array, lp.b_array, lp.c_array, np.array(start)) is None
        with caplog.at_level(logging.DEBUG, logger="greylp.lp_solver"):
            got = _started(lp, start)
        assert got == _as_cold_start(_outcome(solve_max, lp))
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: cold start, 1 pivots (0 degenerate), optimal",
        ]

    def test_failed_post_check_falls_back(self, monkeypatch):
        vertex = lp_solver._vertex
        calls = []

        def failing_once(*args):
            calls.append(args)
            return None if len(calls) == 1 else vertex(*args)

        monkeypatch.setattr(lp_solver, "_vertex", failing_once)
        assert _started(LOOSE, (2, 3, 4)) == _as_cold_start(_outcome(solve_max, LOOSE))
        assert len(calls) == 3  # the warm start, then the cold solve twice


def _layout(kind: str, rng: random.Random):
    """A stack layout of quarter-grid triples: the cube's in closed form
    (of which "box" certifies a sub-box), or a slice per point for random
    triples or the cube's shuffled."""
    grid = analysis.unit_grid(0.25)
    if kind in ("cube", "box"):
        return _cube_layout(grid)
    if kind == "points":
        return _point_layout(np.array([random_triple(rng) for _ in range(40)]))
    pts = np.array(list(itertools.product(grid, repeat=3)))
    return _point_layout(pts[rng.sample(range(len(pts)), len(pts))])


class TestCertifiedValues:
    """``_certify`` takes each slice's values over its whole alpha x beta
    rectangle at once, yet each entry (g, a, b) must be summed as
    ``np.einsum("ij,ij->i")`` sums its own objective row ``C[g, a]`` and
    solution row (at ``Bv[g, b]``).  A product that sums in another order (a BLAS matmul, or einsum
    over an axis that is not contiguous) moves printed digits.  The kernel
    certifies on views of its stacks, a box of slices x alphas x betas, so
    the same must hold there."""

    @pytest.mark.parametrize("kind", ["cube", "box", "points", "shuffled"])
    @pytest.mark.parametrize("n", [2, 3, 7, 30])
    def test_each_point_is_summed_as_its_own_rows(self, n, kind):
        rng = random.Random(n)
        p = random_bounded_problem(rng, n=n, m=rng.randint(1, n))
        A, C, Bv = _white_stack(p, *_layout(kind, rng))
        m = A.shape[1]
        if kind == "box":
            # 2 to 5 of the 5 slices, and 1 to 3 of the 5 alphas and betas,
            # never the first.
            g = slice(rng.randint(0, 1), rng.randint(3, 5))
            a, b = (slice(rng.randint(1, 2), rng.randint(3, 4)) for _ in range(2))
            A, C, Bv = A[g], C[g, a], Bv[g, b]
            assert not (C.flags.c_contiguous or Bv.flags.c_contiguous)
        (G, _, _), ka, kb = A.shape, C.shape[1], Bv.shape[1]
        S = np.array(solve_max(build_positioned(p, uniform_coefficients(0.5, 0.5, 0.5, m, n))).basis)
        _, f, _ = lp_solver._certify(A, C, Bv, S)
        xs = block_primal(A, Bv, S)  # the solution at every right-hand side
        g, a, b = np.indices((G, ka, kb)).reshape(3, -1)
        want = np.einsum("ij,ij->i", C[g, a], xs.transpose(0, 2, 1)[g, b])
        assert np.count_nonzero(want) > len(want) // 2
        assert f.shape == (G, ka, kb)
        assert f.tobytes() == want.tobytes()


def _bases_to_certify(rng: random.Random, p: GreyLP):
    """Bases of every kind for ``p``: the optimal ones of four random
    whitenings, the all-slack one (k = 0), m structural columns where
    n >= m (k = m), and m random columns of [A | I]."""
    m, n = p.m, p.n
    bases = [
        solve_max(build_positioned(p, uniform_coefficients(*random_triple(rng), m, n))).basis
        for _ in range(4)
    ]
    bases.append(tuple(range(n, n + m)))
    if n >= m:
        bases.append(tuple(rng.sample(range(n), m)))
    bases.append(tuple(rng.sample(range(n + m), m)))
    return bases


def _random_box(rng: random.Random, A, C, Bv):
    """A random box of the stack, as the kernel certifies on: views of a
    range of slices x alphas x betas."""
    def span(k):
        lo = rng.randrange(k)
        return slice(lo, rng.randint(lo + 1, k))
    g, a, b = span(len(A)), span(C.shape[1]), span(Bv.shape[1])
    return A[g], C[g, a], Bv[g, b]


def _assert_certifies_as_reference(A, C, Bv, basis):
    ok, f, primal = lp_solver._certify(A, C, Bv, basis)
    want_ok, want_f, want_primal = reference_certify(A, C, Bv, basis)
    assert (ok == want_ok).all() and (primal == want_primal).all()
    assert f.tobytes() == want_f.tobytes()
    return ok, primal


class TestCertifyMatchesReference:
    """``_certify`` solves the primal and the dual on the k x k block of the
    basic structural columns and never builds [A | I] or the m x m basis
    matrix; it must certify exactly where the full [A | I] pricing of
    ``conftest.reference_certify`` does, on every box of the stack, with
    the same primal feasibility and the same bits of f."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems_and_boxes(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        if seed % 2:
            p = many_basis_problem(np.random.default_rng(seed), m, n)
        else:
            p = random_bounded_problem(rng, n=n, m=m)
        stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.25)))
        certified = 0
        for basis in _bases_to_certify(rng, p):
            certified += _assert_certifies_as_reference(*stack, basis)[0].sum()
            _assert_certifies_as_reference(*_random_box(rng, *stack), basis)
        assert certified > 0

    def test_zero_objective_certifies_the_all_slack_basis(self):
        # k = 0: no dual to solve, y = 0, and every point is certified at 0.
        rng = random.Random(5)
        p = many_basis_problem(np.random.default_rng(5), 7, 4)
        p = GreyLP(np.zeros((4, 2)), np.stack([p.A_lo, p.A_hi], -1), np.stack([p.b_lo, p.b_hi], -1))
        stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.25)))
        assert _assert_certifies_as_reference(*stack, range(4, 11))[0].all()
        for basis in _bases_to_certify(rng, p):
            _assert_certifies_as_reference(*stack, basis)

    def test_basic_slack_is_held_to_the_pivot_tolerance(self):
        # max x s.t. x <= 1, x <= 1 - 5e-9: the basis {x, s_2} sets x = 1 and
        # its basic slack s_2 = -5e-9, past -1e-9 but within the 1e-7
        # post-check.  It is primal infeasible, so it certifies nothing;
        # {x, s_1} certifies the optimum 1 - 5e-9 everywhere.
        b = 1 - 5e-9
        p = GreyLP(objective=[(1, 1)], matrix=[[(1, 1)], [(1, 1)]], rhs=[(1, 1), (b, b)])
        stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.5)))
        ok, primal = _assert_certifies_as_reference(*stack, (0, 2))
        assert not (ok.any() or primal.any())
        ok, primal = _assert_certifies_as_reference(*stack, (0, 1))
        assert ok.all()

    def test_singular_slice(self):
        # max x s.t. gamma*x <= b: at gamma = 0 the basis {x} is singular,
        # and so is its 1 x 1 block; it certifies every other slice.  The
        # all-slack basis is primal feasible everywhere and certifies
        # nothing, since x gains.
        p = GreyLP(objective=[(1, 1)], matrix=[[(0, 1)]], rhs=[(1, 2)])
        stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.25)))
        ok, primal = _assert_certifies_as_reference(*stack, (0,))
        assert not (ok[0].any() or primal[0].any()) and ok[1:].all()
        ok, primal = _assert_certifies_as_reference(*stack, (1,))
        assert primal.all() and not ok.any()

    def test_value_that_overflows_certifies_nothing(self):
        # max c.x s.t. x_1 <= 1, 3 x_2 <= b_2: the basis {x_1, x_2} is
        # primal and dual feasible, y.b is finite, but c.x overflows to inf
        # and passes the gap test; a tableau solve refuses such a value.
        A = np.array([[[1.0, 0.0], [0.0, 3.0]]])
        C = np.array([[[8.988465674311579e307, 8.988981468087567e307]]])
        Bv = np.array([[[1.0, 2.999827857991091]]])
        ok, primal = _assert_certifies_as_reference(A, C, Bv, (0, 1))
        _, f, _ = lp_solver._certify(A, C, Bv, (0, 1))
        assert primal.all() and np.isinf(f).all() and not ok.any()


class TestSolveStack:
    """``_solve_stack`` returns the solutions alone: a singular matrix's
    slot is NaN, and no flag says which slots those are."""

    def test_nonsingular_stack_is_one_stacked_solve(self):
        rng = np.random.default_rng(0)
        M, R = rng.normal(size=(4, 5, 5)), rng.normal(size=(4, 5, 3))
        assert lp_solver._solve_stack(M, R).tobytes() == np.linalg.solve(M, R).tobytes()

    def test_singular_slot_is_nan_and_the_others_solved_alone(self):
        # A zero column makes the middle matrix exactly singular, so the
        # stacked solve raises and each matrix is solved on its own.
        rng = np.random.default_rng(1)
        M, R = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 2))
        M[1, :, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, R)
        X = lp_solver._solve_stack(M, R)
        assert X.shape == R.shape
        assert np.isnan(X[1]).all()
        for g in (0, 2):
            assert X[g].tobytes() == np.linalg.solve(M[g], R[g]).tobytes()


@pytest.mark.parametrize("family", ["bounded", "many_basis"])
@pytest.mark.parametrize("size", [10, 30, 60])
def test_certified_values_lie_near_the_square_primal(size, family):
    # _certify solves x_S on the k x k block; the full m x m basis matrix
    # of [A | I] gives the same values up to rounding.  Every basis the
    # kernel caches on a step-0.25 cube, certified on the whole cube.
    if family == "bounded":
        p = random_bounded_problem(random.Random(size), n=size, m=size)
    else:
        p = many_basis_problem(np.random.default_rng(size), size, size)
    stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.25)))
    A, C, Bv = stack
    certified = 0
    for basis in lp_solver._solve_points(*stack)[1]:
        ok, f, primal = lp_solver._certify(A, C, Bv, basis)
        want_ok, _, want_primal = reference_certify(A, C, Bv, basis)
        assert (ok == want_ok).all() and (primal == want_primal).all()
        xs = square_primal(A, Bv, basis)
        want = np.einsum("gan,gbn->gab", C, np.ascontiguousarray(xs.transpose(0, 2, 1)))
        assert (np.abs(f - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))[ok].all()
        certified += ok.sum()
    assert certified > 0


def test_kernel_builds_no_stack_of_identity_columns():
    # A seeded 60x60 many-basis cube at step 0.25 (5 slices, 89 bases).
    # Stacking [A | I] (5 x 60 x 120) and [C | 0] (5 x 5 x 120) with their
    # certification took the kernel's traced peak to 706 KB; without them
    # it is 325 KB.
    p = many_basis_problem(np.random.default_rng(0), 60, 60)
    stack = _white_stack(p, *_cube_layout(analysis.unit_grid(0.25)))
    tracemalloc.start()
    try:
        lp_solver._solve_points(*stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_badly_scaled_start_can_end_away_from_the_cold_solve():
    # The solver's tolerances are absolute (the scale defect in ROADMAP item
    # 2), so at tiny scales "optimal" depends on the path.  Cold, the reduced
    # cost 1e-9 does not exceed the tolerance and x = 0 is reported; with
    # the basis {x} cached, the kernel certifies it and reports the true
    # optimum 1e-8.
    lp = WhiteLP(c=(1e-9,), A=((0.1,),), b=(1.0,))
    assert solve_max(lp).objective == 0.0
    assert _kernel(lp, (0,))[0] == pytest.approx(1e-8, rel=1e-12)


def test_post_check_is_relative_to_large_right_hand_sides():
    # A seeded 60x60 program of the benchmark's family (a heavy diagonal)
    # with A scaled by 1e-6 and b by 1e6, which maps x to 1e12 x.  At b near
    # 1e8 its optimal vertex has the exact slack -1.06e-7: past an absolute
    # 1e-7, but within 1e-7 * |b_i|, where A.x carries the rounding of b_i.
    # The slack is computed in rational arithmetic on the float data, since
    # a BLAS product reads anywhere from -1.04e-7 to -1.19e-7 by kernel.
    rng = np.random.default_rng(41)
    c = rng.uniform(1.0, 10.0, 60)
    A = rng.uniform(0.1, 1.0, (60, 60))
    A[np.arange(60), np.arange(60)] = rng.uniform(0.5, 0.75, 60) * 60
    b = rng.uniform(50.0, 100.0, 60)
    lp = WhiteLP(c=c, A=A * 1e-6, b=b * 1e6)
    sol = solve_max(lp)
    x = [Fraction(v) for v in sol.x]
    worst, b_i = min(
        (Fraction(b_i) - sum(map(operator.mul, map(Fraction, row), x)), b_i)
        for row, b_i in zip(lp.A_array.tolist(), lp.b_array.tolist())
    )
    assert -1e-7 * b_i < worst < -1e-7 and b_i > 5e7
    unscaled = solve_max(WhiteLP(c=c, A=A, b=b)).objective
    assert sol.objective == pytest.approx(unscaled * 1e12, rel=1e-12)
    # The kernel's post-check is the same one: the basis certifies its
    # program, so "certified" and "solved" agree.
    assert _kernel(lp, sol.basis)[1:] == ([tuple(sorted(sol.basis))], 0, 0)
