"""Simplex solver and vertex-enumeration oracle: known optima, statuses,
certificates, determinism, and cross-validation."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    grid_triple,
    random_bounded_problem,
    random_loose_problem,
    random_triple,
    reference_solve_max,
)
from greylp import (
    DomainError,
    SolveStatus,
    SolverFailure,
    WhiteLP,
    build_positioned,
    enumerate_vertices_oracle,
    solve_max,
    uniform_coefficients,
)
from greylp.lp_solver import _bland_iterate

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


def _assert_feasible(lp: WhiteLP, x, tol=1e-7):
    A = np.array(lp.A)
    b = np.array(lp.b)
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
        AI = np.hstack([np.array(lp.A), np.eye(m)])
        x = np.zeros(n + m)
        x[list(sol.basis)] = np.linalg.solve(AI[:, list(sol.basis)], np.array(lp.b))
        assert x[:n] == pytest.approx(sol.x, rel=1e-12)


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
        assert np.array(lp.c) @ d > 1e-9
        assert (np.array(lp.A) @ d <= 1e-9).all()

    def test_equality_line_direction(self):
        # Feasible set is the ray x1 = x2 >= 0; profit grows along it.
        lp = WhiteLP(c=(1, 1), A=((1, -1), (-1, 1)), b=(0, 0))
        sol = solve_max(lp)
        assert sol.status is SolveStatus.UNBOUNDED
        d = np.array(sol.ray)
        assert (np.array(lp.A) @ d <= 1e-9).all()
        assert np.array(lp.c) @ d > 1e-9


class TestNegativeRhs:
    def test_forced_lower_bound_feasible(self):
        # -x <= -2 and x <= 5 pin x to [2, 5].
        sol = solve_max(WhiteLP(c=(1,), A=((-1,), (1,)), b=(-2, 5)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.0, rel=1e-12)

    def test_optimum_away_from_origin(self):
        sol = solve_max(WhiteLP(c=(-1,), A=((-1,), (1,)), b=(-2, 5)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0, rel=1e-12)
        assert sol.x == pytest.approx((2.0,))

    def test_pinned_variable(self):
        sol = solve_max(WhiteLP(c=(2,), A=((-1,), (1,)), b=(-3, 3)))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(6.0, rel=1e-12)

    def test_infeasible_band(self):
        sol = solve_max(WhiteLP(c=(1,), A=((-1,), (1,)), b=(-5, 3)))
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.x == () and sol.objective is None

    def test_infeasible_simple(self):
        sol = solve_max(WhiteLP(c=(1,), A=((1,),), b=(-2,)))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_two_variable_infeasible(self):
        # x1 + x2 <= 1 cannot coexist with x1 + x2 >= 3.
        sol = solve_max(WhiteLP(c=(1, 1), A=((1, 1), (-1, -1)), b=(1, -3)))
        assert sol.status is SolveStatus.INFEASIBLE


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
            _bland_iterate(T, [1], ncols=2, budget=0)


class TestOracle:
    def test_matches_simplex_on_known_instances(self):
        for lp in (LOOSE, TIGHT):
            oracle = enumerate_vertices_oracle(lp)
            direct = solve_max(lp)
            assert oracle.status is SolveStatus.OPTIMAL
            assert oracle.objective == pytest.approx(direct.objective, rel=1e-9)

    def test_detects_unbounded(self):
        for lp in (
            WhiteLP(c=(1,), A=((0,),), b=(5,)),
            WhiteLP(c=(1, 1), A=((1, -1),), b=(2,)),
            WhiteLP(c=(1, 1), A=((1, -1), (-1, 1)), b=(0, 0)),
        ):
            assert enumerate_vertices_oracle(lp).status is SolveStatus.UNBOUNDED

    def test_detects_infeasible(self):
        assert (
            enumerate_vertices_oracle(WhiteLP(c=(1,), A=((1,),), b=(-2,))).status
            is SolveStatus.INFEASIBLE
        )

    def test_rejects_large_problems(self):
        lp = WhiteLP(c=(1,) * 5, A=((1,) * 5,), b=(10,))
        with pytest.raises(DomainError):
            enumerate_vertices_oracle(lp)

    def test_random_cross_validation(self):
        rng = random.Random(20240817)
        for _ in range(150):
            p = random_bounded_problem(rng, n=2)
            a, b, g = random_triple(rng)
            lp = build_positioned(p, uniform_coefficients(a, b, g, p.m, p.n))
            direct = solve_max(lp)
            oracle = enumerate_vertices_oracle(lp)
            assert direct.status is oracle.status is SolveStatus.OPTIMAL
            assert direct.objective == pytest.approx(
                oracle.objective, abs=1e-6 * max(1.0, abs(oracle.objective))
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
            oracle = enumerate_vertices_oracle(lp)
            assert direct.status is oracle.status
            if direct.status is SolveStatus.UNBOUNDED:
                seen_unbounded += 1
            else:
                assert direct.objective == pytest.approx(
                    oracle.objective, abs=1e-6 * max(1.0, abs(oracle.objective))
                )
        assert seen_unbounded > 0  # the generator must actually exercise the path


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
def _phase1_lps(draw):
    """At least one negative right-hand side, so phase 1 runs."""
    m, n = draw(_sizes)
    A = draw(st.lists(st.lists(_real, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.floats(-10.0, 10.0).map(lambda v: round(v, 2)), min_size=m, max_size=m))
    b[draw(st.integers(0, m - 1))] = -draw(st.floats(0.01, 10.0))
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


class TestVectorisedPricing:
    """``solve_max`` prices with array operations; it must pick the pivots
    of the scalar Bland loop (``reference_solve_max``) and so return the
    same solution bit for bit."""

    @given(lp=_phase1_lps())
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
        WhiteLP(c=(1,), A=((-1,), (1,)), b=(-5, 3)),
        # The only ratio overflows to +inf, which the running minimum never
        # takes: both report the column unbounded.
        WhiteLP(c=(1,), A=((1e-8,),), b=(1.7e308,)),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_hand_picked_cases(self, lp):
        assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)

    def test_synthetic_problems_at_three_sizes(self):
        rng = random.Random(77)
        for size in (10, 30, 60):
            p = random_bounded_problem(rng, n=size, m=size)
            for triple in ((0, 0, 1), (1, 1, 0), (0.3, 0.6, 0.4)):
                lp = build_positioned(p, uniform_coefficients(*triple, p.m, p.n))
                assert _outcome(solve_max, lp) == _outcome(reference_solve_max, lp)
