"""Data model and whitening: construction, endpoints, validation collection."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_validate_problem
from greylp import (
    DomainError,
    GreyLP,
    Interval,
    PositionCoefficients,
    StructureError,
    WhiteLP,
    build_positioned,
    theta_coefficients,
    uniform_coefficients,
    validate_problem,
    whiten,
)

_lo = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
_width = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_t = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestInterval:
    def test_coerces_bounds_to_float(self):
        iv = Interval(1, 2)
        assert isinstance(iv.lo, float) and isinstance(iv.hi, float)
        assert iv == Interval(1.0, 2.0)

    def test_is_white(self):
        assert Interval(3.5, 3.5).is_white
        assert not Interval(3.5, 4.0).is_white

    def test_frozen(self):
        with pytest.raises(Exception):
            Interval(1, 2).lo = 5.0


class TestWhiten:
    def test_position_weights_upper_bound(self):
        assert whiten(Interval(600, 800), 0.6) == pytest.approx(720.0, abs=1e-9)
        assert whiten(Interval(100, 200), 0.5) == pytest.approx(150.0, abs=1e-9)
        assert whiten(Interval(0, 10), 0.25) == pytest.approx(2.5, abs=1e-12)

    def test_endpoints_are_exact(self):
        iv = Interval(0.1, 9.7)
        assert whiten(iv, 0.0) == iv.lo
        assert whiten(iv, 1.0) == iv.hi

    def test_accepts_bare_pairs(self):
        assert whiten((2, 4), 0.5) == pytest.approx(3.0)

    def test_white_interval_ignores_position(self):
        for t in (0.0, 0.3, 1.0):
            assert whiten(Interval(5, 5), t) == 5.0

    @pytest.mark.parametrize("t", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_position_outside_unit(self, t):
        with pytest.raises(DomainError):
            whiten(Interval(1, 2), t)

    def test_rejects_invalid_interval(self):
        with pytest.raises(DomainError):
            whiten(Interval(3, 1), 0.5)
        with pytest.raises(DomainError):
            whiten(Interval(0, float("inf")), 0.5)
        with pytest.raises(DomainError):
            whiten(Interval(float("nan"), 1), 0.5)

    @given(lo=_lo, width=_width, t=_t)
    def test_result_stays_within_interval(self, lo, width, t):
        iv = Interval(lo, lo + width)
        v = whiten(iv, t)
        slack = 1e-12 * max(1.0, iv.hi)
        assert iv.lo - slack <= v <= iv.hi + slack

    @given(lo=_lo, width=_width, t1=_t, t2=_t)
    def test_monotone_in_position(self, lo, width, t1, t2):
        iv = Interval(lo, lo + width)
        t1, t2 = min(t1, t2), max(t1, t2)
        slack = 1e-12 * max(1.0, iv.hi)
        assert whiten(iv, t1) <= whiten(iv, t2) + slack


class TestGreyLP:
    def test_construction_from_pairs(self):
        p = GreyLP(
            objective=((600, 800), (900, 1500)),
            matrix=(((3, 5), (3.5, 6.5)), ((7, 11), (3, 5)), ((2.5, 3.5), (8, 12))),
            rhs=((150, 235), (280, 360), (270, 330)),
        )
        assert p.n == 2 and p.m == 3
        assert p.objective[0] == Interval(600, 800)
        assert p.matrix[2][1] == Interval(8, 12)
        assert not p.is_white

    def test_is_white(self):
        p = GreyLP(objective=((1, 1),), matrix=(((2, 2),),), rhs=((3, 3),))
        assert p.is_white

    def test_construction_does_not_validate(self):
        # Collecting violations is validate_problem's job.
        p = GreyLP(objective=((8, 6),), matrix=(((-1, 2),),), rhs=((3, 4),))
        assert p.n == 1


class TestPositionCoefficients:
    def test_valid_construction(self):
        k = PositionCoefficients(alphas=(0, 1), betas=(0.5,), gammas=((0.25, 0.75),))
        assert k.alphas == (0.0, 1.0)
        assert k.gammas == ((0.25, 0.75),)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            PositionCoefficients(alphas=(bad,), betas=(0.5,), gammas=((0.5,),))
        with pytest.raises(DomainError):
            PositionCoefficients(alphas=(0.5,), betas=(bad,), gammas=((0.5,),))
        with pytest.raises(DomainError):
            PositionCoefficients(alphas=(0.5,), betas=(0.5,), gammas=((bad,),))

    def test_rejects_ragged_gamma_grid(self):
        with pytest.raises(StructureError):
            PositionCoefficients(alphas=(0.5,), betas=(0.5, 0.5), gammas=((0.5,), (0.5, 0.5)))


class TestUniformAndTheta:
    def test_uniform_shapes(self):
        k = uniform_coefficients(0.1, 0.2, 0.3, m=3, n=2)
        assert k.alphas == (0.1, 0.1)
        assert k.betas == (0.2, 0.2, 0.2)
        assert k.gammas == ((0.3, 0.3),) * 3

    def test_theta_equals_uniform(self):
        assert theta_coefficients(0.4, 2, 3) == uniform_coefficients(0.4, 0.4, 0.4, 2, 3)

    def test_rejects_empty_dimensions(self):
        with pytest.raises(StructureError):
            uniform_coefficients(0.5, 0.5, 0.5, m=0, n=2)
        with pytest.raises(StructureError):
            uniform_coefficients(0.5, 0.5, 0.5, m=2, n=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            uniform_coefficients(1.5, 0.5, 0.5, m=1, n=1)


class TestBuildPositioned:
    def test_loose_endpoint(self, demo_problem):
        k = uniform_coefficients(1, 1, 0, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c == (800.0, 1500.0)
        assert w.b == (235.0, 360.0, 330.0)
        assert w.A == ((3.0, 3.5), (7.0, 3.0), (2.5, 8.0))

    def test_tight_endpoint(self, demo_problem):
        k = uniform_coefficients(0, 0, 1, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c == (600.0, 900.0)
        assert w.b == (150.0, 280.0, 270.0)
        assert w.A == ((5.0, 6.5), (11.0, 5.0), (3.5, 12.0))

    def test_interior_position(self, demo_problem):
        k = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c == pytest.approx((700.0, 1200.0), abs=1e-9)
        assert w.b == pytest.approx((192.5, 320.0, 300.0), abs=1e-9)
        assert w.A[0] == pytest.approx((4.0, 5.0), abs=1e-9)

    def test_per_entry_coefficients(self):
        p = GreyLP(objective=((0, 10), (0, 10)), matrix=(((1, 3), (1, 3)),), rhs=((5, 7),))
        k = PositionCoefficients(alphas=(0.0, 1.0), betas=(0.5,), gammas=((1.0, 0.0),))
        w = build_positioned(p, k)
        assert w.c == (0.0, 10.0)
        assert w.b == pytest.approx((6.0,))
        assert w.A == ((3.0, 1.0),)

    def test_dimension_mismatch(self, demo_problem):
        wrong_n = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m, demo_problem.n + 1)
        with pytest.raises(StructureError):
            build_positioned(demo_problem, wrong_n)
        wrong_m = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m + 1, demo_problem.n)
        with pytest.raises(StructureError):
            build_positioned(demo_problem, wrong_m)


class TestWhiteLP:
    def test_strict_dimensions(self):
        with pytest.raises(StructureError):
            WhiteLP(c=(), A=(), b=())
        with pytest.raises(StructureError):
            WhiteLP(c=(1.0,), A=((1.0, 2.0),), b=(1.0,))
        with pytest.raises(StructureError):
            WhiteLP(c=(1.0,), A=((1.0,),), b=(1.0, 2.0))

    def test_strict_finiteness(self):
        with pytest.raises(DomainError):
            WhiteLP(c=(float("nan"),), A=((1.0,),), b=(1.0,))
        with pytest.raises(DomainError):
            WhiteLP(c=(1.0,), A=((float("inf"),),), b=(1.0,))

    def test_negative_entries_allowed(self):
        # White problems are general LPs; only grey problems restrict signs.
        w = WhiteLP(c=(-1.0,), A=((-2.0,),), b=(-3.0,))
        assert w.n == 1 and w.m == 1


class TestValidateProblem:
    def test_valid_problem_has_no_violations(self, demo_problem):
        assert validate_problem(demo_problem) == []

    def test_reversed_bounds(self):
        p = GreyLP(objective=((800, 600),), matrix=(((1, 2),),), rhs=((3, 4),))
        violations = validate_problem(p)
        assert [v.kind for v in violations] == ["bounds_order"]
        assert violations[0].location == "objective[0]"
        assert "800" in str(violations[0])

    def test_negative_lower_bound(self):
        p = GreyLP(objective=((1, 2),), matrix=(((-0.5, 2),),), rhs=((3, 4),))
        violations = validate_problem(p)
        assert [v.kind for v in violations] == ["negative_lower"]
        assert violations[0].location == "matrix[0][0]"

    def test_non_finite_reported_once_per_bound(self):
        p = GreyLP(
            objective=((1, 2),),
            matrix=(((1, 2),),),
            rhs=((float("nan"), float("inf")),),
        )
        violations = validate_problem(p)
        assert [v.kind for v in violations] == ["non_finite", "non_finite"]
        assert all(v.location == "rhs[0]" for v in violations)

    def test_dimension_violations(self):
        p = GreyLP(objective=(), matrix=(), rhs=())
        kinds = {v.kind for v in validate_problem(p)}
        assert kinds == {"dimension"}

        ragged = GreyLP(
            objective=((1, 2), (1, 2)),
            matrix=(((1, 2),), ((1, 2), (1, 2))),
            rhs=((1, 2), (1, 2)),
        )
        locs = [v.location for v in validate_problem(ragged)]
        assert locs == ["matrix[0]"]

        missing_row = GreyLP(objective=((1, 2),), matrix=(((1, 2),),), rhs=((1, 2), (3, 4)))
        assert [v.kind for v in validate_problem(missing_row)] == ["dimension"]

    def test_collects_every_violation_at_once(self):
        p = GreyLP(
            objective=((8, 6),),
            matrix=(((-1, 2),),),
            rhs=((float("inf"), 1),),
        )
        violations = validate_problem(p)
        assert {v.kind for v in violations} == {"bounds_order", "negative_lower", "non_finite"}
        assert len(violations) == 3


_special = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, -3.5, math.nan, math.inf, -math.inf])
_bound = st.one_of(st.floats(0.0, 10.0), _special)
_pair = st.tuples(_bound, _bound)
_block = st.lists(_pair, max_size=3)
# Rows of any length, so the matrix may be ragged, short, long or empty.
_rows = st.lists(st.lists(_pair, max_size=4), max_size=4)


def _hexes(intervals):
    return [(iv.lo.hex(), iv.hi.hex()) for iv in intervals]


class TestArrayStorage:
    @given(objective=_block, matrix=_rows, rhs=_block)
    def test_tuple_views_give_back_the_input(self, objective, matrix, rhs):
        p = GreyLP(objective=objective, matrix=matrix, rhs=rhs)
        assert (p.n, p.m) == (len(objective), len(rhs))
        assert _hexes(p.objective) == _hexes(Interval(*pair) for pair in objective)
        assert [_hexes(row) for row in p.matrix] == [
            _hexes(Interval(*pair) for pair in row) for row in matrix
        ]
        assert _hexes(p.rhs) == _hexes(Interval(*pair) for pair in rhs)
        assert GreyLP(p.objective, p.matrix, p.rhs) == p

    def test_ragged_matrix_is_padded_and_keeps_row_lengths(self):
        p = GreyLP(objective=((1, 2), (1, 2)), matrix=(((1, 2),), ()), rhs=((1, 2), (3, 4)))
        assert p.A_lo.shape == (2, 1) and p.row_lengths.tolist() == [1, 0]
        assert math.isnan(p.A_lo[1, 0])
        assert p.matrix == ((Interval(1, 2),), ())

    def test_accepts_interval_objects_arrays_and_iterators(self):
        pairs = GreyLP(objective=((1, 2),), matrix=(((3, 4),),), rhs=((5, 6),))
        assert GreyLP(
            objective=[Interval(1, 2)], matrix=iter([iter([Interval(3, 4)])]), rhs=np.array([[5, 6]])
        ) == pairs

    def test_arrays_are_read_only_and_fields_frozen(self, demo_problem):
        with pytest.raises(ValueError):
            demo_problem.A_lo[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            demo_problem.c_lo = np.zeros(2)
        w = build_positioned(demo_problem, uniform_coefficients(0, 0, 0, 3, 2))
        with pytest.raises(ValueError):
            w.c_array[0] = 1.0

    def test_construction_copies_the_caller_arrays(self):
        A = np.array([[1.0, 2.0]])
        w = WhiteLP(c=[1.0, 1.0], A=A, b=[3.0])
        A[0, 0] = 9.0
        assert w.A == ((1.0, 2.0),)

    def test_equality_and_hash(self):
        p = GreyLP(objective=((1, 2),), matrix=(((0.0, 2),),), rhs=((math.nan, 4),))
        q = GreyLP(objective=((1, 2),), matrix=(((-0.0, 2),),), rhs=((math.nan, 4),))
        assert p == q and hash(p) == hash(q)
        assert p != GreyLP(objective=((1, 2),), matrix=(((0, 3),),), rhs=((math.nan, 4),))
        k = PositionCoefficients(alphas=[0.5], betas=(0.5,), gammas=[[0.5]])
        assert k == uniform_coefficients(0.5, 0.5, 0.5, 1, 1) and hash(k) == hash(
            uniform_coefficients(0.5, 0.5, 0.5, 1, 1)
        )
        assert WhiteLP(c=(1,), A=((2,),), b=(3,)) == WhiteLP(c=[1.0], A=np.array([[2.0]]), b=[3])

    def test_ragged_gammas_are_range_checked_first(self):
        with pytest.raises(DomainError):
            PositionCoefficients(alphas=(0.5,), betas=(0.5, 0.5), gammas=((0.5,), (0.5, 2.0)))


class TestValidateMatchesReference:
    """``validate_problem`` checks with array masks; it must report the
    per-entry reference's violations, message and order included."""

    @given(objective=_block, matrix=_rows, rhs=_block)
    def test_identical_violation_lists(self, objective, matrix, rhs):
        p = GreyLP(objective=objective, matrix=matrix, rhs=rhs)
        got = [(v.location, v.kind, v.message) for v in validate_problem(p)]
        want = [(v.location, v.kind, v.message) for v in reference_validate_problem(p)]
        assert got == want

    def test_every_kind_in_one_problem(self):
        p = GreyLP(
            objective=((math.nan, -math.inf), (3, 1)),
            matrix=(((-1, 2), (math.inf, 1), (0, 1)), ((2, 1),)),
            rhs=((-2, -3),),
        )
        got = [str(v) for v in validate_problem(p)]
        assert got == [str(v) for v in reference_validate_problem(p)]
        assert got[:2] == [
            "matrix: 2 matrix rows but 1 right-hand sides",
            "matrix[0]: 3 entries but 2 objective coefficients",
        ]


def _reference_build(p, k):
    """``build_positioned`` one entry at a time over the tuple views."""

    def whiten_entry(iv, t):
        if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)) or iv.lo > iv.hi:
            raise DomainError(f"cannot whiten invalid interval [{iv.lo}, {iv.hi}]")
        return t * iv.hi + (1.0 - t) * iv.lo

    if len(k.alphas) != p.n:
        raise StructureError(f"expected {p.n} alphas, got {len(k.alphas)}")
    if len(k.betas) != p.m:
        raise StructureError(f"expected {p.m} betas, got {len(k.betas)}")
    if len(k.gammas) != p.m or any(len(row) != p.n for row in k.gammas):
        raise StructureError(f"expected a {p.m}x{p.n} gamma grid")
    c = tuple(whiten_entry(iv, a) for iv, a in zip(p.objective, k.alphas))
    b = tuple(whiten_entry(iv, be) for iv, be in zip(p.rhs, k.betas))
    A = tuple(
        tuple(whiten_entry(iv, g) for iv, g in zip(mrow, grow))
        for mrow, grow in zip(p.matrix, k.gammas)
    )
    return WhiteLP(c=c, A=A, b=b)


def _built(build, p, k):
    try:
        w = build(p, k)
    except (DomainError, StructureError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in w.c], [[v.hex() for v in row] for row in w.A], [v.hex() for v in w.b]


class TestBuildPositionedMatchesReference:
    @given(objective=_block, matrix=_rows, rhs=_block, t=st.floats(0.0, 1.0), data=st.data())
    def test_same_program_or_same_error(self, objective, matrix, rhs, t, data):
        p = GreyLP(objective=objective, matrix=matrix, rhs=rhs)
        gammas = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=p.n, max_size=p.n), min_size=p.m, max_size=p.m
        ))
        k = PositionCoefficients(alphas=[t] * p.n, betas=[1.0 - t] * p.m, gammas=gammas)
        assert _built(build_positioned, p, k) == _built(_reference_build, p, k)

    def test_valid_problems_at_three_sizes(self):
        rng = np.random.default_rng(5)
        for size in (10, 30, 60):
            lo = rng.uniform(0.0, 5.0, (size + 2, size))
            hi = lo + rng.uniform(0.0, 2.0, lo.shape)
            p = GreyLP(
                objective=np.stack([lo[0], hi[0]], axis=-1),
                matrix=np.stack([lo[2:], hi[2:]], axis=-1),
                rhs=np.stack([lo[1], hi[1]], axis=-1),
            )
            k = PositionCoefficients(
                alphas=rng.uniform(size=size), betas=rng.uniform(size=size),
                gammas=rng.uniform(size=(size, size)),
            )
            assert _built(build_positioned, p, k) == _built(_reference_build, p, k)
