"""Data model and whitening: construction, endpoints, validation collection."""

import collections
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import blocks, reference_validate_problem
from greylp import (
    DomainError,
    GreyLP,
    PositionCoefficients,
    StructureError,
    ValidationError,
    WhiteLP,
    build_positioned,
    parse_problem,
    uniform_coefficients,
    validate_problem,
)

_lo = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
_width = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_t = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _whitened_entries(lo, hi, t) -> list[float]:
    """The objective, matrix and right-hand-side entries that
    :func:`build_positioned` makes of a 1x1 problem whose every interval is
    ``[lo, hi]``, all at position ``t``."""
    p = GreyLP(objective=[(lo, hi)], matrix=[[(lo, hi)]], rhs=[(lo, hi)])
    w = build_positioned(p, PositionCoefficients(alphas=[t], betas=[t], gammas=[[t]]))
    return [float(w.c_array[0]), float(w.A_array[0, 0]), float(w.b_array[0])]


class TestWhitenedEntries:
    """Every entry of a positioned program is ``t*hi + (1-t)*lo`` of its
    interval."""

    def test_position_weights_upper_bound(self):
        assert _whitened_entries(600, 800, 0.6) == pytest.approx([720.0] * 3, abs=1e-9)
        assert _whitened_entries(100, 200, 0.5) == pytest.approx([150.0] * 3, abs=1e-9)
        assert _whitened_entries(0, 10, 0.25) == pytest.approx([2.5] * 3, abs=1e-12)

    def test_endpoints_are_exact(self):
        lo, hi = 0.1, 9.7
        assert _whitened_entries(lo, hi, 0.0) == [lo] * 3
        assert _whitened_entries(lo, hi, 1.0) == [hi] * 3

    def test_white_interval_ignores_position(self):
        for t in (0.0, 0.3, 1.0):
            assert _whitened_entries(5, 5, t) == [5.0] * 3

    @given(lo=_lo, width=_width, t=_t)
    def test_result_stays_within_interval(self, lo, width, t):
        hi = lo + width
        slack = 1e-12 * max(1.0, hi)
        for v in _whitened_entries(lo, hi, t):
            assert lo - slack <= v <= hi + slack

    @given(lo=_lo, width=_width, t1=_t, t2=_t)
    def test_monotone_in_position(self, lo, width, t1, t2):
        hi = lo + width
        t1, t2 = min(t1, t2), max(t1, t2)
        slack = 1e-12 * max(1.0, hi)
        for v1, v2 in zip(_whitened_entries(lo, hi, t1), _whitened_entries(lo, hi, t2)):
            assert v1 <= v2 + slack


_WELL_FORMED = (
    (GreyLP, {"objective": [(1, 2)], "matrix": [[(1, 2)]], "rhs": [(3, 4)]}),
    (PositionCoefficients, {"alphas": [0.5], "betas": [0.5], "gammas": [[0.5]]}),
    (WhiteLP, {"c": [1.0], "A": [[1.0]], "b": [1.0]}),
)


def _make(edits):
    """The constructor whose keywords hold every edited key, called with the
    well-formed arguments that ``edits`` overrides."""
    make, given = next(
        (make, given) for make, given in _WELL_FORMED if edits.keys() <= given.keys()
    )
    return make(**{**given, **edits})


class TestGreyLP:
    def test_construction_from_pairs(self):
        p = GreyLP(
            objective=((600, 800), (900, 1500)),
            matrix=(((3, 5), (3.5, 6.5)), ((7, 11), (3, 5)), ((2.5, 3.5), (8, 12))),
            rhs=((150, 235), (280, 360), (270, 330)),
        )
        assert p.n == 2 and p.m == 3
        assert (p.c_lo[0], p.c_hi[0]) == (600.0, 800.0)
        assert (p.A_lo[2, 1], p.A_hi[2, 1]) == (8.0, 12.0)
        assert p.b_hi.tolist() == [235.0, 360.0, 330.0]

    @pytest.mark.parametrize("edits, block", [
        ({"objective": [1, 2]}, "objective"),
        ({"objective": [(1, 2, 3)]}, "objective"),
        ({"objective": [(1, "a")]}, "objective"),
        ({"objective": 7}, "objective"),
        ({"rhs": [(3, 4), (5,)]}, "rhs"),
        ({"rhs": [3]}, "rhs"),
        ({"matrix": [[1, 2]]}, "matrix"),
        ({"matrix": [[(1, 2, 3)]]}, "matrix"),
        ({"matrix": [[(1, 2)], [(1, 2), (3,)]]}, "matrix"),
        ({"matrix": [[(1, 2)], 5]}, "matrix"),
        ({"matrix": 5}, "matrix"),
        ({"matrix": np.array(5.0)}, "matrix"),
        ({"matrix": [[(1, 2)], [(1, 2)]]}, "matrix"),
        ({"alphas": 5}, "alphas"),
        ({"alphas": [(0.5, 0.5)]}, "alphas"),
        ({"gammas": [0.5]}, "gammas"),
        # The shape is checked before the range of the entries.
        ({"gammas": [[0.5], [0.5, 2.0]]}, "gammas"),
        ({"c": [1, (2, 3)]}, "c"),
        ({"A": [1]}, "matrix"),
    ])
    def test_malformed_blocks_raise_structure_error(self, edits, block):
        with pytest.raises(StructureError, match=f"^{re.escape(block)}(: expected | must be )"):
            _make(edits)

    def test_rejects_empty_blocks(self):
        with pytest.raises(StructureError, match="^need at least one variable and one "):
            GreyLP(objective=np.empty((0, 2)), matrix=np.empty((1, 0, 2)), rhs=[(1, 2)])
        with pytest.raises(StructureError, match="^objective: expected "):
            GreyLP(objective=[], matrix=[[]], rhs=[(1, 2)])


class TestRealEntries:
    """Every constructor takes real numbers only: an entry that is not one
    (though ``float()`` would take it) or an integer past float range is
    refused, naming its block, as ``parse_problem`` refuses it in a file."""

    @pytest.mark.parametrize("edits, block", [
        ({"objective": [(1, 10**400)]}, "objective"),
        ({"matrix": [[(-(10**400), 2)]]}, "matrix"),
        ({"rhs": [(1, 2**1024)]}, "rhs"),
        ({"alphas": [10**400]}, "alphas"),
        ({"gammas": [[0.5, 10**309]]}, "gammas"),
        ({"c": [10**400]}, "c"),
        ({"A": [[10**400]]}, "matrix"),
    ])
    def test_integer_past_float_range_raises_domain_error(self, edits, block):
        with pytest.raises(DomainError, match=f"^{block}: value is too large for a float$"):
            _make(edits)

    @pytest.mark.parametrize("edits, block, got", [
        ({"objective": [("1", "2")]}, "objective", "'1'"),
        ({"objective": [(1, "a")]}, "objective", "'a'"),
        ({"rhs": [(True, 2.0)]}, "rhs", "True"),
        ({"matrix": [[(1, None)]]}, "matrix", "None"),
        ({"matrix": np.array([[[True, False]]])}, "matrix", "an array of bool"),
        ({"alphas": ["0.5"]}, "alphas", "'0.5'"),
        ({"betas": [True]}, "betas", "True"),
        ({"gammas": [[np.bool_(False)]]}, "gammas", repr(np.bool_(False))),
        # np.asarray would silently make this a float64 array.
        ({"c": [1.0, True]}, "c", "True"),
        ({"b": [b"1"]}, "b", "b'1'"),
        ({"A": np.array([["1"]])}, "matrix", "an array of <U1"),
        ({"c": np.array([1.0, 2.0], dtype=object)}, "c", "an array of object"),
        ({"betas": [1j]}, "betas", "1j"),
    ])
    def test_entries_that_are_not_real_numbers_raise_structure_error(self, edits, block, got):
        message = f"^{block}: expected real numbers, got {re.escape(got)}$"
        with pytest.raises(StructureError, match=message):
            _make(edits)

    def test_accepts_numpy_numbers_and_integer_arrays(self):
        pairs = GreyLP(objective=[(1, 2)], matrix=[[(3, 4)]], rhs=[(5, 6)])
        assert GreyLP(
            objective=[(np.float32(1), np.int64(2))],
            matrix=np.array([[[3, 4]]], dtype=np.uint8),
            rhs=np.array([[5, 6]], dtype=np.int32),
        ) == pairs
        w = WhiteLP(c=np.array([1], dtype=np.int8), A=[[np.float16(2)]], b=[3])
        assert (w.c_array[0], w.A_array[0, 0], w.b_array[0]) == (1.0, 2.0, 3.0)


class TestPositionCoefficients:
    def test_valid_construction(self):
        k = PositionCoefficients(alphas=(0, 1), betas=(0.5,), gammas=((0.25, 0.75),))
        assert k.alpha_array.tolist() == [0.0, 1.0]
        assert k.beta_array.tolist() == [0.5]
        assert k.gamma_array.tolist() == [[0.25, 0.75]]

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
        assert k.alpha_array.tolist() == [0.1, 0.1]
        assert k.beta_array.tolist() == [0.2, 0.2, 0.2]
        assert k.gamma_array.tolist() == [[0.3, 0.3]] * 3

    def test_theta_equals_uniform(self):
        # The CLI's --theta t is uniform_coefficients(t, t, t, m, n).
        k = PositionCoefficients(alphas=[0.4] * 3, betas=[0.4] * 2, gammas=[[0.4] * 3] * 2)
        assert uniform_coefficients(0.4, 0.4, 0.4, 2, 3) == k

    def test_rejects_empty_dimensions(self):
        # The size rule and its text are GreyLP's and WhiteLP's.
        with pytest.raises(
            StructureError,
            match=r"^need at least one variable and one constraint, got n=2, m=0$",
        ):
            uniform_coefficients(0.5, 0.5, 0.5, 0, 2)
        with pytest.raises(
            StructureError,
            match=r"^need at least one variable and one constraint, got n=0, m=2$",
        ):
            uniform_coefficients(0.5, 0.5, 0.5, m=2, n=0)
        # Sizes that are not integers, however close.
        for m, n in ((2, 2.7), (2.0, 2), (True, 2), ("2", 2), (None, 2), (np.float64(2), 2)):
            with pytest.raises(StructureError, match="^m and n must be integers, got "):
                uniform_coefficients(0.5, 0.5, 0.5, m, n)
        with pytest.raises(StructureError, match=r"^m and n must be integers, got m=1.5, n=1$"):
            uniform_coefficients(0.5, 0.5, 0.5, 1.5, 1)
        k = uniform_coefficients(0.5, 0.5, 0.5, np.int64(2), np.int32(3))
        assert k.gamma_array.shape == (2, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            uniform_coefficients(1.5, 0.5, 0.5, m=1, n=1)

    @given(
        values=st.tuples(
            *[st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf]))] * 3
        ),
        m=st.integers(1, 3),
        n=st.integers(1, 3),
    )
    def test_same_result_or_error_as_the_checked_constructor(self, values, m, n):
        # uniform_coefficients range-checks its three scalars, not the
        # filled arrays; the outcome must be the constructor's.
        def outcome(make):
            try:
                k = make()
            except DomainError as exc:
                return str(exc)
            assert not k.gamma_array.flags.writeable
            return k

        alpha, beta, gamma = values
        assert outcome(lambda: uniform_coefficients(alpha, beta, gamma, m, n)) == outcome(
            lambda: PositionCoefficients(
                alphas=np.full(n, alpha), betas=np.full(m, beta), gammas=np.full((m, n), gamma)
            )
        )


class TestBuildPositioned:
    def test_loose_endpoint(self, demo_problem):
        k = uniform_coefficients(1, 1, 0, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c_array.tolist() == [800.0, 1500.0]
        assert w.b_array.tolist() == [235.0, 360.0, 330.0]
        assert w.A_array.tolist() == [[3.0, 3.5], [7.0, 3.0], [2.5, 8.0]]

    def test_tight_endpoint(self, demo_problem):
        k = uniform_coefficients(0, 0, 1, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c_array.tolist() == [600.0, 900.0]
        assert w.b_array.tolist() == [150.0, 280.0, 270.0]
        assert w.A_array.tolist() == [[5.0, 6.5], [11.0, 5.0], [3.5, 12.0]]

    def test_interior_position(self, demo_problem):
        k = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m, demo_problem.n)
        w = build_positioned(demo_problem, k)
        assert w.c_array.tolist() == pytest.approx([700.0, 1200.0], abs=1e-9)
        assert w.b_array.tolist() == pytest.approx([192.5, 320.0, 300.0], abs=1e-9)
        assert w.A_array[0].tolist() == pytest.approx([4.0, 5.0], abs=1e-9)

    def test_per_entry_coefficients(self):
        p = GreyLP(objective=((0, 10), (0, 10)), matrix=(((1, 3), (1, 3)),), rhs=((5, 7),))
        k = PositionCoefficients(alphas=(0.0, 1.0), betas=(0.5,), gammas=((1.0, 0.0),))
        w = build_positioned(p, k)
        assert w.c_array.tolist() == [0.0, 10.0]
        assert w.b_array.tolist() == pytest.approx([6.0])
        assert w.A_array.tolist() == [[3.0, 1.0]]

    def test_dimension_mismatch(self, demo_problem):
        wrong_n = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m, demo_problem.n + 1)
        with pytest.raises(StructureError):
            build_positioned(demo_problem, wrong_n)
        wrong_m = uniform_coefficients(0.5, 0.5, 0.5, demo_problem.m + 1, demo_problem.n)
        with pytest.raises(StructureError):
            build_positioned(demo_problem, wrong_m)

    def test_gamma_grid_of_the_wrong_shape(self, demo_problem):
        k = PositionCoefficients(alphas=[0.5] * 2, betas=[0.5] * 3, gammas=[[0.5] * 3] * 2)
        with pytest.raises(StructureError, match=r"^expected a 3x2 gamma grid$"):
            build_positioned(demo_problem, k)


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

    def test_dimension_violations(self):
        # Blocks that do not fit together never make a GreyLP; parsing a
        # file reports them.
        assert {v.kind for v in _file_violations([], [], [])} == {"dimension"}

        ragged = _file_violations(
            [(1, 2), (1, 2)], [[(1, 2)], [(1, 2), (1, 2)]], [(1, 2), (1, 2)]
        )
        assert [v.location for v in ragged] == ["matrix[0]"]

        missing_row = _file_violations([(1, 2)], [[(1, 2)]], [(1, 2), (3, 4)])
        assert [v.kind for v in missing_row] == ["dimension"]


def _file_violations(objective, matrix, rhs):
    """The violations ``parse_problem`` reports for a problem file of these
    blocks (``[]`` when it parses); NaN and infinities are written as the
    JSON extensions ``NaN`` and ``Infinity``."""
    doc = json.dumps({"objective": objective, "matrix": matrix, "rhs": rhs})
    try:
        parse_problem(doc)
    except ValidationError as exc:
        return list(exc.violations)
    return []


def _findings(violations):
    """The (location, kind, message) of each violation, in order."""
    return [(v.location, v.kind, v.message) for v in violations]


_special = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, -3.5, math.nan, math.inf, -math.inf])
_bound = st.one_of(st.floats(0.0, 10.0), _special)
_pair = st.tuples(_bound, _bound)
# A valid interval: two bounds in [0, 10] (-0.0 among them), in order.
_valid_pair = st.tuples(*[st.one_of(st.floats(0.0, 10.0), st.just(-0.0))] * 2).map(sorted)
_block = st.lists(_pair, max_size=3)
# Rows of any length, so the matrix may be ragged, short, long or empty.
_rows = st.lists(st.lists(_pair, max_size=4), max_size=4)


@st.composite
def _problems(draw, pair=_pair):
    """The objective, matrix rows and right-hand side of an m x n problem,
    each interval drawn from ``pair``."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    objective = draw(st.lists(pair, min_size=n, max_size=n))
    matrix = draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=m, max_size=m))
    return objective, matrix, draw(st.lists(pair, min_size=m, max_size=m))


# Problems of any bounds, and valid ones, which every build needs.
_any_problems = st.one_of(_problems(), _problems(_valid_pair))


def _greylp_or_none(problem):
    """``GreyLP(*problem)``, or None where a drawn interval is invalid and
    construction raises :class:`ValidationError`."""
    try:
        return GreyLP(*problem)
    except ValidationError:
        return None


def _hexes(pairs):
    return [(float(lo).hex(), float(hi).hex()) for lo, hi in pairs]


class TestArrayStorage:
    @given(problem=_any_problems)
    def test_tuple_views_give_back_the_input(self, problem):
        # The views are built here, by conftest.blocks, from the arrays.
        objective, matrix, rhs = problem
        p = _greylp_or_none(problem)
        if p is None:
            return
        assert (p.n, p.m) == (len(objective), len(rhs))
        got_objective, got_matrix, got_rhs = blocks(p)
        assert _hexes(got_objective) == _hexes(objective)
        assert [_hexes(row) for row in got_matrix] == [_hexes(row) for row in matrix]
        assert _hexes(got_rhs) == _hexes(rhs)
        assert GreyLP(*blocks(p)) == p

    @given(objective=_block, matrix=_rows, rhs=_block)
    def test_blocks_that_do_not_fit_raise_structure_error(self, objective, matrix, rhs):
        n, m = len(objective), len(rhs)
        if n and m and len(matrix) == m and all(len(row) == n for row in matrix):
            p = _greylp_or_none((objective, matrix, rhs))
            assert p is None or p.A_lo.shape == (m, n)
        else:
            with pytest.raises(StructureError):
                GreyLP(objective=objective, matrix=matrix, rhs=rhs)

    def test_accepts_interval_objects_and_arrays(self):
        # Any sequence of two numbers is an interval.
        Pair = collections.namedtuple("Pair", "lo hi")
        pairs = GreyLP(objective=((1, 2),), matrix=(((3, 4),),), rhs=((5, 6),))
        assert GreyLP(
            objective=[Pair(1, 2)], matrix=[(Pair(3, 4),)], rhs=np.array([[5, 6]])
        ) == pairs
        assert GreyLP(objective=np.array([[1, 2]]), matrix=[[[3, 4]]], rhs=[Pair(5, 6)]) == pairs

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
        assert w.A_array.tolist() == [[1.0, 2.0]]

    def test_equality_and_hash(self):
        p = GreyLP(objective=((1, 2),), matrix=(((0.0, 2),),), rhs=((3, 4),))
        q = GreyLP(objective=((1, 2),), matrix=(((-0.0, 2),),), rhs=((3, 4),))
        assert p == q and hash(p) == hash(q)
        assert p != GreyLP(objective=((1, 2),), matrix=(((0, 3),),), rhs=((3, 4),))
        k = PositionCoefficients(alphas=[0.5], betas=(0.5,), gammas=[[0.5]])
        assert k == uniform_coefficients(0.5, 0.5, 0.5, 1, 1) and hash(k) == hash(
            uniform_coefficients(0.5, 0.5, 0.5, 1, 1)
        )
        assert WhiteLP(c=(1,), A=((2,),), b=(3,)) == WhiteLP(c=[1.0], A=np.array([[2.0]]), b=[3])

    def test_records_of_another_class_are_unequal(self):
        # __eq__ returns NotImplemented, so Python falls back to identity.
        p = GreyLP(objective=((1, 1),), matrix=(((2, 2),),), rhs=((3, 3),))
        w = WhiteLP(c=(1,), A=((2,),), b=(3,))
        assert p.__eq__(w) is NotImplemented
        assert p != w and not (w == p)


class TestValidateMatchesReference:
    """``parse_problem`` checks a file's dimensions from the decoded lists
    and ``validate_problem`` its intervals with array masks, as ``GreyLP``
    does when it is built; each must report the per-entry reference's
    violations, message and order included."""

    @given(problem=_problems())
    @example(problem=([(800, 600)], [[(1, 2)]], [(3, 4)]))  # reversed
    @example(problem=([(1, 2)], [[(-0.5, 2)]], [(3, 4)]))  # negative lower bound
    @example(problem=([(1, 2)], [[(1, 2)]], [(math.nan, math.inf)]))  # two non-finite bounds
    @example(problem=([(8, 6)], [[(-1, 2)]], [(math.inf, 1)]))  # every kind at once
    @example(problem=([(1, 2)], [[(-0.0, 2)]], [(3, 4)]))  # valid
    def test_construction_builds_or_refuses_as_the_reference(self, problem):
        want = _findings(reference_validate_problem(*problem))
        try:
            p = GreyLP(*problem)
        except ValidationError as exc:
            assert want != []
            assert _findings(exc.violations) == want
        else:
            assert want == []
            assert validate_problem(p) == []

    # Half the draws fit together, so the array masks see bad bounds too.
    @given(blocks_=st.one_of(_problems(), st.tuples(_block, _rows, _block)))
    def test_identical_violation_lists(self, blocks_):
        assert _findings(_file_violations(*blocks_)) == _findings(
            reference_validate_problem(*blocks_)
        )

    def test_every_kind_in_one_problem(self):
        blocks_ = (
            [(math.nan, -math.inf), (3, 1)],
            [[(-1, 2), (math.inf, 1), (0, 1)], [(2, 1)]],
            [(-2, -3)],
        )
        got = [str(v) for v in _file_violations(*blocks_)]
        assert got == [str(v) for v in reference_validate_problem(*blocks_)]
        assert got[:2] == [
            "matrix: 2 matrix rows but 1 right-hand sides",
            "matrix[0]: 3 entries but 2 objective coefficients",
        ]


def _reference_build(p, k):
    """``build_positioned`` one entry at a time, over ``(lo, hi)`` float
    pairs and Python lists of the weights."""

    def whiten_entry(iv, t):
        lo, hi = iv
        return t * hi + (1.0 - t) * lo

    objective, matrix, rhs = blocks(p)
    alphas, betas = k.alpha_array.tolist(), k.beta_array.tolist()
    gammas = k.gamma_array.tolist()
    if len(alphas) != p.n:
        raise StructureError(f"expected {p.n} alphas, got {len(alphas)}")
    if len(betas) != p.m:
        raise StructureError(f"expected {p.m} betas, got {len(betas)}")
    if len(gammas) != p.m or any(len(row) != p.n for row in gammas):
        raise StructureError(f"expected a {p.m}x{p.n} gamma grid")
    c = tuple(whiten_entry(iv, a) for iv, a in zip(objective, alphas))
    b = tuple(whiten_entry(iv, be) for iv, be in zip(rhs, betas))
    A = tuple(
        tuple(whiten_entry(iv, g) for iv, g in zip(mrow, grow))
        for mrow, grow in zip(matrix, gammas)
    )
    return WhiteLP(c=c, A=A, b=b)


def _built(build, p, k):
    try:
        w = build(p, k)
    except StructureError as exc:
        return type(exc), str(exc)
    return (
        [v.hex() for v in w.c_array.tolist()],
        [[v.hex() for v in row] for row in w.A_array.tolist()],
        [v.hex() for v in w.b_array.tolist()],
    )


class TestBuildPositionedMatchesReference:
    @given(problem=_any_problems, t=st.floats(0.0, 1.0), data=st.data())
    def test_same_program_or_same_error(self, problem, t, data):
        p = _greylp_or_none(problem)
        if p is None:
            return
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
