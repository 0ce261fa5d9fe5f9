"""Degree layer: bounds, pleased degree, lambda-satisfaction, thresholds."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_lambda_satisfaction, reference_pleased_degree
from greylp import (
    DegenerateBoundsWarning,
    DomainError,
    GreyLP,
    InconsistentInputsError,
    UnboundedValueError,
    ValidationError,
    ValueBounds,
    bounds,
    grid_sweep,
    is_lambda_satisfactory,
    is_pleased,
    lambda_satisfaction,
    lambda_satisfactions,
    lambda_sweep,
    pleased_degree,
    pleased_degrees,
    positioned_value,
    uniform_coefficients,
)

# An always-valid problem whose loosest whitening drops the only matrix
# entry to zero, leaving the objective uncapped.
UNCAPPED = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))


class TestValueBounds:
    def test_orders_and_coerces(self):
        vb = ValueBounds(critical=1, ideal=2)
        assert vb.critical == 1.0 and vb.ideal == 2.0

    def test_rejects_crossed_bounds(self):
        with pytest.raises(InconsistentInputsError):
            ValueBounds(critical=2.0, ideal=1.0)

    def test_tolerates_solver_noise(self):
        vb = ValueBounds(critical=1.0 + 1e-9, ideal=1.0)
        assert vb.is_degenerate

    def test_degenerate_detection(self):
        assert ValueBounds(5.0, 5.0).is_degenerate
        assert not ValueBounds(5.0, 5.1).is_degenerate


class TestBoundsAndPositionedValue:
    def test_demo_bounds(self, demo_bounds):
        assert demo_bounds.critical == pytest.approx(20657.71, abs=0.01)
        assert demo_bounds.ideal == pytest.approx(74783.51, abs=0.01)
        assert demo_bounds.critical == pytest.approx(769500 / 37.25, rel=1e-9)
        assert demo_bounds.ideal == pytest.approx(3627000 / 48.5, rel=1e-9)

    def test_demo_positioned_values(self, demo_problem):
        expected = {
            (0.6, 0.6, 0.6): 42995.88,
            (0.7, 0.9, 0.5): 51643.20,
            (0.5, 0.9, 0.4): 50124.28,
            (0.7, 0.5, 0.3): 50377.88,
        }
        for (a, b, g), f_ref in expected.items():
            k = uniform_coefficients(a, b, g, demo_problem.m, demo_problem.n)
            assert positioned_value(demo_problem, k) == pytest.approx(f_ref, abs=0.01)

    def test_positioned_value_between_bounds(self, demo_problem, demo_bounds):
        rng = random.Random(7)
        for _ in range(25):
            a, b, g = rng.random(), rng.random(), rng.random()
            k = uniform_coefficients(a, b, g, demo_problem.m, demo_problem.n)
            f = positioned_value(demo_problem, k)
            assert demo_bounds.critical - 1e-6 <= f <= demo_bounds.ideal + 1e-6

    def test_invalid_problem_rejected(self):
        p = GreyLP(objective=((2, 1),), matrix=(((1, 2),),), rhs=((3, 4),))
        with pytest.raises(ValidationError):
            positioned_value(p, uniform_coefficients(0.5, 0.5, 0.5, 1, 1))
        with pytest.raises(ValidationError):
            bounds(p)

    def test_unbounded_positioned_program(self):
        k = uniform_coefficients(1, 1, 0, 1, 1)
        with pytest.raises(UnboundedValueError):
            positioned_value(UNCAPPED, k)
        with pytest.raises(UnboundedValueError):
            bounds(UNCAPPED)  # the ideal endpoint is the unbounded one

    def test_white_problem_has_equal_bounds(self):
        p = GreyLP(objective=((2, 2),), matrix=(((1, 1),),), rhs=((4, 4),))
        vb = bounds(p)
        assert vb.critical == vb.ideal == pytest.approx(8.0, rel=1e-12)
        assert vb.is_degenerate


class TestPleasedDegree:
    def test_demo_degrees(self, demo_problem, demo_bounds):
        expected = {
            (1.0, 1.0, 0.0): 0.86188,
            (0.0, 0.0, 1.0): 0.13812,
            (0.6, 0.6, 0.6): 0.54724,
            (0.7, 0.9, 0.5): 0.64528,
            (0.5, 0.9, 0.4): 0.62906,
            (0.7, 0.5, 0.3): 0.63179,
        }
        for (a, b, g), mu_ref in expected.items():
            k = uniform_coefficients(a, b, g, demo_problem.m, demo_problem.n)
            f = positioned_value(demo_problem, k)
            assert pleased_degree(f, demo_bounds) == pytest.approx(mu_ref, abs=1e-4)

    def test_endpoint_values(self):
        vb = ValueBounds(critical=20.0, ideal=80.0)
        assert pleased_degree(vb.critical, vb) == 0.5 * vb.critical / vb.ideal
        assert pleased_degree(vb.ideal, vb) == pytest.approx(
            1.0 - 0.5 * vb.critical / vb.ideal, abs=1e-12
        )

    def test_range_containment(self):
        rng = random.Random(11)
        vb = ValueBounds(critical=20.0, ideal=80.0)
        lo_bound = 0.5 * vb.critical / vb.ideal
        for _ in range(200):
            f = vb.critical + rng.random() * (vb.ideal - vb.critical)
            mu = pleased_degree(f, vb)
            assert lo_bound - 1e-12 <= mu <= 1.0 - lo_bound + 1e-12

    def test_monotone_in_value(self):
        vb = ValueBounds(critical=20.0, ideal=80.0)
        values = [20.0 + 6.0 * i for i in range(11)]
        degrees = [pleased_degree(f, vb) for f in values]
        assert degrees == sorted(degrees)
        assert degrees[0] < degrees[-1]

    def test_zero_critical_zero_value(self):
        # The vanishing ratio term is taken by continuity.
        assert pleased_degree(0.0, ValueBounds(0.0, 10.0)) == 0.5
        assert pleased_degree(-1e-12, ValueBounds(0.0, 10.0)) == 0.5

    def test_rejects_nonpositive_ideal(self):
        with pytest.raises(DomainError):
            pleased_degree(0.0, ValueBounds(0.0, 0.0))
        with pytest.raises(DomainError):
            pleased_degree(-5.0, ValueBounds(-5.0, -1.0))

    def test_rejects_clearly_negative_value(self):
        with pytest.raises(DomainError):
            pleased_degree(-1.0, ValueBounds(0.0, 10.0))

    def test_out_of_bounds_value_is_inconsistent(self):
        vb = ValueBounds(20.0, 80.0)
        with pytest.raises(InconsistentInputsError):
            pleased_degree(81.0, vb)
        with pytest.raises(InconsistentInputsError):
            pleased_degree(10.0, vb)

    def test_noise_is_clamped(self):
        vb = ValueBounds(20.0, 80.0)
        assert pleased_degree(80.0 + 1e-8, vb) == pleased_degree(80.0, vb)
        assert pleased_degree(20.0 - 1e-8, vb) == pleased_degree(20.0, vb)


class TestLambdaSatisfaction:
    def test_demo_grid_row(self, demo_problem, demo_bounds):
        k = uniform_coefficients(0.6, 0.6, 0.6, demo_problem.m, demo_problem.n)
        f = positioned_value(demo_problem, k)
        expected = {0.0: 0.2600, 0.3: 0.3285, 0.5: 0.3659, 0.8: 0.4040, 1.0: 0.4127}
        for lam, ref in expected.items():
            assert lambda_satisfaction(f, demo_bounds, lam) == pytest.approx(ref, abs=2e-4)

    def test_endpoints_exact(self):
        vb = ValueBounds(20.0, 80.0)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(lambda_satisfaction(vb.critical, vb, lam)) <= 1e-12
            assert abs(lambda_satisfaction(vb.ideal, vb, lam) - 1.0) <= 1e-12

    def test_optimistic_identity(self):
        vb = ValueBounds(20.0, 80.0)
        for f in (20.0, 35.0, 50.0, 65.0, 80.0):
            linear = (f - vb.critical) / (vb.ideal - vb.critical)
            assert abs(lambda_satisfaction(f, vb, 1.0) - linear) <= 1e-12

    def test_strictly_increasing_in_lambda_for_interior_value(self):
        vb = ValueBounds(20.0, 80.0)
        lams = [0.1 * i for i in range(11)]
        for f in (30.0, 50.0, 70.0):
            degrees = [lambda_satisfaction(f, vb, lam) for lam in lams]
            assert all(d2 > d1 for d1, d2 in zip(degrees, degrees[1:]))

    def test_increasing_in_value(self):
        vb = ValueBounds(20.0, 80.0)
        for lam in (0.0, 0.5, 1.0):
            degrees = [lambda_satisfaction(f, vb, lam) for f in (25.0, 40.0, 60.0, 75.0)]
            assert all(d2 > d1 for d1, d2 in zip(degrees, degrees[1:]))

    def test_range_containment(self):
        rng = random.Random(13)
        vb = ValueBounds(20.0, 80.0)
        for _ in range(200):
            f = vb.critical + rng.random() * (vb.ideal - vb.critical)
            mu = lambda_satisfaction(f, vb, rng.random())
            assert 0.0 <= mu <= 1.0

    def test_pessimistic_weighting_damps(self):
        # With lam < 1 the damped term shrinks the degree below linear.
        vb = ValueBounds(0.0, 100.0)
        assert lambda_satisfaction(50.0, vb, 0.0) == pytest.approx(1 / 3, rel=1e-12)
        assert lambda_satisfaction(50.0, vb, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_lambda(self):
        vb = ValueBounds(20.0, 80.0)
        with pytest.raises(DomainError):
            lambda_satisfaction(50.0, vb, -0.1)
        with pytest.raises(DomainError):
            lambda_satisfaction(50.0, vb, 1.2)

    def test_out_of_bounds_value_is_inconsistent(self):
        vb = ValueBounds(20.0, 80.0)
        with pytest.raises(InconsistentInputsError):
            lambda_satisfaction(100.0, vb, 0.5)

    def test_degenerate_bounds_warn_and_report_full_degree(self):
        vb = ValueBounds(5.0, 5.0)
        with pytest.warns(DegenerateBoundsWarning):
            assert lambda_satisfaction(5.0, vb, 0.5) == 1.0

    def test_degenerate_bounds_warnings_name_the_calling_line(self):
        # Each call warns once per lambda it scores, from the caller's line
        # and not from greylp's own source.
        white = GreyLP(objective=((2, 2),), matrix=(((1, 1),),), rhs=((4, 4),))
        vb = ValueBounds(5.0, 5.0)
        calls = [
            (lambda: lambda_satisfaction(5.0, vb, 0.5), 1),
            (lambda: lambda_satisfactions(np.full(3, 5.0), vb, 0.5), 1),
            (lambda: grid_sweep(white, 0.5, lambdas=(0.5, 1.0)), 2),
            (lambda: lambda_sweep(white, [(0.5, 0.5, 0.5)], (0.0, 0.5, 1.0)), 3),
        ]
        for call, count in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == [DegenerateBoundsWarning] * count
            assert {w.filename for w in caught} == {__file__}


class TestThresholds:
    def test_is_pleased(self):
        assert is_pleased(0.6, 0.5)
        assert is_pleased(0.5, 0.5)  # the grey target [mu0, 1] is closed
        assert not is_pleased(0.49, 0.5)

    def test_is_lambda_satisfactory(self):
        assert is_lambda_satisfactory(0.41, 0.4)
        assert is_lambda_satisfactory(0.4, 0.4)
        assert not is_lambda_satisfactory(0.39, 0.4)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            is_pleased(bad, 0.5)
        with pytest.raises(DomainError):
            is_pleased(0.5, bad)
        with pytest.raises(DomainError):
            is_lambda_satisfactory(bad, 0.5)
        with pytest.raises(DomainError):
            is_lambda_satisfactory(0.5, bad)

    def test_demo_narrative(self, demo_problem, demo_bounds):
        # The middle positioned optimum never reaches the 0.5 target, but
        # reaches 0.4 for the most optimistic attitudes.
        k = uniform_coefficients(0.6, 0.6, 0.6, demo_problem.m, demo_problem.n)
        f = positioned_value(demo_problem, k)
        lams = [round(0.1 * i, 1) for i in range(11)]
        degrees = {lam: lambda_satisfaction(f, demo_bounds, lam) for lam in lams}
        assert max(degrees.values()) < 0.5
        reaching = {lam for lam, d in degrees.items() if is_lambda_satisfactory(d, 0.4)}
        assert reaching == {0.8, 0.9, 1.0}


def _scalar_or_none(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return None


class TestArrayScoring:
    """``pleased_degrees``/``lambda_satisfactions`` score whole arrays; each
    value must equal the scalar functions and the float-at-a-time reference
    of ``conftest`` bit for bit."""

    @given(
        critical=st.floats(-1e6, 1e6),
        spread=st.floats(0.0, 1e6),
        inside=st.lists(st.floats(0.0, 1.0), max_size=8),
        noise=st.lists(st.floats(0.0, 0.99), max_size=4),
        lam=st.floats(0.0, 1.0),
    )
    def test_equals_scalar_and_reference(self, critical, spread, inside, noise, lam):
        vb = ValueBounds(critical, critical + spread)
        tol = 1e-6 * max(1.0, vb.ideal)
        values = [vb.critical, vb.ideal]
        values += [vb.critical + u * (vb.ideal - vb.critical) for u in inside]
        values += [vb.critical - w * tol for w in noise] + [vb.ideal + w * tol for w in noise]
        if vb.critical <= 0.0 <= vb.ideal:
            values += [0.0, -0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBoundsWarning)
            mu = pleased_degrees(np.array(values), vb).tolist()
            mu_tilde = lambda_satisfactions(np.array(values), vb, lam).tolist()
            for f, got_mu, got_mu_tilde in zip(values, mu, mu_tilde):
                # float.hex tells the zeros apart too, which print differently.
                want = _scalar_or_none(reference_pleased_degree, f, vb)
                if want is None:
                    assert math.isnan(got_mu)
                    assert _scalar_or_none(pleased_degree, f, vb) is None
                else:
                    assert got_mu.hex() == pleased_degree(f, vb).hex() == want.hex()
                want = reference_lambda_satisfaction(f, vb, lam).hex()
                assert got_mu_tilde.hex() == lambda_satisfaction(f, vb, lam).hex() == want

    @given(critical=st.floats(0.0, 1e6), spread=st.floats(1.0, 1e6), over=st.floats(2.0, 100.0))
    def test_beyond_tolerance_is_inconsistent(self, critical, spread, over):
        vb = ValueBounds(critical, critical + spread)
        tol = 1e-6 * max(1.0, vb.ideal)
        for f in (vb.ideal + over * tol, vb.critical - over * tol):
            if vb.critical - over * tol < 0.0 and f < vb.critical:
                continue  # below zero the pleased degree is undefined instead
            values = np.array([vb.critical, f, vb.ideal])
            with pytest.raises(InconsistentInputsError):
                pleased_degrees(values, vb)
            with pytest.raises(InconsistentInputsError):
                lambda_satisfactions(values, vb, 0.5)
            with pytest.raises(InconsistentInputsError):
                pleased_degree(f, vb)

    @pytest.mark.parametrize(
        "vb", [ValueBounds(0.0, 0.0), ValueBounds(-5.0, -1.0), ValueBounds(-3.0, 0.0)]
    )
    def test_nonpositive_ideal_leaves_mu_undefined(self, vb):
        values = np.linspace(vb.critical, vb.ideal, 5)
        assert np.isnan(pleased_degrees(values, vb)).all()
        for f in values.tolist():
            with pytest.raises(DomainError):
                pleased_degree(f, vb)

    def test_zero_critical_at_zero_value(self):
        vb = ValueBounds(0.0, 10.0)
        got = pleased_degrees(np.array([0.0, -1e-12, 5.0]), vb).tolist()
        assert got == [0.5, 0.5, reference_pleased_degree(5.0, vb)]

    def test_degenerate_bounds_give_one_with_one_warning(self):
        vb = ValueBounds(5.0, 5.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = lambda_satisfactions(np.full(7, 5.0), vb, 0.3)
        assert got.tolist() == [1.0] * 7
        assert [w.category for w in caught] == [DegenerateBoundsWarning]

    def test_scalar_input_gives_a_zero_dimensional_result(self):
        vb = ValueBounds(20.0, 80.0)
        assert pleased_degrees(50.0, vb).shape == ()
        assert lambda_satisfactions(50.0, vb, 0.5).shape == ()
