"""Properties of the grey model that need no second solver, at unit scale.

Every positioned program is max c.x s.t. A.x <= b, x >= 0, with b >= 0.
The ideal program (c_hi, A_lo, b_hi) relaxes every whitening, and every
whitening relaxes the critical one (c_lo, A_hi, b_lo), so at any per-entry
positions the optimum lies between the bounds (the optimal value range of
an interval LP in this form: Chinneck & Ramadan, J. Oper. Res. Soc. 51,
2000).  For the same reason raising one position of c or b never lowers
the optimum, and raising one of A never raises it.  Permuting the
variables and the constraints, together with their positions, only
renames the program.

The lambda-satisfaction degree of an optimum f between the critical value
C and the ideal value I is the linear degree (f - C)/(I - C) at lambda = 1,
and it is nondecreasing in f and in lambda.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import many_basis_problem, random_bounded_problem
from greylp import (
    GreyLP, PositionCoefficients, ValueBounds, bounds, lambda_satisfactions, pleased_degrees,
    positioned_value,
)

_TOL = 1e-9
_DEGREE_TOL = 1e-12  # degrees lie in [0, 1], so this is absolute


def _close(x: float, y: float) -> bool:
    """x and y agree within ``_TOL`` relative (absolute below 1), or are
    both NaN."""
    return (x != x and y != y) or abs(x - y) <= _TOL * max(1.0, abs(x), abs(y))


@st.composite
def _instances(draw):
    """(p, (alphas, betas, gammas), rng): a seeded problem with m, n in 1..6,
    from ``many_basis_problem`` (wide intervals, many optimal bases) or
    ``random_bounded_problem`` (some white entries, zero lower bounds of c),
    random per-entry positions for it, and the generator that drew them."""
    seed = draw(st.integers(0, 2**32 - 1))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        p = many_basis_problem(rng, m, n)
    else:
        p = random_bounded_problem(random.Random(seed), n=n, m=m)
    positions = tuple(np.round(rng.uniform(0.0, 1.0, shape), 3) for shape in ((n,), (m,), (m, n)))
    return p, positions, rng


@settings(max_examples=200)
@given(_instances())
def test_optimum_lies_between_the_bounds(instance):
    p, positions, _ = instance
    vb = bounds(p)
    f = positioned_value(p, PositionCoefficients(*positions))
    slack = _TOL * max(1.0, vb.ideal)
    assert vb.critical - slack <= f <= vb.ideal + slack


@settings(max_examples=200)
@given(_instances(), st.sampled_from([0, 1, 2]))
def test_optimum_is_monotone_in_each_position(instance, block):
    # block 0 raises one alpha_j, 1 one beta_i, 2 one gamma_ij.
    p, positions, rng = instance
    raised = [t.copy() for t in positions]
    entry = tuple(int(rng.integers(s)) for s in raised[block].shape)
    raised[block][entry] = rng.uniform(raised[block][entry], 1.0)
    f = positioned_value(p, PositionCoefficients(*positions))
    g = positioned_value(p, PositionCoefficients(*raised))
    slack = _TOL * max(1.0, f, g)
    if block == 2:
        assert g <= f + slack
    else:
        assert g >= f - slack


@settings(max_examples=200)
@given(_instances(), st.floats(0.0, 1.0))
def test_permuting_rows_and_columns_with_their_positions_changes_nothing(instance, lam):
    p, (alphas, betas, gammas), rng = instance
    rows, cols = rng.permutation(p.m), rng.permutation(p.n)
    q = GreyLP(
        objective=np.stack([p.c_lo, p.c_hi], -1)[cols],
        matrix=np.stack([p.A_lo, p.A_hi], -1)[np.ix_(rows, cols)],
        rhs=np.stack([p.b_lo, p.b_hi], -1)[rows],
    )
    vb, vq = bounds(p), bounds(q)
    f = positioned_value(p, PositionCoefficients(alphas, betas, gammas))
    fq = positioned_value(q, PositionCoefficients(alphas[cols], betas[rows], gammas[np.ix_(rows, cols)]))
    assert _close(vb.critical, vq.critical) and _close(vb.ideal, vq.ideal) and _close(f, fq)
    assert _close(float(pleased_degrees(f, vb)), float(pleased_degrees(fq, vq)))
    if not (vb.is_degenerate or vq.is_degenerate):  # degrees of 1 with a warning
        assert _close(float(lambda_satisfactions(f, vb, lam)),
                      float(lambda_satisfactions(fq, vq, lam)))


@st.composite
def _bounds_and_optima(draw):
    """(vb, f): bounds with a critical value C in [0, 1e6] and a spread I - C
    of 1e-6 to 1e6 times max(1, C), so never degenerate, and 1 to 20
    optima in [C, I] in increasing order."""
    critical = draw(st.floats(0.0, 1e6))
    vb = ValueBounds(critical, critical + draw(st.floats(1e-6, 1e6)) * max(1.0, critical))
    u = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    return vb, np.minimum(vb.critical + u * (vb.ideal - vb.critical), vb.ideal)


@settings(max_examples=200)
@given(_bounds_and_optima())
def test_satisfaction_at_lambda_1_is_the_linear_degree(instance):
    vb, f = instance
    linear = [(v - vb.critical) / (vb.ideal - vb.critical) for v in f.tolist()]
    assert np.abs(lambda_satisfactions(f, vb, 1.0) - linear).max() <= _DEGREE_TOL


@settings(max_examples=200)
@given(_bounds_and_optima(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_satisfaction_is_nondecreasing_in_the_optimum_and_in_lambda(instance, lam, other):
    vb, f = instance
    low, high = (lambda_satisfactions(f, vb, t) for t in sorted((lam, other)))
    assert np.diff(low).min(initial=0.0) >= -_DEGREE_TOL
    assert np.diff(high).min(initial=0.0) >= -_DEGREE_TOL
    assert (high - low).min() >= -_DEGREE_TOL
