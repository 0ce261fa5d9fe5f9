"""Critical/ideal value bounds and satisfaction degrees of positioned optima.

The critical value is the positioned optimum at uniform coefficients
(0, 0, 1) (most pessimistic whitening) and the ideal value the optimum at
(1, 1, 0) (most optimistic).  Every positioned optimum lies between the two,
which makes them the natural normalization for judging how good a
positioned optimum is, by the pleased degree (:func:`pleased_degree`) or
the lambda-satisfaction degree (:func:`lambda_satisfaction`).  A degree is
then accepted against a grey target [mu0, 1].

Each analysis command solves its settings and both bounds in one call of
the stacked kernel (:func:`_solve_grid`), so a setting at a bound triple
is the bound's own point and scores exactly 0 or 1.  A positioned program
on its own is solved cold.

The degrees of an array of optima run the scalar formulas' operations in
the same order, so each is bit for bit the scalar function's, and write
each result into one of a few reused buffers of the optima's shape.
"""

from __future__ import annotations

import logging
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoundsWarning,
    DomainError,
    InconsistentInputsError,
    SolverFailure,
    StructureError,
    UnboundedValueError,
)
from .grey_core import (
    GreyLP, PositionCoefficients, _in_range, _number, _point_layout, _shaped, _white_stack,
    build_positioned,
)
from .lp_solver import LPSolution, SolveStatus, _solve_points, solve_max

__all__ = [
    "ValueBounds",
    "positioned_value",
    "bounds",
    "pleased_degree",
    "pleased_degrees",
    "lambda_satisfaction",
    "lambda_satisfactions",
]

_log = logging.getLogger(__name__)

_ANY = "(-inf, inf)"  # the interval in which a bound or a value to score is read


@dataclass(frozen=True)
class ValueBounds:
    """The critical (pessimistic) and ideal (optimistic) optimal values, both
    finite.

    Each is read by the number rule of :mod:`greylp.grey_core`: a bool, a
    string or None raises :class:`DomainError`, and an integer past float
    range reads as an infinity, which is refused as not finite.  A critical
    value above the ideal one by more than solver noise raises
    :class:`InconsistentInputsError`."""

    critical: float
    ideal: float

    def __post_init__(self):
        for name in ("critical", "ideal"):
            object.__setattr__(self, name, _number(getattr(self, name), name, _ANY))
        if not (math.isfinite(self.critical) and math.isfinite(self.ideal)):
            raise DomainError(f"value bounds must be finite, got {self.critical}, {self.ideal}")
        if self.critical > self.ideal + _noise_tol(self.ideal):
            raise InconsistentInputsError(
                f"critical value {self.critical} exceeds ideal value {self.ideal}"
            )

    @property
    def is_degenerate(self) -> bool:
        """True when the two bounds coincide up to solver noise (effectively
        white problem: every positioned optimum equals both bounds)."""
        return self.ideal - self.critical <= 1e-9 * max(1.0, self.ideal)


def _values(f) -> np.ndarray:
    """The values to score ``f`` (an array or a number) as a new float
    array, each entry checked as a block named "values" is (see
    ``grey_core._shaped``); ragged nesting raises :class:`StructureError`."""
    error = "values: expected an array of numbers"
    try:
        depth = np.ndim(f)
    except ValueError:  # numpy refuses ragged nesting
        raise StructureError(error) from None
    return _shaped(f, (None,) * depth, "values", error)


def _noise_tol(magnitude: float) -> float:
    """The solver noise allowed on values of up to ``magnitude``: two bounds
    out of order, a positioned value outside the bounds (containment is
    mathematically guaranteed, so values are clamped within this and
    rejected beyond it), or two optima out of the expected order."""
    return 1e-6 * max(1.0, magnitude)


def _clamp(f: np.ndarray, vb: ValueBounds) -> np.ndarray:
    """The values ``f``, an array the caller owns, clamped to the bounds in
    place."""
    tol = _noise_tol(vb.ideal)
    outside = (f < vb.critical - tol) | (f > vb.ideal + tol)
    if outside.any():
        raise InconsistentInputsError(
            f"value {float(f[outside][0])} lies outside [{vb.critical}, {vb.ideal}] "
            f"by more than {tol:g}"
        )
    # min(max(f, critical), ideal) with Python's tie rules, so the sign of a
    # zero survives as it does for floats.
    np.copyto(f, vb.critical, where=vb.critical > f)
    np.copyto(f, vb.ideal, where=vb.ideal < f)
    return f


def _solve_positioned(p: GreyLP, k: PositionCoefficients) -> LPSolution:
    """The optimal solution of the positioned program of ``p``, solved
    cold.  Raises :class:`UnboundedValueError` ("positioned program
    is unbounded") if it is unbounded."""
    sol = solve_max(build_positioned(p, k))
    if sol.status is SolveStatus.UNBOUNDED:
        raise UnboundedValueError("positioned program is unbounded")
    return sol


def positioned_value(p: GreyLP, k: PositionCoefficients) -> float:
    """Optimal value of the positioned program built from ``p`` with ``k``."""
    return _solve_positioned(p, k).objective


_IDEAL, _CRITICAL = (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)  # as uniform (alpha, beta, gamma)


def _solve_grid(p: GreyLP, layout: tuple[np.ndarray, ...]) -> np.ndarray:
    """The positioned optimum of ``p`` at every triple of the stack
    ``layout``, from one kernel call, NaN where the positioned program
    is unbounded, in the layout's row order (see :mod:`greylp.grey_core`):
    lexicographic for a grid cube, input order for chosen settings.

    Results equal those of solving each point on its own
    (``solve_max(build_positioned(p, uniform_coefficients(...)))``), up to
    rounding.  One INFO record on the ``greylp.satisfaction`` logger
    reports the points, cold and warm-started solves, certified points,
    distinct bases and non-optimal (unbounded) points; points settled by
    the ray of an unbounded solve count as certified.  Its counts are
    taken only when INFO is enabled for that logger."""
    gammas, alphas, betas = layout
    # Allocated first, so that a cube too large to hold fails at once, as
    # numpy refuses it, before its g² whitened stacks are written.
    rows = np.empty((alphas.shape[1], betas.shape[1], len(gammas)))
    values, cache, cold, warm = _solve_points(*_white_stack(p, *layout))
    np.copyto(rows, values.transpose(1, 2, 0))
    values = rows.ravel()
    if _log.isEnabledFor(logging.INFO):
        n = len(values)
        _log.info(
            "solve_grid: %d points, %d cold solves, %d warm starts, %d certified, %d bases, "
            "%d non-optimal",
            n, cold, warm, n - cold - warm, len(cache), int(np.isnan(values).sum()),
        )
    return values


def _triple_text(t) -> str:
    """A coefficient triple as its messages and the command line print it:
    "(alpha,beta,gamma)", each in ``%g`` form."""
    return "(%g,%g,%g)" % tuple(t)


_UNBOUNDED = "positioned program is unbounded; satisfaction analysis is undefined"


def _bounded(f: np.ndarray, critical: float, ideal: float, triple) -> ValueBounds:
    """The bounds ``critical`` and ``ideal``, solved in one kernel call
    with the optima ``f``, where ``triple(i)`` is the (alpha, beta, gamma)
    row of ``f[i]``.

    An unbounded (NaN) bound raises :class:`UnboundedValueError`.  Once the
    ideal program is bounded, no positioned program is unbounded: valid
    data have A_lo >= 0 and c >= 0, so a ray d of a positioned program
    (A d = 0, c·d > 0) is a ray of the ideal program (c_hi, A_lo) too.  A
    NaN optimum can thus only come from the solver, and it raises
    :class:`SolverFailure`."""
    if math.isnan(critical) or math.isnan(ideal):
        raise UnboundedValueError(_UNBOUNDED)
    if np.isnan(f).any():
        raise SolverFailure(
            f"positioned program at {_triple_text(triple(np.isnan(f).argmax()).tolist())} "
            "is unbounded, but the ideal one is bounded"
        )
    return ValueBounds(critical=critical, ideal=ideal)


def _solve_with_bounds(p: GreyLP, pts: np.ndarray) -> tuple[np.ndarray, ValueBounds]:
    """The positioned optimum of ``p`` at each of the checked triples
    ``pts`` (N x 3), and the bounds, from one kernel call (see
    :func:`_solve_grid`).  Raises as :func:`_bounded`.

    Each distinct triple is one point of a ``grey_core._point_layout``,
    in the order ``pts`` first, then the ideal triple and the critical one.
    So the first triple of ``pts`` is solved cold, bit for bit as
    :func:`positioned_value` solves it, and a triple of ``pts`` at a bound
    has the bound's own value."""
    triples = list(map(tuple, pts.tolist()))
    index = {t: i for i, t in enumerate(dict.fromkeys([*triples, _IDEAL, _CRITICAL]))}
    values = _solve_grid(p, _point_layout(np.array(list(index))))
    f = values.take([index[t] for t in triples])
    return f, _bounded(f, values[index[_CRITICAL]], values[index[_IDEAL]], pts.__getitem__)


def bounds(p: GreyLP) -> ValueBounds:
    """Critical and ideal optimal values of ``p``."""
    return _solve_with_bounds(p, np.empty((0, 3)))[1]


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning issued by the caller of
    this function to the first stack frame outside greylp."""
    inside = __package__ + "."
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").startswith(inside):
        frame, level = frame.f_back, level + 1
    return level


def pleased_degrees(f, vb: ValueBounds) -> np.ndarray:
    """Pleased degree of every value in ``f`` (an array or a number), NaN
    wherever :func:`pleased_degree` raises :class:`DomainError`.

    The values are checked and clamped as :func:`lambda_satisfactions`
    checks and clamps them, at degenerate bounds too.  The degree is then
    undefined (NaN) where the ideal value is not positive, where a value
    is negative, and at a zero value unless the critical value is zero.
    """
    f = _clamp(_values(f), vb)  # a copy, clamped and scaled in place
    # The negated comparison keeps a NaN value defined (and NaN), as for floats.
    defined = ~(f < 0.0) & ((f != 0.0) | (vb.critical == 0.0)) & (vb.ideal > 0.0)
    # mu = 0.5 * (1 - critical / f) + 0.5 * f / ideal, one operation at a
    # time in two buffers; where mu is undefined the operations may
    # divide by zero or overflow, and their results are discarded.
    mu = np.empty_like(f)
    with np.errstate(all="ignore"):
        np.divide(vb.critical, f, out=mu)
        np.subtract(1.0, mu, out=mu)
        np.multiply(0.5, mu, out=mu)
        # At f = 0 (critical 0) the ratio term is its limit 0.5 as f -> 0+.
        np.copyto(mu, 0.5, where=f == 0.0)
        np.multiply(0.5, f, out=f)
        np.divide(f, vb.ideal, out=f)
        np.add(mu, f, out=mu)
    np.copyto(mu, np.nan, where=~defined)
    return mu


def pleased_degree(f: float, vb: ValueBounds) -> float:
    """Prior satisfaction measure ``0.5*(1 - critical/f) + 0.5*f/ideal``.

    Stays strictly inside (0, 1): the critical value scores
    ``critical/(2*ideal)`` and the ideal value ``1 - critical/(2*ideal)``.
    ``f`` is read by the number rule of :class:`ValueBounds` and checked
    against the bounds as :func:`pleased_degrees` checks it.  The degree
    needs a positive ideal value and ``f > 0`` (zero is allowed only when
    the critical value is zero, where the vanishing ratio term is taken by
    continuity); elsewhere it raises :class:`DomainError`.
    """
    f = _number(f, "f", _ANY)
    mu = float(pleased_degrees(f, vb))
    if mu == mu or f != f:  # a NaN f scores NaN, as the formula gives
        return mu
    raise DomainError(
        f"pleased degree is undefined at f = {f} between critical value {vb.critical} "
        f"and ideal value {vb.ideal}: it needs a positive ideal value and f > 0 "
        "(or f = 0 with critical value 0)"
    )


def lambda_satisfactions(f, vb: ValueBounds, lam: float) -> np.ndarray:
    """Attitude-weighted satisfaction degree of every value in ``f`` (an
    array or a number) between the bounds; see :func:`lambda_satisfaction`.
    An entry of ``f`` that is not a real number raises
    :class:`StructureError`, one past float range :class:`DomainError`,
    and a value outside the bounds by more than the solver-noise tolerance
    :class:`InconsistentInputsError`; values within it are clamped to the
    bounds.  Degenerate bounds give 1 everywhere, and one
    :class:`DegenerateBoundsWarning` per call."""
    return _satisfaction_rows(f, vb, (_in_range(lam, "lam"),))[0]


def _satisfaction_rows(f, vb: ValueBounds, lambdas) -> np.ndarray:
    """The satisfaction degree of every value in ``f`` at each of the
    checked ``lambdas``, one row per lambda, as :func:`lambda_satisfactions`
    scores each: the values are checked and clamped once for all rows,
    at degenerate bounds too.  Degenerate bounds then give 1 everywhere and
    one :class:`DegenerateBoundsWarning` per lambda."""
    f = _clamp(_values(f), vb)  # a copy, clamped in place
    rows = np.ones((len(lambdas), *f.shape))
    if vb.is_degenerate:
        for _ in lambdas:
            warnings.warn(
                "critical and ideal values coincide (effectively white problem); "
                "reporting satisfaction degree 1",
                DegenerateBoundsWarning,
                stacklevel=_outside_stacklevel(),
            )
        return rows
    # Row j is lam * (gain / spread) + (1 - lam) * damped, where damped =
    # gain / (spread + (1 - lam) * room), one operation at a time in reused
    # buffers.
    spread = vb.ideal - vb.critical
    gain = f - vb.critical
    room = np.subtract(vb.ideal, f, out=f)
    damped = np.empty_like(f)
    for j, lam in enumerate(lambdas):
        row = rows[j, ...]  # a view, also of a single value's row
        np.multiply(1.0 - lam, room, out=damped)
        np.add(spread, damped, out=damped)
        np.divide(gain, damped, out=damped)
        np.multiply(1.0 - lam, damped, out=damped)
        np.divide(gain, spread, out=row)
        np.multiply(lam, row, out=row)
        np.add(row, damped, out=row)
    return rows


def lambda_satisfaction(f: float, vb: ValueBounds, lam: float) -> float:
    """Attitude-weighted satisfaction degree of ``f`` between the bounds.

    Blends the linear normalized degree ``t = (f - critical)/(ideal -
    critical)`` (weight ``lam``) with the damped degree ``(f - critical) /
    (ideal - critical + (1 - lam)*(ideal - f))`` (weight ``1 - lam``), so
    ``lam`` is the decision maker's attitude: 0 pessimistic, 1 optimistic.
    Spans [0, 1] exactly: 0 at the critical value, 1 at the ideal value,
    increasing in both ``f`` and ``lam`` in between; ``lam = 1`` gives ``t``.

    Coinciding bounds make the ratios meaningless; every solution then
    attains the ideal, so the degree is reported as 1 with a
    :class:`DegenerateBoundsWarning`.
    """
    return float(lambda_satisfactions(_number(f, "f", _ANY), vb, lam))

