"""Critical/ideal value bounds and satisfaction degrees of positioned optima.

The critical value is the positioned optimum at uniform coefficients
(0, 0, 1) (most pessimistic whitening) and the ideal value the optimum at
(1, 1, 0) (most optimistic).  Every positioned optimum lies between the two,
which makes them the natural normalization for judging how good a
positioned optimum is:

* the pleased degree ``0.5*(1 - critical/f) + 0.5*f/ideal`` never reaches
  0 or 1, even at the bounds themselves;
* the lambda-satisfaction degree blends a linear normalized degree (weight
  ``lam``) with a damped one (weight ``1-lam``) and spans [0, 1] exactly,
  hitting 0 at the critical value and 1 at the ideal value.  ``lam`` encodes
  the decision maker's attitude: 0 pessimistic, 1 optimistic.

A degree is then accepted against a grey target [mu0, 1].
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoundsWarning,
    DomainError,
    InconsistentInputsError,
    SolverFailure,
    UnboundedValueError,
    ValidationError,
)
from .grey_core import GreyLP, PositionCoefficients, build_positioned, uniform_coefficients, validate_problem
from .lp_solver import LPSolution, SolveStatus, solve_max

__all__ = [
    "ValueBounds",
    "positioned_value",
    "bounds",
    "pleased_degree",
    "pleased_degrees",
    "lambda_satisfaction",
    "lambda_satisfactions",
    "is_pleased",
    "is_lambda_satisfactory",
]


@dataclass(frozen=True)
class ValueBounds:
    """The critical (pessimistic) and ideal (optimistic) optimal values."""

    critical: float
    ideal: float

    def __post_init__(self):
        object.__setattr__(self, "critical", float(self.critical))
        object.__setattr__(self, "ideal", float(self.ideal))
        if self.critical > self.ideal + _value_tol(self):
            raise InconsistentInputsError(
                f"critical value {self.critical} exceeds ideal value {self.ideal}"
            )

    @property
    def is_degenerate(self) -> bool:
        """True when the two bounds coincide up to solver noise (effectively
        white problem: every positioned optimum equals both bounds)."""
        return self.ideal - self.critical <= 1e-9 * max(1.0, self.ideal)


def _value_tol(vb: ValueBounds) -> float:
    # Solver noise can place a positioned value marginally outside the
    # bounds; containment is mathematically guaranteed, so clamp within
    # this tolerance and reject beyond it.
    return 1e-6 * max(1.0, vb.ideal)


def _clamp(f: np.ndarray, vb: ValueBounds) -> np.ndarray:
    tol = _value_tol(vb)
    outside = (f < vb.critical - tol) | (f > vb.ideal + tol)
    if outside.any():
        raise InconsistentInputsError(
            f"value {float(f[outside][0])} lies outside [{vb.critical}, {vb.ideal}] "
            f"by more than {tol:g}"
        )
    # min(max(f, critical), ideal) with Python's tie rules, so the sign of a
    # zero survives as it does for floats.
    f = np.where(vb.critical > f, vb.critical, f)
    return np.where(vb.ideal < f, vb.ideal, f)


def _solve_positioned(
    p: GreyLP,
    k: PositionCoefficients,
    start=None,
    unbounded: str = "positioned program is unbounded; satisfaction analysis is undefined",
    failed: str = "unexpected solver status {} for a whitened problem",
) -> LPSolution:
    """The optimal solution of the positioned program of a validated ``p``,
    solved from the basis ``start`` if one is given.  Raises
    :class:`UnboundedValueError` with the message ``unbounded``, and
    :class:`SolverFailure` with ``failed`` formatted with the status for
    any other outcome (unreachable for valid problems)."""
    sol = solve_max(build_positioned(p, k), start)
    if sol.status is SolveStatus.UNBOUNDED:
        raise UnboundedValueError(unbounded)
    if sol.status is not SolveStatus.OPTIMAL:
        raise SolverFailure(failed.format(sol.status.value))
    return sol


def _validated(p: GreyLP) -> None:
    violations = validate_problem(p)
    if violations:
        raise ValidationError(violations)


def positioned_value(p: GreyLP, k: PositionCoefficients) -> float:
    """Optimal value of the positioned program built from ``p`` with ``k``."""
    _validated(p)
    return _solve_positioned(p, k).objective


def _bounds(p: GreyLP, start=None) -> tuple[ValueBounds, tuple[tuple[int, ...], ...]]:
    """The bounds of a validated ``p`` and the optimal bases of its critical
    and ideal programs.  Both solves start from the basis ``start`` if one
    is given; otherwise the critical solve is cold and the ideal one starts
    from the critical basis."""
    critical = _solve_positioned(p, uniform_coefficients(0, 0, 1, p.m, p.n), start)
    start = critical.basis if start is None else start
    ideal = _solve_positioned(p, uniform_coefficients(1, 1, 0, p.m, p.n), start)
    vb = ValueBounds(critical=critical.objective, ideal=ideal.objective)
    return vb, (critical.basis, ideal.basis)


def bounds(p: GreyLP) -> ValueBounds:
    """Critical and ideal optimal values of ``p``."""
    _validated(p)
    return _bounds(p)[0]


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

    Raises :class:`InconsistentInputsError` if a value it scores lies
    outside the bounds by more than the solver-noise tolerance.
    """
    f = np.asarray(f, dtype=float)
    if vb.ideal <= 0.0:
        return np.full(f.shape, np.nan)
    # The negated comparisons keep NaN inputs defined (and NaN), as for floats.
    defined = ~(f < min(vb.critical, 0.0) - _value_tol(vb))
    f = _clamp(np.where(defined, f, vb.critical), vb)
    defined &= ~(f < 0.0) & ((f != 0.0) | (vb.critical == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # At f = 0 (critical 0) the ratio term is its limit 0.5 as f -> 0+.
        ratio_term = np.where(f == 0.0, 0.5, 0.5 * (1.0 - vb.critical / f))
        mu = ratio_term + 0.5 * f / vb.ideal
    return np.where(defined, mu, np.nan)


def pleased_degree(f: float, vb: ValueBounds) -> float:
    """Prior satisfaction measure ``0.5*(1 - critical/f) + 0.5*f/ideal``.

    Stays strictly inside (0, 1): the critical value scores
    ``critical/(2*ideal)`` and the ideal value ``1 - critical/(2*ideal)``.
    ``f`` must be positive (zero is allowed only when the critical value is
    zero, where the vanishing ratio term is taken by continuity).
    """
    f = float(f)
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
    Degenerate bounds give 1 everywhere and one
    :class:`DegenerateBoundsWarning` per call."""
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must be in [0, 1], got {lam}")
    f = np.asarray(f, dtype=float)
    if vb.is_degenerate:
        warnings.warn(
            "critical and ideal values coincide (effectively white problem); "
            "reporting satisfaction degree 1",
            DegenerateBoundsWarning,
            stacklevel=_outside_stacklevel(),
        )
        return np.ones(f.shape)
    f = _clamp(f, vb)
    spread = vb.ideal - vb.critical
    gain = f - vb.critical
    linear = gain / spread
    damped = gain / (spread + (1.0 - lam) * (vb.ideal - f))
    return lam * linear + (1.0 - lam) * damped


def lambda_satisfaction(f: float, vb: ValueBounds, lam: float) -> float:
    """Attitude-weighted satisfaction degree of ``f`` between the bounds.

    Blends the linear normalized degree ``t = (f - critical)/(ideal -
    critical)`` (weight ``lam``) with the damped degree ``(f - critical) /
    (ideal - critical + (1 - lam)*(ideal - f))`` (weight ``1 - lam``).
    Equals 0 at the critical value, 1 at the ideal value, and is increasing
    in both ``f`` and ``lam`` in between.  ``lam = 1`` reduces to ``t``.

    Coinciding bounds make the ratios meaningless; every solution then
    attains the ideal, so the degree is reported as 1 with a
    :class:`DegenerateBoundsWarning`.
    """
    return float(lambda_satisfactions(float(f), vb, lam))


def is_pleased(mu: float, mu0: float) -> bool:
    """True iff the pleased degree lands in the grey target [mu0, 1]."""
    for name, v in (("mu", mu), ("mu0", mu0)):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    return mu >= mu0


def is_lambda_satisfactory(mu_tilde: float, mu0: float) -> bool:
    """True iff the lambda-satisfaction degree lands in the grey target [mu0, 1]."""
    for name, v in (("mu_tilde", mu_tilde), ("mu0", mu0)):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    return mu_tilde >= mu0
