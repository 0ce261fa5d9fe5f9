"""Grey-problem data model and positioned whitening.

A grey parameter is a value known only to lie in a closed interval.  A grey
linear program carries one interval per objective coefficient, constraint
coefficient, and right-hand side.  Whitening replaces each interval by the
convex combination ``t*hi + (1-t)*lo`` for a position coefficient
``t in [0, 1]``, turning the grey problem into a concrete ("white") max-LP.

Problems, coefficient blocks and white programs store their numbers only
as read-only numpy arrays (``GreyLP.c_lo``, ``PositionCoefficients.
alpha_array``, ``WhiteLP.A_array``, ...); an interval is a ``(lo, hi)``
pair wherever one is passed in.  Every block is checked at construction
(``_shaped``), so no ragged or empty container, and no bool or string
read as a number, exists past that point; a problem's intervals are
checked there too (:func:`validate_problem`), so every ``GreyLP`` is
valid.  All types are immutable after construction and all operations are
pure, so everything here is safe to share across threads.

Many uniform (alpha, beta, gamma) triples are whitened at once as a stack
layout (gammas, alphas, betas) for the grid kernel
(``lp_solver._solve_points``).  Under uniform whitening the matrix depends
on gamma alone, the objective on alpha alone and the right-hand side on
beta alone, so the triples are grouped by gamma: slice s has gamma
``gammas[s]`` (G x 1 x 1), alphas ``alphas[s]`` (G x ka x 1) and betas
``betas[s]`` (G x kb x 1), and its points are their whole ka x kb
rectangle.  ``_white_stack`` whitens the layout to a matrix per slice (G x
m x n), objectives (G x ka x n) and right-hand sides (G x kb x m), so
point (s, a, b) is objective ``C[s, a]`` and right-hand side ``Bv[s, b]``.
Row k is point (s, a, b) with k = (a * kb + b) * G + s, so the kernel's
values (G x ka x kb) are put in row order by arithmetic, not by an index:
``values.transpose(1, 2, 0).ravel()``.  A grid cube of g values
(``_cube_layout``) has a slice per value, so row k is grid point (k // g²,
k // g % g, k % g): its triples in lexicographic (alpha, beta, gamma)
order, with nothing sorted.  Chosen settings (``_point_layout``) have a
slice per point, so their rows are in input order.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, StructureError, ValidationError

__all__ = [
    "GreyLP",
    "PositionCoefficients",
    "WhiteLP",
    "Violation",
    "build_positioned",
    "uniform_coefficients",
    "validate_problem",
]


_REALS = {int, float}  # exact types: a bool is not a number here


def _check_real(values, depth: int, block: str) -> None:
    """Raise :class:`StructureError` naming ``block`` at an entry of
    ``values``, containers nested ``depth`` deep, that is not a real number:
    a bool, a string and None are not, though ``float()`` takes some of
    them.  An array is judged by its dtype alone; nesting that does not fit
    ``depth`` is left to the shape check.  The entries are walked one level
    at a time, so lists and tuples of Python numbers cost no Python loop."""
    level = [values]
    for deeper in range(depth, -1, -1):
        kinds = set(map(type, level))
        if kinds <= _REALS:
            return
        if deeper and kinds <= {list, tuple}:
            level = list(itertools.chain.from_iterable(level))
            continue
        nested = []
        for v in level:
            if isinstance(v, np.ndarray):
                if v.dtype.kind not in "iuf":
                    raise StructureError(
                        f"{block}: expected real numbers, got an array of {v.dtype}"
                    )
            elif isinstance(v, Sequence) and not isinstance(v, (str, bytes, bytearray)):
                if deeper:
                    nested.extend(v)
            elif isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise StructureError(f"{block}: expected real numbers, got {v!r}")
        level = nested


# A range of numbers: its interval text, and within(v), whether a float, or
# each entry of an array, lies in it (False for NaN).
_Range = namedtuple("_Range", "text within")

_UNIT = _Range("[0, 1]", lambda v: (v >= 0.0) & (v <= 1.0))  # coefficients, lambdas, mu0
_STEP = _Range("(0, 0.5]", lambda v: (v > 0.0) & (v <= 0.5))  # grid steps


def _number(v, name: str, interval: str = _UNIT.text) -> float:
    """``v`` as a float, an integer past float range as an infinity.
    Raises :class:`DomainError` "<name> must be a number in <interval>"
    unless ``v`` is a real number by :func:`_check_real`'s rule."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise DomainError(f"{name} must be a number in {interval}, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _in_range(v, name: str, rng: _Range = _UNIT) -> float:
    """The argument ``v``, called ``name``, as a float in the range ``rng``;
    any other value, NaN among them, raises :class:`DomainError`."""
    t = _number(v, name, rng.text)
    if not rng.within(t):
        raise DomainError(f"{name} must be in {rng.text}, got {t}")
    return t


def _require_units(values: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise :func:`_in_range`'s :class:`DomainError` for the first entry of
    ``values`` (C order) outside [0, 1] or NaN, named as a position
    coefficient in ``names[j % len(names)]`` for column j of the last axis."""
    bad = ~_UNIT.within(values)
    if bad.any():
        i = int(bad.argmax())
        _in_range(values.flat[i], f"position coefficient in {names[i % len(names)]}")  # raises


def _shaped(values, shape: tuple, block: str, error: str) -> np.ndarray:
    """``values`` as a new float array of ``shape``, where ``None`` stands
    for any length.  An entry that is not a real number raises
    :class:`StructureError` naming ``block``, one past float range
    :class:`DomainError`, and a block of any other shape
    :class:`StructureError` with the text ``error``."""
    _check_real(values, len(shape), block)
    try:
        a = np.array(values, dtype=float)
    except OverflowError:  # a Python int past float range
        raise DomainError(f"{block}: value is too large for a float") from None
    except (TypeError, ValueError):  # ragged or not iterable as a block
        a = None
    if a is None or a.ndim != len(shape) or any(k not in (None, s) for k, s in zip(shape, a.shape)):
        raise StructureError(error)
    return a


def _at_least_one(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise StructureError(f"need at least one variable and one constraint, got n={n}, m={m}")


class _ArrayRecord:
    """A frozen dataclass whose fields are read-only arrays, set once by
    :meth:`_store`, with value equality over its fields in their declared
    order."""

    def _store(self, **arrays: np.ndarray) -> None:
        """Make each of ``arrays`` read-only and set it as the field of its
        name (the class is frozen, so this is the one place fields are
        set)."""
        for a in arrays.values():
            a.flags.writeable = False
        self.__dict__.update(arrays)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __hash__(self):
        # Equal records have equal shapes; hashing values would have to map
        # -0.0 to 0.0 first.
        return hash(tuple(getattr(self, f.name).shape for f in fields(self)))


@dataclass(frozen=True, eq=False, init=False)
class GreyLP(_ArrayRecord):
    """A grey max-LP: maximize c(x)·x subject to A(x)·x <= b(x), x >= 0,
    with every coefficient a closed interval [lo, hi].

    ``GreyLP(objective, matrix, rhs)`` takes n >= 1 ``(lo, hi)`` pairs for
    the objective, an m-by-n grid of pairs (one row per constraint) and
    m >= 1 pairs for the right-hand side, all real numbers.  Blocks of any
    other shape, and entries that are not real numbers, raise
    :class:`StructureError` naming the block, and an integer past float
    range raises :class:`DomainError`; a file whose blocks do not fit
    together is reported by :func:`~greylp.cli.parse_problem` instead.
    Every interval must satisfy 0 <= lo <= hi < inf: otherwise
    construction raises :class:`ValidationError` listing every violation
    that :func:`validate_problem` finds, so no invalid problem exists.

    The bounds are stored as arrays: ``c_lo``/``c_hi`` (n), ``A_lo``/``A_hi``
    (m x n) and ``b_lo``/``b_hi`` (m).
    """

    c_lo: np.ndarray
    c_hi: np.ndarray
    A_lo: np.ndarray
    A_hi: np.ndarray
    b_lo: np.ndarray
    b_hi: np.ndarray

    def __init__(self, objective, matrix, rhs):
        c = _shaped(objective, (None, 2), "objective", "objective: expected (lo, hi) pairs")
        b = _shaped(rhs, (None, 2), "rhs", "rhs: expected (lo, hi) pairs")
        n, m = len(c), len(b)
        _at_least_one(n, m)
        A = _shaped(
            matrix, (m, n, 2), "matrix", f"matrix: expected a {m}x{n} grid of (lo, hi) pairs"
        )
        self._store(
            c_lo=np.ascontiguousarray(c[:, 0]), c_hi=np.ascontiguousarray(c[:, 1]),
            A_lo=np.ascontiguousarray(A[..., 0]), A_hi=np.ascontiguousarray(A[..., 1]),
            b_lo=np.ascontiguousarray(b[:, 0]), b_hi=np.ascontiguousarray(b[:, 1]),
        )
        violations = validate_problem(self)
        if violations:
            raise ValidationError(violations)

    @property
    def n(self) -> int:
        """Number of variables."""
        return len(self.c_lo)

    @property
    def m(self) -> int:
        """Number of constraints."""
        return len(self.b_lo)


@dataclass(frozen=True, eq=False, init=False)
class PositionCoefficients(_ArrayRecord):
    """Whitening weights: one alpha per objective entry, one beta per
    right-hand side entry, and an m-by-n grid of gammas for the matrix.

    Every entry must lie in [0, 1]; out-of-range or non-finite entries raise
    :class:`DomainError` at construction, after the entries and shapes are
    checked (a list of real numbers each for alphas and betas, rows of one
    length for the gammas; anything else raises :class:`StructureError`).
    Whether the dimensions match a particular problem is checked by
    :func:`build_positioned`.

    ``PositionCoefficients(alphas, betas, gammas)`` stores the weights as
    ``alpha_array`` (n), ``beta_array`` (m) and ``gamma_array`` (m x n).
    """

    alpha_array: np.ndarray
    beta_array: np.ndarray
    gamma_array: np.ndarray

    def __init__(self, alphas, betas, gammas):
        alpha = _shaped(alphas, (None,), "alphas", "alphas: expected a list of numbers")
        beta = _shaped(betas, (None,), "betas", "betas: expected a list of numbers")
        gamma = _shaped(
            gammas, (None, None), "gammas", "gammas: expected rows of numbers of one length"
        )
        for name, values in (("alphas", alpha), ("betas", beta), ("gammas", gamma)):
            _require_units(values, (name,))
        self._store(alpha_array=alpha, beta_array=beta, gamma_array=gamma)


@dataclass(frozen=True, eq=False, init=False)
class WhiteLP(_ArrayRecord):
    """A concrete max-LP (c, A, b): maximize c·x subject to A·x <= b, x >= 0.

    Unlike the grey containers this type is strict: entries must be finite
    real numbers and the dimensions consistent, since a white problem is
    handed straight to the solver.  ``WhiteLP(c, A, b)`` stores the numbers as ``c_array``
    (n), ``A_array`` (m x n) and ``b_array`` (m).
    """

    c_array: np.ndarray
    A_array: np.ndarray
    b_array: np.ndarray

    def __init__(self, c, A, b):
        c = _shaped(c, (None,), "c", "c: expected a list of numbers")
        b = _shaped(b, (None,), "b", "b: expected a list of numbers")
        n, m = len(c), len(b)
        _at_least_one(n, m)
        self._set(c, _shaped(A, (m, n), "matrix", f"matrix must be {m}x{n}"), b)

    @classmethod
    def _of_arrays(cls, c, A, b) -> WhiteLP:
        """A program holding the new arrays ``c`` (n), ``A`` (m x n) and
        ``b`` (m), with n, m >= 1; only finiteness is checked."""
        lp = object.__new__(cls)
        lp._set(c, A, b)
        return lp

    def _set(self, c, A, b):
        for values in (c, b, A):
            bad = ~np.isfinite(values)
            if bad.any():
                raise DomainError(
                    f"non-finite entry {float(values.flat[bad.argmax()])} in white problem"
                )
        self._store(c_array=c, A_array=A, b_array=b)

    @property
    def n(self) -> int:
        return len(self.c_array)

    @property
    def m(self) -> int:
        return len(self.b_array)


@dataclass(frozen=True)
class Violation:
    """One validation finding: where it is, what kind, and a readable message."""

    location: str
    kind: str  # bounds_order | negative_lower | non_finite | dimension
    message: str = field(compare=False)

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


def _white_stack(p: GreyLP, gammas, alphas, betas) -> tuple[np.ndarray, ...]:
    """The white programs (A, C, Bv) of ``p`` at the position coefficients
    ``gammas``, ``alphas`` and ``betas``, which broadcast against the
    problem's matrix (... x m x n), objective (... x n) and right-hand side
    (... x m), each entry whitened as ``t*hi + (1-t)*lo``.  This is the
    one function that whitens a program: :func:`build_positioned` passes
    one coefficient block, and the grid kernel a stack layout (see the
    module docstring).
    """
    return (
        gammas * p.A_hi + (1.0 - gammas) * p.A_lo,
        alphas * p.c_hi + (1.0 - alphas) * p.c_lo,
        betas * p.b_hi + (1.0 - betas) * p.b_lo,
    )


def build_positioned(p: GreyLP, k: PositionCoefficients) -> WhiteLP:
    """Whiten every grey parameter of ``p`` with the weights in ``k``,
    producing the positioned (white) program.

    Raises :class:`StructureError` when the coefficient block does not match
    the problem's dimensions.
    """
    if len(k.alpha_array) != p.n:
        raise StructureError(f"expected {p.n} alphas, got {len(k.alpha_array)}")
    if len(k.beta_array) != p.m:
        raise StructureError(f"expected {p.m} betas, got {len(k.beta_array)}")
    if k.gamma_array.shape != (p.m, p.n):
        raise StructureError(f"expected a {p.m}x{p.n} gamma grid")
    A, c, b = _white_stack(p, k.gamma_array, k.alpha_array, k.beta_array)
    return WhiteLP._of_arrays(c, A, b)


def uniform_coefficients(
    alpha: float, beta: float, gamma: float, m: int, n: int
) -> PositionCoefficients:
    """Coefficients with a single shared alpha, beta, and gamma.

    ``(1, 1, 0)`` selects the ideal endpoint (upper objective and rhs bounds,
    lower matrix bounds); ``(0, 0, 1)`` selects the critical endpoint.
    """
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (m, n)):
        raise StructureError(f"m and n must be integers, got m={m!r}, n={n!r}")
    _at_least_one(n, m)
    # Every entry is one of three scalars, so a bad one is reported by the
    # scalar check (in the constructor's order) before any array is filled.
    alpha, beta, gamma = (
        _in_range(v, f"position coefficient in {name}")
        for v, name in ((alpha, "alphas"), (beta, "betas"), (gamma, "gammas"))
    )
    return PositionCoefficients(np.full(n, alpha), np.full(m, beta), np.full((m, n), gamma))


def _point_layout(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stack layout of the uniform triples ``pts`` (N x 3 rows of
    alpha, beta, gamma) with a 1 x 1 slice for each point, in input order.
    Nothing is merged, so it suits a few chosen settings, not a grid."""
    return pts[:, 2, None, None], pts[:, None, :1], pts[:, None, 1:2]


def _cube_layout(grid: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """The stack layout of every triple of the strictly increasing ``grid``
    values: with g values, each value has a g x g slice holding every
    value as an alpha and a beta.  The alpha and beta stacks are one
    read-only view, so nothing of size g² is written."""
    values = np.array(grid)
    table = np.broadcast_to(values[:, None], (len(values), len(values), 1))
    return values[:, None, None], table, table


def _interval_violations(lo, hi, locations) -> list[Violation]:
    """The violations of the intervals ``[lo, hi]`` (arrays of one shape),
    in C order; ``locations(i)`` names flat entry ``i``."""
    ok = (lo >= 0.0) & (lo <= hi) & (hi < np.inf)  # False wherever a check fails
    if ok.all():
        return []
    out = []
    flagged = np.flatnonzero(~ok)
    for i, lo_v, hi_v in zip(
        flagged.tolist(), lo.ravel()[flagged].tolist(), hi.ravel()[flagged].tolist()
    ):
        location = locations(i)
        finite = True
        for side, v in (("lower", lo_v), ("upper", hi_v)):
            if not math.isfinite(v):
                out.append(Violation(location, "non_finite", f"{side} bound {v} is not finite"))
                finite = False
        if not finite:
            continue
        if lo_v > hi_v:
            out.append(
                Violation(
                    location, "bounds_order", f"lower bound {lo_v:g} exceeds upper bound {hi_v:g}"
                )
            )
        if lo_v < 0:
            out.append(
                Violation(
                    location,
                    "negative_lower",
                    f"negative lower bound {lo_v:g} (all parameters must be >= 0)",
                )
            )
    return out


def validate_problem(p: GreyLP) -> list[Violation]:
    """Collect every invariant violation in the bounds of ``p``.

    Checks interval ordering (lo <= hi), the nonnegativity assumption
    (lo >= 0) and finiteness of all bounds.  This is the rule
    :class:`GreyLP` applies when it is built, so the list is empty for
    every problem that exists.  Violations are data, not exceptions, so a
    CLI user sees every data problem in one pass.  Each block is checked
    with array masks, and a message is formatted only for a flagged entry:
    block by block (objective, matrix, rhs), in C order within each.
    """
    return [
        *_interval_violations(p.c_lo, p.c_hi, "objective[{}]".format),
        *_interval_violations(
            p.A_lo, p.A_hi, lambda i: "matrix[{}][{}]".format(*divmod(i, p.n))
        ),
        *_interval_violations(p.b_lo, p.b_hi, "rhs[{}]".format),
    ]
