"""Grey-problem data model and positioned whitening.

A grey parameter is a value known only to lie in a closed interval.  A grey
linear program carries one interval per objective coefficient, constraint
coefficient, and right-hand side.  Whitening replaces each interval by the
convex combination ``t*hi + (1-t)*lo`` for a position coefficient
``t in [0, 1]``, turning the grey problem into a concrete ("white") max-LP.

Problems, coefficient blocks and white programs store their numbers as
read-only numpy arrays; the tuple views (``GreyLP.objective``,
``WhiteLP.c``, ``PositionCoefficients.alphas``, ...) are built on access.
All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructureError

__all__ = [
    "Interval",
    "GreyLP",
    "PositionCoefficients",
    "WhiteLP",
    "Violation",
    "whiten",
    "build_positioned",
    "uniform_coefficients",
    "theta_coefficients",
    "validate_problem",
]


@dataclass(frozen=True)
class Interval:
    """A closed real range [lo, hi] housing one grey parameter.

    Construction only coerces to float; whether the bounds are ordered and
    nonnegative is checked by :func:`validate_problem`, which collects every
    violation in a problem instead of failing on the first one.
    """

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    @property
    def is_white(self) -> bool:
        """True when the interval is a single point (no greyness)."""
        return self.lo == self.hi


def _as_interval(value) -> Interval:
    if isinstance(value, Interval):
        return value
    lo, hi = value
    return Interval(lo, hi)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _vector(values) -> np.ndarray:
    """``values`` as a new 1-D float array; anything else fails as
    ``float()`` fails on its entries."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = tuple(values)
    a = np.array(values, dtype=float)
    if a.ndim != 1:
        a = np.array([float(v) for v in values], dtype=float)
    return a


def _grid(rows) -> np.ndarray | list[np.ndarray]:
    """``rows`` as a new 2-D float array, or as a list of 1-D arrays when
    the rows differ in length."""
    if not isinstance(rows, (np.ndarray, list, tuple)):
        rows = tuple(rows)
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        a = None
    if a is not None and a.ndim == 2:
        return a
    vectors = [_vector(row) for row in rows]
    if len({len(v) for v in vectors}) > 1:
        return vectors
    return np.array(vectors, dtype=float).reshape(len(vectors), len(vectors[0]) if vectors else 0)


def _pairs(block) -> np.ndarray:
    """A block of intervals (``Interval`` objects or ``(lo, hi)`` pairs) as
    a k x 2 float array."""
    if not isinstance(block, (np.ndarray, list, tuple)):
        block = tuple(block)
    try:
        a = np.array(block, dtype=float)
    except (TypeError, ValueError):  # Interval objects, or pairs of mixed lengths
        a = None
    if a is None or a.ndim != 2 or a.shape[1] != 2:
        a = np.array([(iv.lo, iv.hi) for iv in map(_as_interval, block)], dtype=float)
    return a.reshape(-1, 2)


def _intervals(lo: np.ndarray, hi: np.ndarray) -> tuple[Interval, ...]:
    return tuple(map(Interval, lo.tolist(), hi.tolist()))


class _ArrayRecord:
    """Value equality over the arrays named in ``_arrays`` (NaN equals NaN,
    so a problem equals itself and its round trip)."""

    _arrays: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(getattr(self, k), getattr(other, k), equal_nan=True)
            for k in self._arrays
        )

    def __hash__(self):
        # Equal records have equal shapes; hashing values would have to map
        # -0.0 to 0.0 and every NaN to one NaN first.
        return hash(tuple(getattr(self, k).shape for k in self._arrays))


@dataclass(frozen=True, eq=False, init=False)
class GreyLP(_ArrayRecord):
    """A grey max-LP: maximize c(x)·x subject to A(x)·x <= b(x), x >= 0,
    with every coefficient an :class:`Interval`.

    ``GreyLP(objective, matrix, rhs)`` takes one entry per variable, an
    m-by-n grid (one row per constraint) and one entry per constraint;
    entries may be ``Interval`` objects or ``(lo, hi)`` pairs.  Like
    :class:`Interval`, construction does not validate; use
    :func:`validate_problem`.

    The bounds are stored as arrays: ``c_lo``/``c_hi`` (n), ``b_lo``/``b_hi``
    (m) and ``A_lo``/``A_hi`` (one row per matrix row).  A ragged matrix is
    padded with NaN to its longest row, and ``row_lengths`` keeps each
    row's own length.  ``objective``, ``matrix`` and ``rhs`` rebuild the
    :class:`Interval` tuples on each access.
    """

    c_lo: np.ndarray
    c_hi: np.ndarray
    A_lo: np.ndarray
    A_hi: np.ndarray
    b_lo: np.ndarray
    b_hi: np.ndarray
    row_lengths: np.ndarray

    _arrays = ("row_lengths", "c_lo", "c_hi", "A_lo", "A_hi", "b_lo", "b_hi")

    def __init__(self, objective, matrix, rhs):
        c = _pairs(objective)
        if not isinstance(matrix, (np.ndarray, list, tuple)):
            matrix = tuple(matrix)
        try:
            A = np.array(matrix, dtype=float)
        except (TypeError, ValueError):  # Interval objects, or a ragged matrix
            A = None
        if A is None or A.ndim != 3 or A.shape[2] != 2:
            rows = [_pairs(row) for row in matrix]
            A = np.full((len(rows), max(map(len, rows), default=0), 2), np.nan)
            for i, row in enumerate(rows):
                A[i, : len(row)] = row
            lengths = np.array([len(row) for row in rows], dtype=int)
        else:
            lengths = np.full(len(A), A.shape[1], dtype=int)
        b = _pairs(rhs)
        # The class is frozen; fields are set once, here.
        self.__dict__.update(
            (name, _frozen(np.ascontiguousarray(a)))
            for name, a in (
                ("c_lo", c[:, 0]), ("c_hi", c[:, 1]),
                ("A_lo", A[..., 0]), ("A_hi", A[..., 1]),
                ("b_lo", b[:, 0]), ("b_hi", b[:, 1]),
                ("row_lengths", lengths),
            )
        )

    def _real(self) -> np.ndarray:
        """Mask of the matrix entries that exist (False on the padding)."""
        return np.arange(self.A_lo.shape[1]) < self.row_lengths[:, None]

    @property
    def objective(self) -> tuple[Interval, ...]:
        return _intervals(self.c_lo, self.c_hi)

    @property
    def matrix(self) -> tuple[tuple[Interval, ...], ...]:
        return tuple(
            _intervals(lo[:k], hi[:k])
            for lo, hi, k in zip(self.A_lo, self.A_hi, self.row_lengths.tolist())
        )

    @property
    def rhs(self) -> tuple[Interval, ...]:
        return _intervals(self.b_lo, self.b_hi)

    @property
    def n(self) -> int:
        """Number of variables."""
        return len(self.c_lo)

    @property
    def m(self) -> int:
        """Number of constraints."""
        return len(self.b_lo)

    @property
    def is_white(self) -> bool:
        """True when every interval is a single point."""
        return bool(
            (self.c_lo == self.c_hi).all()
            and (self.b_lo == self.b_hi).all()
            and ((self.A_lo == self.A_hi) | ~self._real()).all()
        )


@dataclass(frozen=True, eq=False, init=False)
class PositionCoefficients(_ArrayRecord):
    """Whitening weights: one alpha per objective entry, one beta per
    right-hand side entry, and an m-by-n grid of gammas for the matrix.

    Every entry must lie in [0, 1]; out-of-range or non-finite entries raise
    :class:`DomainError` at construction.  Whether the dimensions match a
    particular problem is checked by :func:`build_positioned`.

    The weights are stored as ``alpha_array`` (n), ``beta_array`` (m) and
    ``gamma_array`` (m x n); ``alphas``, ``betas`` and ``gammas`` are their
    tuple views.
    """

    alpha_array: np.ndarray
    beta_array: np.ndarray
    gamma_array: np.ndarray

    _arrays = ("alpha_array", "beta_array", "gamma_array")

    def __init__(self, alphas, betas, gammas):
        alpha, beta, gamma = _vector(alphas), _vector(betas), _grid(gammas)
        ragged = isinstance(gamma, list)
        for name, values in (
            ("alphas", alpha),
            ("betas", beta),
            ("gammas", np.concatenate(gamma) if ragged else gamma.ravel()),
        ):
            bad = ~((values >= 0.0) & (values <= 1.0))  # also flags NaN
            if bad.any():
                v = float(values[bad.argmax()])
                raise DomainError(f"position coefficient in {name} must be in [0, 1], got {v}")
        if ragged:
            raise StructureError("gamma grid is ragged")
        self.__dict__.update(
            alpha_array=_frozen(alpha), beta_array=_frozen(beta), gamma_array=_frozen(gamma)
        )

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(self.alpha_array.tolist())

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(self.beta_array.tolist())

    @property
    def gammas(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.gamma_array.tolist()))


@dataclass(frozen=True, eq=False, init=False)
class WhiteLP(_ArrayRecord):
    """A concrete max-LP (c, A, b): maximize c·x subject to A·x <= b, x >= 0.

    Unlike the grey containers this type is strict: entries must be finite
    and the dimensions consistent, since a white problem is handed straight
    to the solver.  The numbers are stored as ``c_array`` (n), ``A_array``
    (m x n) and ``b_array`` (m); ``c``, ``A`` and ``b`` are their tuple
    views.
    """

    c_array: np.ndarray
    A_array: np.ndarray
    b_array: np.ndarray

    _arrays = ("c_array", "A_array", "b_array")

    def __init__(self, c, A, b):
        c, A, b = _vector(c), _grid(A), _vector(b)
        n, m = len(c), len(b)
        if n < 1 or m < 1:
            raise StructureError(f"need at least one variable and one constraint, got n={n}, m={m}")
        if isinstance(A, list) or A.shape != (m, n):
            raise StructureError(f"matrix must be {m}x{n}")
        for values in (c, b, A):
            bad = ~np.isfinite(values)
            if bad.any():
                raise DomainError(
                    f"non-finite entry {float(values.flat[bad.argmax()])} in white problem"
                )
        self.__dict__.update(c_array=_frozen(c), A_array=_frozen(A), b_array=_frozen(b))

    @property
    def c(self) -> tuple[float, ...]:
        return tuple(self.c_array.tolist())

    @property
    def A(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.A_array.tolist()))

    @property
    def b(self) -> tuple[float, ...]:
        return tuple(self.b_array.tolist())

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


def _whitened(t, lo, hi) -> np.ndarray:
    """The whitening formula ``t*hi + (1-t)*lo``, entry by entry (numpy
    broadcasting applies), so the array and scalar paths agree bit for bit.

    Raises :class:`DomainError` naming the first interval (in C order) that
    is not finite or has ``lo > hi``.  ``t`` is not checked.
    """
    lo, hi = np.asarray(lo), np.asarray(hi)
    ok = (lo <= hi) & (lo > -np.inf) & (hi < np.inf)  # also False for NaN
    if not ok.all():
        i = ok.argmin()
        raise DomainError(
            f"cannot whiten invalid interval [{float(lo.flat[i])}, {float(hi.flat[i])}]"
        )
    return t * hi + (1.0 - t) * lo


def whiten(iv: Interval, t: float) -> float:
    """White value of a grey parameter: ``t*hi + (1-t)*lo``.

    ``t=0`` selects the lower bound exactly and ``t=1`` the upper bound;
    every result lies in [lo, hi].
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"position coefficient must be in [0, 1], got {t}")
    iv = _as_interval(iv)
    return float(_whitened(t, iv.lo, iv.hi))


def build_positioned(p: GreyLP, k: PositionCoefficients) -> WhiteLP:
    """Whiten every grey parameter of ``p`` with the weights in ``k``,
    producing the positioned (white) program.

    Raises :class:`StructureError` when the coefficient block does not match
    the problem's dimensions, and :class:`DomainError` for an interval that
    cannot be whitened (the first one in objective, rhs, matrix order).
    """
    if len(k.alpha_array) != p.n:
        raise StructureError(f"expected {p.n} alphas, got {len(k.alpha_array)}")
    if len(k.beta_array) != p.m:
        raise StructureError(f"expected {p.m} betas, got {len(k.beta_array)}")
    rows, cols = k.gamma_array.shape
    if rows != p.m or (rows and cols != p.n):
        raise StructureError(f"expected a {p.m}x{p.n} gamma grid")
    c = _whitened(k.alpha_array, p.c_lo, p.c_hi)
    b = _whitened(k.beta_array, p.b_lo, p.b_hi)
    A_lo, A_hi = p.A_lo[: p.m, : p.n], p.A_hi[: p.m, : p.n]
    lengths = np.minimum(p.row_lengths[: p.m], p.n)
    if k.gamma_array.shape == A_lo.shape == (p.m, p.n) and (lengths == p.n).all():
        A = _whitened(k.gamma_array, A_lo, A_hi)
    else:  # too few or too short rows: whiten what is there; WhiteLP rejects the shape
        A = [
            _whitened(g[:w], lo[:w], hi[:w])
            for g, lo, hi, w in zip(k.gamma_array, A_lo, A_hi, lengths.tolist())
        ]
    return WhiteLP(c=c, A=A, b=b)


def uniform_coefficients(
    alpha: float, beta: float, gamma: float, m: int, n: int
) -> PositionCoefficients:
    """Coefficients with a single shared alpha, beta, and gamma.

    ``(1, 1, 0)`` selects the ideal endpoint (upper objective and rhs bounds,
    lower matrix bounds); ``(0, 0, 1)`` selects the critical endpoint.
    """
    if m < 1 or n < 1:
        raise StructureError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return PositionCoefficients(
        alphas=np.full(n, float(alpha)),
        betas=np.full(m, float(beta)),
        gammas=np.full((m, n), float(gamma)),
    )


def theta_coefficients(theta: float, m: int, n: int) -> PositionCoefficients:
    """Single-parameter whitening: alpha = beta = gamma = theta."""
    return uniform_coefficients(theta, theta, theta, m, n)


def _interval_violations(lo, hi, locations, real=None) -> list[Violation]:
    """The violations of the intervals ``[lo, hi]`` (arrays of one shape),
    in C order; ``locations(i)`` names flat entry ``i``, and entries where
    ``real`` is False are skipped."""
    ok = (lo >= 0.0) & (lo <= hi) & (hi < np.inf)  # False wherever a check fails
    if real is not None:
        ok |= ~real
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
    """Collect every invariant violation in ``p``.

    Checks interval ordering (lo <= hi), the nonnegativity assumption
    (lo >= 0), finiteness of all bounds, and dimension consistency.  Returns
    an empty list iff the problem is valid.  Violations are data, not
    exceptions, so a CLI user sees every data problem in one pass.
    """
    violations: list[Violation] = []
    n, m = p.n, p.m
    if n < 1:
        violations.append(Violation("objective", "dimension", "no variables"))
    if m < 1:
        violations.append(Violation("rhs", "dimension", "no constraints"))
    rows = len(p.row_lengths)
    if rows != m:
        violations.append(
            Violation("matrix", "dimension", f"{rows} matrix rows but {m} right-hand sides")
        )
    for i, length in enumerate(p.row_lengths.tolist()):
        if length != n:
            violations.append(
                Violation(
                    f"matrix[{i}]", "dimension", f"{length} entries but {n} objective coefficients"
                )
            )

    width = p.A_lo.shape[1]
    violations += _interval_violations(p.c_lo, p.c_hi, "objective[{}]".format)
    violations += _interval_violations(
        p.A_lo, p.A_hi, lambda i: "matrix[{}][{}]".format(*divmod(i, width)), p._real()
    )
    violations += _interval_violations(p.b_lo, p.b_hi, "rhs[{}]".format)
    return violations
