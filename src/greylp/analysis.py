"""Parameter sweeps, monotonicity verification, and report tables.

Sweeps explore uniform (alpha, beta, gamma) triples only: per-entry
coefficient sweeps are combinatorially explosive and uniform triples are
what decision makers actually compare.  ``check_monotonicity`` verifies
the expected ordering of positioned optima empirically on a grid.

Every sweep is solved in one stacked-kernel call, as a grid cube or as
chosen settings; see :mod:`greylp.satisfaction` and :mod:`greylp.grey_core`.

Tables render to CSV or Markdown, optimal values and degrees to the
decimals ``_VALUE_DECIMALS`` and ``_DEGREE_DECIMALS``, through one row
formatter (``_format_rows``).  The ``sweep`` command writes each block of
its table as it is made (``_table_blocks``), as ``satisfactory`` writes its
hit lines, so the whole text is never held.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .grey_core import GreyLP, _STEP, _check_real, _cube_layout, _in_range, _number, _require_units
from .satisfaction import (
    ValueBounds, _bounded, _noise_tol, _satisfaction_rows, _solve_grid, _solve_with_bounds,
    lambda_satisfactions, pleased_degrees,
)

__all__ = [
    "SweepTable",
    "MonotonicityReport",
    "unit_grid",
    "lambda_sweep",
    "grid_sweep",
    "check_monotonicity",
    "find_satisfactory",
    "render_table",
]

Triple = tuple[float, float, float]


@dataclass(frozen=True, eq=False, init=False)
class SweepTable:
    """Sweep results stored column by column.

    Row ``i`` is the uniform triple ``coefficients[i]`` with its positioned
    optimum ``f[i]``, pleased degree ``mu[i]`` and satisfaction degrees
    ``mu_tilde[i, j]`` at ``lambdas[j]``.  Every optimum is finite: a sweep
    whose positioned program is unbounded anywhere raises instead (see
    :func:`greylp.satisfaction._bounded`).  A degree is NaN where it is
    undefined (``mu`` at ideal value zero) and renders as an empty cell.

    ``SweepTable(lambdas, coefficients, f, mu, mu_tilde)`` holds the given
    arrays.  A table of :func:`grid_sweep` holds its grid values instead of
    triples, and its rows are the cube's (see :mod:`greylp.grey_core`).
    """

    lambdas: tuple[float, ...]
    f: np.ndarray  # N
    mu: np.ndarray  # N
    mu_tilde: np.ndarray  # N x len(lambdas)
    _grid: tuple[float, ...] | None  # the grid values of a grid table

    def __init__(self, lambdas, coefficients, f, mu, mu_tilde):
        # The class is frozen; fields are set once, here.
        self.__dict__.update(
            lambdas=lambdas, coefficients=coefficients, f=f, mu=mu, mu_tilde=mu_tilde, _grid=None
        )

    @classmethod
    def _of_grid(cls, grid, lambdas, f, mu, mu_tilde) -> SweepTable:
        """The table of every triple of ``grid`` values, in lexicographic
        order, with these columns."""
        t = object.__new__(cls)
        t.__dict__.update(lambdas=lambdas, f=f, mu=mu, mu_tilde=mu_tilde, _grid=grid)
        return t

    @functools.cached_property
    def coefficients(self) -> np.ndarray:
        """The triples of the rows (N x 3), built on first access for a grid
        table."""
        return _cube_rows(self._grid, np.arange(len(self._grid) ** 3))


@dataclass(frozen=True)
class MonotonicityReport:
    """Empirical check of the expected ordering of positioned optima along
    one coefficient axis, with every axis on the grid ``axis_values``.

    ``pair_count`` is the number of probed pairs of adjacent triples,
    ``violations`` the pairs (with their two optimal values) whose ordering
    failed beyond tolerance, and ``skipped`` the pairs that could not be
    evaluated.  An empty violation list means the ordering held everywhere
    probed.
    """

    axis: str
    direction: str  # nondecreasing | nonincreasing
    axis_values: tuple[float, ...]
    violations: tuple[tuple[tuple[Triple, Triple], tuple[float, float]], ...]
    skipped: tuple[tuple[Triple, Triple], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def pair_count(self) -> int:
        g = len(self.axis_values)
        return g * g * (g - 1)


def unit_grid(step: float) -> tuple[float, ...]:
    """Grid {0, step, 2*step, ...} over [0, 1], always including 1.

    Values are rounded to 10 decimals so grid points like 3*0.1 come out as
    exact presentation values (0.3, not 0.30000000000000004), and a last
    value that rounds past 1 is taken as 1, so the grid rises strictly from
    0.0 to 1.0.

    Raises :class:`DomainError` for a step that is not a number in
    (0, 0.5], and :class:`MemoryError`, before the grid is built, for a
    step so fine that the cube the grid commands solve has more bytes than
    an array index can count: they hold at least two cube-sized arrays of
    8-byte numbers (the kernel's values and the optima in row order), 16
    bytes per grid point.  A coarser step passes, and the grid commands
    then need roughly 100 bytes per grid point in all.  numpy raises
    :class:`MemoryError` only when it is refused an allocation; under
    Linux memory overcommit an allocation past the machine's memory can
    succeed, and the OS later kills the process instead.
    """
    step = _in_range(step, "grid step", _STEP)
    limit = np.iinfo(np.intp).max
    inverse = 1.0 / step  # inf for the smallest subnormal steps
    count = int(math.floor(inverse + 1e-9)) if inverse < limit else limit
    size = count + 1 + (round(count * step, 10) < 1.0)
    if 16 * size**3 > limit:
        raise MemoryError(
            f"grid step {step:g} is too fine: its cube of grid triples needs more than "
            f"{limit} bytes"
        )
    values = [round(k * step, 10) for k in range(count + 1)]
    # A step a hair above 1/count puts count * step just past 1.
    values[-1] = min(values[-1], 1.0)
    if len(values) < size:
        values.append(1.0)
    return tuple(values)


def _points(triples) -> np.ndarray:
    """``triples`` as an N x 3 array of uniform coefficients; raises
    :class:`StructureError` for another shape or an entry that is not a
    real number (see :func:`greylp.grey_core._check_real`), and
    :class:`DomainError` for the first coefficient outside [0, 1] (or
    NaN)."""
    try:
        _check_real(triples, 2, "triples")
        try:
            pts = np.asarray(triples, dtype=float)
        except OverflowError:  # an integer past float range, read as an infinity
            pts = np.array([[_number(v, "triples") for v in row] for row in triples])
    except (TypeError, ValueError):  # ragged rows, or entries that are not real numbers
        raise StructureError("triples must be (alpha, beta, gamma) rows") from None
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise StructureError("triples must be (alpha, beta, gamma) rows")
    _require_units(pts, ("alphas", "betas", "gammas"))
    return pts


def _cube_rows(grid: tuple[float, ...], index) -> np.ndarray:
    """The triples of ``grid`` values at the flat positions ``index`` of
    their cube, whose rows are every triple in lexicographic order."""
    g = len(grid)
    return np.asarray(grid).take(np.stack(np.unravel_index(index, (g, g, g)), axis=-1))


def _solve_cube(p: GreyLP, grid: tuple[float, ...]) -> tuple[np.ndarray, ValueBounds]:
    """The positioned optimum of ``p`` at every triple of the cube of
    ``grid`` values, in lexicographic order, and the bounds, from
    one kernel call; raises as :func:`greylp.satisfaction._bounded`."""
    f = _solve_grid(p, _cube_layout(grid))
    # The cube holds both bounds: row g - 1 is (0, 0, 1), row g**3 - g is (1, 1, 0).
    g = len(grid)
    return f, _bounded(f, f[g - 1], f[g**3 - g], functools.partial(_cube_rows, grid))


def _scored(
    f: np.ndarray, vb: ValueBounds, lambdas: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns (f, mu, mu_tilde) of a sweep table of the finite
    positioned optima ``f`` with the bounds ``vb``: each row's degrees at
    each of the checked ``lambdas``, the optima clamped once for all of
    them."""
    mu = pleased_degrees(f, vb)  # NaN where undefined (ideal value zero)
    return f, mu, _satisfaction_rows(f, vb, lambdas).T


def lambda_sweep(p: GreyLP, settings, lambdas) -> SweepTable:
    """Positioned values and degrees of each uniform triple in ``settings``,
    with a satisfaction-degree column per value of ``lambdas``, in
    lexicographic order: the table :func:`grid_sweep` gives for a cube.

    It is meant for a few chosen settings: each one is whitened as a slice
    of its own, so a grid of settings belongs with :func:`grid_sweep`.
    A bad lambda raises :class:`DomainError` before anything is solved.
    """
    pts = _points(list(settings))
    lambdas = tuple(_in_range(v, "lam") for v in lambdas)
    pts = pts[np.lexsort(pts.T[::-1])]
    return SweepTable(lambdas, pts, *_scored(*_solve_with_bounds(p, pts), lambdas))


def grid_sweep(p: GreyLP, step: float, lambdas=()) -> SweepTable:
    """Positioned values and degrees for every uniform triple on the cubic
    grid with the given step, in lexicographic order.

    ``lambdas`` optionally adds a satisfaction-degree column per value; a
    bad lambda raises :class:`DomainError` before anything is solved.
    """
    grid = unit_grid(step)
    lambdas = tuple(_in_range(v, "lam") for v in lambdas)  # before the cube is built
    return SweepTable._of_grid(grid, lambdas, *_scored(*_solve_cube(p, grid), lambdas))


_AXES = {"alpha": 0, "beta": 1, "gamma": 2}


def check_monotonicity(p: GreyLP, axis: str, step: float) -> MonotonicityReport:
    """Probe adjacent grid values along one coefficient axis, holding the
    other two axes on their own grid.

    Expected ordering: optima nondecreasing in alpha and beta, nonincreasing
    in gamma.  Adjacent pairs suffice: transitivity extends them to the
    whole grid.  Violations beyond the solver noise of the largest optimum
    probed (:func:`greylp.satisfaction._noise_tol`) are reported.
    """
    if axis not in _AXES:
        raise DomainError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    pos = _AXES[axis]
    direction = "nonincreasing" if axis == "gamma" else "nondecreasing"
    grid = unit_grid(step)
    g = len(grid)
    values = _solve_grid(p, _cube_layout(grid))
    tol = _noise_tol(float(np.fmax.reduce(np.abs(values), initial=0.0)))  # fmax skips NaN

    # Pairs in the order (other two axes, then the probed one): with the
    # probed axis moved last, that is the C order of the cube.
    cube = np.moveaxis(values.reshape(g, g, g), pos, -1)
    f_lo, f_hi = cube[..., :-1].ravel(), cube[..., 1:].ravel()
    gap = f_hi - f_lo if direction == "nondecreasing" else f_lo - f_hi
    violated = np.flatnonzero(gap < -tol)  # NaN gaps compare False
    skipped = np.flatnonzero(np.isnan(f_lo) | np.isnan(f_hi))
    return MonotonicityReport(
        axis=axis,
        direction=direction,
        axis_values=grid,
        violations=tuple(zip(
            _probed_pairs(grid, pos, violated),
            zip(f_lo[violated].tolist(), f_hi[violated].tolist()),
        )),
        skipped=_probed_pairs(grid, pos, skipped),
    )


def _probed_pairs(grid, pos: int, index) -> tuple[tuple[Triple, Triple], ...]:
    """The probed pairs at the flat positions ``index``: pair ``i`` holds
    the other two axes at ``grid[a]``, ``grid[b]`` and the probed axis (at
    ``pos``) at ``grid[k]`` and ``grid[k + 1]``, where (a, b, k) is ``i``
    unravelled over shape (g, g, g - 1)."""
    g = len(grid)
    out = []
    for a, b, k in zip(*(axis.tolist() for axis in np.unravel_index(index, (g, g, g - 1)))):
        fixed = (grid[a], grid[b])
        out.append((
            fixed[:pos] + (grid[k],) + fixed[pos:],
            fixed[:pos] + (grid[k + 1],) + fixed[pos:],
        ))
    return tuple(out)


def find_satisfactory(
    p: GreyLP, mu0: float, lam: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """All uniform grid triples whose satisfaction degree at ``lam`` reaches
    the grey target ``mu0``, best first (ties in lexicographic order): the
    triples as an N x 3 array and their degrees as an array of N.

    The cube is solved as :func:`grid_sweep` solves it, but only the
    satisfaction degree at ``lam`` is scored, and only the hits' triples
    are built.
    """
    grid, hits, degrees = _satisfactory_hits(p, mu0, lam, step)
    return _cube_rows(grid, hits), degrees


def _satisfactory_hits(p: GreyLP, mu0: float, lam: float, step: float):
    """:func:`find_satisfactory`'s hits as (grid, hits, degrees): the grid
    values, each hit's flat index into the cube of them, and its degree."""
    mu0, lam = _in_range(mu0, "mu0"), _in_range(lam, "lam")
    grid = unit_grid(step)
    degree = lambda_satisfactions(*_solve_cube(p, grid), lam)
    hits = np.flatnonzero(degree >= mu0)
    # Degrees are compared at 12 decimals, so that two equal up to solver
    # rounding tie; the cube is in lexicographic order, so the flat index
    # breaks ties by triple.
    hits = hits[np.lexsort((hits, -np.round(degree[hits], 12)))]
    return grid, hits, degree[hits]


# Rows are rendered this many at a time, which bounds the bytes held at once.
_BLOCK = 1024

# The decimals of the optimal values and the degrees that every command prints.
_VALUE_DECIMALS, _DEGREE_DECIMALS = 2, 4

# Why _format_rows may write v from q = rint(v * 10**d) while 0 <= v <
# 10**(12 - d): x = v * 10**d is then below 2**52, where every rounding tie
# k + 0.5 is a double, and rounding x to the nearest double keeps its order
# with each tie, so q is correct unless the rounded x is a tie itself.
_DIGITS = 12
_POWERS = 10.0 ** np.arange(1, _DIGITS + 1)


# _TAIL[z] keeps all but the first z bytes of a word.  _UNITS[z] keeps the
# first three bytes but the first z, where a value's last three whole digits
# go, and _POINT is the point after them.
_TAIL = np.frombuffer(b"".join(bytes(z) + b"\xff" * (4 - z) for z in range(5)), dtype=np.uint32)
_UNITS = np.frombuffer(
    b"".join(bytes(z) + b"\xff" * (3 - z) + b"\0" for z in range(3)), dtype=np.uint32
)
_POINT = np.frombuffer(b"\0\0\0.", dtype=np.uint32)[0]


@functools.cache
def _digit_groups() -> np.ndarray:
    """The text "%04d" % g of each digit group g in 0..9999, its four ASCII
    bytes read as one uint32.  Built on first use."""
    numerals = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.meshgrid(*[numerals] * 4, indexing="ij", copy=False)  # views
    digits = np.stack(groups, axis=-1)
    table = digits.reshape(10_000, 4).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _padded(raw: bytes, words: int = 0) -> bytes:
    """``raw`` NUL-padded to whole 4-byte words, at least ``words`` of them."""
    return raw.ljust(4 * max(words, -(-len(raw) // 4)), b"\0")


def _text_table(texts) -> np.ndarray:
    """The byte strings ``texts`` as a table of NUL-padded words, a row per
    text."""
    width = -(-max(map(len, texts), default=0) // 4)
    table = np.frombuffer(b"".join(_padded(text, width) for text in texts), dtype=np.uint32)
    return table.reshape(len(texts), width)


def _grid_cells(grid, flat=None):
    """The coefficient cells of rows of the cube of ``grid`` values, as
    :func:`_format_rows` takes them: the table of the grid values' "%g"
    texts, and a function giving the grid indices (a, b, c) of the cube's
    rows ``flat[start:stop]`` (rows start to stop if ``flat`` is None),
    unravelled from the row numbers (see :mod:`greylp.grey_core`), so
    nothing is sorted or searched."""
    shape = (len(grid),) * 3

    def index(start, stop):
        rows = np.arange(start, stop) if flat is None else flat[start:stop]
        return np.array(np.unravel_index(rows, shape))

    return _text_table([b"%g" % v for v in grid]), index


def _row_cells(coefficients):
    """The coefficient cells of the rows of ``coefficients`` (N x c), as
    :func:`_format_rows` takes them: a table of the "%g" text of every
    cell, row by row, so cell (r, i) is its row r * c + i, and a function
    giving those table rows for rows start to stop.  For a table that is
    not a grid's: ``lambda_sweep``'s, or one built by hand (no command
    renders one)."""
    c = coefficients.shape[1]

    def index(start, stop):
        return np.arange(start * c, stop * c).reshape(stop - start, c).T

    return _text_table([b"%g" % v for v in coefficients.ravel().tolist()]), index


def _format_rows(cells, columns, decimals, empty, seps):
    """The text of the rows of a table (:func:`_table_blocks`) or of the
    ``satisfactory`` command's hit lines, yielded ``_BLOCK`` rows at a time,
    one line per row: ``seps[0]``, then the text of each of the row's c
    coefficient cells and the "%.*f" text of each of its values in
    ``columns`` (arrays of N or N x j values, side by side) with that
    column's ``decimals`` (at most 4), or its ``empty`` text where the value
    is NaN, each cell followed by the next of ``seps``.  The ``cells`` are
    (table, index), as :func:`_grid_cells` and :func:`_row_cells` make them:
    the texts as a table of words with a row per text, and a function giving
    the table row of each cell of rows start to stop (c x R).

    Each block is written, with no Python object per cell, as a matrix of
    4-byte words, a row of words per line, whose unused bytes are NUL and
    are dropped when the block is decoded.  The matrix is filled transposed,
    so that a word of one cell in every line is one contiguous run, and
    separators are constant words.  A value v with 0 <= v < 10**(12 - d)
    whose product v * 10**d does not round to a tie k + 0.5 has the text of
    q = rint(v * 10**d), the correctly rounded d-decimal value that "%.*f"
    prints (see ``_DIGITS``): its whole and fractional digits are taken from
    :func:`_digit_groups` (the last three whole digits with the point, the
    others four at a time), with leading zeros masked to NUL.  Any other
    value (NaN, -0.0, a negative or infinite value, one past the limit or
    one whose product rounds to a tie) is formatted on its own and written
    into its line; a text wider than its column widens that column's cells
    in its block.
    """
    table, index = cells
    seps = [_padded(sep.encode("ascii")) for sep in seps]
    layouts = {}
    rows = len(columns[0])
    for start in range(0, rows, _BLOCK):
        stop = min(start + _BLOCK, rows)
        yield _block_text(
            table, index(start, stop),
            *_value_words([column[start:stop] for column in columns], decimals, empty),
            seps, layouts,
        )


def _block_text(table, index, words, sizes, fallback, seps, layouts) -> str:
    """The text of one block of rows of :func:`_format_rows`: row r's
    coefficient i has the text ``table[index[i, r]]`` (c x R), and its
    values the words of :func:`_value_words`.  ``seps`` are padded to
    words, and ``layouts`` keeps the word columns of each width of the
    value cells met so far."""
    c, n = index.shape
    width = table.shape[1]
    cells = list(sizes)
    for (j, _), text in fallback.items():
        cells[j] = max(cells[j], len(text))
    cells = tuple(cells)
    if cells not in layouts:
        parts = [seps[0]]
        for sep in seps[1 : 1 + c]:
            parts += [bytes(4 * width), sep]
        for cell, sep in zip(cells, seps[1 + c :]):
            parts += [bytes(4 * cell), sep]
        starts = list(itertools.accumulate((len(part) // 4 for part in parts), initial=0))
        # The constant words, the first word of each coefficient cell, and
        # the word after each value cell.
        layouts[cells] = (np.frombuffer(b"".join(parts), dtype=np.uint32)[:, None],
                          starts[1 : 2 * c : 2], starts[2 + 2 * c :: 2])
    template, coef_at, ends = layouts[cells]
    lines = np.empty((len(template), n), dtype=np.uint32)
    lines[:] = template
    for w in range(width):
        lines[[at + w for at in coef_at]] = table[:, w].take(index)
    for i, word in enumerate(words):
        lines[[ends[j] - 1 - i for j, size in enumerate(sizes) if size > i]] = word
    for (j, r), text in fallback.items():
        lines[ends[j] - cells[j] : ends[j], r] = 0
        lines[ends[j] - cells[j] : ends[j] - cells[j] + len(text), r] = text
    return lines.T.tobytes().translate(None, b"\0").decode("ascii")


def _value_words(columns, decimals, empty):
    """The words of the value cells of a block of R rows: the k columns of
    values side by side in ``columns``, as :func:`_format_rows` takes them.

    Returns (words, sizes, fallback).  ``words[i]`` is the i-th word from
    the end of each cell, the fraction's digits first (see
    :func:`_format_rows`); column j's cells are its last ``sizes[j]``
    words, so ``words[i]`` has a row of R words for each column j with
    ``sizes[j] > i`` (k rows for i < 2).  ``fallback`` maps (j, r) to the
    words of each value formatted on its own, whose words in ``words`` are
    meaningless.
    """
    values = np.empty((len(decimals), len(columns[0])))  # k x R
    np.concatenate([np.atleast_2d(column.T) for column in columns], out=values)
    d = np.array(decimals)[:, None]
    unit = 10.0 ** d
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = values * unit
        q = np.rint(scaled)
        # The unsigned view is below the limit's for 0.0 <= v < limit alone:
        # not for -0.0, a negative, an infinity or NaN.
        exact = values.view(np.uint64) < (10.0 ** (_DIGITS - d)).view(np.uint64)
        scaled -= q
        exact &= np.abs(scaled, out=scaled) < 0.5  # not a tie
    fallback = {}
    if not exact.all():
        for j, r in zip(*np.nonzero(~exact)):
            v = values[j, r]
            text = empty[j] if v != v else "%.*f" % (decimals[j], v)
            fallback[j, r] = np.frombuffer(_padded(text.encode("ascii")), dtype=np.uint32)
        q[~exact] = 0.0
    whole = np.floor(np.divide(q, unit, out=scaled), out=scaled)
    q -= whole * unit
    digits = _digit_groups()
    words = [digits.take(q.astype(np.intp))]
    words[0] &= _TAIL[4 - d]  # the last d digits of the group
    # The number of whole digits (at least one) of each value, the same for
    # a whole column unless its least and greatest whole parts differ in it.
    low, high = np.searchsorted(_POWERS, [whole.min(axis=1), whole.max(axis=1)], "right") + 1
    size = high[:, None]
    vary = low != high
    if vary.any():
        size = np.repeat(size, values.shape[1], axis=1)
        size[vary] = np.searchsorted(_POWERS, whole[vary], "right") + 1
    groups = 1 + high // 4
    top = groups.max()
    for g in range(top):
        # Word 0 holds the last three whole digits, word g > 0 the four
        # before those of word g - 1, for the columns with a g-th group.
        if g == 0:
            part, ndigits = whole, size
        else:
            has = groups > g
            part, ndigits = np.floor(whole[has] / 10.0 ** (4 * g - 1)), size[has]
        if g + 1 < top:
            span = 1e3 if g == 0 else 1e4
            part = part - np.floor(part / span) * span
        if g == 0:
            word = digits.take((part * 10).astype(np.intp))  # the three digits, then a 0
            word &= _UNITS.take(3 - ndigits, mode="clip")
            word |= _POINT
        else:
            word = digits.take(part.astype(np.intp))
            word &= _TAIL.take(4 * g + 3 - ndigits, mode="clip")
        words.append(word)
    return words, (groups + 1).tolist(), fallback


def render_table(t: SweepTable, format: str) -> str:
    """Render a sweep table to ``csv`` or ``markdown`` text.

    Deterministic: identical tables produce identical bytes.  One row per
    triple under the header ``alpha, beta, gamma, f, mu`` and one
    ``mu_tilde[<lambda>]`` per lambda.  Optimal values round to 2 decimals
    and degrees to 4; CSV output is comma-separated with LF line endings
    and one header row.
    """
    return "".join(_table_blocks(t, format))


def _table_blocks(t: SweepTable, format: str):
    """:func:`render_table`'s text in blocks, the header first, each made as
    it is asked for, so the ``sweep`` command writes each one before the
    next is made.  A bad ``format`` raises at the call."""
    if format not in ("csv", "markdown"):
        raise DomainError(f"format must be 'csv' or 'markdown', got {format!r}")
    header = ["alpha", "beta", "gamma", "f", "mu"] + ["mu_tilde[%g]" % lam for lam in t.lambdas]
    if format == "csv":
        # No cell needs quoting: the header cells are fixed names and
        # "mu_tilde[%g]" of a lambda in [0, 1], and the rest are numbers.
        head = ",".join(header) + "\n"
        lead, sep, end, empty = "", ",", "\n", ""
    else:
        head = "| " + " | ".join(header) + " |\n| " + " | ".join("---" for _ in header) + " |\n"
        lead, sep, end, empty = "| ", " | ", " |\n", "-"
    k = 1 + len(t.lambdas)
    cells = _row_cells(t.coefficients) if t._grid is None else _grid_cells(t._grid)
    return itertools.chain((head,), _format_rows(
        cells, (t.f, t.mu, t.mu_tilde), [_VALUE_DECIMALS] + [_DEGREE_DECIMALS] * k,
        ["nan"] + [empty] * k, [lead] + [sep] * (len(header) - 1) + [end],
    ))
