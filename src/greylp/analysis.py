"""Parameter sweeps, monotonicity verification, and report tables.

Sweeps explore uniform (alpha, beta, gamma) triples only: per-entry
coefficient sweeps are combinatorially explosive and uniform triples are
what decision makers actually compare.  Positioned optima are nondecreasing
in alpha and beta and nonincreasing in gamma; ``check_monotonicity``
verifies that ordering empirically on a grid, and every swept value must lie
between the critical and ideal bounds.

Every sweep goes through one kernel, ``solve_grid``.  Under uniform
whitening the matrix depends on gamma alone, the right-hand side on beta
alone and the objective on alpha alone, so the positioned programs of one
gamma slice share A and differ only in b and c.  A simplex basis S then
gives, from one factorisation of B = [A | I][:, S], the basic solution for
every beta of the slice and the dual vector for every alpha; the basis is
optimal on the rectangle of primal-feasible betas times dual-feasible
alphas (parametric programming, Gal 1995).  The kernel whitens every slice
once, keeps the optimal bases found so far, and certifies each of them
against the pending points of all slices at once, with one stacked
factorisation per slice.  It solves only the points no cached basis
certifies, slice by slice, each started from the latest cached basis that
is primal feasible there (so the simplex only pivots in phase 2).  A
sweep's first cached bases are those of its critical and ideal solves.

Tables render to CSV or Markdown with the presentation rounding used
throughout: optimal values to 2 decimals, degrees to 4.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .grey_core import (
    GreyLP,
    _whitened,
    build_positioned,
    uniform_coefficients,
)
from .lp_solver import SolveStatus, _certify, solve_max
from .satisfaction import _bounds, _validated, lambda_satisfactions, pleased_degrees

__all__ = [
    "SatisfactionRecord",
    "SweepTable",
    "MonotonicityReport",
    "GridSolution",
    "unit_grid",
    "solve_grid",
    "lambda_sweep",
    "grid_sweep",
    "check_monotonicity",
    "find_satisfactory",
    "render_table",
]

_log = logging.getLogger(__name__)

Triple = tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class SatisfactionRecord:
    """One sweep row: a uniform coefficient triple, its positioned optimal
    value, its pleased degree, and its lambda-satisfaction degrees.

    ``error`` marks rows whose positioned program could not be evaluated
    (e.g. unbounded); such rows carry no values.  ``mu`` alone may be None
    when the pleased degree is undefined (ideal value zero).
    """

    coefficients: Triple
    f: float | None
    mu: float | None
    mu_tilde: tuple[tuple[float, float], ...] = ()
    error: str | None = None

    def mu_tilde_at(self, lam: float) -> float:
        for key, value in self.mu_tilde:
            if key == lam:
                return value
        raise KeyError(f"no satisfaction degree stored for lam={lam}")


@dataclass(frozen=True, eq=False, init=False)
class SweepTable:
    """Sweep results stored column by column, plus the labels they render
    under.

    Row ``i`` is the uniform triple ``coefficients[i]`` with its positioned
    optimum ``f[i]``, pleased degree ``mu[i]`` and satisfaction degrees
    ``mu_tilde[i, j]`` at ``lambdas[j]``; NaN stands for a missing value
    (the record's None).  ``errors`` maps each row whose positioned program
    could not be evaluated to its marker (e.g. ``"unbounded"``); the values
    of such a row are NaN.

    A ``pivoted`` table renders one row per lambda and one column per row
    (the shape of a satisfaction-degree report); otherwise each row renders
    as one table row.  ``axis_labels`` is the header either way.

    ``SweepTable(axis_labels, rows, lambdas, pivoted)`` builds the columns
    from :class:`SatisfactionRecord` rows, and ``rows`` makes them again.
    """

    axis_labels: tuple[str, ...]
    lambdas: tuple[float, ...]
    coefficients: np.ndarray  # N x 3
    f: np.ndarray  # N
    mu: np.ndarray  # N
    mu_tilde: np.ndarray  # N x len(lambdas)
    errors: dict[int, str]
    pivoted: bool

    def __init__(self, axis_labels, rows=(), lambdas=(), pivoted=False):
        lambdas = tuple(lambdas)
        by_lam = [dict(r.mu_tilde) for r in rows]
        # The class is frozen; fields are set once, here and in _of_columns.
        self.__dict__.update(
            axis_labels=tuple(axis_labels),
            lambdas=lambdas,
            coefficients=np.array([r.coefficients for r in rows], dtype=float).reshape(-1, 3),
            f=np.array([np.nan if r.f is None else r.f for r in rows], dtype=float),
            mu=np.array([np.nan if r.mu is None else r.mu for r in rows], dtype=float),
            mu_tilde=np.array(
                [[d.get(lam, np.nan) for lam in lambdas] for d in by_lam], dtype=float
            ).reshape(len(rows), len(lambdas)),
            errors={i: r.error for i, r in enumerate(rows) if r.error is not None},
            pivoted=pivoted,
        )

    @classmethod
    def _of_columns(cls, **columns) -> SweepTable:
        table = object.__new__(cls)
        table.__dict__.update(columns)
        return table

    @property
    def rows(self) -> tuple[SatisfactionRecord, ...]:
        """One :class:`SatisfactionRecord` per row, built on each access."""
        out = []
        for i, (triple, f, mu, degrees) in enumerate(zip(
            self.coefficients.tolist(), self.f.tolist(), self.mu.tolist(), self.mu_tilde.tolist()
        )):
            error = self.errors.get(i)
            if error is not None:
                out.append(SatisfactionRecord(tuple(triple), None, None, error=error))
                continue
            mu_tilde = tuple((lam, d) for lam, d in zip(self.lambdas, degrees) if d == d)
            f, mu = (v if v == v else None for v in (f, mu))  # NaN is a missing value
            out.append(SatisfactionRecord(tuple(triple), f, mu, mu_tilde))
        return tuple(out)


@dataclass(frozen=True)
class MonotonicityReport:
    """Empirical check of the expected ordering of positioned optima along
    one coefficient axis, with every axis on the grid ``axis_values``.

    ``grid`` lists every probed pair of adjacent triples (built on each
    access; ``pair_count`` is its length), ``violations`` the pairs (with
    their two optimal values) whose ordering failed beyond tolerance, and
    ``skipped`` the pairs that could not be evaluated.  An empty violation
    list means the ordering held everywhere probed.
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

    @property
    def grid(self) -> tuple[tuple[Triple, Triple], ...]:
        return _probed_pairs(self.axis_values, _AXES[self.axis], range(self.pair_count))


@dataclass(frozen=True)
class GridSolution:
    """Solver outcome of each uniform triple passed to :func:`solve_grid`,
    in input order.

    ``objective[i]`` is the positioned optimal value of triple ``i`` when
    ``status[i]`` is OPTIMAL, and NaN otherwise.
    """

    status: tuple[SolveStatus, ...]
    objective: np.ndarray


def unit_grid(step: float) -> tuple[float, ...]:
    """Grid {0, step, 2*step, ...} over [0, 1], always including 1.

    Values are rounded to 10 decimals so grid points like 3*0.1 come out as
    exact presentation values (0.3, not 0.30000000000000004).
    """
    step = float(step)
    if not (0.0 < step <= 0.5):
        raise DomainError(f"grid step must be in (0, 0.5], got {step}")
    count = int(math.floor(1.0 / step + 1e-9))
    values = [round(k * step, 10) for k in range(count + 1)]
    if values[-1] < 1.0:
        values.append(1.0)
    return tuple(values)


def _points(triples) -> np.ndarray:
    """``triples`` as an N x 3 array of uniform coefficients; raises
    :class:`StructureError` for another shape and :class:`DomainError` for
    a coefficient outside [0, 1] (or NaN)."""
    pts = np.asarray(triples, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise StructureError("triples must be (alpha, beta, gamma) rows")
    bad = np.argwhere(~((pts >= 0.0) & (pts <= 1.0)))  # also catches NaN
    if len(bad):
        row, col = bad[0]
        name = ("alphas", "betas", "gammas")[col]
        raise DomainError(
            f"position coefficient in {name} must be in [0, 1], got {pts[row, col]}"
        )
    return pts


def solve_grid(p: GreyLP, triples) -> GridSolution:
    """Positioned optimum and solver status of every uniform triple
    ``(alpha, beta, gamma)`` in ``triples``.

    Results equal those of solving each triple on its own
    (``solve_max(build_positioned(p, uniform_coefficients(...)))``): the
    same status, and the optimal value up to rounding.  Every cached optimal
    basis is checked at all points still pending, over all gamma slices at
    once (see :func:`greylp.lp_solver._certify`).  Every point no basis
    certifies is solved, in gamma order and then input order, from the
    latest cached basis that is primal feasible there (cold if there is
    none), and its optimal basis joins the cache and is checked in turn.
    One INFO record on the ``greylp.analysis`` logger reports the points,
    cold and warm-started solves, certified points, distinct bases and
    non-optimal points.

    Raises :class:`ValidationError` for an invalid problem and
    :class:`DomainError` for a coefficient outside [0, 1] (or NaN), before
    anything is solved.
    """
    _validated(p)
    return _solve_grid(p, _points(triples))


def _by_slice(at: np.ndarray, v: np.ndarray, slices: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``v`` within each slice (``at`` gives each
    point's slice) as the rows of a table, ascending and padded with zeros,
    and each point's entry in the flattened table."""
    values, vi = np.unique(v, return_inverse=True)
    pairs, inverse = np.unique(at * len(values) + vi, return_inverse=True)
    slice_of, value_of = np.divmod(pairs, len(values))
    column = np.arange(len(pairs)) - np.searchsorted(slice_of, slice_of)
    table = np.zeros((slices, column.max(initial=-1) + 1))
    table[slice_of, column] = values[value_of]
    return table, (slice_of * table.shape[1] + column)[inverse]


def _solve_grid(p: GreyLP, pts: np.ndarray, bases=()) -> GridSolution:
    """:func:`solve_grid` of a validated problem and checked points, with
    ``bases`` (optimal bases of other whitenings of ``p``) as the first
    cached bases."""
    m, n = p.m, p.n

    status = [SolveStatus.OPTIMAL] * len(pts)  # every point not solved is certified
    values = np.full(len(pts), np.nan)
    cache: list[tuple[int, ...]] = []

    def cached(basis) -> bool:
        """Add ``basis`` to the cache unless it is there or holds a phase-1
        artificial; True if it was added."""
        key = tuple(sorted(basis))
        if key in cache or key[-1] >= n + m:
            return False
        cache.append(key)
        return True

    for basis in bases:
        cached(basis)
    # Every gamma slice's [A | I], and its distinct objectives and
    # right-hand sides, whitened once with build_positioned's formula, so
    # each entry matches a cold solve's bit for bit.  Point k lies in slice
    # at[k] and has objective ca[k] and right-hand side cb[k] of the
    # flattened per-slice tables.
    gammas, at = np.unique(pts[:, 2], return_inverse=True)
    G = len(gammas)
    alphas, ca = _by_slice(at, pts[:, 0], G)
    betas, cb = _by_slice(at, pts[:, 1], G)
    AI = np.concatenate(
        [_whitened(gammas[:, None, None], p.A_lo, p.A_hi), np.broadcast_to(np.eye(m), (G, m, m))],
        axis=2,
    )
    C = _whitened(alphas[..., None], p.c_lo, p.c_hi)
    CI = np.concatenate([C, np.zeros(C.shape[:2] + (m,))], axis=2)
    Bv = _whitened(betas[..., None], p.b_lo, p.b_hi)
    pending = np.ones(len(pts), dtype=bool)
    # Per point, the latest cached basis that is primal feasible there (-1
    # for none): a solve started from it only pivots in phase 2.
    feasible = np.full(len(pts), -1)

    def settle(which, first=0):
        """Certify ``cache[which]`` at every pending point, all of them in
        slice ``first`` or later."""
        rows = np.flatnonzero(pending)
        a, b = ca[rows], cb[rows]
        a -= first * alphas.shape[1]
        b -= first * betas.shape[1]
        ok, f, primal, _, _ = _certify(AI[first:], CI[first:], Bv[first:], cache[which], a, b)
        values[rows[ok]] = f[ok]
        pending[rows[ok]] = False
        feasible[rows[primal]] = which

    for which in range(len(cache)):
        if not pending.any():
            break
        settle(which)
    cold = warm = 0
    while pending.any():
        j = int(np.where(pending, at, G).argmin())  # the first point of the first slice left
        pending[j] = False
        alpha, beta, gamma = pts[j].tolist()
        lp = build_positioned(p, uniform_coefficients(alpha, beta, gamma, m, n))
        start = cache[feasible[j]] if feasible[j] >= 0 else None
        sol = solve_max(lp, start)
        if start is None:
            cold += 1
        else:
            warm += 1
        status[j] = sol.status
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        values[j] = sol.objective
        if cached(sol.basis):
            settle(len(cache) - 1, first=at[j])

    solved = cold + warm
    _log.info(
        "solve_grid: %d points, %d cold solves, %d warm starts, %d certified, %d bases, "
        "%d non-optimal",
        len(pts), cold, warm, len(pts) - solved, len(cache), int(np.isnan(values).sum()),
    )
    return GridSolution(status=tuple(status), objective=values)


def _cube(grid: tuple[float, ...]) -> np.ndarray:
    """Every triple of ``grid`` values as rows, in lexicographic order."""
    axes = np.meshgrid(grid, grid, grid, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


def _scored(
    p: GreyLP, pts: np.ndarray, labels: tuple[str, ...], lambdas, pivoted: bool
) -> SweepTable:
    """The sweep table of the triples ``pts``: each row's positioned optimum
    and degrees, scored a column at a time.  Solver trouble becomes a row's
    error marker so a sweep keeps going and partial reports stay useful."""
    _validated(p)
    vb, bases = _bounds(p)
    grid = _solve_grid(p, _points(pts), bases)
    f = grid.objective
    ok = ~np.isnan(f)
    mu = np.full(len(f), np.nan)
    mu[ok] = pleased_degrees(f[ok], vb)  # NaN where undefined (ideal value zero)
    mu_tilde = np.full((len(f), len(lambdas)), np.nan)
    for j, lam in enumerate(lambdas):
        mu_tilde[ok, j] = lambda_satisfactions(f[ok], vb, lam)
    errors = {i: str(grid.status[i]) for i in np.flatnonzero(~ok).tolist()}
    return SweepTable._of_columns(
        axis_labels=labels, lambdas=lambdas, coefficients=pts, f=f, mu=mu,
        mu_tilde=mu_tilde, errors=errors, pivoted=pivoted,
    )


def _triple_label(triple: Triple) -> str:
    return "mu_tilde(%g,%g,%g)" % triple


def lambda_sweep(p: GreyLP, settings, lambdas) -> SweepTable:
    """Satisfaction degrees of each uniform triple in ``settings`` across the
    ``lambdas`` grid.

    Rows are sorted lexicographically by triple.  The result renders
    pivoted: one row per lambda, one column per triple.
    """
    triples = sorted(tuple(float(v) for v in t) for t in settings)
    lambdas = tuple(float(v) for v in lambdas)
    labels = ("lambda",) + tuple(_triple_label(t) for t in triples)
    pts = np.array(triples, dtype=float).reshape(-1, 3)
    return _scored(p, pts, labels, lambdas, pivoted=True)


def grid_sweep(p: GreyLP, step: float, lambdas=()) -> SweepTable:
    """Positioned values and degrees for every uniform triple on the cubic
    grid with the given step, in lexicographic order.

    ``lambdas`` optionally adds a satisfaction-degree column per value.
    """
    grid = unit_grid(step)
    lambdas = tuple(float(v) for v in lambdas)
    labels = ("alpha", "beta", "gamma", "f", "mu") + tuple(
        "mu_tilde[%g]" % lam for lam in lambdas
    )
    return _scored(p, _cube(grid), labels, lambdas, pivoted=False)


_AXES = {"alpha": 0, "beta": 1, "gamma": 2}


def check_monotonicity(p: GreyLP, axis: str, step: float) -> MonotonicityReport:
    """Probe adjacent grid values along one coefficient axis, holding the
    other two axes on their own grid.

    Expected ordering: optima nondecreasing in alpha and beta, nonincreasing
    in gamma.  Adjacent pairs suffice: transitivity extends them to the
    whole grid.  Violations beyond ``1e-6 * scale`` are reported, where
    ``scale`` is the largest optimum probed (at least 1).
    """
    if axis not in _AXES:
        raise DomainError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    pos = _AXES[axis]
    direction = "nonincreasing" if axis == "gamma" else "nondecreasing"
    grid = unit_grid(step)
    g = len(grid)
    values = solve_grid(p, _cube(grid)).objective
    finite = values[~np.isnan(values)]
    scale = max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
    tol = 1e-6 * scale

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
    triples as an N x 3 array and their degrees as an array of N."""
    for name, v in (("mu0", mu0), ("lam", lam)):
        if not (0.0 <= float(v) <= 1.0):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    table = grid_sweep(p, step, lambdas=(float(lam),))
    degree = table.mu_tilde[:, 0]
    hits = np.flatnonzero(degree >= float(mu0))  # NaN on error rows compares False
    # Degrees are compared at 12 decimals, so that two equal up to solver
    # rounding tie; rows are in lexicographic order, so the row index breaks
    # ties by triple.
    hits = hits[np.lexsort((hits, -np.round(degree[hits], 12)))]
    return table.coefficients[hits], degree[hits]


# Rows are formatted this many at a time, which bounds the text held at once.
_CHUNK = 1024


def _coeff_texts(values: np.ndarray) -> np.ndarray:
    """``"%g" % v`` of every value, as an object array of the same shape;
    each distinct value is formatted once."""
    distinct, index = np.unique(values, return_inverse=True)
    texts = np.array(["%g" % v for v in distinct.tolist()], dtype=object)
    return texts[index].reshape(values.shape)


@functools.cache
def _degree_table() -> tuple[np.ndarray, np.ndarray]:
    """The text "%d.%04d" % divmod(q, 10000) of each 4-decimal code q of a
    degree in [0, 1], and which of them are filled in.  Codes are filled in
    as they come into use; the table is shared by the whole process, which
    is safe because each entry depends on its code alone."""
    return np.empty(10_001, dtype=object), np.zeros(10_001, dtype=bool)


def _degree_texts(values: np.ndarray) -> np.ndarray:
    """``"%.4f" % v`` of every value, as an object array of the same shape,
    looked up wherever that is provably the same text.

    A value v in [0, 1] takes the text of its code q = rint(v * 1e4).  The
    product is within 1.2e-12 of the exact v * 10^4, so q is the correctly
    rounded 4-decimal value, as "%.4f" prints it, unless the product lies
    within 1e-6 of a rounding tie.  Values near a tie, NaN, -0.0 and values
    outside [0, 1] are formatted one by one.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = values * 1e4
        exact = (values >= 0.0) & (values <= 1.0) & ~np.signbit(values)
        exact &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6
    codes = np.rint(scaled[exact]).astype(np.intp)
    table, known = _degree_table()
    fresh = np.zeros(len(table), dtype=bool)
    fresh[codes] = True
    fresh &= ~known
    for q in np.flatnonzero(fresh).tolist():
        table[q] = "%d.%04d" % divmod(q, 10000)
    known |= fresh
    texts = np.empty(values.shape, dtype=object)
    texts[exact] = table[codes]
    for i in np.flatnonzero(~exact).tolist():
        texts.flat[i] = "%.4f" % values.flat[i]
    return texts


def _cells(texts: list[str], values: np.ndarray, errors: dict[int, str], empty: str) -> list[str]:
    """``texts``, the formatted ``values``, with each NaN's replaced by
    ``empty`` and the text at each index of ``errors`` by its error
    marker."""
    for i in np.flatnonzero(np.isnan(values)).tolist():
        texts[i] = empty
    for i, marker in errors.items():
        texts[i] = marker
    return texts


def _body(t: SweepTable, empty: str, marker):
    """The table's rows after the header, each an iterable of cells, at
    most ``_CHUNK`` rows at a time.  A missing value renders as ``empty``
    and every value of an error row as ``marker(error)``."""
    errors = {i: marker(e) for i, e in t.errors.items()}
    if t.pivoted:
        yield [
            ("%g" % lam, *_cells(_degree_texts(row).tolist(), row, errors, empty))
            for lam, row in zip(t.lambdas, t.mu_tilde.T)
        ]
        return
    coeffs = _coeff_texts(t.coefficients)
    for start in range(0, len(t.f), _CHUNK):
        stop = start + _CHUNK
        errs = {i - start: m for i, m in errors.items() if start <= i < stop}
        f = t.f[start:stop]
        degrees = np.column_stack((t.mu[start:stop], t.mu_tilde[start:stop]))
        cells = coeffs[start:stop].T.tolist()
        cells.append(_cells(["%.2f" % v for v in f.tolist()], f, errs, empty))
        for values, texts in zip(degrees.T, _degree_texts(degrees).T):
            cells.append(_cells(texts.tolist(), values, errs, empty))
        yield zip(*cells)


def _csv_cell(text: str) -> str:
    """``text`` as the csv module writes it in a row of several cells
    (quoted only if it holds a comma, a quote or a line break)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


def render_table(t: SweepTable, format: str) -> str:
    """Render a sweep table to ``csv`` or ``markdown`` text.

    Deterministic: identical tables produce identical bytes.  Optimal values
    round to 2 decimals and degrees to 4; CSV output is comma-separated with
    LF line endings and one header row.
    """
    if format not in ("csv", "markdown"):
        raise DomainError(f"format must be 'csv' or 'markdown', got {format!r}")
    header = list(t.axis_labels)
    buf = io.StringIO()
    if format == "csv":
        # Numbers never need quoting, so only the header and the error
        # markers go through the csv module.
        csv.writer(buf, lineterminator="\n").writerow(header)
        lead, sep, end, empty, marker = "", ",", "\n", "", _csv_cell
    else:
        buf.write("| " + " | ".join(header) + " |\n")
        buf.write("| " + " | ".join("---" for _ in header) + " |\n")
        lead, sep, end, empty, marker = "| ", " | ", " |\n", "-", lambda e: e or "-"
    for chunk in _body(t, empty, marker):
        lines = list(map(sep.join, chunk))
        if lines:
            buf.write(lead + (end + lead).join(lines) + end)
    return buf.getvalue()
