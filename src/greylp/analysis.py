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
alphas (parametric programming, Gal 1995).  The kernel keeps the optimal
bases found so far, certifies each slice's points against them, and solves
only the points no cached basis certifies with the cold simplex.

Tables render to CSV or Markdown with the presentation rounding used
throughout: optimal values to 2 decimals, degrees to 4.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, ValidationError
from .grey_core import (
    GreyLP,
    _whitened,
    build_positioned,
    uniform_coefficients,
    validate_problem,
)
from .lp_solver import _TOL_FEAS, _TOL_PIVOT, SolveStatus, solve_max
from .satisfaction import bounds, lambda_satisfactions, pleased_degrees

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

    ``axis_labels`` doubles as the rendering schema: a first label of
    ``"lambda"`` marks a table that renders pivoted, one row per lambda and
    one column per row (the shape of a satisfaction-degree report);
    otherwise each row renders as one table row.

    ``SweepTable(axis_labels, rows, lambdas)`` builds the columns from
    :class:`SatisfactionRecord` rows, and ``rows`` makes them again.
    """

    axis_labels: tuple[str, ...]
    lambdas: tuple[float, ...]
    coefficients: np.ndarray  # N x 3
    f: np.ndarray  # N
    mu: np.ndarray  # N
    mu_tilde: np.ndarray  # N x len(lambdas)
    errors: dict[int, str]

    def __init__(self, axis_labels, rows=(), lambdas=()):
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


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for the body (also usable as a
    decorator); an outer pause is left as it was.

    A sweep builds tens of thousands of acyclic row objects.  Each
    collection they trigger finds nothing to free, and costs time in
    proportion to everything alive in the process, so with the collector
    running, the same sweep took a different time from one call to the next.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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


def _validated(p: GreyLP) -> None:
    violations = validate_problem(p)
    if violations:
        raise ValidationError(violations)


def _certify(AI, CI, Bv, basis, ai, bi):
    """Which points (alpha ``ai[k]``, beta ``bi[k]``) of one gamma slice
    ``basis`` proves optimal, and their objective values.

    ``AI`` is [A | I] at the slice's gamma, ``CI`` one whitened objective per
    alpha (zero-padded over the slacks), ``Bv`` one right-hand side per beta.
    A point is certified only if it passes the solver's own tests: basic
    values >= -tol, reduced costs <= tol, the post-check A.x <= b + feas
    tol, and a duality gap |c.x - y.b| <= tol * max(1, |f|).  Returns
    (mask over k, f over k); f is meaningful only where the mask is set.
    """
    m, width = AI.shape
    n = width - m
    S = np.asarray(basis)
    B = AI[:, S]
    try:
        xB = np.linalg.solve(B, Bv.T)  # m x betas
        Y = np.linalg.solve(B.T, CI[:, S].T)  # m x alphas
    except np.linalg.LinAlgError:  # the basis is singular at this gamma
        return np.zeros(len(ai), dtype=bool), np.zeros(len(ai))
    with np.errstate(invalid="ignore", over="ignore"):
        xs = np.zeros((n, len(Bv)))
        structural = S < n
        xs[S[structural]] = xB[structural]
        xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0  # solve_max's snap
        primal = (xB >= -_TOL_PIVOT).all(axis=0)
        primal &= (Bv.T - AI[:, :n] @ xs >= -_TOL_FEAS).all(axis=0)
        nonbasic = np.ones(width, dtype=bool)
        nonbasic[S] = False
        reduced = CI.T[nonbasic] - AI[:, nonbasic].T @ Y
        dual = (reduced <= _TOL_PIVOT).all(axis=0)
        ok = primal[bi] & dual[ai]
        f = np.einsum("ij,ji->i", CI[ai, :n], xs[:, bi])
        yb = np.einsum("ji,ij->i", Y[:, ai], Bv[bi])
        ok &= np.abs(f - yb) <= _TOL_PIVOT * np.maximum(1.0, np.abs(f))
    return ok, f


def solve_grid(p: GreyLP, triples) -> GridSolution:
    """Positioned optimum and solver status of every uniform triple
    ``(alpha, beta, gamma)`` in ``triples``.

    Results equal those of solving each triple on its own
    (``solve_max(build_positioned(p, uniform_coefficients(...)))``): the
    same status, and the optimal value up to rounding.  Triples are grouped
    by gamma; each group is first checked against the optimal bases cached
    so far (see :func:`_certify`), and every point no basis certifies is
    solved cold, adding its optimal basis to the cache.  One INFO record on
    the ``greylp.analysis`` logger reports the points, cold solves,
    certified points, distinct bases and non-optimal points.

    Raises :class:`ValidationError` for an invalid problem and
    :class:`DomainError` for a coefficient outside [0, 1] (or NaN), before
    anything is solved.
    """
    _validated(p)
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

    m, n = p.m, p.n

    status = [SolveStatus.OPTIMAL] * len(pts)  # every point not solved cold is certified
    values = np.full(len(pts), np.nan)
    bases: list[tuple[int, ...]] = []
    cold = 0
    gammas, slice_of = np.unique(pts[:, 2], return_inverse=True)
    for k, gamma in enumerate(gammas):
        idx = np.flatnonzero(slice_of == k)
        alphas, ai = np.unique(pts[idx, 0], return_inverse=True)
        betas, bi = np.unique(pts[idx, 1], return_inverse=True)
        # build_positioned's formula, so each entry matches a cold solve's bit for bit.
        AI = np.hstack([_whitened(gamma, p.A_lo, p.A_hi), np.eye(m)])
        CI = np.hstack([_whitened(alphas[:, None], p.c_lo, p.c_hi), np.zeros((len(alphas), m))])
        Bv = _whitened(betas[:, None], p.b_lo, p.b_hi)
        pending = np.ones(len(idx), dtype=bool)

        def settle(basis):
            rows = np.flatnonzero(pending)
            ok, f = _certify(AI, CI, Bv, basis, ai[rows], bi[rows])
            values[idx[rows[ok]]] = f[ok]
            pending[rows[ok]] = False

        for basis in bases:
            if not pending.any():
                break
            settle(basis)
        while pending.any():
            j = int(np.argmax(pending))
            pending[j] = False
            alpha, beta, g = pts[idx[j]].tolist()
            sol = solve_max(build_positioned(p, uniform_coefficients(alpha, beta, g, m, n)))
            cold += 1
            status[idx[j]] = sol.status
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            values[idx[j]] = sol.objective
            key = tuple(sorted(sol.basis))
            if key not in bases and key[-1] < n + m:  # no phase-1 artificials
                bases.append(key)
                settle(key)

    _log.info(
        "solve_grid: %d points, %d cold solves, %d certified, %d bases, %d non-optimal",
        len(pts), cold, len(pts) - cold, len(bases), int(np.isnan(values).sum()),
    )
    return GridSolution(status=tuple(status), objective=values)


def _cube(grid: tuple[float, ...]) -> np.ndarray:
    """Every triple of ``grid`` values as rows, in lexicographic order."""
    axes = np.meshgrid(grid, grid, grid, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


def _scored(p: GreyLP, pts: np.ndarray, labels: tuple[str, ...], lambdas) -> SweepTable:
    """The sweep table of the triples ``pts``: each row's positioned optimum
    and degrees, scored a column at a time.  Solver trouble becomes a row's
    error marker so a sweep keeps going and partial reports stay useful."""
    vb = bounds(p)
    grid = solve_grid(p, pts)
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
        mu_tilde=mu_tilde, errors=errors,
    )


def _triple_label(triple: Triple) -> str:
    return "mu_tilde(%g,%g,%g)" % triple


@_gc_paused()
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
    return _scored(p, pts, labels, lambdas)


@_gc_paused()
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
    return _scored(p, _cube(grid), labels, lambdas)


_AXES = {"alpha": 0, "beta": 1, "gamma": 2}


@_gc_paused()
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


@_gc_paused()
def find_satisfactory(p: GreyLP, mu0: float, lam: float, step: float) -> list[tuple[Triple, float]]:
    """All uniform grid triples whose satisfaction degree at ``lam`` reaches
    the grey target ``mu0``, best first (ties in lexicographic order)."""
    for name, v in (("mu0", mu0), ("lam", lam)):
        if not (0.0 <= float(v) <= 1.0):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    table = grid_sweep(p, step, lambdas=(float(lam),))
    degree = table.mu_tilde[:, 0]
    hits = np.flatnonzero(degree >= float(mu0))  # NaN on error rows compares False
    # Rows are in lexicographic order, so a stable sort on the degree breaks
    # ties by triple.
    hits = hits[np.argsort(-degree[hits], kind="stable")]
    return [
        (tuple(triple), value)
        for triple, value in zip(table.coefficients[hits].tolist(), degree[hits].tolist())
    ]


# Rows are formatted this many at a time, which bounds the text held at once.
_CHUNK = 1024


def _fmt_coeff(v: float) -> str:
    return "%g" % v


def _cells(fmt: str, values: np.ndarray, errors: dict[int, str], empty: str) -> list[str]:
    """``values`` formatted with ``fmt``; NaN becomes ``empty``, and the
    value at each index of ``errors`` its error marker."""
    cells = [fmt % v for v in values.tolist()]
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = empty
    for i, marker in errors.items():
        cells[i] = marker
    return cells


def _body(t: SweepTable, empty: str, marker):
    """The table's rows after the header as tuples of cells, at most
    ``_CHUNK`` rows at a time.  A missing value renders as ``empty`` and
    every value of an error row as ``marker(error)``."""
    errors = {i: marker(e) for i, e in t.errors.items()}
    if t.axis_labels and t.axis_labels[0] == "lambda":
        yield [
            (_fmt_coeff(lam), *_cells("%.4f", t.mu_tilde[:, j], errors, empty))
            for j, lam in enumerate(t.lambdas)
        ]
        return
    # Each distinct grid value is formatted once.
    coeffs = []
    for column in t.coefficients.T:
        values, index = np.unique(column, return_inverse=True)
        coeffs.append(np.array([_fmt_coeff(v) for v in values.tolist()], dtype=object)[index])
    columns = [("%.2f", t.f), ("%.4f", t.mu)] + [("%.4f", c) for c in t.mu_tilde.T]
    for start in range(0, len(t.f), _CHUNK):
        stop = start + _CHUNK
        errs = {i - start: m for i, m in errors.items() if start <= i < stop}
        cells = [c[start:stop].tolist() for c in coeffs]
        cells += [_cells(fmt, values[start:stop], errs, empty) for fmt, values in columns]
        yield list(zip(*cells))


def _csv_cell(text: str) -> str:
    """``text`` as the csv module writes it in a row of several cells
    (quoted only if it holds a comma, a quote or a line break)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


@_gc_paused()
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
        buf.write("".join([lead + sep.join(row) + end for row in chunk]))
    return buf.getvalue()
