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
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, ValidationError
from .grey_core import GreyLP, build_positioned, uniform_coefficients, validate_problem
from .lp_solver import _TOL_FEAS, _TOL_PIVOT, SolveStatus, solve_max
from .satisfaction import ValueBounds, bounds, lambda_satisfaction, pleased_degree

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


@dataclass(frozen=True)
class SweepTable:
    """An ordered set of sweep records plus the labels they render under.

    ``axis_labels`` doubles as the rendering schema: a first label of
    ``"lambda"`` marks a table that renders pivoted, one row per lambda and
    one column per record (the shape of a satisfaction-degree report);
    otherwise each record renders as one row.
    """

    axis_labels: tuple[str, ...]
    rows: tuple[SatisfactionRecord, ...]
    lambdas: tuple[float, ...] = ()


@dataclass(frozen=True)
class MonotonicityReport:
    """Empirical check of the expected ordering of positioned optima along
    one coefficient axis.

    ``grid`` lists every probed pair of adjacent triples, ``violations``
    the pairs (with their two optimal values) whose ordering failed beyond
    tolerance, and ``skipped`` the pairs that could not be evaluated.
    An empty violation list means the ordering held everywhere probed.
    """

    axis: str
    direction: str  # nondecreasing | nonincreasing
    grid: tuple[tuple[Triple, Triple], ...]
    violations: tuple[tuple[tuple[Triple, Triple], tuple[float, float]], ...]
    skipped: tuple[tuple[Triple, Triple], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class GridSolution:
    """Solver outcome of each uniform triple passed to :func:`solve_grid`,
    in input order.

    ``objective[i]`` is the positioned optimal value of triple ``i`` when
    ``status[i]`` is OPTIMAL, and None otherwise.
    """

    status: tuple[SolveStatus, ...]
    objective: tuple[float | None, ...]


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


def _whiten(t, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # ``whiten``'s formula, so each entry matches the per-entry path bit for bit.
    return t * hi + (1.0 - t) * lo


def _ends(intervals) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([iv.lo for iv in intervals], dtype=float),
        np.array([iv.hi for iv in intervals], dtype=float),
    )


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
    c_lo, c_hi = _ends(p.objective)
    b_lo, b_hi = _ends(p.rhs)
    A_lo = np.array([[iv.lo for iv in row] for row in p.matrix], dtype=float)
    A_hi = np.array([[iv.hi for iv in row] for row in p.matrix], dtype=float)

    status = [SolveStatus.OPTIMAL] * len(pts)  # every point not solved cold is certified
    values = np.zeros(len(pts))
    bases: list[tuple[int, ...]] = []
    cold = 0
    gammas, slice_of = np.unique(pts[:, 2], return_inverse=True)
    for k, gamma in enumerate(gammas):
        idx = np.flatnonzero(slice_of == k)
        alphas, ai = np.unique(pts[idx, 0], return_inverse=True)
        betas, bi = np.unique(pts[idx, 1], return_inverse=True)
        AI = np.hstack([_whiten(gamma, A_lo, A_hi), np.eye(m)])
        CI = np.hstack([_whiten(alphas[:, None], c_lo, c_hi), np.zeros((len(alphas), m))])
        Bv = _whiten(betas[:, None], b_lo, b_hi)
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

    objective = tuple(
        v if s is SolveStatus.OPTIMAL else None for v, s in zip(values.tolist(), status)
    )
    _log.info(
        "solve_grid: %d points, %d cold solves, %d certified, %d bases, %d non-optimal",
        len(pts), cold, len(pts) - cold, len(bases), objective.count(None),
    )
    return GridSolution(status=tuple(status), objective=objective)


def _record(vb: ValueBounds, triple: Triple, status: SolveStatus, f: float | None, lambdas) -> SatisfactionRecord:
    """One sweep row; solver trouble becomes an error marker so a sweep keeps
    going and partial reports stay useful."""
    if status is not SolveStatus.OPTIMAL:
        return SatisfactionRecord(coefficients=triple, f=None, mu=None, error=str(status))
    try:
        mu = pleased_degree(f, vb)
    except DomainError:
        mu = None  # ideal value is zero; the ratio form has no meaning
    mu_tilde = tuple((lam, lambda_satisfaction(f, vb, lam)) for lam in lambdas)
    return SatisfactionRecord(coefficients=triple, f=f, mu=mu, mu_tilde=mu_tilde)


def _records(p: GreyLP, triples: list[Triple], lambdas) -> tuple[SatisfactionRecord, ...]:
    vb = bounds(p)
    grid = solve_grid(p, triples)
    return tuple(
        _record(vb, t, status, f, lambdas)
        for t, status, f in zip(triples, grid.status, grid.objective)
    )


def _triple_label(triple: Triple) -> str:
    return "mu_tilde(%g,%g,%g)" % triple


@_gc_paused()
def lambda_sweep(p: GreyLP, settings, lambdas) -> SweepTable:
    """Satisfaction degrees of each uniform triple in ``settings`` across the
    ``lambdas`` grid.

    Records are sorted lexicographically by triple.  The result renders
    pivoted: one row per lambda, one column per triple.
    """
    triples = sorted(tuple(float(v) for v in t) for t in settings)
    lambdas = tuple(float(v) for v in lambdas)
    rows = _records(p, triples, lambdas)
    labels = ("lambda",) + tuple(_triple_label(t) for t in triples)
    return SweepTable(axis_labels=labels, rows=rows, lambdas=lambdas)


@_gc_paused()
def grid_sweep(p: GreyLP, step: float, lambdas=()) -> SweepTable:
    """Positioned values and degrees for every uniform triple on the cubic
    grid with the given step, in lexicographic order.

    ``lambdas`` optionally adds a satisfaction-degree column per value.
    """
    grid = unit_grid(step)
    lambdas = tuple(float(v) for v in lambdas)
    rows = _records(p, list(itertools.product(grid, repeat=3)), lambdas)
    labels = ("alpha", "beta", "gamma", "f", "mu") + tuple(
        "mu_tilde[%g]" % lam for lam in lambdas
    )
    return SweepTable(axis_labels=labels, rows=rows, lambdas=lambdas)


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
    triples = list(itertools.product(grid, repeat=3))
    values = dict(zip(triples, solve_grid(p, triples).objective))

    finite = [v for v in values.values() if v is not None]
    scale = max(1.0, max((abs(v) for v in finite), default=1.0))
    tol = 1e-6 * scale

    probed: list[tuple[Triple, Triple]] = []
    violations: list[tuple[tuple[Triple, Triple], tuple[float, float]]] = []
    skipped: list[tuple[Triple, Triple]] = []
    for fixed in itertools.product(grid, repeat=2):
        for lo, hi in itertools.pairwise(grid):
            t_lo, t_hi = list(fixed), list(fixed)
            t_lo.insert(pos, lo)
            t_hi.insert(pos, hi)
            pair = (tuple(t_lo), tuple(t_hi))
            probed.append(pair)
            f_lo, f_hi = values[pair[0]], values[pair[1]]
            if f_lo is None or f_hi is None:
                skipped.append(pair)
                continue
            gap = f_hi - f_lo if direction == "nondecreasing" else f_lo - f_hi
            if gap < -tol:
                violations.append((pair, (f_lo, f_hi)))

    return MonotonicityReport(
        axis=axis,
        direction=direction,
        grid=tuple(probed),
        violations=tuple(violations),
        skipped=tuple(skipped),
    )


@_gc_paused()
def find_satisfactory(p: GreyLP, mu0: float, lam: float, step: float) -> list[tuple[Triple, float]]:
    """All uniform grid triples whose satisfaction degree at ``lam`` reaches
    the grey target ``mu0``, best first (ties in lexicographic order)."""
    for name, v in (("mu0", mu0), ("lam", lam)):
        if not (0.0 <= float(v) <= 1.0):
            raise DomainError(f"{name} must be in [0, 1], got {v}")
    table = grid_sweep(p, step, lambdas=(float(lam),))
    hits = [
        (r.coefficients, r.mu_tilde[0][1])
        for r in table.rows
        if r.error is None and r.mu_tilde and r.mu_tilde[0][1] >= float(mu0)
    ]
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


def _fmt_coeff(v: float) -> str:
    return "%g" % v


def _fmt_f(v: float | None, error: str | None) -> str:
    if error is not None:
        return error
    return "" if v is None else "%.2f" % v


def _fmt_degree(v: float | None, error: str | None) -> str:
    if error is not None:
        return error
    return "" if v is None else "%.4f" % v


def _table_rows(t: SweepTable):
    """The header, then one list of cells per table row, made as they are
    consumed so that a table is never held as text cells all at once."""
    yield list(t.axis_labels)
    if t.axis_labels and t.axis_labels[0] == "lambda":
        for lam in t.lambdas:
            cells = [_fmt_coeff(lam)]
            for r in t.rows:
                if r.error is not None:
                    cells.append(r.error)
                else:
                    cells.append(_fmt_degree(r.mu_tilde_at(lam), None))
            yield cells
    else:
        for r in t.rows:
            cells = [_fmt_coeff(v) for v in r.coefficients]
            cells.append(_fmt_f(r.f, r.error))
            cells.append(_fmt_degree(r.mu, r.error))
            by_lam = dict(r.mu_tilde)
            for lam in t.lambdas:
                cells.append(_fmt_degree(by_lam.get(lam), r.error))
            yield cells


@_gc_paused()
def render_table(t: SweepTable, format: str) -> str:
    """Render a sweep table to ``csv`` or ``markdown`` text.

    Deterministic: identical tables produce identical bytes.  Optimal values
    round to 2 decimals and degrees to 4; CSV output is comma-separated with
    LF line endings and one header row.
    """
    if format not in ("csv", "markdown"):
        raise DomainError(f"format must be 'csv' or 'markdown', got {format!r}")
    rows = _table_rows(t)
    if format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    header = next(rows)
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell if cell else "-" for cell in row) + " |")
    return "\n".join(lines) + "\n"
