"""Dense simplex solver for white max-LPs.

Problems have the form: maximize c.x subject to A.x <= b, x >= 0, with
b >= 0 as in every positioned program of a valid grey problem.  So x = 0
is feasible, and every solve is phase 2 of a dense primal tableau simplex
from a feasible basis, cold from the all-slack one ([A | I | b], objective
row c).  The entering column is the one of largest reduced cost (Dantzig's
rule, ties to the lowest index), which usually takes fewer pivots than
Bland's rule, until a solve makes its first degenerate pivot (its step,
the minimum ratio, is not positive); from then on that solve enters the
lowest-index improving column (Bland's rule), which cannot cycle.  Ratio
ties go to the lowest row index, so every solve is deterministic and
terminates.

Whitenings of one grey problem nearly always share an optimal basis, so
the stacked kernel ``_solve_points`` solves a stack of them by reusing
bases, which ``_certify`` certifies and ``_phase2`` starts from.  A basis
with k basic structural columns is certified from one k x k system per
slice, which gives both its primal and its dual values; its m x m basis
matrix is built only for a warm start's tableau.

Each simplex solve, failed or not, logs one DEBUG record on the
``greylp.lp_solver`` logger, written by ``_phase2``, naming its start (cold
or warm), the pivots taken (and how many of them were degenerate) and the
outcome, as in ``solve_max: warm start, 2 pivots (0 degenerate),
optimal``.  A failed solve reads ``failed``: a warm start that falls back
to a cold solve, and a cold solve that raises :class:`SolverFailure`.  One
past the pivot budget names the budget instead of the counts, and a
refused singular start reads ``0 pivots (0 degenerate), failed``; a
certified point logs none.  The records are built only when DEBUG is
enabled for that logger.

A solve is post-checked in floating point only: x >= 0, A.x <= b within
1e-7 * max(1, |b_i|), and a finite tableau and objective.
``tests/conftest.py`` proves the returned basis or ray exactly, in rational
arithmetic on the float data, and the tests take that as ground truth.  The
pivot and reduced-cost tolerances are absolute, so on a badly scaled
program "optimal" can depend on the path: for c = 1e-9, A = 0.1, b = 1 the
cold solve stops at 0, while the basis {x}, once cached, certifies the true
optimum 1e-8.
"""

from __future__ import annotations

import contextlib
import enum
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverFailure
from .grey_core import WhiteLP

__all__ = ["SolveStatus", "LPSolution", "solve_max"]

# Reduced-cost / ratio-test tolerance and post-hoc feasibility tolerance.
# 1e-9 leaves double-precision headroom at desk-scale magnitudes (~1e5);
# feasibility is checked more loosely because residuals accumulate pivots,
# and relative to the row's bound, |b_i| of a row with |b_i| > 1, because
# A.x carries the rounding of a number of that size.
_TOL_PIVOT = 1e-9
_TOL_FEAS = 1e-7
# How far B^-1 B may stray from the identity in a warm start's tableau.  Its
# entries err by about cond(B) * 2.2e-16, so this refuses a start whose basis
# matrix has a condition number past about 1e8.
_TOL_BASIS = 1e-7

_log = logging.getLogger(__name__)


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LPSolution:
    """Outcome of one solve.

    ``x`` and ``objective`` are populated only when optimal; ``ray`` holds an
    unboundedness certificate (a direction d >= 0 with A.d <= 0 and c.d > 0)
    only when unbounded.  ``basis`` is the simplex's final basis when
    optimal: one column index per constraint row, where columns ``0..n-1``
    are the variables and ``n..n+m-1`` the slacks of ``[A | I]``.
    """

    status: SolveStatus
    x: tuple[float, ...] = ()
    objective: float | None = None
    ray: tuple[float, ...] | None = None
    basis: tuple[int, ...] = ()


def _iterate(T: np.ndarray, basis: list[int], budget: int) -> tuple[str, int, int, int]:
    """Run simplex pivots on the tableau ``T`` in place until optimal or
    unbounded, priced by Dantzig's rule and then by Bland's (see the module
    docstring).

    Returns (outcome, pivots_used, degenerate_pivots, entering_col);
    entering_col is only meaningful for the "unbounded" outcome.  The ratio
    vector and the rank-one update are written into buffers allocated once
    per call, and the update multiplies entry by entry as ``np.outer`` does
    (not a BLAS product, which may round or sign zeros differently), so
    every pivot keeps the scalar reference loop's arithmetic bit for bit.
    """
    m = T.shape[0] - 1
    costs = np.empty(T.shape[1] - 1)
    ratios = np.empty(m)
    factors = np.empty(m + 1)
    update = np.empty_like(T)
    used = degenerate = 0
    while True:
        if degenerate:
            # Bland: the lowest-index improving column.
            enter = int((T[m, :-1] > _TOL_PIVOT).argmax())
        else:
            # Dantzig: the largest reduced cost.  fmax reads a NaN as 0, so a
            # NaN reduced cost is never chosen.
            enter = int(np.fmax(T[m, :-1], 0.0, out=costs).argmax())
        if not T[m, enter] > _TOL_PIVOT:
            return "optimal", used, degenerate, -1
        col = T[:m, enter]
        ratios.fill(np.inf)  # rows that do not limit the step
        np.divide(T[:m, -1], col, out=ratios, where=col > _TOL_PIVOT)
        # argmin keeps the first minimum, so ties go to the lowest row.  A
        # running minimum started at +inf never picks a NaN or +inf ratio
        # (only overflow makes one; see _phase2), so those rows are then
        # left out.
        row = int(ratios.argmin())
        if not ratios[row] < np.inf:
            usable = np.flatnonzero(ratios < np.inf)
            row = int(usable[ratios[usable].argmin()]) if len(usable) else -1
        if row < 0:
            return "unbounded", used, degenerate, enter
        if used >= budget:
            raise SolverFailure(
                f"simplex exceeded its iteration cap of {budget} pivots"
            )
        if not ratios[row] > 0.0:
            degenerate += 1
        T[row] /= T[row, enter]
        factors[:] = T[:, enter]
        factors[row] = 0.0
        np.multiply(factors[:, None], T[row], out=update)  # np.outer's product
        T -= update
        basis[row] = enter
        used += 1


def _extract_ray(T: np.ndarray, basis: list[int], enter: int, n: int) -> tuple[float, ...]:
    m = T.shape[0] - 1
    d = np.zeros(T.shape[1] - 1)
    d[enter] = 1.0
    d[basis] = -T[:m, enter]
    d[d < 0.0] = 0.0  # only sub-tolerance noise can be negative here
    return tuple(d[:n].tolist())


def _scaled(tol: float, v: np.ndarray) -> np.ndarray:
    """The tolerance ``tol * max(1, |v|)`` for each entry of ``v``, as a new
    array: absolute up to magnitude 1 and relative beyond."""
    bound = np.abs(v)
    np.maximum(bound, 1.0, out=bound)
    bound *= tol
    return bound


def _slack_ok(b, slack):
    """Where the slack b - A.x passes the feasibility post-check, slack >=
    -_TOL_FEAS * max(1, |b_i|); a NaN slack fails it."""
    return slack >= _scaled(-_TOL_FEAS, b)


def _vertex(T: np.ndarray, basis: list[int], A, b, c) -> LPSolution | None:
    """The optimal solution read from the final tableau ``T``, or None if it
    fails the module docstring's post-check (pricing skips a NaN reduced
    cost, so a tableau that is not finite proves nothing)."""
    m, n = A.shape
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:m, -1]
    xs = x[:n]
    xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0

    objective = float(c @ xs)
    # Negated, the comparisons refuse a NaN too.
    if not (_slack_ok(b, b - A @ xs).all() and xs.min() >= -_TOL_PIVOT
            and np.isfinite(objective) and np.isfinite(T).all()):
        return None
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        x=tuple(xs.tolist()),
        objective=objective,
        basis=tuple(basis),
    )


@np.errstate(over="ignore", invalid="ignore")
def _phase2(A, b, c, S=None) -> LPSolution | None:
    """Phase 2 from the primal feasible basis ``S`` (the all-slack one if
    None): the optimal or unbounded solution, or a failure if it fails the
    post-check, runs past the pivot budget, or ``S`` is refused (its B^-1 B
    is not the identity within ``_TOL_BASIS``: a singular or numerically
    singular basis).  A failed warm start returns None, and a failed cold
    one raises :class:`SolverFailure`.  Every call logs the one DEBUG
    record of the module docstring.  numpy's overflow and invalid warnings
    are off: an overflowing ratio is left out, and an optimum that
    overflows fails the post-check."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    basis = list(range(n, n + m)) if S is None else S.tolist()
    if S is not None:
        # The tableau of the basis: B^-1 [A | I | b], with the reduced costs
        # c - c_B B^-1 [A | I] as the objective row.
        T[:m] = _solve_stack(T[None, :m, S], T[None, :m])[0]
        # B^-1 B must come out as the identity, or the start is refused.  It
        # is NaN for an exactly singular B, and for a numerically singular B
        # that LU does not flag, the tableau's reduced costs prove nothing.
        identity = np.eye(m)
        if not np.abs(T[:m, S] - identity).max() <= _TOL_BASIS:
            basis = None  # refused: the solve fails without a pivot
        T[:m, S] = identity
        T[:m, -1][T[:m, -1] < 0.0] = 0.0  # only sub-tolerance noise is negative here
        T[m] -= T[m, S] @ T[:m]
        T[m, S] = 0.0
    sol = failure = None
    used = degenerate = 0
    if basis is not None:
        try:
            outcome, used, degenerate, enter = _iterate(T, basis, 50 * (m + n))
        except SolverFailure as exc:  # past the pivot budget
            failure = exc
        else:
            sol = (
                LPSolution(SolveStatus.UNBOUNDED, ray=_extract_ray(T, basis, enter, n))
                if outcome == "unbounded" else _vertex(T, basis, A, b, c)
            )
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "solve_max: %s start, %s, %s",
            "cold" if S is None else "warm",
            failure or f"{used} pivots ({degenerate} degenerate)",
            "failed" if sol is None else sol.status.value,
        )
    if sol is None and S is None:
        raise failure or SolverFailure("solution failed the feasibility post-check")
    return sol


def _solve_stack(M, R) -> np.ndarray:
    """``np.linalg.solve(M, R)`` over a stack of matrices, NaN in the slot
    of each singular one.  One singular matrix makes the stacked solve raise
    for all of them (as the basis {x} of ``max x s.t. gamma*x <= b`` does in
    the slice gamma = 0), so the stack is then solved one matrix at a
    time."""
    try:
        return np.linalg.solve(M, R)
    except np.linalg.LinAlgError:
        X = np.full(R.shape, np.nan)
        for g in range(len(M)):
            with contextlib.suppress(np.linalg.LinAlgError):
                X[g] = np.linalg.solve(M[g], R[g])
        return X


def _certify(A, C, Bv, basis):
    """Where in a stack of G programs the basis ``basis`` is proven optimal.

    ``A`` stacks the programs' constraint matrices (G x m x n), ``C`` their
    objectives (G x ka x n) and ``Bv`` their right-hand sides (G x kb x m),
    with points as in :func:`_solve_points`; ``basis`` names columns of [A |
    I] as :class:`LPSolution` does.  A point is certified only if it passes
    the solver's own tests: basic values >= -tol, reduced costs <= tol, the
    post-check of :func:`_slack_ok`, and a duality gap |c.x - y.b| <= tol *
    max(1, |f|).  Returns (ok, f, primal): whether each point is certified
    and its optimal value (only meaningful where certified), both G x ka x
    kb, and whether the basis is primal feasible at each right-hand side,
    G x kb.  In a slice where only the transposed block tests singular in
    floating point, the basis can be primal feasible and certify nothing;
    a warm start from it there is refused by :func:`_phase2`, and the point
    is solved cold.

    In a slice the matrix is fixed, so the basis's primal values depend on
    the right-hand side alone and its duals on the objective alone: it is
    optimal on the rectangle of the betas where it is primal feasible times
    the alphas where it is dual feasible (parametric programming; T. Gal,
    *Postoptimal Analyses, Parametric Programming and Related Topics*,
    1995).  [A | I] and [C | 0] are never built, nor is the m x m basis
    matrix B, A's k basic columns and a unit column per basic slack.  Both
    solves need only the k x k block A[F, S] of the basic columns on the k
    rows F whose slack is nonbasic: B x_B = b gives A[F, S] x_S = b_F, and
    the basic slacks are b - A.x on the rows outside F; the duals y are 0
    on every row whose slack is basic, so B^T y = c_B gives A[F, S]^T y_F =
    c_S.  B is singular exactly when the block is, because B's other
    columns are unit vectors.  One solve per slice gives x at every beta,
    and one y at every alpha.  One product prices the n - k nonbasic
    columns of A; a nonbasic slack's reduced cost is -y_i, and y.b is
    y_F.b_F.  A singular system's solutions are NaN (see
    :func:`_solve_stack`), and NaN fails every test: a slice whose block
    is singular certifies nothing and is primal feasible nowhere, so the
    basis starts no point there.  Two batched products give each slice's
    values c.x and y.b over its ka x kb rectangle, the values summed as
    ``np.einsum("ij,ij->i")`` sums each point's rows (a BLAS product could
    move printed digits).
    """
    G, m, n = A.shape
    kb = Bv.shape[1]
    S = np.asarray(basis)
    cols = S[S < n]
    rows = np.ones(m, dtype=bool)
    rows[S[S >= n] - n] = False
    F = np.flatnonzero(rows)
    AF = A[:, F]
    block = AF[:, :, cols]  # G x k x k
    bF = Bv[:, :, F].transpose(0, 2, 1)
    XS = _solve_stack(block, bF)  # G x k x kb
    YF = _solve_stack(  # G x k x ka
        block.transpose(0, 2, 1), C[:, :, cols].transpose(0, 2, 1)
    )
    with np.errstate(invalid="ignore", over="ignore"):
        xs = np.zeros((G, n, kb))
        xs[:, cols] = XS
        xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0  # solve_max's snap
        b = Bv.transpose(0, 2, 1)
        slack = b - A @ xs  # G x m x kb; the basic slacks are its rows outside F
        primal = (XS >= -_TOL_PIVOT).all(axis=1)
        primal &= (slack[:, ~rows] >= -_TOL_PIVOT).all(axis=1)
        primal &= _slack_ok(b, slack).all(axis=1)
        nonbasic = np.ones(n, dtype=bool)
        nonbasic[cols] = False
        reduced = C[:, :, nonbasic].transpose(0, 2, 1)
        reduced -= AF[:, :, nonbasic].transpose(0, 2, 1) @ YF
        # A nonbasic slack's reduced cost is -y_i <= tol.
        dual = (reduced <= _TOL_PIVOT).all(axis=1) & (YF >= -_TOL_PIVOT).all(axis=1)
        # The values' summed axis is contiguous in both operands; the dual
        # values are read by the gap test alone.
        f = np.einsum("gan,gbn->gab", C, np.ascontiguousarray(xs.transpose(0, 2, 1)))
        gap = np.matmul(YF.transpose(0, 2, 1), bF)
        gap -= f
        ok = np.abs(gap, out=gap) <= _scaled(_TOL_PIVOT, f)
        ok &= primal[:, None, :]
        ok &= dual[:, :, None]
    return ok, f, primal


def _require_nonnegative(b: np.ndarray) -> None:
    """Raise :class:`DomainError` naming the first negative entry (in C
    order) of the right-hand sides ``b``, whose last axis is the row."""
    negative = np.flatnonzero(b < 0.0)
    if len(negative):
        k = int(negative[0])
        raise DomainError(
            f"solve_max needs b >= 0, but b[{k % b.shape[-1]}] = {float(b.flat[k])!r}"
        )


def solve_max(lp: WhiteLP) -> LPSolution:
    """Maximize c.x subject to A.x <= b, x >= 0, for b >= 0, by primal
    simplex from the all-slack basis, priced as the module docstring says.

    Deterministic for fixed input.  Raises :class:`DomainError` if some
    b_i < 0, and :class:`SolverFailure` if the pivot count exceeds
    50*(m+n), which signals a pathological instance, or if the solution
    fails the post-check.
    """
    A, b, c = lp.A_array, lp.b_array, lp.c_array
    _require_nonnegative(b)
    return _phase2(A, b, c)


def _solve_points(A, C, Bv, bases=()):
    """The optimal value of every point of a stack of white programs that
    share each slice's matrix, as ``grey_core._white_stack`` whitens a
    stack layout (see :mod:`greylp.grey_core`): point (g, a, b) is
    objective ``C[g, a]`` and right-hand side ``Bv[g, b]``.

    Every cached optimal basis, starting with ``bases``, is certified at all
    pending points at once (see :func:`_certify`), over the bounding box of
    those points (their extent along each axis, a range of slices x alphas
    x betas, taken as views of the stacks).  That one rule serves every
    layout, a 1 x 1 slice per point included.  No caller in greylp passes
    ``bases``; the tests start from chosen ones.  Every point no basis
    certifies is solved, in slice order and then (alpha, beta) order: by
    phase 2 from the latest cached basis that is primal feasible there, or
    cold by :func:`solve_max` if there is none or that phase 2 does not end
    in a checked optimum or ray.  Its optimal basis joins the cache and is
    certified in turn on the box of the points still pending, which only
    shrinks, so a basis's primal feasibility is recorded wherever a later
    point may start.  Its ray d, if it is unbounded (d >= 0, A[s].d <= 0),
    settles every pending point of its slice s whose objective gains along
    it, C[s, a].d > ``_TOL_PIVOT``: unbounded at every right-hand side, so
    it is not solved.

    Returns (values, cache, cold, warm): each point's optimal value (G x ka
    x kb), NaN where its program is unbounded; the cached bases as sorted
    tuples; and the numbers of cold and warm solves.  Like
    :func:`solve_max`, it raises :class:`DomainError` before any solve if
    some b_i < 0, so a program is refused whether or not a cached basis
    would have certified it.
    """
    _require_nonnegative(Bv)
    G, ka, kb = len(A), C.shape[1], Bv.shape[1]
    values = np.full((G, ka, kb), np.nan)
    cache = list(dict.fromkeys(tuple(sorted(basis)) for basis in bases))
    pending = np.ones((G, ka, kb), dtype=bool)
    # Per slice and right-hand side, the latest cached basis primal feasible
    # there (-1 for none): where a point's solve starts if none certifies it.
    # Primal feasibility does not depend on the objective, so G x kb.
    feasible = np.full((G, kb), -1)

    def settle(which):
        """Certify ``cache[which]`` on the box of the pending points: their
        extent along each axis."""
        # The alphas and betas pending in any slice, one OR of the slices'
        # planes: numpy reduces over (0, 2) or (0, 1) at once several times
        # slower.
        rectangle = pending.any(axis=0)
        extents = [
            np.flatnonzero(k)
            for k in (pending.any(axis=(1, 2)), rectangle.any(axis=1), rectangle.any(axis=0))
        ]
        if not len(extents[0]):
            return
        g, a, b = (slice(k[0], k[-1] + 1) for k in extents)
        ok, f, primal = _certify(A[g], C[g, a], Bv[g, b], cache[which])
        box = pending[g, a, b]  # views, so the writes below go through
        ok &= box
        np.copyto(values[g, a, b], f, where=ok)
        np.copyto(box, False, where=ok)
        np.copyto(feasible[g, b], which, where=primal)

    for which in range(len(cache)):
        settle(which)
    cold = warm = 0
    while pending.any():
        s, a, b = np.unravel_index(pending.argmax(), pending.shape)  # the first point left
        pending[s, a, b] = False
        c, rhs, start = C[s, a], Bv[s, b], feasible[s, b]
        sol = _phase2(A[s], rhs, c, np.array(cache[start])) if start >= 0 else None
        if sol is None:
            sol = solve_max(WhiteLP._of_arrays(c, A[s], rhs))
            cold += 1
        else:
            warm += 1
        if sol.status is not SolveStatus.OPTIMAL:
            gains = C[s] @ np.array(sol.ray) > _TOL_PIVOT
            pending[s, gains] = False
            continue
        values[s, a, b] = sol.objective
        key = tuple(sorted(sol.basis))
        if key not in cache:
            cache.append(key)
            settle(len(cache) - 1)
    return values, cache, cold, warm
