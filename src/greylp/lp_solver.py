"""Dense simplex solver for white max-LPs, plus a brute-force oracle.

Problems have the form: maximize c.x subject to A.x <= b, x >= 0.  The
solver is a dense primal tableau simplex using Bland's rule (lowest-index
entering column; ratio ties broken by lowest row index), which keeps every
solve deterministic and terminating.  When some right-hand side is negative
the all-slack basis is infeasible, so a standard phase-1 with artificial
variables runs first; whitened problems from valid grey programs always have
b >= 0 and skip it.

``enumerate_vertices_oracle`` solves the same problem by enumerating basic
points directly.  It shares nothing with the simplex path, so the two act as
independent checks on each other.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverFailure
from .grey_core import WhiteLP

__all__ = ["SolveStatus", "LPSolution", "solve_max", "enumerate_vertices_oracle"]

# Reduced-cost / ratio-test tolerance and post-hoc feasibility tolerance.
# 1e-9 leaves double-precision headroom at desk-scale magnitudes (~1e5);
# feasibility is checked more loosely because residuals accumulate pivots.
_TOL_PIVOT = 1e-9
_TOL_FEAS = 1e-7


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LPSolution:
    """Outcome of one solve.

    ``x`` and ``objective`` are populated only when optimal; ``ray`` holds an
    unboundedness certificate (a direction d >= 0 with A.d <= 0 and c.d > 0)
    only when unbounded.  ``basis`` is the simplex's final basis when
    optimal: one column index per constraint row, where columns ``0..n-1``
    are the variables and ``n..n+m-1`` the slacks of ``[A | I]`` (an index
    from ``n+m`` up is a phase-1 artificial left basic on a redundant row).
    """

    status: SolveStatus
    x: tuple[float, ...] = ()
    objective: float | None = None
    ray: tuple[float, ...] | None = None
    basis: tuple[int, ...] = ()


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]  # np.outer's product, without its wrapper
    basis[row] = col


def _bland_iterate(
    T: np.ndarray, basis: list[int], ncols: int, budget: int
) -> tuple[str, int, int]:
    """Run simplex pivots until optimal or unbounded.

    Returns (outcome, pivots_used, entering_col); entering_col is only
    meaningful for the "unbounded" outcome.  ``ncols`` bounds the eligible
    entering columns (used to exclude artificial columns in phase 2).
    """
    m = T.shape[0] - 1
    used = 0
    while True:
        improving = T[m, :ncols] > _TOL_PIVOT
        enter = int(improving.argmax())  # Bland: the lowest-index improving column
        if not improving[enter]:
            return "optimal", used, -1
        col = T[:m, enter]
        rows = (col > _TOL_PIVOT).nonzero()[0]
        ratios = T[rows, -1] / col[rows]
        # argmin keeps the first minimum, so ties go to the lowest row.  A
        # running minimum started at +inf never picks a NaN or +inf ratio
        # (only overflow makes one), so those rows are then left out.
        k = int(ratios.argmin()) if len(rows) else -1
        if k >= 0 and not ratios[k] < np.inf:
            usable = np.flatnonzero(ratios < np.inf)
            k = int(usable[ratios[usable].argmin()]) if len(usable) else -1
        if k < 0:
            return "unbounded", used, enter
        if used >= budget:
            raise SolverFailure(
                f"simplex exceeded its iteration cap of {budget} pivots"
            )
        _pivot(T, basis, int(rows[k]), enter)
        used += 1


def _extract_ray(T: np.ndarray, basis: list[int], enter: int, n: int) -> tuple[float, ...]:
    m = T.shape[0] - 1
    d = np.zeros(T.shape[1] - 1)
    d[enter] = 1.0
    d[basis] = -T[:m, enter]
    d[d < 0.0] = 0.0  # only sub-tolerance noise can be negative here
    return tuple(d[:n].tolist())


def solve_max(lp: WhiteLP) -> LPSolution:
    """Maximize c.x subject to A.x <= b, x >= 0 by primal simplex.

    Deterministic for fixed input.  Raises :class:`SolverFailure` if the
    pivot count exceeds 50*(m+n), which signals a pathological instance.
    """
    A, b, c = lp.A_array, lp.b_array, lp.c_array
    m, n = A.shape
    budget = 50 * (m + n)

    neg_rows = np.flatnonzero(b < 0.0)
    n_art = len(neg_rows)

    # Columns: n structural, m slacks, n_art phase-1 artificials, rhs.
    T = np.zeros((m + 1, n + m + n_art + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))

    used_total = 0
    if n_art:
        for k, i in enumerate(neg_rows.tolist()):
            T[i, :] *= -1.0  # flips the slack coefficient to -1
            T[i, n + m + k] = 1.0
            basis[i] = n + m + k
        # Phase-1 objective row: maximize -(sum of artificials).  Summing the
        # artificialized rows gives the reduced costs directly (artificial
        # columns cancel to zero); the rhs entry tracks minus the phase-1
        # objective value.
        T[m, :] = T[neg_rows, :].sum(axis=0)
        T[m, n + m : -1] = 0.0
        outcome, used_total, _ = _bland_iterate(T, basis, n + m, budget)
        if outcome != "optimal":
            raise SolverFailure("phase 1 is bounded by construction yet did not converge")
        if -T[m, -1] < -_TOL_FEAS:
            return LPSolution(status=SolveStatus.INFEASIBLE)
        # Drive any zero-valued artificials out of the basis.
        for i in range(m):
            if basis[i] >= n + m:
                eligible = np.flatnonzero(np.abs(T[i, : n + m]) > _TOL_PIVOT)
                if len(eligible):
                    _pivot(T, basis, i, int(eligible[0]))
                    used_total += 1
                # A row with no eligible column is redundant; its artificial
                # stays basic at value zero and is harmless in phase 2
                # because artificial columns are never eligible to enter.

        T[m, :] = 0.0

    # Phase-2 objective row: reduced costs of c under the current basis.
    T[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[m, :] -= c[basis[i]] * T[i, :]

    outcome, used2, enter = _bland_iterate(T, basis, n + m, budget - used_total)
    if outcome == "unbounded":
        return LPSolution(status=SolveStatus.UNBOUNDED, ray=_extract_ray(T, basis, enter, n))

    x = np.zeros(n + m + n_art)
    x[basis] = T[:m, -1]
    xs = x[:n]
    xs[(xs < 0.0) & (xs > -_TOL_PIVOT)] = 0.0

    slack = b - A @ xs
    if slack.min() < -_TOL_FEAS or xs.min() < -_TOL_PIVOT:
        raise SolverFailure("solution failed the feasibility post-check")
    objective = float(c @ xs)
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        x=tuple(xs.tolist()),
        objective=objective,
        basis=tuple(basis),
    )


def _recession_directions(G: np.ndarray, n: int):
    """Candidate extreme-ray directions: axis-aligned plus the null spaces of
    every (n-1)-subset of constraint rows, both signs."""
    for j in range(n):
        d = np.zeros(n)
        d[j] = 1.0
        yield d
    if n < 2:
        return
    rows = range(G.shape[0])
    for subset in itertools.combinations(rows, n - 1):
        M = G[list(subset), :]
        _, s, vh = np.linalg.svd(M)
        rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0)))
        for v in vh[rank:]:
            norm = np.abs(v).max()
            if norm <= 0.0:
                continue
            yield v / norm
            yield -v / norm


def enumerate_vertices_oracle(lp: WhiteLP) -> LPSolution:
    """Brute-force reference solve for small instances (n <= 4).

    Enumerates every intersection of n hyperplanes drawn from the m
    constraint rows plus the n axis planes, keeps the feasible ones, and
    returns the best by objective.  Unboundedness is detected by scanning
    axis-aligned and edge directions of the recession cone.  Independent of
    the simplex path by construction.
    """
    n, m = lp.n, lp.m
    if n > 4:
        raise DomainError(f"vertex enumeration supports at most 4 variables, got {n}")
    A, b, c = lp.A_array, lp.b_array, lp.c_array

    G = np.vstack([A, -np.eye(n)])
    h = np.concatenate([b, np.zeros(n)])

    best_x = None
    best_obj = -np.inf
    for subset in itertools.combinations(range(m + n), n):
        S = list(subset)
        try:
            x = np.linalg.solve(G[S, :], h[S])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(G[S, :] @ x - h[S])) > 1e-6:
            continue  # solve was numerically meaningless
        if np.any(A @ x > b + _TOL_FEAS) or np.any(x < -_TOL_PIVOT):
            continue
        obj = float(c @ x)
        if obj > best_obj:
            best_obj = obj
            best_x = x

    if best_x is None:
        return LPSolution(status=SolveStatus.INFEASIBLE)

    for d in _recession_directions(G, n):
        if np.all(d >= -_TOL_PIVOT) and np.all(A @ d <= _TOL_PIVOT) and c @ d > _TOL_PIVOT:
            ray = d.copy()
            ray[ray < 0.0] = 0.0
            return LPSolution(
                status=SolveStatus.UNBOUNDED, ray=tuple(float(v) for v in ray)
            )

    best_x = best_x.copy()
    best_x[(best_x < 0.0) & (best_x > -_TOL_PIVOT)] = 0.0
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        x=tuple(float(v) for v in best_x),
        objective=float(c @ best_x),
    )
