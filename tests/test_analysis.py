"""Sweeps, monotonicity checks, satisfactory search, and table rendering."""

import csv
import io
import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    count_collections,
    grid_triple,
    many_basis_problem,
    random_bounded_problem,
    random_loose_problem,
    random_triple,
    reference_certify,
    reference_grid,
    reference_records,
    reference_render,
    table_of,
)
from greylp import (
    DomainError,
    GreyLP,
    SolveStatus,
    SolverFailure,
    UnboundedValueError,
    StructureError,
    build_positioned,
    bundled,
    check_monotonicity,
    find_satisfactory,
    grid_sweep,
    lambda_satisfaction,
    lambda_satisfactions,
    lambda_sweep,
    render_table,
    run,
    uniform_coefficients,
    unit_grid,
)
from greylp import analysis, lp_solver, satisfaction
from greylp.grey_core import WhiteLP, _cube_layout, _point_layout, _white_stack
from greylp.lp_solver import _solve_points, solve_max
from greylp.bundled import (
    REFERENCE_LAMBDA_GRID,
    REFERENCE_SATISFACTION,
)

TABLE_TRIPLES = tuple(trip for trip, _ in REFERENCE_SATISFACTION)


class TestUnitGrid:
    def test_quarter_grid(self):
        assert unit_grid(0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_tenth_grid_is_presentation_exact(self):
        grid = unit_grid(0.1)
        assert len(grid) == 11
        assert grid[3] == 0.3
        assert grid[-1] == 1.0

    def test_non_divisor_step_still_reaches_one(self):
        assert unit_grid(0.3) == (0.0, 0.3, 0.6, 0.9, 1.0)

    def test_half_step(self):
        assert unit_grid(0.5) == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, 1.0])
    def test_rejects_bad_step(self, bad):
        with pytest.raises(DomainError):
            unit_grid(bad)

    @pytest.mark.parametrize(
        "step", [1 / 832_255, 1e-6, 1 / 2_097_150, 1 / 2_097_151, 4e-7, 1e-12, 1e-320]
    )
    def test_refuses_steps_too_fine_to_index(self, step):
        # The cube of 832_256 grid values is the first whose 16 * g**3 bytes
        # pass the largest array index.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="too fine"):
                unit_grid(step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_finest_accepted_grid(self):
        grid = unit_grid(1 / 832_254)
        assert len(grid) == 832_255 and grid[-1] == 1.0

    @given(step=st.floats(1e-3, 0.5))
    @example(step=0.100000000005)  # 10 * step rounds to 1.0000000001
    @example(step=1 / 2.9999999995)
    def test_rises_strictly_from_zero_to_one(self, step):
        # _cube_layout relies on this: it gives each grid value a slice of
        # its own, in grid order, and the kernel solves slices in order.
        grid = np.array(unit_grid(step))
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert (np.diff(grid) > 0.0).all()


class TestStackLayout:
    """Each layout gives triple i the programs it whitens to: stack point
    (g, a, b), where i is (a, b, g) flattened over (ka, kb, G), has
    ``A[g]``, ``C[g, a]`` and ``Bv[g, b]`` equal to ``build_positioned``'s
    bit for bit."""

    @staticmethod
    def _assert_identical(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def _assert_whitens_each_point(self, demo_problem, pts, layout):
        seeded = random_bounded_problem(random.Random(10), n=10, m=10)
        for p in (demo_problem, seeded):
            A, C, Bv = _white_stack(p, *layout)
            a, b, g = np.unravel_index(np.arange(len(pts)), (C.shape[1], Bv.shape[1], len(A)))
            white = [
                build_positioned(p, uniform_coefficients(*triple, p.m, p.n))
                for triple in pts.tolist()
            ]
            self._assert_identical(
                (A[g], C[g, a], Bv[g, b]),
                [np.array([w.A_array for w in white]), np.array([w.c_array for w in white]),
                 np.array([w.b_array for w in white])],
            )

    @pytest.mark.parametrize("step", [0.5, 0.45, 0.3, 0.25, 0.2, 0.1, 0.05])
    def test_cube_layout(self, demo_problem, step):
        grid = unit_grid(step)
        triples = np.array(grid_triples(step))
        self._assert_whitens_each_point(demo_problem, triples, _cube_layout(grid))

    def test_cube_layout_tables_are_read_only_views(self):
        # The alpha and beta tables are the grid values broadcast to g x g,
        # so nothing of size g² is written.
        gammas, alphas, betas = _cube_layout(unit_grid(0.1))
        assert gammas.shape == (11, 1, 1)
        for t in (alphas, betas):
            assert t.shape == (11, 11, 1)
            assert not t.flags.writeable
            assert np.shares_memory(t, gammas)

    def test_cube_layout_allocates_nothing_cube_sized(self):
        # The 101**3 cube of step 0.01 has no index array: its rows are in
        # lexicographic order by arithmetic.
        grid = unit_grid(0.01)
        tracemalloc.start()
        try:
            layout = _cube_layout(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(layout) == 3 and peak < 64 * 1024

    @pytest.mark.parametrize("seed", range(5))
    def test_point_layout(self, demo_problem, seed):
        # Quarter-grid triples share gammas, and the repeats share settings.
        rng = random.Random(seed)
        pts = [grid_triple(rng) for _ in range(30)]
        pts = np.array(pts + rng.sample(pts, 10))
        layout = _point_layout(pts)
        # A 1 x 1 slice per point, in input order.
        assert len(layout) == 3
        for values, column in zip(layout, (2, 0, 1)):
            assert values.shape == (len(pts), 1, 1)
            assert values.ravel().tolist() == pts[:, column].tolist()
        self._assert_whitens_each_point(demo_problem, pts, layout)

    def test_verify_example_layout_is_pinned(self, monkeypatch, capsys):
        # The six reference settings in lexicographic order, both bounds
        # among them, so no bound is added.
        laid_out = []
        real = satisfaction._point_layout

        def recording(pts):
            laid_out.append(real(pts))
            return laid_out[-1]

        monkeypatch.setattr(satisfaction, "_point_layout", recording)
        assert run(["verify-example"]) == 0
        capsys.readouterr()
        [layout] = laid_out
        self._assert_identical(layout, (
            np.array([1.0, 0.4, 0.6, 0.3, 0.5, 0.0]).reshape(6, 1, 1),
            np.array([0.0, 0.5, 0.6, 0.7, 0.7, 1.0]).reshape(6, 1, 1),
            np.array([0.0, 0.9, 0.6, 0.5, 0.9, 1.0]).reshape(6, 1, 1),
        ))


@pytest.fixture(scope="module")
def table(demo_problem):
    return lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)


def grid_triples(step):
    return list(itertools.product(unit_grid(step), repeat=3))


UNCAPPED = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
GRID_LAMBDAS = (0.0, 0.5, 1.0)
GRID_LABELS = ("alpha", "beta", "gamma", "f", "mu", "mu_tilde[0]", "mu_tilde[0.5]", "mu_tilde[1]")


def assert_matches_reference(p, triples, got):
    """``got``, the optima the grid kernel gives for ``triples``, against the
    per-point reference: NaN exactly where the reference solve is
    unbounded, and the reference optimum up to rounding elsewhere."""
    want = reference_grid(p, triples)
    assert got.shape == (len(want),)
    for (status, f), got_f in zip(want, got.tolist()):
        if status is SolveStatus.UNBOUNDED:
            assert math.isnan(got_f)
        else:
            assert status is SolveStatus.OPTIMAL
            assert abs(got_f - f) <= 1e-9 * max(1.0, abs(f))


def row_of(table, triple) -> int:
    """The index of the row of ``table`` whose triple is ``triple``."""
    [i] = [i for i, t in enumerate(table.coefficients.tolist()) if tuple(t) == triple]
    return i


class TestSolveGrid:
    @given(seed=st.integers(0, 2**32 - 1), loose=st.booleans())
    def test_matches_per_point_reference(self, seed, loose):
        rng = random.Random(seed)
        p = random_loose_problem(rng) if loose else random_bounded_problem(rng)
        cube = grid_triples(0.25)
        triples = cube + [random_triple(rng) for _ in range(8)]
        got = satisfaction._solve_grid(p, _point_layout(np.array(triples)))
        assert_matches_reference(p, triples, got)
        got = satisfaction._solve_grid(p, _cube_layout(unit_grid(0.25)))
        assert_matches_reference(p, cube, got)

    def test_cli_sweep_csv_matches_reference_rows(self, demo_problem, tmp_path, capsys):
        path = tmp_path / "demo.json"
        path.write_text(bundled.EXAMPLE_PROBLEM_JSON, encoding="utf-8")
        assert run(["sweep", "--file", str(path), "--step", "0.1", "--lambdas", "0,0.5,1"]) == 0
        rows = reference_records(demo_problem, grid_triples(0.1), GRID_LAMBDAS)
        assert capsys.readouterr().out == reference_render(GRID_LABELS, rows, GRID_LAMBDAS, "csv")

    @pytest.mark.parametrize(
        "triple", [(0.5, 1.5, 0.5), (0.5, 0.5, -0.1), (float("nan"), 0.5, 0.5)]
    )
    def test_lambda_sweep_rejects_out_of_range_triples(self, demo_problem, triple):
        with pytest.raises(DomainError, match="must be in \\[0, 1\\]"):
            lambda_sweep(demo_problem, [(0.5, 0.5, 0.5), triple], (0.5,))

    def test_rejects_malformed_triples(self, demo_problem):
        message = "triples must be \\(alpha, beta, gamma\\) rows"
        # The sweep checks the shape before it formats a label per triple.
        for bad in [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)]:
            with pytest.raises(StructureError, match=message):
                lambda_sweep(demo_problem, [bad], [0.5])
        # Ragged rows and entries that are not numbers fail numpy's
        # conversion itself.
        for bad in [[(0.1, 0.2, 0.3), (0.1, 0.2)], [("a", 0.2, 0.3)]]:
            with pytest.raises(StructureError, match=message):
                lambda_sweep(demo_problem, bad, [0.5])

    @pytest.mark.parametrize(
        "problem, step, message",
        [
            (
                "demo", 0.05,
                "9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases, "
                "0 non-optimal",
            ),
            (
                # The gamma = 0 slice is unbounded: one cold solve's ray
                # settles all 9 of its points.
                "uncapped", 0.5,
                "27 points, 2 cold solves, 0 warm starts, 25 certified, 1 bases, 9 non-optimal",
            ),
        ],
    )
    def test_logs_counters(self, demo_problem, caplog, problem, step, message):
        p = demo_problem if problem == "demo" else UNCAPPED
        with caplog.at_level(logging.INFO, logger="greylp"):
            satisfaction._solve_grid(p, _cube_layout(unit_grid(step)))
        [record] = [r for r in caplog.records if r.name.startswith("greylp")]
        assert record.levelno == logging.INFO
        assert record.getMessage() == "solve_grid: " + message

    # (seed, size, step): (cold solves, warm starts, bases).  Certifying each
    # basis on every slice from the first pending one on gave the same.
    MANY_BASES = {
        (0, 10, 0.1): (4, 4, 8), (1, 10, 0.1): (4, 5, 9), (2, 10, 0.1): (4, 2, 6),
        (0, 30, 0.1): (6, 78, 84), (1, 30, 0.1): (3, 14, 17), (2, 30, 0.1): (5, 22, 27),
        (0, 45, 0.1): (8, 178, 186), (1, 45, 0.1): (8, 123, 131), (2, 45, 0.1): (8, 156, 164),
        (0, 60, 0.2): (5, 125, 130), (1, 60, 0.2): (5, 110, 115), (2, 60, 0.2): (8, 108, 116),
    }

    @pytest.mark.parametrize("seed, size, step", list(MANY_BASES))
    def test_many_basis_grid_matches_reference(self, caplog, seed, size, step):
        # Without a heavy diagonal the gamma slices need bases of their own.
        # Each new basis is certified on the box of the pending points, so
        # every value is read through views of the stacks; the box settles
        # no point a whole slice would not, so every start and count holds.
        p = many_basis_problem(np.random.default_rng(seed), size, size)
        with caplog.at_level(logging.INFO, logger="greylp"):
            got = satisfaction._solve_grid(p, _cube_layout(unit_grid(step)))
        [record] = [r for r in caplog.records if r.name.startswith("greylp")]
        cold, warm, bases = self.MANY_BASES[seed, size, step]
        points = len(got)
        assert record.getMessage() == (
            f"solve_grid: {points} points, {cold} cold solves, {warm} warm starts, "
            f"{points - cold - warm} certified, {bases} bases, 0 non-optimal"
        )
        assert_matches_reference(p, grid_triples(step), got)

    def test_later_bases_are_certified_on_the_box_of_pending_points(
        self, demo_problem, caplog, monkeypatch
    ):
        # After the first basis, the demo step-0.05 cube's pending points lie
        # in gamma slices 0-8 x betas 12-20, all alphas, so the second basis
        # is certified on those 9 x 21 x 9 entries alone, not on all 9 261.
        # The values and the record are those of whole-slice certification:
        # the first point left is solved cold, its basis is certified on
        # every slice (conftest.reference_certify), and the first basis
        # that certifies a point gives its value, bit for bit.
        certify = lp_solver._certify
        boxes, bases = [], []

        def recording(AI, CI, Bv, basis):
            boxes.append((len(AI), CI.shape[1], Bv.shape[1]))
            bases.append(basis)
            return certify(AI, CI, Bv, basis)

        monkeypatch.setattr(lp_solver, "_certify", recording)
        layout = _cube_layout(unit_grid(0.05))
        with caplog.at_level(logging.INFO, logger="greylp"):
            got = satisfaction._solve_grid(demo_problem, layout)
        assert boxes == [(21, 21, 21), (9, 21, 9)]
        A, C, Bv = _white_stack(demo_problem, *layout)
        want = np.full((len(A), C.shape[1], Bv.shape[1]), np.nan)
        for basis in bases:
            s, a, b = np.unravel_index(np.isnan(want).argmax(), want.shape)
            sol = solve_max(WhiteLP(c=C[s, a], A=A[s], b=Bv[s, b]))
            assert tuple(sorted(sol.basis)) == basis
            want[s, a, b] = sol.objective
            ok, f, _ = reference_certify(A, C, Bv, basis)
            np.copyto(want, f, where=ok & np.isnan(want))
        assert got.tobytes() == want.transpose(1, 2, 0).tobytes()
        [record] = [r.getMessage() for r in caplog.records if r.name.startswith("greylp")]
        assert record == (
            "solve_grid: 9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases, "
            "0 non-optimal"
        )

    def test_sweep_cube_solves_its_own_bounds(self, demo_problem, caplog):
        # One kernel call solves the cube, both bounds among its points: the
        # first point (0, 0, 0) cold, then (0, 0.6, 0), cube row 252 in the
        # gamma = 0 slice, cold too, since the first basis is primal
        # infeasible there.  The two bases then certify the rest of the grid.
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            grid_sweep(demo_problem, 0.05)
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: cold start, 2 pivots (0 degenerate), optimal",
            "solve_max: cold start, 2 pivots (0 degenerate), optimal",
            "solve_grid: 9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases, "
            "0 non-optimal",
        ]

    @pytest.mark.parametrize("size", [3, 10])
    @pytest.mark.parametrize("seed", range(5))
    def test_bound_rows_score_exactly(self, seed, size):
        # The cube's (0, 0, 1) and (1, 1, 0) points are the bounds
        # themselves, so their rows score exactly 0 and 1 at every lambda.
        p = many_basis_problem(np.random.default_rng(seed), size, size)
        t = grid_sweep(p, 0.25, lambdas=GRID_LAMBDAS)
        assert t.mu_tilde[row_of(t, (0.0, 0.0, 1.0))].tolist() == [0.0] * 3
        assert t.mu_tilde[row_of(t, (1.0, 1.0, 0.0))].tolist() == [1.0] * 3

    def test_uncertified_points_start_from_a_primal_feasible_basis(self, caplog):
        # The gamma slices of a 20x20 problem need bases of their own.  A
        # point no cached basis certifies is solved from the latest cached
        # basis that is primal feasible there, so the start is never
        # rejected and the solve takes a pivot or two; with none it is cold.
        p = random_bounded_problem(random.Random(5), n=20, m=20)
        triples = grid_triples(0.5)
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            got = satisfaction._solve_grid(p, _cube_layout(unit_grid(0.5)))
        *solves, summary = [r.getMessage() for r in caplog.records]
        starts = [message.split(",")[0] for message in solves]
        assert starts.count("solve_max: cold start") == 5
        assert starts.count("solve_max: warm start") == 8
        pivots = [int(m.split(", ")[1].split()[0]) for m in solves if "warm start" in m]
        assert max(pivots) <= 2
        assert summary == (
            "solve_grid: 27 points, 5 cold solves, 8 warm starts, 14 certified, 13 bases, "
            "0 non-optimal"
        )
        assert not np.isnan(got).any()
        assert_matches_reference(p, triples, got)

    def test_basis_singular_in_one_slice_certifies_the_others(self, caplog):
        # The basis {x} of UNCAPPED is the 1x1 matrix [gamma]: singular in
        # the gamma = 0 slice only, where the program is unbounded.  The
        # slices are certified together, and the singular one must neither
        # raise nor keep the others from being certified.  Its 121 points
        # are settled by the ray of its first one's cold solve.
        layout = _cube_layout(unit_grid(0.1))
        values, cache, cold, warm = _solve_points(*_white_stack(UNCAPPED, *layout), [(0,)])
        got = values.transpose(1, 2, 0).ravel()
        assert (cache, cold, warm, int(np.isnan(got).sum())) == ([(0,)], 1, 0, 121)
        assert_matches_reference(UNCAPPED, grid_triples(0.1), got)

    def test_ray_settles_only_the_objectives_that_gain_along_it(self):
        # One slice, max c.x s.t. [0, 1].x <= b.  The first point's cold
        # solve enters x1 (the lower of two equal reduced costs), whose
        # column is zero: its ray is d = (1, 0).  Objectives 0 and 2 gain
        # along it and are settled unbounded at both right-hand sides;
        # objective 1 (c1 = 0) does not, and is still solved.
        A = np.array([[[0.0, 1.0]]])
        C = np.array([[[1.0, 1.0], [0.0, 1.0], [2.0, 0.0]]])
        Bv = np.array([[[5.0], [6.0]]])
        values, cache, cold, warm = _solve_points(A, C, Bv)
        assert (cache, cold, warm) == ([(1,)], 2, 0)
        assert np.isnan(values[0, [0, 2]]).all()
        assert values[0, 1].tolist() == [5.0, 6.0]
        for a, b in itertools.product(range(3), range(2)):
            sol = solve_max(WhiteLP._of_arrays(C[0, a], A[0], Bv[0, b]))
            assert sol.status is (SolveStatus.UNBOUNDED if a != 1 else SolveStatus.OPTIMAL)

    def test_unbounded_slice_solves_the_objectives_without_gain(self, caplog):
        # c_lo = 0 for x1, whose column is zero at gamma = 0: there the
        # alpha = 0 objectives do not gain along x1 and are bounded, and
        # every other one is unbounded.  The first alpha > 0 point starts
        # warm from the alpha = 0 basis, and its ray settles the slice.
        p = GreyLP(objective=((0, 1), (1, 2)), matrix=(((0, 1), (1, 2)),), rhs=((5, 6),))
        with caplog.at_level(logging.INFO, logger="greylp"):
            got = satisfaction._solve_grid(p, _cube_layout(unit_grid(0.25)))
        assert_matches_reference(p, grid_triples(0.25), got)
        assert int(np.isnan(got).sum()) == 4 * 5
        [record] = [r for r in caplog.records if r.name.startswith("greylp")]
        assert record.getMessage() == (
            "solve_grid: 125 points, 1 cold solves, 2 warm starts, 122 certified, 2 bases, "
            "20 non-optimal"
        )

    def test_unbounded_rows_raise_solver_failure(self, demo_problem, tmp_path, monkeypatch,
                                                 capsys):
        # No valid problem has an unbounded positioned program under bounded
        # ideal values, so the grid kernel's answer is replaced here.
        # Rows 1 and 5 of a step-0.5 cube are not bounds, and neither is a
        # chosen setting's first point (0.5, 0.5, 0.5).
        real = satisfaction._solve_grid

        def with_holes(rows):
            def solve(p, layout):
                f = real(p, layout)
                f[rows] = np.nan
                return f
            return solve

        monkeypatch.setattr(analysis, "_solve_grid", with_holes([1, 5]))  # the cube's
        monkeypatch.setattr(satisfaction, "_solve_grid", with_holes(0))  # chosen settings'
        message = "positioned program at (0,0,0.5) is unbounded, but the ideal one is bounded"
        with pytest.raises(SolverFailure) as exc:
            grid_sweep(demo_problem, 0.5, lambdas=(0.5, 1.0))
        assert str(exc.value) == message
        with pytest.raises(SolverFailure, match=r"at \(0.5,0.5,0.5\) is unbounded"):
            lambda_sweep(demo_problem, [(0.5, 0.5, 0.5)] * 6, (0.5,))
        path = tmp_path / "demo.json"
        path.write_text(bundled.EXAMPLE_PROBLEM_JSON, encoding="utf-8")
        assert run(["sweep", "--file", str(path), "--step", "0.5"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestLambdaSweep:
    def test_reproduces_reference_grid(self, table):
        assert table.lambdas == tuple(REFERENCE_LAMBDA_GRID)
        assert table.mu_tilde.shape == (len(REFERENCE_SATISFACTION), len(REFERENCE_LAMBDA_GRID))
        assert not np.isnan(table.mu_tilde).any()
        for triple, refs in REFERENCE_SATISFACTION:
            i = row_of(table, triple)
            for lam, ref in zip(REFERENCE_LAMBDA_GRID, refs):
                got = table.mu_tilde[i, table.lambdas.index(lam)]
                assert got == pytest.approx(ref, abs=2e-4)

    def test_rows_sorted_lexicographically(self, table):
        coeffs = table.coefficients.tolist()
        assert coeffs == sorted(coeffs)

    @pytest.mark.parametrize("seed", range(3))
    def test_settings_that_share_gammas_and_repeat(self, seed):
        # Each setting is a slice of its own, repeats included.
        rng = random.Random(seed)
        p = random_bounded_problem(rng, n=4, m=4)
        settings = [grid_triple(rng) for _ in range(12)]
        settings += rng.sample(settings, 4)
        table = lambda_sweep(p, settings, (0.5,))
        coeffs = [tuple(t) for t in table.coefficients.tolist()]
        assert coeffs == sorted(settings)
        assert_matches_reference(p, coeffs, table.f)

    def test_no_settings_give_an_empty_table(self, demo_problem):
        table = lambda_sweep(demo_problem, [], (0.5,))
        assert table.coefficients.shape == (0, 3) and table.mu_tilde.shape == (0, 1)


class TestGridSweep:
    def test_half_step_covers_cube(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5)
        assert table.coefficients.shape == (27, 3) and table.f.shape == (27,)
        coeffs = table.coefficients.tolist()
        assert coeffs == sorted(coeffs) == [list(t) for t in grid_triples(0.5)]
        assert table.f[row_of(table, (1.0, 1.0, 0.0))] == pytest.approx(74783.51, abs=0.01)
        assert table.f[row_of(table, (0.0, 0.0, 1.0))] == pytest.approx(20657.71, abs=0.01)
        assert table.lambdas == () and table.mu_tilde.shape == (27, 0)

    def test_lambda_columns(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5, lambdas=(0.5, 1.0))
        assert table.lambdas == (0.5, 1.0) and table.mu_tilde.shape == (27, 2)
        got = table.mu_tilde[row_of(table, (1.0, 1.0, 0.0)), table.lambdas.index(1.0)]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_white_problem_sweeps_flat(self):
        p = GreyLP(objective=((2, 2),), matrix=(((1, 1),),), rhs=((4, 4),))
        table = grid_sweep(p, 0.5)
        values = set(table.f.tolist())
        assert len(values) == 1
        assert values.pop() == pytest.approx(8.0, rel=1e-12)

    def test_unbounded_ideal_rejects_the_sweep(self):
        # Unboundedness at any whitening implies the loosest whitening is
        # unbounded too, so no degree is definable and the sweep must refuse.
        p = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
        with pytest.raises(UnboundedValueError):
            grid_sweep(p, 0.5)

    @pytest.mark.parametrize("sweep", [
        lambda p, lambdas: grid_sweep(p, 0.25, lambdas=lambdas),
        lambda p, lambdas: lambda_sweep(p, ((0.5, 0.5, 0.5),), lambdas),
    ], ids=["grid_sweep", "lambda_sweep"])
    @pytest.mark.parametrize("lambdas, message", [
        ((2.0,), r"lam must be in \[0, 1\], got 2.0"),
        ((0.5, -0.1), r"lam must be in \[0, 1\], got -0.1"),
        ((math.nan,), r"lam must be in \[0, 1\], got nan"),
        (("x",), r"lam must be a number in \[0, 1\], got 'x'"),
        ((0.5, None), r"lam must be a number in \[0, 1\], got None"),
    ], ids=["above", "below", "nan", "text", "none"])
    def test_bad_lambdas_are_refused_before_any_solve(self, demo_problem, caplog, sweep,
                                                      lambdas, message):
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            with pytest.raises(DomainError, match=f"^{message}$"):
                sweep(demo_problem, lambdas)
        assert caplog.records == []

    def test_bad_lambda_is_refused_before_the_cube_is_built(self, demo_problem):
        # The step-0.01 cube holds 101**3 triples, about 24 MB of numbers.
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                grid_sweep(demo_problem, 0.01, lambdas=("x",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cube_too_large_to_hold_is_refused_before_it_is_whitened(self, demo_problem,
                                                                      monkeypatch):
        # The 10 001**3 cube of step 1e-4 needs 8 TB for its values, which
        # numpy refuses at once; the demo's whitened objective and
        # right-hand side stacks alone would fill 4 GB first.
        def no_whitening(*args):
            raise AssertionError("the cube was whitened")

        monkeypatch.setattr(satisfaction, "_white_stack", no_whitening)
        with pytest.raises(MemoryError):
            check_monotonicity(demo_problem, "alpha", 1e-4)

    def test_grid_commands_build_and_sort_no_triples(self, demo_problem, monkeypatch, tmp_path,
                                                     capsys):
        # Grid tables and hit lines take their coefficient cells from the
        # cube's shape; verify-example renders nothing.  So none of them
        # builds the cube's triples or a text per coefficient cell.
        def refused(*args):
            raise AssertionError("triples or per-cell texts were built")

        for name in ("_cube_rows", "_row_cells"):
            monkeypatch.setattr(analysis, name, refused)
        path = tmp_path / "demo.json"
        path.write_text(bundled.EXAMPLE_PROBLEM_JSON, encoding="utf-8")
        for argv in (
            ["sweep", "--file", str(path), "--step", "0.05", "--lambdas", "0.25,0.5,0.75,1"],
            ["satisfactory", "--file", str(path), "--mu0", "0.4", "--lambda", "0.9",
             "--step", "0.05"],
            ["verify-example"],
        ):
            assert run(argv) == 0, argv
        assert capsys.readouterr().err == ""
        assert render_table(grid_sweep(demo_problem, 0.1, lambdas=(0.5,)), "csv")

    def test_table_holds_its_columns_and_the_grid_only(self, demo_problem):
        # 8 * (2 + L) bytes per row (f, mu, and mu_tilde at each lambda),
        # plus the grid values; the triples are built on first access.
        lambdas = (0.25, 0.5, 0.75, 1.0)
        table = grid_sweep(demo_problem, 0.05, lambdas=lambdas)
        arrays = [a if a.base is None else a.base for a in vars(table).values()
                  if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 8 * (2 + len(lambdas)) * 21**3
        assert "coefficients" not in vars(table) and len(table._grid) == 21
        coefficients = table.coefficients
        assert coefficients.tolist() == [list(t) for t in grid_triples(0.05)]
        assert table.coefficients is coefficients


class TestCheckMonotonicity:
    @pytest.mark.parametrize("axis", ["alpha", "beta", "gamma"])
    def test_demo_problem_ordering_holds(self, demo_problem, axis):
        report = check_monotonicity(demo_problem, axis, 0.25)
        assert report.ok
        assert report.violations == ()
        assert report.skipped == ()
        pairs = analysis._probed_pairs(
            report.axis_values, analysis._AXES[axis], range(report.pair_count)
        )
        assert report.pair_count == len(pairs) == 100  # 4 adjacent pairs x 25 fixed settings
        expected = "nonincreasing" if axis == "gamma" else "nondecreasing"
        assert report.direction == expected

    def test_rejects_unknown_axis(self, demo_problem):
        with pytest.raises(DomainError):
            check_monotonicity(demo_problem, "delta", 0.25)

    def test_unbounded_settings_are_skipped(self):
        p = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
        report = check_monotonicity(p, "gamma", 0.5)
        assert report.ok
        assert report.skipped  # pairs touching the uncapped settings

    def test_random_problems_hold_ordering(self):
        rng = random.Random(99)
        for _ in range(5):
            p = random_bounded_problem(rng, n=2, m=2)
            for axis in ("alpha", "beta", "gamma"):
                assert check_monotonicity(p, axis, 0.5).ok

    @pytest.mark.parametrize("axis", ["alpha", "beta", "gamma"])
    def test_peak_memory_holds_no_per_point_index_arrays(self, demo_problem, axis):
        # At its peak the 51**3-point cube holds its values, masks, the
        # rectangles of one certification and the rows that reorder it:
        # about 46 bytes a point.  Per-point int64 indices into the stack
        # (slice, objective, right-hand side) would add 8 bytes each.
        g = len(unit_grid(0.02))
        tracemalloc.start()
        try:
            check_monotonicity(demo_problem, axis, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * g**3

    @staticmethod
    def _probe_order(grid, pos):
        """Every probed pair, listed as the report lists them: the other two
        axes in lexicographic order, then the probed one."""
        return [
            (fixed[:pos] + (lo,) + fixed[pos:], fixed[:pos] + (hi,) + fixed[pos:])
            for fixed in itertools.product(grid, repeat=2)
            for lo, hi in itertools.pairwise(grid)
        ]

    @pytest.mark.parametrize("pos, axis", enumerate(["alpha", "beta", "gamma"]))
    def test_grid_lists_every_pair_in_probe_order(self, demo_problem, pos, axis):
        report = check_monotonicity(demo_problem, axis, 0.2)
        expected = self._probe_order(unit_grid(0.2), pos)
        assert report.axis_values == unit_grid(0.2)
        pairs = analysis._probed_pairs(report.axis_values, pos, range(report.pair_count))
        assert list(pairs) == expected
        assert report.pair_count == len(expected) == 6 * 6 * 5

    def test_skipped_pairs_touch_a_non_optimal_setting(self):
        p = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
        report = check_monotonicity(p, "alpha", 0.5)
        pairs = self._probe_order(unit_grid(0.5), 0)
        status = dict(zip(
            (t for pair in pairs for t in pair),
            (s for s, _ in reference_grid(p, [t for pair in pairs for t in pair])),
        ))
        expected = [pair for pair in pairs if any(status[t] is not SolveStatus.OPTIMAL for t in pair)]
        assert list(report.skipped) == expected and expected

    @pytest.mark.parametrize("pos, axis", enumerate(["alpha", "beta", "gamma"]))
    def test_violations_name_the_failing_pairs(self, monkeypatch, demo_problem, pos, axis):
        grid = unit_grid(0.25)
        cube = np.array(list(itertools.product(grid, repeat=3)))
        f = 100.0 * cube[:, pos] * (-1.0 if axis == "gamma" else 1.0) + 1000.0
        f[37] += 90.0  # breaks the ordering next to this setting
        monkeypatch.setattr(analysis, "_solve_grid", lambda p, layout: f)
        report = check_monotonicity(demo_problem, axis, 0.25)
        value = dict(zip(map(tuple, cube.tolist()), f.tolist()))
        sign = -1.0 if axis == "gamma" else 1.0
        expected = [
            (pair, (value[pair[0]], value[pair[1]]))
            for pair in self._probe_order(grid, pos)
            if sign * (value[pair[1]] - value[pair[0]]) < -1e-6 * 1090.0
        ]
        assert list(report.violations) == expected and expected

    def test_pairs_are_built_only_for_violations_and_skips(self, monkeypatch):
        built = []
        real = analysis._probed_pairs

        def counting(grid, pos, index):
            built.append(len(index))
            return real(grid, pos, index)

        monkeypatch.setattr(analysis, "_probed_pairs", counting)
        p = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
        report = check_monotonicity(p, "gamma", 0.05)
        assert sum(built) == len(report.violations) + len(report.skipped) < report.pair_count


def hit_list(found) -> list:
    """``find_satisfactory``'s arrays as a list of (triple, degree) pairs."""
    triples, degrees = found
    assert triples.shape == (len(degrees), 3) and degrees.shape == (len(degrees),)
    return [(tuple(t), d) for t, d in zip(triples.tolist(), degrees.tolist())]


class TestFindSatisfactory:
    def test_demo_search(self, demo_problem):
        hits = hit_list(find_satisfactory(demo_problem, mu0=0.5, lam=0.8, step=0.5))
        assert len(hits) == 9
        assert hits[0][0] == (1.0, 1.0, 0.0)
        assert hits[0][1] == pytest.approx(1.0, abs=1e-12)
        values = [value for _, value in hits]
        assert values == sorted(values, reverse=True)
        assert all(value >= 0.5 for value in values)

    def test_zero_target_accepts_everything(self, demo_problem):
        hits = hit_list(find_satisfactory(demo_problem, mu0=0.0, lam=1.0, step=0.5))
        assert len(hits) == 27

    def test_impossible_target(self, demo_problem):
        # Degrees below 1 everywhere except the loosest corner.
        hits = hit_list(find_satisfactory(demo_problem, mu0=1.0, lam=1.0, step=0.5))
        assert [triple for triple, _ in hits] == [(1.0, 1.0, 0.0)]

    def test_ties_keep_lexicographic_order(self):
        # Only the objective is grey, so the optimum depends on alpha alone
        # and every alpha ties across all (beta, gamma).
        p = GreyLP(objective=((1, 2), (1, 3)), matrix=(((1, 1), (2, 2)),), rhs=((4, 4),))
        hits = hit_list(find_satisfactory(p, mu0=0.0, lam=0.5, step=0.1))
        assert len(hits) == 11**3
        expected = sorted(hits, key=lambda hit: (-hit[1], hit[0]))
        assert hits == expected
        assert len({value for _, value in hits}) == 11

    def test_degrees_equal_up_to_rounding_are_listed_by_triple(self, demo_problem, monkeypatch):
        # Two rows whose degrees differ by 1 ulp (solver rounding) tie, and
        # so come out in triple order, not in the order of the rounding.
        low = 0.7
        high = float(np.nextafter(low, 1.0))
        # The step-0.5 cube's degrees in lexicographic order: rows 1, 3 and
        # 24 are (0, 0, 0.5), (0, 0.5, 0) and (1, 1, 0).
        degree = np.zeros(27)
        degree[[1, 3, 24]] = [low, high, 1.0]
        monkeypatch.setattr(analysis, "lambda_satisfactions", lambda f, vb, lam: degree)
        hits = hit_list(find_satisfactory(demo_problem, mu0=0.5, lam=0.5, step=0.5))
        assert hits == [((1.0, 1.0, 0.0), 1.0), ((0.0, 0.0, 0.5), low), ((0.0, 0.5, 0.0), high)]

    @pytest.mark.parametrize("kwargs", [{"mu0": 1.5}, {"lam": -0.2}])
    def test_rejects_bad_thresholds(self, demo_problem, kwargs):
        merged = {"mu0": 0.5, "lam": 0.5, "step": 0.5, **kwargs}
        with pytest.raises(DomainError):
            find_satisfactory(demo_problem, **merged)


class TestRenderTable:
    def test_lambda_table_renders_one_row_per_triple(self, demo_problem):
        table = lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)
        text = render_table(table, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + len(TABLE_TRIPLES)
        assert rows[0] == ["alpha", "beta", "gamma", "f", "mu"] + [
            "mu_tilde[%g]" % lam for lam in REFERENCE_LAMBDA_GRID
        ]
        # Spot-check a reference cell: the (0.6, 0.6, 0.6) row at lam=0.5.
        row = next(r for r in rows[1:] if r[:3] == ["0.6", "0.6", "0.6"])
        assert row[rows[0].index("mu_tilde[0.5]")] == "0.3659"
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_lambda_sweep_of_a_cube_renders_as_its_grid_sweep(self, demo_problem, fmt):
        cube = grid_triples(0.25)
        table = lambda_sweep(demo_problem, cube, (0.5, 1))
        assert render_table(table, fmt) == render_table(
            grid_sweep(demo_problem, 0.25, (0.5, 1)), fmt
        )

    def test_grid_table_renders_one_row_per_record(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5)
        text = render_table(table, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 27
        assert rows[0] == ["alpha", "beta", "gamma", "f", "mu"]
        first = rows[1]
        assert first[:3] == ["0", "0", "0"]
        assert first[3] == "35704.92"

    def test_markdown_layout(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5)
        text = render_table(table, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| alpha | beta | gamma |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert len(lines) == 2 + 27

    def test_empty_table(self):
        assert render_table(table_of((), ()), "csv") == "alpha,beta,gamma,f,mu\n"
        text = render_table(table_of((), (0.5, 1)), "csv")
        assert text == "alpha,beta,gamma,f,mu,mu_tilde[0.5],mu_tilde[1]\n"

    def test_empty_markdown_table(self):
        assert render_table(table_of((), (0.25,)), "markdown") == (
            "| alpha | beta | gamma | f | mu | mu_tilde[0.25] |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
        )

    def test_rejects_unknown_format(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5)
        with pytest.raises(DomainError):
            render_table(table, "tsv")

    def test_rendering_is_deterministic(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5, lambdas=(0.5,))
        assert render_table(table, "csv") == render_table(table, "csv")


def _ulp_neighbours(values, steps):
    """``values`` moved by each of ``steps`` ulps (negative steps go down)."""
    out = []
    for step in steps:
        moved = values
        for _ in range(abs(step)):
            moved = np.nextafter(moved, np.inf if step > 0 else -np.inf)
        out.append(moved)
    return np.concatenate(out)


def _near_ties(decimals):
    """(k + 0.5) / 10**decimals for an integer k, give or take a few ulps:
    where rounding to ``decimals`` decimals is closest to a tie."""
    return st.builds(
        lambda k, ulps: _ulp_neighbours(np.array([(k + 0.5) / 10**decimals]), [ulps])[0],
        st.integers(-5000, 10**(12 - decimals)), st.integers(-3, 3),
    )


def _formatted(coefficients, columns, decimals, empty, seps):
    """The text ``analysis._format_rows`` writes for these rows, their
    coefficient cells from ``analysis._row_cells``."""
    cells = analysis._row_cells(coefficients)
    return "".join(analysis._format_rows(cells, columns, decimals, empty, seps))


def _reference_rows(coefficients, columns, decimals, empty, seps):
    """The same rows formatted a cell at a time with "%g" and "%.*f"."""
    values = np.column_stack([np.reshape(column, (len(coefficients), -1)) for column in columns])
    lines = []
    for triple, row in zip(coefficients.tolist(), values.tolist()):
        cells = ["%g" % v for v in triple]
        cells += [e if v != v else "%.*f" % (k, v) for v, k, e in zip(row, decimals, empty)]
        lines.append(seps[0] + "".join(cell + sep for cell, sep in zip(cells, seps[1:])))
    return "".join(lines)


def _column_texts(values, decimals, empty="nan"):
    """The cells ``analysis._format_rows`` writes for one column of values."""
    values = np.asarray(values, dtype=float)
    text = _formatted(np.zeros((len(values), 0)), (values,), [decimals], [empty], ["", "\n"])
    return text.split("\n")[:-1]


def _percent(values, decimals, empty="nan"):
    return [empty if v != v else "%.*f" % (decimals, v) for v in np.asarray(values).tolist()]


class TestFormatRows:
    """Value cells come from digit groups wherever that is provably exact
    and are formatted on their own elsewhere; every text must be the one
    "%g" (coefficients) or "%.*f" (values) prints, in every block."""

    @pytest.mark.parametrize("decimals", [2, 4])
    @given(data=st.data())
    def test_matches_percent_format(self, decimals, data):
        values = data.draw(st.lists(
            st.one_of(
                st.floats(-0.5, 1.5),
                st.floats(0.0, 10.0 ** (12 - decimals)),
                _near_ties(decimals),
                st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=40,
        ))
        assert _column_texts(values, decimals) == _percent(values, decimals)

    @pytest.mark.parametrize("decimals", [2, 4])
    def test_every_tie_and_code(self, decimals):
        # Every code of [-0.5, 1.5] at 4 decimals, and of [-50, 150] at 2,
        # with every tie between them and its ulp neighbours.
        k = np.arange(-5000, 15000)
        ties = (k + 0.5) / 10**decimals
        special = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf]
        values = np.concatenate([
            _ulp_neighbours(ties, [0, 1, 2, -1, -2]),
            np.arange(-5000, 15001) / 10**decimals,
            special,
        ])
        assert _column_texts(values, decimals) == _percent(values, decimals)

    @pytest.mark.parametrize("decimals", [2, 4])
    def test_digit_group_boundaries(self, decimals):
        # Where the whole part gains a digit or a digit group, and the ties
        # just below: 9 999.995 rounds to 10 000.00 or 9 999.99.
        bases = [10.0**k for k in range(13)] + [10.0**k - 0.5 / 10**decimals for k in range(11)]
        bases += [9999.995, 1e4, 1e8, 99999999.99995, 123456789.125]
        values = _ulp_neighbours(np.array(bases), [0, 1, 2, 3, -1, -2, -3])
        assert _column_texts(values, decimals) == _percent(values, decimals)

    @pytest.mark.parametrize("decimals", [2, 4])
    def test_exactness_limit(self, decimals):
        # Values below 10**(12 - d) take the digit path, the limit and
        # above are formatted on their own; both give "%.*f"'s text.
        limit = 10.0 ** (12 - decimals)
        below = _ulp_neighbours(np.array([limit]), [-1, -2, -3, -1000])
        beyond = _ulp_neighbours(np.array([limit]), [0, 1, 2])
        values = np.concatenate([below, beyond, [1e300, 2.0**53, 1e12 + 0.5]])
        _, _, fallback = analysis._value_words(values[None], [decimals], ["nan"])
        assert sorted(r for _, r in fallback) == list(range(len(below), len(values)))
        assert _column_texts(values, decimals) == _percent(values, decimals)

    def test_signs_infinities_and_nan(self):
        values = [-0.0, -1e-9, -0.00005, -0.5, -1234.5678, math.inf, -math.inf, math.nan, 0.25]
        for decimals in (2, 4):
            assert _column_texts(values, decimals) == _percent(values, decimals)
            assert _column_texts(values, decimals, "") == _percent(values, decimals, "")

    def test_fallback_text_wider_than_the_field(self):
        # One cell far wider than its column's digits widens the column's
        # field in its block only; an empty text can be wide too.
        values = np.full(3000, 0.125)
        values[[5, 1500]] = 1.5e300, -2.5e200
        values[2999] = math.nan
        empty = "no value at this setting"
        assert _column_texts(values, 2, empty) == _percent(values, 2, empty)

    @pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2048, 2049, 3100])
    def test_block_edges(self, rows):
        # Rows at and around block edges, with coefficients of several
        # widths (-0.0 keeps its sign), degrees whose whole part changes
        # width, and cells formatted on their own on either side of an edge.
        assert analysis._BLOCK == 1024
        rng = np.random.default_rng(rows)
        coefficients = rng.choice([0.0, -0.0, 0.05, 1.0, 1 / 3, 1e-05, 0.123456789], (rows, 3))
        coefficients[: rows // 2] = 1.0  # blocks whose coefficient texts differ in width
        f = rng.uniform(0.0, 1e5, rows) * rng.choice([1e-4, 1.0, 1e4], rows)
        degrees = rng.uniform(-0.01, 1.0, (rows, 3))
        for r in (1023, 1024, 2047, 2048, rows - 1):
            if r < rows:
                f[r], degrees[r, 0] = math.inf, math.nan
        args = (coefficients, (f, degrees), [2, 4, 4, 4], ["nan", "", "", ""],
                ["| ", " | ", " | ", " | ", " | ", " | ", " | ", " |\n"])
        assert _formatted(*args) == _reference_rows(*args)

    @pytest.mark.parametrize("rows", [1, 1024, 1025, 3000])
    def test_grid_cells_match_the_cells_of_their_triples(self, rows):
        # Cube rows in any order, across block edges, as the satisfactory
        # command's hits index them.
        grid = unit_grid(0.05)
        flat = np.random.default_rng(rows).permutation(len(grid) ** 3)[:rows]
        degrees = np.linspace(0.0, 1.0, rows)
        args = ((degrees,), [4], ["nan"], ["  alpha=", " beta=", " gamma=", "  mu_tilde=", "\n"])
        text = "".join(analysis._format_rows(analysis._grid_cells(grid, flat), *args))
        assert text == _formatted(analysis._cube_rows(grid, flat), *args)
        assert text == _reference_rows(analysis._cube_rows(grid, flat), *args)

    def test_hit_lines_of_the_satisfactory_command(self):
        triples = np.array([(1.0, 1.0, 0.0), (0.5, -0.0, 0.25), (1 / 3, 0.05, 1e-05)])
        degrees = np.array([1.0, 0.99995, 0.5])
        seps = ["  alpha=", " beta=", " gamma=", "  mu_tilde=", "\n"]
        assert _formatted(triples, (degrees,), [4], ["nan"], seps) == (
            "  alpha=1 beta=1 gamma=0  mu_tilde=1.0000\n"
            "  alpha=0.5 beta=-0 gamma=0.25  mu_tilde=1.0000\n"
            "  alpha=0.333333 beta=0.05 gamma=1e-05  mu_tilde=0.5000\n"
        )

    def test_no_rows(self):
        seps = ["  alpha=", " beta=", " gamma=", "  mu_tilde=", "\n"]
        assert _formatted(np.zeros((0, 3)), (np.zeros(0),), [4], ["nan"], seps) == ""
        assert _formatted(np.zeros((0, 3)), (np.zeros(0), np.zeros((0, 2))), [2, 4, 4],
                          ["nan", "", ""], ["", ",", ",", ",", ",", ",", "\n"]) == ""

    def test_digit_table_is_built_once_and_read_only(self):
        table = analysis._digit_groups()
        assert table is analysis._digit_groups()
        assert not table.flags.writeable
        texts = table.view(np.uint8).reshape(10_000, 4)
        assert [bytes(row).decode() for row in texts] == ["%04d" % g for g in range(10_000)]


class TestRenderMatchesReference:
    """Byte-for-byte comparisons with the per-row reference renderer of
    ``conftest``, which scores each row with the float-at-a-time degrees."""

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_grid_table(self, demo_problem, fmt):
        rows = reference_records(demo_problem, grid_triples(0.1), GRID_LAMBDAS)
        table = grid_sweep(demo_problem, 0.1, lambdas=GRID_LAMBDAS)
        assert render_table(table, fmt) == reference_render(GRID_LABELS, rows, GRID_LAMBDAS, fmt)

    def test_cli_markdown_grid_table(self, demo_problem, tmp_path, capsys):
        # The CLI's CSV table is compared in TestSolveGrid.
        path = tmp_path / "demo.json"
        path.write_text(bundled.EXAMPLE_PROBLEM_JSON, encoding="utf-8")
        argv = ["sweep", "--file", str(path), "--step", "0.1", "--lambdas", "0,0.5,1",
                "--format", "markdown"]
        assert run(argv) == 0
        rows = reference_records(demo_problem, grid_triples(0.1), GRID_LAMBDAS)
        assert capsys.readouterr().out == reference_render(
            GRID_LABELS, rows, GRID_LAMBDAS, "markdown"
        )

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_lambda_table(self, demo_problem, fmt):
        labels = GRID_LABELS[:5] + tuple("mu_tilde[%g]" % lam for lam in REFERENCE_LAMBDA_GRID)
        rows = reference_records(demo_problem, sorted(TABLE_TRIPLES), REFERENCE_LAMBDA_GRID)
        table = lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)
        assert render_table(table, fmt) == reference_render(
            labels, rows, REFERENCE_LAMBDA_GRID, fmt
        )

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_undefined_pleased_degrees_render_empty(self, fmt):
        # At ideal value zero the pleased degree is undefined (NaN), and its
        # cells render empty ("-" in Markdown).
        p = GreyLP(objective=((0, 0),), matrix=(((1, 2),),), rhs=((1, 2),))
        table = grid_sweep(p, 0.5)
        assert np.isnan(table.mu).all()
        rows = reference_records(p, grid_triples(0.5), ())
        assert render_table(table, fmt) == reference_render(GRID_LABELS[:5], rows, (), fmt)

    def test_rendering_spans_several_chunks(self, demo_problem):
        # 21**3 rows render in chunks of 1024; the text must not change at a
        # chunk edge.
        table = grid_sweep(demo_problem, 0.05, lambdas=(0.5,))
        text = render_table(table, "csv")
        assert text.count("\n") == 1 + 21**3
        rows = reference_records(demo_problem, grid_triples(0.05), (0.5,))
        assert text == reference_render(GRID_LABELS[:5] + ("mu_tilde[0.5]",), rows, (0.5,), "csv")


class TestCollectorPause:
    """Grid commands run with the cyclic collector on (only problem-file
    decoding pauses it; ``tests/test_cli.py`` covers that pause).  Their
    results are arrays, not one tracked object per row, so a call starts at
    most one collection and its run time does not grow with what else is
    alive."""

    def test_sweep_and_render_collect_at_most_once(self, demo_problem):
        table, started = count_collections(
            lambda: grid_sweep(demo_problem, 0.05, lambdas=(0.5, 1.0))
        )
        assert len(table.f) == 21**3 and started <= 1
        text, started = count_collections(lambda: render_table(table, "csv"))
        assert text.count("\n") == 1 + 21**3 and started <= 1

    def test_satisfactory_search_collects_at_most_once(self, demo_problem):
        (triples, degrees), started = count_collections(
            lambda: find_satisfactory(demo_problem, 0.4, 0.9, 0.02)
        )
        assert len(triples) == len(degrees) == 62_800 and started <= 1

    def test_monotonicity_check_collects_at_most_once(self, demo_problem):
        report, started = count_collections(
            lambda: check_monotonicity(demo_problem, "gamma", 0.02)
        )
        assert report.pair_count == 51 * 51 * 50 and report.ok and started <= 1


def _checked(name, interval="[0, 1]"):
    """The error of the one number check for the argument ``name``."""
    def error(value, shown):
        if shown is None:
            return DomainError, f"{name} must be a number in {interval}, got {value!r}"
        return DomainError, f"{name} must be in {interval}, got {shown}"
    return error


def _row_checked(name):
    """The error of a triple whose entry for ``name`` is ``value``."""
    def error(value, shown):
        if shown is None:
            return StructureError, "triples must be (alpha, beta, gamma) rows"
        return _checked(f"position coefficient in {name}")(value, shown)
    return error


_STEP = _checked("grid step", "(0, 0.5]")

# Every library argument that must be a number in [0, 1], every entry of a
# uniform triple and the grid step: each call passes ``v`` for one of them.
_ENTRY_POINTS = {
    "uniform_coefficients(alpha)": (
        lambda p, vb, v: uniform_coefficients(v, 0.5, 0.5, p.m, p.n),
        _checked("position coefficient in alphas"),
    ),
    "uniform_coefficients(gamma)": (
        lambda p, vb, v: uniform_coefficients(0.5, 0.5, v, p.m, p.n),
        _checked("position coefficient in gammas"),
    ),
    "uniform_coefficients(beta)": (
        lambda p, vb, v: uniform_coefficients(0.5, v, 0.5, p.m, p.n),
        _checked("position coefficient in betas"),
    ),
    "lambda_satisfaction": (lambda p, vb, v: lambda_satisfaction(30000.0, vb, v), _checked("lam")),
    "lambda_satisfactions": (
        lambda p, vb, v: lambda_satisfactions(np.array([30000.0]), vb, v), _checked("lam")
    ),
    "grid_sweep(lambdas)": (lambda p, vb, v: grid_sweep(p, 0.5, lambdas=(v,)), _checked("lam")),
    "lambda_sweep(lambdas)": (
        lambda p, vb, v: lambda_sweep(p, [(0.5, 0.5, 0.5)], (0.5, v)), _checked("lam")
    ),
    "find_satisfactory(mu0)": (
        lambda p, vb, v: find_satisfactory(p, v, 0.5, 0.5), _checked("mu0")
    ),
    "find_satisfactory(lam)": (
        lambda p, vb, v: find_satisfactory(p, 0.5, v, 0.5), _checked("lam")
    ),
    "lambda_sweep(triples)": (
        lambda p, vb, v: lambda_sweep(p, [(0.5, v, 0.5)], (0.5,)), _row_checked("betas")
    ),
    "unit_grid": (lambda p, vb, v: unit_grid(v), _STEP),
    "grid_sweep(step)": (lambda p, vb, v: grid_sweep(p, v), _STEP),
    "find_satisfactory(step)": (lambda p, vb, v: find_satisfactory(p, 0.5, 0.5, v), _STEP),
    "check_monotonicity(step)": (lambda p, vb, v: check_monotonicity(p, "alpha", v), _STEP),
}


class TestBadArguments:
    """One check serves every argument above: a value that is not a real
    number (a bool, a string, None; ``float()`` takes some of them) and a
    number outside the range (NaN, and an integer past float range, read as
    an infinity) each raise one error text, never a bare Python error."""

    @pytest.mark.parametrize("value, shown", [
        ("0.5", None),
        (True, None),
        (np.True_, None),
        (None, None),
        (10**400, "inf"),
        (math.nan, "nan"),
        (-0.1, "-0.1"),
        (1.5, "1.5"),
        (2, "2.0"),
    ], ids=["text", "bool", "numpy-bool", "none", "huge-int", "nan", "below", "above", "int"])
    def test_every_entry_point_raises_the_checks_text(self, demo_problem, demo_bounds,
                                                       value, shown):
        got, want = {}, {}
        for entry, (call, error) in _ENTRY_POINTS.items():
            try:
                got[entry] = ("returned", repr(call(demo_problem, demo_bounds, value)))
            except Exception as exc:  # a leaked Python error shows in the diff
                got[entry] = (type(exc), str(exc))
            want[entry] = error(value, shown)
        assert got == want


def test_grid_sweep_of_the_demo_at_step_0_1(demo_problem):
    table = grid_sweep(demo_problem, 0.1, lambdas=(0.5, 1.0))
    assert len(table.f) == 11**3
