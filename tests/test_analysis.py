"""Sweeps, monotonicity checks, satisfactory search, and table rendering."""

import csv
import gc
import io
import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    random_bounded_problem,
    random_loose_problem,
    random_triple,
    reference_grid,
    reference_records,
    reference_render,
)
from greylp import (
    DomainError,
    GreyLP,
    GridSolution,
    SolveStatus,
    UnboundedValueError,
    SatisfactionRecord,
    StructureError,
    SweepTable,
    ValidationError,
    ValueBounds,
    bundled,
    check_monotonicity,
    find_satisfactory,
    grid_sweep,
    lambda_sweep,
    render_table,
    run,
    solve_grid,
    unit_grid,
)
from greylp import analysis
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


@pytest.fixture(scope="module")
def table(demo_problem):
    return lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)


def grid_triples(step):
    return list(itertools.product(unit_grid(step), repeat=3))


UNCAPPED = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
GRID_LAMBDAS = (0.0, 0.5, 1.0)
GRID_LABELS = ("alpha", "beta", "gamma", "f", "mu", "mu_tilde[0]", "mu_tilde[0.5]", "mu_tilde[1]")


class TestSolveGrid:
    @given(seed=st.integers(0, 2**32 - 1), loose=st.booleans())
    def test_matches_per_point_reference(self, seed, loose):
        rng = random.Random(seed)
        p = random_loose_problem(rng) if loose else random_bounded_problem(rng)
        triples = grid_triples(0.25) + [random_triple(rng) for _ in range(8)]
        got = solve_grid(p, triples)
        assert len(got.status) == len(got.objective) == len(triples)
        for (status, f), got_status, got_f in zip(
            reference_grid(p, triples), got.status, got.objective.tolist()
        ):
            assert got_status is status
            if f is None:
                assert math.isnan(got_f)
            else:
                assert abs(got_f - f) <= 1e-9 * max(1.0, abs(f))

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
        with pytest.raises(StructureError):
            solve_grid(demo_problem, [(0.5, 0.5)])

    def test_empty_batch(self, demo_problem):
        got = solve_grid(demo_problem, [])
        assert got.status == () and got.objective.shape == (0,)

    @pytest.mark.parametrize(
        "problem, step, message",
        [
            (
                "demo", 0.05,
                "9261 points, 2 cold solves, 0 warm starts, 9259 certified, 2 bases, "
                "0 non-optimal",
            ),
            (
                "uncapped", 0.5,
                "27 points, 10 cold solves, 0 warm starts, 17 certified, 1 bases, 9 non-optimal",
            ),
        ],
    )
    def test_logs_counters(self, demo_problem, caplog, problem, step, message):
        p = demo_problem if problem == "demo" else UNCAPPED
        with caplog.at_level(logging.INFO, logger="greylp"):
            solve_grid(p, grid_triples(step))
        [record] = [r for r in caplog.records if r.name.startswith("greylp")]
        assert record.levelno == logging.INFO
        assert record.getMessage() == "solve_grid: " + message

    def test_sweep_starts_from_the_bounds_bases(self, demo_problem, caplog):
        # The critical solve is cold; the ideal program rejects the critical
        # basis (it is primal infeasible there) and is solved cold too.  The
        # two bases then certify the whole grid.
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            grid_sweep(demo_problem, 0.05)
        assert [r.getMessage() for r in caplog.records] == [
            "solve_max: cold start, 0 phase-1 pivots, 3 phase-2 pivots, optimal",
            "solve_max: cold start (start rejected: primal infeasible), 0 phase-1 pivots, "
            "2 phase-2 pivots, optimal",
            "solve_grid: 9261 points, 0 cold solves, 0 warm starts, 9261 certified, 2 bases, "
            "0 non-optimal",
        ]

    def test_uncertified_points_start_from_a_primal_feasible_basis(self, caplog):
        # The gamma slices of a 20x20 problem need bases of their own.  A
        # point no cached basis certifies is solved from the latest cached
        # basis that is primal feasible there, so the start is never
        # rejected and phase 2 takes a pivot or two; with none it is cold.
        p = random_bounded_problem(random.Random(5), n=20, m=20)
        triples = grid_triples(0.5)
        with caplog.at_level(logging.DEBUG, logger="greylp"):
            got = solve_grid(p, triples)
        *solves, summary = [r.getMessage() for r in caplog.records]
        starts = [message.split(",")[0] for message in solves]
        assert starts.count("solve_max: cold start") == 5
        assert starts.count("solve_max: warm start") == 8
        phase2 = [int(m.split(", ")[2].split()[0]) for m in solves if "warm start" in m]
        assert max(phase2) <= 2
        assert summary == (
            "solve_grid: 27 points, 5 cold solves, 8 warm starts, 14 certified, 13 bases, "
            "0 non-optimal"
        )
        for (status, f), got_status, got_f in zip(
            reference_grid(p, triples), got.status, got.objective.tolist()
        ):
            assert got_status is status
            assert abs(got_f - f) <= 1e-9 * max(1.0, abs(f))

    def test_basis_singular_in_one_slice_certifies_the_others(self, caplog):
        # The basis {x} of UNCAPPED is the 1x1 matrix [gamma]: singular in
        # the gamma = 0 slice only, where the program is unbounded.  The
        # slices are certified together, and the singular one must neither
        # raise nor keep the others from being certified.
        triples = grid_triples(0.1)
        with caplog.at_level(logging.INFO, logger="greylp"):
            got = analysis._solve_grid(UNCAPPED, np.array(triples), bases=[(0,)])
        [record] = [r for r in caplog.records if r.name.startswith("greylp")]
        assert record.getMessage() == (
            "solve_grid: 1331 points, 121 cold solves, 0 warm starts, 1210 certified, 1 bases, "
            "121 non-optimal"
        )
        for (status, f), got_status, got_f in zip(
            reference_grid(UNCAPPED, triples), got.status, got.objective.tolist()
        ):
            assert got_status is status
            if f is None:
                assert math.isnan(got_f)
            else:
                assert abs(got_f - f) <= 1e-9 * max(1.0, abs(f))


class TestLambdaSweep:
    def test_reproduces_reference_grid(self, table):
        by_triple = {r.coefficients: r for r in table.rows}
        for triple, refs in REFERENCE_SATISFACTION:
            record = by_triple[triple]
            for lam, ref in zip(REFERENCE_LAMBDA_GRID, refs):
                assert record.mu_tilde_at(lam) == pytest.approx(ref, abs=2e-4)

    def test_rows_sorted_lexicographically(self, table):
        coeffs = [r.coefficients for r in table.rows]
        assert coeffs == sorted(coeffs)

    def test_axis_labels_mark_pivot_layout(self, table):
        assert table.pivoted
        assert table.axis_labels[0] == "lambda"
        assert len(table.axis_labels) == 1 + len(TABLE_TRIPLES)
        assert table.lambdas == tuple(REFERENCE_LAMBDA_GRID)

    def test_missing_lambda_lookup_raises(self, table):
        with pytest.raises(KeyError):
            table.rows[0].mu_tilde_at(0.123)

    def test_rejects_invalid_problem(self):
        bad = GreyLP(objective=((2, 1),), matrix=(((1, 2),),), rhs=((3, 4),))
        with pytest.raises(ValidationError):
            lambda_sweep(bad, ((0.5, 0.5, 0.5),), (0.5,))


class TestGridSweep:
    def test_half_step_covers_cube(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5)
        assert len(table.rows) == 27
        coeffs = [r.coefficients for r in table.rows]
        assert coeffs == sorted(coeffs)
        by_triple = {r.coefficients: r for r in table.rows}
        assert by_triple[(1.0, 1.0, 0.0)].f == pytest.approx(74783.51, abs=0.01)
        assert by_triple[(0.0, 0.0, 1.0)].f == pytest.approx(20657.71, abs=0.01)
        assert table.axis_labels == ("alpha", "beta", "gamma", "f", "mu")
        assert not table.pivoted

    def test_lambda_columns(self, demo_problem):
        table = grid_sweep(demo_problem, 0.5, lambdas=(0.5, 1.0))
        assert table.axis_labels[-2:] == ("mu_tilde[0.5]", "mu_tilde[1]")
        record = next(r for r in table.rows if r.coefficients == (1.0, 1.0, 0.0))
        assert record.mu_tilde_at(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_white_problem_sweeps_flat(self):
        p = GreyLP(objective=((2, 2),), matrix=(((1, 1),),), rhs=((4, 4),))
        table = grid_sweep(p, 0.5)
        values = {r.f for r in table.rows}
        assert len(values) == 1
        assert values.pop() == pytest.approx(8.0, rel=1e-12)

    def test_unbounded_ideal_rejects_the_sweep(self):
        # Unboundedness at any whitening implies the loosest whitening is
        # unbounded too, so no degree is definable and the sweep must refuse.
        p = GreyLP(objective=((1, 2),), matrix=(((0, 1),),), rhs=((5, 6),))
        with pytest.raises(UnboundedValueError):
            grid_sweep(p, 0.5)


class TestCheckMonotonicity:
    @pytest.mark.parametrize("axis", ["alpha", "beta", "gamma"])
    def test_demo_problem_ordering_holds(self, demo_problem, axis):
        report = check_monotonicity(demo_problem, axis, 0.25)
        assert report.ok
        assert report.violations == ()
        assert report.skipped == ()
        assert len(report.grid) == 100  # 4 adjacent pairs x 25 fixed settings
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
        assert list(report.grid) == expected
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
        monkeypatch.setattr(
            analysis, "solve_grid",
            lambda p, pts: GridSolution(status=(SolveStatus.OPTIMAL,) * len(f), objective=f),
        )
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
        table = SweepTable._of_columns(
            axis_labels=("alpha", "beta", "gamma", "f", "mu", "mu_tilde[0.5]"),
            lambdas=(0.5,),
            coefficients=np.array([(0.0, 0.0, 0.5), (0.0, 0.5, 0.0), (1.0, 1.0, 0.0)]),
            f=np.array([1.0, 1.0, 2.0]),
            mu=np.array([0.5, 0.5, 0.9]),
            mu_tilde=np.array([[low], [high], [1.0]]),
            errors={},
        )
        monkeypatch.setattr(analysis, "grid_sweep", lambda p, step, lambdas: table)
        hits = hit_list(find_satisfactory(demo_problem, mu0=0.5, lam=0.5, step=0.5))
        assert hits == [((1.0, 1.0, 0.0), 1.0), ((0.0, 0.0, 0.5), low), ((0.0, 0.5, 0.0), high)]

    @pytest.mark.parametrize("kwargs", [{"mu0": 1.5}, {"lam": -0.2}])
    def test_rejects_bad_thresholds(self, demo_problem, kwargs):
        merged = {"mu0": 0.5, "lam": 0.5, "step": 0.5, **kwargs}
        with pytest.raises(DomainError):
            find_satisfactory(demo_problem, **merged)


class TestRenderTable:
    def test_lambda_table_renders_pivoted_csv(self, demo_problem):
        table = lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)
        text = render_table(table, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 11
        assert rows[0][0] == "lambda"
        assert len(rows[0]) == 1 + 4
        # Spot-check a reference cell: the (0.6, 0.6, 0.6) column at lam=0.5.
        col = rows[0].index("mu_tilde(0.6,0.6,0.6)")
        lam_row = next(r for r in rows[1:] if r[0] == "0.5")
        assert lam_row[col] == "0.3659"
        assert text.endswith("\n") and "\r" not in text

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

    def test_error_rows_render_their_marker(self):
        record = SatisfactionRecord(
            coefficients=(0.0, 0.0, 0.0), f=None, mu=None, error="unbounded"
        )
        table = SweepTable(axis_labels=("alpha", "beta", "gamma", "f", "mu"), rows=(record,))
        rows = list(csv.reader(io.StringIO(render_table(table, "csv"))))
        assert rows[1] == ["0", "0", "0", "unbounded", "unbounded"]

    def test_empty_table(self):
        table = SweepTable(axis_labels=("alpha", "beta", "gamma", "f", "mu"), rows=())
        assert render_table(table, "csv") == "alpha,beta,gamma,f,mu\n"

    def test_empty_markdown_table(self):
        table = SweepTable(axis_labels=("alpha", "beta"), rows=())
        assert render_table(table, "markdown") == "| alpha | beta |\n| --- | --- |\n"

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


# (k + 0.5)/1e4 for an integer k, give or take a few ulps: where rounding
# to 4 decimals is closest to a tie.
_near_ties = st.builds(
    lambda k, ulps: _ulp_neighbours(np.array([(k + 0.5) / 1e4]), [ulps])[0],
    st.integers(-5000, 14999), st.integers(-3, 3),
)


class TestDegreeTexts:
    """Degree cells come from a lookup table; every text must be the one
    ``"%.4f" % v`` prints."""

    @given(st.lists(
        st.one_of(
            st.floats(-0.5, 1.5),
            _near_ties,
            st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        max_size=40,
    ))
    def test_matches_percent_format(self, values):
        values = np.array(values, dtype=float)
        assert analysis._degree_texts(values).tolist() == ["%.4f" % v for v in values.tolist()]

    def test_matches_percent_format_at_every_tie_and_code(self):
        k = np.arange(-5000, 15000)
        ties = (k + 0.5) / 1e4
        special = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf]
        values = np.concatenate([
            _ulp_neighbours(ties, [0, 1, 2, -1, -2]),
            np.arange(-5000, 15001) / 1e4,
            special,
        ])
        want = ["%.4f" % v for v in values.tolist()]
        assert analysis._degree_texts(values).tolist() == want
        # Any shape: the texts keep the shape of the values.
        block = values[: 4 * (len(values) // 4)].reshape(-1, 4)
        assert analysis._degree_texts(block).ravel().tolist() == want[: block.size]

    def test_table_holds_only_the_codes_in_use(self):
        analysis._degree_table.cache_clear()
        try:
            analysis._degree_texts(np.array([0.25, 0.25, 0.5, -0.0, 2.0, math.nan]))
            table, known = analysis._degree_table()
            assert np.flatnonzero(known).tolist() == [2500, 5000]
            assert table[[2500, 5000]].tolist() == ["0.2500", "0.5000"]
        finally:
            analysis._degree_table.cache_clear()


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
    def test_pivoted_lambda_table(self, demo_problem, fmt):
        triples = sorted(TABLE_TRIPLES)
        labels = ("lambda",) + tuple("mu_tilde(%g,%g,%g)" % t for t in triples)
        rows = reference_records(demo_problem, triples, REFERENCE_LAMBDA_GRID)
        table = lambda_sweep(demo_problem, TABLE_TRIPLES, REFERENCE_LAMBDA_GRID)
        assert render_table(table, fmt) == reference_render(
            labels, rows, REFERENCE_LAMBDA_GRID, fmt, pivoted=True
        )

    @pytest.mark.parametrize("pivoted", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_table_with_error_rows(self, fmt, pivoted):
        # The uncapped problem has no ideal value, so score its bounded
        # settings against the spread of their own optima.
        triples = grid_triples(0.5)
        finite = [f for status, f in reference_grid(UNCAPPED, triples) if f is not None]
        vb = ValueBounds(min(finite), max(finite))
        rows = reference_records(UNCAPPED, triples, GRID_LAMBDAS, vb)
        assert {r.error for r in rows} == {None, "unbounded"}
        labels = GRID_LABELS
        if pivoted:
            labels = ("lambda",) + tuple("c%d" % i for i in range(len(rows)))
        table = SweepTable(labels, rows, GRID_LAMBDAS, pivoted=pivoted)
        assert render_table(table, fmt) == reference_render(
            labels, rows, GRID_LAMBDAS, fmt, pivoted=pivoted
        )
        assert table.rows == tuple(rows)

    @pytest.mark.parametrize("pivoted", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_error_markers_are_written_as_the_csv_module_writes_them(self, fmt, pivoted):
        markers = ['says "no", twice', "two\nlines", "", "plain"]
        rows = [SatisfactionRecord((0.0, 0.0, float(i)), None, None, error=m)
                for i, m in enumerate(markers)]
        rows.append(SatisfactionRecord((1.0, 1.0, 1.0), 2.5, None, ((0.5, 0.25),)))
        labels = ("lambda", "a,b", "c", "d", "e", "f") if pivoted else GRID_LABELS[:6]
        table = SweepTable(labels, rows, (0.5,), pivoted=pivoted)
        assert render_table(table, fmt) == reference_render(
            labels, rows, (0.5,), fmt, pivoted=pivoted
        )

    def test_rows_round_trip_through_the_columns(self, demo_problem):
        table = grid_sweep(demo_problem, 0.25, lambdas=(0.5, 1.0))
        again = SweepTable(table.axis_labels, table.rows, table.lambdas)
        assert render_table(again, "csv") == render_table(table, "csv")
        assert again.rows == table.rows

    def test_rendering_spans_several_chunks(self, demo_problem):
        # 21**3 rows render in chunks of 1024; the text must not change at a
        # chunk edge.
        table = grid_sweep(demo_problem, 0.05, lambdas=(0.5,))
        text = render_table(table, "csv")
        assert text.count("\n") == 1 + 21**3
        assert text == reference_render(table.axis_labels, table.rows, table.lambdas, "csv")


class TestCollectorPause:
    """Grid commands run with the cyclic collector on.  Their results are
    arrays, not one tracked object per row, so a call starts at most one
    collection and its run time does not grow with what else is alive."""

    @staticmethod
    def collections(call):
        """``call()``'s result and the number of collections started while it
        ran, counted before anything else is allocated."""
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            result = call()
            during = len(started)
        finally:
            gc.callbacks.remove(on_gc)
        return result, during

    def test_sweep_and_render_collect_at_most_once(self, demo_problem):
        table, started = self.collections(
            lambda: grid_sweep(demo_problem, 0.05, lambdas=(0.5, 1.0))
        )
        assert len(table.f) == 21**3 and started <= 1
        text, started = self.collections(lambda: render_table(table, "csv"))
        assert text.count("\n") == 1 + 21**3 and started <= 1

    def test_satisfactory_search_collects_at_most_once(self, demo_problem):
        (triples, degrees), started = self.collections(
            lambda: find_satisfactory(demo_problem, 0.4, 0.9, 0.02)
        )
        assert len(triples) == len(degrees) == 62_800 and started <= 1

    def test_monotonicity_check_collects_at_most_once(self, demo_problem):
        report, started = self.collections(
            lambda: check_monotonicity(demo_problem, "gamma", 0.02)
        )
        assert report.pair_count == 51 * 51 * 50 and report.ok and started <= 1


def test_grid_sweep_benchmark_smoke(benchmark, demo_problem):
    # One timed round with no time bound: it exercises the benchmark plugin
    # and the sweep path without making the suite depend on host speed.
    table = benchmark.pedantic(
        grid_sweep, args=(demo_problem, 0.1), kwargs={"lambdas": (0.5, 1.0)},
        rounds=1, iterations=1,
    )
    assert len(table.f) == 11**3
