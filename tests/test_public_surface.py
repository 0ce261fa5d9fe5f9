"""The public surface: the names ``greylp`` and its modules export.

An API is added or removed on purpose, by editing ``EXPORTED`` here along
with the ``__all__`` lists.
"""

import importlib

import pytest

import greylp

EXPORTED = {
    "__version__",
    # grey_core
    "Interval", "GreyLP", "PositionCoefficients", "WhiteLP", "Violation", "whiten",
    "build_positioned", "uniform_coefficients", "theta_coefficients", "validate_problem",
    # lp_solver
    "SolveStatus", "LPSolution", "solve_max", "enumerate_vertices_oracle",
    # satisfaction
    "ValueBounds", "positioned_value", "bounds", "pleased_degree", "pleased_degrees",
    "lambda_satisfaction", "lambda_satisfactions", "is_pleased", "is_lambda_satisfactory",
    # analysis
    "SweepTable", "MonotonicityReport", "unit_grid", "solve_grid", "lambda_sweep",
    "grid_sweep", "check_monotonicity", "find_satisfactory", "render_table",
    # cli
    "ProblemFile", "parse_problem", "serialize_problem", "run",
    # errors
    "GreyLPError", "DomainError", "StructureError", "ValidationError", "ParseError",
    "UnboundedValueError", "InconsistentInputsError", "SolverFailure",
    "DegenerateBoundsWarning",
}


def test_package_exports_exactly_the_expected_names():
    assert sorted(greylp.__all__) == sorted(EXPORTED)  # also: no name listed twice
    for gone in ("SatisfactionRecord", "GridSolution"):
        assert not hasattr(greylp, gone) and not hasattr(greylp.analysis, gone)


@pytest.mark.parametrize(
    "module", ["greylp", "greylp.analysis", "greylp.cli", "greylp.grey_core",
               "greylp.lp_solver", "greylp.satisfaction"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # The package re-exports its modules' names (the CLI's ``main`` aside).
    if module != "greylp":
        assert set(mod.__all__) - {"main"} <= EXPORTED
