"""The public surface: the names ``greylp`` and its modules export, and the
public attributes of its data classes.

An API is added or removed on purpose, by editing ``EXPORTED`` or
``ATTRIBUTES`` here along with the code.
"""

import importlib

import pytest

import greylp

EXPORTED = {
    "__version__",
    # grey_core
    "GreyLP", "PositionCoefficients", "WhiteLP", "Violation", "whiten",
    "build_positioned", "uniform_coefficients", "theta_coefficients", "validate_problem",
    # lp_solver
    "SolveStatus", "LPSolution", "solve_max",
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


# The data classes hold arrays only; a tuple view of them, or another
# attribute, is an API of its own.
ATTRIBUTES = {
    "GreyLP": {"c_lo", "c_hi", "A_lo", "A_hi", "b_lo", "b_hi", "n", "m"},
    "PositionCoefficients": {"alpha_array", "beta_array", "gamma_array"},
    "WhiteLP": {"c_array", "A_array", "b_array", "n", "m"},
    "SweepTable": {"axis_labels", "lambdas", "coefficients", "f", "mu", "mu_tilde", "pivoted"},
}


def test_package_exports_exactly_the_expected_names():
    assert sorted(greylp.__all__) == sorted(EXPORTED)  # also: no name listed twice
    for gone in ("SatisfactionRecord", "GridSolution"):
        assert not hasattr(greylp, gone) and not hasattr(greylp.analysis, gone)
    assert not hasattr(greylp, "Interval") and not hasattr(greylp.grey_core, "Interval")


def test_data_classes_have_exactly_the_expected_attributes():
    p = greylp.parse_problem(greylp.bundled.EXAMPLE_PROBLEM_JSON).problem
    k = greylp.uniform_coefficients(0.5, 0.5, 0.5, p.m, p.n)
    instances = {
        "GreyLP": p,
        "PositionCoefficients": k,
        "WhiteLP": greylp.build_positioned(p, k),
        "SweepTable": greylp.grid_sweep(p, 0.5),
    }
    for name, obj in instances.items():
        assert type(obj) is getattr(greylp, name)
        assert {a for a in dir(obj) if not a.startswith("_")} == ATTRIBUTES[name], name


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
