"""greylp: interval-coefficient linear programs, positioned and ranked.

The toolkit models linear programs whose objective, constraint-matrix, and
right-hand-side coefficients are only known as closed intervals.  Choosing a
position coefficient in [0, 1] for each interval whitens the problem into an
ordinary LP; the built-in simplex solver computes its optimum; and the
satisfaction layer grades that optimum between the problem's pessimistic
(critical) and optimistic (ideal) values so different positioned choices can
be ranked against a grey target.

Diagnostics go to the ``greylp`` logger, which is silent unless the
application configures logging.
"""

import logging

from .analysis import (
    MonotonicityReport,
    SweepTable,
    check_monotonicity,
    find_satisfactory,
    grid_sweep,
    lambda_sweep,
    render_table,
    unit_grid,
)
from .cli import ProblemFile, parse_problem, run
from .errors import (
    DegenerateBoundsWarning,
    DomainError,
    GreyLPError,
    InconsistentInputsError,
    ParseError,
    SolverFailure,
    StructureError,
    UnboundedValueError,
    ValidationError,
)
from .grey_core import (
    GreyLP,
    PositionCoefficients,
    Violation,
    WhiteLP,
    build_positioned,
    uniform_coefficients,
    validate_problem,
)
from .lp_solver import LPSolution, SolveStatus, solve_max
from .satisfaction import (
    ValueBounds,
    bounds,
    lambda_satisfaction,
    lambda_satisfactions,
    pleased_degree,
    pleased_degrees,
    positioned_value,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # grey_core
    "GreyLP",
    "PositionCoefficients",
    "WhiteLP",
    "Violation",
    "build_positioned",
    "uniform_coefficients",
    "validate_problem",
    # lp_solver
    "SolveStatus",
    "LPSolution",
    "solve_max",
    # satisfaction
    "ValueBounds",
    "positioned_value",
    "bounds",
    "pleased_degree",
    "pleased_degrees",
    "lambda_satisfaction",
    "lambda_satisfactions",
    # analysis
    "SweepTable",
    "MonotonicityReport",
    "unit_grid",
    "lambda_sweep",
    "grid_sweep",
    "check_monotonicity",
    "find_satisfactory",
    "render_table",
    # cli
    "ProblemFile",
    "parse_problem",
    "run",
    # errors
    "GreyLPError",
    "DomainError",
    "StructureError",
    "ValidationError",
    "ParseError",
    "UnboundedValueError",
    "InconsistentInputsError",
    "SolverFailure",
    "DegenerateBoundsWarning",
]
