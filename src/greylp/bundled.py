"""Bundled demo problem and its hand-checked reference values.

The problem is a small two-variable, three-constraint production planning
model whose coefficients are all interval-valued.  The reference tables
below were verified independently: the two bound values against exact
fractions from the active-constraint systems (ideal at constraints 2 and 3,
x = (1890/48.5, 1410/48.5); critical at constraints 1 and 3), the rest
against an external LP solver.  ``greylp verify-example`` recomputes every
cell and compares within the tolerances given here; the published reference
values are rounded to the shown digits, which the tolerances absorb.
"""

EXAMPLE_PROBLEM_JSON = """\
{
  "name": "two-product interval planning demo",
  "description": "Maximize interval-valued profit of two products under three interval-valued resource limits.",
  "objective": [[600, 800], [900, 1500]],
  "matrix": [
    [[3, 5], [3.5, 6.5]],
    [[7, 11], [3, 5]],
    [[2.5, 3.5], [8, 12]]
  ],
  "rhs": [[150, 235], [280, 360], [270, 330]]
}
"""

# Absolute comparison tolerances for the reference cells.
F_TOL = 0.01
MU_TOL = 1e-4
MU_TILDE_TOL = 2e-4

# Reference positioned optimal values and pleased degrees, keyed by the
# uniform (alpha, beta, gamma) triple.  The first two rows are the ideal and
# critical bounds.
REFERENCE_POSITIONED = (
    ((1.0, 1.0, 0.0), 74783.51, 0.86188),
    ((0.0, 0.0, 1.0), 20657.71, 0.13812),
    ((0.6, 0.6, 0.6), 42995.88, 0.54724),
    ((0.7, 0.9, 0.5), 51643.20, 0.64528),
    ((0.5, 0.9, 0.4), 50124.28, 0.62906),
    ((0.7, 0.5, 0.3), 50377.88, 0.63179),
)

# Satisfaction degrees on the standard lambda grid for four triples,
# one column per triple, one row per lambda.
REFERENCE_LAMBDA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

REFERENCE_SATISFACTION = (
    ((0.6, 0.6, 0.6), (0.2600, 0.2843, 0.3072, 0.3285, 0.3482, 0.3659,
                       0.3813, 0.3942, 0.4040, 0.4104, 0.4127)),
    ((0.7, 0.9, 0.5), (0.4010, 0.4293, 0.4558, 0.4802, 0.5023, 0.5221,
                       0.5390, 0.5529, 0.5635, 0.5701, 0.5725)),
    ((0.5, 0.9, 0.4), (0.3740, 0.4019, 0.4281, 0.4523, 0.4743, 0.4939,
                       0.5108, 0.5248, 0.5353, 0.5420, 0.5444)),
    ((0.7, 0.5, 0.3), (0.3785, 0.4064, 0.4326, 0.4569, 0.4789, 0.4986,
                       0.5155, 0.5295, 0.5400, 0.5467, 0.5491)),
)
