"""greylp: interval-coefficient linear programs, positioned and ranked.

The toolkit whitens a linear program whose coefficients are only known as
closed intervals into an ordinary LP (:mod:`greylp.grey_core`), solves it
with the built-in simplex (:mod:`greylp.lp_solver`), and grades the optimum
between the problem's critical and ideal values (:mod:`greylp.satisfaction`),
so different positioned choices can be ranked against a grey target.

The package exports each module's ``__all__`` (the command line's ``main``
aside), so a public name is declared once, in the module that defines it.

Diagnostics go to the ``greylp`` logger, which is silent unless the
application configures logging.
"""

import logging

from . import analysis, errors, grey_core, lp_solver, satisfaction
from .analysis import *  # noqa: F403
from .cli import ProblemFile, parse_problem, run
from .errors import *  # noqa: F403
from .grey_core import *  # noqa: F403
from .lp_solver import *  # noqa: F403
from .satisfaction import *  # noqa: F403

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    *grey_core.__all__, *lp_solver.__all__, *satisfaction.__all__, *analysis.__all__,
    "ProblemFile", "parse_problem", "run",
    *errors.__all__,
]
