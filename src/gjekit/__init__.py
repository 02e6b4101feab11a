"""gjekit: a numerical toolkit for generated Jacobian equations.

Generating functions with chart derivatives, exponential/coordinate maps
and segments, sampled verification of the structural conditions,
semi-discrete solvers with prescribed target masses, reflector ray tracing,
and evaluators for the pointwise volume estimates.
"""

__version__ = "0.1.0"

from .builtins import make_builtin
from .charts import BoxChart, PlaneChart, SphereChart
from .config import DEFAULT_TOLS, Tolerances
from .genfun import GenFun, ScalarRange, finite_diff_derivatives
from .gconvex import Envelope, GAffine
from .grids import DomainGrid
from .solver import SemiDiscreteProblem, solve

__all__ = [
    "__version__", "make_builtin", "BoxChart", "PlaneChart", "SphereChart",
    "DEFAULT_TOLS", "Tolerances", "GenFun", "ScalarRange", "finite_diff_derivatives",
    "Envelope", "GAffine", "DomainGrid", "SemiDiscreteProblem", "solve",
]
