"""frgelab: a numerical laboratory for regularized scale flows.

Builds regularized Gaussian measures at finite mode truncation, evaluates
generating functionals and effective actions by high-accuracy quadrature
oracles, integrates the scale flow in grid and vertex representations, and
certifies convergence of regularization sequences with convex-duality
diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConditionViolated,
    ConvexityLoss,
    EmptyEpigraphWindow,
    FrgeLabError,
    GridMismatch,
    NewtonStalled,
    NotProper,
    NotSPD,
    RangeExceeded,
    SingularWindow,
    SpecValidationError,
    StepUnderflow,
)
from .model import ModelSpec, WindowParams, spec_from_dict, spec_from_json

__all__ = [
    "__version__",
    "ModelSpec",
    "WindowParams",
    "spec_from_dict",
    "spec_from_json",
    "FrgeLabError",
    "SpecValidationError",
    "SingularWindow",
    "NotSPD",
    "BudgetExceeded",
    "ConditionViolated",
    "NewtonStalled",
    "RangeExceeded",
    "ConvexityLoss",
    "StepUnderflow",
    "GridMismatch",
    "NotProper",
    "EmptyEpigraphWindow",
]
