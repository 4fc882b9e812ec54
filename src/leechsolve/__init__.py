"""Suboptimal rational Leech problems: solve G X = K with ||X||_inf <= 1.

The problem data are stable state-space realizations of G and K sharing the
output pair {C, A}.  `solve` runs the feasibility test (two stabilizing
Riccati solutions plus positivity gaps) and produces the derived matrices,
`build_upsilon` turns them into the J-inner coefficient functions of the
linear-fractional parametrization, and `apply_lft` maps any contractive free
parameter to a solution.  `toeplitz` holds an independent cross-check built
from truncated block Toeplitz operators.
"""

from .coefficients import (
    CoefficientSet,
    RedhefferSet,
    apply_lft,
    apply_redheffer,
    build_redheffer,
    build_upsilon,
    central_solution,
    check_parameter,
    j_inner_defect,
    solution_report,
)
from .core import (
    DerivedMatrices,
    LeechData,
    PopovData,
    ValidationReport,
    gramians,
    popov_data,
    solve,
    theta0,
    validate,
)
from .errors import (
    BreakdownError,
    DefinitenessError,
    DimensionError,
    EvaluationError,
    FileFormatError,
    InfeasibleError,
    LeechError,
    NotInvertibleError,
    ParameterError,
    RankDefectError,
    RiccatiError,
    StabilityError,
    ValidationError,
)
from .generate import random_contraction, random_problem
from .realization import (
    Realization,
    add,
    constant,
    evaluate,
    hconcat,
    hinf_norm_estimate,
    inverse,
    product,
    taylor_blocks,
    vconcat,
    zeros,
)
from .riccati import RiccatiSolution, RiccatiSolutions, solve_stein, stabilizing_riccati
from .toeplitz import OracleContext, oracle_theta, oracle_upsilon, truncate

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "CoefficientSet",
    "DefinitenessError",
    "DerivedMatrices",
    "DimensionError",
    "EvaluationError",
    "FileFormatError",
    "InfeasibleError",
    "LeechData",
    "LeechError",
    "NotInvertibleError",
    "OracleContext",
    "ParameterError",
    "PopovData",
    "RankDefectError",
    "Realization",
    "RedhefferSet",
    "RiccatiError",
    "RiccatiSolution",
    "RiccatiSolutions",
    "StabilityError",
    "ValidationError",
    "ValidationReport",
    "add",
    "apply_lft",
    "apply_redheffer",
    "build_redheffer",
    "build_upsilon",
    "central_solution",
    "check_parameter",
    "constant",
    "evaluate",
    "gramians",
    "hconcat",
    "hinf_norm_estimate",
    "inverse",
    "j_inner_defect",
    "oracle_theta",
    "oracle_upsilon",
    "popov_data",
    "product",
    "random_contraction",
    "random_problem",
    "solution_report",
    "solve",
    "solve_stein",
    "stabilizing_riccati",
    "taylor_blocks",
    "theta0",
    "truncate",
    "validate",
    "vconcat",
    "zeros",
]
