"""Exception taxonomy for the solver: the class of a failure is its verdict.

Every failure the library raises deliberately derives from LeechError, and
its class alone decides the CLI's verdict and exit code (`exit_code`):

- 1, input problems: files, shapes, validation, evaluation;
- 2, a verdict, which `verdict` names:
  - InfeasibleError ("INFEASIBLE"): the data lies outside the strictly
    suboptimal regime.  RiccatiError is the Riccati form of it: no
    stabilizing solution exists (a fixed-point iterate lost the Schur
    complement's definiteness, or an iterate fell);
  - BreakdownError ("BREAKDOWN"): the numerics failed, not the data.  A lost
    definiteness, rank, stability or invertibility that the theory
    guarantees, or a failed postcondition of a computed solution (a Riccati
    solution must be PSD; it may be singular, since none is inverted);
- 3, ParameterError: the free parameter violates its contract.
"""


class LeechError(Exception):
    """Base class for all structured solver errors."""

    exit_code = 1


class InfeasibleError(LeechError):
    """The data lies outside the strictly suboptimal regime."""

    exit_code = 2
    verdict = "INFEASIBLE"


class BreakdownError(LeechError):
    """A numerical breakdown: a computation failed where the theory says it
    succeeds, so the data has no verdict."""

    exit_code = 2
    verdict = "BREAKDOWN"


class DimensionError(LeechError):
    """Matrix shapes do not conform."""


class DefinitenessError(BreakdownError):
    """A matrix expected to be (semi)definite is not."""


class StabilityError(BreakdownError):
    """A matrix expected to be Schur stable is not."""


class RankDefectError(BreakdownError):
    """A factor does not have the rank the theory requires."""


class RiccatiError(InfeasibleError):
    """No stabilizing Riccati solution exists: a fixed-point iterate lost the
    Schur complement's definiteness, or an iterate fell."""


class ParameterError(LeechError):
    """A free parameter violates its contract (shape or norm bound)."""

    exit_code = 3


class EvaluationError(LeechError):
    """A transfer function could not be evaluated (singular resolvent)."""


class NotInvertibleError(BreakdownError):
    """A matrix, or a rational matrix function at the origin, is not invertible."""


class ValidationError(LeechError):
    """Input data failed validation; carries the full report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FileFormatError(LeechError):
    """A problem/realization file could not be parsed; message pinpoints the field."""
