"""Exception types shared across the package.

Every anticipated failure raises one of these instead of a bare numpy
LinAlgError, so callers can tell a bad input from a library bug.
"""

from __future__ import annotations


class DdlqrError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DdlqrError):
    """Array shapes are inconsistent with each other or with the contract."""


class AsymmetricInput(DdlqrError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(DdlqrError):
    """A matrix that must be positive definite has a non-positive pivot."""


class SingularCovariance(NotPositiveDefinite):
    """A sample covariance that must be invertible is numerically singular."""


class IndefiniteInput(DdlqrError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class UnstableMatrix(DdlqrError):
    """A closed-loop matrix has spectral radius at or above one."""


class NoConvergence(DdlqrError):
    """An iterative routine hit its iteration cap before converging."""


class NumericalError(DdlqrError):
    """A direct solve produced a residual too large to trust."""


class InfeasibleConstraint(DdlqrError):
    """A candidate point violates a constraint beyond tolerance."""


class SynthesisInfeasible(DdlqrError):
    """A synthesis program did not reach an optimal solution.

    Carries the conic solver status so callers can record it; see the
    status and solution attributes.
    """

    def __init__(self, program_id: str, status, solution=None):
        super().__init__(f"{program_id} terminated with solver status {status}")
        self.program_id = program_id
        self.status = status
        self.solution = solution


class RankDeficientData(DdlqrError):
    """A data matrix does not have the rank an operation requires."""


class ExcitationViolation(RankDeficientData):
    """The stacked state-input data matrix is not full row rank."""


class StateRankViolation(ExcitationViolation):
    """The initial-state matrix is not full row rank, so the stacked
    state-input data cannot be either."""


class ParseError(DdlqrError):
    """A serialized artifact could not be parsed."""
