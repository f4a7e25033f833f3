"""Block-diagonal LMI problems and an interior-point solver for them."""

from .problem import LmiProblem, smat, svec, svec_len
from .solver import ConicSolution, SolverStatus, solve

__all__ = [
    "ConicSolution",
    "LmiProblem",
    "SolverStatus",
    "smat",
    "solve",
    "svec",
    "svec_len",
]
