"""Block-diagonal LMI problems and an interior-point solver for them."""

from .problem import LmiProblem, smat, svec, svec_len
from .solver import ConicSolution, SolverSettings, SolverStatus, solve

__all__ = [
    "ConicSolution",
    "LmiProblem",
    "SolverSettings",
    "SolverStatus",
    "smat",
    "solve",
    "svec",
    "svec_len",
]
