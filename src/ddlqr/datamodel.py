"""Experiment data containers and the statistics derived from them.

A Dataset holds one rollout of state/input/successor samples laid out
column-per-time-step. DataStats holds what the reduced programs and the
closed-form effects need: least-squares fits and sample covariances, all
of a size fixed by n and m and read off one triangular factor of the
stacked record. The ell x ell kernel projector, which only the
trajectory-sized programs and the oracle use, is formed on request by
kernel_projector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatch,
    ExcitationViolation,
    ParseError,
    StateRankViolation,
)
from .matlin import RANK_TOL, as_matrix

__all__ = [
    "DataStats",
    "Dataset",
    "RankReport",
    "check_excitation",
    "compute_stats",
    "kernel_projector",
    "load_dataset",
    "row_space_basis",
    "save_dataset",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """One experiment: x1[:, t] is the successor of (x0[:, t], u0[:, t])."""

    x0: np.ndarray
    u0: np.ndarray
    x1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", _frozen(as_matrix(self.x0, "x0")))
        object.__setattr__(self, "u0", _frozen(as_matrix(self.u0, "u0")))
        object.__setattr__(self, "x1", _frozen(as_matrix(self.x1, "x1")))
        n, ell = self.x0.shape
        if self.x1.shape != (n, ell):
            raise DimensionMismatch(
                f"x1 shape {self.x1.shape} does not match x0 shape {(n, ell)}"
            )
        if self.u0.shape[1] != ell:
            raise DimensionMismatch(
                f"u0 has {self.u0.shape[1]} columns, x0 has {ell}"
            )
        if ell < 1 or n < 1 or self.u0.shape[0] < 1:
            raise DimensionMismatch("dataset dimensions must be positive")

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def m(self) -> int:
        return self.u0.shape[0]

    @property
    def ell(self) -> int:
        return self.x0.shape[1]

    def data0(self) -> np.ndarray:
        """Stacked state-input samples, (n+m) x ell."""
        return np.vstack([self.x0, self.u0])

    def data_full(self) -> np.ndarray:
        """Stacked state-input-successor samples, (2n+m) x ell."""
        return np.vstack([self.x0, self.u0, self.x1])


@dataclass(frozen=True)
class RankReport:
    rank_data0: int
    rank_full: int
    pe_holds: bool
    full_rank_holds: bool
    singular_values: np.ndarray


def _stack_factor(d: Dataset) -> np.ndarray:
    """R of the thin QR factorization of [x0; u0; x1]^T.

    R is (2n+m) x (2n+m), padded with zero rows when ell < 2n+m, and
    R^T R = D D^T for the stacked data D. Each leading block R[:j, :j] is
    the R factor of the first j rows of D alone, so one factor serves the
    state, state-input and full stacks.
    """
    w = 2 * d.n + d.m
    r = np.linalg.qr(d.data_full().T, mode="r")
    if r.shape[0] < w:
        r = np.vstack([r, np.zeros((w - r.shape[0], w))])
    return r


def _numerical_rank(sv: np.ndarray, rank_tol: float) -> int:
    return int(np.sum(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0 else 0


def _rank_report(d: Dataset, r: np.ndarray, rank_tol: float) -> RankReport:
    k = d.n + d.m
    # Singular values of R and of its leading block equal those of the
    # full and of the state-input stacks; nothing is squared.
    sv0 = np.linalg.svd(r[:k, :k], compute_uv=False)
    sv = np.linalg.svd(r[: min(d.ell, r.shape[0])], compute_uv=False)
    rank_data0 = _numerical_rank(sv0, rank_tol)
    rank_full = _numerical_rank(sv, rank_tol)
    return RankReport(
        rank_data0=rank_data0,
        rank_full=rank_full,
        pe_holds=rank_data0 == k,
        full_rank_holds=rank_full == 2 * d.n + d.m,
        singular_values=_frozen(sv),
    )


def check_excitation(d: Dataset, rank_tol: float = RANK_TOL) -> RankReport:
    """Rank diagnostics for the stacked data matrices.

    pe_holds: the (n+m) x ell state-input stack has full row rank, the
    excitation condition every synthesis program requires.
    full_rank_holds: the (2n+m) x ell stack including successors also has
    full row rank, which noise generically produces and which makes the
    residual covariance positive definite.
    """
    return _rank_report(d, _stack_factor(d), rank_tol)


@dataclass(frozen=True)
class DataStats:
    """Least-squares fits and sample covariances of one Dataset.

    Every field has a size fixed by n and m, whatever the record length
    ell. Covariances use population normalization 1/ell throughout.
    Residual covariances are stored as computed, singular or not;
    consumers that need an inverse decide how to fail.
    """

    n: int
    m: int
    ell: int
    a_ls: np.ndarray
    b_ls: np.ndarray
    ab_ls: np.ndarray
    k_ls: np.ndarray
    cov_x0: np.ndarray
    cov_d0: np.ndarray
    cov_resid_x: np.ndarray
    cov_resid_u: np.ndarray
    rank_report: RankReport = field(repr=False)

    def __post_init__(self):
        for name in (
            "a_ls",
            "b_ls",
            "ab_ls",
            "k_ls",
            "cov_x0",
            "cov_d0",
            "cov_resid_x",
            "cov_resid_u",
        ):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def compute_stats(d: Dataset, rank_tol: float = RANK_TOL) -> DataStats:
    """Derive least-squares estimates and covariances.

    Requires the state block x0 to have rank n (StateRankViolation) and the
    stacked state-input data to have full row rank (ExcitationViolation).
    Everything comes from the triangular factor R of [x0; u0; x1]^T, in
    O(ell (2n+m)^2) time and O((2n+m)^2) memory beyond the record: with
    k = n+m, the fits solve R[:k, :k] [A B]^T = R[:k, k:] and
    R[:n, :n] K^T = R[:n, n:k], and the residual covariances are the
    Gram matrices of the trailing blocks R[k:, k:] and R[n:k, n:k].
    """
    n, k = d.n, d.n + d.m
    r = _stack_factor(d)
    rx, r0 = r[:n, :n], r[:k, :k]
    sx = np.linalg.svd(rx, compute_uv=False)
    if _numerical_rank(sx, rank_tol) < n:
        raise StateRankViolation(f"x0 has rank below {n}")
    report = _rank_report(d, r, rank_tol)
    if not report.pe_holds:
        raise ExcitationViolation(
            f"state-input stack has rank {report.rank_data0}, need {k}"
        )

    ab_ls = solve_triangular(r0, r[:k, k:]).T
    k_ls = solve_triangular(rx, r[:n, n:k]).T
    r_x, r_u = r[k:, k:], r[n:k, n:k]
    ell = float(d.ell)
    return DataStats(
        n=n,
        m=d.m,
        ell=d.ell,
        a_ls=ab_ls[:, :n],
        b_ls=ab_ls[:, n:],
        ab_ls=ab_ls,
        k_ls=k_ls,
        cov_x0=rx.T @ rx / ell,
        cov_d0=r0.T @ r0 / ell,
        cov_resid_x=r_x.T @ r_x / ell,
        cov_resid_u=r_u.T @ r_u / ell,
        rank_report=report,
    )


def row_space_basis(d: Dataset) -> np.ndarray:
    """Orthonormal basis Q0 (ell x (n+m)) of the row space of the stacked
    state-input data, from a thin QR of its transpose.

    Requires the excitation condition, as compute_stats does; without it
    the QR columns would span more than the row space.
    """
    q0, r0 = np.linalg.qr(d.data0().T)
    if _numerical_rank(np.linalg.svd(r0, compute_uv=False), RANK_TOL) < d.n + d.m:
        raise ExcitationViolation(
            f"state-input stack is rank deficient, need rank {d.n + d.m}"
        )
    return q0


def kernel_projector(d: Dataset) -> np.ndarray:
    """The ell x ell orthogonal projector I - Q0 Q0^T onto the kernel of the
    stacked state-input data. Only the trajectory-sized programs and the
    oracle need it; anything that only applies it should use
    row_space_basis instead."""
    q0 = row_space_basis(d)
    return np.eye(d.ell) - q0 @ q0.T


def save_dataset(d: Dataset, path) -> None:
    """Write the dataset as CSV: a dimension header, then one row per
    time step with x0, u0, x1 entries at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "ell", d.n, d.m, d.ell])
        for t in range(d.ell):
            row = [f"{v:.17g}" for v in d.x0[:, t]]
            row += [f"{v:.17g}" for v in d.u0[:, t]]
            row += [f"{v:.17g}" for v in d.x1[:, t]]
            writer.writerow(row)


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset. '#' lines are comments."""
    with open(path, newline="") as fh:
        rows = []
        for lineno, line in enumerate(fh, start=1):
            if line.lstrip().startswith("#") or not line.strip():
                continue
            rows.append((lineno, next(csv.reader([line]))))
    if not rows:
        raise ParseError(f"{path}: no header line")
    head_line, head = rows[0]
    if len(head) != 6 or head[:3] != ["n", "m", "ell"]:
        raise ParseError(f"{path}:{head_line}: malformed header {head[:3]}")
    try:
        n, m, ell = (int(v) for v in head[3:])
    except ValueError as exc:
        raise ParseError(f"{path}:{head_line}: non-integer dimensions") from exc
    if n < 1 or m < 1 or ell < 1:
        raise ParseError(f"{path}:{head_line}: dimensions must be positive")
    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: header only, no data rows")
    if len(body) != ell:
        raise DimensionMismatch(
            f"{path}: header says ell={ell}, found {len(body)} data rows"
        )
    width = 2 * n + m
    x0 = np.empty((n, ell))
    u0 = np.empty((m, ell))
    x1 = np.empty((n, ell))
    for t, (lineno, row) in enumerate(body):
        if len(row) != width:
            raise DimensionMismatch(
                f"{path}:{lineno}: expected {width} fields, found {len(row)}"
            )
        for c, text in enumerate(row):
            try:
                v = float(text)
            except ValueError as exc:
                raise ParseError(
                    f"{path}:{lineno}: field {c + 1} is not a number: {text!r}"
                ) from exc
            if c < n:
                x0[c, t] = v
            elif c < n + m:
                u0[c - n, t] = v
            else:
                x1[c - n - m, t] = v
    return Dataset(x0=x0, u0=u0, x1=x1)
