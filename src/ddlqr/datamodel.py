"""Experiment data containers and the statistics derived from them.

A Dataset holds one rollout of state/input/successor samples laid out
column-per-time-step. DataStats holds what the reduced programs and the
closed-form effects need: least-squares fits and sample covariances, all
of a size fixed by n and m and read off one triangular factor R of the
stacked record. Each covariance is the Gram matrix of a diagonal block of
R, and its inverse and inverse square root come from the SVD of that
block, so no covariance is factored a second time. The ell x ell kernel
projector, which only the oracle uses, is formed on request by
kernel_projector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    ExcitationViolation,
    ParseError,
    SingularCovariance,
    StateRankViolation,
)
from .matlin import RANK_TOL, as_matrix, sym

__all__ = [
    "DataStats",
    "Dataset",
    "RankReport",
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
    """Rank diagnostics of the stacked data matrices.

    pe_holds: the (n+m) x ell state-input stack has full row rank, the
    excitation condition every synthesis program requires.
    full_rank_holds: the (2n+m) x ell stack including successors also has
    full row rank, which noise generically produces and which makes the
    residual covariance positive definite.
    """

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


def _numerical_rank(sv: np.ndarray) -> int:
    return int(np.sum(sv > RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0


def _rank_report(d: Dataset, r: np.ndarray) -> RankReport:
    k = d.n + d.m
    # Singular values of R and of its leading block equal those of the
    # full and of the state-input stacks; nothing is squared.
    sv0 = np.linalg.svd(r[:k, :k], compute_uv=False)
    sv = np.linalg.svd(r[: min(d.ell, r.shape[0])], compute_uv=False)
    rank_data0 = _numerical_rank(sv0)
    rank_full = _numerical_rank(sv)
    return RankReport(
        rank_data0=rank_data0,
        rank_full=rank_full,
        pe_holds=rank_data0 == k,
        full_rank_holds=rank_full == 2 * d.n + d.m,
        singular_values=_frozen(sv),
    )


# Each covariance is T^T T / ell for one diagonal block T = R[b, b] of the
# stacked factor, with b a function of n and k = n + m.
_COV_BLOCKS = {
    "cov_x0": lambda n, k: slice(0, n),
    "cov_d0": lambda n, k: slice(0, k),
    "cov_resid_u": lambda n, k: slice(n, k),
    "cov_resid_x": lambda n, k: slice(k, None),
}


def _cov_factor(name: str, power: int) -> cached_property:
    """Read-only cov^(-power/2) of the covariance field `name`, computed on
    first use and kept in the instance. It comes from the SVD of the
    covariance's block T = U diag(s) V^T of R: cov^-1 = ell V diag(s^-2) V^T
    and cov^(-1/2) = sqrt(ell) V diag(s^-1) V^T, so the covariance's
    condition number is never squared. A singular covariance,
    (s_min / s_max)^2 <= RANK_TOL, raises SingularCovariance on every
    request; nothing is cached for it. Both powers of one covariance come
    from one SVD: the first request stores its sibling factor too."""

    def get(self):
        # cov_resid_x from rank-deficient stacked data is zero up to
        # round-off: uniformly tiny, so no relative singular-value test can
        # reject it. The data-level rank flag is the scale-aware signal.
        if name == "cov_resid_x" and not self.rank_report.full_rank_holds:
            raise SingularCovariance(
                "cov_resid_x is singular: the stacked data matrix is rank deficient"
            )
        b = _COV_BLOCKS[name](self.n, self.n + self.m)
        _, s, vt = np.linalg.svd(self.r_factor[b, b])
        if s[-1] ** 2 <= RANK_TOL * s[0] ** 2:
            raise SingularCovariance(
                f"{name} is singular: its block's singular values {s[-1]:.3e} and "
                f"{s[0]:.3e} have a squared ratio at or below {RANK_TOL:g}"
            )
        for p, attr in ((1, f"{name}_inv_sqrt"), (2, f"{name}_inv")):
            if attr in vars(DataStats):
                self.__dict__[attr] = _frozen(sym((vt.T * (np.sqrt(self.ell) / s) ** p) @ vt))
        return self.__dict__[f"{name}_inv_sqrt" if power == 1 else f"{name}_inv"]

    return cached_property(get)


@dataclass(frozen=True)
class DataStats:
    """Least-squares fits and sample covariances of one Dataset.

    Every field has a size fixed by n and m, whatever the record length
    ell. Covariances use population normalization 1/ell throughout; each is
    T^T T / ell for one diagonal block T of `r_factor`, the (2n+m)^2
    triangular factor of the stacked record. Residual covariances are
    stored as computed, singular or not. Their inverses and inverse square
    roots (`cov_x0_inv`, `cov_x0_inv_sqrt`, ...) are read off the SVD of
    that block, once per instance, on first use; a singular one raises
    SingularCovariance, and consumers decide how to fail.
    """

    n: int
    m: int
    ell: int
    a_ls: np.ndarray
    b_ls: np.ndarray
    k_ls: np.ndarray
    cov_x0: np.ndarray
    cov_d0: np.ndarray
    cov_resid_x: np.ndarray
    cov_resid_u: np.ndarray
    rank_report: RankReport = field(repr=False)
    r_factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("a_ls", "b_ls", "k_ls", "r_factor", *_COV_BLOCKS):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    cov_x0_inv = _cov_factor("cov_x0", 2)
    cov_x0_inv_sqrt = _cov_factor("cov_x0", 1)
    cov_d0_inv = _cov_factor("cov_d0", 2)
    cov_resid_x_inv = _cov_factor("cov_resid_x", 2)
    cov_resid_x_inv_sqrt = _cov_factor("cov_resid_x", 1)
    cov_resid_u_inv = _cov_factor("cov_resid_u", 2)
    cov_resid_u_inv_sqrt = _cov_factor("cov_resid_u", 1)


def compute_stats(d: Dataset) -> DataStats:
    """Derive least-squares estimates and covariances.

    Requires the state block x0 to have rank n (StateRankViolation) and the
    stacked state-input data to have full row rank (ExcitationViolation).
    Everything comes from the triangular factor R of [x0; u0; x1]^T, in
    O(ell (2n+m)^2) time and O((2n+m)^2) memory beyond the record: with
    k = n+m, the fits solve R[:k, :k] [A B]^T = R[:k, k:] and
    R[:n, :n] K^T = R[:n, n:k], and each covariance is the Gram matrix of
    its diagonal block of R (_COV_BLOCKS).
    """
    n, k = d.n, d.n + d.m
    r = _stack_factor(d)
    rx, r0 = r[:n, :n], r[:k, :k]
    sx = np.linalg.svd(rx, compute_uv=False)
    if _numerical_rank(sx) < n:
        raise StateRankViolation(f"x0 has rank below {n}")
    report = _rank_report(d, r)
    if not report.pe_holds:
        raise ExcitationViolation(
            f"state-input stack has rank {report.rank_data0}, need {k}"
        )

    # LU's partial pivoting leaves an upper-triangular R as it is, so each
    # solve is a back substitution.
    ab_ls = np.linalg.solve(r0, r[:k, k:]).T
    k_ls = np.linalg.solve(rx, r[:n, n:k]).T
    ell = float(d.ell)
    covs = {}
    for name, block in _COV_BLOCKS.items():
        t = r[block(n, k), block(n, k)]
        covs[name] = t.T @ t / ell
    return DataStats(
        n=n,
        m=d.m,
        ell=d.ell,
        a_ls=ab_ls[:, :n],
        b_ls=ab_ls[:, n:],
        k_ls=k_ls,
        rank_report=report,
        r_factor=r,
        **covs,
    )


def row_space_basis(d: Dataset) -> np.ndarray:
    """Orthonormal basis Q0 (ell x (n+m)) of the row space of the stacked
    state-input data, from a thin QR of its transpose.

    Requires the excitation condition, as compute_stats does; without it
    the QR columns would span more than the row space.
    """
    q0, r0 = np.linalg.qr(d.data0().T)
    if _numerical_rank(np.linalg.svd(r0, compute_uv=False)) < d.n + d.m:
        raise ExcitationViolation(
            f"state-input stack is rank deficient, need rank {d.n + d.m}"
        )
    return q0


def kernel_projector(d: Dataset) -> np.ndarray:
    """The ell x ell orthogonal projector I - Q0 Q0^T onto the kernel of the
    stacked state-input data. Only the oracle needs it; anything that only
    applies it should use row_space_basis instead."""
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
            if not np.isfinite(v):
                raise ParseError(f"{path}:{lineno}: field {c + 1} is not finite: {text!r}")
            if c < n:
                x0[c, t] = v
            elif c < n + m:
                u0[c - n, t] = v
            else:
                x1[c - n - m, t] = v
    return Dataset(x0=x0, u0=u0, x1=x1)
