"""Verified linear algebra: interval linear solves and positive
definiteness by interval Cholesky.

Every routine returns enclosures or verdicts that remain valid for all point
selections inside the interval inputs.  Floating-point preconditioners come
from numpy; soundness never depends on them, only enclosure quality does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import (
    IArray,
    IMatrix,
    Interval,
    IVector,
    box_intersect,
    mat_opnorm_upper,
    sq,
    sqrt,
    vec_norm_sup,
)

__all__ = [
    "SingularEnclosure",
    "PDVerdict",
    "solve_interval_linear",
    "solve_interval_linear_cols",
    "verified_inverse",
    "BatchSolver",
    "is_positive_definite",
]


class SingularEnclosure(ArithmeticError):
    """The interval matrix could not be verified invertible."""


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of a positive definiteness check.

    verified False means inconclusive, never a claim of indefiniteness.
    margin is a lower bound on the Cholesky pivots, the quantity that had
    to stay positive.
    """

    verified: bool
    margin: float


def _precondition(a: IMatrix) -> tuple[np.ndarray, IMatrix, float]:
    """Midpoint inverse Y, interval defect E = I - Y a, and an upper bound
    on ||E||.  Raises SingularEnclosure when no contraction is certified."""
    n, m = a.shape
    if n != m:
        raise ValueError("square matrix required")
    mid = np.array(a.mid(), dtype=float)
    try:
        y = np.linalg.inv(mid)
    except np.linalg.LinAlgError as e:
        raise SingularEnclosure("midpoint matrix not invertible") from e
    if not np.all(np.isfinite(y)):
        raise SingularEnclosure("midpoint inverse overflowed")
    ym = IMatrix.from_floats(y.tolist())
    e = IMatrix.identity(n) - ym.matmul(a)
    rho = mat_opnorm_upper(e)
    if not rho < 1.0:
        raise SingularEnclosure(f"defect norm {rho} >= 1, inversion unverified")
    return y, e, rho


def solve_interval_linear(a: IMatrix, b: IVector) -> IVector:
    """Enclosure of {x : A x = v, A in a, v in b}: the one-column case of
    solve_interval_linear_cols.

    Raises SingularEnclosure when invertibility cannot be certified.  The
    returned box contains the solution for every selection, which also proves
    each such selection of A is invertible on the relevant right-hand sides.
    """
    return _Solver(a).vector(b)


def solve_interval_linear_cols(a: IMatrix, b: IMatrix) -> IMatrix:
    """Columnwise solve A X = B sharing one preconditioning of A.

    Each column takes one Krawczyk step with midpoint preconditioning,
    then two tightening sweeps of the contraction
    x -> xhat + r0 + E (x - xhat), where r0 = Y (b - A xhat) is the
    residual pushed through the preconditioner.
    """
    return _Solver(a).cols(b)


class _Solver:
    """The midpoint preconditioning of one interval matrix, made once and
    shared by every solve against it (solve_interval_linear_cols)."""

    def __init__(self, a: IMatrix):
        self.a = a
        self.y, self.e, self.rho = _precondition(a)
        self.ym = IMatrix.from_floats(self.y.tolist())

    def cols(self, b: IMatrix) -> IMatrix:
        a, y, e, rho, ym = self.a, self.y, self.e, self.rho, self.ym
        n = a.shape[0]
        cols = []
        for j in range(b.shape[1]):
            bj = IVector(b.col(j))
            xhat = y @ np.array(bj.mid(), dtype=float)
            xhat_iv = IVector.from_floats(xhat.tolist())
            r0 = ym.matvec(bj - a.matvec(xhat_iv))
            bound = np.nextafter(vec_norm_sup(r0).hi / (1.0 - rho), np.inf)
            ball = IVector([Interval(-bound, bound) for _ in range(n)])
            col = xhat_iv + r0 + e.matvec(ball)
            for _ in range(2):
                refined = xhat_iv + r0 + e.matvec(col - xhat_iv)
                inter = box_intersect(refined, col)
                if inter is None:  # pragma: no cover
                    break
                col = inter
            cols.append(col)
        return IMatrix(
            [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        )

    def vector(self, b: IVector) -> IVector:
        """The one-column case, as in solve_interval_linear."""
        return IVector(self.cols(IMatrix([[v] for v in b])).col(0))


def verified_inverse(a: IMatrix) -> IMatrix:
    """Interval enclosure of A^{-1} for every A in a."""
    return solve_interval_linear_cols(a, IMatrix.identity(a.shape[0]))


class BatchSolver:
    """Verified solves A X = B for a batch of interval matrices.

    The batched twin of solve_interval_linear_cols: `a` is an IArray of
    shape (..., n, n), one matrix per batch entry.  The midpoint
    preconditioning runs once, in the constructor, and every solve
    reuses it; each entry of every solve equals the scalar solve of that
    batch entry bit for bit.  SingularEnclosure is raised when any
    matrix of the batch fails the certificate.
    """

    def __init__(self, a: IArray):
        n = a.shape[-1]
        if a.shape[-2] != n:
            raise ValueError("square matrices required")
        with np.errstate(all="ignore"):
            try:
                y = np.linalg.inv(a.mid())
            except np.linalg.LinAlgError as e:
                raise SingularEnclosure("midpoint matrix not invertible") from e
        if not np.all(np.isfinite(y)):
            raise SingularEnclosure("midpoint inverse overflowed")
        self.a = a
        self.y = y
        self.ym = IArray(y)
        self.e = IArray.stack(IMatrix.identity(n)) - self.ym.matmul(a)
        self.rho = _opnorm_upper(self.e)
        if not np.all(self.rho < 1.0):
            raise SingularEnclosure(
                f"defect norm {np.max(self.rho)} >= 1, inversion unverified"
            )

    def solve(self, b: IArray) -> IArray:
        """Enclosure of the solutions for right-hand sides b (..., n, m):
        one Krawczyk step and two tightening sweeps per column, as in
        solve_interval_linear_cols."""
        a, e = self.a, self.e
        bmid = b.mid()
        xhat = np.empty(bmid.shape)
        with np.errstate(all="ignore"):
            # the midpoint solve column by column: the same BLAS call as
            # the scalar y @ mid(b_j), so the same rounding
            for j in range(bmid.shape[-1]):
                col = np.ascontiguousarray(bmid[..., j])
                xhat[..., j] = np.matmul(self.y, col[..., None])[..., 0]
        xh = IArray(xhat)
        r0 = self.ym.matmul(b - a.matmul(xh))
        with np.errstate(all="ignore"):
            bound = np.nextafter(
                _norm_upper(r0) / (1.0 - self.rho[..., None]), np.inf
            )
        ball = IArray(
            np.broadcast_to(-bound[..., None, :], r0.shape),
            np.broadcast_to(bound[..., None, :], r0.shape),
        )
        col = xh + r0 + e.matmul(ball)
        done = np.zeros(bound.shape, dtype=bool)
        for _ in range(2):
            refined = xh + r0 + e.matmul(col - xh)
            # box_intersect per column; an empty one keeps its box and
            # stops sweeping
            lo = np.where(col.lo > refined.lo, col.lo, refined.lo)
            hi = np.where(col.hi < refined.hi, col.hi, refined.hi)
            done |= (lo > hi).any(axis=-2)
            keep = done[..., None, :]
            col = IArray(np.where(keep, col.lo, lo), np.where(keep, col.hi, hi))
        return col


def _opnorm_upper(m: IArray) -> np.ndarray:
    """mat_opnorm_upper of every matrix of a batch (..., n, k), with the
    same float operations in the same order."""
    up = np.inf
    mags = np.maximum(np.abs(m.lo), np.abs(m.hi))
    n, k = mags.shape[-2:]
    with np.errstate(all="ignore"):
        squares = np.nextafter(mags * mags, up)
        fro2 = 0.0
        for i in range(n):
            for j in range(k):
                fro2 = np.nextafter(fro2 + squares[..., i, j], up)
        fro = np.nextafter(np.sqrt(fro2), up)
        rows = 0.0
        for j in range(k):
            rows = np.nextafter(rows + mags[..., :, j], up)
        cols = 0.0
        for i in range(n):
            cols = np.nextafter(cols + mags[..., i, :], up)
        norm_inf = np.maximum(rows.max(axis=-1), 0.0)
        norm_1 = np.maximum(cols.max(axis=-1), 0.0)
        holder = np.nextafter(np.sqrt(np.nextafter(norm_1 * norm_inf, up)), up)
        return np.minimum(fro, holder)


def _norm_upper(v: IArray) -> np.ndarray:
    """vec_norm_sup(...).hi of every column of a batch (..., n, m)."""
    sqs = sq(v)
    acc = IArray(np.zeros(sqs.shape[:-2] + sqs.shape[-1:]))
    for i in range(v.shape[-2]):
        acc = acc + sqs[..., i, :]
    with np.errstate(all="ignore"):
        root = np.nextafter(np.sqrt(acc.hi), np.inf)
    return np.where(acc.hi != 0.0, root, 0.0)


def is_positive_definite(m: IMatrix) -> PDVerdict:
    """Verify x^T M x > 0 for all x != 0 and every selection of M.

    Interval Cholesky on the symmetric part of M (the quadratic form only
    sees the symmetric part): every pivot must stay positive.  A False
    verdict is always inconclusive rather than a disproof.
    """
    m = m.symmetrize()
    n = m.shape[0]
    low: list[list[Interval]] = [[Interval(0.0)] * n for _ in range(n)]
    margin = np.inf
    for j in range(n):
        d = m[j, j]
        for k in range(j):
            d = d - sq(low[j][k])
        if not d.lo > 0.0:
            return PDVerdict(False, d.lo)
        margin = min(margin, d.lo)
        ljj = sqrt(d)
        low[j][j] = ljj
        for i in range(j + 1, n):
            s = m[i, j]
            for k in range(j):
                s = s - low[i][k] * low[j][k]
            low[i][j] = s / ljj
    return PDVerdict(True, float(margin))
