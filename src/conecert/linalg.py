"""Verified linear algebra: interval linear solves and positive
definiteness by interval Cholesky.

Every routine returns enclosures or verdicts that remain valid for all point
selections inside the interval inputs.  Floating-point preconditioners come
from numpy; soundness never depends on them, only enclosure quality does.
No proof stage solves: the chart inverts C as a signed transpose (rtbp).
verified_inverse is the tests' reference for that transpose and for the
flight's Q^-1 enclosure, and solve_interval_linear serves the test-only
rtbp.local_field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import (
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
    return IVector(solve_interval_linear_cols(a, IMatrix([[v] for v in b])).col(0))


def solve_interval_linear_cols(a: IMatrix, b: IMatrix) -> IMatrix:
    """Columnwise solve A X = B sharing one preconditioning of A.

    Each column takes one Krawczyk step with midpoint preconditioning,
    then two tightening sweeps of the contraction
    x -> xhat + r0 + E (x - xhat), where r0 = Y (b - A xhat) is the
    residual pushed through the preconditioner.
    """
    y, e, rho = _precondition(a)
    ym = IMatrix.from_floats(y.tolist())
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
    return IMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])


def verified_inverse(a: IMatrix) -> IMatrix:
    """Interval enclosure of A^{-1} for every A in a."""
    return solve_interval_linear_cols(a, IMatrix.identity(a.shape[0]))


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
