"""Verified positive definiteness by interval Cholesky.

The verdict holds for every point selection inside the interval input.
cones checks its cone matrices with it.  No proof stage solves a linear
system: the chart inverts C as a signed transpose (rtbp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval import IMatrix, Interval, sq, sqrt

__all__ = ["PDVerdict", "is_positive_definite"]


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of a positive definiteness check.

    verified False means inconclusive, never a claim of indefiniteness.
    margin is a lower bound on the Cholesky pivots, the quantity that had
    to stay positive.
    """

    verified: bool
    margin: float


def is_positive_definite(m: IMatrix) -> PDVerdict:
    """Verify x^T M x > 0 for all x != 0 and every selection of M.

    Interval Cholesky on the symmetric part of M (the quadratic form only
    sees the symmetric part): every pivot must stay positive.  A False
    verdict is always inconclusive rather than a disproof.
    """
    m = m.symmetrize()
    n = m.shape[0]
    low: list[list[Interval]] = [[Interval(0.0)] * n for _ in range(n)]
    margin = math.inf
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
