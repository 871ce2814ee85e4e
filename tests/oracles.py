"""References the tests check the proof code against.

No proof stage runs any of these, so they live beside the tests rather
than in conecert, which holds exactly the code the proof runs.  Each
line names the library code an oracle checks:

  * vec_norm_sup, box_intersect: the Euclidean norm and the
    intersection of boxes the Krawczyk solve below uses.
  * SingularEnclosure, solve_interval_linear, solve_interval_linear_cols,
    verified_inverse: a Krawczyk solve with midpoint preconditioning, the
    reference of the chart's signed-transpose inverse C_inv
    (rtbp.jordan_basis) and of the flight's Q^-1 enclosure
    (flow._orthogonal_inverse).
  * matrix_series: the MatrixSeries of a list of IMatrix coefficients,
    for the test fields' variational series and the Horner and column
    tests of flow.
  * series_coefficient, matrix_coefficient, enclosure_from_box: a
    series coefficient in Interval objects, read off the float lists the
    library keeps, and the doubleton of a box the flow tests start from.
  * CoeffSeries, LinearTaylorField: x' = A x with interval Taylor
    recurrences, whose closed-form flows check flow's a-priori tube,
    Taylor step, Lohner update and Poincare crossing.
  * integrate_to_time: flight to a fixed time through _advance, the
    acceptance loop of flow.poincare_crossing, checked against known
    solutions and float integrations.
  * hamiltonian, jacobi_constant: the conserved energy by two routes
    that cross-check each other, for rtbp.vector_field and the flights.
  * vector_field_floats, jacobian_floats: double-precision twins of
    rtbp.vector_field and rtbp.jacobian, for the float integrations
    that flights and the Taylor kernel must contain.
  * symmetry_S: the reversing symmetry of rtbp.vector_field.
  * local_field: F_hat(q) through a verified solve against D(Phi), the
    finite-difference reference of local_jacobian.
  * dpsi_inverse, d2psi: D(psi)^-1 in closed form and the Hessians of
    psi on Interval objects, the scalar forms of the arrays that
    rtbp.local_jacobian_batch builds.
  * local_jacobian: the single-box DF_hat(q), the bit-for-bit reference
    of rtbp.local_jacobian_batch and so of prover.enclose_DF_over_N.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from conecert.flow import (
    H_INIT,
    H_MAX,
    H_MIN,
    ORDER,
    TOL,
    FlowEnclosure,
    _advance,
)
from conecert.interval import (
    Box,
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    _mk,
    eye,
    mat_opnorm_upper,
    sq,
    sqrt,
)
from conecert.rtbp import (
    K_COEFFS,
    LocalChart,
    RtbpParams,
    _chart_terms,
    _coerce,
    _field_terms,
    d_total_change,
    dpsi,
    jacobian,
    total_change,
    vector_field,
)

# -- interval ----------------------------------------------------------------


def vec_norm_sup(v: IVector) -> Interval:
    """Enclosure of the Euclidean norm over the box: sqrt(sum x_i^2)."""
    acc = Interval(0.0)
    for comp in v.c:
        acc = acc + sq(comp)
    # A sum of squares is nonnegative; clamp rounding fuzz before sqrt.
    return sqrt(_mk(max(acc.lo, 0.0), acc.hi))


def box_intersect(a: Box, b: Box) -> Box | None:
    out = []
    for x, y in zip(a.c, b.c):
        z = x.intersect(y)
        if z is None:
            return None
        out.append(z)
    return IVector(out)


def matrix_series(mats: Sequence[IMatrix]) -> MatrixSeries:
    """The MatrixSeries whose coefficient k is mats[k]."""
    n, m = mats[0].shape
    return MatrixSeries(
        [
            [
                (
                    [a.rows[i][j].lo for a in mats],
                    [a.rows[i][j].hi for a in mats],
                )
                for j in range(m)
            ]
            for i in range(n)
        ]
    )


def series_coefficient(series, k: int) -> IVector:
    """Coefficient k of a solution series, from its float_series()."""
    return IVector([_mk(lo[k], hi[k]) for lo, hi in series.float_series()])


def matrix_coefficient(v: MatrixSeries, k: int) -> IMatrix:
    """Coefficient k of a MatrixSeries, from its float lists."""
    return IMatrix([[_mk(lo[k], hi[k]) for lo, hi in row] for row in v.entries])


def enclosure_from_box(box: Box) -> FlowEnclosure:
    """The doubleton of a box at time 0: its midpoint, the box less the
    midpoint on the identity basis, and a zero error part."""
    mid = box.mid()
    ident = eye(len(mid))
    r0 = IVector([c - m for c, m in zip(box, mid)])
    zero = IVector([0.0] * len(mid))
    return FlowEnclosure(mid, ident, zero, Interval(0.0), ident, r0)


# -- linear algebra ------------------------------------------------------------


class SingularEnclosure(ArithmeticError):
    """The interval matrix could not be verified invertible."""


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


# -- generic linear field ---------------------------------------------------------


class CoeffSeries:
    """Plain table of IVector coefficients with the one method flow reads
    from a series, float_series()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list):
        self.coeffs = coeffs

    def float_series(self) -> list:
        return [([c[i].lo for c in self.coeffs], [c[i].hi for c in self.coeffs])
                for i in range(len(self.coeffs[0]))]


class LinearTaylorField:
    """x' = A x with interval-exact Taylor recurrences:
    c_{k+1} = A c_k / (k+1)."""

    def __init__(self, a: IMatrix):
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        self.a = a
        self.dim = n

    def vector_field(self, x) -> IVector:
        return self.a.matvec(_as_ivector(x, self.dim))

    def jacobian(self, x) -> IMatrix:
        return self.a

    def expand(self, u0, order: int) -> CoeffSeries:
        coeffs = [_as_ivector(u0, self.dim)]
        for k in range(order):
            coeffs.append(IVector([c * (1.0 / (k + 1))
                                   for c in self.a.matvec(coeffs[k])]))
        return CoeffSeries(coeffs)

    def expand_variational(
        self, sol, v0: IMatrix, order: int, stop=None
    ) -> MatrixSeries:
        out = [v0]
        for k in range(order):
            d = Interval(1.0 / (k + 1))
            out.append(IMatrix([[c * d for c in row]
                                for row in self.a.matmul(out[k]).rows]))
            if stop is not None and stop(k + 1, matrix_series(out)):
                break
        return matrix_series(out)


def _as_ivector(x, n: int) -> IVector:
    if isinstance(x, IVector):
        v = x
    else:
        v = IVector(
            [c if isinstance(c, Interval) else Interval(float(c)) for c in x]
        )
    if len(v) != n:
        raise ValueError(f"expected {n} components")
    return v


def integrate_to_time(
    field,
    enc: FlowEnclosure,
    t_final: float,
    order: int = ORDER,
    tol: float = TOL,
    h_init: float = H_INIT,
    h_min: float = H_MIN,
    h_max: float = H_MAX,
    observer=None,
) -> FlowEnclosure:
    """Propagate until the represented time reaches t_final (exactly, up to
    the outward rounding of the accumulated time interval)."""
    if t_final <= enc.time.hi:
        raise ValueError("t_final must exceed the current time")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    h_try = min(h_init, h_max)
    slack = 1e-15 * max(1.0, abs(t_final))
    while True:
        remaining = t_final - enc.time.hi
        if remaining <= slack:
            return enc
        enc, data, _, h_try = _advance(
            field, enc, min(h_try, remaining), order, tol, h_min, h_max
        )
        if observer is not None:
            observer(enc, data.tube)


# -- three-body problem ------------------------------------------------------------


def hamiltonian(s, p: RtbpParams) -> Interval:
    x, y, px, py = _coerce(s)
    mu = p.mu
    _, _, s1, s2, _, _, _ = _field_terms(x, y, mu)
    kinetic = (sq(px) + sq(py)) * 0.5 + y * px - x * py
    return kinetic - (1.0 - mu) / sqrt(s1) - mu / sqrt(s2)


def jacobi_constant(s, p: RtbpParams) -> Interval:
    """Jacobi integral C = 2 Omega - (X'^2 + Y'^2).

    Written through Omega and velocities, not through H, so that the
    identity H = -C/2 is a genuine cross-check of both routes.
    """
    x, y, px, py = _coerce(s)
    mu = p.mu
    _, _, s1, s2, _, _, _ = _field_terms(x, y, mu)
    omega = (sq(x) + sq(y)) * 0.5 + (1.0 - mu) / sqrt(s1) + mu / sqrt(s2)
    xdot = px + y
    ydot = py - x
    return omega * 2.0 - sq(xdot) - sq(ydot)


def vector_field_floats(x, mu: float) -> tuple:
    """Double precision twin of rtbp.vector_field."""
    X, Y, PX, PY = (float(c) for c in x)
    d1 = X - mu
    d2 = d1 + 1.0
    s1 = d1 * d1 + Y * Y
    s2 = d2 * d2 + Y * Y
    w1 = s1 ** -1.5
    w2 = s2 ** -1.5
    m1 = 1.0 - mu
    return (
        PX + Y,
        PY - X,
        PY - m1 * d1 * w1 - mu * d2 * w2,
        -PX - Y * (m1 * w1 + mu * w2),
    )


def jacobian_floats(x, mu: float) -> list:
    X, Y, PX, PY = (float(c) for c in x)
    d1 = X - mu
    d2 = d1 + 1.0
    s1 = d1 * d1 + Y * Y
    s2 = d2 * d2 + Y * Y
    m1 = 1.0 - mu
    w1, w2 = s1 ** -1.5, s2 ** -1.5
    v1, v2 = s1 ** -2.5, s2 ** -2.5
    uxx = m1 * (w1 - 3.0 * d1 * d1 * v1) + mu * (w2 - 3.0 * d2 * d2 * v2)
    uxy = -3.0 * Y * (m1 * d1 * v1 + mu * d2 * v2)
    uyy = m1 * (w1 - 3.0 * Y * Y * v1) + mu * (w2 - 3.0 * Y * Y * v2)
    return [
        [0.0, 1.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
        [-uxx, -uxy, 0.0, 1.0],
        [-uxy, -uyy, -1.0, 0.0],
    ]


def symmetry_S(s):
    """(X, Y, P_X, P_Y) -> (X, -Y, -P_X, P_Y); conjugates the flow to its
    time reversal."""
    x, y, px, py = _coerce(s)
    return IVector([x, -y, -px, py])


def local_field(q: IVector, chart: LocalChart, p: RtbpParams) -> IVector:
    """F_hat(q) through the verified solve D(Phi) F_hat = F(Phi(q)),
    independent of the closed form of local_jacobian."""
    x = total_change(q, chart)
    return solve_interval_linear(d_total_change(q, chart), vector_field(x, p))


def dpsi_inverse(q: IVector) -> IMatrix:
    """D(psi)(q)^-1 in closed form: with s = a + k^T k, the Schur
    complement of the identity block of D(psi) = [[a, -k^T], [k, I]],

      D(psi)^-1 = [[1/s, k^T/s], [-k/s, I - k k^T/s]].

    The identity holds for every point selection, so this encloses the
    inverse on any box whose s excludes 0; where s contains 0 the
    division raises DivisionByZeroInterval.
    """
    k, _, a = _chart_terms(q)
    s = a + (sq(k[0]) + sq(k[1]) + sq(k[2]))
    m = [ki / s for ki in k]
    return IMatrix(
        [[1.0 / s] + m]
        + [[-m[i]] + [(1.0 if i == j else 0.0) - k[i] * m[j] for j in range(3)]
           for i in range(3)]
    )


def d2psi(q: IVector) -> list:
    """Hessians of the four psi components; K_i''' = 6 a3 is constant."""
    kpp = _chart_terms(q)[1]
    zero = Interval(0.0)
    d2_head_xx = -(
        q[1] * (6.0 * K_COEFFS[1][1])
        + q[2] * (6.0 * K_COEFFS[2][1])
        + q[3] * (6.0 * K_COEFFS[3][1])
    )
    row0 = [d2_head_xx] + [-c for c in kpp]
    h = [IMatrix([row0] + [[c, zero, zero, zero] for c in row0[1:]])]
    return h + [IMatrix([[c, zero, zero, zero]] + [[zero] * 4] * 3) for c in kpp]


def local_jacobian(q: IVector, chart: LocalChart, p: RtbpParams) -> IMatrix:
    """DF_hat(q) = D(psi)^-1 (C^-1 (DF(Phi) C) D(psi) - T).

    This differentiates D(psi) F_hat = C^-1 F(Phi(q)), since D(Phi) =
    C D(psi): F_hat = D(psi)^-1 C^-1 F(Phi(q)), and row b of T is
    D^2(psi_b) F_hat.  D(psi)^-1 is the closed form of dpsi_inverse and
    C^-1 the chart's C_inv, so nothing is solved.  It is the scalar form
    of rtbp.local_jacobian_batch, each scalar function forming its own
    terms where the batch forms the shared ones once and passes them in;
    the same terms in the same order of operations, so every entry of
    the batch is bit for bit this one.  It also raises as the batch does:
    the field's CollisionSingularity before dpsi_inverse's
    DivisionByZeroInterval.
    """
    x = total_change(q, chart)
    f = vector_field(x, p)
    dpsi_inv = dpsi_inverse(q)
    f_hat = dpsi_inv.matvec(chart.C_inv.matvec(f))
    tensor = IMatrix([h.matvec(f_hat) for h in d2psi(q)])
    c_df_c = chart.C_inv.matmul(jacobian(x, p).matmul(chart.C))
    return dpsi_inv.matmul(c_df_c.matmul(dpsi(q)) - tensor)
