"""Planar circular restricted three-body problem, Hamiltonian form.

Rotating frame, primaries of mass 1 - mu at (mu, 0) and mu at (mu - 1, 0),
positions (X, Y) and momenta P_X = X' - Y, P_Y = Y' + X:

  H = (P_X^2 + P_Y^2) / 2 + Y P_X - X P_Y - (1 - mu) / r1 - mu / r2
  X'   = P_X + Y
  Y'   = P_Y - X
  P_X' = P_Y - (1 - mu) d1 / r1^3 - mu d2 / r2^3
  P_Y' = -P_X - Y ((1 - mu) / r1^3 + mu / r2^3)

with d1 = X - mu, d2 = X - mu + 1, r_i^2 = d_i^2 + Y^2.  Everything here
is interval arithmetic unless the name says floats.  A state is an IVector
or a sequence (X, Y, P_X, P_Y) of Intervals or floats.

The module also builds the local chart at the interior collinear
libration point: a verified linear change C putting the linearization
into the Jordan form diag(lambda, -lambda, rot(v)), composed with a cubic
polynomial change psi that straightens the unstable direction.  C carries
the symplectic normalization of Jorba and Masdemont (Physica D 132, 1999),
C^T J C = J' with J = [[0, I], [-I, 0]] in (X, Y, P_X, P_Y) and
J' = diag([[0, 1], [-1, 0]], [[0, 1], [-1, 0]]) in the chart order
(lambda, -lambda, rotation pair), so C^-1 = -J' C^T J is a signed
transpose of C with no rounding.  The local Jacobian inverts
D(Phi) = C D(psi) by that transpose and the closed form of D(psi)^-1,
never by a linear solve.  Its batch form has a psi half, psi, D(psi),
D(psi)^-1 and D^2(psi) over the pieces (_psi_terms), which depends only
on the pieces and not on the mass, so prover computes it once per N and
subdivision; the mass half, C, C^-1, L1 and the field, runs per call.

A state may carry the mass as a fifth coordinate, (X, Y, P_X, P_Y, mu)
with mu' = 0.  RtbpTaylorField then reads mu from the state, and the
variational matrix gets a mu column driven by dF/dmu, whose nonzero
entries are

  dP_X'/dmu = d1 w1 - d2 w2 + Omega_XX,   dP_Y'/dmu = Y (w1 - w2) + Omega_XY

with w_i = r_i^-3 and Omega the second partials whose negatives fill rows
2 and 3 of the Jacobian.  A flight over a mass band so carries the mass
dependence as one linear direction of its set instead of as width.

The Taylor recurrences of the solution and of the variational matrix run
in one kernel over float endpoint lists, not over Interval objects.  Its
rounding model: each convolution sum_i a_i b_{n-1-i} of n interval terms
is one fused dot.  The lower and upper corner product t_i of each term is
picked by sign and added in round-to-nearest into a running sum s_i, and
the dot is widened once at the end by the running bound

  |err| <= u (sum |t_i| + sum |s_i|) (1 + O(n u)) + n eta,

u = 2^-53 the unit roundoff and eta = 2^-1074 the smallest subnormal; it
covers the rounding of every product, subnormal ones included, and of
every partial sum (Ogita, Rump and Oishi, "Accurate sum and dot
product", SISC 26, 2005).  The widening is itself an exact-directed sum,
as in the Interval addition, written out in the dot with no call: its
TwoSum error test rounds each end as _add_dn and _add_up would.  Division
by the Taylor index k+1 divides by the exact integer and rounds outward,
rather than multiplying by a rounded 1/(k+1).  A dot with an infinite
endpoint, or one whose sums overflow, falls back to the per-term outward
rounding of idot.  Outside the dots the pair arithmetic calls the
exact-directed sums _add_dn and _add_up and nudges each product outward,
directly; the squares and the product of a distance with X take their
corners on float pairs (_sq_ends, _mul_ends), as sq and the Interval
product round them; the power-rule weights j - a (k - j) of r^-3 and
r^-5 come from a table built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .interval import (
    DivisionByZeroInterval,
    IArray,
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    _add_dn,
    _add_up,
    _ends,
    _idot_ends,
    _lowest,
    _mk,
    _mul_ends,
    _quiet,
    _sq_ends,
    eye,
    sq,
    sqrt,
)

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter

__all__ = [
    "CollisionSingularity",
    "ChartError",
    "RtbpParams",
    "LocalChart",
    "K_COEFFS",
    "vector_field",
    "jacobian",
    "libration_L1",
    "libration_L1_slope",
    "jordan_basis",
    "jordan_residual",
    "psi",
    "dpsi",
    "total_change",
    "d_total_change",
    "local_jacobian_batch",
    "RtbpTaylorField",
    "RtbpSolutionSeries",
]


class CollisionSingularity(ArithmeticError):
    """A distance enclosure to one of the primaries reached zero."""


class ChartError(RuntimeError):
    """Chart construction failed its internal verification."""


@dataclass(frozen=True)
class RtbpParams:
    """Mass parameter enclosure; mu is the smaller primary's mass."""

    mu: Interval

    def __post_init__(self):
        if not (0.0 < self.mu.lo <= self.mu.hi < 1.0):
            raise ValueError("mu must lie strictly inside (0, 1)")

    @classmethod
    def from_float(cls, mu: float) -> "RtbpParams":
        return cls(Interval(mu))


def _coerce(s, sizes: tuple = (4,)) -> tuple:
    if isinstance(s, IVector):
        comps = tuple(s.c)
    else:
        comps = tuple(
            x if isinstance(x, Interval) else Interval(float(x)) for x in s
        )
    if len(comps) not in sizes:
        raise ValueError(
            "state needs four components"
            + (", or five with the mass" if 5 in sizes else "")
        )
    return comps


def _field_terms(x: Interval, y: Interval, mu: Interval) -> tuple:
    """(d1, d2, s1, s2, w1, w2, Y^2) with s_i = r_i^2 and w_i = r_i^-3,
    the terms that the field, its Jacobian and the series start share.
    Raises CollisionSingularity when an r_i^2 reaches 0."""
    d1 = x - mu
    d2 = d1 + 1.0
    ysq = sq(y)
    s1 = sq(d1) + ysq
    s2 = sq(d2) + ysq
    low1, low2 = _lowest(s1), _lowest(s2)
    if low1 <= 0.0 or low2 <= 0.0:
        # the least ends only: a batch's full enclosures would make the
        # message as long as the batch
        raise CollisionSingularity(
            "distance enclosure touches a primary: "
            f"least r1^2={low1:.3e}, least r2^2={low2:.3e}"
        )
    return d1, d2, s1, s2, _inv_r3(s1), _inv_r3(s2), ysq


def _inv_r3(s: Interval) -> Interval:
    # s = r^2, returns r^-3 = 1 / (s sqrt(s))
    return 1.0 / (s * sqrt(s))


def vector_field(s, p: RtbpParams, terms: tuple | None = None) -> IVector:
    """F(s); terms are the _field_terms of s, formed here if not given."""
    x, y, px, py = _coerce(s)
    mu = p.mu
    m1 = 1.0 - mu
    d1, d2, _, _, w1, w2, _ = terms or _field_terms(x, y, mu)
    return IVector([px + y, py - x, py - m1 * (d1 * w1) - mu * (d2 * w2),
                    -px - y * (m1 * w1 + mu * w2)])


def _second_partials(y, mu: Interval, terms: tuple) -> tuple:
    """Omega_XX, Omega_XY, Omega_YY of the gradient part of the field."""
    d1, d2, s1, s2, w1, w2, ysq = terms
    m1 = 1.0 - mu
    v1, v2 = w1 / s1, w2 / s2
    uxx = m1 * (w1 - 3.0 * (sq(d1) * v1)) + mu * (w2 - 3.0 * (sq(d2) * v2))
    uxy = (m1 * (d1 * v1) + mu * (d2 * v2)) * y * (-3.0)
    uyy = m1 * (w1 - 3.0 * (ysq * v1)) + mu * (w2 - 3.0 * (ysq * v2))
    return uxx, uxy, uyy


def jacobian(s, p: RtbpParams, terms: tuple | None = None) -> IMatrix:
    """DF(s); terms as for vector_field."""
    x, y, px, py = _coerce(s)
    terms = terms or _field_terms(x, y, p.mu)
    uxx, uxy, uyy = _second_partials(y, p.mu, terms)
    z = Interval(0.0)
    one = Interval(1.0)
    return IMatrix([[z, one, one, z], [-one, z, z, one],
                    [-uxx, -uxy, z, one], [-uxy, -uyy, -one, z]])


def _band_jacobian(s: tuple) -> IMatrix:
    """5 x 5 Jacobian in (X, Y, P_X, P_Y, mu): the 4 x 4 block at the
    state's mass, the mu column dF/dmu and a zero row for mu' = 0.  The
    column's nonzero entries are dP_X'/dmu and dP_Y'/dmu."""
    y, mu = s[1], s[4]
    terms = _field_terms(s[0], y, mu)
    j = jacobian(s[:4], RtbpParams(mu), terms)
    d1, d2, _, _, w1, w2, _ = terms
    uxx, uxy, _ = _second_partials(y, mu, terms)
    z = Interval(0.0)
    col = (z, z, d1 * w1 - d2 * w2 + uxx, y * (w1 - w2) + uxy)
    rows = [list(row) + [g] for row, g in zip(j.rows, col)]
    return IMatrix(rows + [[z] * 5])


# -- libration point ----------------------------------------------------------


def _newton_root(f, df, x: Interval, guess: float, what: str) -> Interval:
    """Enclosure of the one zero of f in x by the one-dimensional interval
    Newton operator N(m, X) = m - f(m) / f'(X), where f and df map an
    Interval to enclosures of f and f' over it.  The first image, from
    m = guess, must lie strictly inside x: it then holds exactly one zero
    of f (Moore, Interval Analysis, 1966).  It is refined by
    N <- N(mid N, N) & N until a sweep keeps more than 99 percent of the
    width, the intersection is empty, or 50 sweeps have run in all.
    Raises ChartError, naming the root `what`, when f'(x) contains zero
    or the first image is not strictly inside x.
    """
    g = Interval(guess)
    try:
        n = g - f(g) / df(x)
    except DivisionByZeroInterval as exc:
        raise ChartError(f"{what}: no Newton image over {x}: {exc}") from exc
    if not n.strictly_inside(x):
        raise ChartError(f"{what}: Newton image {n} not strictly inside {x}")
    for _ in range(49):
        width = n.width
        m = Interval(n.mid)
        refined = (m - f(m) / df(n)).intersect(n)
        if refined is None:
            break
        n = refined
        if n.width > 0.99 * width:
            break
    return n


def _l1_equation(x: Interval, mu: Interval) -> Interval:
    # collinear equilibrium between the primaries: mu - 1 < x < mu
    return x + (1.0 - mu) / sq(mu - x) - mu / sq(x - mu + 1.0)


def _l1_derivative(x: Interval, mu: Interval) -> Interval:
    a = mu - x
    b = x - mu + 1.0
    return 1.0 + ((1.0 - mu) * 2.0) / (sq(a) * a) + (mu * 2.0) / (sq(b) * b)


def _l1_mass_derivative(x: Interval, mu: Interval) -> Interval:
    a = mu - x
    b = x - mu + 1.0
    return -(
        1.0 / sq(a) + ((1.0 - mu) * 2.0) / (sq(a) * a)
        + 1.0 / sq(b) + (mu * 2.0) / (sq(b) * b)
    )


def _l1_equation_float(x: float, mu: float) -> float:
    return x + (1.0 - mu) / (mu - x) ** 2 - mu / (x - mu + 1.0) ** 2


def libration_L1(p: RtbpParams) -> IVector:
    """Enclosure of the interior collinear point (x, 0, 0, x).

    The momentum convention puts P_Y = x at the equilibrium.  The X
    coordinate is verified by the one-dimensional interval Newton
    operator (_newton_root); the equation is strictly increasing between
    the primaries so the root is simple.
    """
    mu_mid = p.mu.mid
    lo, hi = mu_mid - 1.0 + 1e-9, mu_mid - 1e-9
    flo = _l1_equation_float(lo, mu_mid)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _l1_equation_float(mid, mu_mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 4e-16 * abs(lo):
            break
    guess = 0.5 * (lo + hi)
    pad = max(1e-8, 1e4 * p.mu.width)
    x = _newton_root(
        partial(_l1_equation, mu=p.mu),
        partial(_l1_derivative, mu=p.mu),
        Interval(guess - pad, guess + pad),
        guess,
        "L1 abscissa",
    )
    zero = Interval(0.0)
    return IVector([x, zero, zero, x])


def libration_L1_slope(p: RtbpParams, x: Interval) -> Interval:
    """Enclosure of d x_L1 / d mu for every mass in p.mu, given an
    enclosure x of the L1 abscissa over p.mu (libration_L1(p)[0]).

    By the implicit function theorem the slope is -E_mu / E_x of the L1
    equation E(x, mu) = 0; E_x > 0 between the primaries.
    """
    return -_l1_mass_derivative(x, p.mu) / _l1_derivative(x, p.mu)


# -- Jordan-form linear chart --------------------------------------------------


K_COEFFS = (
    (),
    (-0.4426997319120566, 0.2117307906593041),
    (0.7204702544171099, -0.2077414984788253),
    (0.6096754412253178, -1.6248371332133488),
)
"""Quadratic and cubic coefficients (a2, a3) of the polynomial part of the
unstable-direction parameterization K_1..K_3; K_0(x) = x.  Numerically
obtained for the homoclinic mass-parameter band and shared across it."""


@dataclass(frozen=True)
class LocalChart:
    """Verified chart data at L1 for one mass-parameter enclosure.

    C encloses the symplectic C(mu) of each mass mu in it, and
    C_inv = -J' C^T J encloses each C(mu)^-1: all the local Jacobian
    needs, as the chart of mass mu is L1(mu) + C(mu) psi.  C_inv need not
    enclose the inverse of every other selection of the interval C.
    """

    mu: Interval
    L1: IVector
    C: IMatrix
    C_inv: IMatrix
    lam: Interval
    v: Interval


def _quadratic_factor(w: Interval, c2: Interval) -> Interval:
    # lambda^2 and -v^2 solve w^2 + (2 - c2) w + (1 + c2 - 2 c2^2) = 0
    return sq(w) + (2.0 - c2) * w + (1.0 + c2 - (sq(c2) * 2.0))


def _quadratic_factor_d(w: Interval, c2: Interval) -> Interval:
    return w * 2.0 + (2.0 - c2)


def _certify_quadratic_root(guess: float, c2: Interval) -> Interval:
    return _newton_root(
        partial(_quadratic_factor, c2=c2),
        partial(_quadratic_factor_d, c2=c2),
        Interval(guess - 1e-5, guess + 1e-5),
        guess,
        "eigenvalue factor root",
    )


def jordan_residual(chart: LocalChart, p: RtbpParams) -> IMatrix:
    """C^-1 DF(L1) C minus diag(lambda, -lambda, rot(v)); all entries
    contain 0 for a valid chart."""
    r = chart.C_inv.matmul(jacobian(chart.L1, p).matmul(chart.C))
    rows = [list(r.row(i)) for i in range(4)]
    lam, v = chart.lam, chart.v
    for i, j, val in ((0, 0, lam), (1, 1, -lam), (2, 3, v), (3, 2, -v)):
        rows[i][j] = rows[i][j] - val
    return IMatrix(rows)


def jordan_basis(p: RtbpParams) -> LocalChart:
    """Build the verified linear chart at L1.

    gamma is the distance from L1 to the smaller primary, c2 the standard
    collinear-point coefficient; lambda and v come from the quadratic
    factor of the characteristic polynomial, whose roots lambda^2 and
    -v^2 are certified by the one-dimensional interval Newton operator
    (_newton_root).  s1 and s2 scale the columns so that C^T J C = J'
    exactly for each mass, so C_inv = -J' C^T J, each entry +- an entry of
    C, encloses each C(mu)^-1 (LocalChart).  The chart is rejected unless
    the Jordan residual, which a wrong normalization breaks, encloses zero.
    """
    l1 = libration_L1(p)
    mu = p.mu
    x = l1[0]
    gamma = x + 1.0 - mu
    g3 = sq(gamma) * gamma
    h = 1.0 - gamma
    c2 = (mu + (1.0 - mu) * g3 / (sq(h) * h)) / g3
    c2m = c2.mid
    disc = (2.0 - c2m) ** 2 - 4.0 * (1.0 + c2m - 2.0 * c2m * c2m)
    root = disc**0.5
    w_plus = 0.5 * (c2m - 2.0 + root)
    w_minus = 0.5 * (c2m - 2.0 - root)
    wp = _certify_quadratic_root(w_plus, c2)
    wm = _certify_quadratic_root(w_minus, c2)
    if wp.lo <= 0.0 or wm.hi >= 0.0:
        raise ChartError("eigenvalue factor roots have unexpected signs")
    lam = sqrt(wp)
    v = sqrt(-wm)

    lam2 = sq(lam)
    lam3 = lam2 * lam
    v2 = sq(v)
    v3 = v2 * v
    four3c2 = 4.0 + c2 * 3.0
    s1_arg = (lam * 2.0) * (four3c2 * lam2 + 4.0 + c2 * 5.0 - sq(c2) * 6.0)
    s2_arg = v * (four3c2 * v2 - 4.0 - c2 * 5.0 + sq(c2) * 6.0)
    if s1_arg.lo <= 0.0 or s2_arg.lo <= 0.0:
        raise ChartError("normalization under the square roots not positive")
    s1 = sqrt(s1_arg)
    s2 = sqrt(s2_arg)

    two_c2_1 = c2 * 2.0 + 1.0
    col0 = [
        lam * 2.0 / s1,
        (lam2 - two_c2_1) / s1,
        (lam2 + two_c2_1) / s1,
        (lam3 + (1.0 - c2 * 2.0) * lam) / s1,
    ]
    col1 = [-col0[0], col0[1], col0[2], -col0[3]]
    zero = Interval(0.0)
    col2 = [
        zero,
        (-v2 - two_c2_1) / s2,
        (-v2 + two_c2_1) / s2,
        zero,
    ]
    col3 = [
        v * 2.0 / s2,
        zero,
        zero,
        (-v3 + (1.0 - c2 * 2.0) * v) / s2,
    ]
    cols = (col0, col1, col2, col3)
    c_mat = IMatrix([[cols[j][i] for j in range(4)] for i in range(4)])
    # C^-1 = -J' C^T J: row r is column r ^ 1 of C, halves swapped, signed
    inv_rows = []
    for r in range(4):
        col = cols[r ^ 1]
        row = [col[2], col[3], -col[0], -col[1]]
        inv_rows.append(row if r % 2 == 0 else [-e for e in row])

    chart = LocalChart(
        mu=mu, L1=l1, C=c_mat, C_inv=IMatrix(inv_rows), lam=lam, v=v
    )
    residual = jordan_residual(chart, p)
    for i in range(4):
        for j in range(4):
            if 0.0 not in residual.rows[i][j]:
                raise ChartError(
                    f"Jordan residual entry ({i},{j}) excludes zero: "
                    f"{residual.rows[i][j]}"
                )
    return chart


# -- nonlinear chart -----------------------------------------------------------


def _ydot(q, c) -> Interval:
    """sum y_i c_i over the transversal coordinates y_i = q[i], i = 1..3."""
    return q[1] * c[0] + q[2] * c[1] + q[3] * c[2]


def _chart_terms(q) -> tuple:
    """(K', K'', a) at q: K_i'(x) and K_i''(x) for i = 1..3 (K_0(x) = x),
    and a = 1 - sum y_i K_i''(x), with which D(psi)(q) = [[a, -k^T],
    [k, I]] and k = K'.  psi and dpsi form them from q, and _psi_terms
    builds D(psi)^-1 and D^2(psi) from them."""
    x = q[0]
    kp = [x * (2.0 * a2 + x * (3.0 * a3)) for a2, a3 in K_COEFFS[1:]]
    kpp = [x * (6.0 * a3) + 2.0 * a2 for a2, a3 in K_COEFFS[1:]]
    return kp, kpp, 1.0 - _ydot(q, kpp)


def psi(q: IVector) -> IVector:
    """psi_0 = x - sum y_i K_i'(x); psi_i = K_i(x) + y_i (K_0' = 1), with
    K_i(x) = x^2 (a2 + a3 x)."""
    kp = _chart_terms(q)[0]
    x = q[0]
    xsq = sq(x)
    head = x - _ydot(q, kp)
    return IVector([head] + [xsq * (a2 + x * a3) + q[i]
                             for i, (a2, a3) in enumerate(K_COEFFS[1:], 1)])


def dpsi(q: IVector) -> IMatrix:
    k, _, a = _chart_terms(q)
    return IMatrix([[a] + [-ki for ki in k]]
                   + [[ki] + row for ki, row in zip(k, eye(3))])


def _dpsi_inverse_array(terms: tuple) -> IArray:
    """D(psi)^-1 = [[1/s, m^T], [-m, I - k m^T]], s = a + k^T k and
    m = k/s, over a batch as one (..., 4, 4) IArray from the chart terms:
    m is one (..., 3) division and I - k m^T one broadcast product, each
    entry rounded as by tests/oracles.dpsi_inverse, the scalar form."""
    kp, _, a = terms
    s = IArray.stack([a + (sq(kp[0]) + sq(kp[1]) + sq(kp[2]))])
    k = IArray.stack(kp)
    m = k / s
    rest = IArray(np.eye(3)) - k[..., :, None] * m[..., None, :]
    # axis 0 holds (lo, hi), so each block is written with both ends
    inv = np.empty((2,) + m.shape[:-1] + (4, 4))
    inv[..., 0, :1], inv[..., 0, 1:] = _ends(1.0 / s), _ends(m)
    inv[..., 1:, 0], inv[..., 1:, 1:] = _ends(-m), _ends(rest)
    return IArray._of(*inv)


def total_change(q: IVector, chart: LocalChart) -> IVector:
    """Phi(q) = L1 + C psi(q), from local to original coordinates."""
    return chart.L1 + chart.C.matvec(psi(q))


def d_total_change(q: IVector, chart: LocalChart) -> IMatrix:
    return chart.C.matmul(dpsi(q))


@_quiet
def _psi_terms(q) -> tuple:
    """psi, D(psi), D(psi)^-1 and D^2(psi) of a batch q as IArrays, the
    half of local_jacobian_batch that reads no mass.  D^2(psi) stacks the
    Hessians of psi_0..psi_3, axes (..., b, i, j), rounded as by
    tests/oracles.d2psi: K_i''' = 6 a3 is constant, and only row and column
    0 of D^2(psi_0) and entry (0, 0) of the others are not 0.  A failed
    D(psi)^-1 is its DivisionByZeroInterval, with no traceback."""
    t = _chart_terms(q)
    try:
        inv = _dpsi_inverse_array(t)
    except DivisionByZeroInterval as exc:
        inv = exc.with_traceback(None)
    v = IArray.stack([-_ydot(q, [6.0 * a3 for _, a3 in K_COEFFS[1:]])] + t[1])
    d2 = np.zeros((2,) + v.shape[:-1] + (4, 4, 4))
    d2[..., 0, 0] = _ends(v)
    d2[..., 0, 0, 1:] = d2[..., 0, 1:, 0] = _ends(-v[..., 1:])
    return IArray.stack(psi(q)), IArray.stack(dpsi(q)), inv, IArray._of(*d2)


@_quiet
def local_jacobian_batch(
    q: IVector, chart: LocalChart, p: RtbpParams, terms: tuple
) -> IArray:
    """DF_hat(q) = D(psi)^-1 (C^-1 (DF(Phi) C) D(psi) - T) over a batch of
    boxes, in one array pass.

    This differentiates D(psi) F_hat = C^-1 F(Phi(q)), since D(Phi) =
    C D(psi): F_hat = D(psi)^-1 C^-1 F(Phi(q)), and row b of T is
    D^2(psi_b) F_hat.  D(psi)^-1 is in closed form and C^-1 is the
    chart's C_inv, so nothing is solved.  Each component of q is an
    IArray along a leading batch axis or an Interval every box shares.

    terms are the _psi_terms of q, which read no mass;
    prover.enclose_DF_over_N passes them from a cache of two entries,
    keyed by the bits of N's ends and the subdivision, whose arrays are
    read-only.  The mass half runs per call, vector_field and
    jacobian sharing one _field_terms, all under one np.errstate.  Entry
    k of the (..., 4, 4) result is bit for bit tests/oracles.local_jacobian
    on box k.  As there, the field's CollisionSingularity comes before
    the DivisionByZeroInterval of D(psi)^-1, which terms hold as an
    exception that this raises after the field, cached or not; when boxes
    fail, the exception class is one the single-box form raises on some
    failing box, not necessarily the first.
    """
    c = IArray.stack(chart.C)
    c_inv = IArray.stack(chart.C_inv)
    psi_q, dpsi_q, dpsi_inv, d2 = terms
    x = IArray.stack(chart.L1) + c.matmul(psi_q[..., None])[..., 0]
    xs = IVector([x[..., i] for i in range(4)])
    field_terms = _field_terms(xs[0], xs[1], p.mu)
    f = IArray.stack(vector_field(xs, p, field_terms))
    if isinstance(dpsi_inv, DivisionByZeroInterval):
        raise DivisionByZeroInterval(*dpsi_inv.args)
    f_hat = dpsi_inv.matmul(c_inv.matmul(f[..., None]))
    # axes (..., b, j): row b is D^2(psi_b) F_hat
    tensor = d2.matmul(f_hat[..., None, :, :])[..., 0]
    df = IArray.stack(jacobian(xs, p, field_terms))
    c_df_c = c_inv.matmul(df.matmul(c))
    return dpsi_inv.matmul(c_df_c.matmul(dpsi_q) - tensor)


# -- Taylor series kernel ------------------------------------------------------
#
# The recurrences run on pairs of float lists (lo, hi), one pair per series,
# never on Interval objects; the rounding model is in the module docstring.

_U = 2.0**-53  # unit roundoff of round-to-nearest
_ETA = 5e-324  # smallest positive subnormal
# u (1 + 2^-20): the slack covers the rounding of the error sums themselves
# and of their product with u, for any dot of fewer than 2^31 terms
_C = _U + 2.0**-73


def _dot(alo: list, ahi: list, blo: list, bhi: list) -> tuple:
    """Enclosure (lo, hi) of sum_i [alo_i, ahi_i] * [blo_i, bhi_i] over
    the common length of the two sides."""
    lo = hi = elo = ehi = 0.0
    for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
        if a0 >= 0.0:
            if b0 >= 0.0:
                p = a0 * b0
                q = a1 * b1
            elif b1 <= 0.0:
                p = a1 * b0
                q = a0 * b1
            else:
                p = a1 * b0
                q = a1 * b1
        elif a1 <= 0.0:
            if b0 >= 0.0:
                p = a0 * b1
                q = a1 * b0
            elif b1 <= 0.0:
                p = a1 * b1
                q = a0 * b0
            else:
                p = a0 * b1
                q = a0 * b0
        elif b0 >= 0.0:
            p = a0 * b1
            q = a1 * b1
        elif b1 <= 0.0:
            p = a1 * b0
            q = a0 * b0
        else:
            p = a0 * b1
            t = a1 * b0
            if t < p:
                p = t
            q = a0 * b0
            t = a1 * b1
            if t > q:
                q = t
        lo += p
        hi += q
        # conditionals in place of abs(), min() and max(): no call per term
        elo += (p if p >= 0.0 else -p) + (lo if lo >= 0.0 else -lo)
        ehi += (q if q >= 0.0 else -q) + (hi if hi >= 0.0 else -hi)
    eta = min(len(alo), len(blo)) * _ETA
    elo = elo * _C + eta
    ehi = ehi * _C + eta
    if elo < _INF and ehi < _INF:  # false when a sum is infinite or NaN
        # _add_dn(lo, -elo) and _add_up(hi, ehi) inline; the operands are
        # finite, so only an overflow makes the TwoSum error NaN, and it
        # leaves the infinity the exact-directed sum gives
        s, u = lo - elo, hi + ehi
        t, v = s - lo, u - hi
        if (lo - (s - t)) - (elo + t) < 0.0:
            s = _nextafter(s, _NINF)
        if (hi - (u - v)) + (ehi - v) > 0.0:
            u = _nextafter(u, _INF)
        return s, u
    # an infinite endpoint or an overflow: one outward nudge per term and
    # exact-directed sums, with 0 * inf = 0
    return _idot_ends(alo, ahi, blo, bhi)


def _div_pos(a0: float, a1: float, d0: float, d1: float) -> tuple:
    """[a0, a1] / [d0, d1] for a divisor with 0 < d0 <= d1."""
    q0 = a0 / (d1 if a0 >= 0.0 else d0)
    q1 = a1 / (d0 if a1 >= 0.0 else d1)
    if q0 != q0 or q1 != q1:  # inf / inf
        r = _mk(a0, a1) / _mk(d0, d1)
        return r.lo, r.hi
    return _nextafter(q0, _NINF), _nextafter(q1, _INF)


def _start(lo: float, hi: float) -> tuple:
    """A series pair holding coefficient 0 only."""
    return [lo], [hi]


# the weights j - a (k - j), j < k, of coefficient k of S^a for the two
# powers the kernel takes, w = s^-3/2 and v = s^-5/2: half-integers, exact
_POWER_WEIGHTS = {a: [[j - a * (k - j) for j in range(k)] for k in range(64)]
                  for a in (-1.5, -2.5)}


def _power_next(s: tuple, pw: tuple, a: float, k: int) -> tuple:
    """Coefficient k >= 1 of P = S^a, a in {-1.5, -2.5}, from
    p_0..p_{k-1}.

    k s_0 p_k = sum_{j<k} (a (k - j) - j) s_{k-j} p_j, and every weight
    is negative, so p_k = -(sum_j |w_j| s_{k-j} p_j) / (k s_0).
    """
    (sl, sh), (pl, ph) = s, pw
    table = _POWER_WEIGHTS[a]
    ws = table[k] if k < len(table) else [j - a * (k - j) for j in range(k)]
    tl = [_nextafter(w * x, _NINF) for w, x in zip(ws, sl[k:0:-1])]
    th = [_nextafter(w * x, _INF) for w, x in zip(ws, sh[k:0:-1])]
    n0, n1 = _dot(tl, th, pl, ph)
    q0, q1 = _div_pos(-n1, -n0, sl[0], sh[0])
    # divided by the exact integer k, rounded outward
    return _nextafter(q0 / k, _NINF), _nextafter(q1 / k, _INF)


class RtbpSolutionSeries:
    """Taylor coefficients of one solution, with cached auxiliary series.

    float_series() holds the state's coefficients as (lo, hi) float
    lists, the one form flow reads; the distance, inverse-power and
    field-product series are kept so for the variational recurrence.  A
    five-component start (X, Y, P_X, P_Y, mu) gives dim 5: mu must be its
    last component, and float_series() appends the constant mass series.
    """

    __slots__ = (
        "_u", "d1", "d2", "y2", "d1sq", "d2sq", "s1", "s2", "w1", "w2",
        "d1w1", "d2w2", "yw1", "yw2", "mu", "masses", "order", "dim",
    )

    def __init__(self, u0: IVector, mu: Interval):
        if not 0.0 < mu.lo <= mu.hi < 1.0:
            raise ValueError("mu must lie strictly inside (0, 1)")
        comps = _coerce(u0, (4, 5))
        self.dim = len(comps)
        x, y, px, py = comps[:4]
        self._u = [_start(c.lo, c.hi) for c in (x, y, px, py)]
        self.mu = mu
        m1 = 1.0 - mu
        # (1 - mu) and mu as float pairs, both strictly positive
        self.masses = ((m1.lo, m1.hi), (mu.lo, mu.hi))
        self.order = 0
        d1, d2, s1, s2, w1, w2, y2 = _field_terms(x, y, mu)
        d1sq = sq(d1)
        d2sq = sq(d2)
        self.d1 = _start(d1.lo, d1.hi)
        self.d2 = _start(d2.lo, d2.hi)
        self.y2 = _start(y2.lo, y2.hi)
        self.d1sq = _start(d1sq.lo, d1sq.hi)
        self.d2sq = _start(d2sq.lo, d2sq.hi)
        self.s1 = _start(s1.lo, s1.hi)
        self.s2 = _start(s2.lo, s2.hi)
        self.w1 = _start(w1.lo, w1.hi)
        self.w2 = _start(w2.lo, w2.hi)
        # coefficients of the products d1 w1, d2 w2, Y w1 and Y w2 that
        # extend forms for the field, kept for the mass column
        self.d1w1 = ([], [])
        self.d2w2 = ([], [])
        self.yw1 = ([], [])
        self.yw2 = ([], [])

    def extend(self) -> None:
        """Append coefficient order+1 to every series."""
        k = self.order
        kk = k + 1
        (xl, xh), (yl, yh), (pl, ph), (ql, qh) = self._u
        m1, mu = self.masses
        w1l, w1h = self.w1
        w2l, w2h = self.w2
        rw1l, rw1h, rw2l, rw2h = w1l[::-1], w1h[::-1], w2l[::-1], w2h[::-1]
        # d1 w1, d2 w2, Y w1 and Y w2, kept, then times the positive
        # constant 1 - mu or mu: the corner is picked by the product's sign
        scaled = []
        for (lo, hi), (a0, a1), (c0, c1) in zip(
            (self.d1w1, self.d2w2, self.yw1, self.yw2),
            (_dot(self.d1[0], self.d1[1], rw1l, rw1h),
             _dot(self.d2[0], self.d2[1], rw2l, rw2h),
             _dot(yl, yh, rw1l, rw1h), _dot(yl, yh, rw2l, rw2h)),
            (m1, mu, m1, mu),
        ):
            lo.append(a0)
            hi.append(a1)
            scaled.append(_nextafter(a0 * (c0 if a0 >= 0.0 else c1), _NINF))
            scaled.append(_nextafter(a1 * (c1 if a1 >= 0.0 else c0), _INF))
        al, ah, bl, bh, cl, ch, dl, dh = scaled
        # coefficient k of the field along the series, divided by the
        # exact integer k + 1 and rounded outward
        f3l = _add_dn(-ph[k], -_add_up(ch, dh))
        f3h = _add_up(-pl[k], -_add_dn(cl, dl))
        xl.append(_nextafter(_add_dn(pl[k], yl[k]) / kk, _NINF))
        xh.append(_nextafter(_add_up(ph[k], yh[k]) / kk, _INF))
        yl.append(_nextafter(_add_dn(ql[k], -xh[k]) / kk, _NINF))
        yh.append(_nextafter(_add_up(qh[k], -xl[k]) / kk, _INF))
        pl.append(_nextafter(_add_dn(_add_dn(ql[k], -ah), -bh) / kk, _NINF))
        ph.append(_nextafter(_add_up(_add_up(qh[k], -al), -bl) / kk, _INF))
        ql.append(_nextafter(f3l / kk, _NINF))
        qh.append(_nextafter(f3h / kk, _INF))
        self.order = kk
        x0, x1 = xl[kk], xh[kk]
        for lo, hi in (self.d1, self.d2):
            lo.append(x0)
            hi.append(x1)
        # squares by symmetry: c_kk = 2 sum_{j <= h} a_j a_{kk-j}, plus
        # a_{kk/2}^2 when kk is even; d1 and d2 differ only at index 0
        h = (kk - 1) // 2
        y2l, y2h = _dot(yl[: h + 1], yh[: h + 1], yl[kk:kk - h - 1:-1],
                        yh[kk:kk - h - 1:-1])
        midl, midh = _dot(xl[1:h + 1], xh[1:h + 1], xl[kk - 1:kk - h - 1:-1],
                          xh[kk - 1:kk - h - 1:-1])
        y2l, y2h = _add_dn(y2l, y2l), _add_up(y2h, y2h)
        sx0 = sx1 = 0.0
        if kk % 2 == 0:
            r0, r1 = _sq_ends(yl[kk // 2], yh[kk // 2])
            y2l, y2h = _add_dn(y2l, r0), _add_up(y2h, r1)
            sx0, sx1 = _sq_ends(xl[kk // 2], xh[kk // 2])
        self.y2[0].append(y2l)
        self.y2[1].append(y2h)
        for dsq, d, s, w in (
            (self.d1sq, self.d1, self.s1, self.w1),
            (self.d2sq, self.d2, self.s2, self.w2),
        ):
            t0, t1 = _mul_ends(d[0][0], d[1][0], x0, x1)
            tl, th = _add_dn(t0, midl), _add_up(t1, midh)
            c0 = _add_dn(_add_dn(tl, tl), sx0)
            c1 = _add_up(_add_up(th, th), sx1)
            dsq[0].append(c0)
            dsq[1].append(c1)
            s[0].append(_add_dn(c0, y2l))
            s[1].append(_add_up(c1, y2h))
            p0, p1 = _power_next(s, w, -1.5, kk)
            w[0].append(p0)
            w[1].append(p1)

    def float_series(self) -> list:
        """The coefficients through the order, as one (lo, hi) pair of
        float lists per component; read only."""
        if self.dim == 4:
            return self._u
        zeros = [0.0] * self.order
        return self._u + [([self.mu.lo] + zeros, [self.mu.hi] + zeros)]

    def _partials(self):
        """The (lo, hi) series of Omega_XX, Omega_XY and Omega_YY, one
        order at a time: the k-th next() appends coefficient k to each of
        the three and yields them, for k up to the solution's order."""
        (m1l, m1h), (mul, muh) = self.masses
        s1, s2 = self.s1, self.s2
        (w1l, w1h), (w2l, w2h) = self.w1, self.w2
        yl, yh = self._u[1]
        # v = w / s = s^-5/2
        v1 = _start(*_div_pos(w1l[0], w1h[0], s1[0][0], s1[1][0]))
        v2 = _start(*_div_pos(w2l[0], w2h[0], s2[0][0], s2[1][0]))
        uxx = ([], [])
        uyy = ([], [])
        mix = ([], [])
        uxy = ([], [])
        for k in range(self.order + 1):
            if k:
                for s, v in ((s1, v1), (s2, v2)):
                    p0, p1 = _power_next(s, v, -2.5, k)
                    v[0].append(p0)
                    v[1].append(p1)
            rv1l, rv1h = v1[0][k::-1], v1[1][k::-1]
            rv2l, rv2h = v2[0][k::-1], v2[1][k::-1]
            # (1 - mu) (w1 - 3 p1 v1) + mu (w2 - 3 p2 v2) for Omega_XX and
            # Omega_YY, and mix = (1 - mu) d1 v1 + mu d2 v2
            for out, p1, p2 in (
                (uxx, self.d1sq, self.d2sq),
                (uyy, self.y2, self.y2),
                (mix, self.d1, self.d2),
            ):
                al, ah = _dot(p1[0], p1[1], rv1l, rv1h)
                bl, bh = _dot(p2[0], p2[1], rv2l, rv2h)
                if out is not mix:
                    al, ah = (_add_dn(w1l[k], -_nextafter(ah * 3.0, _INF)),
                              _add_up(w1h[k], -_nextafter(al * 3.0, _NINF)))
                    bl, bh = (_add_dn(w2l[k], -_nextafter(bh * 3.0, _INF)),
                              _add_up(w2h[k], -_nextafter(bl * 3.0, _NINF)))
                out[0].append(_add_dn(
                    _nextafter(al * (m1l if al >= 0.0 else m1h), _NINF),
                    _nextafter(bl * (mul if bl >= 0.0 else muh), _NINF)))
                out[1].append(_add_up(
                    _nextafter(ah * (m1h if ah >= 0.0 else m1l), _INF),
                    _nextafter(bh * (muh if bh >= 0.0 else mul), _INF)))
            # Omega_XY = -3 Y mix
            tl, th = _dot(yl, yh, mix[0][k::-1], mix[1][k::-1])
            uxy[0].append(-_nextafter(th * 3.0, _INF))
            uxy[1].append(-_nextafter(tl * 3.0, _NINF))
            yield uxx, uxy, uyy

    def _mass_forcing(self, uxx: tuple, uxy: tuple, k: int) -> tuple:
        """Coefficient k of dP_X'/dmu and of dP_Y'/dmu, as Intervals, from
        the products extend formed and the series uxx, uxy of _partials."""
        (al, ah), (bl, bh) = self.d1w1, self.d2w2
        (cl, ch), (dl, dh) = self.yw1, self.yw2
        return (
            _mk(_add_dn(_add_dn(al[k], -bh[k]), uxx[0][k]),
                _add_up(_add_up(ah[k], -bl[k]), uxx[1][k])),
            _mk(_add_dn(_add_dn(cl[k], -dh[k]), uxy[0][k]),
                _add_up(_add_up(ch[k], -dl[k]), uxy[1][k])),
        )


class RtbpTaylorField:
    """Taylor-coefficient machinery the validated integrator drives.

    expand() produces the solution series from an interval initial
    condition; expand_variational() the series of the variational matrix
    along it.  A state's length decides its form: four components fly at
    the mass params.mu, five components (X, Y, P_X, P_Y, mu) carry their
    own mass as a coordinate with mu' = 0, and vector_field, jacobian and
    the float-list series then have five components and a mu column.
    """

    def __init__(self, params: RtbpParams):
        self.params = params

    def vector_field(self, x) -> IVector:
        s = _coerce(x, (4, 5))
        if len(s) == 4:
            return vector_field(s, self.params)
        f = vector_field(s[:4], RtbpParams(s[4]))
        return IVector(f.c + [Interval(0.0)])

    def jacobian(self, x) -> IMatrix:
        s = _coerce(x, (4, 5))
        return jacobian(s, self.params) if len(s) == 4 else _band_jacobian(s)

    def expand(self, u0, order: int) -> RtbpSolutionSeries:
        s = _coerce(u0, (4, 5))
        mu = s[4] if len(s) == 5 else self.params.mu
        series = RtbpSolutionSeries(s, mu)
        for _ in range(order):
            series.extend()
        return series

    def expand_variational(
        self, sol: RtbpSolutionSeries, v0: IMatrix, order: int, stop=None
    ) -> MatrixSeries:
        """Coefficients V_0..V_order of V' = DF(u(t)) V, V_0 given, as the
        (lo, hi) float series the kernel computes.  With stop, the series
        ends at the first order k >= 1 for which stop(k, series) is true;
        stop reads coefficient k from the series' float lists.

        V_0 has one row per state component.  For a five-component
        solution its row 4 stays constant (mu' = 0), and column j gets
        the forcing dF/dmu times V_0[4][j] in rows 2 and 3.
        """
        if order > sol.order:
            raise ValueError("solution series too short for this order")
        rows = v0.rows
        if len(rows) != sol.dim:
            raise ValueError("V_0 needs one row per state component")
        m = len(rows[0])
        # cols[j][i]: (lo, hi) series of entry (i, j), i < 4
        cols = [
            [_start(rows[i][j].lo, rows[i][j].hi) for i in range(4)]
            for j in range(m)
        ]
        entries = [[cols[j][i] for j in range(m)] for i in range(4)]
        # the factor V_0[4][j] of the forcing in column j, None when 0
        weights = [None] * m
        if sol.dim == 5:
            entries.append([_start(c.lo, c.hi) for c in rows[4]])
            weights = [None if c.lo == c.hi == 0.0 else c for c in rows[4]]
        v = MatrixSeries(entries)
        omega = sol._partials()
        for k in range(order):
            kk = k + 1
            uxx, uxy, uyy = next(omega)
            if sol.dim == 5:
                gx, gy = sol._mass_forcing(uxx, uxy, k)
            a1l = uxx[0][:kk] + uxy[0][:kk]
            a1h = uxx[1][:kk] + uxy[1][:kk]
            a2l = uxy[0][:kk] + uyy[0][:kk]
            a2h = uxy[1][:kk] + uyy[1][:kk]
            for col, wt in zip(cols, weights):
                (c0l, c0h), (c1l, c1h), (c2l, c2h), (c3l, c3h) = col
                bl = c0l[k::-1] + c1l[k::-1]
                bh = c0h[k::-1] + c1h[k::-1]
                t2l, t2h = _dot(a1l, a1h, bl, bh)
                t3l, t3h = _dot(a2l, a2h, bl, bh)
                r2l, r2h = _add_dn(c3l[k], -t2h), _add_up(c3h[k], -t2l)
                r3l, r3h = _add_dn(-c2h[k], -t3h), _add_up(-c2l[k], -t3l)
                if wt is not None:
                    # an exact factor 1 leaves the forcing unrounded
                    fx, fy = (gx, gy) if wt.lo == wt.hi == 1.0 else (
                        gx * wt, gy * wt)
                    r2l, r2h = _add_dn(r2l, fx.lo), _add_up(r2h, fx.hi)
                    r3l, r3h = _add_dn(r3l, fy.lo), _add_up(r3h, fy.hi)
                # V_{k+1} = (DF V)_k / (k + 1), outward
                c0l.append(_nextafter(_add_dn(c1l[k], c2l[k]) / kk, _NINF))
                c0h.append(_nextafter(_add_up(c1h[k], c2h[k]) / kk, _INF))
                c1l.append(_nextafter(_add_dn(c3l[k], -c0h[k]) / kk, _NINF))
                c1h.append(_nextafter(_add_up(c3h[k], -c0l[k]) / kk, _INF))
                c2l.append(_nextafter(r2l / kk, _NINF))
                c2h.append(_nextafter(r2h / kk, _INF))
                c3l.append(_nextafter(r3l / kk, _NINF))
                c3h.append(_nextafter(r3h / kk, _INF))
            if sol.dim == 5:
                for lo, hi in entries[4]:
                    lo.append(0.0)
                    hi.append(0.0)
            if stop is not None and stop(kk, v):
                break
        return v
