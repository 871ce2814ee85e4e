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
into the Jordan form diag(lambda, -lambda, rot(v)), lambda^2 and -v^2
from the quadratic formula in interval arithmetic, composed with the
graph chart psi(q) = (x, K_i(x) + y_i) of Capinski and Zgliczynski
(arXiv:1401.3015), whose cubic K straightens the unstable direction.  C
carries the symplectic normalization of Jorba and Masdemont (Physica D
132, 1999), C^T J C = J' with J = [[0, I], [-I, 0]] in (X, Y, P_X, P_Y)
and J' = diag([[0, 1], [-1, 0]], [[0, 1], [-1, 0]]) in the chart order
(lambda, -lambda, rotation pair), so C^-1 = -J' C^T J is a signed
transpose of C with no rounding.  D(psi) = I + K' e_0^T and the Hessian
of psi_i is K_i'' e_0 e_0^T, so the chart's derivative enters only as the
vectors K'(x) and K''(x): no division, no solve and no 4 x 4 D(psi).  The
local Jacobian runs one piece of N at a time on float pairs
(local_jacobian) from a piece half, psi, K' and K'' (_piece_terms), which
reads no mass, so prover computes it once per N and subdivision, and a
chart half (_chart_frame), formed once per chart.

The field terms, F and Omega are written once, on float pairs
(_field_terms, _force, _omega); jacobian, the series start and
local_jacobian call them, and so does the tests' Interval form of F.

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
rather than multiplying by a rounded 1/(k+1); by 1 it is exact and not
rounded.  A dot with an infinite endpoint, or one whose sums overflow,
falls back to the per-term outward rounding of idot.  Outside the dots
the pair arithmetic calls the exact-directed sums _add_dn and _add_up
and nudges each product outward, directly; the squares and the product
of a distance with X take their corners on float pairs (_sq_ends,
_mul_ends), as sq and the Interval product round them.  The power-rule
weights j + 3/2 (k - j) of w = r^-3 come from a table built once, and
v = r^-5 by the division recurrence.  The mass-weighted sums
W = (1 - mu) w1 + mu w2 and V = (1 - mu) v1 + mu v2 are formed once per
coefficient (_wsum) and convolved once wherever the field reads only them.
As d1 = d2 = X past index 0, the P_X force is one dot, X W plus
(1 - mu) d1_0 w1_k + mu d2_0 w2_k, and so is d1 w1 - d2 w2 from X (w1 - w2).

A series from a point start, four state components each of zero width
(flow's thin midpoint series), takes coefficient 1, F at the point, from
one more evaluation: the forces P_X' and P_Y' in stdlib decimal interval
arithmetic at 34 digits (_point_field), which the kernel's coefficient 1
is intersected with before coefficient 2 reads it.  X' and Y', each one
exact-directed sum of two floats, are the tightest enclosures already.
The state's ends enter exactly as Decimal(float) and mu ranges over
[mu.lo, mu.hi]; each lower end is rounded down and each upper end up, in
a context of its own (ROUND_FLOOR, ROUND_CEILING); sqrt rounds half-even
in any context, so its result steps one unit outward (next_minus,
next_plus); and each end converts to the float next outside it, compared
exactly as a Decimal.  At a point mass F so comes out at most 2 ulps
wide per component, against tens of ulps from the float kernel (P_X'
takes several nudged products and quotients), and over a mass interval
at most 2 ulps plus the naive interval extension's range of F over it.
An empty intersection raises ArithmeticError: both enclose the same F.
decimal is loaded with fractions, which interval imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from functools import partial

from .interval import (
    DivisionByZeroInterval,
    IMatrix,
    Interval,
    IVector,
    _add_dn,
    _acc_mul,
    _add_up,
    _idot_ends,
    _mk,
    _mul_ends,
    _sq_ends,
    _sqrt_ends,
    idot,
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
    "jacobian",
    "libration_L1",
    "libration_L1_slope",
    "jordan_basis",
    "jordan_residual",
    "psi",
    "total_change",
    "d_total_change",
    "local_jacobian",
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


def _masses(mu: tuple) -> tuple:
    """(1 - mu, mu) as float pairs from the mass pair mu, both positive."""
    return (_add_dn(1.0, -mu[1]), _add_up(1.0, -mu[0])), mu


def _field_terms(x: tuple, y: tuple, mu: tuple) -> tuple:
    """(d1, d2, s1, s2, w1, w2, Y^2) with s_i = r_i^2 and w_i = r_i^-3,
    as (lo, hi) float pairs from the pairs x, y and mu: the terms that
    the field, its Jacobian, the series start and the local Jacobian
    share.  Raises CollisionSingularity when an r_i^2 reaches 0."""
    d1 = _add_dn(x[0], -mu[1]), _add_up(x[1], -mu[0])
    d2 = _add_dn(d1[0], 1.0), _add_up(d1[1], 1.0)
    ysq = _sq_ends(*y)
    (a0, a1), (b0, b1) = _sq_ends(*d1), _sq_ends(*d2)
    s1 = _add_dn(a0, ysq[0]), _add_up(a1, ysq[1])
    s2 = _add_dn(b0, ysq[0]), _add_up(b1, ysq[1])
    if s1[0] <= 0.0 or s2[0] <= 0.0:
        raise CollisionSingularity(
            "distance enclosure touches a primary: "
            f"least r1^2={s1[0]:.3e}, least r2^2={s2[0]:.3e}"
        )
    return d1, d2, s1, s2, _inv_r3(s1), _inv_r3(s2), ysq


def _inv_r3(s: tuple) -> tuple:
    """r^-3 = 1 / (s sqrt(s)) for the positive pair s = r^2."""
    p0, p1 = _mul_ends(*s, *_sqrt_ends(*s))
    if p0 <= 0.0:  # s sqrt(s) underflowed
        raise DivisionByZeroInterval(f"r^3 of r^2 = {s} reaches 0")
    return _div_pos(1.0, 1.0, p0, p1)


def _force(s: list, m: tuple, t: tuple) -> list:
    """F at the state s, four (lo, hi) pairs, for the masses m = _masses
    and the _field_terms t of s."""
    (x0, x1), (y0, y1), (p0, p1), (q0, q1) = s
    d1, d2, _, _, w1, w2, _ = t
    a0, a1 = _scale(m[0], *_mul_ends(*d1, *w1))
    b0, b1 = _scale(m[1], *_mul_ends(*d2, *w2))
    c0, c1 = _mul_ends(y0, y1, *_wsum(m, *w1, *w2))
    return [(_add_dn(p0, y0), _add_up(p1, y1)),
            (_add_dn(q0, -x1), _add_up(q1, -x0)),
            (_add_dn(_add_dn(q0, -a1), -b1), _add_up(_add_up(q1, -a0), -b0)),
            (_add_dn(-p1, -c1), _add_up(-p0, -c0))]


def _omega(y: tuple, m: tuple, t: tuple) -> tuple:
    """Omega_XX, Omega_XY, Omega_YY, the second partials of the gradient
    part of the field, as pairs, whose negatives fill rows 2 and 3 of
    DF; m and t as for _force."""
    d1, d2, s1, s2, w1, w2, ysq = t
    v1, v2 = _div_pos(*w1, *s1), _div_pos(*w2, *s2)
    uxx = _wsum(m, *_less3(*w1, *_mul_ends(*_sq_ends(*d1), *v1)),
                *_less3(*w2, *_mul_ends(*_sq_ends(*d2), *v2)))
    mix = _wsum(m, *_mul_ends(*d1, *v1), *_mul_ends(*d2, *v2))
    uxy = _mul_ends(*_mul_ends(*mix, *y), -3.0, -3.0)
    uyy = _wsum(m, *_less3(*w1, *_mul_ends(*ysq, *v1)),
                *_less3(*w2, *_mul_ends(*ysq, *v2)))
    return uxx, uxy, uyy


def jacobian(s, p: RtbpParams) -> IMatrix:
    """DF(s)."""
    x, y = ((c.lo, c.hi) for c in _coerce(s)[:2])
    mu = p.mu.lo, p.mu.hi
    uxx, uxy, uyy = _omega(y, _masses(mu), _field_terms(x, y, mu))
    z = Interval(0.0)
    one = Interval(1.0)
    xx, xy, yy = (_mk(-b, -a) for a, b in (uxx, uxy, uyy))
    return IMatrix([[z, one, one, z], [-one, z, z, one],
                    [xx, xy, z, one], [xy, yy, -one, z]])


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
    a, b = mu - x, x - mu + 1.0
    return x + (1.0 - mu) / (a * a) - mu / (b * b)


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
    collinear-point coefficient; lambda^2 and -v^2 are the roots of the
    quadratic factor w^2 + (2 - c2) w + (1 + c2 - 2 c2^2) of the
    characteristic polynomial: lambda^2, v^2 = (+-(c2 - 2) + sqrt(D)) / 2
    with D = c2 (9 c2 - 8), enclosed for every mass of p.mu with no
    iteration.  s1 and s2 scale the columns so that C^T J C = J' exactly
    for each mass, so C_inv = -J' C^T J, each entry +- an entry of C,
    encloses each C(mu)^-1 (LocalChart).  The chart is rejected unless the
    Jordan residual, which a wrong normalization breaks, encloses zero.
    """
    l1 = libration_L1(p)
    mu = p.mu
    x = l1[0]
    gamma = x + 1.0 - mu
    g3 = sq(gamma) * gamma
    h = 1.0 - gamma
    c2 = (mu + (1.0 - mu) * g3 / (sq(h) * h)) / g3
    # c2 > 1 for every mass in (0, 1), so D = c2 (9 c2 - 8) > 1
    root = sqrt(c2 * (c2 * 9.0 - 8.0))
    lam2 = (c2 - 2.0 + root) * 0.5
    v2 = (2.0 - c2 + root) * 0.5
    if lam2.lo <= 0.0 or v2.lo <= 0.0:
        raise ChartError("eigenvalue factor roots have unexpected signs")
    lam = sqrt(lam2)
    v = sqrt(v2)
    lam3 = lam2 * lam
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


def _chart_terms(q) -> tuple:
    """(K', K'') at q, K_i'(x) and K_i''(x) for i = 1..3: D(psi) =
    I + K' e_0^T, and K_i'' is psi_i's one nonzero second derivative."""
    x = q[0]
    kp = [x * (2.0 * a2 + x * (3.0 * a3)) for a2, a3 in K_COEFFS[1:]]
    kpp = [x * (6.0 * a3) + 2.0 * a2 for a2, a3 in K_COEFFS[1:]]
    return kp, kpp


def psi(q: IVector) -> IVector:
    """The graph chart psi(q) = (x, K_i(x) + y_i), i = 1..3, with
    K_i(x) = x^2 (a2 + a3 x)."""
    x = q[0]
    xsq = sq(x)
    return IVector([x] + [xsq * (a2 + x * a3) + q[i]
                          for i, (a2, a3) in enumerate(K_COEFFS[1:], 1)])


def total_change(q: IVector, chart: LocalChart) -> IVector:
    """Phi(q) = L1 + C psi(q), from local to original coordinates."""
    return chart.L1 + chart.C.matvec(psi(q))


def d_total_change(q: IVector, chart: LocalChart) -> IMatrix:
    """D(Phi)(q) = C D(psi)(q): C with column 0 replaced by C_0 +
    C_1:3 K'(x)."""
    kp = _chart_terms(q)[0]
    return IMatrix([[r[0] + idot(r[1:], kp)] + r[1:] for r in chart.C.rows])


def _piece_terms(q) -> tuple:
    """psi, K' and K'' of the box q, the half of local_jacobian that
    reads no mass, as the columns of (lo, hi) pairs it reads: psi(q),
    K'(x), -K''(x) and -K'(x)."""
    kp, kpp = _chart_terms(q)
    return tuple(
        tuple(((e.lo, e.hi),) for e in v)
        for v in (psi(q), kp, [-e for e in kpp], [-e for e in kp])
    )


def _chart_frame(chart: LocalChart, p: RtbpParams) -> tuple:
    """The half of local_jacobian that reads no piece, formed once per
    chart, as matrices of (lo, hi) pairs: L1 and C for Phi, row 0 of
    C^-1 for F_hat_0, rows C_3 and -C_2 and rows C_0 and C_1 of C for
    rows 2-3 of DF C, columns 2-3 of C^-1 and M0 = C^-1[:, 0:2]
    (rows 0-1 of DF C), then the mass and the masses.  M0 is the part of
    M = C^-1 DF C that the field does not move: rows 0-1 of DF C are
    C_1 + C_2 and C_3 - C_0, as rows 0-1 of DF are constant."""
    c, ci = chart.C.rows, chart.C_inv.rows
    cols = list(zip(*c))
    top = [[k[1] + k[2] for k in cols], [k[3] - k[0] for k in cols]]
    m0 = [[r[0] * t0 + r[1] * t1 for t0, t1 in zip(*top)] for r in ci]
    mu = p.mu.lo, p.mu.hi
    mats = ([[e] for e in chart.L1], c, ci[:1], [c[3], [-e for e in c[2]]],
            c[:2], [r[2:] for r in ci], m0)
    return tuple([[(e.lo, e.hi) for e in row] for row in m] for m in mats) + (
        mu, _masses(mu))


# the accumulators of a sum of products that starts from 0
_ZERO_COL = [[(0.0, 0.0)]] * 4


def local_jacobian(frame: tuple, piece: tuple) -> tuple:
    """DF_hat(q) = D(psi)^-1 (M D(psi) - T) over one piece q of N, with
    M = C^-1 DF(Phi) C, as (lo, hi): two row-major lists of 16 floats.

    This differentiates D(psi) F_hat = C^-1 F(Phi(q)), since D(Phi) =
    C D(psi), and row b of T is D^2(psi_b) F_hat.  DF enters only
    through Omega: rows 2-3 of DF C are C_3 - Omega_XX C_0 - Omega_XY C_1
    and -C_2 - Omega_XY C_0 - Omega_YY C_1, so M = M0 + C^-1[:, 2:4]
    (rows 2-3) with M0 from the chart.  As D(psi) = I + K' e_0^T and
    D^2(psi_b) = K_b'' e_0 e_0^T, three steps on M give the result:
    column 0 becomes M_0 + M_1:3 K', rows 1-3 of it lose K'' F_hat_0
    (T; F_hat_0 is row 0 of C^-1 F), and rows 1-3 lose K' times row 0
    (D(psi)^-1).  C^-1 is the chart's C_inv, so nothing is solved.

    frame is the chart's _chart_frame and piece the box's _piece_terms.
    Everything runs on float pairs: F and Omega come from _force and
    _omega, and every sum of products, C psi(q) of Phi = L1 + C psi(q)
    and F_hat_0 included, runs inline in _acc_mul, so every entry is bit
    for bit the same formula in Interval objects, the tests' oracle
    local_jacobian_intervals.  A piece that reaches a primary raises
    CollisionSingularity.
    """
    l1, c, ci0, r_acc, c01, ci23, m0, mu, m = frame
    psi_q, kp, nkpp, nkp = piece
    # C psi(q) summed from 0, then L1 added: one rounding at L1's scale
    u = [(_add_dn(a0, s0), _add_up(a1, s1)) for ((a0, a1),), ((s0, s1),)
         in zip(l1, _acc_mul(_ZERO_COL, c, psi_q))]
    t = _field_terms(u[0], u[1], mu)
    (f0,), = _acc_mul(_ZERO_COL, ci0, [[e] for e in _force(u, m, t)])
    (xx0, xx1), (xy0, xy1), (yy0, yy1) = _omega(u[1], m, t)
    # rows 2-3 of DF C, with -Omega as DF holds it, then M
    xy = -xy1, -xy0
    dfc = _acc_mul(r_acc, [[(-xx1, -xx0), xy], [xy, (-yy1, -yy0)]], c01)
    mm = _acc_mul(m0, ci23, dfc)
    # column 0 gains M_1:3 K', and rows 1-3 of it lose K'' F_hat_0
    col = _acc_mul([r[:1] for r in mm], [r[1:] for r in mm], kp)
    col[1:] = _acc_mul(col[1:], nkpp, [[f0]])
    # D(psi)^-1: rows 1-3 lose K' times row 0
    top = col[0] + mm[0][1:]
    rows = _acc_mul([e + r[1:] for e, r in zip(col[1:], mm[1:])], nkp, [top])
    out = top + [e for row in rows for e in row]
    return [e[0] for e in out], [e[1] for e in out]


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
    # the running error bound of the module docstring (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 4.2)
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


def _exact(x: float, _: float) -> float:
    """x as it is: the nudge of a quotient by the Taylor index 1, exact."""
    return x


def _start(lo: float, hi: float) -> tuple:
    """A series pair holding coefficient 0 only."""
    return [lo], [hi]


def _scale(c: tuple, a0: float, a1: float) -> tuple:
    """[a0, a1] times the positive float pair c: each end's corner is
    picked by its sign and nudged outward."""
    c0, c1 = c
    return (_nextafter(a0 * (c0 if a0 >= 0.0 else c1), _NINF),
            _nextafter(a1 * (c1 if a1 >= 0.0 else c0), _INF))


def _wsum(m: tuple, al: float, ah: float, bl: float, bh: float) -> tuple:
    """(1 - mu) [al, ah] + mu [bl, bh], m the masses (1 - mu, mu) as
    positive float pairs."""
    (p0, p1), (q0, q1) = _scale(m[0], al, ah), _scale(m[1], bl, bh)
    return _add_dn(p0, q0), _add_up(p1, q1)


def _push(series: tuple, pair: tuple) -> None:
    """Append the coefficient pair (lo, hi) to the (lo, hi) series."""
    series[0].append(pair[0])
    series[1].append(pair[1])


def _less3(al: float, ah: float, tl: float, th: float) -> tuple:
    """[al, ah] - 3 [tl, th]."""
    return (_add_dn(al, -_nextafter(th * 3.0, _INF)),
            _add_up(ah, -_nextafter(tl * 3.0, _NINF)))


# the weights j + 3/2 (k - j), j < k, of coefficient k of w = s^-3/2:
# half-integers, exact
_POWER_WEIGHTS = [[j + 1.5 * (k - j) for j in range(k)] for k in range(64)]


def _power_next(s: tuple, pw: tuple, k: int) -> tuple:
    """Coefficient k >= 1 of W = S^-3/2 from w_0..w_{k-1}.

    k s_0 w_k = -sum_{j<k} c_j s_{k-j} w_j with the positive weights
    c_j = 3/2 (k - j) + j.
    """
    (sl, sh), (pl, ph) = s, pw
    ws = (_POWER_WEIGHTS[k] if k < len(_POWER_WEIGHTS)
          else [j + 1.5 * (k - j) for j in range(k)])
    tl = [_nextafter(w * x, _NINF) for w, x in zip(ws, sl[k:0:-1])]
    th = [_nextafter(w * x, _INF) for w, x in zip(ws, sh[k:0:-1])]
    n0, n1 = _dot(tl, th, pl, ph)
    q0, q1 = _div_pos(-n1, -n0, sl[0], sh[0])
    if k == 1:  # q / 1 is exact
        return q0, q1
    # divided by the exact integer k, rounded outward
    return _nextafter(q0 / k, _NINF), _nextafter(q1 / k, _INF)


# the field at a point in decimal interval arithmetic: each lower end
# rounded down, each upper end up, at 34 digits
_DN = Context(34, ROUND_FLOOR)
_UP = Context(34, ROUND_CEILING)


def _dscale(c: tuple, a: tuple) -> tuple:
    """The Decimal pair a times the positive Decimal pair c."""
    return (_DN.multiply(a[0], c[0] if a[0] >= 0 else c[1]),
            _UP.multiply(a[1], c[1] if a[1] >= 0 else c[0]))


def _dweight(m: tuple, d: tuple, y2: tuple) -> tuple:
    """m r^-3 for the positive mass pair m, r^2 = d^2 + Y^2.  sqrt rounds
    half-even in every context, so its ends step one unit outward."""
    a, b = sorted(e.copy_abs() for e in d)
    if d[0] < 0 < d[1]:
        a = 0
    s0, s1 = _DN.fma(a, a, y2[0]), _UP.fma(b, b, y2[1])
    r0 = _DN.multiply(s0, _DN.next_minus(_DN.sqrt(s0)))
    r1 = _UP.multiply(s1, _UP.next_plus(_UP.sqrt(s1)))
    return _DN.divide(m[0], r1), _UP.divide(m[1], r0)


def _outward(lo: Decimal, hi: Decimal) -> tuple:
    """The floats nearest lo and hi, each stepped outward if inside."""
    a, b = float(lo), float(hi)
    return (a if Decimal(a) <= lo else _nextafter(a, _NINF),
            b if Decimal(b) >= hi else _nextafter(b, _INF))


def _point_field(u: list, mu: Interval) -> list:
    """P_X' and P_Y' at the point state u, four floats, for every mass in
    mu, as (lo, hi) float pairs (see the module docstring)."""
    x, y, px, py = map(Decimal, u)
    m = Decimal(mu.lo), Decimal(mu.hi)
    y2 = _DN.multiply(y, y), _UP.multiply(y, y)
    d1 = _DN.subtract(x, m[1]), _UP.subtract(x, m[0])
    d2 = _DN.add(d1[0], 1), _UP.add(d1[1], 1)
    w1 = _dweight((_DN.subtract(1, m[1]), _UP.subtract(1, m[0])), d1, y2)
    w2 = _dweight(m, d2, y2)
    (a0, a1), (b0, b1) = _dscale(w1, d1), _dscale(w2, d2)
    c0, c1 = _dscale((_DN.add(w1[0], w2[0]), _UP.add(w1[1], w2[1])), (y, y))
    return [_outward(*e) for e in (
        (_DN.subtract(_DN.subtract(py, a1), b1),
         _UP.subtract(_UP.subtract(py, a0), b0)),
        (_UP.add(px, c1).copy_negate(), _DN.add(px, c0).copy_negate()))]


class RtbpSolutionSeries:
    """Taylor coefficients of one solution, with cached auxiliary series.

    float_series() holds the state's coefficients as (lo, hi) float
    lists, the one form flow reads; the distance, inverse-power and
    field-product series are kept so for the variational recurrence.
    They run one order behind the state: extend forms their coefficient
    k where it forms the state's k + 1, the first coefficient to read
    it, so no expansion forms one that nothing reads.  Both forces read
    W = (1 - mu) w1 + mu w2, formed once per coefficient: the P_Y force
    is Y W and the P_X force X W plus its index-0 terms, one convolution
    each, for four and five components alike.  A five-component start
    (X, Y, P_X, P_Y, mu) gives dim 5: mu must be its last component, and
    float_series() appends the constant mass series.
    """

    __slots__ = (
        "_u", "d0", "md0", "y2", "d1sq", "d2sq", "s1", "s2", "w1", "w2",
        "w", "wd", "mu", "masses", "order", "dim",
    )

    def __init__(self, u0: IVector, mu: Interval):
        if not 0.0 < mu.lo <= mu.hi < 1.0:
            raise ValueError("mu must lie strictly inside (0, 1)")
        comps = _coerce(u0, (4, 5))
        self.dim = len(comps)
        x, y, px, py = comps[:4]
        self._u = [_start(c.lo, c.hi) for c in (x, y, px, py)]
        self.mu = mu
        # (1 - mu) and mu as float pairs, both strictly positive
        self.masses = _masses((mu.lo, mu.hi))
        self.order = 0
        d1, d2, s1, s2, w1, w2, y2 = _field_terms(
            (x.lo, x.hi), (y.lo, y.hi), self.masses[1])
        # coefficient 0 of d1 and d2, which past it are both X, and the
        # same times the masses: (1 - mu) d1_0 and mu d2_0
        self.d0 = (d1, d2)
        self.md0 = tuple(_mul_ends(*m, *d)
                         for m, d in zip(self.masses, self.d0))
        self.y2 = _start(*y2)
        self.d1sq = _start(*_sq_ends(*d1))
        self.d2sq = _start(*_sq_ends(*d2))
        self.s1 = _start(*s1)
        self.s2 = _start(*s2)
        self.w1 = _start(*w1)
        self.w2 = _start(*w2)
        # W, which extend forms, and w1 - w2, which _mass_forcing forms
        self.w, self.wd = ([], []), ([], [])

    def extend(self) -> None:
        """Append coefficient order+1 to the state's series, after
        coefficient order of the auxiliary series, which it reads."""
        k = self.order
        kk = k + 1
        (xl, xh), (yl, yh), (pl, ph), (ql, qh) = self._u
        if k:
            x0, x1 = xl[k], xh[k]
            # squares by symmetry: c_k = 2 sum_{j <= h} a_j a_{k-j}, plus
            # a_{k/2}^2 when k is even; d1 and d2 differ only at index 0
            h = (k - 1) // 2
            y2l, y2h = _dot(yl[: h + 1], yh[: h + 1], yl[k:k - h - 1:-1],
                            yh[k:k - h - 1:-1])
            midl, midh = _dot(xl[1:h + 1], xh[1:h + 1],
                              xl[k - 1:k - h - 1:-1], xh[k - 1:k - h - 1:-1])
            y2l, y2h = _add_dn(y2l, y2l), _add_up(y2h, y2h)
            sx0 = sx1 = 0.0
            if k % 2 == 0:
                r0, r1 = _sq_ends(yl[k // 2], yh[k // 2])
                y2l, y2h = _add_dn(y2l, r0), _add_up(y2h, r1)
                sx0, sx1 = _sq_ends(xl[k // 2], xh[k // 2])
            self.y2[0].append(y2l)
            self.y2[1].append(y2h)
            for dsq, d, s, w in zip((self.d1sq, self.d2sq), self.d0,
                                    (self.s1, self.s2), (self.w1, self.w2)):
                t0, t1 = _mul_ends(*d, x0, x1)
                tl, th = _add_dn(t0, midl), _add_up(t1, midh)
                c0 = _add_dn(_add_dn(tl, tl), sx0)
                c1 = _add_up(_add_up(th, th), sx1)
                dsq[0].append(c0)
                dsq[1].append(c1)
                s[0].append(_add_dn(c0, y2l))
                s[1].append(_add_up(c1, y2h))
                p0, p1 = _power_next(s, w, k)
                w[0].append(p0)
                w[1].append(p1)
        m = self.masses
        (w1l, w1h), (w2l, w2h), (wl, wh) = self.w1, self.w2, self.w
        (c1l, c1h), (c2l, c2h) = self.md0
        # X W plus the index-0 terms is the P_X force, Y W the P_Y force
        al, ah = _dot(xl[1:kk] + [c1l, c2l], xh[1:kk] + [c1h, c2h],
                      wl[::-1] + [w1l[k], w2l[k]], wh[::-1] + [w1h[k], w2h[k]])
        _push(self.w, _wsum(m, w1l[k], w1h[k], w2l[k], w2h[k]))
        cl, ch = _dot(yl, yh, wl[::-1], wh[::-1])
        # coefficient k of the field along the series, divided by the
        # exact integer k + 1 and rounded outward, or not at all by 1
        nudge = _nextafter if k else _exact
        xl.append(nudge(_add_dn(pl[k], yl[k]) / kk, _NINF))
        xh.append(nudge(_add_up(ph[k], yh[k]) / kk, _INF))
        yl.append(nudge(_add_dn(ql[k], -xh[k]) / kk, _NINF))
        yh.append(nudge(_add_up(qh[k], -xl[k]) / kk, _INF))
        pl.append(nudge(_add_dn(ql[k], -ah) / kk, _NINF))
        ph.append(nudge(_add_up(qh[k], -al) / kk, _INF))
        ql.append(nudge(_add_dn(-ph[k], -ch) / kk, _NINF))
        qh.append(nudge(_add_up(-pl[k], -cl) / kk, _INF))
        self.order = kk
        if not k and all(lo[0] == hi[0] for lo, hi in self._u):
            for (lo, hi), (a, b) in zip(self._u[2:], _point_field(
                    [c[0][0] for c in self._u], self.mu)):
                lo[1], hi[1] = max(lo[1], a), min(hi[1], b)
                if lo[1] > hi[1]:
                    raise ArithmeticError("point field misses the series")

    def float_series(self) -> list:
        """The coefficients through the order, as one (lo, hi) pair of
        float lists per component; read only."""
        if self.dim == 4:
            return self._u
        zeros = [0.0] * self.order
        return self._u + [([self.mu.lo] + zeros, [self.mu.hi] + zeros)]

    def _partials(self):
        """The (lo, hi) series of Omega_XX, Omega_XY and Omega_YY, one
        order at a time: the k-th next() appends coefficient k to each
        and yields them, while k is below the solution's current order.
        v = w / s by s_0 v_k = w_k - sum_{1 <= i <= k} s_i v_{k-i};
        Omega_YY = W - 3 Y^2 V, and Omega_XY = -3 Y mix with
        mix = (1 - mu) d1 v1 + mu d2 v2, which is X V from index 1 plus
        (1 - mu) d1_0 v1_k + mu d2_0 v2_k, as d1 = d2 = X past index 0."""
        m = self.masses
        (xl, xh), (yl, yh) = self._u[:2]
        (wl, wh), (y2l, y2h) = self.w, self.y2
        c1, c2 = self.md0
        v1, v2, v = ([], []), ([], []), ([], [])
        uxx, uxy, uyy, mix = ([], []), ([], []), ([], []), ([], [])
        k = 0
        while k < self.order:
            ends = []
            for s, w, vi, dsq in ((self.s1, self.w1, v1, self.d1sq),
                                  (self.s2, self.w2, v2, self.d2sq)):
                tl, th = _dot(s[0][1:], s[1][1:], vi[0][::-1], vi[1][::-1])
                _push(vi, _div_pos(_add_dn(w[0][k], -th),
                                   _add_up(w[1][k], -tl), s[0][0], s[1][0]))
                ends += _less3(w[0][k], w[1][k], *_dot(
                    dsq[0], dsq[1], vi[0][::-1], vi[1][::-1]))
            _push(uxx, _wsum(m, *ends))
            _push(v, _wsum(m, v1[0][k], v1[1][k], v2[0][k], v2[1][k]))
            rvl, rvh = v[0][::-1], v[1][::-1]
            _push(uyy, _less3(wl[k], wh[k], *_dot(y2l, y2h, rvl, rvh)))
            # X V from index 1, then the index-0 terms
            _push(mix, _dot(xl[1:k + 1] + [c1[0], c2[0]],
                            xh[1:k + 1] + [c1[1], c2[1]],
                            rvl[1:] + [v1[0][k], v2[0][k]],
                            rvh[1:] + [v1[1][k], v2[1][k]]))
            tl, th = _dot(yl, yh, mix[0][::-1], mix[1][::-1])
            uxy[0].append(-_nextafter(th * 3.0, _INF))
            uxy[1].append(-_nextafter(tl * 3.0, _NINF))
            yield uxx, uxy, uyy
            k += 1

    def _mass_forcing(self, uxx: tuple, uxy: tuple, k: int) -> tuple:
        """Coefficient k of dP_X'/dmu and of dP_Y'/dmu, as Intervals, from
        the series uxx, uxy of _partials and from X and Y times w1 - w2:
        d1 w1 - d2 w2 is X (w1 - w2) from index 1 plus d1_0 w1_k -
        d2_0 w2_k, as for the P_X force.  The difference series w1 - w2
        is formed here, once per coefficient."""
        (w1l, w1h), (w2l, w2h), (dl, dh) = self.w1, self.w2, self.wd
        for i in range(len(dl), k + 1):
            dl.append(_add_dn(w1l[i], -w2h[i]))
            dh.append(_add_up(w1h[i], -w2l[i]))
        (xl, xh), (yl, yh) = self._u[:2]
        (d1l, d1h), (d2l, d2h) = self.d0
        rdl, rdh = dl[k::-1], dh[k::-1]
        al, ah = _dot(xl[1:k + 1] + [d1l, -d2h], xh[1:k + 1] + [d1h, -d2l],
                      rdl[1:] + [w1l[k], w2l[k]], rdh[1:] + [w1h[k], w2h[k]])
        cl, ch = _dot(yl, yh, rdl, rdh)
        return (
            _mk(_add_dn(al, uxx[0][k]), _add_up(ah, uxx[1][k])),
            _mk(_add_dn(cl, uxy[0][k]), _add_up(ch, uxy[1][k])),
        )


class RtbpTaylorField:
    """The field as the validated integrator reads it, through two methods.

    expand() produces the solution series from an interval initial
    condition, whose coefficient 1 is F over it; expand_variational() the
    series of the variational matrix along it, whose coefficient 1 from
    V_0 = I is DF.  A state's length decides its form: four components
    fly at the mass params.mu, five components (X, Y, P_X, P_Y, mu) carry
    their own mass as a coordinate with mu' = 0, and the series then have
    five components, the variational ones a mu column dF/dmu.
    """

    def __init__(self, params: RtbpParams):
        self.params = params

    def expand(self, u0, order: int, stop=None) -> RtbpSolutionSeries:
        """The solution series from u0 through order, or through the
        first order k >= 1 for which stop(k, series) is true."""
        s = _coerce(u0, (4, 5))
        mu = s[4] if len(s) == 5 else self.params.mu
        series = RtbpSolutionSeries(s, mu)
        for _ in range(order):
            series.extend()
            if stop is not None and stop(series.order, series):
                break
        return series

    def expand_variational(
        self, sol: RtbpSolutionSeries, v0: IMatrix, order: int, stop=None
    ) -> list:
        """Coefficients V_0..V_order of V' = DF(u(t)) V, V_0 given, as
        entries[i][j] = (lo, hi), the float lists of entry (i, j) indexed
        by the order; with stop, through the first order k >= 1 for which
        stop(k, entries) is true.  sol is extended as far as V goes.

        V_0 has one row per state component.  For a five-component
        solution its row 4 stays constant (mu' = 0), and column j gets
        the forcing dF/dmu times V_0[4][j] in rows 2 and 3.
        """
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
        omega = sol._partials()
        for k in range(order):
            kk = k + 1
            if k == sol.order:  # V_kk reads coefficient k of the solution
                sol.extend()
            uxx, uxy, uyy = next(omega)
            if sol.dim == 5:
                gx, gy = sol._mass_forcing(uxx, uxy, k)
            a1l = uxx[0][:kk] + uxy[0][:kk]
            a1h = uxx[1][:kk] + uxy[1][:kk]
            a2l = uxy[0][:kk] + uyy[0][:kk]
            a2h = uxy[1][:kk] + uyy[1][:kk]
            nudge = _nextafter if k else _exact
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
                c0l.append(nudge(_add_dn(c1l[k], c2l[k]) / kk, _NINF))
                c0h.append(nudge(_add_up(c1h[k], c2h[k]) / kk, _INF))
                c1l.append(nudge(_add_dn(c3l[k], -c0h[k]) / kk, _NINF))
                c1h.append(nudge(_add_up(c3h[k], -c0l[k]) / kk, _INF))
                c2l.append(nudge(r2l / kk, _NINF))
                c2h.append(nudge(r2h / kk, _INF))
                c3l.append(nudge(r3l / kk, _NINF))
                c3h.append(nudge(r3h / kk, _INF))
            if sol.dim == 5:
                for lo, hi in entries[4]:
                    lo.append(0.0)
                    hi.append(0.0)
            if stop is not None and stop(kk, entries):
                break
        return entries
