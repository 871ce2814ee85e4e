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
polynomial change psi that straightens the unstable direction.  The local
vector field and its Jacobian are obtained through verified linear solves
against D(Phi), never by inverting Phi.

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
as in the Interval addition.  Division by the Taylor index k+1 divides by
the exact integer and rounds outward, rather than multiplying by a rounded
1/(k+1).  A dot with an infinite endpoint, or one whose sums overflow,
falls back to the per-term outward rounding of idot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .interval import (
    DivisionByZeroInterval,
    IArray,
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    _add_dn,
    _add_up,
    _lowest,
    _mk,
    idot,
    sq,
    sqrt,
)
from .linalg import (
    BatchSolver,
    _Solver,
    solve_interval_linear,
    solve_interval_linear_cols,
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
    "hamiltonian",
    "jacobi_constant",
    "vector_field",
    "jacobian",
    "vector_field_floats",
    "jacobian_floats",
    "libration_L1",
    "libration_L1_slope",
    "jordan_basis",
    "jordan_residual",
    "psi",
    "dpsi",
    "d2psi",
    "total_change",
    "d_total_change",
    "d2_total_change",
    "local_field",
    "local_jacobian",
    "local_jacobian_batch",
    "symmetry_S",
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


def _distance_squares(x: Interval, y: Interval, mu: Interval):
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
    return d1, d2, s1, s2


def hamiltonian(s, p: RtbpParams) -> Interval:
    x, y, px, py = _coerce(s)
    mu = p.mu
    d1, d2, s1, s2 = _distance_squares(x, y, mu)
    kinetic = (sq(px) + sq(py)) * 0.5 + y * px - x * py
    return kinetic - (1.0 - mu) / sqrt(s1) - mu / sqrt(s2)


def jacobi_constant(s, p: RtbpParams) -> Interval:
    """Jacobi integral C = 2 Omega - (X'^2 + Y'^2).

    Written through Omega and velocities, not through H, so that the
    identity H = -C/2 is a genuine cross-check of both routes.
    """
    x, y, px, py = _coerce(s)
    mu = p.mu
    d1, d2, s1, s2 = _distance_squares(x, y, mu)
    omega = (sq(x) + sq(y)) * 0.5 + (1.0 - mu) / sqrt(s1) + mu / sqrt(s2)
    xdot = px + y
    ydot = py - x
    return omega * 2.0 - sq(xdot) - sq(ydot)


def _inv_r3(s: Interval) -> Interval:
    # s = r^2, returns r^-3 = 1 / (s sqrt(s))
    return 1.0 / (s * sqrt(s))


def vector_field(s, p: RtbpParams) -> IVector:
    x, y, px, py = _coerce(s)
    mu = p.mu
    m1 = 1.0 - mu
    d1, d2, s1, s2 = _distance_squares(x, y, mu)
    w1 = _inv_r3(s1)
    w2 = _inv_r3(s2)
    return IVector(
        [
            px + y,
            py - x,
            py - m1 * (d1 * w1) - mu * (d2 * w2),
            -px - y * (m1 * w1 + mu * w2),
        ]
    )


def _second_partials(d1, d2, s1, s2, y, mu):
    """Omega_XX, Omega_XY, Omega_YY of the gradient part of the field."""
    m1 = 1.0 - mu
    w1, w2 = _inv_r3(s1), _inv_r3(s2)
    v1, v2 = w1 / s1, w2 / s2
    ysq = sq(y)
    uxx = m1 * (w1 - 3.0 * (sq(d1) * v1)) + mu * (w2 - 3.0 * (sq(d2) * v2))
    uxy = (m1 * (d1 * v1) + mu * (d2 * v2)) * y * (-3.0)
    uyy = m1 * (w1 - 3.0 * (ysq * v1)) + mu * (w2 - 3.0 * (ysq * v2))
    return uxx, uxy, uyy


def jacobian(s, p: RtbpParams) -> IMatrix:
    x, y, px, py = _coerce(s)
    mu = p.mu
    d1, d2, s1, s2 = _distance_squares(x, y, mu)
    uxx, uxy, uyy = _second_partials(d1, d2, s1, s2, y, mu)
    z = Interval(0.0)
    one = Interval(1.0)
    return IMatrix(
        [
            [z, one, one, z],
            [-one, z, z, one],
            [-uxx, -uxy, z, one],
            [-uxy, -uyy, -one, z],
        ]
    )


def _mass_column(x: Interval, y: Interval, mu: Interval) -> tuple:
    """dP_X'/dmu and dP_Y'/dmu, the nonzero entries of dF/dmu."""
    d1, d2, s1, s2 = _distance_squares(x, y, mu)
    w1, w2 = _inv_r3(s1), _inv_r3(s2)
    uxx, uxy, _ = _second_partials(d1, d2, s1, s2, y, mu)
    return d1 * w1 - d2 * w2 + uxx, y * (w1 - w2) + uxy


def _band_jacobian(s: tuple) -> IMatrix:
    """5 x 5 Jacobian in (X, Y, P_X, P_Y, mu): the 4 x 4 block at the
    state's mass, the mu column dF/dmu and a zero row for mu' = 0."""
    mu = s[4]
    j = jacobian(s[:4], RtbpParams(mu))
    z = Interval(0.0)
    gx, gy = _mass_column(s[0], s[1], mu)
    rows = [list(row) + [g] for row, g in zip(j.rows, (z, z, gx, gy))]
    return IMatrix(rows + [[z] * 5])


def vector_field_floats(x, mu: float) -> tuple:
    """Double precision twin for non-rigorous guesses and oracles."""
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
    """Verified chart data at L1 for one mass-parameter enclosure."""

    mu: Interval
    L1: IVector
    C: IMatrix
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


_JORDAN_PATTERN = {(0, 0): "lam", (1, 1): "-lam", (2, 3): "v", (3, 2): "-v"}


def jordan_residual(chart: LocalChart, p: RtbpParams) -> IMatrix:
    """(C)^-1 DF(L1) C minus the Jordan pattern; all entries contain 0
    for a valid chart."""
    dfl = jacobian(chart.L1, p)
    r = solve_interval_linear_cols(chart.C, dfl.matmul(chart.C))
    rows = [list(r.row(i)) for i in range(4)]
    for (i, j), name in _JORDAN_PATTERN.items():
        val = {
            "lam": chart.lam,
            "-lam": -chart.lam,
            "v": chart.v,
            "-v": -chart.v,
        }[name]
        rows[i][j] = rows[i][j] - val
    return IMatrix(rows)


def jordan_basis(p: RtbpParams) -> LocalChart:
    """Build the verified linear chart at L1.

    gamma is the distance from L1 to the smaller primary, c2 the standard
    collinear-point coefficient; lambda and v come from the quadratic
    factor of the characteristic polynomial, whose roots lambda^2 and
    -v^2 are certified by the one-dimensional interval Newton operator
    (_newton_root).  The assembled chart is rejected unless the Jordan
    residual encloses zero.
    """
    l1 = libration_L1(p)
    mu = p.mu
    x = l1[0]
    gamma = x + 1.0 - mu
    g3 = sq(gamma) * gamma
    c2 = (mu + (1.0 - mu) * g3 / _cube(1.0 - gamma)) / g3
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

    chart = LocalChart(mu=mu, L1=l1, C=c_mat, lam=lam, v=v)
    residual = jordan_residual(chart, p)
    for i in range(4):
        for j in range(4):
            if 0.0 not in residual.rows[i][j]:
                raise ChartError(
                    f"Jordan residual entry ({i},{j}) excludes zero: "
                    f"{residual.rows[i][j]}"
                )
    return chart


def _cube(x: Interval) -> Interval:
    return sq(x) * x


# -- nonlinear chart -----------------------------------------------------------


def _k_val(i: int, x: Interval) -> Interval:
    a2, a3 = K_COEFFS[i]
    return sq(x) * (a2 + x * a3)


def _k_prime(i: int, x: Interval) -> Interval:
    a2, a3 = K_COEFFS[i]
    return x * (2.0 * a2 + x * (3.0 * a3))


def _k_second(i: int, x: Interval) -> Interval:
    a2, a3 = K_COEFFS[i]
    return x * (6.0 * a3) + 2.0 * a2


def psi(q: IVector) -> IVector:
    """psi_0 = x - sum y_i K_i'(x); psi_i = K_i(x) + y_i (K_0' = 1)."""
    x = q[0]
    ys = (q[1], q[2], q[3])
    head = x - (
        ys[0] * _k_prime(1, x) + ys[1] * _k_prime(2, x) + ys[2] * _k_prime(3, x)
    )
    return IVector(
        [head, _k_val(1, x) + ys[0], _k_val(2, x) + ys[1], _k_val(3, x) + ys[2]]
    )


def dpsi(q: IVector) -> IMatrix:
    x = q[0]
    ys = (q[1], q[2], q[3])
    zero = Interval(0.0)
    one = Interval(1.0)
    d00 = 1.0 - (
        ys[0] * _k_second(1, x)
        + ys[1] * _k_second(2, x)
        + ys[2] * _k_second(3, x)
    )
    return IMatrix(
        [
            [d00, -_k_prime(1, x), -_k_prime(2, x), -_k_prime(3, x)],
            [_k_prime(1, x), one, zero, zero],
            [_k_prime(2, x), zero, one, zero],
            [_k_prime(3, x), zero, zero, one],
        ]
    )


def d2psi(q: IVector) -> list:
    """Hessians of the four psi components; K_i''' = 6 a3 is constant."""
    x = q[0]
    ys = (q[1], q[2], q[3])
    zero = Interval(0.0)
    h = []
    d2_head_xx = -(
        ys[0] * (6.0 * K_COEFFS[1][1])
        + ys[1] * (6.0 * K_COEFFS[2][1])
        + ys[2] * (6.0 * K_COEFFS[3][1])
    )
    row0 = [d2_head_xx, -_k_second(1, x), -_k_second(2, x), -_k_second(3, x)]
    h.append(
        IMatrix(
            [
                row0,
                [row0[1], zero, zero, zero],
                [row0[2], zero, zero, zero],
                [row0[3], zero, zero, zero],
            ]
        )
    )
    for i in (1, 2, 3):
        rows = [[zero] * 4 for _ in range(4)]
        rows[0][0] = _k_second(i, x)
        h.append(IMatrix(rows))
    return h


def total_change(q: IVector, chart: LocalChart) -> IVector:
    """Phi(q) = L1 + C psi(q), from local to original coordinates."""
    return chart.L1 + chart.C.matvec(psi(q))


def d_total_change(q: IVector, chart: LocalChart) -> IMatrix:
    return chart.C.matmul(dpsi(q))


def d2_total_change(q: IVector, chart: LocalChart) -> list:
    hs = d2psi(q)
    out = []
    for a in range(4):
        acc = hs[0].scale(chart.C.rows[a][0])
        for b in (1, 2, 3):
            acc = acc + hs[b].scale(chart.C.rows[a][b])
        out.append(acc)
    return out


def local_field(q: IVector, chart: LocalChart, p: RtbpParams) -> IVector:
    """F_hat(q) through the verified solve D(Phi) F_hat = F(Phi(q)).

    The proof never evaluates it; it is the finite-difference reference
    of local_jacobian in the tests.
    """
    x = total_change(q, chart)
    return solve_interval_linear(d_total_change(q, chart), vector_field(x, p))


def local_jacobian(q: IVector, chart: LocalChart, p: RtbpParams) -> IMatrix:
    """DF_hat(q) = D(Phi)^-1 (DF(Phi) D(Phi) - D^2(Phi) F_hat).

    The tensor is applied to F_hat first; the outer inverse is a verified
    columnwise solve.  Both solves share one preconditioning of D(Phi).
    The proof runs only local_jacobian_batch; this single-box form is its
    bit-for-bit reference in the tests.
    """
    x = total_change(q, chart)
    dphi = d_total_change(q, chart)
    f = vector_field(x, p)
    solver = _Solver(dphi)
    f_hat = solver.vector(f)
    d2phi = d2_total_change(q, chart)
    tensor_rows = [list(d2phi[a].matvec(f_hat)) for a in range(4)]
    rhs = jacobian(x, p).matmul(dphi) - IMatrix(tensor_rows)
    return solver.cols(rhs)


def local_jacobian_batch(
    q: IVector, chart: LocalChart, p: RtbpParams
) -> IArray:
    """local_jacobian over a batch of boxes, in one array pass.

    Each component of q is an IArray along a leading batch axis or an
    Interval that every box shares.  The formulas are the scalar ones
    (psi, dpsi, d2psi, vector_field, jacobian) evaluated on IArrays, the
    matrix products are IArray.matmul, and the F_hat solve and the
    column solve share one BatchSolver preconditioning of D(Phi).  Entry
    k of the (..., 4, 4) result equals local_jacobian of box k bit for
    bit.  When boxes fail, the exception class is one that
    local_jacobian raises on some failing box, not necessarily the
    first.
    """
    c = IArray.stack(chart.C)
    psi_q = IArray.stack(psi(q))
    x = IArray.stack(chart.L1) + c.matmul(psi_q[..., None])[..., 0]
    dphi = c.matmul(IArray.stack(dpsi(q)))
    xs = IVector([x[..., i] for i in range(4)])
    f = IArray.stack(vector_field(xs, p))
    solver = BatchSolver(dphi)
    f_hat = solver.solve(f[..., None])
    # D^2(Phi) as d2_total_change sums it: entry a is sum_b C[a, b]
    # D^2(psi_b), axes (..., a, i, j)
    h = IArray.stack(d2psi(q))
    d2phi = h[..., None, 0, :, :] * c[:, 0, None, None]
    for b in (1, 2, 3):
        d2phi = d2phi + h[..., None, b, :, :] * c[:, b, None, None]
    tensor = d2phi.matmul(f_hat[..., None, :, :])[..., 0]
    rhs = IArray.stack(jacobian(xs, p)).matmul(dphi) - tensor
    return solver.solve(rhs)


def symmetry_S(s):
    """(X, Y, P_X, P_Y) -> (X, -Y, -P_X, P_Y); conjugates the flow to its
    time reversal."""
    x, y, px, py = _coerce(s)
    return IVector([x, -y, -px, py])


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
        return _add_dn(lo, -elo), _add_up(hi, ehi)
    # an infinite endpoint or an overflow: one outward nudge per term and
    # exact-directed sums, with 0 * inf = 0
    r = idot(list(map(_mk, alo, ahi)), list(map(_mk, blo, bhi)))
    return r.lo, r.hi


def _add(a0: float, a1: float, b0: float, b1: float) -> tuple:
    return _add_dn(a0, b0), _add_up(a1, b1)


def _sub(a0: float, a1: float, b0: float, b1: float) -> tuple:
    return _add_dn(a0, -b1), _add_up(a1, -b0)


def _mul(a0: float, a1: float, b0: float, b1: float) -> tuple:
    r = _mk(a0, a1) * _mk(b0, b1)
    return r.lo, r.hi


def _mul_pos(c0: float, c1: float, b0: float, b1: float) -> tuple:
    """[c0, c1] * [b0, b1] for a constant with 0 < c0 <= c1 < inf."""
    return (
        _nextafter(b0 * (c0 if b0 >= 0.0 else c1), _NINF),
        _nextafter(b1 * (c1 if b1 >= 0.0 else c0), _INF),
    )


def _div_pos(a0: float, a1: float, d0: float, d1: float) -> tuple:
    """[a0, a1] / [d0, d1] for a divisor with 0 < d0 <= d1."""
    q0 = a0 / (d1 if a0 >= 0.0 else d0)
    q1 = a1 / (d0 if a1 >= 0.0 else d1)
    if q0 != q0 or q1 != q1:  # inf / inf
        r = _mk(a0, a1) / _mk(d0, d1)
        return r.lo, r.hi
    return _nextafter(q0, _NINF), _nextafter(q1, _INF)


def _div_int(a0: float, a1: float, d: int) -> tuple:
    """[a0, a1] / d for an integer d >= 1, which is exact as a float."""
    return _nextafter(a0 / d, _NINF), _nextafter(a1 / d, _INF)


def _sq(a0: float, a1: float) -> tuple:
    r = sq(_mk(a0, a1))
    return r.lo, r.hi


def _start(lo: float, hi: float) -> tuple:
    """A series pair holding coefficient 0 only."""
    return [lo], [hi]


def _append(series: tuple, value: tuple) -> None:
    series[0].append(value[0])
    series[1].append(value[1])


def _power_next(s: tuple, pw: tuple, a: float, k: int) -> tuple:
    """Coefficient k >= 1 of P = S^a, a < -1, from p_0..p_{k-1}.

    k s_0 p_k = sum_{j<k} (a (k - j) - j) s_{k-j} p_j, and every weight
    is negative, so p_k = -(sum_j |w_j| s_{k-j} p_j) / (k s_0).
    """
    (sl, sh), (pl, ph) = s, pw
    ws = [j - a * (k - j) for j in range(k)]  # half-integers, exact
    tl = [_nextafter(w * x, _NINF) for w, x in zip(ws, sl[k:0:-1])]
    th = [_nextafter(w * x, _INF) for w, x in zip(ws, sh[k:0:-1])]
    n0, n1 = _dot(tl, th, pl, ph)
    q0, q1 = _div_pos(-n1, -n0, sl[0], sh[0])
    return _div_int(q0, q1, k)


class RtbpSolutionSeries:
    """Taylor coefficients of one solution, with cached auxiliary series.

    coefficient(k) is the k-th coefficient of the state as an IVector.
    The distance, inverse-power and field-product series are kept, as
    (lo, hi) float lists, for the variational recurrence.  A
    five-component start (X, Y, P_X, P_Y, mu) gives dim 5: mu must be its
    last component, and coefficient() appends the constant mass series.
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
        d1, d2, s1, s2 = _distance_squares(x, y, mu)
        y2 = sq(y)
        d1sq = sq(d1)
        d2sq = sq(d2)
        w1 = _inv_r3(s1)
        w2 = _inv_r3(s2)
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
        (xl, xh), (yl, yh), (pl, ph), (ql, qh) = self._u
        m1, mu = self.masses
        w1l, w1h = self.w1
        w2l, w2h = self.w2
        rw1l, rw1h, rw2l, rw2h = w1l[::-1], w1h[::-1], w2l[::-1], w2h[::-1]
        d1w1 = _dot(self.d1[0], self.d1[1], rw1l, rw1h)
        d2w2 = _dot(self.d2[0], self.d2[1], rw2l, rw2h)
        yw1 = _dot(yl, yh, rw1l, rw1h)
        yw2 = _dot(yl, yh, rw2l, rw2h)
        _append(self.d1w1, d1w1)
        _append(self.d2w2, d2w2)
        _append(self.yw1, yw1)
        _append(self.yw2, yw2)
        # coefficient k of the vector field along the series
        f = (
            _add(pl[k], ph[k], yl[k], yh[k]),
            _sub(ql[k], qh[k], xl[k], xh[k]),
            _sub(
                *_sub(ql[k], qh[k], *_mul_pos(*m1, *d1w1)),
                *_mul_pos(*mu, *d2w2),
            ),
            _sub(
                -ph[k], -pl[k],
                *_add(*_mul_pos(*m1, *yw1), *_mul_pos(*mu, *yw2)),
            ),
        )
        kk = k + 1
        for series, fi in zip(self._u, f):
            _append(series, _div_int(*fi, kk))
        self.order = kk
        xk = (xl[kk], xh[kk])
        _append(self.d1, xk)
        _append(self.d2, xk)
        # squares by symmetry: c_kk = 2 sum_{j <= h} a_j a_{kk-j}, plus
        # a_{kk/2}^2 when kk is even; d1 and d2 differ only at index 0
        h = (kk - 1) // 2
        y2 = _dot(yl[: h + 1], yh[: h + 1], yl[kk:kk - h - 1:-1],
                  yh[kk:kk - h - 1:-1])
        mid = _dot(xl[1:h + 1], xh[1:h + 1], xl[kk - 1:kk - h - 1:-1],
                   xh[kk - 1:kk - h - 1:-1])
        y2 = _add(*y2, *y2)
        if kk % 2 == 0:
            y2 = _add(*y2, *_sq(yl[kk // 2], yh[kk // 2]))
            sq_x = _sq(xl[kk // 2], xh[kk // 2])
        else:
            sq_x = (0.0, 0.0)
        _append(self.y2, y2)
        for dsq, d, s, w in (
            (self.d1sq, self.d1, self.s1, self.w1),
            (self.d2sq, self.d2, self.s2, self.w2),
        ):
            t = _add(*_mul(d[0][0], d[1][0], *xk), *mid)
            c = _add(*_add(*t, *t), *sq_x)
            _append(dsq, c)
            _append(s, _add(*c, *y2))
            _append(w, _power_next(s, w, -1.5, kk))

    def coefficient(self, k: int) -> IVector:
        c = [_mk(lo[k], hi[k]) for lo, hi in self._u]
        if self.dim == 5:
            c.append(self.mu if k == 0 else _mk(0.0, 0.0))
        return IVector(c)

    def _partials(self):
        """The (lo, hi) series of Omega_XX, Omega_XY and Omega_YY, one
        order at a time: the k-th next() appends coefficient k to each of
        the three and yields them, for k up to the solution's order."""
        m1, mu = self.masses
        s1, s2, w1, w2 = self.s1, self.s2, self.w1, self.w2
        yl, yh = self._u[1]
        # v = w / s = s^-5/2
        v1 = _start(*_div_pos(w1[0][0], w1[1][0], s1[0][0], s1[1][0]))
        v2 = _start(*_div_pos(w2[0][0], w2[1][0], s2[0][0], s2[1][0]))
        uxx = ([], [])
        uyy = ([], [])
        mix = ([], [])
        uxy = ([], [])
        for k in range(self.order + 1):
            if k:
                _append(v1, _power_next(s1, v1, -2.5, k))
                _append(v2, _power_next(s2, v2, -2.5, k))
            rv1l, rv1h = v1[0][k::-1], v1[1][k::-1]
            rv2l, rv2h = v2[0][k::-1], v2[1][k::-1]
            for out, p1, p2 in (
                (uxx, self.d1sq, self.d2sq),
                (uyy, self.y2, self.y2),
            ):
                a1 = _dot(p1[0], p1[1], rv1l, rv1h)
                a2 = _dot(p2[0], p2[1], rv2l, rv2h)
                t1 = _sub(w1[0][k], w1[1][k], *_mul_pos(3.0, 3.0, *a1))
                t2 = _sub(w2[0][k], w2[1][k], *_mul_pos(3.0, 3.0, *a2))
                _append(out, _add(*_mul_pos(*m1, *t1), *_mul_pos(*mu, *t2)))
            e1 = _dot(self.d1[0], self.d1[1], rv1l, rv1h)
            e2 = _dot(self.d2[0], self.d2[1], rv2l, rv2h)
            _append(mix, _add(*_mul_pos(*m1, *e1), *_mul_pos(*mu, *e2)))
            t = _mul_pos(3.0, 3.0, *_dot(yl, yh, mix[0][k::-1], mix[1][k::-1]))
            _append(uxy, (-t[1], -t[0]))
            yield uxx, uxy, uyy

    def _mass_forcing(self, uxx: tuple, uxy: tuple, k: int) -> tuple:
        """Coefficient k of dP_X'/dmu and of dP_Y'/dmu, as (lo, hi) pairs,
        from the products extend formed and the series uxx, uxy of
        _partials."""
        (al, ah), (bl, bh) = self.d1w1, self.d2w2
        (cl, ch), (dl, dh) = self.yw1, self.yw2
        return (
            _add(*_sub(al[k], ah[k], bl[k], bh[k]), uxx[0][k], uxx[1][k]),
            _add(*_sub(cl[k], ch[k], dl[k], dh[k]), uxy[0][k], uxy[1][k]),
        )


class RtbpTaylorField:
    """Taylor-coefficient machinery the validated integrator drives.

    expand() produces the solution series from an interval initial
    condition; expand_variational() the series of the variational matrix
    along it.  A state's length decides its form: four components fly at
    the mass params.mu, five components (X, Y, P_X, P_Y, mu) carry their
    own mass as a coordinate with mu' = 0, and vector_field, jacobian and
    the series then have five components and a mu column.
    """

    dim = 4

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
        ends at the first order k >= 1 for which stop(k, V_k) is true.

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
            weights = [
                None if c.lo == c.hi == 0.0 else (c.lo, c.hi) for c in rows[4]
            ]
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
                t2 = _dot(a1l, a1h, bl, bh)
                t3 = _dot(a2l, a2h, bl, bh)
                r2 = _sub(c3l[k], c3h[k], *t2)
                r3 = _sub(-c2h[k], -c2l[k], *t3)
                if wt is not None:
                    # an exact factor 1 leaves the forcing unrounded
                    fx, fy = (gx, gy) if wt == (1.0, 1.0) else (
                        _mul(*gx, *wt), _mul(*gy, *wt))
                    r2 = _add(*r2, *fx)
                    r3 = _add(*r3, *fy)
                r = (
                    _add(c1l[k], c1h[k], c2l[k], c2h[k]),
                    _sub(c3l[k], c3h[k], c0l[k], c0h[k]),
                    r2,
                    r3,
                )
                for series, ri in zip(col, r):
                    _append(series, _div_int(*ri, kk))
            if sol.dim == 5:
                for entry in entries[4]:
                    _append(entry, (0.0, 0.0))
            if stop is not None and stop(kk, v[kk]):
                break
        return v
