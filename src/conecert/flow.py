"""Validated ODE integration and rigorous Poincare sections.

A set of states is carried as a Lohner doubleton

    midpoint + init_basis * init_remainder + basis * remainder,

where the midpoint and the two bases are floating point and the two
remainders are interval boxes.  The initial set rides the raw product of
step transport matrices in init_basis (a parallelepiped, so the dominant
term never pays the wrapping cost of re-boxing), while the per-step
defects - Lagrange tails, midpoint rounding, transport-product rounding -
accumulate in the QR-rotated basis * remainder part.  Every operation
keeps the invariant that the exact flow image of the initial set stays
inside the represented set.  The set's dimension is the field's, and
nothing here depends on it: a field whose state carries a parameter as a
coordinate with zero derivative (rtbp's mass, in a band flight) flies the
parameter dependence as one more direction of the set.

A field gives vector_field(x) and jacobian(x) over a box, expand(u0, p),
a solution series whose float_series() holds its Taylor coefficients as
one (lo, hi) pair of float lists per component, and
expand_variational(series, V0, p, stop=None), the MatrixSeries of
V' = DF V from V0, which may have any number of columns, through order
p, or through the first order k >= 1 at which stop(k, series) is true.
flow reads every series through these float lists only: the Lagrange
coefficient, the Horner sums, the stop rule and the section landing.

One Taylor step of order p uses five series expansions, in this order:
  * an interval series over the rough tube (order p+1), whose last
    coefficient is the Lagrange term of the solution; its magnitude
    sol_err is tested first, so a step that fails it pays for no other
    series;
  * a thin series at the midpoint (order p), which with that Lagrange
    coefficient encloses phi_h(midpoint);
  * the variational series over the tube of the one column W u, u = x0 - m
    the current box less its midpoint and W the a-priori bound
    ||V(t) - I||_inf <= e^(L h) - 1, expanded one order at a time up to
    the first order q+1 <= p+1 whose coefficient times [h]^(q+1) has
    magnitude at most sol_err (q = p when none does); that term is the
    tail vector, the Lagrange term of D(phi_h) applied to every x - m;
  * an interval series at the current box (order q) and its variational
    series from I (order q), whose Taylor polynomial [V] is the transport.
The variational series come back as float (lo, hi) series per entry
(MatrixSeries).  [V] and the image of the midpoint are summed by one
Horner routine on float pairs, [V] kept as the float matrices (lo, hi)
that the Lohner update reads, and the stop rule and the tail multiply
the column's float pair at order k by [h^k] as a float pair, all with
the rounding of the Interval operations they replace.  The mean
value theorem then gives
phi_h(m + C r0 + B r) in phi_h(m) + [V] (C r0 + B r) + tail.  For x in
the box, phi_h(x) - phi_h(m) averages D(phi_h)(y) (x - m) over y on the
segment from m to x, and by Taylor's theorem in time D(phi_h)(y) is the
polynomial of order q of the variational series at y plus h^(q+1) times
coefficient q+1 of the series started at some time t in [0, h] from the
point phi_t(y) of the tube with V_0 = D(phi_t)(y) in W.  This holds at
every q <= p, so the column stops as soon as its term no longer matters:
past that order the box and transport series would only shrink a tail
already below sol_err, which the step carries anyway.  When q < p,
var_err <= sol_err, so the error ratio below is sol_err / tol.  The
products [V] C and [V] B are split into float midpoints plus interval
defects, which join the tail in the error, and the error basis is
renewed by QR with sorted columns to control wrapping.  This Lohner
update runs on float pairs too, each split, sum and product rounded bit
for bit as the Interval operation it replaces.  A product of an interval
matrix with a float one ([V] C, [V] B, Q^T Q, Q^-1 times the float part
of [V] B, and the hull of the set) takes per term the two corners
picked by the float's sign, with the rounding of idot.
The float QR factor Q is orthogonal up to rounding, so Q^-1 is enclosed
as Q^T plus an entrywise ball of radius ||E|| / (1 - ||E||) ||Q^T||, with
E = I - Q^T Q in interval arithmetic and ||.|| an upper bound of the
spectral norm (a Neumann series; EnclosureFailure if ||E|| >= 1/2).

Step sizes.  A step of size h is accepted when its error ratio
r = max(sol_err, var_err) / tol is at most 1, var_err the magnitude of
the tail vector.  After every step tried, accepted or not, the next size
is predicted by the rule of Jorba and Zou (Exp. Math. 14, 2005) used in
CAPD's Lohner step control: h * 0.7 r^(-1/(p+1)), at most 2 h after an
acceptance, between 0.25 h and 0.9 h after a rejection, never above
h_max; a rough enclosure that fails halves h.  poincare_crossing takes
its steps through one acceptance loop, _advance, which the tests'
fixed-time integrator shares, and the predicted size carries over from
step to step.  Its defaults are the settings every flight of the proof
uses: order p = 20, tol = 3e-15, a first step of 0.02, h_min = 1e-9,
h_max = 0.12, and a Poincare flight gives up after 12 time units.

Poincare crossings monitor the rough tube of every step.  A step whose
tube is clear of the section is accepted as it is.  A step whose tube
meets the section is the crossing step when its end set lies strictly
past the section; any other contact step is halved, and a step below
h_min is LostCrossing.  A set must therefore pass the section within one
step: a set wider than a step's travel ends in LostCrossing.  The
crossing step lands a float time on the section with the midpoint
series, which does not depend on h and so also encloses the image at
that time, and projects the set onto the section through the correlated
mean-value form

    P_i in p_i - [F_i(Z)/F_k(Z)] (p_k - value),

evaluated jointly over the shared remainder coordinates so that signs
survive at widths where independent bounds would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interval import (
    Box,
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    _add_dn,
    _add_up,
    _idot_ends,
    _mid,
    _mk,
    _mul_ends,
    _opnorm_upper,
    exp,
    eye,
    idot,
)

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter

__all__ = [
    "EnclosureFailure",
    "TransversalityFailure",
    "LostCrossing",
    "FlowEnclosure",
    "Section",
    "a_priori_enclosure",
    "poincare_crossing",
]


class EnclosureFailure(RuntimeError):
    """A rough enclosure or a remainder target could not be achieved."""


class TransversalityFailure(RuntimeError):
    """The section velocity enclosure contains zero or has the wrong sign."""


class LostCrossing(RuntimeError):
    """No certified first crossing within the time or step budget."""


# -- set representation ----------------------------------------------------------


class FlowEnclosure:
    """Doubleton midpoint + init_basis r0 + basis r at an interval of times.

    The represented set contains the exact flow image of the initial set
    at every represented time.  init_basis carries the transported initial
    box (init_remainder stays fixed over the whole integration); basis and
    remainder hold the accumulated step errors.  Either part may be absent
    by passing an all-zero remainder.
    """

    __slots__ = (
        "midpoint", "basis", "remainder", "init_basis", "init_remainder",
        "time",
    )

    def __init__(
        self,
        midpoint,
        basis,
        remainder: Box,
        time: Interval,
        init_basis=None,
        init_remainder: Box | None = None,
    ):
        self.midpoint = [float(x) for x in midpoint]
        self.basis = [[float(x) for x in row] for row in basis]
        self.remainder = remainder
        n = len(self.midpoint)
        if init_basis is None:
            init_basis = eye(n)
        if init_remainder is None:
            init_remainder = IVector([Interval(0.0)] * n)
        self.init_basis = [[float(x) for x in row] for row in init_basis]
        self.init_remainder = init_remainder
        self.time = time

    @property
    def dim(self) -> int:
        return len(self.midpoint)

    def as_box(self) -> Box:
        coords = list(self.init_remainder) + list(self.remainder)
        clo, chi = [x.lo for x in coords], [x.hi for x in coords]
        rows = map(list.__add__, self.init_basis, self.basis)
        return IVector([m + _mk(*_idot_ends(clo, chi, f, f))
                        for m, f in zip(self.midpoint, rows)])

    def __repr__(self) -> str:
        return (
            f"FlowEnclosure(t={self.time!r}, box={self.as_box()!r})"
        )


@dataclass(frozen=True)
class Section:
    """Hyperplane {x_index = value} with a required transversal velocity
    sign: +1 means the coordinate must be increasing at the crossing."""

    index: int
    value: float
    direction: int

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")


# -- rough enclosures -------------------------------------------------------------


def _picard(field, x0: Box, t_range: Interval) -> Box:
    """Box Z with x0 + t_range * F(Z) contained in Z (all trajectories from
    x0 over t_range stay in Z)."""
    f0 = field.vector_field(x0)  # genuinely singular start propagates
    n = len(x0)
    scale = max(t_range.mag, 1e-300)
    pad = [
        Interval(-2.0 * scale * f0[i].mag - 1e-300,
                 2.0 * scale * f0[i].mag + 1e-300)
        for i in range(n)
    ]
    z = IVector([x0[i] + pad[i] for i in range(n)])
    for _ in range(20):
        try:
            fz = field.vector_field(z)
        except ArithmeticError as err:
            raise EnclosureFailure(
                f"rough enclosure inflated into a singularity: {err}"
            ) from err
        cand = IVector([x0[i] + fz[i] * t_range for i in range(n)])
        if not all(
            math.isfinite(cand[i].lo) and math.isfinite(cand[i].hi)
            for i in range(n)
        ):
            raise EnclosureFailure("rough enclosure escaped to infinity")
        if cand.is_subset_of(z):
            return cand
        grown = []
        for i in range(n):
            w = 0.1 * cand[i].width + 1e-300
            grown.append(z[i].hull(cand[i]) + Interval(-w, w))
        z = IVector(grown)
    raise EnclosureFailure("rough enclosure did not stabilize in 20 attempts")


def a_priori_enclosure(field, x0: Box, h: float) -> Box:
    """First-order Picard enclosure of all trajectories from x0 over [0, h]."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    return _picard(field, x0, Interval(0.0, h))


# -- the Taylor step --------------------------------------------------------------


def _opnorm_inf(m: IMatrix) -> float:
    worst = 0.0
    for row in m.rows:
        acc = 0.0
        for entry in row:
            acc = _add_up(acc, entry.mag)
        worst = max(worst, acc)
    return worst


def _unzip(ends: list) -> tuple:
    """A matrix of (lo, hi) pairs as the two float matrices (lo, hi)."""
    return [[e[0] for e in r] for r in ends], [[e[1] for e in r] for r in ends]


def _mul_floats(alo: list, ahi: list, b: list) -> tuple:
    """A B for the interval matrix A = [alo, ahi] (two float matrices) and
    the float matrix B, as float matrices (lo, hi): IMatrix.matmul of B
    as point intervals, bit for bit.  Each term takes the two corners
    picked by the sign of the float (0 for a zero of either sign; in
    idot, 0 * inf counts as 0)."""
    cols = list(zip(*b))
    return _unzip([[_idot_ends(rl, rh, c, c) for c in cols]
                   for rl, rh in zip(alo, ahi)])


def _horner(los: list, his: list, top: int, h: float, lo: float,
            hi: float) -> tuple:
    """[lo, hi] h^(top+1) + sum_{k <= top} [los_k, his_k] h^k, by Horner on
    float pairs, rounded exactly as the Interval Horner acc * h + c_k from
    acc = [lo, hi] is for h > 0: the product with h nudged outward (with
    0 * inf = 0), then the exact-directed sums."""
    for k in range(top, -1, -1):
        p = lo * h
        q = hi * h
        lo = _add_dn(_nextafter(p if p == p else 0.0, _NINF), los[k])
        hi = _add_up(_nextafter(q if q == q else 0.0, _INF), his[k])
    return lo, hi


def _horner_vec(series, order: int, h: float, tail: list) -> IVector:
    """tail h^(order+1) + sum_{k <= order} c_k h^k, summed by _horner on
    the series' float lists; tail holds one (lo, hi) pair per component."""
    return IVector([
        _mk(*_horner(los, his, order, h, lo, hi))
        for (los, his), (lo, hi) in zip(series.float_series(), tail)
    ])


def _horner_transport(v: MatrixSeries, order: int, h: float) -> tuple:
    """sum_{k <= order} V_k h^k as float matrices (lo, hi), summed by
    _horner on the float series of each entry from acc = V_order."""
    return _unzip([
        [_horner(los, his, order - 1, h, los[order], his[order])
         for los, his in row]
        for row in v.entries
    ])


def _powers(h: float, n: int) -> tuple:
    """Enclosures of h^0..h^n as float lists (lo, hi), rounded as the
    Interval products Interval(1.0) * h * ... * h."""
    lo, hi = [1.0], [1.0]
    for _ in range(n):
        p, q = _mul_ends(lo[-1], hi[-1], h, h)
        lo.append(p)
        hi.append(q)
    return lo, hi


def _column_term(v: MatrixSeries, k: int, hpl: list, hph: list) -> list:
    """Column 0 of coefficient k of v times [hpl_k, hph_k], one (lo, hi)
    pair per row, rounded as the Interval product."""
    return [_mul_ends(lo[k], hi[k], hpl[k], hph[k]) for (lo, hi), *_ in v.entries]


class _StepData:
    """The expansions of one step, the transport as the float matrices
    (lo, hi) that _assemble and _cross_in_step multiply; image, transport,
    tail and order are None, and var_err is 0, for a step rejected on
    sol_err alone."""

    __slots__ = (
        "image", "transport", "tail", "tube", "sol_err", "var_err", "order",
    )

    def __init__(self, image, transport, tail, tube, sol_err, var_err, order):
        self.image = image  # IVector enclosing phi_h(midpoint)
        self.transport = transport  # (lo, hi), polynomial part of D(phi_h)
        self.tail = tail  # IVector, Lagrange term of D(phi_h)(x - midpoint)
        self.tube = tube  # rough enclosure over [0, h]
        self.sol_err = sol_err  # magnitude of the solution Lagrange term
        self.var_err = var_err  # magnitude of tail
        self.order = order  # q, the transport's order; the tail's is q+1


def _expand_step(
    field, enc: FlowEnclosure, h: float, order: int, tol: float = math.inf,
    ser_m=None,
) -> _StepData:
    """The five expansions of one step, or only the tube series when the
    solution Lagrange term exceeds tol; that series is expanded first.
    ser_m is the thin series at the midpoint to order p, when the caller
    has expanded it already; it does not depend on h.

    The transport is the Taylor polynomial of D(phi_h) over the box x0,
    of an order q <= p.  Its Lagrange term is only ever applied to
    u = x0 - m, so it is carried as the vector tail: coefficient q+1 of
    the variational column over the tube started from W u, times
    h^(q+1).  W encloses V(t) for t in [0, h] through
    ||V(t) - I||_inf <= b = e^(L h) - 1, L = ||Df(tube)||_inf, so (W u)_i
    is enclosed by u_i + [-b, b] max_j |u_j|.  By the mean value theorem
    phi_h(x) lies in phi_h(m) + transport (x - m) + tail for every x in
    x0, at any q.  The column is expanded one order at a time, and q+1 is
    the first order whose term has magnitude at most sol_err, or p+1; the
    box series and the transport are then expanded to q only."""
    n = enc.dim
    x0 = enc.as_box()
    tube = a_priori_enclosure(field, x0, h)
    ser_z = field.expand(tube, order + 1)
    # the Lagrange coefficient, one (lo, hi) pair per component
    sol_tail = [(lo[order + 1], hi[order + 1])
                for lo, hi in ser_z.float_series()]
    sol_err = max(abs(x) for t in sol_tail for x in t) * h ** (order + 1)
    if sol_err > tol:
        return _StepData(None, None, None, tube, sol_err, 0.0, None)

    if ser_m is None:
        ser_m = field.expand(IVector.from_floats(enc.midpoint), order)
    image = _horner_vec(ser_m, order, h, sol_tail)

    u = [x0[i] - enc.midpoint[i] for i in range(n)]
    l_inf = _opnorm_inf(field.jacobian(tube))
    b = exp(Interval(l_inf) * h) - 1.0
    r = (b * max(c.mag for c in u)).hi
    ball = Interval(-r, r)
    hpl, hph = _powers(h, order + 1)
    v_z = field.expand_variational(
        ser_z, IMatrix([[c + ball] for c in u]), order + 1,
        # every entry of the term has magnitude at most sol_err
        stop=lambda k, v: all(
            -lo <= sol_err and hi <= sol_err
            for lo, hi in _column_term(v, k, hpl, hph)
        ),
    )
    q = v_z.order - 1
    tail = IVector([_mk(*t) for t in _column_term(v_z, q + 1, hpl, hph)])
    var_err = max(c.mag for c in tail)

    ser_x = field.expand(x0, q)
    v_x = field.expand_variational(ser_x, IMatrix.identity(n), q)
    transport = _horner_transport(v_x, q, h)
    return _StepData(image, transport, tail, tube, sol_err, var_err, q)


def _orthogonal_inverse(q: list) -> tuple:
    """Enclosure of Q^-1, as float matrices (lo, hi), for a float matrix Q
    that is orthogonal up to rounding: Q^T plus a ball of radius
    ||E|| / (1 - ||E||) ||Q^T||, E = I - Q^T Q in interval arithmetic and
    ||.|| an upper bound of the spectral norm.  Q^-1 = (I - E)^-1 Q^T =
    Q^T + E (I - E)^-1 Q^T, and the spectral norm bounds every entry.
    Raises EnclosureFailure when ||E|| >= 1/2."""
    qt = [list(col) for col in zip(*q)]
    plo, phi = _mul_floats(qt, qt, q)
    # the magnitudes of E = I - Q^T Q, rounded as Interval subtraction
    e_mags = [
        [max(abs(_add_dn(d, -b)), abs(_add_up(d, -a)))
         for a, b, d in zip(rl, rh, row)]
        for rl, rh, row in zip(plo, phi, eye(len(q)))
    ]
    e_norm = _opnorm_upper(e_mags)
    if not e_norm < 0.5:
        raise EnclosureFailure(
            f"QR factor not orthogonal: ||I - Q^T Q|| <= {e_norm}"
        )
    # the upper ends of the Interval quotient and product
    ratio = _nextafter(e_norm / _add_dn(1.0, -e_norm), _INF)
    qt_norm = _opnorm_upper([[abs(x) for x in row] for row in qt])
    r = _nextafter(ratio * qt_norm, _INF)
    return ([[_add_dn(x, -r) for x in row] for row in qt],
            [[_add_up(x, r) for x in row] for row in qt])


def _split(alo: list, ahi: list) -> tuple:
    """The midpoints M of [alo, ahi] and the defect [alo, ahi] - M."""
    mids = [list(map(_mid, rl, rh)) for rl, rh in zip(alo, ahi)]
    return (
        mids,
        [[_add_dn(a, -m) for a, m in zip(rl, rm)] for rl, rm in zip(alo, mids)],
        [[_add_up(a, -m) for a, m in zip(rh, rm)] for rh, rm in zip(ahi, mids)],
    )


def _assemble(enc: FlowEnclosure, data: _StepData, h: float) -> FlowEnclosure:
    """Lohner doubleton update: new midpoint, transported init part, QR
    error basis, rigorous remainder."""
    n = enc.dim
    r0lo = [c.lo for c in enc.init_remainder]
    r0hi = [c.hi for c in enc.init_remainder]
    rlo = [c.lo for c in enc.remainder]
    rhi = [c.hi for c in enc.remainder]
    tlo, thi = data.transport
    c_new, cdl, cdh = _split(*_mul_floats(tlo, thi, enc.init_basis))
    m_mid, mdl, mdh = _split(*_mul_floats(tlo, thi, enc.basis))

    # err = defect + c_delta r0 + m_delta r + tail, defect = image - m_new
    m_new, elo, ehi = [], [], []
    for i, (img, t) in enumerate(zip(data.image, data.tail)):
        m = _mid(img.lo, img.hi)
        m_new.append(m)
        c0, c1 = _idot_ends(cdl[i], cdh[i], r0lo, r0hi)
        d0, d1 = _idot_ends(mdl[i], mdh[i], rlo, rhi)
        elo.append(_add_dn(_add_dn(_add_dn(_add_dn(img.lo, -m), c0), d0), t.lo))
        ehi.append(_add_up(_add_up(_add_up(_add_up(img.hi, -m), c1), d1), t.hi))

    # sort columns so the dominant stretched directions lead the QR
    rads = [0.5 * r.width for r in enc.remainder]
    weights = []
    for j in range(n):
        col = sum(m_mid[i][j] ** 2 for i in range(n)) ** 0.5
        weights.append(-col * max(rads[j], 1e-300))
    perm = sorted(range(n), key=lambda j: weights[j])
    a = np.array([[m_mid[i][perm[j]] for j in range(n)] for i in range(n)])
    q_np, _ = np.linalg.qr(a)
    q = [[float(q_np[i][j]) for j in range(n)] for i in range(n)]
    qlo, qhi = _orthogonal_inverse(q)

    # rem = (Q^-1 m_mid) r + Q^-1 err
    plo, phi = _mul_floats(qlo, qhi, m_mid)
    rem = []
    for i in range(n):
        a0, a1 = _idot_ends(plo[i], phi[i], rlo, rhi)
        b0, b1 = _idot_ends(qlo[i], qhi[i], elo, ehi)
        rem.append(_mk(_add_dn(a0, b0), _add_up(a1, b1)))
    return FlowEnclosure(
        m_new, q, IVector(rem), enc.time + h, c_new, enc.init_remainder
    )


# Step-size rule of Jorba and Zou (Exp. Math. 14, 2005), as in the Lohner
# step control of CAPD: after an error ratio r = err / tol the next step
# is h * _SAFETY * r^(-1/(p+1)), at most _GROWTH times h after an accepted
# step and within [_SHRINK_MIN, _SHRINK_MAX] times h after a rejection.
_SAFETY = 0.7
_GROWTH = 2.0
_SHRINK_MIN = 0.25
_SHRINK_MAX = 0.9

# the settings of every flight of the proof (see "Step sizes" above)
ORDER = 20
TOL = 3e-15
H_INIT = 0.02
H_MIN = 1e-9
H_MAX = 0.12
MAX_TIME = 12.0


def _step_factor(r: float, order: int) -> float:
    """Factor from the step size just tried to the next one, after an
    error ratio r (accepted when r <= 1)."""
    if r == 0.0:
        return _GROWTH
    f = _SAFETY * r ** (-1.0 / (order + 1))
    if r <= 1.0:
        return min(f, _GROWTH)
    # a rejection; a NaN ratio shrinks the most
    return min(f, _SHRINK_MAX) if f >= _SHRINK_MIN else _SHRINK_MIN


def _advance(field, enc, h, order, tol, h_min, h_max):
    """One accepted step from enc, trying h first.

    A step is accepted when its error ratio r = max(sol_err, var_err) / tol
    is at most 1; a failed rough enclosure halves h.  Returns
    (end, data, h, h_next): the enclosure after the step, its expansions,
    the step size used and the predicted next step size.
    """
    while True:
        if h < h_min:
            raise EnclosureFailure(
                f"no acceptable step above h_min={h_min:g}"
            )
        try:
            data = _expand_step(field, enc, h, order, tol)
        except EnclosureFailure:
            h *= 0.5
            continue
        # an early rejection has sol_err > tol, hence r > 1
        r = max(data.sol_err, data.var_err) / tol
        if r <= 1.0:
            h_next = min(h * _step_factor(r, order), h_max)
            return _assemble(enc, data, h), data, h, h_next
        h *= _step_factor(r, order)


# -- Poincare crossings ------------------------------------------------------------


def _past_section(end: FlowEnclosure, section: Section) -> bool:
    """Whether the end set of a step lies strictly past the section."""
    gap = end.as_box()[section.index] - section.value
    if section.direction < 0:
        gap = -gap
    return gap.lo > 0.0


def _float_newton_time(ser, h_step, section, order):
    """Float time where the midpoint series ser meets the section (no
    rigor)."""
    lo, hi = ser.float_series()[section.index]
    coeffs = [_mid(lo[k], hi[k]) for k in range(order + 1)]
    dcoeffs = [k * coeffs[k] for k in range(1, order + 1)]

    def p(t):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc - section.value

    def dp(t):
        acc = 0.0
        for c in reversed(dcoeffs):
            acc = acc * t + c
        return acc

    t = 0.5 * h_step
    for _ in range(80):
        d = dp(t)
        if d == 0.0:
            break
        step = p(t) / d
        t -= step
        t = min(max(t, 0.0), h_step)
        if abs(step) < 1e-16 * max(1.0, abs(t)):
            break
    if not (0.0 < t < h_step) or abs(p(t)) > 1e-10:
        raise LostCrossing("float landing on the section did not converge")
    return t


def _cross_in_step(field, enc, h_step, section, order):
    """Certified section image for a step whose end lies strictly past the
    section.  Returns the on-section FlowEnclosure or raises."""
    n = enc.dim
    k = section.index
    # the thin midpoint series lands the float time and then encloses
    # the image at that time
    ser_m = field.expand(IVector.from_floats(enc.midpoint), order)
    t_star = _float_newton_time(ser_m, h_step, section, order)

    data = _expand_step(field, enc, t_star, order, ser_m=ser_m)
    # first-crossing inside the step needs monotone section coordinate
    f_tube = field.vector_field(data.tube)[k]
    if 0.0 in f_tube or (f_tube.hi < 0.0) != (section.direction < 0):
        raise TransversalityFailure(
            f"section velocity over the step tube: {f_tube!r}"
        )

    # [V] (C | B), one row per state component
    ends = _mul_floats(*data.transport,
                       list(map(list.__add__, enc.init_basis, enc.basis)))
    m = IMatrix([list(map(_mk, lo, hi)) for lo, hi in zip(*ends)])
    coords = list(enc.init_remainder) + list(enc.remainder)
    tail = data.tail
    x_star = IVector([
        data.image[i] + idot(m.rows[i], coords) + tail[i] for i in range(n)
    ])

    # transition tube around the section, both time directions
    g = x_star[k] - section.value
    f_here = field.vector_field(x_star)[k]
    if 0.0 in f_here:
        raise TransversalityFailure(
            f"section velocity on the crossing set: {f_here!r}"
        )
    d_time = 1.2 * (abs(g) / abs(f_here)).hi + 1e-300
    for _ in range(12):
        tube = _picard(field, x_star, Interval(-d_time, d_time))
        fz = field.vector_field(tube)
        fzk = fz[k]
        if 0.0 in fzk or (fzk.hi < 0.0) != (section.direction < 0):
            raise TransversalityFailure(
                f"section velocity over the transition tube: {fzk!r}"
            )
        delta = (section.value - x_star[k]) / fzk
        if delta.mag <= d_time:
            break
        d_time *= 2.0
    else:
        raise EnclosureFailure("transition tube did not capture the crossing")

    # correlated projection onto the section
    pk_off = data.image[k] - section.value
    mids = []
    rems = []
    for i in range(n):
        if i == k:
            mids.append(section.value)
            rems.append(Interval(0.0))
            continue
        rho = fz[i] / fzk
        terms = [x - rho * y for x, y in zip(m.rows[i], m.rows[k])]
        row = (data.image[i] - rho * pk_off + idot(terms, coords)
               + tail[i] - rho * tail[k])
        mids.append(row.mid)
        rems.append(row - mids[-1])
    return FlowEnclosure(
        mids, eye(n), IVector(rems), enc.time + t_star + delta
    )


def poincare_crossing(
    field,
    enc: FlowEnclosure,
    section: Section,
    order: int = ORDER,
    tol: float = TOL,
    h_init: float = H_INIT,
    h_min: float = H_MIN,
    h_max: float = H_MAX,
    max_time: float = MAX_TIME,
    observer=None,
) -> FlowEnclosure:
    """Certified first crossing of the section.

    The set must start strictly off-section.  Every step's rough tube is
    checked: a step whose tube stays clear of the section cannot contain
    a crossing and is accepted.  A step whose tube meets the section and
    whose end set lies strictly past it is the crossing step, refined
    into an on-section enclosure via the correlated mean-value projection.
    Any other step that meets the section, its end set short of the
    section or straddling it, is retried at half the step size; below
    h_min the flight is LostCrossing.  observer(enc, tube) is called once
    per accepted step.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    k = section.index
    g0 = enc.as_box()[k] - section.value
    if 0.0 in g0:
        raise ValueError("initial set is not strictly off-section")
    side = 1 if g0.lo > 0.0 else -1
    if section.direction != -side:
        raise ValueError(
            "required crossing sign is inconsistent with the starting side"
        )
    t_start = enc.time.lo
    h_try = min(h_init, h_max)
    while True:
        if enc.time.hi - t_start > max_time:
            raise LostCrossing(f"no crossing within time budget {max_time}")
        end, data, h, h_next = _advance(
            field, enc, h_try, order, tol, h_min, h_max
        )
        if 0.0 not in data.tube[k] - section.value:
            # tube clear of the section: certified no crossing in this step
            enc = end
            if observer is not None:
                observer(enc, data.tube)
            h_try = h_next
            continue
        if _past_section(end, section):
            return _cross_in_step(field, enc, h, section, order)
        # shrink the step until its tube clears the section
        h_try = 0.5 * h
        if h_try < h_min:
            raise LostCrossing(
                "section contact could not be resolved above h_min"
            )
