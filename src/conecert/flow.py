"""Validated ODE integration and rigorous Poincare sections.

A set of states is carried as a Lohner doubleton

    midpoint + init_basis * init_remainder + basis * remainder,

where the midpoint and the two bases are floating point and the two
remainders are interval boxes.  The initial set rides the raw product of
step transport matrices in init_basis (a parallelepiped, so the dominant
term never pays the wrapping cost of re-boxing), while the per-step
defects - Lagrange tails, midpoint rounding, transport-product rounding -
accumulate in the orthonormal basis * remainder part.  Every operation
keeps the invariant that the exact flow image of the initial set stays
inside the represented set.  The set's dimension is the field's, and
nothing here depends on it: a field whose state carries a parameter as a
coordinate with zero derivative (rtbp's mass, in a band flight) flies the
parameter dependence as one more direction of the set.

A field gives expand(u0, p), the solution series from the box u0, whose
float_series() holds its Taylor coefficients through order p as one
(lo, hi) pair of float lists per component, and
expand_variational(series, V0, p, stop=None), the series of V' = DF V
from V0 (any number of columns) through order p, or the first k >= 1
with stop(k, series) true, as entries [i][j] = (lo, hi); it extends the
solution series to every order it reaches past the series' own.
flow reads the field through these two only, and every series through
its float lists only: F over a box is coefficient 1 of its series, and
DF over a tube coefficient 1 of its variational series from I.

One Taylor step of order p from the box x0 with midpoint m expands:
  * the series at x0 through order 3, and the tube from it: Y =
    sum_{k <= 2} c_k(x0) [0, h]^k + c_3(Z) [0, h]^3 by interval Horner,
    once Y lies in a box Z grown from Y by hull and inflation, so that
    every trajectory from x0 stays in Y over [0, h] (the Taylor test of
    Corliss and Rihm 1996; Nedialkov, Jackson and Corliss 1999, section 4);
  * a series over the tube, expanded one order at a time up to p+1 and
    stopped at the first order p'+1 whose coefficient times h^(p'+1), the
    Lagrange term of the solution, has magnitude at most the cut (see Step
    sizes); a step whose term sol_err fails tol pays for nothing more;
  * DF over the tube, coefficient 1 of its variational series from I;
  * the variational series over the tube of the one column W u, u = x0 - m,
    up to the first order q+1 <= p+1 whose coefficient times [h]^(q+1) has
    magnitude at most sol_err or the cut (q = p when none does).  W
    encloses V(t) = D(phi_t) on [0, h]: ||V(t) - I||_w <= b = e^(L h) - 1
    in the infinity norm weighted by w > 0, L = max_i sum_j |DF_ij| w_j / w_i,
    so entry i of W u is u_i + [-b w_i, b w_i], for w = |u| (floored at
    1e-300; a thin coordinate, such as a band flight's mass, then weighs
    its column of DF by its own width) and for w = max |u|, whichever is
    narrower.  That term is the tail vector, the Lagrange term of D(phi_h)
    applied to every x - m; past p'+1 the column extends the tube series;
  * a thin series at m (order p'), whose increment sum_{1 <= k <= p'} c_k
    h^k plus the Lagrange term at p'+1 encloses phi_h(m) - m: c_0 = m
    exactly, so the image m + increment carries no rounding of order 1;
  * the variational series from I along the series at x0, which it
    extends, to order q: its Taylor polynomial [V] is the transport.
Float pairs carry every series, and one Horner routine sums [V] and the
increment with the rounding of the Interval operations it replaces.  The
mean value theorem then gives
phi_h(m + C r0 + B r) in m + increment + [V] (C r0 + B r) + tail: for x
in the box, phi_h(x) - phi_h(m) averages D(phi_h)(y) (x - m) over y from m
to x, and D(phi_h)(y) is the order-q polynomial of the variational series
at y plus h^(q+1) times coefficient q+1 of the series started at some t
in [0, h] from phi_t(y) in the tube with V_0 = D(phi_t)(y) in W.  This
holds at every q <= p, and the solution's form at every p' <= p; when the
column meets sol_err, var_err <= sol_err.  The Lohner update moves the
midpoint to m_new = m + mid(increment), splits [V] C and [V] B into float
midpoints plus interval defects, which join (m - m_new) + increment and
the tail in the error, and renews the error basis by Gram-Schmidt on
sorted columns, all on float pairs, rounded bit for bit as the Interval
operations they replace.  A product of an interval matrix with a float
one takes per term the two corners picked by the float's sign, with the
rounding of idot.  Q^-1 of the float basis Q, orthogonal up to rounding,
is enclosed as Q^T plus an entrywise ball of radius
||E|| / (1 - ||E||) ||Q^T||, E = I - Q^T Q and ||.|| an upper bound of the
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
uses: order p = 19, tol = 2.6e-13, a first step of 0.02, h_min = 1e-9,
h_max = 0.3, and a Poincare flight gives up after 12 time units.  The
tol is set for a thin midpoint series whose coefficient 1, F at the
midpoint, rtbp narrows to within 2 ulps: from the float kernels alone F
is tens of ulps wide, and h times that width would exceed the Lagrange
term that tol bounds.

The rule also sets each step's order.  An error ratio r at or under
(0.7 / 2)^(p+1), about 7.6e-10 at p = 19 (2.0e-22 at tol 2.6e-13), already
gives the largest growth, 2 h, so an error below that cut buys nothing:
a step expands its series only to the first order p' <= p whose
Lagrange term meets the cut, and its column stops at the cut too.  The
cut is the ratio at which _step_factor returns its cap, asked of
_step_factor itself; a step at an infinite tol (the crossing step) keeps
the full order.

Poincare crossings read the side to cross from off the starting set,
which must lie strictly off the section (LostCrossing otherwise), and
monitor the rough tube of every step.  A step whose tube is clear of the
section is accepted as it is.  A step whose tube meets the section is
the crossing step when its end set lies strictly past the section; any
other contact step is halved, and a step below h_min is LostCrossing.
A set must therefore pass the section within one step: a set wider than
a step's travel ends in LostCrossing.  The crossing step lands a float
time on the section with the midpoint series, which does not depend on
h and so also encloses the image at that time, and projects the set onto
the section through the correlated mean-value form

    P_i in p_i - [F_i(Z)/F_k(Z)] (p_k - value),

Z the tube over [-d, d] around the crossing set (the step's Taylor test,
both ways in time), evaluated jointly over the shared remainder
coordinates so that signs survive where independent bounds would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval import (
    Box,
    IMatrix,
    Interval,
    IVector,
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
    """Hyperplane {x_index = value}.  A flight crosses it from the side
    its starting set lies on (see poincare_crossing)."""

    index: int
    value: float


# -- rough enclosures -------------------------------------------------------------


def _field_over(field, box: Box) -> Box:
    """F over a box: coefficient 1 of its Taylor series, F / 1."""
    return IVector([_mk(lo[1], hi[1])
                    for lo, hi in field.expand(box, 1).float_series()])


_TUBE_ORDER = 2  # m, the order of the tube's Taylor polynomial


def _tube(field, ser0, t: Interval) -> Box:
    """Y = sum_{k <= m} c_k(x0) t^k + c_{m+1}(Z) t^(m+1) by interval Horner
    in t, returned once Y lies in Z: every trajectory from x0 then stays
    in Y over t.  ser0 is the series from x0 through order m + 1 or more;
    Z starts at Y with c_{m+1}(x0) and grows by hull and inflation."""
    m, ser = _TUBE_ORDER, ser0.float_series()
    top, z = [_mk(lo[m + 1], hi[m + 1]) for lo, hi in ser], None
    for _ in range(20):
        cand = []
        for acc, (lo, hi) in zip(top, ser):
            for k in range(m, -1, -1):
                acc = acc * t + _mk(lo[k], hi[k])
            if not (math.isfinite(acc.lo) and math.isfinite(acc.hi)):
                raise EnclosureFailure("rough enclosure escaped to infinity")
            cand.append(acc)
        if z is not None and IVector(cand).is_subset_of(z):
            return IVector(cand)
        pad = [0.1 * c.width + 1e-300 for c in cand]
        z = IVector([c.hull(c if z is None else z[i]) + Interval(-p, p)
                     for i, (c, p) in enumerate(zip(cand, pad))])
        try:
            top = [_mk(lo[m + 1], hi[m + 1])
                   for lo, hi in field.expand(z, m + 1).float_series()]
        except ArithmeticError as err:
            raise EnclosureFailure(
                f"rough enclosure inflated into a singularity: {err}"
            ) from err
    raise EnclosureFailure("rough enclosure did not stabilize in 20 attempts")


def a_priori_enclosure(field, x0, h: float) -> Box:
    """The tube of all trajectories from the box x0 over [0, h] (_tube).
    x0 may also be the field's series from the box, through order m + 1
    or more, which the Taylor step goes on to extend."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    if not hasattr(x0, "float_series"):
        x0 = field.expand(x0, _TUBE_ORDER + 1)  # a singular start propagates
    return _tube(field, x0, Interval(0.0, h))


# -- the Taylor step --------------------------------------------------------------


def _growth(v: list, w: list, h: float) -> float:
    """Upper bound of e^(L h) - 1, L = max_i sum_j |V_1[i][j]| w_j / w_i
    the norm of V_1, coefficient 1 of v (DF when V_0 = I), weighted by
    w > 0; it bounds ||V(t) - I||_w over [0, h]."""
    worst = 0.0
    for row, wi in zip(v, w):
        acc = 0.0
        for (lo, hi), wj in zip(row, w):
            p = max(abs(lo[1]), abs(hi[1])) * wj
            acc = _add_up(acc, _nextafter(p, _INF))
        worst = max(worst, _nextafter(acc / wi, _INF))
    return _add_up(exp(_mk(worst, worst) * h).hi, -1.0)


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
    """tail h^(order+1) + sum_{1 <= k <= order} c_k h^k, the increment of
    the series over c_0: _horner on the float lists from c_1, times h;
    tail holds one (lo, hi) pair per component."""
    return IVector([
        _mk(*_mul_ends(*_horner(los[1:], his[1:], order - 1, h, lo, hi), h, h))
        for (los, his), (lo, hi) in zip(series.float_series(), tail)
    ])


def _horner_transport(v: list, order: int, h: float) -> tuple:
    """sum_{k <= order} V_k h^k as float matrices (lo, hi), summed by
    _horner on the float series of each entry from acc = V_order."""
    return _unzip([
        [_horner(los, his, order - 1, h, los[order], his[order])
         for los, his in row]
        for row in v
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


def _column_term(v: list, k: int, hpl: list, hph: list) -> list:
    """Column 0 of coefficient k of v times [hpl_k, hph_k], one (lo, hi)
    pair per row, rounded as the Interval product."""
    return [_mul_ends(lo[k], hi[k], hpl[k], hph[k]) for (lo, hi), *_ in v]


class _StepData:
    """The expansions of one step, the transport as the float matrices
    (lo, hi) that _assemble and _cross_in_step multiply; increment,
    transport, tail and order are None, and var_err is 0, for a step
    rejected on sol_err alone."""

    __slots__ = (
        "increment", "transport", "tail", "tube", "sol_err", "var_err", "order",
    )

    def __init__(self, increment, transport, tail, tube, sol_err, var_err,
                 order):
        self.increment = increment  # IVector, phi_h(midpoint) - midpoint
        self.transport = transport  # (lo, hi), polynomial part of D(phi_h)
        self.tail = tail  # IVector, Lagrange term of D(phi_h)(x - midpoint)
        self.tube = tube  # rough enclosure over [0, h]
        self.sol_err = sol_err  # magnitude of the solution Lagrange term
        self.var_err = var_err  # magnitude of tail
        self.order = order  # q, the transport's order; the tail's is q+1


def _lagrange(series, k: int, hph: list) -> tuple:
    """Coefficient k of a series, one (lo, hi) pair per component, and its
    magnitude times the upper end hph[k] of h^k."""
    tail = [(lo[k], hi[k]) for lo, hi in series.float_series()]
    return tail, max(abs(x) for t in tail for x in t) * hph[k]


def _expand_step(
    field, enc: FlowEnclosure, h: float, order: int, tol: float = math.inf,
    ser_m=None,
) -> _StepData:
    """The expansions of one step (see the module docstring), or only the
    tube and its series when the solution Lagrange term exceeds tol.
    ser_m is the thin series at the midpoint to order p, when the caller
    has expanded it already; it does not depend on h.  For every x in x0,
    phi_h(x) lies in m + increment + transport (x - m) + tail."""
    n = enc.dim
    x0 = enc.as_box()
    ser_x = field.expand(x0, _TUBE_ORDER + 1)
    tube = a_priori_enclosure(field, ser_x, h)
    hpl, hph = _powers(h, order + 1)

    def under(err):  # the ratio err / tol is one _step_factor caps
        return tol < _INF and _step_factor(err / tol, order) == _GROWTH

    ser_z = field.expand(tube, order + 1,
                         stop=lambda k, s: under(_lagrange(s, k, hph)[1]))
    top = len(ser_z.float_series()[0][0]) - 1  # p'+1
    sol_tail, sol_err = _lagrange(ser_z, top, hph)
    if sol_err > tol:
        return _StepData(None, None, None, tube, sol_err, 0.0, None)

    u = [x0[i] - enc.midpoint[i] for i in range(n)]
    ident = IMatrix.identity(n)
    df = field.expand_variational(ser_z, ident, 1)
    # |(V(t) - I) u|_i <= b w_i under both weights, |u| and max |u|
    w = [max(c.mag, 1e-300) for c in u]
    rad = [_INF] * n
    for ws in (w, [max(w)] * n):
        b = _growth(df, ws, h)
        rad = [min(s, _mul_ends(b, b, x, x)[1]) for s, x in zip(rad, ws)]
    column = IMatrix([[c + Interval(-s, s)] for c, s in zip(u, rad)])

    def met(k, v):  # every entry of the term at most sol_err, or the cut
        t = _column_term(v, k, hpl, hph)
        return all(-lo <= sol_err and hi <= sol_err for lo, hi in t) or (
            under(max(max(-lo, hi) for lo, hi in t)))

    v_z = field.expand_variational(ser_z, column, order + 1, stop=met)
    q = len(v_z[0][0][0]) - 2  # the column ends at order q + 1
    tail = IVector([_mk(*t) for t in _column_term(v_z, q + 1, hpl, hph)])
    var_err = max(c.mag for c in tail)

    if ser_m is None:
        ser_m = field.expand(IVector.from_floats(enc.midpoint), top - 1)
    inc = _horner_vec(ser_m, top - 1, h, sol_tail)
    v_x = field.expand_variational(ser_x, ident, q)
    transport = _horner_transport(v_x, q, h)
    return _StepData(inc, transport, tail, tube, sol_err, var_err, q)


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
            f"error basis not orthogonal: ||I - Q^T Q|| <= {e_norm}"
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


def _lohner_basis(a: list, rads: list) -> list:
    """Q of the Lohner update: Gram-Schmidt, run twice, on the columns of a
    sorted by norm times radius (Giraud et al., Comput. Math. Appl. 2005)."""
    def dot(x, y):  # left to right; builtin sum's changed in CPython 3.12
        acc = 0.0
        for s, t in zip(x, y):
            acc += s * t
        return acc
    cols, q = list(zip(*a)), []
    keys = [-math.sqrt(dot(c, c)) * max(r, 1e-300) for c, r in zip(cols, rads)]
    for j in sorted(range(len(cols)), key=keys.__getitem__):
        v = cols[j]
        for u in q + q:  # two passes
            d = dot(u, v)
            v = [x - d * y for x, y in zip(v, u)]
        s = math.sqrt(dot(v, v))
        if not 0.0 < s < _INF:  # a zero, infinite or NaN column
            raise EnclosureFailure(f"basis column {j} has remaining norm {s}")
        q.append([x / s for x in v])
    return list(zip(*q))


def _assemble(enc: FlowEnclosure, data: _StepData, h: float) -> FlowEnclosure:
    """Lohner doubleton update: new midpoint, transported init part,
    Gram-Schmidt error basis (_lohner_basis), rigorous remainder."""
    n = enc.dim
    r0lo = [c.lo for c in enc.init_remainder]
    r0hi = [c.hi for c in enc.init_remainder]
    rlo = [c.lo for c in enc.remainder]
    rhi = [c.hi for c in enc.remainder]
    tlo, thi = data.transport
    c_new, cdl, cdh = _split(*_mul_floats(tlo, thi, enc.init_basis))
    m_mid, mdl, mdh = _split(*_mul_floats(tlo, thi, enc.basis))

    # err = defect + c_delta r0 + m_delta r + tail, with the image m + inc
    # of the midpoint and the defect (m - m_new) + inc
    m_new, elo, ehi = [], [], []
    for i, (m, inc, t) in enumerate(zip(enc.midpoint, data.increment, data.tail)):
        mn = m + _mid(inc.lo, inc.hi)
        m_new.append(mn)
        c0, c1 = _idot_ends(cdl[i], cdh[i], r0lo, r0hi)
        d0, d1 = _idot_ends(mdl[i], mdh[i], rlo, rhi)
        lo, hi = _add_dn(_add_dn(m, -mn), inc.lo), _add_up(_add_up(m, -mn), inc.hi)
        elo.append(_add_dn(_add_dn(_add_dn(lo, c0), d0), t.lo))
        ehi.append(_add_up(_add_up(_add_up(hi, c1), d1), t.hi))

    q = _lohner_basis(m_mid, [0.5 * r.width for r in enc.remainder])
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

# the settings of every flight of the proof (see "Step sizes" above).  A
# lower order or a looser tol gives cheaper or fewer steps (Jorba and Zou).
# h_max against the tube's order m (_TUBE_ORDER) at tol 3e-14, thousands
# of dot terms per endpoint flight / in the band flight of fragment 0
# (attempts); * marks a gated width wider than with h_max 0.12 and the
# first-order tube:
#   h_max    0.25            0.3             0.35
#   m = 2    452/584 (94)    438/567 (92)    429/558 (91)*
#   m = 3    456/585 (94)    440/570 (92)    432/561 (91)*
# 0.3 at m = 2 makes the fewest dot terms unmarked.  Then tol at order 19,
# with rtbp's decimal F at each thin series' start, the same counts (left
# flight); * marks a width wider than at tol 3e-14 with the float F: an
# endpoint's P_X, fragment 0's P_X or crossing time, or the P_X or the
# crossing time per unit of mass of the whole band as one flight:
#   3e-14    408/564 (92)    6e-14    395/542 (90)    1.2e-13  382/523 (88)
#   1.5e-13  376/513 (87)    2e-13    369/502 (86)    2.5e-13  368/502 (86)
#   2.6e-13  369/502 (86)    2.7e-13  362/492 (85)*   3e-13    361/492 (85)*
#   5e-13    351/488 (84)*   1e-12    337/470 (82)*
# and at 2.6e-13 order 17 311/436 (94)*, 18 345/476 (91)*, 20 389/536 (82).
# 2.6e-13 is the loosest tol unmarked; orders 18 and 17 widen the whole
# band's crossing time per unit of mass by 25% and 42%
ORDER = 19
TOL = 2.6e-13
H_INIT = 0.02
H_MIN = 1e-9
H_MAX = 0.3
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


def _past_section(end: FlowEnclosure, section: Section,
                  direction: int) -> bool:
    """Whether the end set of a step lies strictly past the section, which
    it crosses increasing (direction 1) or decreasing (-1)."""
    gap = end.as_box()[section.index] - section.value
    if direction < 0:
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


def _cross_in_step(field, enc, h_step, section, direction, order):
    """Certified section image for a step whose end lies strictly past the
    section, crossed with the sign direction.  Returns the on-section
    FlowEnclosure or raises."""
    n = enc.dim
    k = section.index
    # the thin midpoint series lands the float time and then encloses
    # the image at that time
    ser_m = field.expand(IVector.from_floats(enc.midpoint), order)
    t_star = _float_newton_time(ser_m, h_step, section, order)

    data = _expand_step(field, enc, t_star, order, ser_m=ser_m)
    # first-crossing inside the step needs monotone section coordinate
    f_tube = _field_over(field, data.tube)[k]
    if 0.0 in f_tube or (f_tube.hi < 0.0) != (direction < 0):
        raise TransversalityFailure(
            f"section velocity over the step tube: {f_tube!r}"
        )

    # [V] (C | B), one row per state component
    ends = _mul_floats(*data.transport,
                       list(map(list.__add__, enc.init_basis, enc.basis)))
    m = IMatrix([list(map(_mk, lo, hi)) for lo, hi in zip(*ends)])
    coords = list(enc.init_remainder) + list(enc.remainder)
    tail = data.tail
    image = IVector([c + x for c, x in zip(data.increment, enc.midpoint)])
    x_star = IVector([
        image[i] + idot(m.rows[i], coords) + tail[i] for i in range(n)
    ])

    # transition tube around the section, both time directions
    g = x_star[k] - section.value
    ser_star = field.expand(x_star, _TUBE_ORDER + 1)
    f_here = _mk(*[e[1] for e in ser_star.float_series()[k]])  # F_k(x_star)
    if 0.0 in f_here:
        raise TransversalityFailure(
            f"section velocity on the crossing set: {f_here!r}"
        )
    d_time = 1.2 * (abs(g) / abs(f_here)).hi + 1e-300
    for _ in range(12):
        tube = _tube(field, ser_star, Interval(-d_time, d_time))
        fz = _field_over(field, tube)
        fzk = fz[k]
        if 0.0 in fzk or (fzk.hi < 0.0) != (direction < 0):
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
    pk_off = image[k] - section.value
    mids = []
    rems = []
    for i in range(n):
        if i == k:
            mids.append(section.value)
            rems.append(Interval(0.0))
            continue
        rho = fz[i] / fzk
        terms = [x - rho * y for x, y in zip(m.rows[i], m.rows[k])]
        row = (image[i] - rho * pk_off + idot(terms, coords)
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

    The set must start strictly off-section, LostCrossing otherwise; the
    side it starts on fixes the sign of the crossing.  Every step's rough
    tube is checked: a step whose tube stays clear of the section cannot
    contain a crossing and is accepted.  A step whose tube meets the
    section and whose end set lies strictly past it is the crossing step,
    refined into an on-section enclosure via the correlated mean-value
    projection.  Any other step that meets the section, its end set short
    of the section or straddling it, is retried at half the step size;
    below h_min the flight is LostCrossing.  observer(enc, tube) is called
    once per accepted step.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    k = section.index
    g0 = enc.as_box()[k] - section.value
    if 0.0 in g0:
        raise LostCrossing("initial set is not strictly off-section")
    direction = -1 if g0.lo > 0.0 else 1
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
        if _past_section(end, section, direction):
            return _cross_in_step(field, enc, h, section, direction, order)
        # shrink the step until its tube clears the section
        h_try = 0.5 * h
        if h_try < h_min:
            raise LostCrossing(
                "section contact could not be resolved above h_min"
            )
