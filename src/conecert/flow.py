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
a solution series whose coefficient(k) is the k-th Taylor coefficient,
and expand_variational(series, V0, p), the MatrixSeries of V' = DF V
from V0, which may have any number of columns.

One Taylor step uses five series expansions, in this order:
  * an interval series over the rough tube (order p+1), whose last
    coefficient is the Lagrange term of the solution; its magnitude
    sol_err is tested first, so a step that fails it pays for no other
    series;
  * a thin series at the midpoint (order p), which with that Lagrange
    coefficient encloses phi_h(midpoint);
  * an interval series at the current box (order p) and its variational
    series from I (order p), whose Taylor polynomial [V] is the transport;
  * the variational series over the tube (order p+1) of the one column
    W u, u = x0 - m the current box less its midpoint and W the a-priori
    bound ||V(t) - I||_inf <= e^(L h) - 1; its last coefficient times
    h^(p+1) is the tail vector, the Lagrange term of D(phi_h) applied to
    every x - m.
The variational series come back as float (lo, hi) series per entry
(MatrixSeries), and [V] is summed by Horner on those floats with the
rounding of the Interval operations.  The mean value theorem then gives
phi_h(m + C r0 + B r) in phi_h(m) + [V] (C r0 + B r) + tail, the products
[V] C and [V] B are split into float midpoints plus interval defects,
which join the tail in the error, and the error basis is renewed by QR
with sorted columns to control wrapping.
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
h_max; a rough enclosure that fails halves h.  integrate_to_time and
poincare_crossing share this one acceptance loop, _advance, and the
predicted size carries over from step to step.

Poincare crossings monitor the rough tube of every step.  A step whose
tube is clear of the section is accepted as it is.  A step whose tube
meets the section is the crossing step when its end set lies strictly
past the section; any other contact step is halved, and a step below
h_min is LostCrossing.  A set must therefore pass the section within one
step: a set wider than a step's travel ends in LostCrossing.  The
crossing step lands a float time on the section with the midpoint
series and projects the set onto the section through the correlated
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
    _mk,
    _mul_ep,
    exp,
    eye,
    idot,
    mat_opnorm_upper,
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
    "LinearTaylorField",
    "a_priori_enclosure",
    "integrate_to_time",
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

    @classmethod
    def from_box(cls, box: Box, time: Interval | None = None) -> "FlowEnclosure":
        mid = box.mid()
        n = len(mid)
        ident = eye(n)
        r0 = IVector([box[i] - mid[i] for i in range(n)])
        zeros = IVector([Interval(0.0)] * n)
        return cls(
            mid, ident, zeros, time if time is not None else Interval(0.0),
            ident, r0,
        )

    def as_box(self) -> Box:
        n = self.dim
        coords = list(self.init_remainder) + list(self.remainder)
        out = []
        for i in range(n):
            row = [Interval(x) for x in self.init_basis[i]] + [
                Interval(x) for x in self.basis[i]
            ]
            out.append(self.midpoint[i] + idot(row, coords))
        return IVector(out)

    def max_width(self) -> float:
        return self.as_box().max_width()

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


# -- generic linear field ---------------------------------------------------------


class _CoeffSeries:
    """Plain coefficient table with the one method flow reads from a
    series, coefficient(k)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list):
        self.coeffs = coeffs

    def coefficient(self, k: int) -> IVector:
        return self.coeffs[k]


class LinearTaylorField:
    """x' = A x with interval-exact Taylor recurrences, mainly for tests
    and demonstrations: c_{k+1} = A c_k / (k+1)."""

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

    def expand(self, u0, order: int) -> _CoeffSeries:
        coeffs = [_as_ivector(u0, self.dim)]
        for k in range(order):
            coeffs.append(self.a.matvec(coeffs[k]).scale(1.0 / (k + 1)))
        return _CoeffSeries(coeffs)

    def expand_variational(self, sol, v0: IMatrix, order: int) -> MatrixSeries:
        out = [v0]
        for k in range(order):
            out.append(self.a.matmul(out[k]).scale(Interval(1.0 / (k + 1))))
        return MatrixSeries.from_matrices(out)


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
        acc = Interval(0.0)
        for entry in row:
            acc = acc + entry.mag
        worst = max(worst, acc.hi)
    return worst


def _horner_vec(series, order: int, h: float, tail: IVector) -> IVector:
    acc = tail
    for k in range(order, -1, -1):
        c = series.coefficient(k)
        acc = IVector([a * h + b for a, b in zip(acc, c)])
    return acc


def _horner_transport(v: MatrixSeries, order: int, h: float) -> IMatrix:
    """sum_{k <= order} V_k h^k, by Horner on the float series of each
    entry, rounded exactly as the IMatrix Horner acc.scale(Interval(h)) +
    V_k from acc = V_order is for h > 0: the product with h nudged
    outward, then the exact-directed sums."""
    rows = []
    for entry_row in v.entries:
        row = []
        for los, his in entry_row:
            lo, hi = los[order], his[order]
            for k in range(order - 1, -1, -1):
                lo = _add_dn(_nextafter(_mul_ep(lo, h), _NINF), los[k])
                hi = _add_up(_nextafter(_mul_ep(hi, h), _INF), his[k])
            row.append(_mk(lo, hi))
        rows.append(row)
    return IMatrix(rows)


class _StepData:
    """The expansions of one step; image, transport and tail are None, and
    var_err is 0, for a step rejected on sol_err alone."""

    __slots__ = ("image", "transport", "tail", "tube", "sol_err", "var_err")

    def __init__(self, image, transport, tail, tube, sol_err, var_err):
        self.image = image  # IVector enclosing phi_h(midpoint)
        self.transport = transport  # IMatrix, polynomial part of D(phi_h)
        self.tail = tail  # IVector, Lagrange term of D(phi_h)(x - midpoint)
        self.tube = tube  # rough enclosure over [0, h]
        self.sol_err = sol_err  # magnitude of the solution Lagrange term
        self.var_err = var_err  # magnitude of tail


def _expand_step(
    field, enc: FlowEnclosure, h: float, order: int, tol: float = math.inf
) -> _StepData:
    """The five expansions of one step, or only the tube series when the
    solution Lagrange term exceeds tol; that series is expanded first.

    The transport is the Taylor polynomial of D(phi_h) over the box x0.
    Its Lagrange term is only ever applied to u = x0 - m, so it is carried
    as the vector tail: coefficient p+1 of the variational column over the
    tube started from W u, times h^(p+1).  W encloses V(t) for t in [0, h]
    through ||V(t) - I||_inf <= b = e^(L h) - 1, L = ||Df(tube)||_inf, so
    (W u)_i is enclosed by u_i + [-b, b] max_j |u_j|.  By the mean value
    theorem phi_h(x) lies in phi_h(m) + transport (x - m) + tail for every
    x in x0."""
    n = enc.dim
    x0 = enc.as_box()
    tube = a_priori_enclosure(field, x0, h)
    ser_z = field.expand(tube, order + 1)
    sol_tail = ser_z.coefficient(order + 1)
    sol_err = max(c.mag for c in sol_tail) * h ** (order + 1)
    if sol_err > tol:
        return _StepData(None, None, None, tube, sol_err, 0.0)

    ser_m = field.expand(IVector.from_floats(enc.midpoint), order)
    image = _horner_vec(ser_m, order, h, sol_tail)

    ser_x = field.expand(x0, order)
    v_x = field.expand_variational(ser_x, IMatrix.identity(n), order)
    transport = _horner_transport(v_x, order, h)

    u = [x0[i] - enc.midpoint[i] for i in range(n)]
    l_inf = _opnorm_inf(field.jacobian(tube))
    b = exp(Interval(l_inf) * h) - 1.0
    r = (b * max(c.mag for c in u)).hi
    ball = Interval(-r, r)
    v_z = field.expand_variational(ser_z, IMatrix([[c + ball] for c in u]),
                                   order + 1)
    hp = Interval(1.0)
    for _ in range(order + 1):
        hp = hp * h
    tail = IVector([row[0] * hp for row in v_z[order + 1].rows])
    var_err = max(c.mag for c in tail)
    return _StepData(image, transport, tail, tube, sol_err, var_err)


def _orthogonal_inverse(q: list) -> IMatrix:
    """Enclosure of Q^-1 for a float matrix Q that is orthogonal up to
    rounding: Q^T plus a ball of radius ||E|| / (1 - ||E||) ||Q^T||,
    E = I - Q^T Q in interval arithmetic and ||.|| an upper bound of the
    spectral norm.  Q^-1 = (I - E)^-1 Q^T = Q^T + E (I - E)^-1 Q^T, and
    the spectral norm bounds every entry.  Raises EnclosureFailure when
    ||E|| >= 1/2."""
    n = len(q)
    qt = [[q[j][i] for j in range(n)] for i in range(n)]
    qt_iv = IMatrix.from_floats(qt)
    e = IMatrix.identity(n) - qt_iv.matmul(IMatrix.from_floats(q))
    e_norm = mat_opnorm_upper(e)
    if not e_norm < 0.5:
        raise EnclosureFailure(
            f"QR factor not orthogonal: ||I - Q^T Q|| <= {e_norm}"
        )
    en = Interval(e_norm)
    r = (en / (1.0 - en) * mat_opnorm_upper(qt_iv)).hi
    ball = Interval(-r, r)
    return IMatrix([[x + ball for x in row] for row in qt_iv.rows])


def _assemble(enc: FlowEnclosure, data: _StepData, h: float) -> FlowEnclosure:
    """Lohner doubleton update: new midpoint, transported init part, QR
    error basis, rigorous remainder."""
    n = enc.dim
    m_new = [c.mid for c in data.image]
    defect = IVector([data.image[i] - m_new[i] for i in range(n)])

    tc_full = data.transport.matmul(IMatrix.from_floats(enc.init_basis))
    c_new = tc_full.mid()
    c_delta = tc_full - IMatrix.from_floats(c_new)

    tb_full = data.transport.matmul(IMatrix.from_floats(enc.basis))
    m_mid = tb_full.mid()
    m_delta = tb_full - IMatrix.from_floats(m_mid)

    err = (
        defect
        + c_delta.matvec(enc.init_remainder)
        + m_delta.matvec(enc.remainder)
        + data.tail
    )

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
    q_inv = _orthogonal_inverse(q)

    rem = q_inv.matmul(IMatrix.from_floats(m_mid)).matvec(enc.remainder)
    rem = rem + q_inv.matvec(err)
    return FlowEnclosure(
        m_new, q, rem, enc.time + h, c_new, enc.init_remainder
    )


# Step-size rule of Jorba and Zou (Exp. Math. 14, 2005), as in the Lohner
# step control of CAPD: after an error ratio r = err / tol the next step
# is h * _SAFETY * r^(-1/(p+1)), at most _GROWTH times h after an accepted
# step and within [_SHRINK_MIN, _SHRINK_MAX] times h after a rejection.
_SAFETY = 0.7
_GROWTH = 2.0
_SHRINK_MIN = 0.25
_SHRINK_MAX = 0.9


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


def integrate_to_time(
    field,
    enc: FlowEnclosure,
    t_final: float,
    order: int = 20,
    tol: float = 1e-14,
    h_init: float = 0.02,
    h_min: float = 1e-9,
    h_max: float = 0.5,
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


# -- Poincare crossings ------------------------------------------------------------


def _past_section(end: FlowEnclosure, section: Section) -> bool:
    """Whether the end set of a step lies strictly past the section."""
    gap = end.as_box()[section.index] - section.value
    if section.direction < 0:
        gap = -gap
    return gap.lo > 0.0


def _float_newton_time(field, enc, h_step, section, order):
    """Float time where the midpoint series meets the section (no rigor)."""
    ser = field.expand(IVector.from_floats(enc.midpoint), order)
    coeffs = [ser.coefficient(k)[section.index].mid for k in range(order + 1)]
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
    t_star = _float_newton_time(field, enc, h_step, section, order)

    data = _expand_step(field, enc, t_star, order)
    # first-crossing inside the step needs monotone section coordinate
    f_tube = field.vector_field(data.tube)[k]
    if 0.0 in f_tube or (f_tube.hi < 0.0) != (section.direction < 0):
        raise TransversalityFailure(
            f"section velocity over the step tube: {f_tube!r}"
        )

    m_c = data.transport.matmul(IMatrix.from_floats(enc.init_basis))
    m_b = data.transport.matmul(IMatrix.from_floats(enc.basis))
    coords = list(enc.init_remainder) + list(enc.remainder)
    tail = data.tail
    p_rows = [
        data.image[i]
        + idot(list(m_c.row(i)) + list(m_b.row(i)), coords)
        + tail[i]
        for i in range(n)
    ]
    x_star = IVector(p_rows)

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
    time_cross = enc.time + t_star + delta
    out_rows: list[Interval] = []
    for i in range(n):
        if i == k:
            out_rows.append(Interval(section.value))
            continue
        rho = fz[i] / fzk
        terms = [m_c.rows[i][j] - rho * m_c.rows[k][j] for j in range(n)] + [
            m_b.rows[i][j] - rho * m_b.rows[k][j] for j in range(n)
        ]
        out_rows.append(
            data.image[i] - rho * pk_off + idot(terms, coords)
            + tail[i] - rho * tail[k]
        )
    for i in range(n):
        if i == k:
            mids.append(section.value)
            rems.append(Interval(0.0))
        else:
            m = out_rows[i].mid
            mids.append(m)
            rems.append(out_rows[i] - m)
    return FlowEnclosure(mids, eye(n), IVector(rems), time_cross)


def poincare_crossing(
    field,
    enc: FlowEnclosure,
    section: Section,
    order: int = 20,
    tol: float = 1e-14,
    h_init: float = 0.02,
    h_min: float = 1e-9,
    h_max: float = 0.5,
    max_time: float = 100.0,
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
