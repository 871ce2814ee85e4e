"""Validated integration and Poincare section tests.

Oracle notes:
  * [TRIVIAL]  zero and constant fields, quarter circle on the rotation
               field.
  * [DERIVED]  closed-form flows (exp, harmonic oscillator, linear saddle),
               scipy RK45 at rtol 1e-12 as a containment reference.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import refarith
from conecert import flow
from conecert.interval import (
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    decimal_to_interval,
    exp,
    idot,
    mat_opnorm_upper,
)
from conecert.flow import (
    EnclosureFailure,
    FlowEnclosure,
    LostCrossing,
    Section,
    TransversalityFailure,
    a_priori_enclosure,
    poincare_crossing,
)
from conecert.rtbp import RtbpParams, RtbpTaylorField
from oracles import (
    CoeffSeries,
    LinearTaylorField,
    enclosure_from_box,
    integrate_to_time,
    jacobi_constant,
    matrix_coefficient,
    matrix_series,
    series_coefficient,
    vector_field_floats,
    verified_inverse,
)

MU = "0.0042538634220"


def _imatrix(lo: list, hi: list) -> IMatrix:
    """The interval matrix of the float matrices (lo, hi)."""
    return IMatrix([list(map(Interval, a, b)) for a, b in zip(lo, hi)])


def _ends(m: IMatrix) -> tuple:
    """The float matrices (lo, hi) of an interval matrix."""
    return ([[x.lo for x in row] for row in m.rows],
            [[x.hi for x in row] for row in m.rows])


def rtbp_field() -> RtbpTaylorField:
    return RtbpTaylorField(RtbpParams(decimal_to_interval(MU)))


def parabola() -> LinearTaylorField:
    """x' = y, y' = -1 as the linear field of (x, y, 1), whose last
    coordinate stays 1."""
    return LinearTaylorField(IMatrix.from_floats(
        [[0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]]
    ))


def harmonic() -> LinearTaylorField:
    return LinearTaylorField(IMatrix.from_floats([[0.0, 1.0], [-1.0, 0.0]]))


# -- a priori enclosures -----------------------------------------------------------


def test_a_priori_zero_field():
    f = LinearTaylorField(IMatrix.from_floats([[0.0]]))
    x0 = IVector([Interval(1.0, 2.0)])
    z = a_priori_enclosure(f, x0, 0.5)
    assert x0.is_subset_of(z)
    assert z[0].width < x0[0].width + 1e-14  # few-ulp Picard inflation only


def test_a_priori_constant_field():
    # x' = 1, the linear field of (x, 1), from [0,0] over [0, 0.1] must
    # cover [0, 0.1].  [TRIVIAL]
    f = LinearTaylorField(IMatrix.from_floats([[0.0, 1.0], [0.0, 0.0]]))
    z = a_priori_enclosure(f, IVector.from_floats([0.0, 1.0]), 0.1)
    assert Interval(0.0, 0.1).is_subset_of(z[0])


def test_a_priori_contains_harmonic_arc():
    # Closed-form arc (cos t, -sin t) sampled at 10^3 times.  [DERIVED]
    z = a_priori_enclosure(harmonic(), IVector.from_floats([1.0, 0.0]), 0.01)
    for j in range(1001):
        t = 0.01 * j / 1000.0
        assert math.cos(t) in z[0]
        assert -math.sin(t) in z[1]


def test_a_priori_failure_blowup():
    class Quadratic:
        dim = 1

        def vector_field(self, x):
            v = x if isinstance(x, IVector) else IVector.from_floats(x)
            return IVector([sqr for sqr in (v[0] * v[0],)])

    with pytest.raises(EnclosureFailure):
        a_priori_enclosure(Quadratic(), IVector.from_floats([100.0]), 1.0)
    with pytest.raises(ValueError):
        a_priori_enclosure(harmonic(), IVector.from_floats([1.0, 0.0]), 0.0)


# -- Taylor steps ------------------------------------------------------------------


def test_step_zero_field():
    f = LinearTaylorField(IMatrix.from_floats([[0.0, 0.0], [0.0, 0.0]]))
    e0 = enclosure_from_box(IVector([Interval(1.0, 1.25), Interval(2.0)]))
    e1 = integrate_to_time(f, e0, 0.25, order=5)
    assert 0.25 in e1.time
    b0, b1 = e0.as_box(), e1.as_box()
    for a, b in zip(b0, b1):
        assert a.is_subset_of(b)
        assert b.width <= a.width + 1e-13  # [TRIVIAL]


def test_step_accumulates_e():
    # x' = x from 1 to t=1 in validated steps encloses e.  [DERIVED]
    f = LinearTaylorField(IMatrix.from_floats([[1.0]]))
    e0 = enclosure_from_box(IVector.from_floats([1.0]))
    e1 = integrate_to_time(f, e0, 1.0, order=15, tol=1e-16)
    assert math.e in e1.as_box()[0]
    assert e1.as_box()[0].width < 1e-10
    assert 1.0 in e1.time and e1.time.width < 1e-13


def test_step_harmonic_closed_form():
    e0 = enclosure_from_box(IVector.from_floats([1.0, 0.0]))
    e1 = integrate_to_time(harmonic(), e0, 2.0, order=15, tol=1e-15)
    b = e1.as_box()
    assert math.cos(2.0) in b[0]
    assert -math.sin(2.0) in b[1]
    assert max(c.width for c in b) < 1e-9  # [DERIVED]


def test_transport_horner_matches_interval_horner():
    # The transport is summed on the float series with the rounding of the
    # Interval Horner acc * h + V_k; the Interval loop is the reference and
    # must agree bit for bit, zero signs included.  [TRIVIAL]
    field = rtbp_field()
    rng = random.Random(1401)
    order = 20
    for _ in range(6):
        r = 10.0 ** rng.uniform(-12.0, -3.0)
        centre = [-0.8 + rng.uniform(-0.05, 0.05), 0.1, 0.05, -0.7]
        box = IVector([Interval(c - r, c + r) for c in centre])
        h = rng.choice([0.03, 0.06, 0.12, 0.0123456])
        v = field.expand_variational(
            field.expand(box, order), IMatrix.identity(4), order
        )
        acc = matrix_coefficient(v, order)
        for k in range(order - 1, -1, -1):
            acc = IMatrix([[a * Interval(h) for a in row] for row in acc.rows])
            acc = acc + matrix_coefficient(v, k)
        got = _imatrix(*flow._horner_transport(v, order, h))
        for row, ref_row in zip(got.rows, acc.rows):
            for a, b in zip(row, ref_row):
                assert (repr(a.lo), repr(a.hi)) == (repr(b.lo), repr(b.hi))


def _rtbp_box(rng: random.Random, dim: int, r: float) -> IVector:
    """A box of half-width r near the rtbp test orbit; a fifth component
    is a mass interval."""
    centre = [-0.8 + rng.uniform(-0.05, 0.05), 0.1, 0.05, -0.7]
    box = [Interval(c - r, c + r) for c in centre]
    if dim == 5:
        mu = decimal_to_interval(MU)
        box.append(Interval(mu.lo - 1e-11, mu.hi + 1e-11))
    return IVector(box)


def test_image_horner_matches_interval_horner():
    # The image of the midpoint is summed on the series' float lists with
    # the rounding of the IVector Horner acc * h + c_k from acc = tail; the
    # Interval loop is the reference and must agree bit for bit, zero
    # signs and infinite tail endpoints included, for the rtbp series of
    # both shapes and a coefficient table with zero and infinite
    # coefficients.  [TRIVIAL]
    field = rtbp_field()
    rng = random.Random(1401)
    order = 20
    cases = []
    entries = [Interval(-0.0, 0.0), Interval(0.0), Interval(-math.inf, 2.0),
               Interval(-1.0, math.inf), Interval(-3.0, -0.0),
               Interval(1e300, 1e308)]
    for dim in (4, 5):
        for trial in range(6):
            box = _rtbp_box(rng, dim, 10.0 ** rng.uniform(-12.0, -3.0))
            h = rng.choice([0.03, 0.06, 0.12, 0.0123456])
            series = field.expand(IVector.from_floats(box.mid()), order)
            tail = series_coefficient(field.expand(box, order + 1), order + 1)
            if trial == 0:
                tail = IVector([Interval(-math.inf, 1.0), Interval(-0.0, 0.0),
                                Interval(0.0, math.inf)] + list(tail)[3:])
            cases.append((series, h, tail))
        table = [IVector([rng.choice(entries) for _ in range(dim)])
                 for _ in range(order + 2)]
        cases.append((CoeffSeries(table[:-1]), 0.5, table[-1]))
    for series, h, tail in cases:
        acc = tail
        for k in range(order, -1, -1):
            acc = IVector([a * h + b for a, b in
                           zip(acc, series_coefficient(series, k))])
        got = flow._horner_vec(series, order, h, [(c.lo, c.hi) for c in tail])
        assert len(got) == len(tail)
        for a, b in zip(got, acc):
            assert refarith.bits(a) == refarith.bits(b)


def _column_series(rng: random.Random, rows: int, order: int) -> MatrixSeries:
    """A one-column series with zero, infinite and wide entries."""
    entries = [Interval(-0.0, 0.0), Interval(0.0, -0.0 + 1e-300),
               Interval(-math.inf, 1.0), Interval(-2.0, math.inf),
               Interval(-math.inf, math.inf), Interval(-1e308, 1e308)]
    mats = []
    for _ in range(order + 1):
        col = []
        for _ in range(rows):
            if rng.random() < 0.2:
                col.append([rng.choice(entries)])
            else:
                c = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 5)
                w = abs(c) * rng.choice([0.0, 1e-12, 1.0, 3.0])
                col.append([Interval(c - w, c + w)])
        mats.append(IMatrix(col))
    return matrix_series(mats)


def test_column_term_matches_interval_products():
    # [TRIVIAL] the tube column's term at order k is column 0 of V_k times
    # [h^k], on float pairs; the Interval chain Interval(1.0) * h * ... * h
    # and the four-corner Interval product are the reference, bit for bit,
    # on 4- and 5-row columns, at step sizes whose powers underflow
    rng = random.Random(17)
    order = 21
    for rows in (4, 5):
        for h in (0.12, 0.0423, 1e-9, 1e-20, 3.5):
            v = _column_series(rng, rows, order)
            hpl, hph = flow._powers(h, order)
            hp = [Interval(1.0)]
            for _ in range(order):
                hp.append(hp[-1] * h)
            assert [refarith.bits(x) for x in hp] == [
                (repr(a), repr(b)) for a, b in zip(hpl, hph)
            ]
            for k in range(order + 1):
                got = flow._column_term(v, k, hpl, hph)
                ref = [refarith.mul(row[0], hp[k])
                       for row in matrix_coefficient(v, k).rows]
                assert [tuple(map(repr, t)) for t in got] == [
                    refarith.bits(x) for x in ref
                ]


def _interval_column(field, enc, h: float, order: int) -> tuple:
    """The order q and the tail of a step by the Interval-object stop rule:
    each order's column as an IMatrix, its term an IVector of Interval
    products with [h^k], stopped when the term's magnitude is at most
    sol_err."""
    n = enc.dim
    x0 = enc.as_box()
    tube = flow.a_priori_enclosure(field, x0, h)
    ser_z = field.expand(tube, order + 1)
    sol_tail = series_coefficient(ser_z, order + 1)
    sol_err = max(c.mag for c in sol_tail) * h ** (order + 1)
    u = [x0[i] - enc.midpoint[i] for i in range(n)]
    b = exp(Interval(flow._opnorm_inf(field.jacobian(tube))) * h) - 1.0
    r = (b * max(c.mag for c in u)).hi
    hp = [Interval(1.0)]
    for _ in range(order + 1):
        hp.append(hp[-1] * h)

    def term(k, v_k):
        return IVector([refarith.mul(row[0], hp[k]) for row in v_k.rows])

    v_z = field.expand_variational(
        ser_z, IMatrix([[c + Interval(-r, r)] for c in u]), order + 1,
        stop=lambda k, v: max(
            c.mag for c in term(k, matrix_coefficient(v, k))) <= sol_err,
    )
    q = v_z.order - 1
    return q, term(q + 1, matrix_coefficient(v_z, q + 1))


@pytest.mark.parametrize("dim", [4, 5])
def test_step_stop_order_and_tail_match_interval_rule(dim):
    # [TRIVIAL] the step's transport order q and tail vector equal those
    # of the Interval-object stop rule, bit for bit, over boxes from 1e-12
    # to 1e-3 wide, where q runs from a few orders up to p
    field = rtbp_field()
    rng = random.Random(3015)
    order = 20
    qs = set()
    for r in (1e-12, 1e-9, 1e-6, 1e-4, 1e-3):
        enc = enclosure_from_box(_rtbp_box(rng, dim, r))
        h = rng.choice([0.02, 0.05, 0.12])
        data = flow._expand_step(field, enc, h, order)
        q, tail = _interval_column(field, enc, h, order)
        qs.add(q)
        assert data.order == q
        assert [refarith.bits(x) for x in data.tail] == [
            refarith.bits(x) for x in tail
        ]
    assert len(qs) >= 3


# (A, closed-form e^(At)) pairs for the low-order step tests
LINEAR_FLOWS = pytest.mark.parametrize(
    "a, flow_at",
    [
        # e^(At) = [[cos 2t, sin(2t) / 2], [-2 sin 2t, cos 2t]]
        (
            [[0.0, 1.0], [-4.0, 0.0]],
            lambda mp, t: [
                [mp.cos(2 * t), mp.sin(2 * t) / 2],
                [-2 * mp.sin(2 * t), mp.cos(2 * t)],
            ],
        ),
        # e^(At) = [[e^t, sinh t], [0, e^-t]]
        (
            [[1.0, 1.0], [0.0, -1.0]],
            lambda mp, t: [[mp.exp(t), mp.sinh(t)], [0, mp.exp(-t)]],
        ),
    ],
    ids=["rotation", "shear_saddle"],
)


@LINEAR_FLOWS
def test_low_order_tail_encloses_variational_remainder(a, flow_at):
    # At order 4 the Lagrange term of D(phi_h) is a visible part of the
    # step.  For v in x0 - m, (e^(Ah) - sum_{k <= p} (Ah)^k / k!) v lies in
    # the step's tail vector, and e^(Ah) x lies in the assembled
    # enclosure for x in the box.  [DERIVED] closed-form e^(At) in mpmath
    mp = pytest.importorskip("mpmath")
    order, h, r = 4, 0.3, 0.1
    centre = [0.3, -0.7]
    box = IVector([Interval(c - r, c + r) for c in centre])
    enc = enclosure_from_box(box)
    data = flow._expand_step(LinearTaylorField(IMatrix.from_floats(a)), enc,
                             h, order)
    end = flow._assemble(enc, data, h).as_box()

    rng = random.Random(1401)
    corners = [
        [c + s * r for c, s in zip(centre, signs)]
        for signs in itertools.product((-1.0, 1.0), repeat=2)
    ]
    samples = corners + [
        [c + rng.uniform(-r, r) for c in centre] for _ in range(200)
    ]
    with mp.workdps(40):
        ah = mp.matrix(a) * mp.mpf(h)
        poly, term = mp.eye(2), mp.eye(2)
        for k in range(1, order + 1):
            term = term * ah / k
            poly = poly + term
        exact = mp.matrix(flow_at(mp, mp.mpf(h)))
        rest = exact - poly
        worst = 0
        for x in samples:
            v = mp.matrix([mp.mpf(xi) - mp.mpf(mi)
                           for xi, mi in zip(x, enc.midpoint)])
            rem = rest * v
            img = exact * mp.matrix(x)
            for i in range(2):
                assert data.tail[i].lo <= rem[i] <= data.tail[i].hi
                assert end[i].lo <= img[i] <= end[i].hi
                worst = max(worst, abs(rem[i]))
    # the remainder is far above rounding, so the check has teeth
    assert worst > 1e-6
    assert data.var_err >= worst


@LINEAR_FLOWS
def test_assemble_needs_the_tail_under_a_thin_image(a, flow_at):
    # The step's image of the midpoint carries the solution Lagrange term
    # over the whole tube, which at these sizes also covers the
    # variational remainder.  With that image replaced by a thin
    # enclosure of e^(Ah) m, only the tail vector can account for
    # (e^(Ah) - sum_{k <= p} (Ah)^k / k!) (x - m): the assembled set, at
    # each corner's initial coordinate, must still contain e^(Ah) x.
    # [DERIVED] closed-form e^(At) in mpmath
    mp = pytest.importorskip("mpmath")
    order, h, r = 4, 0.3, 0.1
    centre = [0.3, -0.7]
    enc = enclosure_from_box(IVector([Interval(c - r, c + r) for c in centre]))
    data = flow._expand_step(LinearTaylorField(IMatrix.from_floats(a)), enc,
                             h, order)
    with mp.workdps(40):
        exact = mp.matrix(flow_at(mp, mp.mpf(h)))
        m_img = exact * mp.matrix(enc.midpoint)
        thin = IVector([
            Interval(math.nextafter(float(v), -math.inf),
                     math.nextafter(float(v), math.inf))
            for v in m_img
        ])
        assert all(float(v) in c for v, c in zip(m_img, data.image))
        end = flow._assemble(
            enc,
            flow._StepData(thin, data.transport, data.tail, data.tube,
                           data.sol_err, data.var_err, data.order),
            h,
        )
        missed = 0
        for signs in itertools.product((-1.0, 1.0), repeat=2):
            r0 = [s * r for s in signs]
            at_corner = FlowEnclosure(
                end.midpoint, end.basis, end.remainder, end.time,
                end.init_basis, IVector.from_floats(r0),
            ).as_box()
            img = exact * mp.matrix([c + d for c, d in zip(centre, r0)])
            # without the tail the set would stand at thin + transport r0
            bare = thin + _imatrix(*data.transport).matvec(
                IVector.from_floats(r0))
            for i in range(2):
                assert at_corner[i].lo <= img[i] <= at_corner[i].hi
                missed += not bare[i].lo <= img[i] <= bare[i].hi
    # the tail is what holds the corners: without it every one falls out
    assert missed == 8


def test_low_order_step_contains_rtbp_shootings():
    # At order 4 and h = 0.1 the tail vector outweighs the solution
    # Lagrange term; shootings from the corners of the box land in the
    # assembled enclosure.  [DERIVED] scipy RK45 at rtol 1e-12
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field = rtbp_field()
    mu = field.params.mu.mid
    order, h, r = 4, 0.1, 1e-2
    centre = [-0.8, 0.1, 0.05, -0.7]
    enc = enclosure_from_box(IVector([Interval(c - r, c + r) for c in centre]))
    data = flow._expand_step(field, enc, h, order)
    assert data.var_err > data.sol_err
    end = flow._assemble(enc, data, h).as_box()
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        pt = [c + s * r for c, s in zip(centre, signs)]
        sol = scipy_integrate.solve_ivp(
            lambda t, y: vector_field_floats(y, mu),
            (0.0, h),
            pt,
            rtol=1e-12,
            atol=1e-14,
        )
        final = sol.y[:, -1]
        for i in range(4):
            assert end[i].lo <= final[i] <= end[i].hi


@LINEAR_FLOWS
def test_tail_at_the_stop_order_encloses_the_remainder(a, flow_at):
    # On a box of half-width 1e-4 the tube column's term falls below
    # sol_err before order p+1, so the step stops at a q < p.  For v in
    # x0 - m, (e^(Ah) - sum_{k <= q} (Ah)^k / k!) v must then lie in the
    # tail: a tail of order p+1 would miss it.  [DERIVED] closed-form
    # e^(At) in mpmath
    mp = pytest.importorskip("mpmath")
    order, h, r = 10, 0.3, 1e-4
    centre = [0.3, -0.7]
    enc = enclosure_from_box(IVector([Interval(c - r, c + r) for c in centre]))
    data = flow._expand_step(LinearTaylorField(IMatrix.from_floats(a)), enc,
                             h, order)
    q = data.order
    assert q < order
    assert data.var_err <= data.sol_err
    rng = random.Random(3015)
    samples = [
        [c + s * r for c, s in zip(centre, signs)]
        for signs in itertools.product((-1.0, 1.0), repeat=2)
    ] + [[c + rng.uniform(-r, r) for c in centre] for _ in range(50)]
    with mp.workdps(40):
        ah = mp.matrix(a) * mp.mpf(h)
        exact = mp.matrix(flow_at(mp, mp.mpf(h)))
        poly, term = mp.eye(2), mp.eye(2)
        rests = {0: exact - poly}
        for k in range(1, order + 1):
            term = term * ah / k
            poly = poly + term
            rests[k] = exact - poly
        worst = worst_p = 0
        for x in samples:
            v = mp.matrix([mp.mpf(xi) - mp.mpf(mi)
                           for xi, mi in zip(x, enc.midpoint)])
            rem = rests[q] * v
            for i in range(2):
                assert data.tail[i].lo <= rem[i] <= data.tail[i].hi
                worst = max(worst, abs(rem[i]))
                worst_p = max(worst_p, abs((rests[order] * v)[i]))
    # the order-q remainder dwarfs the order-p one, so the tail's order
    # decides the check
    assert worst > 100 * worst_p


def _shoot(x, h, mu):
    integrate = pytest.importorskip("scipy.integrate")
    return integrate.solve_ivp(
        lambda t, y: vector_field_floats(y, mu), (0.0, h), x,
        method="DOP853", rtol=1e-13, atol=1e-15,
    ).y[:, -1]


def test_stopped_step_contains_rtbp_shootings():
    # At the proof's order p = 20, on a box of half-width 1e-8 and
    # h = 0.1, the tube column stops at q = 3.  Shootings from the box
    # corners land in the assembled enclosure at each corner's initial
    # coordinate.  The image of the midpoint carries sol_err, which would
    # hide a tail taken at the wrong order, so the mean-value form is
    # also checked alone: each corner's shooting less the midpoint's lies
    # in transport (x - m) + tail, up to 1e-12 for the shootings' error,
    # and without the tail some fall out.  [DERIVED] scipy DOP853 at
    # rtol 1e-13
    field = rtbp_field()
    mu = field.params.mu.mid
    order, h, r = 20, 0.1, 1e-8
    centre = [-0.8, 0.1, 0.05, -0.7]
    enc = enclosure_from_box(IVector([Interval(c - r, c + r) for c in centre]))
    data = flow._expand_step(field, enc, h, order)
    assert data.order == 3
    end = flow._assemble(enc, data, h)
    at_m = _shoot(enc.midpoint, h, mu)
    slack = 1e-12
    missed = 0
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        x = [c + s * r for c, s in zip(centre, signs)]
        # the corner's initial coordinate x - m, exact by Sterbenz
        d = IVector.from_floats([xi - m for xi, m in zip(x, enc.midpoint)])
        final = _shoot(x, h, mu)
        at_corner = FlowEnclosure(
            end.midpoint, end.basis, end.remainder, end.time,
            end.init_basis, d,
        ).as_box()
        lin = _imatrix(*data.transport).matvec(d)
        for i in range(4):
            assert at_corner[i].lo <= final[i] <= at_corner[i].hi
            diff = final[i] - at_m[i]
            form = lin[i] + data.tail[i]
            assert form.lo - slack <= diff <= form.hi + slack
            missed += not lin[i].lo - slack <= diff <= lin[i].hi + slack
    assert missed > 0


def test_step_rejects_bad_h():
    with pytest.raises(ValueError):
        integrate_to_time(
            harmonic(), enclosure_from_box(IVector.from_floats([1.0, 0.0])),
            -0.1,
        )
    with pytest.raises(ValueError):
        integrate_to_time(
            harmonic(), enclosure_from_box(IVector.from_floats([1.0, 0.0])),
            1.0, tol=0.0,
        )


def test_containment_regression_rtbp():
    # Spec invariant: tightly integrated float points from inside the box
    # stay inside the validated enclosure at the matched time.  [DERIVED]
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field = rtbp_field()
    mu = field.params.mu.mid
    r = 1e-9
    center = [-0.8, 0.1, 0.05, -0.7]
    box = IVector([Interval(c - r, c + r) for c in center])
    e1 = integrate_to_time(
        field, enclosure_from_box(box), 0.5, order=20, tol=1e-15
    )
    target = e1.as_box()
    rng = random.Random(3)
    for _ in range(20):
        pt = [c + rng.uniform(-r, r) for c in center]
        sol = scipy_integrate.solve_ivp(
            lambda t, y: vector_field_floats(y, mu),
            (0.0, 0.5),
            pt,
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        final = sol.y[:, -1]
        for i in range(4):
            assert target[i].lo <= final[i] <= target[i].hi


def test_energy_conserved_along_enclosure():
    # Jacobi integral enclosures at every step intersect the initial one.
    # [DERIVED: conservation oracle]
    field = rtbp_field()
    p = field.params
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    c0 = jacobi_constant(x0, p)
    seen = []

    def obs(enc, tube):
        seen.append(jacobi_constant(enc.as_box(), p))

    integrate_to_time(
        field, enclosure_from_box(x0), 1.0, order=20, tol=1e-14,
        observer=obs,
    )
    assert len(seen) >= 10
    for c in seen:
        assert c.intersect(c0) is not None


def test_step_factor_rule():
    # [TRIVIAL] h * 0.7 r^(-1/(p+1)), at most 2 after an acceptance and in
    # [0.25, 0.9] after a rejection; a NaN ratio must shrink, never loop
    assert flow._step_factor(0.0, 20) == 2.0
    assert flow._step_factor(1e-30, 20) == 2.0
    assert flow._step_factor(1.0, 20) == 0.7
    assert flow._step_factor(2.0, 20) == 0.7 * 2.0 ** (-1.0 / 21)
    for r in (1e10, math.inf, math.nan):
        assert flow._step_factor(r, 20) == 0.25


def test_halving_recovers_from_large_h():
    # Spec invariant: step-size halving eventually succeeds away from the
    # primaries even when the initial step is hopeless.
    field = rtbp_field()
    e0 = enclosure_from_box(IVector.from_floats([-0.8, 0.1, 0.05, -0.7]))
    e1 = integrate_to_time(
        field, e0, 0.1, order=20, tol=1e-14, h_init=64.0, h_max=64.0
    )
    assert 0.1 in e1.time


# -- Poincare crossings -------------------------------------------------------------


def test_crossing_quarter_circle():
    # Rotation from (1,0) to {x=0}: image (0,-1), time pi/2.  [TRIVIAL]
    e0 = enclosure_from_box(IVector.from_floats([1.0, 0.0]))
    cr = poincare_crossing(harmonic(), e0, Section(0, 0.0, -1), order=15)
    b = cr.as_box()
    assert 0.0 in b[0] and b[0].width < 1e-300
    assert -1.0 in b[1] and b[1].width < 1e-9
    assert math.pi / 2 in cr.time and cr.time.width < 1e-9


def test_crossing_saddle_logarithmic_time():
    # x' = x, y' = -y from (eps, 1) to {y = eps}: time ln(1/eps), image
    # x = eps e^{t} = 1.  [DERIVED]
    eps = 0.01
    f = LinearTaylorField(IMatrix.from_floats([[1.0, 0.0], [0.0, -1.0]]))
    e0 = enclosure_from_box(IVector.from_floats([eps, 1.0]))
    cr = poincare_crossing(f, e0, Section(1, eps, -1), order=15, max_time=20.0)
    assert math.log(1.0 / eps) in cr.time
    assert cr.time.width < 1e-8
    b = cr.as_box()
    assert 1.0 in b[0] and b[0].width < 1e-8
    # exact on-section representation; as_box pads one ulp outward
    assert cr.midpoint[1] == eps and cr.remainder[1].width == 0.0
    assert eps in b[1] and b[1].width < 1e-16


def test_crossing_time_width_shrinks_under_subdivision():
    # Spec invariant: crossing time width is monotone under initial-set
    # subdivision.
    r = 1e-3
    full = IVector([Interval(1.0 - r, 1.0 + r), Interval(-r, r)])
    half = IVector([Interval(1.0 - r / 2, 1.0 + r / 2), Interval(-r / 2, r / 2)])
    sec = Section(0, 0.0, -1)
    t_full = poincare_crossing(
        harmonic(), enclosure_from_box(full), sec, order=15
    ).time
    t_half = poincare_crossing(
        harmonic(), enclosure_from_box(half), sec, order=15
    ).time
    assert t_half.width < t_full.width


def test_crossing_rtbp_hits_section():
    # Transport a small box near the periodic region down to {Y = 0} and
    # confirm the crossing is certified and on-section.
    field = rtbp_field()
    x0 = IVector.from_floats([-0.45, 0.05, 0.05, -0.55])
    f0 = field.vector_field(x0)
    assert f0[1].hi < 0.0  # heading toward Y = 0 already
    e0 = enclosure_from_box(x0)
    cr = poincare_crossing(
        field, e0, Section(1, 0.0, -1), order=18, tol=1e-14, max_time=5.0
    )
    b = cr.as_box()
    assert cr.midpoint[1] == 0.0 and cr.remainder[1].width == 0.0
    assert 0.0 in b[1] and b[1].width < 1e-300
    assert cr.time.lo > 0.0


def test_crossing_validation_errors():
    sec_bad = Section(0, 0.0, 1)  # wrong required sign for this start
    e0 = enclosure_from_box(IVector.from_floats([1.0, 0.0]))
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), e0, sec_bad, order=10)
    on_section = enclosure_from_box(IVector.from_floats([0.0, 1.0]))
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), on_section, Section(0, 0.0, -1), order=10)
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), e0, Section(0, 0.0, -1), tol=0.0)
    with pytest.raises(ValueError):
        Section(0, 0.0, 2)


def test_crossing_budget_exhaustion():
    # Circling forever above the section: no crossing within max_time.
    f = harmonic()
    e0 = enclosure_from_box(IVector.from_floats([0.0, 0.5]))
    # orbit radius 0.5 never reaches x = 2
    with pytest.raises(LostCrossing):
        poincare_crossing(f, e0, Section(0, 2.0, 1), order=10, max_time=3.0)


def test_crossing_tangency_is_refused():
    # Parabolic apex exactly on the section: grazing cannot be certified.
    f = parabola()
    # x(t) = -1 + t - t^2/2 has apex -0.5 at t=1
    e0 = enclosure_from_box(IVector.from_floats([-1.0, 1.0, 1.0]))
    with pytest.raises((LostCrossing, TransversalityFailure)):
        poincare_crossing(
            f, e0, Section(0, -0.5, 1), order=10, max_time=3.0, h_min=1e-6
        )


def test_crossing_near_tangency_resolution():
    # Just below the apex the crossing is steep enough to resolve at h_min;
    # closer than the step resolution it must be refused, never
    # mis-certified.
    f = parabola()
    e0 = enclosure_from_box(IVector.from_floats([-1.0, 1.0, 1.0]))
    off = 1e-12
    cr = poincare_crossing(
        f, e0, Section(0, -0.5 - off, 1), order=10, max_time=3.0, h_min=1e-6
    )
    assert 1.0 - math.sqrt(2.0 * off) in cr.time
    e1 = enclosure_from_box(IVector.from_floats([-1.0, 1.0, 1.0]))
    with pytest.raises((TransversalityFailure, LostCrossing)):
        poincare_crossing(
            f,
            e1,
            Section(0, -0.5 - 1e-16, 1),
            order=10,
            max_time=3.0,
            h_min=1e-6,
        )


def test_crossing_past_apex_succeeds():
    # Well below the apex the same field crosses transversally.
    f = parabola()
    e0 = enclosure_from_box(IVector.from_floats([-1.0, 1.0, 1.0]))
    cr = poincare_crossing(f, e0, Section(0, -0.9, 1), order=10, max_time=3.0)
    # x(t) = -0.9 at t = 1 - sqrt(0.8): first root of the parabola
    t_exact = 1.0 - math.sqrt(0.8)
    assert t_exact in cr.time
    assert cr.time.width < 1e-10


def _harmonic_box_crossing(r, h_max, observer=None):
    box = IVector([Interval(1.0 - r, 1.0 + r), Interval(-r, r)])
    return poincare_crossing(
        harmonic(), enclosure_from_box(box), Section(0, 0.0, -1),
        order=15, h_max=h_max, observer=observer,
    )


@pytest.mark.parametrize("r", [1e-6, 1e-3])
def test_thin_set_crosses_at_first_contact(monkeypatch, r):
    # A set that passes the section within one step: the first step whose
    # tube meets the section lands wholly past it, and the crossing step
    # follows; no other step is tried.  [TRIVIAL] rotation: the centre
    # crosses at time pi/2
    calls = []
    expand = flow._expand_step

    def counted(*args, **kwargs):
        calls.append(args[2])
        return expand(*args, **kwargs)

    monkeypatch.setattr(flow, "_expand_step", counted)
    accepted = []
    cr = _harmonic_box_crossing(
        r, 0.05, lambda enc, tube: accepted.append(enc)
    )
    assert math.pi / 2 in cr.time
    assert len(calls) - len(accepted) == 2


@pytest.mark.parametrize("r", [0.2, 0.3])
def test_crossing_unresolved_straddle_is_bounded(r):
    # A set wider than a step's travel straddles the section at every
    # contact step; halving never lands it wholly past the section, so the
    # flight ends in LostCrossing once a halved step falls below h_min,
    # never in a certified crossing.
    with pytest.raises(LostCrossing):
        _harmonic_box_crossing(r, 0.05)


def _flight_q_factors(monkeypatch) -> list:
    qs = []
    inverse = flow._orthogonal_inverse

    def recorded(q):
        qs.append(q)
        return inverse(q)

    monkeypatch.setattr(flow, "_orthogonal_inverse", recorded)
    centre = (-0.8, 0.1, 0.05, -0.7)
    box = IVector([Interval(c - 1e-9, c + 1e-9) for c in centre])
    integrate_to_time(
        rtbp_field(), enclosure_from_box(box), 0.5, tol=1e-15
    )
    return qs


def test_orthogonal_inverse_encloses_q_inverse(monkeypatch):
    # [DERIVED] Q [Q^-1] contains I, and every entry meets the Krawczyk
    # enclosure of the inverse at a width of a few ulps; the enclosure
    # equals the Interval-object one
    rng = np.random.default_rng(1401)
    qs = [
        np.linalg.qr(rng.standard_normal((4, 4)))[0].tolist()
        for _ in range(20)
    ]
    qs += _flight_q_factors(monkeypatch)
    assert len(qs) > 25
    for q in qs:
        inv = _imatrix(*flow._orthogonal_inverse(q))
        assert [list(map(refarith.bits, row)) for row in inv.rows] == [
            list(map(refarith.bits, row))
            for row in _interval_orthogonal_inverse(q).rows
        ]
        ident = IMatrix.from_floats(q).matmul(inv)
        ref = verified_inverse(IMatrix.from_floats(q))
        for i in range(4):
            for j in range(4):
                assert (1.0 if i == j else 0.0) in ident.rows[i][j]
                assert inv.rows[i][j].intersect(ref.rows[i][j]) is not None
                assert inv.rows[i][j].width <= 1e-14


def _interval_orthogonal_inverse(q: list) -> IMatrix:
    """The Q^-1 enclosure of the Lohner update in Interval objects: Q^T
    plus the ball ||E|| / (1 - ||E||) ||Q^T||, E = I - Q^T Q."""
    n = len(q)
    qt = IMatrix.from_floats([[q[j][i] for j in range(n)] for i in range(n)])
    e_norm = mat_opnorm_upper(IMatrix.identity(n) - refarith.mul_floats(qt, q))
    if not e_norm < 0.5:
        raise EnclosureFailure("QR factor not orthogonal")
    en = Interval(e_norm)
    r = (en / (1.0 - en) * mat_opnorm_upper(qt)).hi
    return IMatrix([[x + Interval(-r, r) for x in row] for row in qt.rows])


def _interval_assemble(enc, data, h):
    """The Lohner update in Interval objects: IMatrix splits and
    products, four-corner idot sums."""
    n = enc.dim
    m_new = [c.mid for c in data.image]
    defect = IVector([data.image[i] - m_new[i] for i in range(n)])
    transport = _imatrix(*data.transport)
    tc_full = refarith.mul_floats(transport, enc.init_basis)
    c_new = tc_full.mid()
    c_delta = tc_full - IMatrix.from_floats(c_new)
    tb_full = refarith.mul_floats(transport, enc.basis)
    m_mid = tb_full.mid()
    m_delta = tb_full - IMatrix.from_floats(m_mid)
    err = (defect + refarith.matvec(c_delta, enc.init_remainder)
           + refarith.matvec(m_delta, enc.remainder) + data.tail)
    rads = [0.5 * r.width for r in enc.remainder]
    weights = [
        -sum(m_mid[i][j] ** 2 for i in range(n)) ** 0.5 * max(rads[j], 1e-300)
        for j in range(n)
    ]
    perm = sorted(range(n), key=lambda j: weights[j])
    q_np, _ = np.linalg.qr(
        np.array([[m_mid[i][perm[j]] for j in range(n)] for i in range(n)])
    )
    q = [[float(q_np[i][j]) for j in range(n)] for i in range(n)]
    q_inv = _interval_orthogonal_inverse(q)
    rem = (refarith.matvec(refarith.mul_floats(q_inv, m_mid), enc.remainder)
           + refarith.matvec(q_inv, err))
    return flow.FlowEnclosure(
        m_new, q, rem, enc.time + h, c_new, enc.init_remainder
    )


def _enclosure_bits(enc) -> tuple:
    return (
        [repr(x) for x in enc.midpoint],
        [[repr(x) for x in row] for row in enc.basis + enc.init_basis],
        [refarith.bits(x) for x in list(enc.remainder) + list(enc.init_remainder)],
        refarith.bits(enc.time),
    )


def _random_lohner_case(rng: random.Random, n: int) -> tuple:
    """A doubleton and step data near a flight's: a transport close to a
    rotation, bases of mixed scale, image, remainders and tail of mixed
    widths, with zero entries of both signs and, now and then, an
    infinite endpoint (the transport stays finite: the Interval-object
    update has no result for an infinite transported midpoint)."""
    def floats(k, scale):
        return [rng.choice([0.0, -0.0]) if rng.random() < 0.1
                else rng.uniform(-1.0, 1.0) * scale for _ in range(k)]

    def box(k, scale):
        out = []
        for c in floats(k, scale):
            w = abs(c) * rng.choice([0.0, 1e-9, 0.5]) + rng.choice([0.0, 1e-12])
            out.append(Interval(c - w, c + w))
        if rng.random() < 0.1:
            out[rng.randrange(k)] = rng.choice(
                [Interval(-math.inf, 0.0), Interval(-1.0, math.inf)]
            )
        return IVector(out)

    rot = np.linalg.qr(np.array([floats(n, 1.0) for _ in range(n)]) + np.eye(n))[0]
    transport = IMatrix([
        [Interval(x - abs(w), x + abs(w)) for x, w in zip(row, floats(n, 1e-10))]
        for row in (rot + 0.01 * np.array([floats(n, 1.0) for _ in range(n)])).tolist()
    ])
    enc = FlowEnclosure(
        floats(n, 1.0), [floats(n, 1.0) for _ in range(n)], box(n, 1e-12),
        Interval(0.25, 0.25 + 1e-15), [floats(n, 1e-6) for _ in range(n)],
        box(n, 1.0),
    )
    data = flow._StepData(box(n, 1.0), _ends(transport), box(n, 1e-15), None,
                          0.0, 0.0, 0)
    return enc, data


@pytest.mark.parametrize("n", [4, 5])
def test_lohner_update_matches_interval_objects(n):
    # [TRIVIAL] the float-pair Lohner update (splits, products, the Q^-1
    # enclosure and the remainder) against the Interval-object update kept
    # above, bit for bit: on random doubletons of both shapes and on the
    # steps of an rtbp flight
    rng = random.Random(1402)
    cases = [_random_lohner_case(rng, n) for _ in range(150)]
    field = rtbp_field()
    enc = enclosure_from_box(_rtbp_box(rng, n, 1e-9))
    for h in (0.02, 0.05, 0.12, 0.08):
        data = flow._expand_step(field, enc, h, 20)
        cases.append((enc, data))
        enc = flow._assemble(enc, data, h)
    for enc, data in cases:
        assert _enclosure_bits(flow._assemble(enc, data, 0.01)) == (
            _enclosure_bits(_interval_assemble(enc, data, 0.01))
        )


def test_orthogonal_inverse_rejects_non_orthogonal():
    for q in ([[1.0, 0.6], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]):
        with pytest.raises(EnclosureFailure):
            flow._orthogonal_inverse(q)


# -- representation -------------------------------------------------------


def _signed_floats(rng: random.Random, n: int) -> list:
    """Floats of both signs and wide magnitudes, with zeros of both
    signs."""
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            out.append(rng.choice([0.0, -0.0]))
        else:
            out.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300))
    return out


def _interval_entries(rng: random.Random, n: int) -> list:
    """Intervals with zero, thin, wide, sign-straddling and infinite
    endpoints."""
    inf = math.inf
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            out.append(rng.choice([Interval(-inf, 1.0), Interval(-2.0, inf),
                                   Interval(-inf, inf), Interval(0.0, inf)]))
        elif kind < 0.2:
            out.append(Interval(rng.choice([0.0, -0.0]), rng.choice([0.0, 3.0])))
        else:
            lo, hi = sorted(_signed_floats(rng, 2))
            out.append(Interval(lo, hi))
    return out


def test_point_factor_product_matches_interval_matmul():
    # [TRIVIAL] the product of an interval matrix with a float one takes
    # the corners picked by each float's sign; IMatrix.matmul of the
    # floats as point intervals, and the four-corner idot of them, are
    # the references, bit for bit
    rng = random.Random(2005)
    for n, m in [(4, 4), (5, 5), (4, 8), (1, 3)]:
        for _ in range(30):
            a = IMatrix([_interval_entries(rng, m) for _ in range(n)])
            b = [_signed_floats(rng, 4) for _ in range(m)]
            got = _imatrix(*flow._mul_floats(*_ends(a), b))
            for ref in (a.matmul(IMatrix.from_floats(b)),
                        refarith.mul_floats(a, b)):
                for row, ref_row in zip(got.rows, ref.rows):
                    for x, y in zip(row, ref_row):
                        assert refarith.bits(x) == refarith.bits(y)


def test_as_box_matches_interval_dot():
    # [TRIVIAL] the hull of a doubleton is its midpoint plus the idot of
    # both bases, as point intervals, with both remainders, bit for bit
    rng = random.Random(1988)
    for _ in range(30):
        enc = FlowEnclosure(
            _signed_floats(rng, 4),
            [_signed_floats(rng, 4) for _ in range(4)],
            IVector(_interval_entries(rng, 4)),
            Interval(0.0),
            [_signed_floats(rng, 4) for _ in range(4)],
            IVector(_interval_entries(rng, 4)),
        )
        coords = list(enc.init_remainder) + list(enc.remainder)
        for i, x in enumerate(enc.as_box()):
            row = [Interval(f) for f in enc.init_basis[i] + enc.basis[i]]
            y = enc.midpoint[i] + idot(row, coords)
            assert (repr(x.lo), repr(x.hi)) == (repr(y.lo), repr(y.hi))


def test_flow_enclosure_round_trip():
    box = IVector([Interval(1.0, 1.5), Interval(-2.0, -1.0)])
    e = enclosure_from_box(box)
    back = e.as_box()
    assert box.is_subset_of(back)
    assert max(c.width for c in back) <= max(c.width for c in box) + 1e-14
    assert e.dim == 2
    assert 0.0 in e.time
