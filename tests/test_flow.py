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

from conecert import flow
from conecert.interval import (
    IMatrix,
    Interval,
    IVector,
    MatrixSeries,
    decimal_to_interval,
)
from conecert.flow import (
    EnclosureFailure,
    FlowEnclosure,
    LinearTaylorField,
    LostCrossing,
    Section,
    TransversalityFailure,
    a_priori_enclosure,
    integrate_to_time,
    poincare_crossing,
)
from conecert.linalg import verified_inverse
from conecert.rtbp import (
    RtbpParams,
    RtbpTaylorField,
    jacobi_constant,
    vector_field_floats,
)

MU = "0.0042538634220"


def rtbp_field() -> RtbpTaylorField:
    return RtbpTaylorField(RtbpParams(decimal_to_interval(MU)))


class AffineField:
    """x' = A x + b test double implementing the series protocol."""

    def __init__(self, a, b):
        self.a = IMatrix.from_floats(a)
        self.b = IVector.from_floats(b)
        self.dim = len(b)

    def vector_field(self, x) -> IVector:
        v = x if isinstance(x, IVector) else IVector.from_floats(list(x))
        return self.a.matvec(v) + self.b

    def jacobian(self, x) -> IMatrix:
        return self.a

    def expand(self, u0, order: int):
        coeffs = [u0 if isinstance(u0, IVector) else IVector.from_floats(u0)]
        for k in range(order):
            nxt = self.a.matvec(coeffs[k])
            if k == 0:
                nxt = nxt + self.b
            coeffs.append(nxt.scale(1.0 / (k + 1)))
        return _Series(coeffs)

    def expand_variational(self, sol, v0: IMatrix, order: int) -> MatrixSeries:
        out = [v0]
        for k in range(order):
            out.append(self.a.matmul(out[k]).scale(Interval(1.0 / (k + 1))))
        return MatrixSeries.from_matrices(out)


class _Series:
    def __init__(self, coeffs):
        self.coeffs = coeffs

    def coefficient(self, k):
        return self.coeffs[k]


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
    # x' = 1 from [0,0] over [0, 0.1] must cover [0, 0.1].  [TRIVIAL]
    f = AffineField([[0.0]], [1.0])
    z = a_priori_enclosure(f, IVector.from_floats([0.0]), 0.1)
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
    e0 = FlowEnclosure.from_box(IVector([Interval(1.0, 1.25), Interval(2.0)]))
    e1 = integrate_to_time(f, e0, 0.25, order=5)
    assert 0.25 in e1.time
    b0, b1 = e0.as_box(), e1.as_box()
    for a, b in zip(b0, b1):
        assert a.is_subset_of(b)
        assert b.width <= a.width + 1e-13  # [TRIVIAL]


def test_step_accumulates_e():
    # x' = x from 1 to t=1 in validated steps encloses e.  [DERIVED]
    f = LinearTaylorField(IMatrix.from_floats([[1.0]]))
    e0 = FlowEnclosure.from_box(IVector.from_floats([1.0]))
    e1 = integrate_to_time(f, e0, 1.0, order=15, tol=1e-16)
    assert math.e in e1.as_box()[0]
    assert e1.as_box()[0].width < 1e-10
    assert 1.0 in e1.time and e1.time.width < 1e-13


def test_step_harmonic_closed_form():
    e0 = FlowEnclosure.from_box(IVector.from_floats([1.0, 0.0]))
    e1 = integrate_to_time(harmonic(), e0, 2.0, order=15, tol=1e-15)
    b = e1.as_box()
    assert math.cos(2.0) in b[0]
    assert -math.sin(2.0) in b[1]
    assert b.max_width() < 1e-9  # [DERIVED]


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
        acc = v[order]
        for k in range(order - 1, -1, -1):
            acc = acc.scale(Interval(h)) + v[k]
        got = flow._horner_transport(v, order, h)
        for row, ref_row in zip(got.rows, acc.rows):
            for a, b in zip(row, ref_row):
                assert (repr(a.lo), repr(a.hi)) == (repr(b.lo), repr(b.hi))


@pytest.mark.parametrize(
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
def test_low_order_tail_encloses_variational_remainder(a, flow_at):
    # At order 4 the Lagrange term of D(phi_h) is a visible part of the
    # step.  For v in x0 - m, (e^(Ah) - sum_{k <= p} (Ah)^k / k!) v lies in
    # the step's tail vector, and e^(Ah) x lies in the assembled
    # enclosure for x in the box.  [DERIVED] closed-form e^(At) in mpmath
    mp = pytest.importorskip("mpmath")
    order, h, r = 4, 0.3, 0.1
    centre = [0.3, -0.7]
    box = IVector([Interval(c - r, c + r) for c in centre])
    enc = FlowEnclosure.from_box(box)
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


def test_low_order_step_contains_rtbp_shootings():
    # At order 4 and h = 0.1 the tail vector outweighs the solution
    # Lagrange term; shootings from the corners of the box land in the
    # assembled enclosure.  [DERIVED] scipy RK45 at rtol 1e-12
    scipy_integrate = pytest.importorskip("scipy.integrate")
    field = rtbp_field()
    mu = field.params.mu.mid
    order, h, r = 4, 0.1, 1e-2
    centre = [-0.8, 0.1, 0.05, -0.7]
    enc = FlowEnclosure.from_box(
        IVector([Interval(c - r, c + r) for c in centre])
    )
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


def test_step_rejects_bad_h():
    with pytest.raises(ValueError):
        integrate_to_time(
            harmonic(), FlowEnclosure.from_box(IVector.from_floats([1.0, 0.0])),
            -0.1,
        )
    with pytest.raises(ValueError):
        integrate_to_time(
            harmonic(), FlowEnclosure.from_box(IVector.from_floats([1.0, 0.0])),
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
        field, FlowEnclosure.from_box(box), 0.5, order=20, tol=1e-15
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
        field, FlowEnclosure.from_box(x0), 1.0, order=20, tol=1e-14,
        observer=obs,
    )
    assert len(seen) >= 10
    for c in seen:
        assert c.intersects(c0)


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
    e0 = FlowEnclosure.from_box(IVector.from_floats([-0.8, 0.1, 0.05, -0.7]))
    e1 = integrate_to_time(
        field, e0, 0.1, order=20, tol=1e-14, h_init=64.0, h_max=64.0
    )
    assert 0.1 in e1.time


# -- Poincare crossings -------------------------------------------------------------


def test_crossing_quarter_circle():
    # Rotation from (1,0) to {x=0}: image (0,-1), time pi/2.  [TRIVIAL]
    e0 = FlowEnclosure.from_box(IVector.from_floats([1.0, 0.0]))
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
    e0 = FlowEnclosure.from_box(IVector.from_floats([eps, 1.0]))
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
        harmonic(), FlowEnclosure.from_box(full), sec, order=15
    ).time
    t_half = poincare_crossing(
        harmonic(), FlowEnclosure.from_box(half), sec, order=15
    ).time
    assert t_half.width < t_full.width


def test_crossing_rtbp_hits_section():
    # Transport a small box near the periodic region down to {Y = 0} and
    # confirm the crossing is certified and on-section.
    field = rtbp_field()
    x0 = IVector.from_floats([-0.45, 0.05, 0.05, -0.55])
    f0 = field.vector_field(x0)
    assert f0[1].hi < 0.0  # heading toward Y = 0 already
    e0 = FlowEnclosure.from_box(x0)
    cr = poincare_crossing(
        field, e0, Section(1, 0.0, -1), order=18, tol=1e-14, max_time=5.0
    )
    b = cr.as_box()
    assert cr.midpoint[1] == 0.0 and cr.remainder[1].width == 0.0
    assert 0.0 in b[1] and b[1].width < 1e-300
    assert cr.time.lo > 0.0


def test_crossing_validation_errors():
    sec_bad = Section(0, 0.0, 1)  # wrong required sign for this start
    e0 = FlowEnclosure.from_box(IVector.from_floats([1.0, 0.0]))
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), e0, sec_bad, order=10)
    on_section = FlowEnclosure.from_box(IVector.from_floats([0.0, 1.0]))
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), on_section, Section(0, 0.0, -1), order=10)
    with pytest.raises(ValueError):
        poincare_crossing(harmonic(), e0, Section(0, 0.0, -1), tol=0.0)
    with pytest.raises(ValueError):
        Section(0, 0.0, 2)


def test_crossing_budget_exhaustion():
    # Circling forever above the section: no crossing within max_time.
    f = harmonic()
    e0 = FlowEnclosure.from_box(IVector.from_floats([0.0, 0.5]))
    # orbit radius 0.5 never reaches x = 2
    with pytest.raises(LostCrossing):
        poincare_crossing(f, e0, Section(0, 2.0, 1), order=10, max_time=3.0)


def test_crossing_tangency_is_refused():
    # Parabolic apex exactly on the section: grazing cannot be certified.
    f = AffineField([[0.0, 1.0], [0.0, 0.0]], [0.0, -1.0])
    # x(t) = -1 + t - t^2/2 has apex -0.5 at t=1
    e0 = FlowEnclosure.from_box(IVector.from_floats([-1.0, 1.0]))
    with pytest.raises((LostCrossing, TransversalityFailure)):
        poincare_crossing(
            f, e0, Section(0, -0.5, 1), order=10, max_time=3.0, h_min=1e-6
        )


def test_crossing_near_tangency_resolution():
    # Just below the apex the crossing is steep enough to resolve at h_min;
    # closer than the step resolution it must be refused, never
    # mis-certified.
    f = AffineField([[0.0, 1.0], [0.0, 0.0]], [0.0, -1.0])
    e0 = FlowEnclosure.from_box(IVector.from_floats([-1.0, 1.0]))
    off = 1e-12
    cr = poincare_crossing(
        f, e0, Section(0, -0.5 - off, 1), order=10, max_time=3.0, h_min=1e-6
    )
    assert 1.0 - math.sqrt(2.0 * off) in cr.time
    e1 = FlowEnclosure.from_box(IVector.from_floats([-1.0, 1.0]))
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
    f = AffineField([[0.0, 1.0], [0.0, 0.0]], [0.0, -1.0])
    e0 = FlowEnclosure.from_box(IVector.from_floats([-1.0, 1.0]))
    cr = poincare_crossing(f, e0, Section(0, -0.9, 1), order=10, max_time=3.0)
    # x(t) = -0.9 at t = 1 - sqrt(0.8): first root of the parabola
    t_exact = 1.0 - math.sqrt(0.8)
    assert t_exact in cr.time
    assert cr.time.width < 1e-10


def _harmonic_box_crossing(r, h_max, observer=None):
    box = IVector([Interval(1.0 - r, 1.0 + r), Interval(-r, r)])
    return poincare_crossing(
        harmonic(), FlowEnclosure.from_box(box), Section(0, 0.0, -1),
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
        rtbp_field(), FlowEnclosure.from_box(box), 0.5, tol=1e-15
    )
    return qs


def test_orthogonal_inverse_encloses_q_inverse(monkeypatch):
    # [DERIVED] Q [Q^-1] contains I, and every entry meets the Krawczyk
    # enclosure of the inverse at a width of a few ulps
    rng = np.random.default_rng(1401)
    qs = [
        np.linalg.qr(rng.standard_normal((4, 4)))[0].tolist()
        for _ in range(20)
    ]
    qs += _flight_q_factors(monkeypatch)
    assert len(qs) > 25
    for q in qs:
        inv = flow._orthogonal_inverse(q)
        ident = IMatrix.from_floats(q).matmul(inv)
        ref = verified_inverse(IMatrix.from_floats(q))
        for i in range(4):
            for j in range(4):
                assert (1.0 if i == j else 0.0) in ident.rows[i][j]
                assert inv.rows[i][j].intersects(ref.rows[i][j])
                assert inv.rows[i][j].width <= 1e-14


def test_orthogonal_inverse_rejects_non_orthogonal():
    for q in ([[1.0, 0.6], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]):
        with pytest.raises(EnclosureFailure):
            flow._orthogonal_inverse(q)


# -- representation -------------------------------------------------------


def test_flow_enclosure_round_trip():
    box = IVector([Interval(1.0, 1.5), Interval(-2.0, -1.0)])
    e = FlowEnclosure.from_box(box)
    back = e.as_box()
    assert box.is_subset_of(back)
    assert back.max_width() <= box.max_width() + 1e-14
    assert e.dim == 2
    assert 0.0 in e.time
