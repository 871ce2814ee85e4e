"""Three-body field, chart, and Taylor-recurrence tests.

Oracle notes:
  * [TRIVIAL]  structural identities (symmetry, energy duality, mass 1/2).
  * [DERIVED]  frozen from mpmath at 40 significant digits (findroot on the
               collinear equation, quadratic eigenvalue factor, Hamiltonian
               evaluation), or from central finite differences / an RK4
               reference integrator at step sizes stated inline.
  * [PAPER]    the printed enclosures for the eigenvalue pair at the left
               endpoint of the homoclinic mass band.
"""

from __future__ import annotations

import math
import random

import pytest

from conecert.interval import (
    IMatrix,
    Interval,
    IVector,
    decimal_to_interval,
)
from conecert.rtbp import (
    ChartError,
    CollisionSingularity,
    K_COEFFS,
    LocalChart,
    RtbpParams,
    RtbpTaylorField,
    State,
    d2psi,
    d_total_change,
    dpsi,
    hamiltonian,
    jacobi_constant,
    jacobian,
    jacobian_floats,
    jordan_basis,
    jordan_residual,
    libration_L1,
    local_field,
    local_jacobian,
    psi,
    symmetry_S,
    total_change,
    vector_field,
    vector_field_floats,
)

# Left endpoint of the homoclinic mass band and the matching chart data,
# frozen from mpmath (dps=40): findroot on the collinear equation, then
# gamma, c2, and the roots of w^2 + (2-c2) w + (1+c2-2c2^2).  [DERIVED]
MU_LEFT = "0.0042538634220"
XL1_ORACLE = -0.8876531872368585869437
LAM_ORACLE = 2.800385664432522249568
V_ORACLE = 2.251795439502187137089
# Hamiltonian at (-0.8, 0.1, 0.05, -0.7), mu = 0.004253863522.  [DERIVED]
H_ORACLE = -1.556740684334041774175


def band_left() -> RtbpParams:
    return RtbpParams(decimal_to_interval(MU_LEFT))


def rand_state(rng: random.Random, mu: float) -> State:
    """Random state bounded away from both primaries."""
    while True:
        x = rng.uniform(-1.6, 1.6)
        y = rng.uniform(-1.6, 1.6)
        r1 = math.hypot(x - mu, y)
        r2 = math.hypot(x - mu + 1.0, y)
        if r1 > 0.05 and r2 > 0.05:
            break
    return State.from_floats(x, y, rng.uniform(-2, 2), rng.uniform(-2, 2))


# -- parameters and basic field ------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        RtbpParams(Interval(0.0, 0.1))
    with pytest.raises(ValueError):
        RtbpParams(Interval(0.5, 1.0))
    RtbpParams(Interval(0.1, 0.2))  # wide but legal


def test_collision_raises():
    p = band_left()
    mu = p.mu.mid
    for loc in (mu, mu - 1.0):
        with pytest.raises(CollisionSingularity):
            vector_field(State.from_floats(loc, 0.0, 0.0, 0.0), p)


def test_hamiltonian_oracle():
    # mpmath 40-digit evaluation of the same closed form.  [DERIVED]
    p = RtbpParams(decimal_to_interval("0.004253863522"))
    h = hamiltonian(State.from_floats(-0.8, 0.1, 0.05, -0.7), p)
    assert H_ORACLE in h
    assert h.width < 1e-13


def test_hamiltonian_kepler_limit():
    # mu -> 0 at (1, 0, 0, 1): circular two-body orbit, H = 1/2 - 1 - 1 = -3/2
    # up to O(mu).  [TRIVIAL]
    p = RtbpParams(Interval(1e-12))
    h = hamiltonian(State.from_floats(1.0, 0.0, 0.0, 1.0), p)
    assert abs(h.mid + 1.5) < 1e-11


def test_energy_dual_route():
    # H through momenta and C through Omega and velocities both enclose the
    # exact values, and 2H + C = 0 exactly, so the interval sum must contain
    # zero at every state.  [TRIVIAL]
    p = band_left()
    rng = random.Random(20260819)
    for _ in range(1000):
        s = rand_state(rng, p.mu.mid)
        h = hamiltonian(s, p)
        c = jacobi_constant(s, p)
        total = h + c * 0.5
        assert 0.0 in total
        assert total.width < 1e-11


def test_field_float_twin_agreement():
    p = band_left()
    rng = random.Random(7)
    for _ in range(200):
        s = rand_state(rng, p.mu.mid)
        fi = vector_field(s, p)
        ff = vector_field_floats(
            (s.X.mid, s.Y.mid, s.P_X.mid, s.P_Y.mid), p.mu.mid
        )
        for a, b in zip(fi, ff):
            assert a.lo - 1e-12 <= b <= a.hi + 1e-12


def test_symmetry_involution_and_reversal():
    # S is an involution and conjugates the field to its negative:
    # S(F(S(x))) = -F(x) exactly.  [TRIVIAL]
    p = band_left()
    rng = random.Random(11)
    for _ in range(200):
        s = rand_state(rng, p.mu.mid)
        ss = symmetry_S(symmetry_S(s))
        assert (ss.X, ss.Y, ss.P_X, ss.P_Y) == (s.X, s.Y, s.P_X, s.P_Y)
        lhs = symmetry_S(vector_field(symmetry_S(s), p))
        rhs = -vector_field(s, p)
        for a, b in zip(lhs, rhs):
            assert 0.0 in (a - b)
    fixed = State.from_floats(0.3, 0.0, 0.0, 0.4)
    sf = symmetry_S(fixed)
    assert (sf.X, sf.Y, sf.P_X, sf.P_Y) == (
        fixed.X,
        fixed.Y,
        fixed.P_X,
        fixed.P_Y,
    )


def test_jacobian_vs_finite_differences():
    # Central differences at h=1e-6 on the float twin.  [DERIVED]
    p = band_left()
    mu = p.mu.mid
    rng = random.Random(23)
    for _ in range(25):
        s = rand_state(rng, mu)
        x0 = [s.X.mid, s.Y.mid, s.P_X.mid, s.P_Y.mid]
        jac = jacobian(s, p)
        h = 1e-6
        for j in range(4):
            xp = list(x0)
            xm = list(x0)
            xp[j] += h
            xm[j] -= h
            fp = vector_field_floats(xp, mu)
            fm = vector_field_floats(xm, mu)
            for i in range(4):
                fd = (fp[i] - fm[i]) / (2 * h)
                assert abs(jac.rows[i][j].mid - fd) < 5e-5 * max(
                    1.0, abs(fd)
                )


# -- libration point and linear chart -------------------------------------------


def test_l1_mpmath_oracle():
    l1 = libration_L1(band_left())
    assert XL1_ORACLE in l1[0]
    assert l1[0].width < 1e-12
    assert l1[1].lo == l1[1].hi == 0.0
    assert l1[2].lo == l1[2].hi == 0.0
    assert l1[3] == l1[0]  # P_Y = X at the equilibrium


def test_l1_equal_masses():
    # mu = 1/2 puts the interior point at the origin by symmetry.  [TRIVIAL]
    l1 = libration_L1(RtbpParams(Interval(0.5)))
    assert 0.0 in l1[0]
    assert abs(l1[0].mid) < 1e-14


def test_l1_small_mass_asymptotics():
    # gamma ~ (mu/3)^(1/3) to first order in the Hill expansion.  [DERIVED]
    p = RtbpParams(Interval(1e-6))
    l1 = libration_L1(p)
    gamma = (l1[0] + 1.0 - p.mu).mid
    hill = (1e-6 / 3.0) ** (1.0 / 3.0)
    assert abs(gamma - hill) < 0.05 * hill


def test_l1_is_equilibrium():
    p = band_left()
    f = vector_field(libration_L1(p), p)
    for c in f:
        assert 0.0 in c
        assert c.width < 1e-12


def test_eigenvalues_printed_and_oracle():
    ch = jordan_basis(band_left())
    # Printed enclosures at the band's left endpoint.  [PAPER]
    assert ch.lam.is_subset_of(Interval(2.80038, 2.80039))
    assert ch.v.is_subset_of(Interval(2.25179, 2.25180))
    # mpmath refinement of the same quantities.  [DERIVED]
    assert LAM_ORACLE in ch.lam
    assert V_ORACLE in ch.v
    assert ch.lam.width < 1e-12
    assert ch.v.width < 1e-12


def test_jordan_residual_encloses_zero():
    p = band_left()
    ch = jordan_basis(p)
    res = jordan_residual(ch, p)
    for i in range(4):
        for j in range(4):
            entry = res.rows[i][j]
            assert 0.0 in entry
            assert entry.width < 1e-9


def test_chart_json():
    ch = jordan_basis(band_left())
    data = ch.to_json()
    assert set(data) == {
        "mu",
        "L1",
        "C",
        "lambda",
        "v",
        "gamma",
        "c2",
        "s1",
        "s2",
        "K_coeffs",
    }
    assert data["lambda"] == [ch.lam.lo, ch.lam.hi]
    assert data["K_coeffs"][1] == list(K_COEFFS[1])
    assert len(data["C"]) == 4 and len(data["C"][0]) == 4


# -- nonlinear chart -------------------------------------------------------------


def _k_val_float(i: int, x: float) -> float:
    a2, a3 = K_COEFFS[i]
    return x * x * (a2 + a3 * x)


def test_psi_axis_identities():
    rng = random.Random(3)
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5)
        out = psi(IVector.from_floats([x, 0.0, 0.0, 0.0]))
        assert x in out[0] and out[0].width < 1e-15
        for i in (1, 2, 3):
            assert _k_val_float(i, x) in out[i]
        ys = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        out = psi(IVector.from_floats([0.0] + ys))
        # outward rounding keeps a subnormal-width pad around exact zeros
        assert 0.0 in out[0] and out[0].mag < 1e-300
        for i in (1, 2, 3):
            assert ys[i - 1] in out[i] and out[i].width < 1e-15


def test_psi_orthogonality():
    # psi(q) - K(x) is orthogonal to K'(x) by construction, exactly, so the
    # interval dot product must contain zero.  [TRIVIAL]
    from conecert.interval import idot
    from conecert.rtbp import _k_prime

    rng = random.Random(5)
    for _ in range(1000):
        q = IVector.from_floats([rng.uniform(-0.4, 0.4) for _ in range(4)])
        x = q[0]
        out = psi(q)
        diff = [
            out[0] - x,
            out[1] - _k_val_float(1, x.mid),
            out[2] - _k_val_float(2, x.mid),
            out[3] - _k_val_float(3, x.mid),
        ]
        kprime = [Interval(1.0), _k_prime(1, x), _k_prime(2, x), _k_prime(3, x)]
        dot = idot(diff, kprime)
        assert 0.0 in dot
        assert dot.width < 1e-13


def test_dpsi_vs_finite_differences():
    rng = random.Random(9)
    for _ in range(20):
        q0 = [rng.uniform(-0.3, 0.3) for _ in range(4)]
        d = dpsi(IVector.from_floats(q0))
        h = 1e-6
        for j in range(4):
            qp, qm = list(q0), list(q0)
            qp[j] += h
            qm[j] -= h
            fp = psi(IVector.from_floats(qp))
            fm = psi(IVector.from_floats(qm))
            for i in range(4):
                fd = (fp[i].mid - fm[i].mid) / (2 * h)
                assert abs(d.rows[i][j].mid - fd) < 1e-6


def test_d2psi_vs_finite_differences():
    q0 = [0.12, -0.07, 0.2, 0.05]
    hs = d2psi(IVector.from_floats(q0))
    h = 1e-4
    for comp in range(4):
        for a in range(4):
            for b in range(4):
                pts = []
                for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    q = list(q0)
                    q[a] += da * h
                    q[b] += db * h
                    pts.append(psi(IVector.from_floats(q))[comp].mid)
                fd = (pts[0] - pts[1] - pts[2] + pts[3]) / (4 * h * h)
                assert abs(hs[comp].rows[a][b].mid - fd) < 1e-5


def test_chart_fixes_origin():
    p = band_left()
    ch = jordan_basis(p)
    q0 = IVector.zeros(4)
    phi0 = total_change(q0, ch)
    for a, b in zip(phi0, ch.L1):
        assert (a - b).width < 1e-15 and 0.0 in (a - b)
    # dpsi(0) is the identity up to outward rounding, so DPhi(0) encloses C
    # and is at most a few ulps wider
    d = d_total_change(q0, ch)
    for i in range(4):
        for j in range(4):
            assert ch.C.rows[i][j].is_subset_of(d.rows[i][j])
            assert d.rows[i][j].width <= ch.C.rows[i][j].width + 5e-15


def test_local_field_vanishes_at_origin():
    p = band_left()
    ch = jordan_basis(p)
    fh = local_field(IVector.zeros(4), ch, p)
    for c in fh:
        assert 0.0 in c
        assert c.width < 1e-13


def test_local_jacobian_jordan_structure():
    p = band_left()
    ch = jordan_basis(p)
    d = local_jacobian(IVector.zeros(4), ch, p)
    assert ch.lam.intersects(d.rows[0][0])
    assert (-ch.lam).intersects(d.rows[1][1])
    assert ch.v.intersects(d.rows[2][3])
    assert (-ch.v).intersects(d.rows[3][2])
    pattern = {(0, 0), (1, 1), (2, 3), (3, 2)}
    for i in range(4):
        for j in range(4):
            if (i, j) not in pattern:
                assert 0.0 in d.rows[i][j]
                assert d.rows[i][j].width < 1e-10


def test_local_field_and_jacobian_finite_differences():
    # Chart-level finite differences at an off-origin point.  [DERIVED]
    p = band_left()
    ch = jordan_basis(p)
    q0 = [1e-3, 2e-3, -1e-3, 5e-4]
    d = local_jacobian(IVector.from_floats(q0), ch, p)
    h = 1e-6
    for j in range(4):
        qp, qm = list(q0), list(q0)
        qp[j] += h
        qm[j] -= h
        fp = local_field(IVector.from_floats(qp), ch, p)
        fm = local_field(IVector.from_floats(qm), ch, p)
        for i in range(4):
            fd = (fp[i].mid - fm[i].mid) / (2 * h)
            assert abs(d.rows[i][j].mid - fd) < 1e-5


# -- Taylor recurrences ----------------------------------------------------------


def _horner(series, order: int, h: float) -> IVector:
    acc = series.coefficient(order)
    for k in range(order - 1, -1, -1):
        acc = IVector([a * h + b for a, b in zip(acc, series.coefficient(k))])
    return acc


def _rk4(x, h, n, mu):
    x = list(x)
    for _ in range(n):
        k1 = vector_field_floats(x, mu)
        k2 = vector_field_floats(
            [x[i] + 0.5 * h * k1[i] for i in range(4)], mu
        )
        k3 = vector_field_floats(
            [x[i] + 0.5 * h * k2[i] for i in range(4)], mu
        )
        k4 = vector_field_floats([x[i] + h * k3[i] for i in range(4)], mu)
        x = [
            x[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(4)
        ]
    return x


def test_series_first_coefficients():
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 3)
    f = vector_field(x0, p)
    for i in range(4):
        assert abs(ser.u[i][1].mid - f[i].mid) < 1e-14
    # second coefficient is (DF F)/2 by the chain rule
    dff = jacobian(x0, p).matvec(f)
    for i in range(4):
        assert abs(ser.u[i][2].mid - 0.5 * dff[i].mid) < 1e-13


def test_series_vs_rk4():
    # RK4 at step 5e-4 as a float reference for the order-20 polynomial at
    # h=0.01.  [DERIVED]
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 20)
    val = _horner(ser, 20, 0.01)
    ref = _rk4([-0.8, 0.1, 0.05, -0.7], 5e-4, 20, p.mu.mid)
    for i in range(4):
        assert abs(val[i].mid - ref[i]) < 1e-11
    assert max(c.width for c in val) < 1e-14


def test_series_energy_drift():
    # The truncated polynomial at order 20 keeps H to near roundoff over one
    # short step.  [DERIVED]
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 20)
    h0 = hamiltonian(State.from_ivector(x0), p)
    h1 = hamiltonian(State.from_ivector(_horner(ser, 20, 0.01)), p)
    assert abs(h1.mid - h0.mid) < 1e-13


def test_series_reverse_round_trip():
    p = band_left()
    fwd = RtbpTaylorField(p)
    bwd = RtbpTaylorField(p, reverse=True)
    assert bwd.sign == -1.0
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    there = _horner(fwd.expand(x0, 22), 22, 0.01)
    back = _horner(
        bwd.expand(IVector.from_floats([c.mid for c in there]), 22), 22, 0.01
    )
    for i in range(4):
        assert abs(back[i].mid - x0[i].mid) < 1e-12


def test_reverse_field_negates():
    p = band_left()
    tf = RtbpTaylorField(p, reverse=True)
    s = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    fr = tf.vector_field(s)
    ff = vector_field(s, p)
    for a, b in zip(fr, ff):
        assert 0.0 in (a + b)
    jr = tf.jacobian(s)
    jf = jacobian(s, p)
    for i in range(4):
        for j in range(4):
            assert 0.0 in (jr.rows[i][j] + jf.rows[i][j])


def test_series_collision():
    p = band_left()
    tf = RtbpTaylorField(p)
    with pytest.raises(CollisionSingularity):
        tf.expand(IVector.from_floats([p.mu.mid, 0.0, 0.0, 0.0]), 5)


def test_variational_first_coefficient():
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 6)
    v = tf.expand_variational(ser, IMatrix.identity(4), 6)
    dfx = jacobian(x0, p)
    for i in range(4):
        for j in range(4):
            assert abs(v[1].rows[i][j].mid - dfx.rows[i][j].mid) < 1e-14


def test_variational_vs_flow_differences():
    # Columns of sum V_k h^k against central differences of the polynomial
    # flow from perturbed initial points, eps=1e-6.  [DERIVED]
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = [-0.8, 0.1, 0.05, -0.7]
    h = 0.01
    ser = tf.expand(IVector.from_floats(x0), 16)
    v = tf.expand_variational(ser, IMatrix.identity(4), 16)
    vm = [[Interval(0.0)] * 4 for _ in range(4)]
    acc = v[16]
    for k in range(15, -1, -1):
        acc = IMatrix(
            [
                [acc.rows[i][j] * h + v[k].rows[i][j] for j in range(4)]
                for i in range(4)
            ]
        )
    eps = 1e-6
    for j in range(4):
        xp, xm = list(x0), list(x0)
        xp[j] += eps
        xm[j] -= eps
        fp = _horner(tf.expand(IVector.from_floats(xp), 16), 16, h)
        fm = _horner(tf.expand(IVector.from_floats(xm), 16), 16, h)
        for i in range(4):
            fd = (fp[i].mid - fm[i].mid) / (2 * eps)
            assert abs(acc.rows[i][j].mid - fd) < 1e-8


def test_variational_order_guard():
    p = band_left()
    tf = RtbpTaylorField(p)
    ser = tf.expand(IVector.from_floats([-0.8, 0.1, 0.05, -0.7]), 4)
    with pytest.raises(ValueError):
        tf.expand_variational(ser, IMatrix.identity(4), 8)


def test_second_partial_series_matches_jacobian():
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 2)
    uxx, uxy, uyy = ser.second_partial_series(0)
    jac = jacobian(x0, p)
    assert abs(uxx[0].mid + jac.rows[2][0].mid) < 1e-14
    assert abs(uxy[0].mid + jac.rows[2][1].mid) < 1e-14
    assert abs(uyy[0].mid + jac.rows[3][1].mid) < 1e-14


def test_interval_initial_condition_containment():
    # A box initial condition's series evaluation contains the series value
    # of any member point.  [TRIVIAL inclusion monotonicity, spot check]
    p = band_left()
    tf = RtbpTaylorField(p)
    r = 1e-9
    box = IVector(
        [
            Interval(-0.8 - r, -0.8 + r),
            Interval(0.1 - r, 0.1 + r),
            Interval(0.05 - r, 0.05 + r),
            Interval(-0.7 - r, -0.7 + r),
        ]
    )
    rng = random.Random(41)
    ser_box = tf.expand(box, 12)
    val_box = _horner(ser_box, 12, 0.005)
    for _ in range(20):
        pt = [
            -0.8 + rng.uniform(-r, r),
            0.1 + rng.uniform(-r, r),
            0.05 + rng.uniform(-r, r),
            -0.7 + rng.uniform(-r, r),
        ]
        val = _horner(tf.expand(IVector.from_floats(pt), 12), 12, 0.005)
        for a, b in zip(val_box, val):
            assert b.is_subset_of(a)


def test_jacobian_floats_twin():
    p = band_left()
    mu = p.mu.mid
    s = State.from_floats(-0.6, 0.35, 0.1, -0.5)
    ji = jacobian(s, p)
    jf = jacobian_floats((-0.6, 0.35, 0.1, -0.5), mu)
    for i in range(4):
        for j in range(4):
            assert ji.rows[i][j].lo - 1e-12 <= jf[i][j] <= ji.rows[i][j].hi + 1e-12
