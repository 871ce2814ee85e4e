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
from fractions import Fraction

import mpmath
import pytest

from conecert import rtbp

from conecert.interval import (
    DivisionByZeroInterval,
    IArray,
    IMatrix,
    Interval,
    IVector,
    decimal_to_interval,
    sq,
)
from conecert.prover import ProofConfig, _n_pieces, enclose_DF_over_N
from conecert.rtbp import (
    CollisionSingularity,
    K_COEFFS,
    RtbpParams,
    RtbpTaylorField,
    d_total_change,
    dpsi,
    jacobian,
    jordan_basis,
    jordan_residual,
    libration_L1,
    libration_L1_slope,
    local_jacobian_batch,
    psi,
    total_change,
    vector_field,
)
from oracles import (
    d2psi,
    dpsi_inverse,
    hamiltonian,
    jacobi_constant,
    jacobian_floats,
    local_field,
    local_jacobian,
    matrix_coefficient,
    series_coefficient,
    symmetry_S,
    vector_field_floats,
    verified_inverse,
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


def rand_state(rng: random.Random, mu: float) -> IVector:
    """Random state bounded away from both primaries."""
    while True:
        x = rng.uniform(-1.6, 1.6)
        y = rng.uniform(-1.6, 1.6)
        r1 = math.hypot(x - mu, y)
        r2 = math.hypot(x - mu + 1.0, y)
        if r1 > 0.05 and r2 > 0.05:
            break
    return IVector.from_floats([x, y, rng.uniform(-2, 2), rng.uniform(-2, 2)])


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
            vector_field((loc, 0.0, 0.0, 0.0), p)


def test_hamiltonian_oracle():
    # mpmath 40-digit evaluation of the same closed form.  [DERIVED]
    p = RtbpParams(decimal_to_interval("0.004253863522"))
    h = hamiltonian((-0.8, 0.1, 0.05, -0.7), p)
    assert H_ORACLE in h
    assert h.width < 1e-13


def test_hamiltonian_kepler_limit():
    # mu -> 0 at (1, 0, 0, 1): circular two-body orbit, H = 1/2 - 1 - 1 = -3/2
    # up to O(mu).  [TRIVIAL]
    p = RtbpParams(Interval(1e-12))
    h = hamiltonian((1.0, 0.0, 0.0, 1.0), p)
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
        ff = vector_field_floats([c.mid for c in s], p.mu.mid)
        for a, b in zip(fi, ff):
            assert a.lo - 1e-12 <= b <= a.hi + 1e-12


def test_symmetry_involution_and_reversal():
    # S is an involution and conjugates the field to its negative:
    # S(F(S(x))) = -F(x) exactly.  [TRIVIAL]
    p = band_left()
    rng = random.Random(11)
    for _ in range(200):
        s = rand_state(rng, p.mu.mid)
        assert symmetry_S(symmetry_S(s)) == s
        lhs = symmetry_S(vector_field(symmetry_S(s), p))
        rhs = -vector_field(s, p)
        for a, b in zip(lhs, rhs):
            assert 0.0 in (a - b)
    fixed = IVector.from_floats([0.3, 0.0, 0.0, 0.4])
    assert symmetry_S(fixed) == fixed


def test_jacobian_vs_finite_differences():
    # Central differences at h=1e-6 on the float twin.  [DERIVED]
    p = band_left()
    mu = p.mu.mid
    rng = random.Random(23)
    for _ in range(25):
        s = rand_state(rng, mu)
        x0 = [c.mid for c in s]
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


def _sqrt2_oracle() -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(100):
        m = (lo + hi) / 2
        if m * m < 2:
            lo = m
        else:
            hi = m
    return lo, hi


def _square_less(a):
    return lambda x: sq(x) - a


def _twice(x: Interval) -> Interval:
    return x * 2.0


def test_newton_root_sqrt2():
    root = rtbp._newton_root(_square_less(2.0), _twice, Interval(1.0, 2.0), 1.5, "r")
    lo, hi = _sqrt2_oracle()
    assert Fraction(root.lo) <= lo and hi <= Fraction(root.hi)
    assert root.width < 1e-12


@pytest.mark.parametrize(
    "f, df, box, guess",
    [
        # no root in the box: the image lies past it
        (_square_less(2.0), _twice, Interval(3.0, 4.0), 3.5),
        # the image 2 - 1/[1, 1], rounded outward, shares the box's lower end
        (
            lambda x: x - 1.0,
            lambda x: Interval(1.0),
            Interval((2.0 - Interval(1.0) / Interval(1.0)).lo, 3.0),
            2.0,
        ),
    ],
    ids=["disjoint", "touching"],
)
def test_newton_root_refuses_an_image_not_strictly_inside(f, df, box, guess):
    with pytest.raises(rtbp.ChartError, match="r: Newton image .* not strictly inside"):
        rtbp._newton_root(f, df, box, guess, "r")


def test_newton_root_refuses_a_derivative_through_zero():
    with pytest.raises(rtbp.ChartError, match="r: no Newton image .* contains zero"):
        rtbp._newton_root(_square_less(2.0), _twice, Interval(-2.0, 2.0), 0.0, "r")


def test_newton_root_encloses_every_parameter_root():
    # x^2 = a for every a in an interval, as the chart of a mass band
    # solves its roots for every mass at once.
    a = Interval(2.0, 2.0 + 2e-9)
    root = rtbp._newton_root(_square_less(a), _twice, Interval(1.0, 2.0), 1.5, "r")
    assert Fraction(root.lo) ** 2 <= Fraction(a.lo)
    assert Fraction(root.hi) ** 2 >= Fraction(a.hi)
    assert root.width < 1e-9


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


# J in (X, Y, P_X, P_Y) and J' in the chart order (lambda, -lambda, rotation
# pair): the symplectic normalization of the chart is C^T J C = J'.
_J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
_J_CHART = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def _mp_chart(c2):
    """C(c2) of Jorba and Masdemont (Physica D 132, 1999) at the working
    precision, written out from the characteristic polynomial."""
    root = mpmath.sqrt((2 - c2) ** 2 - 4 * (1 + c2 - 2 * c2**2))
    lam = mpmath.sqrt((c2 - 2 + root) / 2)
    v = mpmath.sqrt(-(c2 - 2 - root) / 2)
    s1 = mpmath.sqrt(2 * lam * ((4 + 3 * c2) * lam**2 + 4 + 5 * c2 - 6 * c2**2))
    s2 = mpmath.sqrt(v * ((4 + 3 * c2) * v**2 - 4 - 5 * c2 + 6 * c2**2))
    u = [2 * lam, lam**2 - 2 * c2 - 1, lam**2 + 2 * c2 + 1,
         lam**3 + (1 - 2 * c2) * lam]
    cols = (
        [e / s1 for e in u],
        [-u[0] / s1, u[1] / s1, u[2] / s1, -u[3] / s1],
        [0, (-(v**2) - 2 * c2 - 1) / s2, (-(v**2) + 2 * c2 + 1) / s2, 0],
        [2 * v / s2, 0, 0, (-(v**3) + (1 - 2 * c2) * v) / s2],
    )
    return mpmath.matrix([[cols[j][i] for j in range(4)] for i in range(4)])


def _mp_c2(mu):
    """c2 at the interior collinear point of the exact mass mu."""
    x = mpmath.findroot(
        lambda x: x + (1 - mu) / (mu - x) ** 2 - mu / (x - mu + 1) ** 2,
        mpmath.mpf(XL1_ORACLE),
    )
    gamma = x + 1 - mu
    return (mu + (1 - mu) * gamma**3 / (1 - gamma) ** 3) / gamma**3


def _mp_in(val, iv: Interval) -> bool:
    # 1e-45 is the 50-digit oracle's own rounding: its inverse leaves
    # about 1e-55 where the exact entry is 0
    guard = mpmath.mpf("1e-45")
    return mpmath.mpf(iv.lo) - guard <= val <= mpmath.mpf(iv.hi) + guard


@pytest.mark.parametrize("c2", ["3", "3.19", "4.06", "4.5", "5.5", "6"])
def test_chart_basis_is_symplectic(c2):
    # [DERIVED] C^T J C = J' holds for the formulas themselves: the
    # residual is rounding at 50 digits
    with mpmath.workdps(50):
        c = _mp_chart(mpmath.mpf(c2))
        res = c.T * mpmath.matrix(_J) * c - mpmath.matrix(_J_CHART)
        assert max(abs(e) for e in res) < mpmath.mpf("1e-45")


def _chart_masses():
    """(mass enclosure, exact masses in it) of both default endpoints and
    of the first default fragment; call at the oracle's precision."""
    cfg = ProofConfig.default()
    lo, hi = cfg.fragment_intervals()[0]
    return [
        (decimal_to_interval(cfg.mu_left), [mpmath.mpf(cfg.mu_left)]),
        (decimal_to_interval(cfg.mu_right), [mpmath.mpf(cfg.mu_right)]),
        # a band chart: its ends and its middle
        (Interval(lo, hi), [mpmath.mpf(lo), mpmath.mpf(hi),
                            (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2]),
    ]


@pytest.mark.parametrize("k", range(3), ids=["left", "right", "band"])
def test_chart_encloses_each_mass_basis_and_inverse(k):
    # [DERIVED] for each exact mass of the chart's enclosure, C(mu) lies in
    # C and C(mu)^-1 in C_inv, entrywise
    with mpmath.workdps(50):
        mu_iv, masses = _chart_masses()[k]
        ch = jordan_basis(RtbpParams(mu_iv))
        for mu in masses:
            assert _mp_in(mu, mu_iv)
            c = _mp_chart(_mp_c2(mu))
            c_inv = mpmath.inverse(c)
            for i in range(4):
                for j in range(4):
                    assert _mp_in(c[i, j], ch.C[i, j]), (mu, i, j)
                    assert _mp_in(c_inv[i, j], ch.C_inv[i, j]), (mu, i, j)


def test_chart_inverse_is_the_signed_transpose():
    # C_inv = -J' C^T J bit for bit: each entry is the one term
    # -J'[r][a] C[b][a] J[b][k] that is not zero.  It overlaps the
    # Krawczyk inverse of the interval C entrywise and is narrower in its
    # widest entry and in total; single entries may be wider, since the
    # Krawczyk enclosure is not an entry of C.
    for mu_iv, _ in _chart_masses():
        ch = jordan_basis(RtbpParams(mu_iv))
        krawczyk = verified_inverse(ch.C)
        widths = [(ch.C_inv[r, k].width, krawczyk[r, k].width)
                  for r in range(4) for k in range(4)]
        assert max(w for w, _ in widths) <= max(w for _, w in widths)
        assert sum(w for w, _ in widths) <= sum(w for _, w in widths)
        for r in range(4):
            for k in range(4):
                (term,) = [
                    ch.C[b, a] if _J_CHART[r][a] * _J[b][k] < 0 else -ch.C[b, a]
                    for a in range(4)
                    for b in range(4)
                    if _J_CHART[r][a] * _J[b][k] != 0
                ]
                got = ch.C_inv[r, k]
                assert (got.lo, got.hi) == (term.lo, term.hi), (r, k)
                assert got.intersect(krawczyk[r, k]) is not None, (r, k)


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
    from conecert.rtbp import _chart_terms

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
        kprime = [Interval(1.0)] + _chart_terms(q)[0]
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


def _random_boxes(rng: random.Random, n: int) -> list:
    """Boxes with their lower corner within 0.1 of the origin, from
    points up to 1e-2 wide."""
    boxes = []
    for _ in range(n):
        w = rng.choice((0.0, 1e-10, 1e-6, 1e-2)) * rng.random()
        lows = [rng.uniform(-0.1, 0.1) for _ in range(4)]
        boxes.append(
            IVector([Interval(c, c + w * rng.random()) for c in lows])
        )
    return boxes


def test_dpsi_inverse_times_dpsi_contains_identity():
    # [TRIVIAL] the closed form inverts D(psi) for every point of the box,
    # on Intervals and on the library's array-built batch, which equals
    # the scalar form entry by entry and bit for bit
    boxes = _random_boxes(random.Random(17), 40)
    for q in boxes:
        prod = dpsi_inverse(q).matmul(dpsi(q))
        for i in range(4):
            for j in range(4):
                assert (1.0 if i == j else 0.0) in prod[i, j], (q, i, j)
    batch = IVector(
        [IArray([q[c].lo for q in boxes], [q[c].hi for q in boxes])
         for c in range(4)]
    )
    inv = rtbp._dpsi_inverse_array(rtbp._chart_terms(batch))
    assert inv.shape == (len(boxes), 4, 4)
    prod = inv.matmul(IArray.stack(dpsi(batch)))
    for i in range(4):
        for j in range(4):
            e = 1.0 if i == j else 0.0
            assert (prod.lo[:, i, j] <= e).all() and (e <= prod.hi[:, i, j]).all()
    for k, q in enumerate(boxes):
        want = dpsi_inverse(q)
        for i in range(4):
            for j in range(4):
                assert inv.lo[k, i, j] == want[i, j].lo
                assert inv.hi[k, i, j] == want[i, j].hi


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_local_jacobian_raises_where_dpsi_is_not_invertible():
    # [TRIVIAL] at x = 0, k = 0 and s = 1 - y_2 K_2''(0) changes sign at
    # y_2 = 0.694; the box's image stays far from both primaries, so the
    # closed-form inverse is what fails, for one box and in a batch
    p = band_left()
    ch = jordan_basis(p)
    q = IVector([0.0, 0.0, Interval(0.6, 0.8), 0.0])
    vector_field(total_change(q, ch), p)  # raises nothing
    with pytest.raises(DivisionByZeroInterval):
        local_jacobian(q, ch, p)
    batch = IVector([0.0, 0.0, IArray([0.0, 0.6], [1e-3, 0.8]), 0.0])
    with pytest.raises(DivisionByZeroInterval):
        local_jacobian_batch(batch, ch, p, rtbp._psi_terms(batch))
    # through prover.enclose_DF_over_N: the cached failure is raised on
    # every call, cold and warm, each time as a new exception
    _n_pieces.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(DivisionByZeroInterval) as info:
            enclose_DF_over_N(ch, p, q, 2)
        raised.append(info.value)
    assert _n_pieces.cache_info().hits == 1
    assert raised[0] is not raised[1] and raised[0].args == raised[1].args


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_local_jacobian_raises_collision_before_dpsi_inverse():
    # [TRIVIAL] at x = 0 the box's Phi = L1 + C (0, y) holds the smaller
    # primary (mu - 1, 0), and s = 1 - 2 sum_i a2_i y_i holds 0 as well;
    # the field fails first, so the single box and the batch both raise
    # CollisionSingularity, not the DivisionByZeroInterval of D(psi)^-1
    p = band_left()
    ch = jordan_basis(p)
    ys = [Interval(1.54, 1.56), Interval(-0.42, -0.40), Interval(2.42, 2.44)]
    q = IVector([0.0] + ys)
    phi = total_change(q, ch)
    assert p.mu.hi - 1.0 in phi[0] and 0.0 in phi[1]
    with pytest.raises(DivisionByZeroInterval):
        dpsi_inverse(q)
    with pytest.raises(CollisionSingularity):
        local_jacobian(q, ch, p)
    with pytest.raises(CollisionSingularity):
        batch = IVector([IArray([0.0, 0.0])] + ys)
        local_jacobian_batch(batch, ch, p, rtbp._psi_terms(batch))
    # and through prover.enclose_DF_over_N, whose cache keeps the failed
    # D(psi)^-1 of N's pieces: the field still fails first, cold and warm
    _n_pieces.cache_clear()
    for _ in range(2):
        with pytest.raises(CollisionSingularity):
            enclose_DF_over_N(ch, p, q, 2)
    assert _n_pieces.cache_info().hits == 1


def test_chart_fixes_origin():
    p = band_left()
    ch = jordan_basis(p)
    q0 = IVector([0.0] * 4)
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
    fh = local_field(IVector([0.0] * 4), ch, p)
    for c in fh:
        assert 0.0 in c
        assert c.width < 1e-13


def test_local_jacobian_jordan_structure():
    p = band_left()
    ch = jordan_basis(p)
    d = local_jacobian(IVector([0.0] * 4), ch, p)
    assert ch.lam.intersect(d.rows[0][0]) is not None
    assert (-ch.lam).intersect(d.rows[1][1]) is not None
    assert ch.v.intersect(d.rows[2][3]) is not None
    assert (-ch.v).intersect(d.rows[3][2]) is not None
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
    acc = series_coefficient(series, order)
    for k in range(order - 1, -1, -1):
        acc = IVector([a * h + b for a, b in
                       zip(acc, series_coefficient(series, k))])
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
        assert abs(series_coefficient(ser, 1)[i].mid - f[i].mid) < 1e-14
    # second coefficient is (DF F)/2 by the chain rule
    dff = jacobian(x0, p).matvec(f)
    for i in range(4):
        assert abs(series_coefficient(ser, 2)[i].mid - 0.5 * dff[i].mid) < 1e-13


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
    h0 = hamiltonian(x0, p)
    h1 = hamiltonian(_horner(ser, 20, 0.01), p)
    assert abs(h1.mid - h0.mid) < 1e-13


def test_series_collision():
    p = band_left()
    tf = RtbpTaylorField(p)
    with pytest.raises(CollisionSingularity) as info:
        tf.expand(IVector.from_floats([p.mu.mid, 0.0, 0.0, 0.0]), 5)
    # the one-line form of every collision check, least ends only
    msg = str(info.value)
    assert "\n" not in msg
    assert msg.startswith(
        "distance enclosure touches a primary: least r1^2="
    )
    assert ", least r2^2=" in msg


def test_variational_first_coefficient():
    p = band_left()
    tf = RtbpTaylorField(p)
    x0 = IVector.from_floats([-0.8, 0.1, 0.05, -0.7])
    ser = tf.expand(x0, 6)
    v = tf.expand_variational(ser, IMatrix.identity(4), 6)
    dfx = jacobian(x0, p)
    for i in range(4):
        for j in range(4):
            assert abs(matrix_coefficient(v, 1).rows[i][j].mid - dfx.rows[i][j].mid) < 1e-14


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
    acc = matrix_coefficient(v, 16)
    for k in range(15, -1, -1):
        v_k = matrix_coefficient(v, k)
        acc = IMatrix(
            [
                [acc.rows[i][j] * h + v_k.rows[i][j] for j in range(4)]
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
    # (lo, hi) float series of Omega_XX, Omega_XY, Omega_YY
    uxx, uxy, uyy = (
        Interval(lo[0], hi[0]) for lo, hi in next(ser._partials())
    )
    jac = jacobian(x0, p)
    assert abs(uxx.mid + jac.rows[2][0].mid) < 1e-14
    assert abs(uxy.mid + jac.rows[2][1].mid) < 1e-14
    assert abs(uyy.mid + jac.rows[3][1].mid) < 1e-14


def _bits(pairs) -> list:
    return [(repr(lo), repr(hi)) for lo, hi in pairs]


@pytest.mark.parametrize("dim", [4, 5])
def test_stopped_variational_column_is_the_full_one_cut(dim):
    """A tube column stopped by its stop rule at order 9 equals the
    order-21 expansion bit for bit up to order 9, and so does the Omega
    series through order 8, all the column reads of it.  The 5-d
    column's mass row is neither 0 nor 1, so its forcing is multiplied
    through.  [TRIVIAL]"""
    order, stop_at = 21, 9
    p = band_left()
    tf = RtbpTaylorField(p)
    r = 1e-8
    centre = [0.8270258829, 0.0, -5.16e-8, 0.9251225636]
    box = [Interval(c - r, c + r) for c in centre]
    ball = Interval(-3e-9, 3e-9)
    column = [[Interval(-r, r) + ball] for _ in centre]
    if dim == 5:
        box.append(Interval(p.mu.lo - 1e-11, p.mu.lo + 1e-11))
        column.append([Interval(-1e-11, 2e-11)])
    ser = tf.expand(IVector(box), order)
    v0 = IMatrix(column)
    full = tf.expand_variational(ser, v0, order)
    asked = []

    def stop(k, series):
        asked.append(k)
        return k == stop_at

    cut = tf.expand_variational(ser, v0, order, stop=stop)
    assert asked == list(range(1, stop_at + 1))
    assert cut.order == stop_at and full.order == order
    for row_cut, row_full in zip(cut.entries, full.entries):
        for (lo, hi), (flo, fhi) in zip(row_cut, row_full):
            assert _bits(zip(lo, hi)) == _bits(zip(flo, fhi))[: stop_at + 1]
    # the Omega series: stop_at orders, against every order of the series
    omega = ser._partials()
    for _ in range(stop_at):
        short = [_bits(zip(*s)) for s in next(omega)]
    *_, whole = ser._partials()
    assert len(whole[0][0]) == order + 1
    for s, f in zip(short, whole):
        assert s == _bits(zip(*f))[:stop_at]


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



# -- the Taylor kernel against mpmath and exact sums ---------------------------

_GUARD = mpmath.mpf("1e-30")  # the 40-digit oracle's own rounding


def _mp_conv(a, b, k):
    return mpmath.fsum(a[j] * b[k - j] for j in range(k + 1))


def _mp_power_next(s, pw, a, k):
    num = mpmath.fsum((a * (k - j) - j) * s[k - j] * pw[j] for j in range(k))
    return num / (s[0] * k)


def _mp_taylor(x0, mu, order, band=False):
    """Solution coefficients u[i][k] and variational coefficients
    V[k][i][j] (V_0 = I) from a point, by the plain recurrences with full
    convolutions, in mpmath at the caller's precision.  band=True adds
    the mass as a fifth coordinate with mu' = 0: V is 5 x 5, and every
    column gets the forcing dF/dmu times its constant row-4 entry."""
    u = [[mpmath.mpf(c)] for c in x0]
    x, y, px, py = u
    m1 = 1 - mu
    d1 = [x[0] - mu]
    d2 = [d1[0] + 1]
    y2 = [y[0] ** 2]
    d1sq = [d1[0] ** 2]
    d2sq = [d2[0] ** 2]
    s1 = [d1sq[0] + y2[0]]
    s2 = [d2sq[0] + y2[0]]
    w1 = [s1[0] ** mpmath.mpf(-1.5)]
    w2 = [s2[0] ** mpmath.mpf(-1.5)]
    for k in range(order):
        f = (
            px[k] + y[k],
            py[k] - x[k],
            py[k] - m1 * _mp_conv(d1, w1, k) - mu * _mp_conv(d2, w2, k),
            -px[k] - m1 * _mp_conv(y, w1, k) - mu * _mp_conv(y, w2, k),
        )
        for i in range(4):
            u[i].append(f[i] / (k + 1))
        kk = k + 1
        d1.append(x[kk])
        d2.append(x[kk])
        y2.append(_mp_conv(y, y, kk))
        d1sq.append(_mp_conv(d1, d1, kk))
        d2sq.append(_mp_conv(d2, d2, kk))
        s1.append(d1sq[kk] + y2[kk])
        s2.append(d2sq[kk] + y2[kk])
        w1.append(_mp_power_next(s1, w1, -1.5, kk))
        w2.append(_mp_power_next(s2, w2, -1.5, kk))
    v1 = [w1[0] / s1[0]]
    v2 = [w2[0] / s2[0]]
    for k in range(1, order):
        v1.append(_mp_power_next(s1, v1, -2.5, k))
        v2.append(_mp_power_next(s2, v2, -2.5, k))
    uxx = [
        m1 * (w1[k] - 3 * _mp_conv(d1sq, v1, k))
        + mu * (w2[k] - 3 * _mp_conv(d2sq, v2, k))
        for k in range(order)
    ]
    uyy = [
        m1 * (w1[k] - 3 * _mp_conv(y2, v1, k))
        + mu * (w2[k] - 3 * _mp_conv(y2, v2, k))
        for k in range(order)
    ]
    mix = [
        m1 * _mp_conv(d1, v1, k) + mu * _mp_conv(d2, v2, k)
        for k in range(order)
    ]
    uxy = [-3 * _mp_conv(y, mix, k) for k in range(order)]
    n = 5 if band else 4
    cols = [
        [[mpmath.mpf(1 if i == j else 0)] for i in range(n)] for j in range(n)
    ]
    # dP_X'/dmu and dP_Y'/dmu along the solution
    gx = [_mp_conv(d1, w1, k) - _mp_conv(d2, w2, k) + uxx[k]
          for k in range(order)]
    gy = [_mp_conv(y, w1, k) - _mp_conv(y, w2, k) + uxy[k]
          for k in range(order)]
    for k in range(order):
        for col in cols:
            c0, c1, c2, c3 = col[:4]
            r = [
                c1[k] + c2[k],
                -c0[k] + c3[k],
                -_mp_conv(uxx, c0, k) - _mp_conv(uxy, c1, k) + c3[k],
                -_mp_conv(uxy, c0, k) - _mp_conv(uyy, c1, k) - c2[k],
            ]
            if band:
                r[2] += gx[k] * col[4][0]
                r[3] += gy[k] * col[4][0]
                r.append(0)
            for c, ri in zip(col, r):
                c.append(ri / (k + 1))
    if band:
        u.append([mpmath.mpf(mu)] + [mpmath.mpf(0)] * order)
    v = [
        [[cols[j][i][k] for j in range(n)] for i in range(n)]
        for k in range(order + 1)
    ]
    return u, v


def _encloses_mp(iv: Interval, val) -> bool:
    return (
        mpmath.mpf(iv.lo) <= val + _GUARD and val - _GUARD <= mpmath.mpf(iv.hi)
    )


def _assert_series_enclose_mp(point: list, box: IVector, rng) -> None:
    """The order-21 solution and variational series from the point with
    V_0 = I, and from the box with V_0 = I + [-1e-3, 1e-3] entrywise,
    enclose at every order the 40-digit ones at the point and at three
    points sampled in the box, each from a member of V_0 drawn with rng.
    A five-component state carries its own mass, a four-component one
    flies at band_left's."""
    order, n = 21, len(box)
    tf = RtbpTaylorField(band_left())
    ball = Interval(-1e-3, 1e-3)
    w = IMatrix([[Interval(float(i == j)) + ball for j in range(n)]
                 for i in range(n)])
    cases = [(IVector.from_floats(point), IMatrix.identity(n), [point])]
    cases.append(
        (box, w, [[rng.uniform(c.lo, c.hi) for c in box] for _ in range(3)])
    )
    with mpmath.workdps(40):
        for u0, v0, points in cases:
            ser = tf.expand(u0, order)
            var = tf.expand_variational(ser, v0, order)
            for pt in points:
                mu = mpmath.mpf(pt[4] if n == 5 else tf.params.mu.lo)
                u, v = _mp_taylor(pt[:4], mu, order, band=n == 5)
                # a member of V_0: the identity, or a sample of the box
                w0 = [[mpmath.mpf(rng.uniform(e.lo, e.hi)) for e in row]
                      for row in v0.rows]
                for k in range(order + 1):
                    ck = series_coefficient(ser, k)
                    var_k = matrix_coefficient(var, k)
                    for i in range(n):
                        assert _encloses_mp(ck[i], u[i][k]), (pt, k, i)
                        for j in range(n):
                            exact = mpmath.fsum(
                                v[k][i][m] * w0[m][j] for m in range(n)
                            )
                            assert _encloses_mp(var_k.rows[i][j], exact), (
                                pt, k, i, j,
                            )


@pytest.mark.parametrize(
    "centre",
    [
        (-0.8, 0.1, 0.05, -0.7),
        # where the endpoint flights meet {Y = 0}: Y straddles zero in the
        # box, so every sign case of the interval products occurs
        (0.8270258829, 0.0, -5.16e-8, 0.9251225636),
    ],
)
def test_kernel_encloses_mpmath_coefficients(centre):
    """Order-21 solution and variational coefficients from a point, and
    from a box with V_0 a matrix box, enclose the 40-digit coefficients
    of points sampled inside.  [DERIVED]"""
    r = 1e-6
    box = IVector([Interval(c - r, c + r) for c in centre])
    _assert_series_enclose_mp(list(centre), box, random.Random(1401))


@pytest.mark.parametrize(
    "centre",
    [(-0.8, 0.1, 0.05, -0.7), (0.8270258829, 0.0, -5.16e-8, 0.9251225636)],
)
def test_kernel_mass_column_encloses_mpmath_coefficients(centre):
    """With the mass as a fifth coordinate, the order-21 solution
    coefficients and the 5 x 5 variational coefficients, mu column
    included, enclose the 40-digit ones: from a point with V_0 = I, and
    from a box over a mass band with V_0 a matrix box whose row 4 is
    nonzero, as in the a-priori start W.  [DERIVED]"""
    mu = band_left().mu.lo
    r = 1e-6
    box = IVector(
        [Interval(c - r, c + r) for c in centre]
        + [Interval(mu - 1e-9, mu + 1e-9)]
    )
    _assert_series_enclose_mp(list(centre) + [mu], box, random.Random(3015))


def _mp_field(state, mu):
    x, y, px, py = state
    d1 = x - mu
    d2 = d1 + 1
    w1 = (d1 * d1 + y * y) ** mpmath.mpf(-1.5)
    w2 = (d2 * d2 + y * y) ** mpmath.mpf(-1.5)
    return (
        px + y,
        py - x,
        py - (1 - mu) * d1 * w1 - mu * d2 * w2,
        -px - y * ((1 - mu) * w1 + mu * w2),
    )


def test_jacobian_mass_column_contains_central_differences():
    # the 5 x 5 Jacobian: the point-mass block, dF/dmu against a 40-digit
    # central difference (truncation ~1e-24 at eps = 1e-12) and a zero
    # row for mu' = 0  [DERIVED]
    p = band_left()
    tf = RtbpTaylorField(p)
    mu = p.mu.lo
    with mpmath.workdps(40):
        for state in ((-0.8, 0.1, 0.05, -0.7),
                      (0.8270258829, 0.01, -5.16e-8, 0.9251225636)):
            jac = tf.jacobian(IVector.from_floats(list(state) + [mu]))
            block = jacobian(state, RtbpParams(Interval(mu)))
            eps = mpmath.mpf("1e-12")
            pts = [mpmath.mpf(c) for c in state]
            fp = _mp_field(pts, mpmath.mpf(mu) + eps)
            fm = _mp_field(pts, mpmath.mpf(mu) - eps)
            for i in range(4):
                assert jac.rows[i][:4] == block.rows[i]
                assert _encloses_mp(jac.rows[i][4], (fp[i] - fm[i]) / (2 * eps))
            assert all(e == Interval(0.0) for e in jac.rows[4])
            f5 = tf.vector_field(IVector.from_floats(list(state) + [mu]))
            assert len(f5) == 5 and f5[4] == Interval(0.0)


def test_l1_slope_contains_central_difference():
    # dx_L1/dmu by the implicit function theorem against a 40-digit central
    # difference of findroot on the collinear equation, at a point mass and
    # over a mass band whose enclosure must hold the slope at its ends and
    # middle  [DERIVED]
    def root(mu):
        return mpmath.findroot(
            lambda x: x + (1 - mu) / (mu - x) ** 2 - mu / (x - mu + 1) ** 2,
            mpmath.mpf(XL1_ORACLE),
        )

    with mpmath.workdps(40):
        eps = mpmath.mpf("1e-15")
        lo, hi = 0.0042538634220, 0.0042538636220
        for band in (Interval(lo), Interval(lo, hi)):
            p = RtbpParams(band)
            slope = libration_L1_slope(p, libration_L1(p)[0])
            assert slope.width < 1e-6
            for m in {band.lo, band.mid, band.hi}:
                m = mpmath.mpf(m)
                fd = (root(m + eps) - root(m - eps)) / (2 * eps)
                assert _encloses_mp(slope, fd), (band, m)


def _exact_dot_range(a: list, b: list) -> tuple:
    lo = hi = Fraction(0)
    for x, y in zip(a, b):
        corners = [Fraction(p) * Fraction(q) for p in (x.lo, x.hi)
                   for q in (y.lo, y.hi)]
        lo += min(corners)
        hi += max(corners)
    return lo, hi


def _fused_dot(a: list, b: list) -> Interval:
    lo, hi = rtbp._dot([x.lo for x in a], [x.hi for x in a],
                       [y.lo for y in b], [y.hi for y in b])
    assert lo == lo and hi == hi, (a, b, "NaN endpoint")
    return Interval(lo, hi)


def _adversarial_dot_cases(rng: random.Random) -> list:
    big = 2.0**70
    cases = [
        # heavy cancellation: the float sums lose every small term
        ([Interval(big), Interval(1.0), Interval(-big), Interval(3e-5)],
         [Interval(1.0)] * 4),
        ([Interval(1e300), Interval(-1e300), Interval(1e-300)],
         [Interval(1.5, 1.5000000000000002), Interval(1.5), Interval(1.0)]),
        # products far below the smallest subnormal, and subnormal ones
        ([Interval(1e-170, 2e-170), Interval(-3e-165, -1e-165)],
         [Interval(-1e-160, 1e-160), Interval(2e-160, 3e-160)]),
        ([Interval(5e-324), Interval(-1e-200, 1e-200)],
         [Interval(0.5), Interval(1e-120, 1e-110)]),
        # mixed signs: every sign class on both sides
        ([Interval(-2.0, 3.0), Interval(1.0, 2.0), Interval(-4.0, -1.0),
          Interval(0.0, 0.0), Interval(-0.0, 5.0)],
         [Interval(-1.0, 1.0), Interval(-3.0, -2.0), Interval(-1.0, 7.0),
          Interval(-9.0, 9.0), Interval(-2.0, -1.0)]),
    ]
    for _ in range(300):
        n = rng.randint(1, 25)
        a, b = [], []
        for _ in range(n):
            pair = []
            for _ in range(2):
                e = rng.uniform(-170.0, 150.0)
                c = rng.choice([-1.0, 1.0]) * rng.random() * 10.0**e
                w = rng.choice([0.0, 1e-16, 1e-8, 1.0, 3.0]) * abs(c)
                kind = rng.random()
                if kind < 0.1:
                    c, w = 0.0, 0.0
                elif kind < 0.2:
                    c, w = 0.0, abs(c)
                pair.append(Interval(c - w, c + w))
            a.append(pair[0])
            b.append(pair[1])
        cases.append((a, b))
    return cases


def test_fused_dot_encloses_exact_sum():
    """The running error bound of the fused dot holds against the exact
    (Fraction) range, on cancelling, subnormal and mixed-sign terms."""
    rng = random.Random(2005)
    for a, b in _adversarial_dot_cases(rng):
        r = _fused_dot(a, b)
        lo, hi = _exact_dot_range(a, b)
        assert Fraction(r.lo) <= lo and hi <= Fraction(r.hi), (a, b, r)


def test_fused_dot_unbounded_terms():
    """0 * inf counts as 0, inf - inf never appears, no endpoint is NaN,
    and finite members still land inside."""
    inf = math.inf
    cases = [
        ([Interval(0.0)], [Interval(1.0, inf)]),
        ([Interval(-1.0, 0.0)], [Interval(0.0, inf)]),
        ([Interval(0.0, 2.0), Interval(-inf, -1.0)],
         [Interval(-inf, 3.0), Interval(0.0)]),
        ([Interval(1.0, inf), Interval(1.0, inf)],
         [Interval(1.0), Interval(-1.0)]),
        ([Interval(-inf, inf), Interval(1e308)],
         [Interval(0.0), Interval(1e308)]),
    ]
    rng = random.Random(7)
    for a, b in cases:
        r = _fused_dot(a, b)
        for _ in range(20):
            total = Fraction(0)
            for x, y in zip(a, b):
                members = []
                for iv in (x, y):
                    lo = iv.lo if iv.lo > -inf else min(iv.hi, 0.0) - 1e6
                    hi = iv.hi if iv.hi < inf else max(lo, 0.0) + 1e6
                    members.append(Fraction(rng.uniform(lo, hi)))
                total += members[0] * members[1]
            assert (r.lo == -inf or Fraction(r.lo) <= total) and (
                r.hi == inf or total <= Fraction(r.hi)
            ), (a, b, r)
    zero = _fused_dot([Interval(0.0)], [Interval(1.0, inf)])
    assert 0.0 in zero and zero.mag < 1e-300


def _power_next_per_call(s: tuple, pw: tuple, a: float, k: int) -> tuple:
    """Coefficient k of S^a with the weights j - a (k - j) built on every
    call, the form the weight table replaces."""
    (sl, sh), (pl, ph) = s, pw
    ws = [j - a * (k - j) for j in range(k)]
    tl = [math.nextafter(w * x, -math.inf) for w, x in zip(ws, sl[k:0:-1])]
    th = [math.nextafter(w * x, math.inf) for w, x in zip(ws, sh[k:0:-1])]
    n0, n1 = rtbp._dot(tl, th, pl, ph)
    q0, q1 = rtbp._div_pos(-n1, -n0, sl[0], sh[0])
    return math.nextafter(q0 / k, -math.inf), math.nextafter(q1 / k, math.inf)


def _random_series(rng: random.Random, n: int, head: float) -> tuple:
    """(lo, hi) lists of n coefficients from head, of mixed signs, widths
    and magnitudes."""
    lo, hi = [], []
    for j in range(n):
        c = rng.uniform(-1.0, 1.0) * 10.0 ** -rng.randint(0, 12)
        c = head if j == 0 else c
        r = abs(c) * rng.choice([0.0, 1e-15, 1e-6])
        lo.append(c - r)
        hi.append(c + r)
    return lo, hi


@pytest.mark.parametrize("a", [-1.5, -2.5])
def test_power_next_matches_per_call_weights(a):
    """The tabled power-rule weights give the coefficients of the
    per-call weights bit for bit, at every order a step reaches.
    [TRIVIAL]"""
    rng = random.Random(1401)
    for k in range(1, 22):
        for _ in range(5):
            s = _random_series(rng, k + 1, 0.5 + rng.random())
            pw = _random_series(rng, k, rng.uniform(0.5, 2.0))
            got = rtbp._power_next(s, pw, a, k)
            ref = _power_next_per_call(s, pw, a, k)
            assert (repr(got[0]), repr(got[1])) == (repr(ref[0]), repr(ref[1]))


def test_jacobian_floats_twin():
    p = band_left()
    mu = p.mu.mid
    s = (-0.6, 0.35, 0.1, -0.5)
    ji = jacobian(s, p)
    jf = jacobian_floats((-0.6, 0.35, 0.1, -0.5), mu)
    for i in range(4):
        for j in range(4):
            assert ji.rows[i][j].lo - 1e-12 <= jf[i][j] <= ji.rows[i][j].hi + 1e-12
