"""End-to-end prover stage tests at the homoclinic mass band.

Oracle notes:
  * [TRIVIAL]  formula identities (Minkowski sums, hull monotonicity,
               the fixed point at the chart origin, config validation).
  * [DERIVED]  a cold-start floating-point Newton iterate (midpoint
               arithmetic through the same local field), and scipy DOP853
               shootings to {Y = 0} at the endpoints and across the band.
  * [PAPER]    the printed derivative table over N, the printed launch
               window in original coordinates, and the printed Poincare
               image coordinates at the band endpoints.

The proof's chart is the paper's graph chart L1 + C psi(q),
psi(q) = (x, K_i(x) + y_i), and its derivative over N meets all sixteen
printed entries within 10 times their widths.  The printed table is that
chart's: entry (0,3), [-6.752e-7, 3.2e-9] in print, encloses to
[-6.77e-7, 4.5e-9] at 256 pieces.  The linearized chart L1 + C q would
not give it, though its entry (0,2) is as narrow as the printed one: it
misses column 0, rows 1-3, by about 100 times (entry (1,0) encloses to
[-7.5e-7, 1.0e-8] against the printed +-8.5e-9).  A chart with the
correction psi_0 = x - sum y_i K_i'(x) on top of the graph misses entry
(0,2) instead, which drifts by about 3e-7 along x.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import pytest

from conecert import prover
from conecert.flow import LostCrossing
from conecert.interval import (
    DomainError,
    IMatrix,
    Interval,
    IVector,
    decimal_to_interval,
    sqrt,
)
from conecert.manifold import UnverifiedCones
from conecert.prover import (
    CertifiedUnstable,
    CrossingResult,
    ProofConfig,
    _n_pieces,
    _slice_cuts,
    build_N,
    certify_unstable,
    chart_seeded_enclosure,
    check_homoclinic,
    enclose_DF_over_N,
    enclose_fixed_point,
    run_endpoint,
    run_fragment,
)
from conecert.rtbp import (
    K_COEFFS,
    RtbpParams,
    _chart_frame,
    _piece_terms,
    jordan_basis,
    libration_L1,
    local_jacobian,
    psi,
    total_change,
)
from oracles import (
    jacobian_floats,
    local_field,
    local_jacobian_intervals,
    vector_field,
    vector_field_floats,
)

MU_LEFT = "0.0042538634220"
MU_RIGHT = "0.0042538636220"

# [PAPER] derivative over N at the left endpoint, printed as
# scale * [lo, hi] per entry; rows/cols in (unstable, stable, center+,
# center-) order.
DFN_PRINTED = [
    [(2.80038, 2.80039), (-0.0065e-6, 1.281e-6),
     (-1.469e-9, 1.468e-9), (-6.752e-7, 0.032e-7)],
    [(-8.521e-9, 8.521e-9), (-2.80039, -2.80038),
     (-0.0015e-6, 1.01e-6), (-5.352e-7, 0.032e-7)],
    [(-6.035e-9, 6.035e-9), (-6.752e-7, 0.0320e-7),
     (-2.659e-7, 0.0044e-7), (2.25179, 2.25180)],
    [(-4.053e-9, 4.053e-9), (-1.468e-9, 1.469e-9),
     (-2.25180, -2.25179), (-0.0044e-7, 2.66e-7)],
]

# [PAPER] launch window at the left endpoint in original coordinates,
# printed as L1 + 1e-8 * box.
U_PRINTED = [
    (4.007e-8, 4.008e-8),
    (-1.934e-8, -1.931e-8),
    (13.15e-8, 13.16e-8),
    (-1.407e-8, -1.402e-8),
]

# [PAPER] Poincare image coordinates shared by both endpoints.
X_IMAGE = 0.8270258829
PY_IMAGE = 0.9251225636
# [PAPER] printed sign-definite P_X bands.
PX_LEFT_BAND = (-7.501e-8, -2.915e-8)
PX_RIGHT_BAND = (2.825e-8, 7.421e-8)

# P_X and crossing-time widths of the default (left, right) endpoint
# flights, the reference of the width gate
ENDPOINT_WIDTHS = (
    (4.433903184376075e-10, 3.6691663041210636e-09),
    (4.4342804972664766e-10, 3.6694629557132434e-09),
)
# P_X and crossing-time widths of the band flight over the first default
# fragment, the band's reference of the width gate
BAND_WIDTHS = (1.906392826711054e-08, 7.933460111075875e-08)
# P_X width and crossing-time width per unit of mass of the one band
# flight of replace(ProofConfig.default(), fragments=1), the whole band's
# reference of the width gate
WHOLE_BAND_WIDTHS = (1.2086155166629097e-07, 4521.0938958715415)

# Entry widths of the default (left, right) endpoints' derivative over N
# and their least cone margins, in the graph chart psi(q) = (x, K(x) + y):
# the reference of the derivative's width gate
ENDPOINT_DFN_WIDTHS = (
    (
        (1.2934118531759966e-06, 1.2934114416163237e-06,
         4.798179631393405e-09, 6.815385852862548e-07),
        (2.7262026419797252e-08, 1.2934117687990467e-06,
         1.0082625537722098e-06, 5.419564958274323e-07),
        (1.7670907672536282e-08, 6.815389371659153e-07,
         2.6592962857873047e-07, 3.224850142480307e-07),
        (1.0318823782009523e-08, 4.798079695436172e-09,
         1.9113943685589167e-06, 2.6592971079201684e-07),
    ),
    (
        (1.2934118167606814e-06, 1.293411404840186e-06,
         4.7981757456128184e-09, 6.815385691253935e-07),
        (2.726200974496218e-08, 1.293411731495553e-06,
         1.008262531234682e-06, 5.419564826639269e-07),
        (1.7670901613380707e-08, 6.815389188472311e-07,
         2.6592962327217134e-07, 3.2248500225762205e-07),
        (1.0318822147493256e-08, 4.798074662283007e-09,
         1.911394335252226e-06, 2.659297054854564e-07),
    ),
)
ENDPOINT_CONE_MARGINS = (0.0003836542098318851, 0.0003836590636949743)


@pytest.fixture(scope="module")
def cfg() -> ProofConfig:
    return ProofConfig.default()


@pytest.fixture(scope="module")
def left_setup(cfg):
    params = RtbpParams(decimal_to_interval(cfg.mu_left))
    chart = jordan_basis(params)
    b = enclose_fixed_point(chart, params, cfg)
    return params, chart, b


@pytest.fixture(scope="module")
def dfn64(cfg, left_setup):
    params, chart, b = left_setup
    n_box = build_N(b, cfg)
    return n_box, enclose_DF_over_N(chart, params, n_box, 64)


@pytest.fixture(scope="module")
def dfn256(cfg, left_setup):
    # the cone stage needs the endpoint subdivision: the unstable-column
    # dependency noise scales like 1/n and carries a 1/alpha_h weight
    params, chart, b = left_setup
    n_box = build_N(b, cfg)
    return n_box, enclose_DF_over_N(chart, params, n_box, 256)


@pytest.fixture(scope="module")
def endpoints(cfg, shared_chains):
    # the left endpoint is the session's shared chain
    right = run_endpoint("right", cfg.mu_right, cfg)
    return shared_chains.left, right


# the enclosure of an exactly zero product: 2000 subnormal ulps
_SUBNORMALS = 1e-320


def _float_crossing(start, mu: float) -> tuple:
    """(time, state) of the first crossing of {Y = 0} from start at mass
    mu by scipy DOP853 (rtol 1e-13), a float reference of a flight."""
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def on_section(t, y):
        return y[1]

    on_section.terminal = True
    sol = scipy_integrate.solve_ivp(
        lambda t, y: vector_field_floats(y, mu),
        (0.0, 12.0),
        start,
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        events=on_section,
    )
    (t_hit,) = sol.t_events[0]
    (hit,) = sol.y_events[0]
    return t_hit, hit


@pytest.fixture(scope="module")
def fragment_chart(cfg):
    # the chart over the first default fragment's interval mass
    params = RtbpParams(Interval(*cfg.fragment_intervals()[0]))
    return params, jordan_basis(params)


class TestFixedPoint:
    def test_half_widths_at_most_1e14(self, left_setup):
        # [PAPER] printed box is 1e-15 scale; the origin is a point
        _, _, b = left_setup
        for c in b:
            assert 0.5 * c.width <= 1e-14

    def test_field_on_box_contains_zero(self, left_setup):
        # [TRIVIAL] the local field vanishes at the origin
        params, chart, b = left_setup
        fb = local_field(b, chart, params)
        for c in fb:
            assert c.contains_zero()

    @pytest.mark.parametrize("which", ["left", "fragment"])
    def test_origin_maps_to_chart_L1(self, cfg, left_setup, fragment_chart,
                                     which):
        # [TRIVIAL] psi has no constant term, so psi(0) = 0 and Phi(0) is
        # the chart's L1; the box of enclose_fixed_point is that origin.
        # Interval products round outward even when exact, so 0 encloses
        # as a few subnormals and Phi(0) as L1 widened by one ulp.
        params, chart = (
            left_setup[:2] if which == "left" else fragment_chart
        )
        zero = IVector([0.0] * 4)
        assert enclose_fixed_point(chart, params, cfg) == zero
        for c in psi(zero):
            assert -_SUBNORMALS <= c.lo <= 0.0 <= c.hi <= _SUBNORMALS
        phi0 = total_change(zero, chart)
        for got, want in zip(phi0, chart.L1):
            assert want.is_subset_of(got)
            assert got.lo >= math.nextafter(want.lo - _SUBNORMALS, -math.inf)
            assert got.hi <= math.nextafter(want.hi + _SUBNORMALS, math.inf)

    def test_each_mass_L1_lies_in_fragment_chart(self, fragment_chart):
        # [TRIVIAL] at the ends and the middle of the fragment, the
        # point-mass libration point lies in the band chart's L1 and is
        # an equilibrium of that mass's field
        params, chart = fragment_chart
        mu = params.mu
        for m in (mu.lo, 0.5 * (mu.lo + mu.hi), mu.hi):
            point = RtbpParams(Interval(m))
            l1 = libration_L1(point)
            assert l1.is_subset_of(chart.L1), m
            assert all(c.contains_zero() for c in vector_field(l1, point)), m

    def test_float_newton_iterate_is_near_origin(self, left_setup):
        # [DERIVED] cold-start midpoint Newton through the same field
        # lands within the printed 1e-14 scale of the origin
        params, chart, _ = left_setup
        import numpy as np

        x = np.array([1e-9, -1e-9, 1e-9, -1e-9])
        for _ in range(30):
            bx = IVector.from_floats(list(x))
            f = np.array([c.mid for c in local_field(bx, chart, params)])
            j = np.array(
                [[e.mid for e in row]
                 for row in local_jacobian_intervals(bx, chart, params).rows]
            )
            x = x - np.linalg.solve(j, f)
        assert all(abs(float(v)) <= 1e-14 for v in x)


class TestBuildN:
    def test_formula_unit_case(self):
        # [TRIVIAL] point 0, r_u=1, alpha_h=0.25 -> [0,1] x [-.5,.5]^3
        c = ProofConfig(
            mu_left=MU_LEFT, mu_right=MU_RIGHT, r_u=1.0, alpha_h=0.25
        )
        b = IVector.from_floats([0.0, 0.0, 0.0, 0.0])
        n = build_N(b, c)
        assert abs(n[0].lo) <= 1e-15 and abs(n[0].hi - 1.0) <= 1e-15
        for i in (1, 2, 3):
            assert abs(n[i].lo + 0.5) <= 1e-12
            assert abs(n[i].hi - 0.5) <= 1e-12

    def test_contains_B(self, cfg, left_setup):
        # [TRIVIAL] Minkowski sum with sets containing 0
        _, _, b = left_setup
        n = build_N(b, cfg)
        for i in range(4):
            assert n[i].lo <= b[i].lo and b[i].hi <= n[i].hi

    def test_unstable_axis_width(self, cfg, left_setup):
        # [PAPER] the unstable extent is r_u = 1e-7 from the fixed point
        # at the origin
        _, _, b = left_setup
        n = build_N(b, cfg)
        assert cfg.r_u <= n[0].width <= cfg.r_u + 1e-13


class TestDerivativeOverN:
    def test_subdivision_one_equals_direct(self, cfg, left_setup):
        # [TRIVIAL] a single piece is the direct evaluation
        params, chart, b = left_setup
        n_box = build_N(b, cfg)
        one = enclose_DF_over_N(chart, params, n_box, 1)
        direct = local_jacobian_intervals(n_box, chart, params)
        for i in range(4):
            for j in range(4):
                assert one[i, j].lo == direct[i, j].lo
                assert one[i, j].hi == direct[i, j].hi

    def test_doubling_never_widens(self, cfg, left_setup):
        # [TRIVIAL] doubling refines the partition, hulls are nested
        params, chart, b = left_setup
        n_box = build_N(b, cfg)
        prev = enclose_DF_over_N(chart, params, n_box, 4)
        for sub in (8, 16):
            cur = enclose_DF_over_N(chart, params, n_box, sub)
            for i in range(4):
                for j in range(4):
                    assert cur[i, j].lo >= prev[i, j].lo
                    assert cur[i, j].hi <= prev[i, j].hi
            prev = cur

    def test_every_entry_intersects_printed(self, dfn64):
        # [PAPER] all sixteen enclosures meet the printed entries
        _, dfn = dfn64
        for i in range(4):
            for j in range(4):
                lo, hi = DFN_PRINTED[i][j]
                assert not (dfn[i, j].hi < lo or dfn[i, j].lo > hi), (
                    f"entry ({i},{j}) misses the printed band"
                )

    @pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(4)])
    def test_width_within_10x_printed(self, dfn64, i, j):
        # [PAPER] width clause for all sixteen entries
        _, dfn = dfn64
        lo, hi = DFN_PRINTED[i][j]
        assert dfn[i, j].width <= 10.0 * (hi - lo)

    def test_pinned_entries(self, dfn64):
        # [PAPER] the two entries pinned to explicit decimal bands
        _, dfn = dfn64
        assert 2.8003 <= dfn[0, 0].lo and dfn[0, 0].hi <= 2.8004
        assert -2.2519 <= dfn[3, 2].lo and dfn[3, 2].hi <= -2.2517


def _pieces(n_box, k) -> list:
    """The k boxes enclose_DF_over_N splits n_box into."""
    return [IVector([Interval(a, b)] + list(n_box)[1:])
            for a, b in _slice_cuts(n_box[0].lo, n_box[0].hi, k)]


def _loop_hull(chart, params, n_box, k):
    """[DF(N)] as the hull of one Interval-object oracle per piece."""
    out = None
    for piece in _pieces(n_box, k):
        m = local_jacobian_intervals(piece, chart, params)
        out = m if out is None else IMatrix([
            [x.hull(y) for x, y in zip(rx, ry)]
            for rx, ry in zip(out.rows, m.rows)
        ])
    return out


def _loop_failure(chart, params, n_box, k):
    """Exception class the per-piece loop raises, None if none."""
    try:
        _loop_hull(chart, params, n_box, k)
    except (ArithmeticError, DomainError) as exc:
        return type(exc)
    return None


@pytest.fixture(scope="module")
def slice_setup(cfg):
    # the first interval-mass slice of the first fragment, at the
    # fragments' cone aperture
    frag = replace(cfg, alpha_h=cfg.fragment_alpha_h)
    lo, hi = _slice_cuts(*cfg.fragment_intervals()[0], cfg.fragment_mu_slices)[0]
    params = RtbpParams(Interval(lo, hi))
    chart = jordan_basis(params)
    b = enclose_fixed_point(chart, params, frag)
    return params, chart, build_N(b, frag)


def _bits(m: IMatrix) -> list:
    # float.hex tells -0.0 from 0.0, which == does not
    return [(e.lo.hex(), e.hi.hex()) for row in m.rows for e in row]


class TestBatchedDerivative:
    # enclose_DF_over_N runs rtbp.local_jacobian, the float-pair kernel,
    # once per piece and takes the hull

    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_left_endpoint_equals_loop(self, cfg, left_setup, k):
        # [TRIVIAL] the kernel's hull is the oracle's hull bit for bit
        params, chart, b = left_setup
        n_box = build_N(b, cfg)
        got = enclose_DF_over_N(chart, params, n_box, k)
        assert _bits(got) == _bits(_loop_hull(chart, params, n_box, k))

    @pytest.mark.parametrize("k", [1, 7, 64])
    def test_mass_slice_equals_loop(self, slice_setup, k):
        # [TRIVIAL] the same over an interval-valued mass parameter
        params, chart, n_box = slice_setup
        got = enclose_DF_over_N(chart, params, n_box, k)
        assert _bits(got) == _bits(_loop_hull(chart, params, n_box, k))

    @pytest.mark.parametrize("which", ["endpoint", "slice"])
    def test_every_piece_is_the_oracle_bit_for_bit(
        self, cfg, left_setup, slice_setup, which
    ):
        # [TRIVIAL] each piece of the left endpoint's 256 and of the mass
        # slice's 8, before the hull: the float-pair kernel gives the
        # Interval oracle's endpoints, the sign of a zero included
        if which == "endpoint":
            params, chart, b = left_setup
            n_box, k = build_N(b, cfg), cfg.endpoint_subdivision
        else:
            (params, chart, n_box), k = slice_setup, cfg.fragment_subdivision
        frame = _chart_frame(chart, params)
        for piece in _pieces(n_box, k):
            lo, hi = local_jacobian(frame, _piece_terms(piece))
            want = local_jacobian_intervals(piece, chart, params)
            assert [(a.hex(), b.hex()) for a, b in zip(lo, hi)] == _bits(want)

    def test_each_piece_contains_float_derivatives(
        self, cfg, left_setup, monkeypatch
    ):
        # [DERIVED] every piece of the left endpoint, before the hull,
        # contains the dense float64 D(psi)^-1 (M D(psi) - T) at two
        # points of the piece, with D(psi) and the Hessians of psi formed
        # in full and C^-1 and D(psi)^-1 applied by LAPACK solves: a check
        # of the structured form that shares none of its algebra
        import numpy as np

        params, chart, b = left_setup
        n_box = build_N(b, cfg)
        k = cfg.endpoint_subdivision
        seen = []

        def recording(frame, piece):
            seen.append(local_jacobian(frame, piece))
            return seen[-1]

        monkeypatch.setattr(prover, "local_jacobian", recording)
        enclose_DF_over_N(chart, params, n_box, k)
        assert len(seen) == k
        c = np.array(chart.C.mid())
        l1 = np.array(chart.L1.mid())
        mu = params.mu.lo
        corners = ([e.lo for e in n_box[1:]], [e.hi for e in n_box[1:]])
        outside = 0
        cuts = _slice_cuts(n_box[0].lo, n_box[0].hi, k)
        for (lo, hi), (got_lo, got_hi) in zip(cuts, seen):
            for t, y in zip((0.25, 0.75), corners):
                x = lo + t * (hi - lo)
                kp = [x * (2.0 * a2 + 3.0 * a3 * x) for a2, a3 in K_COEFFS[1:]]
                kpp = [2.0 * a2 + 6.0 * a3 * x for a2, a3 in K_COEFFS[1:]]
                dpsi = np.eye(4)
                dpsi[1:, 0] = kp
                hess = np.zeros((4, 4, 4))
                hess[1:, 0, 0] = kpp
                psi_q = [x] + [x * x * (a2 + a3 * x) + yi
                               for (a2, a3), yi in zip(K_COEFFS[1:], y)]
                phi = l1 + c @ np.array(psi_q)
                f_hat = np.linalg.solve(c @ dpsi, vector_field_floats(phi, mu))
                m = np.linalg.solve(c, np.array(jacobian_floats(phi, mu)) @ c)
                want = np.linalg.solve(dpsi, m @ dpsi - hess @ f_hat).ravel()
                outside += int(np.sum((want < np.array(got_lo))
                                      | (want > np.array(got_hi))))
        assert outside == 0

    def test_large_r_u_fails_as_loop(self, cfg, left_setup):
        # [TRIVIAL] r_u = 1 at alpha_h = 0.04 reaches a primary
        params, chart, b = left_setup
        wide = replace(cfg, r_u=1.0, alpha_h=0.04)
        n_box = build_N(b, wide)
        want = _loop_failure(chart, params, n_box, 8)
        assert want is not None
        with pytest.raises(want) as info:
            enclose_DF_over_N(chart, params, n_box, 8)
        assert type(info.value) is want
        # the endpoint reports the failure as one short line
        ep = run_endpoint("left", cfg.mu_left, wide)
        assert not ep.verified
        stage = ep.stages[-1]
        assert stage.name == "derivative" and not stage.verified
        assert stage.detail["error"] == ep.failure
        assert "\n" not in ep.failure and len(ep.failure) < 300


def _record_pieces(monkeypatch) -> list:
    """The piece terms of every local_jacobian call enclose_DF_over_N
    makes from now on."""
    seen = []

    def recording(frame, piece):
        seen.append(piece)
        return local_jacobian(frame, piece)

    monkeypatch.setattr(prover, "local_jacobian", recording)
    return seen


class TestDerivativeCache:
    # enclose_DF_over_N takes the mass-free piece half of each
    # local_jacobian call from the cache prover._n_pieces, keyed by N and
    # the subdivision

    @pytest.mark.parametrize("kind", ["endpoints", "slices"])
    def test_warm_equals_cold(self, cfg, kind):
        # [TRIVIAL] the entry one mass filled serves another mass over the
        # same N bit for bit: the endpoints' N at 256 pieces, and the
        # first fragment's mass slices' N at 8
        if kind == "endpoints":
            c, k = cfg, cfg.endpoint_subdivision
            masses = [decimal_to_interval(m) for m in (MU_LEFT, MU_RIGHT)]
        else:
            c = replace(cfg, alpha_h=cfg.fragment_alpha_h)
            k = cfg.fragment_subdivision
            cuts = _slice_cuts(*cfg.fragment_intervals()[0],
                               cfg.fragment_mu_slices)
            masses = [Interval(lo, hi) for lo, hi in cuts[:2]]
        params = [RtbpParams(mu) for mu in masses]
        charts = [jordan_basis(p) for p in params]
        n_box = build_N(enclose_fixed_point(charts[0], params[0], c), c)
        _n_pieces.cache_clear()
        cold = _bits(enclose_DF_over_N(charts[1], params[1], n_box, k))
        _n_pieces.cache_clear()
        enclose_DF_over_N(charts[0], params[0], n_box, k)
        warm = _bits(enclose_DF_over_N(charts[1], params[1], n_box, k))
        assert _n_pieces.cache_info().hits == 1
        assert warm == cold

    def test_cached_arrays_refuse_writes(self, slice_setup, monkeypatch):
        # [TRIVIAL] every caller shares the cached terms, tuples of float
        # tuples, which no caller can change
        params, chart, n_box = slice_setup
        seen = _record_pieces(monkeypatch)
        enclose_DF_over_N(chart, params, n_box, 8)
        assert len(seen) == 8
        for piece in seen:
            assert isinstance(piece, tuple) and len(piece) == 4
            for column in piece:
                assert isinstance(column, tuple)
                for row in column:
                    assert isinstance(row, tuple)
                    (lo, hi), = row
                    assert type(lo) is float and type(hi) is float
                with pytest.raises(TypeError):
                    column[0] = ((0.0, 0.0),)

    def test_negative_zero_end_has_its_own_entry(
        self, cfg, left_setup, monkeypatch
    ):
        # [TRIVIAL] -0.0 == 0.0, but the pieces of an N that starts at
        # -0.0 start there too, so the key tells the two apart
        params, chart, b = left_setup
        n_box = build_N(b, cfg)
        assert math.copysign(1.0, n_box[0].lo) == 1.0
        neg = IVector([Interval(-0.0, n_box[0].hi)] + list(n_box)[1:])
        _n_pieces.cache_clear()
        cold = _bits(enclose_DF_over_N(chart, params, neg, 32))
        _n_pieces.cache_clear()
        enclose_DF_over_N(chart, params, n_box, 32)
        cuts = []

        def recording(lo, hi, k):
            cuts.append(_slice_cuts(lo, hi, k))
            return cuts[-1]

        monkeypatch.setattr(prover, "_slice_cuts", recording)
        warm = _bits(enclose_DF_over_N(chart, params, neg, 32))
        assert _n_pieces.cache_info().misses == 2
        assert warm == cold
        assert math.copysign(1.0, cuts[0][0][0]) == -1.0

    @pytest.mark.parametrize("bad", [0, -2, 2.0, True, "32", None])
    def test_subdivision_must_be_a_count(self, cfg, left_setup, bad):
        # [TRIVIAL] as ProofConfig checks its subdivisions, before the
        # cache: True is not the count 1, and 2.0 is not the count 2
        params, chart, b = left_setup
        before = _n_pieces.cache_info()
        with pytest.raises(ValueError, match="subdivision must be"):
            enclose_DF_over_N(chart, params, build_N(b, cfg), bad)
        assert _n_pieces.cache_info() == before


class TestConeStage:
    def test_verifies_at_printed_constants(self, cfg, left_setup, dfn256):
        # [PAPER] c_h=1, c_v=2.8 certify on the reproduced derivative
        params, chart, b = left_setup
        n_box, dfn = dfn256
        cu = certify_unstable(chart, b, n_box, dfn, cfg)
        assert isinstance(cu, CertifiedUnstable)
        assert cu.cones.verified
        assert all(cu.cones.conditions.values())

    def test_fails_at_cv_29(self, cfg, left_setup, dfn256):
        # [TRIVIAL] the unstable rate 2.80039 cannot clear c_v=2.9
        params, chart, b = left_setup
        n_box, dfn = dfn256
        from dataclasses import replace

        bad = replace(cfg, c_v=2.9)
        with pytest.raises(UnverifiedCones, match="cone conditions failed"):
            certify_unstable(chart, b, n_box, dfn, bad)

    def test_launch_coordinate_is_one_point_past_B(self, cfg, left_setup,
                                                   dfn256):
        # x0 is the lower end of B_0.lo + r_u r and lies above B_0.hi
        params, chart, b = left_setup
        n_box, dfn = dfn256
        cu = certify_unstable(chart, b, n_box, dfn, cfg)
        x0 = cu.U_local[0]
        assert x0.lo == x0.hi
        assert b[0].hi < x0.lo
        r = sqrt(1.0 - Interval(cfg.alpha_v))
        assert x0.lo in b[0].lo + Interval(cfg.r_u) * r
        # a window too short to clear a fat fixed-point box is refused
        fat = IVector([Interval(-1e-6, 1e-6)] * 4)
        with pytest.raises(UnverifiedCones, match="launch coordinate"):
            certify_unstable(chart, fat, n_box, dfn, replace(cfg, r_u=1e-20))

    def test_u_original_matches_printed(self, cfg, left_setup, dfn256):
        # [PAPER] launch window vs the printed L1 + 1e-8 box:
        # position within 1e-9 per coordinate, width within 10x
        params, chart, b = left_setup
        n_box, dfn = dfn256
        cu = certify_unstable(chart, b, n_box, dfn, cfg)
        l1_mid = libration_L1(params).mid()
        for i in range(4):
            lo, hi = U_PRINTED[i]
            printed_mid = l1_mid[i] + 0.5 * (lo + hi)
            printed_w = hi - lo
            assert abs(cu.U_original[i].mid - printed_mid) <= 1e-9
            assert cu.U_original[i].width <= 10.0 * printed_w


class TestEndpoints:
    def test_left_verified_negative(self, endpoints):
        # [PAPER] left P_X image strictly negative, inside printed band
        left, _ = endpoints
        assert left.verified
        px = left.poincare_image[2]
        assert px.hi < 0.0
        assert PX_LEFT_BAND[0] <= px.lo and px.hi <= PX_LEFT_BAND[1]

    def test_right_verified_positive(self, endpoints):
        # [PAPER] right P_X image strictly positive, inside printed band
        _, right = endpoints
        assert right.verified
        px = right.poincare_image[2]
        assert px.lo > 0.0
        assert PX_RIGHT_BAND[0] <= px.lo and px.hi <= PX_RIGHT_BAND[1]

    def test_widths_do_not_widen(self, endpoints):
        # the width gate: each P_X and crossing-time width at most 2e-4
        # relative above its value at the time of writing; narrower passes
        for ep, (px_w, t_w) in zip(endpoints, ENDPOINT_WIDTHS):
            assert ep.poincare_image[2].width <= (1.0 + 2e-4) * px_w
            assert ep.crossing_time.width <= (1.0 + 2e-4) * t_w

    def test_derivative_does_not_widen(self, endpoints):
        # the derivative's width gate: each entry of each DFN at most 2e-4
        # relative above its value at the time of writing, each least cone
        # margin at most 2e-4 relative below it; a narrower DFN and a larger
        # margin pass
        for ep, widths, margin in zip(
            endpoints, ENDPOINT_DFN_WIDTHS, ENDPOINT_CONE_MARGINS
        ):
            for i in range(4):
                for j in range(4):
                    assert ep.dfn[i, j].width <= (1.0 + 2e-4) * widths[i][j], (
                        ep.side, i, j
                    )
            assert min(ep.cones.margins.values()) >= (1.0 - 2e-4) * margin

    def test_image_coordinates_match_printed(self, endpoints):
        # [PAPER] X and P_Y within 1e-8 of the printed values
        for ep in endpoints:
            img = ep.poincare_image
            assert abs(img[0].mid - X_IMAGE) <= 1e-8
            assert abs(img[3].mid - PY_IMAGE) <= 1e-8

    def test_float_shooting_lands_in_certified_image(self, endpoints):
        # [DERIVED] scipy DOP853 from the midpoint of the launch window at
        # the mid mass meets {Y = 0} inside the certified crossing time
        # and image, an independent float check of the whole flight
        for ep in endpoints:
            mu = decimal_to_interval(ep.mu).mid
            t_hit, hit = _float_crossing(ep.U_original.mid(), mu)
            assert t_hit in ep.crossing_time
            for i in (0, 2, 3):
                assert hit[i] in ep.poincare_image[i]

    def test_float_shootings_bracket_the_sign_change(self, cfg, endpoints):
        # [DERIVED] a float check of the verdict, with no interval flight:
        # scipy DOP853 from the float chart launch point
        # L1(mu) + C(mu) psi(x0, 0, 0, 0) of mass mu to {Y = 0}.  P_X is
        # negative at mu_left and positive at mu_right, each end shot lands
        # inside its endpoint's certified crossing time and image, and
        # bisection finds the sign change strictly inside the band
        x0 = endpoints[0].U_local[0]
        assert x0.width == 0.0 and x0 == endpoints[1].U_local[0]
        q = psi(IVector([x0] + [0.0] * 3)).mid()
        shots = []

        def shoot(mu: float) -> tuple:
            chart = jordan_basis(RtbpParams(Interval(mu)))
            start = [l1 + sum(c * e for c, e in zip(row, q))
                     for l1, row in zip(chart.L1.mid(), chart.C.mid())]
            shots.append(mu)
            return _float_crossing(start, mu)

        ends = [float(cfg.mu_left), float(cfg.mu_right)]
        for ep, mu, sign in zip(endpoints, ends, (-1.0, 1.0)):
            t_hit, hit = shoot(mu)
            assert sign * hit[2] > 0.0, ep.side
            assert t_hit in ep.crossing_time, ep.side
            for i in (0, 2, 3):
                assert hit[i] in ep.poincare_image[i], (ep.side, i)
        lo, hi = ends
        while hi - lo > 1e-6 * (ends[1] - ends[0]):
            mid = 0.5 * (lo + hi)
            if shoot(mid)[1][2] < 0.0:
                lo = mid
            else:
                hi = mid
        assert ends[0] < lo < hi < ends[1]
        assert len(shots) <= 30

    def test_image_on_section(self, endpoints):
        # [TRIVIAL] the Y coordinate is identically pinned to the section
        for ep in endpoints:
            y = ep.poincare_image[1]
            assert y.contains_zero() and y.width <= 1e-12

    def test_report_states_each_number_once(self, endpoints):
        # stage details hold no copy of DFN, the cone margins, the P_X
        # image or subboxes, which the report states under their own keys
        data = endpoints[0].to_json()
        assert {s["name"]: set(s["detail"]) for s in data["stages"]} == {
            "chart": {"lambda", "v"},
            "derivative": {"subdivision"},
            "cones": set(),
            "poincare": set(),
        }
        assert {"DFN", "cone_margins", "poincare_image", "subboxes"} <= set(
            data
        )

    def test_stage_names_in_order(self, endpoints):
        left, _ = endpoints
        names = [s.name for s in left.stages]
        assert names == [
            "chart", "derivative", "cones", "poincare"
        ]
        assert all(s.verified for s in left.stages)


@pytest.fixture(scope="module")
def band_flight(cfg, shared_chains):
    # the session's band chain over the first default fragment
    params = RtbpParams(Interval(*cfg.fragment_intervals()[0]))
    launch = shared_chains.band
    assert launch.failure is None
    u = launch.unstable.U_local
    enc = chart_seeded_enclosure(launch.chart, u, params.mu)
    return params, enc, launch.crossing


@pytest.fixture(scope="module")
def whole_band(cfg):
    # the first attempt of run_fragment on the one fragment of
    # fragments=1: one band flight over the whole default band
    one = replace(cfg, fragments=1)
    lo, hi = one.fragment_intervals()[0]
    launch = prover.launch_chain(
        RtbpParams(Interval(lo, hi)), replace(one, alpha_h=one.fragment_alpha_h),
        one.fragment_subdivision, band=True,
    )
    assert launch.failure is None, launch.failure
    return hi - lo, launch.crossing


class TestFragment:
    def test_band_flight_is_thin(self, band_flight):
        # the mass travels as a direction of the set, not as width
        params, _, cr = band_flight
        assert len(cr.image) == 5
        assert params.mu.is_subset_of(cr.image[4])
        assert cr.time.width <= 1e-6
        assert cr.image[2].width <= 1e-7

    def test_widths_do_not_widen(self, band_flight):
        # the width gate of the band flight: its P_X and crossing-time
        # widths at most 2e-4 relative above their values at the time of
        # writing; narrower passes
        _, _, cr = band_flight
        px_w, t_w = BAND_WIDTHS
        assert cr.image[2].width <= (1.0 + 2e-4) * px_w
        assert cr.time.width <= (1.0 + 2e-4) * t_w

    def test_whole_band_widths_do_not_widen(self, whole_band):
        # the width gate of the whole band as one flight: its P_X width and
        # its crossing-time width per unit of mass at most 2e-4 relative
        # above their values at the time of writing.  The per-mass time
        # moves with the step settings when no other gated width does
        mass, cr = whole_band
        px_w, t_per_mass = WHOLE_BAND_WIDTHS
        assert cr.image[2].width <= (1.0 + 2e-4) * px_w
        assert cr.time.width / mass <= (1.0 + 2e-4) * t_per_mass

    def test_band_flight_contains_float_shootings(self, band_flight):
        # [DERIVED] scipy DOP853 from the launch set's own points at the
        # fragment's ends and middle meets {Y = 0} inside the certified
        # crossing time and image, an independent float check of the
        # band flight and of its mass column
        params, enc, cr = band_flight
        mu0 = enc.midpoint[4]
        for mu in (params.mu.lo, mu0, params.mu.hi):
            start = [
                enc.midpoint[i] + enc.init_basis[i][4] * (mu - mu0)
                for i in range(4)
            ]
            t_hit, hit = _float_crossing(start, mu)
            assert t_hit in cr.time, mu
            for i in (0, 2, 3):
                assert hit[i] in cr.image[i], (mu, i)

    def test_retry_flies_mu_slices(self, cfg, monkeypatch):
        # a failed band flight is retried as fragment_mu_slices band
        # flights over the shared cuts, each after its own launch chain
        # at doubled subdivision
        from conecert import prover

        calls = []
        subdivisions = []
        chain = prover.launch_chain

        def counted_chain(params, c, subdivision, band=False):
            subdivisions.append(subdivision)
            return chain(params, c, subdivision, band)

        def flight(chart, params, u_local, band=False):
            calls.append((params.mu, chart.mu, band))
            if len(calls) == 1:
                raise LostCrossing("first flight lost")
            return CrossingResult(u_local, Interval(float(len(calls))))

        monkeypatch.setattr(prover, "poincare_image", flight)
        monkeypatch.setattr(prover, "launch_chain", counted_chain)
        lo, hi = cfg.fragment_intervals()[0]
        out = run_fragment(0, lo, hi, replace(cfg, fragment_mu_slices=3))
        assert out.verified and out.retried and out.failure is None
        assert out.slices == 3
        cuts = [Interval(a, b) for a, b in _slice_cuts(lo, hi, 3)]
        assert [mu for mu, _, _ in calls] == [Interval(lo, hi)] + cuts
        assert all(mu == chart_mu and band for mu, chart_mu, band in calls)
        assert out.crossing_time == Interval(2.0, 4.0)
        sub = cfg.fragment_subdivision
        assert subdivisions == [sub] + [2 * sub] * 3

    def test_single_thin_slice_verifies(self, cfg):
        # one quarter-fragment suffices to exercise the fragment run
        from dataclasses import replace

        lo, hi = cfg.fragment_intervals()[0]
        quarter = lo + 0.25 * (hi - lo)
        thin = replace(cfg, fragment_mu_slices=1)
        out = run_fragment(0, lo, quarter, thin)
        assert out.verified
        assert out.slices == 1
        assert out.failure is None
        assert out.crossing_time is not None
        assert 8.0 < out.crossing_time.lo < out.crossing_time.hi < 8.4


class TestConfig:
    def test_swapped_endpoints_rejected(self):
        # [TRIVIAL] precondition mu_left < mu_right
        with pytest.raises(ValueError):
            ProofConfig(mu_left=MU_RIGHT, mu_right=MU_LEFT)

    def test_mass_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            ProofConfig(mu_left="-0.1", mu_right="0.2")
        with pytest.raises(ValueError):
            ProofConfig(mu_left="0.5", mu_right="1.5")

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ProofConfig(mu_left=MU_LEFT, mu_right=MU_RIGHT, alpha_h=0.0)
        with pytest.raises(ValueError):
            ProofConfig(mu_left=MU_LEFT, mu_right=MU_RIGHT, alpha_v=1.0)

    def test_cone_constant_ordering(self):
        with pytest.raises(ValueError):
            ProofConfig(mu_left=MU_LEFT, mu_right=MU_RIGHT, c_h=3.0, c_v=2.8)

    def test_unknown_json_keys_rejected(self):
        data = ProofConfig.default().to_json()
        data["surprise"] = 1
        with pytest.raises(ValueError):
            ProofConfig.from_json(data)
        data = ProofConfig.default().to_json()
        data["threads"] = 1  # the removed thread option is no key either
        with pytest.raises(ValueError):
            ProofConfig.from_json(data)

    def test_counts_must_be_ints(self):
        # a float count passes the range checks, then crashes mid-proof
        base = ProofConfig.default()
        for name in (
            "endpoint_subdivision", "fragment_subdivision", "fragments",
            "fragment_mu_slices",
        ):
            for bad in (2.5, 20.0, True, "4"):
                with pytest.raises(ValueError, match=name):
                    replace(base, **{name: bad})
        with pytest.raises(ValueError):
            replace(base, fragments=0)

    def test_float_fields_must_be_finite_reals(self):
        # a non-numeric value used to raise TypeError from a comparison,
        # and an infinite value passed the range checks
        base = ProofConfig.default().to_json()
        names = [f.name for f in fields(ProofConfig) if f.type == "float"]
        assert len(names) == 6
        for name in names:
            for bad in ("x", None, True, math.inf, -math.inf, math.nan, [1.0]):
                with pytest.raises(ValueError, match=name):
                    ProofConfig.from_json({**base, name: bad})
        for name in ("mu_left", "mu_right"):
            for bad in (None, 0.0042538634220, 4):
                with pytest.raises(ValueError, match=name):
                    ProofConfig.from_json({**base, name: bad})
        # an int is a real number
        assert ProofConfig.from_json({**base, "c_v": 3}).c_v == 3

    def test_json_round_trip(self):
        c = ProofConfig.default()
        assert ProofConfig.from_json(c.to_json()) == c

    def test_fragment_intervals_cover_exactly(self):
        # fragment_intervals is the shared split applied to the band hull
        c = ProofConfig.default()
        hull = c.mu_interval()
        pieces = _slice_cuts(hull.lo, hull.hi, c.fragments)
        assert c.fragment_intervals() == pieces
        assert all(a < b for a, b in pieces)
        thin = math.nextafter(1.0, 2.0)
        bounds = [
            (hull.lo, hull.hi),
            (1.0, thin),  # one ulp wide
            (-5e-324, 5e-324),  # subnormal
            (-1e300, 1e300),
            (-1.7e308, 1.7e308),  # hi - lo overflows
        ]
        for lo, hi in bounds:
            for k in (1, 2, 7, 256):
                pieces = _slice_cuts(lo, hi, k)
                assert len(pieces) == k
                assert pieces[0][0] == lo
                assert pieces[-1][1] == hi
                for (a, b), (c2, d) in zip(pieces, pieces[1:]):
                    assert b == c2
                assert all(a <= b for a, b in pieces)
        # a wide band is genuinely split, not collapsed onto one piece
        assert _slice_cuts(-1.7e308, 1.7e308, 2)[0] == (-1.7e308, 0.0)


def test_failed_endpoint_flight_flies_once(cfg, monkeypatch):
    # an indefinite P_X sign fails the endpoint after its one flight:
    # the launch window is not split and flown again.  The chain's four
    # stages all certified, the flight included; only the sign check fails
    from conecert import prover

    calls = []

    def flight(chart, params, u_local, band=False):
        calls.append(u_local)
        image = IVector([Interval(0.8), Interval(0.0),
                         Interval(-1e-8, 1e-8), Interval(0.9)])
        return CrossingResult(image, Interval(8.2))

    monkeypatch.setattr(prover, "poincare_image", flight)
    ep = run_endpoint("left", cfg.mu_left, cfg)
    assert len(calls) == 1
    assert not ep.verified
    assert ep.failure.startswith("P_X sign indefinite: [")
    assert ep.subboxes == 1
    assert [(s.name, s.verified) for s in ep.stages] == [
        ("chart", True), ("derivative", True), ("cones", True),
        ("poincare", True),
    ]
    assert ep.poincare_image is None and ep.crossing_time is None
    assert ep.U_local is calls[0] and ep.cones is not None


def test_launch_on_section_is_not_proved(cfg, monkeypatch):
    # a launch window at the chart origin, x0 = 0 with no transversal
    # width, has L1 for its chart image, on {Y = 0}: the flight refuses
    # it before any step, and the endpoint is unverified with that reason
    # after three verified stages
    from conecert import flow, prover

    steps = []
    expand_step = flow._expand_step

    def counted_step(*args, **kwargs):
        steps.append(args[2])
        return expand_step(*args, **kwargs)

    monkeypatch.setattr(flow, "_expand_step", counted_step)
    monkeypatch.setattr(prover, "launch_window",
                        lambda cones, b, r_u: IVector([Interval(0.0)] * 4))
    ep = run_endpoint("left", cfg.mu_left, cfg)
    reason = "initial set is not strictly off-section"
    assert not ep.verified and ep.failure == reason
    assert [(s.name, s.verified) for s in ep.stages] == [
        ("chart", True), ("derivative", True), ("cones", True),
        ("poincare", False),
    ]
    assert ep.stages[-1].detail == {"error": reason}
    assert steps == []
    assert ep.poincare_image is None and ep.crossing_time is None


@pytest.mark.parametrize("side, px", [
    ("left", Interval(-1e-8, 0.0)),
    ("right", Interval(0.0, 1e-8)),
])
def test_endpoint_sign_check_is_strict(cfg, monkeypatch, side, px):
    # a P_X image that reaches 0 certifies no sign: the check on the
    # chain's crossing is strict at both endpoints
    from conecert import prover

    image = IVector([Interval(0.8), Interval(0.0), px, Interval(0.9)])
    monkeypatch.setattr(
        prover, "launch_chain",
        lambda *args: prover.Launch(
            crossing=CrossingResult(image, Interval(8.2))
        ),
    )
    ep = run_endpoint(side, cfg.mu_left, cfg)
    assert not ep.verified and ep.poincare_image is None
    assert ep.failure.startswith("P_X sign indefinite: [")


@pytest.fixture(scope="module")
def narrow_reports():
    # a band 1/100 the proof width: every stage exercises, flights stay
    # cheap, and the whole proof fits in seconds
    from dataclasses import replace

    narrow_cfg = replace(
        ProofConfig.default(),
        mu_left="0.0042538634220",
        mu_right="0.0042538634240",
        fragments=1,
        fragment_mu_slices=1,
    )
    first = check_homoclinic(narrow_cfg)
    second = check_homoclinic(narrow_cfg)
    return first, second


class TestReportDeterminism:
    def test_narrow_band_is_not_decidable_but_runs(self, narrow_reports):
        # signs cannot flip over 1/100 of the band: the right endpoint
        # certifies P_X negative, so the report is NOT_PROVED (never a
        # disproof) and no fragment runs
        first, _ = narrow_reports
        assert first.verdict == "NOT_PROVED"
        assert first.left.verified
        assert not first.right.verified
        assert "wrong sign" in first.right.failure
        assert first.fragments == []

    def test_reruns_bit_identical(self, narrow_reports):
        first, second = narrow_reports
        assert first.json_str() == second.json_str()

    def test_render_text_mentions_verdict(self, narrow_reports):
        first, _ = narrow_reports
        text = first.render_text()
        assert f"homoclinic verdict: {first.verdict}" in text
        assert "fragments:" in text


def test_failed_endpoint_skips_fragments(monkeypatch):
    # c_v = 2.9 fails the cone stage at both endpoints, which fixes
    # NOT_PROVED before any fragment could matter
    from conecert import prover

    calls = []
    run = prover.run_fragment

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(prover, "run_fragment", counted)
    cfg = ProofConfig.from_json(
        {**ProofConfig.default().to_json(), "c_v": 2.9, "fragments": 1}
    )
    report = check_homoclinic(cfg)
    assert calls == []
    assert report.verdict == "NOT_PROVED"
    assert report.fragments == []
    text = report.render_text()
    assert "fragments: not run, the left and right endpoints failed" in text


@pytest.mark.slow
def test_default_proof_is_proved():
    # [PAPER] the claim the library exists for: the full default band,
    # both endpoints and every fragment, in about a minute
    report = check_homoclinic(ProofConfig.default())
    assert report.verdict == "PROVED", report.render_text()
    assert len(report.fragments) == report.config.fragments
    assert not any(f.retried for f in report.fragments)
    # one band flight per fragment
    assert all(f.slices == 1 for f in report.fragments)
    for ep, (lo, hi) in (
        (report.left, PX_LEFT_BAND), (report.right, PX_RIGHT_BAND)
    ):
        px = ep.poincare_image[2]
        assert lo <= px.lo and px.hi <= hi
