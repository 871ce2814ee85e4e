"""End-to-end certified proof of a homoclinic orbit to L1.

The pipeline certifies, for each mass parameter mu in a closed interval:
the fixed point in straightened local coordinates (interval Newton), the
derivative of the local field over the manifold enclosure N (subdivided
hull), the flow cone conditions, and the transported manifold window U.
The two interval endpoints then get certified Poincare images on {Y = 0}
with opposite P_X signs, while mu subinterval fragments certify that the
Poincare map stays well defined across the whole parameter band; the
intermediate value theorem closes the argument.

All set operations round outward; every verdict holds for every point
selection inside the interval inputs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

from .cones import FlowConeCertificate, flow_cone_check
from .flow import (
    EnclosureFailure,
    FlowEnclosure,
    LostCrossing,
    Section,
    TransversalityFailure,
    poincare_crossing,
)
from .interval import (
    Box,
    IMatrix,
    Interval,
    IVector,
    decimal_to_interval,
    sqrt,
)
from .linalg import interval_newton
from .manifold import ManifoldCertificate, UnverifiedCones, certify
from .rtbp import (
    ChartError,
    LocalChart,
    RtbpParams,
    RtbpTaylorField,
    d_total_change,
    jordan_basis,
    local_field,
    local_jacobian,
    total_change,
)

__all__ = [
    "StageFailure",
    "ProofConfig",
    "StageResult",
    "CertifiedUnstable",
    "CrossingResult",
    "EndpointResult",
    "FragmentResult",
    "ProofReport",
    "SignViolation",
    "enclose_fixed_point",
    "build_N",
    "enclose_DF_over_N",
    "certify_unstable",
    "Launch",
    "launch_chain",
    "chart_seeded_enclosure",
    "poincare_image",
    "run_endpoint",
    "run_fragment",
    "check_homoclinic",
]


class StageFailure(RuntimeError):
    """A proof stage could not certify its claim."""


class SignViolation(StageFailure):
    """An image is certified sign-definite, but with the wrong sign.

    Unlike an indefinite enclosure this cannot improve under
    subdivision, so fallbacks skip straight to the failure report.
    """


_RECOVERABLE = (
    StageFailure,
    ChartError,
    UnverifiedCones,
    EnclosureFailure,
    TransversalityFailure,
    LostCrossing,
    ArithmeticError,
)


def _slice_cuts(lo: float, hi: float, k: int) -> list[tuple[float, float]]:
    """k consecutive float pairs covering [lo, hi] exactly.

    The first pair starts at lo, the last ends at hi, neighbours share
    their cut, and the cuts never decrease.  This is the one way the
    proof splits an interval: mass bands, mass fragments, the unstable
    axis of N and the transversal axes of a launch window.
    """
    w = hi - lo
    cuts = [lo]
    for i in range(1, k):
        if w < math.inf:
            t = lo + w * i / k
        else:  # hi - lo overflows: weight the endpoints instead
            t = lo * ((k - i) / k) + hi * (i / k)
        cuts.append(min(hi, max(cuts[-1], t)))
    cuts.append(hi)
    return list(zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class ProofConfig:
    """Frozen parameters of one proof attempt.

    The mass endpoints are decimal strings so the enclosed rationals are
    reproducible across platforms; everything else is plain floats and
    counts.

    Fragments run their cone stage at fragment_alpha_h instead of
    alpha_h.  An interval-valued mass parameter decorrelates the chart
    from the field and leaves irreducible noise of a few 1e-7 in the
    subdiagonal derivative column; the horizontal cone condition weighs
    that column by 1/alpha_h, so the endpoint value 1e-8 would demand
    noise below 4e-8 that no subdivision can reach.  A fatter horizontal
    cone costs only a wider (still certified) manifold window, which the
    well-definedness flights tolerate easily; the thin cone stays
    reserved for the endpoint sign checks that need razor images.

    Each fragment is further cut into fragment_mu_slices equal mass
    slices and the whole chain (chart, fixed point, cones, flight) runs
    once per slice.  The launch box over an interval mass carries the
    fixed point's motion with the mass as irreducible width, and the
    flight stretches that width by the accumulated unstable factor of
    about 1e7; past roughly 1e-2 the enclosure enters a quadratic
    feedback (wider box, wider variational bounds, wider remainder) and
    bursts.  Slicing shrinks the launch width linearly with no loss of
    coverage; four slices keep the peak near 1e-2 while two still burst,
    and the retry doubles the count for stragglers.
    """

    mu_left: str
    mu_right: str
    alpha_h: float = 1e-8
    alpha_v: float = 1e-4
    fragment_alpha_h: float = 1e-5
    r_u: float = 1e-7
    c_h: float = 1.0
    c_v: float = 2.8
    newton_radius: float = 1e-8
    endpoint_subdivision: int = 256
    fragment_subdivision: int = 32
    fragments: int = 20
    fragment_mu_slices: int = 4
    order: int = 20
    tolerance: float = 3e-15
    h_init: float = 0.02
    h_min: float = 1e-9
    h_max: float = 0.12
    max_flight_time: float = 12.0

    def __post_init__(self):
        left = decimal_to_interval(self.mu_left)
        right = decimal_to_interval(self.mu_right)
        if not left.hi < right.lo:
            raise ValueError("mu_left must be strictly below mu_right")
        if not (0.0 < left.lo and right.hi < 1.0):
            raise ValueError("mass parameters must lie inside (0, 1)")
        for name in ("alpha_h", "alpha_v", "fragment_alpha_h"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        for name in (
            "r_u", "newton_radius", "tolerance", "h_init", "h_min", "h_max",
            "max_flight_time",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.c_h < self.c_v:
            raise ValueError("need 0 < c_h < c_v")
        for name in (
            "endpoint_subdivision", "fragment_subdivision", "fragments",
            "fragment_mu_slices",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.order < 2:
            raise ValueError("order must be at least 2")

    @classmethod
    def default(cls) -> "ProofConfig":
        return cls(mu_left="0.0042538634220", mu_right="0.0042538636220")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ProofConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def mu_interval(self) -> Interval:
        return decimal_to_interval(self.mu_left).hull(
            decimal_to_interval(self.mu_right)
        )

    def fragment_intervals(self) -> list[tuple[float, float]]:
        """Consecutive float pairs covering [mu_left, mu_right] exactly."""
        hull = self.mu_interval()
        return _slice_cuts(hull.lo, hull.hi, self.fragments)


@dataclass(frozen=True)
class StageResult:
    name: str
    verified: bool
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # wall clock stays out of the JSON: serialized reports are
        # bit-identical across reruns of the same config
        return {
            "name": self.name,
            "verified": self.verified,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CertifiedUnstable:
    """Cone certificate plus the manifold window it guarantees."""

    cones: FlowConeCertificate
    manifold: ManifoldCertificate
    U_local: Box
    U_original: Box


@dataclass(frozen=True)
class CrossingResult:
    image: Box
    time: Interval
    direction: int


@dataclass
class EndpointResult:
    side: str
    mu: str
    verified: bool
    stages: list
    B: Box | None = None
    dfn: IMatrix | None = None
    cones: FlowConeCertificate | None = None
    manifold: ManifoldCertificate | None = None
    U_local: Box | None = None
    U_original: Box | None = None
    poincare_image: Box | None = None
    crossing_time: Interval | None = None
    px_sign: int = 0
    subboxes: int = 1
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "mu": self.mu,
            "verified": self.verified,
            "stages": [s.to_json() for s in self.stages],
            "B": None if self.B is None else self.B.to_json(),
            "DFN": None if self.dfn is None else self.dfn.to_json(),
            "cone_margins": (
                None if self.cones is None else self.cones.margins
            ),
            "manifold": (
                None if self.manifold is None else self.manifold.to_json()
            ),
            "U_local": (
                None if self.U_local is None else self.U_local.to_json()
            ),
            "U_original": (
                None if self.U_original is None else self.U_original.to_json()
            ),
            "poincare_image": (
                None
                if self.poincare_image is None
                else self.poincare_image.to_json()
            ),
            "crossing_time": (
                None
                if self.crossing_time is None
                else self.crossing_time.to_json()
            ),
            "px_sign": self.px_sign,
            "subboxes": self.subboxes,
            "failure": self.failure,
        }


@dataclass
class FragmentResult:
    index: int
    mu_lo: float
    mu_hi: float
    verified: bool
    seconds: float
    retried: bool = False
    slices: int = 1
    crossing_time: Interval | None = None
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "mu_lo": self.mu_lo,
            "mu_hi": self.mu_hi,
            "verified": self.verified,
            "retried": self.retried,
            "slices": self.slices,
            "crossing_time": (
                None
                if self.crossing_time is None
                else self.crossing_time.to_json()
            ),
            "failure": self.failure,
        }


@dataclass
class ProofReport:
    config: ProofConfig
    left: EndpointResult
    right: EndpointResult
    fragments: list
    verdict: str
    total_seconds: float

    @property
    def proved(self) -> bool:
        return self.verdict == "PROVED"

    # fixed statements of convention, serialized with every report
    CONVENTIONS = (
        "cone conditions run on the unscaled local derivative blocks; "
        "the alpha weights enter through the norm inflation terms",
        "the launch window keeps the full fixed-point box width in its "
        "unstable coordinate (not collapsed to the midpoint)",
        "timings appear only in the text rendering; the JSON payload is "
        "deterministic for a fixed config",
    )

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
            "fragments": [f.to_json() for f in self.fragments],
            "verdict": self.verdict,
            "conventions": list(self.CONVENTIONS),
        }

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        cfg = self.config
        lines.append(f"homoclinic verdict: {self.verdict}")
        lines.append(
            f"mass parameter band: [{cfg.mu_left}, {cfg.mu_right}]"
        )
        lines.append(
            f"cone constants: c_h={cfg.c_h:g} c_v={cfg.c_v:g} "
            f"alpha_h={cfg.alpha_h:g} alpha_v={cfg.alpha_v:g} r_u={cfg.r_u:g}"
        )
        for ep in (self.left, self.right):
            lines.append("")
            lines.append(
                f"endpoint {ep.side} (mu={ep.mu}): "
                f"{'verified' if ep.verified else 'FAILED'}"
            )
            for st in ep.stages:
                mark = "ok" if st.verified else "FAIL"
                lines.append(f"  [{mark:4s}] {st.name:12s} {st.seconds:8.3f} s")
            if ep.poincare_image is not None:
                px = ep.poincare_image[2]
                lines.append(
                    f"  P_X image: [{px.lo:.6e}, {px.hi:.6e}] "
                    f"(sign {ep.px_sign:+d}, {ep.subboxes} subbox"
                    f"{'es' if ep.subboxes != 1 else ''})"
                )
            if ep.crossing_time is not None:
                t = ep.crossing_time
                lines.append(
                    f"  crossing time: [{t.lo:.8f}, {t.hi:.8f}]"
                )
            if ep.failure:
                lines.append(f"  failure: {ep.failure}")
        lines.append("")
        ok = sum(1 for f in self.fragments if f.verified)
        lines.append(
            f"fragments: {ok}/{len(self.fragments)} well defined"
        )
        for f in self.fragments:
            mark = "ok" if f.verified else "FAIL"
            retry = " (retried)" if f.retried else ""
            lines.append(
                f"  [{mark:4s}] #{f.index:02d} "
                f"mu in [{f.mu_lo:.12f}, {f.mu_hi:.12f}] "
                f"{f.seconds:7.2f} s, {f.slices} slices{retry}"
            )
            if f.failure:
                lines.append(f"         failure: {f.failure}")
        lines.append("")
        lines.append(f"total wall clock: {self.total_seconds:.1f} s")
        return "\n".join(lines)


# -- proof stages ---------------------------------------------------------------


def enclose_fixed_point(
    chart: LocalChart, params: RtbpParams, cfg: ProofConfig
) -> Box:
    """Interval Newton enclosure of the fixed point in local coordinates.

    The start box is the newton_radius cube around the local origin; the
    claim is a unique zero of the local field inside the returned box,
    valid for every mass parameter in the chart's enclosure.
    """
    r = cfg.newton_radius
    start = IVector([Interval(-r, r)] * 4)

    def f(b: Box) -> IVector:
        return local_field(b, chart, params)

    def df(b: Box) -> IMatrix:
        return local_jacobian(b, chart, params)

    result = interval_newton(f, df, start, x0=[0.0, 0.0, 0.0, 0.0])
    if result.verdict != "UniqueRoot":
        raise StageFailure(
            f"fixed point enclosure inconclusive: {result.verdict}"
        )
    return result.root_box


def build_N(b: Box, cfg: ProofConfig) -> Box:
    """Manifold enclosure N = B + [0, r_u] x [-r_u sqrt(a_h), ...]^3."""
    s = (Interval(cfg.r_u) * sqrt(Interval(cfg.alpha_h))).hi
    return IVector(
        [b[0] + Interval(0.0, cfg.r_u)]
        + [b[i] + Interval(-s, s) for i in (1, 2, 3)]
    )


def enclose_DF_over_N(
    chart: LocalChart,
    params: RtbpParams,
    n_box: Box,
    subdivision: int,
) -> IMatrix:
    """Entrywise hull of the local-field derivative over N.

    Only the unstable axis is split: it carries the whole r_u extent
    while the transversal axes are alpha_h-thin, so uniform splitting
    along axis 0 removes essentially all dependency overestimation.
    """
    if subdivision < 1:
        raise ValueError("subdivision must be at least 1")
    out = None
    for a, b in _slice_cuts(n_box[0].lo, n_box[0].hi, subdivision):
        piece = IVector([Interval(a, b), n_box[1], n_box[2], n_box[3]])
        m = local_jacobian(piece, chart, params)
        out = m if out is None else out.hull(m)
    return out


def _split_blocks(dfn: IMatrix):
    a = IMatrix([[dfn.rows[0][0]]])
    bm = IMatrix([[dfn.rows[i][j] for j in (1, 2, 3)] for i in (1, 2, 3)])
    e1 = IMatrix([[dfn.rows[0][j] for j in (1, 2, 3)]])
    e2 = IMatrix([[dfn.rows[i][0]] for i in (1, 2, 3)])
    return a, bm, e1, e2


def certify_unstable(
    chart: LocalChart,
    b: Box,
    n_box: Box,
    dfn: IMatrix,
    cfg: ProofConfig,
) -> CertifiedUnstable:
    """Flow cone conditions on the (unstable | rest) blocks of [DF(N)],
    promoted to a manifold certificate, plus the window U the strong
    unstable manifold passes through (local and original coordinates).
    """
    a, bm, e1, e2 = _split_blocks(dfn)
    cones = flow_cone_check(
        a, bm, e1, e2, cfg.alpha_h, cfg.alpha_v, cfg.c_h, cfg.c_v,
        domain=n_box,
    )
    if not cones.verified:
        failed = [k for k, pd in cones.conditions.items() if not pd.verified]
        err = StageFailure(f"cone conditions failed: {failed}")
        err.cones = cones
        raise err
    cert = certify(
        "FlowUnstable", cones, cfg.alpha_h, cfg.alpha_v,
        fixed_point_box=b, domain=n_box,
    )
    ru = Interval(cfg.r_u)
    u0 = ru * sqrt(1.0 - Interval(cfg.alpha_v))
    s = (ru * sqrt(Interval(cfg.alpha_h))).hi
    u_local = IVector(
        [b[0] + u0] + [b[i] + Interval(-s, s) for i in (1, 2, 3)]
    )
    u_original = total_change(u_local, chart)
    return CertifiedUnstable(cones, cert, u_local, u_original)


def chart_seeded_enclosure(chart: LocalChart, box_local: Box) -> FlowEnclosure:
    """Flow enclosure of the chart image of a local box, seeded so the
    initial-part basis is the chart derivative at the box midpoint.

    Phi(xi) is written by the mean value theorem around the midpoint; the
    local axes (flow-aligned axis 0, transversal 1..3) then stay
    separated in the transported initial part instead of being mixed
    into an axis-aligned box, which is what keeps the eventual Poincare
    image thin.
    """
    qm = box_local.mid()
    q_mid = IVector.from_floats(qm)
    phi_qm = total_change(q_mid, chart)
    mid = [c.mid for c in phi_qm]
    dphi = d_total_change(box_local, chart)
    c0 = dphi.mid()
    dc = dphi - IMatrix.from_floats(c0)
    r0 = box_local - q_mid
    err = (phi_qm - IVector.from_floats(mid)) + dc.matvec(r0)
    identity = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    return FlowEnclosure(
        mid, identity, err, Interval(0.0),
        init_basis=c0, init_remainder=r0,
    )


def poincare_image(
    chart: LocalChart,
    params: RtbpParams,
    u_local: Box,
    cfg: ProofConfig,
) -> CrossingResult:
    """Certified first crossing of {Y = 0} for the chart image of
    u_local, with the crossing direction derived from the starting side.
    """
    u_orig = total_change(u_local, chart)
    y = u_orig[1]
    if 0.0 in y:
        raise StageFailure("initial set touches the section")
    direction = 1 if y.hi < 0.0 else -1
    enc = chart_seeded_enclosure(chart, u_local)
    field_ = RtbpTaylorField(params)
    crossing = poincare_crossing(
        field_,
        enc,
        Section(1, 0.0, direction),
        order=cfg.order,
        tol=cfg.tolerance,
        h_init=cfg.h_init,
        h_min=cfg.h_min,
        h_max=cfg.h_max,
        max_time=cfg.max_flight_time,
    )
    return CrossingResult(crossing.as_box(), crossing.time, direction)


def _split_transversal(u_local: Box) -> list:
    """One halving level of the three transversal axes: 8 subboxes."""
    halves = [
        [Interval(a, b) for a, b in _slice_cuts(c.lo, c.hi, 2)]
        for c in u_local[1:]
    ]
    return [
        IVector([u_local[0], y1, y2, y3])
        for y1 in halves[0]
        for y2 in halves[1]
        for y3 in halves[2]
    ]


# -- the launch chain -------------------------------------------------------------


def _timed(stages: list, name: str, fn):
    t0 = time.perf_counter()
    try:
        value, detail = fn()
    except Exception as exc:
        stages.append(
            StageResult(
                name, False, time.perf_counter() - t0, {"error": str(exc)}
            )
        )
        raise
    stages.append(StageResult(name, True, time.perf_counter() - t0, detail))
    return value


@dataclass
class Launch:
    """What the launch chain certified for one mass enclosure.

    Fields past the first failed stage stay None; failure then says why.
    """

    chart: LocalChart | None = None
    B: Box | None = None
    dfn: IMatrix | None = None
    unstable: CertifiedUnstable | None = None
    failure: str | None = None


def launch_chain(
    params: RtbpParams, cfg: ProofConfig, subdivision: int, stages: list
) -> Launch:
    """Chart, fixed point, N, [DF(N)] split into `subdivision` pieces, and
    the cone certificate with its launch window, for one mass enclosure.

    Every stage appends its StageResult to `stages`.  A recoverable
    failure ends the chain and is reported in Launch.failure; the flight
    from the window is left to the caller.
    """
    out = Launch()
    try:
        def mk_chart():
            chart = jordan_basis(params)
            return chart, {
                "lambda": chart.lam.to_json(),
                "v": chart.v.to_json(),
            }

        out.chart = _timed(stages, "chart", mk_chart)

        def mk_fixed():
            b = enclose_fixed_point(out.chart, params, cfg)
            return b, {"half_widths": [0.5 * w for w in b.widths()]}

        out.B = _timed(stages, "fixed_point", mk_fixed)

        def mk_dfn():
            n_box = build_N(out.B, cfg)
            dfn = enclose_DF_over_N(out.chart, params, n_box, subdivision)
            return (n_box, dfn), {
                "subdivision": subdivision,
                "unstable_diag": dfn.rows[0][0].to_json(),
                "center_rotation": dfn.rows[2][3].to_json(),
            }

        n_box, out.dfn = _timed(stages, "derivative", mk_dfn)

        def mk_cones():
            cu = certify_unstable(out.chart, out.B, n_box, out.dfn, cfg)
            return cu, {"margins": cu.cones.margins}

        out.unstable = _timed(stages, "cones", mk_cones)
    except _RECOVERABLE as exc:
        out.failure = str(exc)
    return out


# -- endpoint and fragment runs ---------------------------------------------------


def _signed_image(chart, params, u_local, cfg, want_negative):
    """One endpoint flight whose P_X image must certify the wanted sign."""
    cr = poincare_image(chart, params, u_local, cfg)
    px = cr.image[2]
    if px.hi < 0.0 if want_negative else px.lo > 0.0:
        return cr
    if not px.contains_zero():
        # certified, but the wrong sign outright: subdividing the launch
        # set cannot help
        raise SignViolation(
            f"P_X certified with the wrong sign: [{px.lo:.3e}, {px.hi:.3e}]"
        )
    raise StageFailure(f"P_X sign indefinite: [{px.lo:.3e}, {px.hi:.3e}]")


def run_endpoint(
    side: str, mu_decimal: str, cfg: ProofConfig
) -> EndpointResult:
    """Full certified chain for one mass endpoint, with the strict P_X
    sign check (negative on the left endpoint, positive on the right).

    If the single flight cannot certify a strict sign, the initial set
    is split one level across its transversal axes (8 subboxes) and the
    sign must certify on every subbox; the reported image is the hull.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    want_negative = side == "left"
    stages: list = []
    result = EndpointResult(side=side, mu=mu_decimal, verified=False,
                            stages=stages)
    params = RtbpParams(decimal_to_interval(mu_decimal))
    launch = launch_chain(params, cfg, cfg.endpoint_subdivision, stages)
    result.B = launch.B
    result.dfn = launch.dfn
    if launch.failure is not None:
        result.failure = launch.failure
        return result
    cu = launch.unstable
    result.cones = cu.cones
    result.manifold = cu.manifold
    result.U_local = cu.U_local
    result.U_original = cu.U_original

    def fly(pieces):
        crossings = [
            _signed_image(launch.chart, params, p, cfg, want_negative)
            for p in pieces
        ]
        image, tspan = crossings[0].image, crossings[0].time
        for cr in crossings[1:]:
            image = image.hull(cr.image)
            tspan = tspan.hull(cr.time)
        return (image, tspan, len(pieces)), {
            "px": image[2].to_json(),
            "subboxes": len(pieces),
            "direction": crossings[0].direction,
        }

    def mk_flight():
        try:
            return fly([cu.U_local])
        except SignViolation:
            raise
        except _RECOVERABLE:
            return fly(_split_transversal(cu.U_local))

    try:
        image, tspan, used = _timed(stages, "poincare", mk_flight)
    except _RECOVERABLE as exc:
        result.failure = str(exc)
        return result
    result.poincare_image = image
    result.crossing_time = tspan
    result.subboxes = used
    result.px_sign = -1 if image[2].hi < 0.0 else 1
    result.verified = True
    return result


def run_fragment(
    index: int, mu_lo: float, mu_hi: float, cfg: ProofConfig
) -> FragmentResult:
    """Well-definedness of the Poincare map on one mu subinterval.

    The subinterval is cut into fragment_mu_slices slices and the whole
    chain runs per slice over its interval-valued mass parameter; every
    flight must certify a single transversal first crossing (no sign
    claim).  One retry with doubled derivative subdivision and doubled
    slice count is allowed.
    """
    t0 = time.perf_counter()
    out = FragmentResult(index, mu_lo, mu_hi, False, 0.0)
    eff = replace(cfg, alpha_h=cfg.fragment_alpha_h)
    subdivision = cfg.fragment_subdivision
    slices = cfg.fragment_mu_slices
    for attempt in (0, 1):
        try:
            hull = None
            for lo, hi in _slice_cuts(mu_lo, mu_hi, slices):
                params = RtbpParams(Interval(lo, hi))
                launch = launch_chain(params, eff, subdivision, [])
                if launch.failure is not None:
                    raise StageFailure(launch.failure)
                cr = poincare_image(
                    launch.chart, params, launch.unstable.U_local, eff
                )
                hull = cr.time if hull is None else hull.hull(cr.time)
            out.verified = True
            out.slices = slices
            out.crossing_time = hull
            out.failure = None
            break
        except _RECOVERABLE as exc:
            out.failure = str(exc)
            out.slices = slices
            if attempt == 0:
                out.retried = True
                subdivision *= 2
                slices *= 2
    out.seconds = time.perf_counter() - t0
    return out


def check_homoclinic(cfg: ProofConfig) -> ProofReport:
    """Run the whole proof: both endpoints, then every fragment.

    PROVED requires the left P_X image strictly negative, the right one
    strictly positive, and the Poincare map well defined on every
    fragment; anything less is NOT_PROVED (never a disproof).
    """
    t0 = time.perf_counter()
    left = run_endpoint("left", cfg.mu_left, cfg)
    right = run_endpoint("right", cfg.mu_right, cfg)
    fragments = [
        run_fragment(i, lo, hi, cfg)
        for i, (lo, hi) in enumerate(cfg.fragment_intervals())
    ]
    ok = (
        left.verified
        and left.px_sign < 0
        and right.verified
        and right.px_sign > 0
        and all(f.verified for f in fragments)
    )
    verdict = "PROVED" if ok else "NOT_PROVED"
    return ProofReport(
        config=cfg,
        left=left,
        right=right,
        fragments=fragments,
        verdict=verdict,
        total_seconds=time.perf_counter() - t0,
    )
