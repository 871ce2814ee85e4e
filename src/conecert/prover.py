"""End-to-end certified proof of a homoclinic orbit to L1.

One launch chain (launch_chain) runs for every mass enclosure, endpoint
or fragment: the chart, the derivative of the local field over the
manifold enclosure N around the fixed point at the chart origin
(subdivided hull), the flow cone conditions with the launch window U
they guarantee, and one certified flight of U to its first crossing of
{Y = 0}.  The two band endpoints need P_X images of opposite signs,
which run_endpoint checks on the chain's crossing, while mu subinterval
fragments certify that the Poincare map stays well defined across the
whole parameter band; the intermediate value theorem closes the
argument.

Fragments.  The launch chain over a fragment's interval mass encloses a
chart Phi_mu = L1(mu) + C(mu) psi for every mass mu in it: the chart's
interval L1 and C contain the values at mu, so the derivative over N
and the cone certificate hold for the local field of each Phi_mu, and
psi(0) = 0 puts every mass's fixed point at the origin.  The cone
theorem makes the strong unstable manifold of each mass a graph over
the unstable coordinate, with Lipschitz constant sqrt(alpha_h), on a
window reaching r_u r past the origin.  The launch coordinate x0 is a
single float in (0, r_u r], so it is in every mass's graph window: the
launch point of mass mu is on W^u(mu), depends continuously on mu, and
has transversal coordinates within sqrt(alpha_h) r_u of 0.  One band
flight carries the mass as a fifth coordinate and certifies the first
crossing of {Y = 0} for all these launch points at once.

All set operations round outward; every verdict holds for every point
selection inside the interval inputs.
"""

from __future__ import annotations

import contextlib
import functools
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
    eye,
    sqrt,
)
from .manifold import UnverifiedCones, launch_window
from .rtbp import (
    ChartError,
    LocalChart,
    RtbpParams,
    RtbpTaylorField,
    _chart_frame,
    _piece_terms,
    d_total_change,
    jordan_basis,
    libration_L1,
    libration_L1_slope,
    local_jacobian,
    psi,
    total_change,
)

__all__ = [
    "ProofConfig",
    "StageResult",
    "CertifiedUnstable",
    "CrossingResult",
    "EndpointResult",
    "FragmentResult",
    "ProofReport",
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


_RECOVERABLE = (
    UnverifiedCones,
    ChartError,
    EnclosureFailure,
    TransversalityFailure,
    LostCrossing,
    ArithmeticError,
)


def _slice_cuts(lo: float, hi: float, k: int) -> list[tuple[float, float]]:
    """k consecutive float pairs covering [lo, hi] exactly.

    The first pair starts at lo, the last ends at hi, neighbours share
    their cut, and the cuts never decrease.  This is the one way the
    proof splits an interval: mass bands, mass fragments and the
    unstable axis of N.
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


def _check_count(name: str, v) -> None:
    """A count: an int, not a bool, of at least 1, else ValueError."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an int")
    if v < 1:
        raise ValueError(f"{name} must be at least 1")


_FLOAT_FIELDS = ("alpha_h", "alpha_v", "fragment_alpha_h", "r_u", "c_h", "c_v")


@dataclass(frozen=True)
class ProofConfig:
    """Frozen parameters of one proof attempt.

    The mass endpoints are decimal strings so the enclosed rationals are
    reproducible across platforms; everything else is plain floats and
    counts.  The integrator's settings are not fields: every flight uses
    flow's defaults.  Nor is there a fixed-point setting, since every
    mass's fixed point is the chart origin (see enclose_fixed_point).

    Fragments run their cone stage at fragment_alpha_h instead of
    alpha_h.  An interval-valued mass parameter decorrelates the chart
    from the field and leaves noise in the subdiagonal derivative
    column: on a 1e-11 fragment at alpha_h = 1e-8, rows 1-3 of column 0
    are (4.8, 1.9, 1.6)e-7 wide at 256 pieces and (4.6, 1.8, 1.5)e-7 at
    1024, a norm ||eps2|| of about 2.6e-7.  The horizontal expanding
    condition A - (||eps1|| + ||eps2|| / alpha_h) / 2 > c_h weighs that
    column by 1/alpha_h, so it needs ||eps2|| below about
    2 alpha_h (lambda - c_h) = 3.6e-8, which no subdivision reaches.  A
    fatter horizontal cone costs only a wider (still certified) manifold
    window, which the well-definedness flights tolerate easily; the thin
    cone stays reserved for the endpoint sign checks that need razor
    images.

    Each fragment flies one band flight, with the mass as a fifth
    coordinate (see run_fragment).  fragment_mu_slices is the number of
    band flights of the one retry a failed fragment gets.
    """

    mu_left: str
    mu_right: str
    alpha_h: float = 1e-8
    alpha_v: float = 1e-4
    fragment_alpha_h: float = 1e-5
    r_u: float = 1e-7
    c_h: float = 1.0
    c_v: float = 2.8
    endpoint_subdivision: int = 256
    fragment_subdivision: int = 8
    fragments: int = 20
    fragment_mu_slices: int = 4

    def __post_init__(self):
        for name in ("mu_left", "mu_right"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a decimal string")
        for name in _FLOAT_FIELDS:
            v = getattr(self, name)
            if (
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or not math.isfinite(v)
            ):
                raise ValueError(f"{name} must be a finite real number")
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
        if not self.r_u > 0.0:
            raise ValueError("r_u must be positive")
        if not 0.0 < self.c_h < self.c_v:
            raise ValueError("need 0 < c_h < c_v")
        for name in ("endpoint_subdivision", "fragment_subdivision",
                     "fragments", "fragment_mu_slices"):
            _check_count(name, getattr(self, name))

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


def _json_or_none(x):
    return None if x is None else x.to_json()


@dataclass(frozen=True)
class CertifiedUnstable:
    """Cone certificate plus the launch window it guarantees."""

    cones: FlowConeCertificate
    U_local: Box
    U_original: Box


@dataclass(frozen=True)
class CrossingResult:
    image: Box
    time: Interval


@dataclass
class EndpointResult:
    """Outcome of run_endpoint, verified with its side's strict P_X sign.

    There is no fixed-point box: the fixed point is the chart origin for
    every mass.  subboxes is always 1, since an endpoint flies its launch
    window once.  It stays, with its report key, because the benchmark
    harness reads the attribute.
    """

    side: str
    mu: str
    verified: bool
    stages: list
    dfn: IMatrix | None = None
    cones: FlowConeCertificate | None = None
    U_local: Box | None = None
    U_original: Box | None = None
    poincare_image: Box | None = None
    crossing_time: Interval | None = None
    subboxes: int = 1
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "mu": self.mu,
            "verified": self.verified,
            "stages": [s.to_json() for s in self.stages],
            "DFN": _json_or_none(self.dfn),
            "cone_margins": (
                None if self.cones is None else self.cones.margins
            ),
            "U_local": _json_or_none(self.U_local),
            "U_original": _json_or_none(self.U_original),
            "poincare_image": _json_or_none(self.poincare_image),
            "crossing_time": _json_or_none(self.crossing_time),
            "subboxes": self.subboxes,
            "failure": self.failure,
        }


@dataclass
class FragmentResult:
    """Outcome of run_fragment; slices counts the band flights of the
    attempt that decided it (1 unless the fragment was retried)."""

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
            "crossing_time": _json_or_none(self.crossing_time),
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
        "the launch window's unstable coordinate is one point x0, the "
        "lower end of r_u r; the chart origin is the fixed point of every "
        "mass in the enclosure, so x0 lies in each mass's graph window",
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
                lines.append(f"  P_X image: [{px.lo:.6e}, {px.hi:.6e}]")
            if ep.crossing_time is not None:
                t = ep.crossing_time
                lines.append(
                    f"  crossing time: [{t.lo:.8f}, {t.hi:.8f}]"
                )
            if ep.failure:
                lines.append(f"  failure: {ep.failure}")
        lines.append("")
        if not self.fragments:
            failed = [ep.side for ep in (self.left, self.right)
                      if not ep.verified]
            lines.append(
                f"fragments: not run, the {' and '.join(failed)} endpoint"
                f"{'s' if len(failed) > 1 else ''} failed, so no fragment "
                "could change the verdict"
            )
        else:
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
                f"{f.seconds:7.2f} s, {f.slices} band flight"
                f"{'s' if f.slices != 1 else ''}{retry}"
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
    """The fixed point in local coordinates: the origin, exactly.

    The chart of mass mu is Phi_mu = L1(mu) + C(mu) psi, and psi(0) = 0
    exactly (psi has no constant term), so Phi_mu(0) = L1(mu), where
    F_mu(L1(mu)) = 0.  The local
    field D(Phi_mu)^-1 F_mu(Phi_mu) therefore vanishes at the origin for
    every mass mu in the chart's enclosure, whose L1 and C jordan_basis
    certifies to contain L1(mu) and C(mu).  No arguments are read; the
    signature stays because proofbench/workloads.py calls it with all
    three.
    """
    return IVector([Interval(0.0)] * 4)


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

    The pieces run one at a time (rtbp.local_jacobian, on float pairs)
    and the hull is the least lower and the greatest upper end of each
    entry over them, the first in piece order on a tie, as a chain of
    Interval.hull calls takes it.  A failure of a piece, such as one that
    reaches a primary, propagates as raised; a subdivision that is not an
    int of at least 1 raises ValueError.

    The pieces' half that reads no mass, the rtbp._piece_terms of each
    piece, comes from _n_pieces, an lru_cache of two entries for the
    proof's two N, the endpoints' and the fragments', each at its
    subdivision.  The key is the float.hex of N's ends, so -0.0 and 0.0
    differ, and the subdivision; the cached terms are tuples.  The
    chart's half, rtbp._chart_frame, is formed once per call.
    """
    _check_count("subdivision", subdivision)
    key = tuple((c.lo.hex(), c.hi.hex()) for c in n_box)
    frame = _chart_frame(chart, params)
    ends = [local_jacobian(frame, piece)
            for piece in _n_pieces(key, subdivision)]
    lo = [min(e) for e in zip(*[lo for lo, _ in ends])]
    hi = [max(e) for e in zip(*[hi for _, hi in ends])]
    return IMatrix([[Interval(lo[k], hi[k]) for k in range(i, i + 4)]
                    for i in range(0, 16, 4)])


@functools.lru_cache(maxsize=2)
def _n_pieces(key: tuple, subdivision: int) -> tuple:
    """The rtbp._piece_terms of the pieces of N, from the float.hex
    pairs of key, split along axis 0 into subdivision pieces."""
    n = [Interval(float.fromhex(lo), float.fromhex(hi)) for lo, hi in key]
    return tuple(_piece_terms(IVector([Interval(a, b)] + n[1:]))
                 for a, b in _slice_cuts(n[0].lo, n[0].hi, subdivision))


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
    """Flow cone conditions on the (unstable | rest) blocks of [DF(N)]
    over n_box, plus the launch window U they guarantee (local and
    original coordinates).

    b is the fixed-point box, the origin in the proof.  U has one
    unstable coordinate x0 for every mass of the enclosure (see the
    module docstring); manifold.UnverifiedCones when the cones fail or
    x0 would not clear b, which a wide b or a tiny r_u can cause.
    """
    a, bm, e1, e2 = _split_blocks(dfn)
    cones = flow_cone_check(
        a, bm, e1, e2, cfg.alpha_h, cfg.alpha_v, cfg.c_h, cfg.c_v
    )
    u_local = launch_window(cones, b, cfg.r_u)
    return CertifiedUnstable(cones, u_local, total_change(u_local, chart))


def chart_seeded_enclosure(
    chart: LocalChart, box_local: Box, band: Interval | None = None
) -> FlowEnclosure:
    """Flow enclosure of the chart image of a local box, seeded so the
    initial-part basis is the chart derivative at the box midpoint.

    Phi(xi) is written by the mean value theorem around the midpoint; the
    local axes (flow-aligned axis 0, transversal 1..3) then stay
    separated in the transported initial part instead of being mixed
    into an axis-aligned box, which is what keeps the eventual Poincare
    image thin.

    With a mass band (inside the chart's mass enclosure) the set is the
    band launch set in (X, Y, P_X, P_Y, mu): the points
    (L1(mu) + C psi(xi), mu) for every mu in the band, where L1(mu) is
    the libration point of that mass.  It is written as
    L1(mu0) + L1'([mu]) (mu - mu0) + C psi(xi) around the band midpoint
    mu0; mu - mu0 is one more initial coordinate, with the basis column
    (s, 0, 0, s, 1) for the midpoint s of the slope L1'([mu]), and the
    slope's spread joins the error part.  The chart's interval L1, as
    wide as the fixed point's motion over the band, never enters.
    """
    qm = box_local.mid()
    q_mid = IVector.from_floats(qm)
    c_psi = chart.C.matvec(psi(q_mid))
    dphi = d_total_change(box_local, chart)
    c0 = dphi.mid()
    dc = dphi - IMatrix.from_floats(c0)
    r0 = box_local - q_mid
    if band is None:
        phi_qm = chart.L1 + c_psi
        mid = [c.mid for c in phi_qm]
        err = (phi_qm - IVector.from_floats(mid)) + dc.matvec(r0)
        return FlowEnclosure(
            mid, eye(4), err, Interval(0.0),
            init_basis=c0, init_remainder=r0,
        )
    if not band.is_subset_of(chart.mu):
        raise ValueError("mass band outside the chart's mass enclosure")
    mu0 = band.mid
    # chart.L1 encloses L1(mu) for every mu of chart.mu, hence of the band
    slope = libration_L1_slope(RtbpParams(band), chart.L1[0])
    s = slope.mid
    dmu = band - mu0
    tail = (slope - s) * dmu
    zero = Interval(0.0)
    phi_qm = libration_L1(RtbpParams(Interval(mu0))) + c_psi
    mid = [c.mid for c in phi_qm]
    err = (
        (phi_qm - IVector.from_floats(mid))
        + dc.matvec(r0)
        + IVector([tail, zero, zero, tail])
    )
    basis = [row + [s if i in (0, 3) else 0.0] for i, row in enumerate(c0)]
    return FlowEnclosure(
        mid + [mu0], eye(5), IVector(err.c + [zero]), Interval(0.0),
        init_basis=basis + [[0.0, 0.0, 0.0, 0.0, 1.0]],
        init_remainder=IVector(r0.c + [dmu]),
    )


def poincare_image(
    chart: LocalChart, params: RtbpParams, u_local: Box, band: bool = False,
) -> CrossingResult:
    """Certified first crossing of {Y = 0} for the chart image of
    u_local.  poincare_crossing reads the side to cross from off the
    launch set, and a launch set that touches {Y = 0} is LostCrossing.

    band=True flies the band flight: the mass is a fifth coordinate
    ranging over params.mu, the launch set is chart_seeded_enclosure's
    band set, and the image has five components, mu last.
    """
    enc = chart_seeded_enclosure(chart, u_local, params.mu if band else None)
    crossing = poincare_crossing(RtbpTaylorField(params), enc, Section(1, 0.0))
    return CrossingResult(crossing.as_box(), crossing.time)


# -- the launch chain -------------------------------------------------------------


@contextlib.contextmanager
def _stage(stages: list, name: str):
    """Time the block as stage `name`: yield its detail dict, then append
    a verified StageResult, or one with {"error": ...} when the block
    raises, which raises again."""
    detail = {}
    t0 = time.perf_counter()
    try:
        yield detail
    except Exception as exc:
        stages.append(
            StageResult(
                name, False, time.perf_counter() - t0, {"error": str(exc)}
            )
        )
        raise
    stages.append(StageResult(name, True, time.perf_counter() - t0, detail))


@dataclass
class Launch:
    """What the launch chain certified for one mass enclosure: the
    chart, [DF(N)], the cone certificate with its launch window, the
    window's crossing of {Y = 0}, and the StageResult of every stage
    that ran, in order.

    Fields past the first failed stage stay None; failure then says why.
    """

    chart: LocalChart | None = None
    dfn: IMatrix | None = None
    unstable: CertifiedUnstable | None = None
    crossing: CrossingResult | None = None
    failure: str | None = None
    stages: list = field(default_factory=list)


def launch_chain(
    params: RtbpParams, cfg: ProofConfig, subdivision: int,
    band: bool = False,
) -> Launch:
    """The one chain from a mass enclosure to its certified crossing:
    chart, N around the fixed point at the chart origin, [DF(N)] split
    into `subdivision` pieces, the cone certificate with its launch
    window, and the flight of that window to {Y = 0} (poincare_image,
    a band flight when band is True).

    Every stage appends its StageResult to Launch.stages.  A recoverable
    failure ends the chain and is reported in Launch.failure.
    """
    out = Launch()
    try:
        with _stage(out.stages, "chart") as detail:
            out.chart = jordan_basis(params)
            detail["lambda"] = out.chart.lam.to_json()
            detail["v"] = out.chart.v.to_json()
        b = enclose_fixed_point(out.chart, params, cfg)
        with _stage(out.stages, "derivative") as detail:
            n_box = build_N(b, cfg)
            out.dfn = enclose_DF_over_N(out.chart, params, n_box, subdivision)
            detail["subdivision"] = subdivision
        with _stage(out.stages, "cones"):
            out.unstable = certify_unstable(out.chart, b, n_box, out.dfn, cfg)
        with _stage(out.stages, "poincare"):
            out.crossing = poincare_image(
                out.chart, params, out.unstable.U_local, band
            )
    except _RECOVERABLE as exc:
        out.failure = str(exc)
    return out


# -- endpoint and fragment runs ---------------------------------------------------


def run_endpoint(
    side: str, mu_decimal: str, cfg: ProofConfig
) -> EndpointResult:
    """The launch chain for one mass endpoint, then the strict P_X sign
    check on its crossing (negative on the left endpoint, positive on
    the right).

    The certified launch window flies once.  A chain that fails leaves
    the endpoint unverified with the reason in failure, keeping what the
    stages before the failure certified.  A P_X image with the wrong or
    an indefinite sign does the same after four verified stages, since
    the flight itself certified.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    want_negative = side == "left"
    params = RtbpParams(decimal_to_interval(mu_decimal))
    launch = launch_chain(params, cfg, cfg.endpoint_subdivision)
    result = EndpointResult(side=side, mu=mu_decimal, verified=False,
                            stages=launch.stages, dfn=launch.dfn)
    cu = launch.unstable
    if cu is not None:
        result.cones, result.U_local, result.U_original = (
            cu.cones, cu.U_local, cu.U_original
        )
    if launch.failure is not None:
        result.failure = launch.failure
        return result
    cr = launch.crossing
    px = cr.image[2]
    if not (px.hi < 0.0 if want_negative else px.lo > 0.0):
        what = (
            "sign indefinite" if px.contains_zero()
            else "certified with the wrong sign"
        )
        result.failure = f"P_X {what}: [{px.lo:.3e}, {px.hi:.3e}]"
        return result
    result.poincare_image = cr.image
    result.crossing_time = cr.time
    result.verified = True
    return result


def run_fragment(
    index: int, mu_lo: float, mu_hi: float, cfg: ProofConfig
) -> FragmentResult:
    """Well-definedness of the Poincare map on one mu subinterval.

    The launch chain runs once over the whole subinterval and ends in
    one band flight, with the mass as a fifth coordinate, which must
    certify a single transversal first crossing for every mass in it (no
    sign claim).  When the chain fails it is retried once as
    fragment_mu_slices chains over equal cuts, each at doubled
    derivative subdivision; the crossing time is the hull of their
    crossing times.
    """
    t0 = time.perf_counter()
    out = FragmentResult(index, mu_lo, mu_hi, False, 0.0)
    eff = replace(cfg, alpha_h=cfg.fragment_alpha_h)
    attempts = (
        (1, cfg.fragment_subdivision),
        (cfg.fragment_mu_slices, 2 * cfg.fragment_subdivision),
    )
    for attempt, (pieces, subdivision) in enumerate(attempts):
        out.retried = attempt > 0
        out.slices = pieces
        hull = None
        for lo, hi in _slice_cuts(mu_lo, mu_hi, pieces):
            launch = launch_chain(
                RtbpParams(Interval(lo, hi)), eff, subdivision, band=True
            )
            out.failure = launch.failure
            if launch.failure is not None:
                break
            t = launch.crossing.time
            hull = t if hull is None else hull.hull(t)
        else:
            out.verified = True
            out.crossing_time = hull
            break
    out.seconds = time.perf_counter() - t0
    return out


def check_homoclinic(cfg: ProofConfig) -> ProofReport:
    """Run the whole proof: both endpoints, then every fragment.

    PROVED requires the left P_X image strictly negative, the right one
    strictly positive, and the Poincare map well defined on every
    fragment; anything less is NOT_PROVED (never a disproof).  The
    fragments run only when both endpoints certified their signs; the
    report then lists none.
    """
    t0 = time.perf_counter()
    left = run_endpoint("left", cfg.mu_left, cfg)
    right = run_endpoint("right", cfg.mu_right, cfg)
    signs_ok = left.verified and right.verified
    # a failed endpoint already fixes NOT_PROVED: no fragment can change it
    fragments = [
        run_fragment(i, lo, hi, cfg)
        for i, (lo, hi) in enumerate(cfg.fragment_intervals())
    ] if signs_ok else []
    ok = signs_ok and all(f.verified for f in fragments)
    verdict = "PROVED" if ok else "NOT_PROVED"
    return ProofReport(
        config=cfg,
        left=left,
        right=right,
        fragments=fragments,
        verdict=verdict,
        total_seconds=time.perf_counter() - t0,
    )
