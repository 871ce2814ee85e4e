"""The three workloads of the proof benchmark.

Each workload builds its inputs from the seed, runs one pass of work
through the public conecert API, and returns a `PassResult`: one entry
per certified unit (an endpoint or a mass slice), the certified widths,
and the correctness checks that failed.

Why these workloads:

* proof -- the call users make, `check_homoclinic` from `ProofConfig` to
  verdict, on a sub-band 1/20 as wide as the default band with one
  fragment of four mass slices, so the per-slice work equals the full
  proof's.  It is the only workload through the fragment dispatch.
* endpoints -- the two sign-carrying point-mass flights at the default
  band's masses; the same flow/rtbp code as the fragment flights on sets
  about 1e6 thinner.
* manifold -- cone certification without any flight, for both default
  endpoints (256 pieces) and all 80 mass slices of the default proof (32
  pieces): local Jacobians, Krawczyk solves and scalar interval
  arithmetic, with `flow` idle.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conecert import prover, rtbp  # noqa: E402
from conecert.interval import Interval, decimal_to_interval  # noqa: E402

# The proof sub-band, in units of 1e-13: 1e-11 wide, centred where P_X
# changes sign, shifted by the seed up to +-2e-12.  At the largest shift
# both endpoint P_X images stay about 1.5e-9 away from zero, more than
# three times their width, so every seed proves.
BAND_UNIT = 13
BAND_CENTRE = 42538635220
BAND_HALF_WIDTH = 50
BAND_MAX_SHIFT = 20

# Printed values the endpoint images must reproduce.
PX_LEFT_BAND = (-7.501e-8, -2.915e-8)
PX_RIGHT_BAND = (2.825e-8, 7.421e-8)
X_IMAGE = 0.8270258829
PY_IMAGE = 0.9251225636
IMAGE_TOLERANCE = 1e-8  # as in the prover tests: X, P_Y within 1e-8


def _decimal(n: int) -> str:
    return f"0.{n:0{BAND_UNIT}d}"


def proof_band(seed: int) -> tuple[str, str]:
    """(mu_left, mu_right) decimal strings of the seed's proof sub-band."""
    k = random.Random(seed).randint(-BAND_MAX_SHIFT, BAND_MAX_SHIFT)
    c = BAND_CENTRE + k
    return _decimal(c - BAND_HALF_WIDTH), _decimal(c + BAND_HALF_WIDTH)


def fragment_slices(cfg: prover.ProofConfig) -> list[tuple[float, float]]:
    """The mass slices the default proof certifies, fragment by fragment,
    cut by the prover's own slicing."""
    return [
        cut
        for lo, hi in cfg.fragment_intervals()
        for cut in prover._slice_cuts(lo, hi, cfg.fragment_mu_slices)
    ]


@dataclass
class PassResult:
    """Outcome of one pass: units, certified widths and failed checks.

    A unit is an endpoint or a mass slice; it counts as failed when it
    did not verify or when a check on its output failed.
    """

    units: dict = field(default_factory=dict)  # unit name -> passed
    widths: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)
    retries: int = 0
    digest: str | None = None

    def check(self, unit: str | None, ok: bool, message: str) -> None:
        """Record a check; a failure marks `unit` (if any) as failed."""
        if unit is not None:
            self.units[unit] = self.units.get(unit, True) and ok
        if not ok:
            self.failed_checks.append(message)

    @property
    def failed(self) -> int:
        n = sum(not ok for ok in self.units.values())
        return max(n, 1) if self.failed_checks else n


def _max_entry_width(m) -> float:
    return max(e.width for row in m.rows for e in row)


def _min_margin(cones) -> float:
    return min(cones.margins.values())


def _unit(ep) -> str:
    return f"endpoint-{ep.side}"


def _record_endpoints(res: PassResult, left, right) -> None:
    for ep in (left, right):
        res.retries += ep.subboxes > 1
        res.check(_unit(ep), ep.verified,
                  f"{ep.side} endpoint failed: {ep.failure}")
    if not (left.verified and right.verified):
        return
    res.widths["px_width_left"] = left.poincare_image[2].width
    res.widths["px_width_right"] = right.poincare_image[2].width
    res.widths["tcross_width_endpoint"] = max(
        left.crossing_time.width, right.crossing_time.width
    )
    res.widths["dfn_width_max"] = max(
        _max_entry_width(left.dfn), _max_entry_width(right.dfn)
    )
    res.widths["cone_margin_min"] = min(
        _min_margin(left.cones), _min_margin(right.cones)
    )
    res.check("endpoint-left", left.poincare_image[2].hi < 0.0,
              "left P_X not negative")
    res.check("endpoint-right", right.poincare_image[2].lo > 0.0,
              "right P_X not positive")


class ProofWorkload:
    name = "proof"
    widths = ("px_width_left", "px_width_right", "tcross_width_endpoint",
              "tcross_width_fragment", "dfn_width_max", "cone_margin_min")

    def __init__(self, seed: int):
        mu_left, mu_right = proof_band(seed)
        self.cfg = replace(
            prover.ProofConfig.default(),
            mu_left=mu_left,
            mu_right=mu_right,
            fragments=1,
        )

    def run_pass(self) -> PassResult:
        rep = prover.check_homoclinic(self.cfg)
        res = PassResult(digest=hashlib.sha256(
            rep.json_str().encode()).hexdigest())
        _record_endpoints(res, rep.left, rep.right)
        for frag in rep.fragments:
            res.retries += frag.retried
            for i in range(frag.slices):
                res.check(f"fragment-{frag.index}-slice-{i}", frag.verified,
                          f"fragment {frag.index} slice {i} failed: "
                          f"{frag.failure}")
        res.check(None, rep.verdict == "PROVED", f"verdict {rep.verdict}")
        if all(f.verified for f in rep.fragments):
            res.widths["tcross_width_fragment"] = max(
                f.crossing_time.width for f in rep.fragments
            )
        return res


class EndpointsWorkload:
    name = "endpoints"
    widths = ("px_width_left", "px_width_right", "tcross_width_endpoint",
              "dfn_width_max", "cone_margin_min")

    def __init__(self, seed: int):
        # the endpoint masses are the paper's; the seed changes nothing
        self.cfg = prover.ProofConfig.default()

    def run_pass(self) -> PassResult:
        cfg = self.cfg
        left = prover.run_endpoint("left", cfg.mu_left, cfg)
        right = prover.run_endpoint("right", cfg.mu_right, cfg)
        res = PassResult()
        _record_endpoints(res, left, right)
        for ep, band in ((left, PX_LEFT_BAND), (right, PX_RIGHT_BAND)):
            if not ep.verified:
                continue
            img = ep.poincare_image
            px = img[2]
            res.check(_unit(ep), band[0] <= px.lo and px.hi <= band[1],
                      f"{ep.side} P_X {px!r} outside the printed band")
            for i, printed, label in ((0, X_IMAGE, "X"), (3, PY_IMAGE, "P_Y")):
                res.check(_unit(ep), abs(img[i].mid - printed) <= IMAGE_TOLERANCE,
                          f"{ep.side} {label} image {img[i]!r} is not "
                          f"within {IMAGE_TOLERANCE} of the printed {printed}")
        return res


class ManifoldWorkload:
    name = "manifold"
    widths = ("dfn_width_max", "cone_margin_min")

    def __init__(self, seed: int):
        # the masses are the default proof's; the seed changes nothing
        cfg = prover.ProofConfig.default()
        frag = replace(cfg, alpha_h=cfg.fragment_alpha_h)
        self.targets = [
            ("endpoint-left", decimal_to_interval(cfg.mu_left), cfg,
             cfg.endpoint_subdivision),
            ("endpoint-right", decimal_to_interval(cfg.mu_right), cfg,
             cfg.endpoint_subdivision),
        ] + [
            (f"slice-{i}", Interval(lo, hi), frag, cfg.fragment_subdivision)
            for i, (lo, hi) in enumerate(fragment_slices(cfg))
        ]

    def run_pass(self) -> PassResult:
        res = PassResult()
        dfn_w = []
        margins = []
        for name, mu, cfg, pieces in self.targets:
            try:
                params = rtbp.RtbpParams(mu)
                chart = rtbp.jordan_basis(params)
                b = prover.enclose_fixed_point(chart, params, cfg)
                n_box = prover.build_N(b, cfg)
                dfn = prover.enclose_DF_over_N(chart, params, n_box, pieces)
                cu = prover.certify_unstable(chart, b, n_box, dfn, cfg)
            except Exception as exc:  # a failed unit is reported, not raised
                res.check(name, False, f"{name}: {type(exc).__name__}: {exc}")
                continue
            res.check(name, cu.cones.verified, f"{name}: cones not verified")
            dfn_w.append(_max_entry_width(dfn))
            margins.append(_min_margin(cu.cones))
        if not res.failed:
            res.widths["dfn_width_max"] = max(dfn_w)
            res.widths["cone_margin_min"] = min(margins)
        return res


WORKLOADS = {
    w.name: w for w in (ProofWorkload, EndpointsWorkload, ManifoldWorkload)
}
