"""Strong unstable manifold certificates from verified flow cone conditions.

certify() converts verified flow cone conditions with rates c_v > c_h
and c_v > 0 into a strong unstable manifold statement: over the window
U = B(0, r) x B(0, 1), r = sqrt(1 - alpha_v), the invariant set with the
convergence rate exp(c_v t) is the graph of a function of the unstable
coordinates with Lipschitz constant sqrt(alpha_h).

The certificate records U and the graph's target as closed balls, the
conservative choice; the note in its JSON report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import FlowConeCertificate, contraction_constant
from .interval import Box, Interval, IVector, sqrt

__all__ = [
    "ManifoldCertificate",
    "RateOrderViolation",
    "UnverifiedCones",
    "certify",
]


class RateOrderViolation(ValueError):
    """The rates fail c_v > c_h and c_v > 0."""


class UnverifiedCones(RuntimeError):
    """A certificate was requested from unverified cone conditions."""


@dataclass(frozen=True)
class ManifoldCertificate:
    domain: Box | None
    alpha_h: float
    alpha_v: float
    rates: tuple
    r: float
    lipschitz: float
    C: float
    graph_window: Box
    u_dim: int
    s_dim: int

    def to_json(self) -> dict:
        return {
            "kind": "FlowUnstable",
            "alpha_h": self.alpha_h,
            "alpha_v": self.alpha_v,
            "rates": dict(zip(("c_h", "c_v"), self.rates)),
            "r": self.r,
            "lipschitz": self.lipschitz,
            "C": self.C,
            "u_dim": self.u_dim,
            "s_dim": self.s_dim,
            "domain": None if self.domain is None else self.domain.to_json(),
            "graph_window": self.graph_window.to_json(),
            "note": (
                "graph window and target recorded as closed balls; the "
                "stable theorem states an open target ball"
            ),
        }


def certify(
    cones: FlowConeCertificate, fixed_point_box: Box | None = None
) -> ManifoldCertificate:
    """Build a strong unstable manifold certificate from verified flow
    cone conditions.

    The alphas, the rates and the domain are the certificate's own.
    When the fixed point is only enclosed in a box B, the cone conditions
    must have been verified over N + B and the graph window is shifted
    by B.
    """
    if not isinstance(cones, FlowConeCertificate):
        raise TypeError("certify needs a FlowConeCertificate")
    consts = cones.constants
    alpha_h, alpha_v = consts.alpha_h, consts.alpha_v
    c_h, c_v = consts.c_h, consts.c_v
    if not (c_v > c_h and c_v > 0.0):
        raise RateOrderViolation(
            f"need c_v > c_h and c_v > 0, got c_h={c_h}, c_v={c_v}"
        )
    if not cones.verified:
        failed = [k for k, pd in cones.conditions.items() if not pd.verified]
        raise UnverifiedCones(f"unverified flow conditions: {failed}")
    u_dim, s_dim = cones.u_dim, cones.s_dim
    r = sqrt(1.0 - Interval(alpha_v)).lo
    window = IVector([Interval(-r, r)] * u_dim + [Interval(-1.0, 1.0)] * s_dim)
    if fixed_point_box is not None:
        if len(fixed_point_box) != u_dim + s_dim:
            raise ValueError("fixed point box has wrong dimension")
        window = window + fixed_point_box
    return ManifoldCertificate(
        domain=cones.domain,
        alpha_h=alpha_h,
        alpha_v=alpha_v,
        rates=(c_h, c_v),
        r=r,
        lipschitz=sqrt(Interval(alpha_h)).hi,
        C=contraction_constant(alpha_h, alpha_v),
        graph_window=window,
        u_dim=u_dim,
        s_dim=s_dim,
    )
