"""Manifold certificates from verified cone conditions.

certify() converts verified cone conditions into a strong stable or
unstable manifold statement: over the window U the invariant set with the
prescribed convergence rate is the graph of a Lipschitz function.

  MapUnstable   m_v > m_h > 0, m_v > 1:  w^u on B(0, r^u), r^u = sqrt(1 - alpha_v)
  MapStable     m_v > m_h > 0, m_h < 1:  w^s on B(0, r^s), r^s = sqrt(1 - alpha_h)
  FlowUnstable  c_v > c_h, c_v > 0:      same window, rate exp(c_v t)
  FlowStable    c_h < c_v, c_h < 0:      same window, rate exp(c_h t)

The Lipschitz constant is sqrt(alpha_h) for unstable kinds and
sqrt(alpha_v) for stable kinds.  Certificates record closed balls for both
graph domains and targets; the stable theorem's target ball is open, so
the closed record is the conservative one, the noted discrepancy aside.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cones import FlowConeCertificate, contraction_constant
from .interval import Box, Interval, IVector, sqrt

__all__ = [
    "ManifoldKind",
    "ManifoldCertificate",
    "RateOrderViolation",
    "UnverifiedCones",
    "certify",
]


class RateOrderViolation(ValueError):
    """The rate inequalities required by the requested kind fail."""


class UnverifiedCones(RuntimeError):
    """A certificate was requested from unverified cone conditions."""


class ManifoldKind(enum.Enum):
    MAP_UNSTABLE = "MapUnstable"
    MAP_STABLE = "MapStable"
    FLOW_UNSTABLE = "FlowUnstable"
    FLOW_STABLE = "FlowStable"

    @property
    def is_map(self) -> bool:
        return self in (ManifoldKind.MAP_UNSTABLE, ManifoldKind.MAP_STABLE)

    @property
    def is_unstable(self) -> bool:
        return self in (ManifoldKind.MAP_UNSTABLE, ManifoldKind.FLOW_UNSTABLE)


@dataclass(frozen=True)
class ManifoldCertificate:
    kind: ManifoldKind
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
        rate_keys = ("m_h", "m_v") if self.kind.is_map else ("c_h", "c_v")
        return {
            "kind": self.kind.value,
            "alpha_h": self.alpha_h,
            "alpha_v": self.alpha_v,
            "rates": dict(zip(rate_keys, self.rates)),
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


def _rate_check(kind: ManifoldKind, lo: float, hi: float) -> None:
    # lo, hi = (m_h, m_v) or (c_h, c_v)
    if kind is ManifoldKind.MAP_UNSTABLE:
        if not (hi > lo > 0.0 and hi > 1.0):
            raise RateOrderViolation(
                f"MapUnstable needs m_v > m_h > 0 and m_v > 1, got "
                f"m_h={lo}, m_v={hi}"
            )
    elif kind is ManifoldKind.MAP_STABLE:
        if not (hi > lo > 0.0 and lo < 1.0):
            raise RateOrderViolation(
                f"MapStable needs m_v > m_h > 0 and m_h < 1, got "
                f"m_h={lo}, m_v={hi}"
            )
    elif kind is ManifoldKind.FLOW_UNSTABLE:
        if not (hi > lo and hi > 0.0):
            raise RateOrderViolation(
                f"FlowUnstable needs c_v > c_h and c_v > 0, got "
                f"c_h={lo}, c_v={hi}"
            )
    else:
        if not (lo < hi and lo < 0.0):
            raise RateOrderViolation(
                f"FlowStable needs c_h < c_v and c_h < 0, got "
                f"c_h={lo}, c_v={hi}"
            )


def _window(
    kind: ManifoldKind,
    r: float,
    u_dim: int,
    s_dim: int,
    shift: Box | None,
) -> Box:
    if kind.is_unstable:
        coords = [Interval(-r, r)] * u_dim + [Interval(-1.0, 1.0)] * s_dim
    else:
        coords = [Interval(-1.0, 1.0)] * u_dim + [Interval(-r, r)] * s_dim
    window = IVector(coords)
    if shift is not None:
        if len(shift) != u_dim + s_dim:
            raise ValueError("fixed point box has wrong dimension")
        window = window + shift
    return window


def certify(
    kind,
    cones,
    alpha_h: float,
    alpha_v: float,
    fixed_point_box: Box | None = None,
    domain: Box | None = None,
) -> ManifoldCertificate:
    """Build a manifold certificate from verified cone conditions.

    For map kinds, cones is the (Q_h, m_h) and (Q_v, m_v) certificate
    pair; for flow kinds it is a FlowConeCertificate.  When the fixed
    point is only enclosed in a box B, the cone conditions must have been
    verified over N + B and the graph window is shifted by B.
    """
    kind = ManifoldKind(kind)
    if kind.is_map:
        try:
            cert_h, cert_v = cones
        except (TypeError, ValueError):
            raise TypeError("map kinds need the (Q_h, Q_v) certificate pair")
        if (cert_h.form.alpha, cert_h.form.beta) != (alpha_h, 1.0):
            raise ValueError("first certificate is not Q_h with alpha_h")
        if (cert_v.form.alpha, cert_v.form.beta) != (1.0, alpha_v):
            raise ValueError("second certificate is not Q_v with alpha_v")
        if cert_h.form.u_dim != cert_v.form.u_dim or (
            cert_h.form.s_dim != cert_v.form.s_dim
        ):
            raise ValueError("certificate dimensions disagree")
        rates = (cert_h.m, cert_v.m)
        _rate_check(kind, *rates)
        if not (cert_h.verdict and cert_v.verdict):
            raise UnverifiedCones(
                f"Q_h verified={cert_h.verdict}, Q_v verified={cert_v.verdict}"
            )
        u_dim, s_dim = cert_h.form.u_dim, cert_h.form.s_dim
        if domain is None:
            domain = cert_h.domain if cert_h.domain is not None else cert_v.domain
    else:
        if not isinstance(cones, FlowConeCertificate):
            raise TypeError("flow kinds need a FlowConeCertificate")
        consts = cones.constants
        if (consts.alpha_h, consts.alpha_v) != (alpha_h, alpha_v):
            raise ValueError("certificate alphas disagree with arguments")
        rates = (consts.c_h, consts.c_v)
        _rate_check(kind, *rates)
        if not cones.verified:
            failed = [k for k, pd in cones.conditions.items() if not pd.verified]
            raise UnverifiedCones(f"unverified flow conditions: {failed}")
        u_dim, s_dim = cones.u_dim, cones.s_dim
        if domain is None:
            domain = cones.domain

    if kind.is_unstable:
        r = sqrt(1.0 - Interval(alpha_v)).lo
        lip = sqrt(Interval(alpha_h)).hi
    else:
        r = sqrt(1.0 - Interval(alpha_h)).lo
        lip = sqrt(Interval(alpha_v)).hi
    window = _window(kind, r, u_dim, s_dim, fixed_point_box)
    return ManifoldCertificate(
        kind=kind,
        domain=domain,
        alpha_h=alpha_h,
        alpha_v=alpha_v,
        rates=rates,
        r=r,
        lipschitz=lip,
        C=contraction_constant(alpha_h, alpha_v),
        graph_window=window,
        u_dim=u_dim,
        s_dim=s_dim,
    )
