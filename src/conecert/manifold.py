"""The launch window of the strong unstable manifold, from verified flow
cone conditions.

The cone theorem turns verified flow cone conditions with rates
c_v > c_h and c_v > 0 into a strong unstable manifold: over the window
B(0, r) x B(0, 1), r = sqrt(1 - alpha_v), the invariant set with the
convergence rate exp(c_v t) is the graph of a function of the unstable
coordinate with Lipschitz constant sqrt(alpha_h).  The proof reads one
number of that statement, r: launch_window places the launch point
within r_u r of the fixed point along the unstable axis, where the graph
stays within r_u sqrt(alpha_h) of it transversally.
"""

from __future__ import annotations

from .cones import FlowConeCertificate
from .interval import Box, Interval, IVector, sqrt

__all__ = ["UnverifiedCones", "launch_window"]


class UnverifiedCones(RuntimeError):
    """The cone theorem's preconditions fail: no launch window follows."""


def launch_window(cones: FlowConeCertificate, b: Box, r_u: float) -> Box:
    """The launch window U_local that the cone certificate guarantees.

    b is the fixed-point box.  U_local has one unstable coordinate, the
    float x0 at the lower end of b_0.lo + r_u r: above b_0.hi it is past
    each fixed point of b and within r_u r of it.  Its transversal
    coordinates are b's, widened by r_u sqrt(alpha_h).  This is the one
    place that checks the theorem's preconditions: the cones verified,
    c_v > c_h, c_v > 0, and x0 above b_0.hi, which a wide b or a tiny
    r_u can break.
    """
    if not cones.verified:
        failed = [k for k, pd in cones.conditions.items() if not pd.verified]
        raise UnverifiedCones(f"cone conditions failed: {failed}")
    if not (cones.c_v > cones.c_h and cones.c_v > 0.0):
        raise UnverifiedCones(
            f"need c_v > c_h and c_v > 0, got c_h={cones.c_h}, "
            f"c_v={cones.c_v}"
        )
    ru = Interval(r_u)
    r = sqrt(1.0 - Interval(cones.alpha_v)).lo
    x0 = (b[0].lo + ru * r).lo
    if not x0 > b[0].hi:
        raise UnverifiedCones(
            f"launch coordinate {x0!r} not above the fixed-point box "
            f"{b[0]!r}"
        )
    s = (ru * sqrt(Interval(cones.alpha_h))).hi
    return IVector([Interval(x0)] + [c + Interval(-s, s) for c in b[1:]])
