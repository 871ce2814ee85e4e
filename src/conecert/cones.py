"""Cone conditions certified through positive definiteness.

The quadratic form Q(x, y) = alpha ||x||^2 - beta ||y||^2 splits phase space
into an expanding block x and a contracting block y.  Two instances
organize every statement:

  horizontal  Q_h(x, y) = alpha_h ||x||^2 - ||y||^2,   alpha_h in (0, 1)
  vertical    Q_v(x, y) = ||x||^2 - alpha_v ||y||^2,   alpha_v in (0, 1)

Four scalar block conditions on the interval Jacobian
[Df(N)] = [[A, eps1], [eps2, B]] of a vector field imply that its time-t
maps phi_t satisfy, for small t > 0, the cone condition

  Q(phi_t(p1) - phi_t(p2)) > m Q(p1 - p2)        for all p1 != p2 in N

with rate m = 1 + 2 t c.  flow_cone_check verifies them;
manifold.launch_window turns a verified certificate into the window the
strong unstable manifold is launched from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval import IMatrix, Interval, mat_opnorm_upper
from .linalg import PDVerdict, is_positive_definite

__all__ = [
    "FlowConeCertificate",
    "flow_cone_condition",
    "flow_cone_check",
]


@dataclass(frozen=True)
class FlowConeCertificate:
    """The four flow cone conditions at rates m(t) = 1 + 2 t c."""

    c_h: float
    c_v: float
    alpha_h: float
    alpha_v: float
    verified: bool
    conditions: dict

    @property
    def margins(self) -> dict:
        return {name: pd.margin for name, pd in self.conditions.items()}


def _shifted_identity(n: int, shift: Interval) -> IMatrix:
    return IMatrix(
        [[shift if i == j else Interval(0.0) for j in range(n)] for i in range(n)]
    )


def flow_cone_condition(
    a: IMatrix,
    b: IMatrix,
    eps1: IMatrix,
    eps2: IMatrix,
    alpha: float,
    beta: float,
    c: float,
) -> tuple[PDVerdict, PDVerdict]:
    """Both block conditions for one form Q = alpha ||x||^2 - beta ||y||^2.

    expanding:   x^T (A - 1/2 (||eps1|| + (beta/alpha) ||eps2||) Id) x > c ||x||^2
    contracting: y^T (B + 1/2 (||eps2|| + (alpha/beta) ||eps1||) Id) y < c ||y||^2

    Norm bounds are upper operator-norm bounds of the interval blocks, so a
    verified verdict holds for every selection inside them.
    """
    n1 = Interval(mat_opnorm_upper(eps1))
    n2 = Interval(mat_opnorm_upper(eps2))
    ratio = Interval(beta) / Interval(alpha)
    shift_x = (n1 + ratio * n2) * 0.5 + c
    expanding = is_positive_definite(a - _shifted_identity(a.shape[0], shift_x))
    ratio_inv = Interval(alpha) / Interval(beta)
    shift_y = (n2 + ratio_inv * n1) * 0.5 - c
    contracting = is_positive_definite(
        (-b) - _shifted_identity(b.shape[0], shift_y)
    )
    return expanding, contracting


def flow_cone_check(
    a: IMatrix,
    b: IMatrix,
    eps1: IMatrix,
    eps2: IMatrix,
    alpha_h: float,
    alpha_v: float,
    c_h: float,
    c_v: float,
) -> FlowConeCertificate:
    """All four flow cone conditions, horizontal and vertical forms.

    Verified means the time-t maps of the flow satisfy cone conditions for
    (Q_h, 1 + 2 t c_h) and (Q_v, 1 + 2 t c_v) for all small t > 0 on the
    domain over which [Df] = [[A, eps1], [eps2, B]] was enclosed.
    """
    if not 0.0 < alpha_h < 1.0 or not 0.0 < alpha_v < 1.0:
        raise ValueError("alphas must lie in (0, 1)")
    h_exp, h_con = flow_cone_condition(a, b, eps1, eps2, alpha_h, 1.0, c_h)
    v_exp, v_con = flow_cone_condition(a, b, eps1, eps2, 1.0, alpha_v, c_v)
    conditions = {
        "horizontal_expanding": h_exp,
        "vertical_expanding": v_exp,
        "horizontal_contracting": h_con,
        "vertical_contracting": v_con,
    }
    verified = all(pd.verified for pd in conditions.values())
    return FlowConeCertificate(
        c_h, c_v, alpha_h, alpha_v, verified, conditions
    )
