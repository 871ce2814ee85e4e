"""Flow cone condition checks against closed-form linear fields.

Oracle: flow condition margins for scalar blocks reduce to arithmetic on
the shift constants.
"""

import math

import pytest

from conecert.cones import (
    FlowConeCertificate,
    contraction_constant,
    flow_cone_check,
    flow_cone_condition,
)
from conecert.interval import IMatrix, Interval


def thin_matrix(rows):
    return IMatrix.from_floats(rows)


class TestFlowConeCheck:
    def toy_blocks(self, eps: float):
        a = thin_matrix([[2.0]])
        b = thin_matrix([[-1.0]])
        e = thin_matrix([[eps]])
        return a, b, e, e

    def test_single_condition_threshold(self):
        a, b, e1, e2 = self.toy_blocks(0.0)
        exp, con = flow_cone_condition(a, b, e1, e2, 0.5, 1.0, 1.9)
        assert exp.verified and con.verified
        exp, _ = flow_cone_condition(a, b, e1, e2, 0.5, 1.0, 2.1)
        assert not exp.verified

    def test_full_check_margins(self):
        # [DERIVED] scalar blocks: margin of horizontal expanding is
        # 2 - (eps + eps / alpha_h) / 2 - c_h = 0.85 at eps = 0.1,
        # alpha_h = 0.5, c_h = 1.
        a, b, e1, e2 = self.toy_blocks(0.1)
        cert = flow_cone_check(a, b, e1, e2, 0.5, 0.5, 1.0, 1.5)
        assert isinstance(cert, FlowConeCertificate)
        assert cert.verified
        assert abs(cert.margins["horizontal_expanding"] - 0.85) < 1e-12
        assert abs(cert.margins["vertical_expanding"] - 0.425) < 1e-12
        assert abs(cert.margins["horizontal_contracting"] - 1.925) < 1e-12
        assert abs(cert.margins["vertical_contracting"] - 2.35) < 1e-12

    def test_failure_reported_per_condition(self):
        a, b, e1, e2 = self.toy_blocks(0.1)
        cert = flow_cone_check(a, b, e1, e2, 0.5, 0.5, 1.9, 1.5)
        assert not cert.verified
        assert not cert.conditions["horizontal_expanding"].verified
        assert cert.conditions["vertical_expanding"].verified
        assert cert.conditions["horizontal_contracting"].verified

    def test_margin_monotone_in_rate(self):
        a, b, e1, e2 = self.toy_blocks(0.05)
        lo = flow_cone_check(a, b, e1, e2, 0.5, 0.5, 1.0, 1.0)
        hi = flow_cone_check(a, b, e1, e2, 0.5, 0.5, 1.0, 1.5)
        assert (
            lo.margins["vertical_expanding"]
            > hi.margins["vertical_expanding"]
        )

    def test_interval_epsilon_blocks(self):
        a = thin_matrix([[2.0]])
        b = thin_matrix([[-1.0]])
        e = IMatrix([[Interval(-0.1, 0.1)]])
        cert = flow_cone_check(a, b, e, e, 0.5, 0.5, 1.0, 1.5)
        assert cert.verified

    def test_matrix_blocks(self):
        # 1 expanding, 3 contracting directions, mirroring the target
        # saddle layout: diag(-lam) plus a rotation block whose skew part
        # drops out of the symmetrized contracting condition.
        a = thin_matrix([[2.8]])
        b = thin_matrix(
            [
                [-2.8, 0.0, 0.0],
                [0.0, -0.1, 2.25],
                [0.0, -2.25, -0.1],
            ]
        )
        e1 = thin_matrix([[1e-6, 1e-6, 1e-6]])
        e2 = thin_matrix([[1e-8], [1e-8], [1e-8]])
        # c_v equal to the expansion rate leaves no vertical expanding
        # margin; backing c_v off restores all four conditions.
        cert = flow_cone_check(a, b, e1, e2, 1e-8, 1e-4, 1.0, 2.8)
        assert not cert.conditions["vertical_expanding"].verified
        assert cert.conditions["horizontal_contracting"].verified
        assert cert.conditions["vertical_contracting"].verified
        assert not cert.verified
        cert2 = flow_cone_check(a, b, e1, e2, 1e-8, 1e-4, 1.0, 2.7)
        assert cert2.verified


class TestMembershipAndContraction:
    def test_contraction_constant_value(self):
        # [TRIVIAL] closed form sqrt(2 / (1 - 0.25)) = sqrt(8 / 3).
        c = contraction_constant(0.5, 0.5)
        assert c >= math.sqrt(8.0 / 3.0)
        assert abs(c - math.sqrt(8.0 / 3.0)) < 1e-12

    def test_contraction_constant_rejects_degenerate(self):
        with pytest.raises(ValueError):
            contraction_constant(1.0, 1.0)

    def test_contracted_orbit_bound(self):
        # Convergence semantics: for the flow x' = 2 x, y' = -y a backward
        # orbit on the unstable axis obeys ||q(-t)|| <= C exp(-c_v t) ||q(0)||
        # with any certified c_v < 2.
        a, b = thin_matrix([[2.0]]), thin_matrix([[-1.0]])
        e = thin_matrix([[0.0]])
        c_v = 1.9
        assert flow_cone_check(a, b, e, e, 0.5, 0.5, 1.0, c_v).verified
        c = contraction_constant(0.5, 0.5)
        for x0 in (1.0, 0.3, -0.8):
            for k in range(1, 25):
                t = 0.25 * k
                back = abs(x0) * math.exp(-2.0 * t)
                assert back <= c * math.exp(-c_v * t) * abs(x0) + 1e-15
