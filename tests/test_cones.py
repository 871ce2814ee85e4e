"""Flow cone condition checks against closed-form linear fields.

Oracle: flow condition margins for scalar blocks reduce to arithmetic on
the shift constants.
"""

import pytest

from conecert.cones import (
    FlowConeCertificate,
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

    def test_alphas_outside_unit_interval_are_refused(self):
        a, b, e1, e2 = self.toy_blocks(0.0)
        for alpha_h, alpha_v in ((1.0, 0.5), (0.5, 0.0), (0.5, float("nan"))):
            with pytest.raises(ValueError, match="alphas"):
                flow_cone_check(a, b, e1, e2, alpha_h, alpha_v, 1.0, 1.5)
