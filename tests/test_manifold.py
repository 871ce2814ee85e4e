"""Manifold certificates built from verified cone conditions."""

import json
import math

import pytest

from conecert.cones import contraction_constant, flow_cone_check
from conecert.interval import Interval, IMatrix, IVector
from conecert.manifold import RateOrderViolation, UnverifiedCones, certify


def toy_flow_cert(alpha_h=0.5, alpha_v=0.5, c_h=1.0, c_v=1.5, eps=0.0):
    a = IMatrix.from_floats([[2.0]])
    b = IMatrix.from_floats([[-1.0]])
    e = IMatrix.from_floats([[eps]])
    return flow_cone_check(a, b, e, e, alpha_h, alpha_v, c_h, c_v)


class TestCertify:
    def test_flow_unstable(self):
        # [TRIVIAL] linear field, manifold is the x-axis; the certificate
        # carries the theorem constants.
        cert = certify(toy_flow_cert())
        assert cert.rates == (1.0, 1.5)
        assert cert.u_dim == 1 and cert.s_dim == 1
        assert abs(cert.r - math.sqrt(0.5)) < 1e-15
        assert abs(cert.lipschitz - math.sqrt(0.5)) < 1e-15
        assert cert.C == contraction_constant(0.5, 0.5)
        assert cert.graph_window[0].hi == cert.r
        assert cert.graph_window[1] == Interval(-1.0, 1.0)

    def test_flow_rate_violations(self):
        with pytest.raises(RateOrderViolation):
            certify(toy_flow_cert(c_h=1.0, c_v=-0.5))
        with pytest.raises(RateOrderViolation):
            certify(toy_flow_cert(c_h=-1.0, c_v=-0.5))

    def test_flow_unverified(self):
        fc = toy_flow_cert(c_h=1.0, c_v=2.5)  # A = 2 leaves no margin
        assert not fc.verified
        with pytest.raises(UnverifiedCones):
            certify(fc)

    def test_target_alpha_window(self):
        # [PAPER] r^u = sqrt(1 - 1e-4) for the proof parameters.
        fc = toy_flow_cert(alpha_h=1e-8, alpha_v=1e-4)
        cert = certify(fc)
        assert abs(cert.r - math.sqrt(1.0 - 1e-4)) < 1e-15
        assert abs(cert.lipschitz - 1e-4) < 1e-19

    def test_fixed_point_box_shifts_window(self):
        b = IVector([Interval(0.1, 0.1), Interval(-0.2, -0.2)])
        cert = certify(toy_flow_cert(), fixed_point_box=b)
        r = math.sqrt(0.5)
        assert abs(cert.graph_window[0].lo - (-r + 0.1)) < 1e-15
        assert abs(cert.graph_window[1].hi - 0.8) < 1e-15
        with pytest.raises(ValueError):
            certify(toy_flow_cert(), fixed_point_box=b[:1])

    def test_json_export(self):
        cert = certify(toy_flow_cert())
        blob = json.dumps(cert.to_json())
        data = json.loads(blob)
        assert data["kind"] == "FlowUnstable"
        assert data["rates"] == {"c_h": 1.0, "c_v": 1.5}
        assert "closed balls" in data["note"]
        assert len(data["graph_window"]) == 2

    def test_type_errors(self):
        with pytest.raises(TypeError):
            certify((toy_flow_cert(), toy_flow_cert()))
