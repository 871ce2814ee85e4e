"""Manifold certificates built from verified cone conditions."""

import json
import math

import pytest

from conecert.cones import (
    QuadForm,
    contraction_constant,
    flow_cone_check,
    map_cone_check,
)
from conecert.interval import IMatrix, Interval, IVector
from conecert.manifold import (
    ManifoldCertificate,
    ManifoldKind,
    RateOrderViolation,
    UnverifiedCones,
    certify,
)


def diag_certs(m_h=0.3, m_v=3.0, alpha_h=0.5, alpha_v=0.5):
    df = IMatrix.from_floats([[2.0, 0.0], [0.0, 0.5]])
    qh = QuadForm.horizontal(alpha_h, 1, 1)
    qv = QuadForm.vertical(alpha_v, 1, 1)
    return (
        map_cone_check(df, qh, m_h),
        map_cone_check(df, qv, m_v),
    )


def toy_flow_cert(alpha_h=0.5, alpha_v=0.5, c_h=1.0, c_v=1.5, eps=0.0):
    a = IMatrix.from_floats([[2.0]])
    b = IMatrix.from_floats([[-1.0]])
    e = IMatrix.from_floats([[eps]])
    return flow_cone_check(a, b, e, e, alpha_h, alpha_v, c_h, c_v)


class TestCertify:
    def test_map_unstable_diagonal(self):
        # [TRIVIAL] linear map, manifold is the x-axis; certificate
        # carries the theorem constants.
        cert = certify("MapUnstable", diag_certs(), 0.5, 0.5)
        assert cert.kind is ManifoldKind.MAP_UNSTABLE
        assert cert.rates == (0.3, 3.0)
        assert abs(cert.r - math.sqrt(0.5)) < 1e-15
        assert abs(cert.lipschitz - math.sqrt(0.5)) < 1e-15
        assert cert.C == contraction_constant(0.5, 0.5)
        assert cert.graph_window[0].hi == cert.r
        assert cert.graph_window[1] == Interval(-1.0, 1.0)

    def test_map_stable_diagonal(self):
        cert = certify("MapStable", diag_certs(), 0.5, 0.5)
        assert cert.kind is ManifoldKind.MAP_STABLE
        assert abs(cert.r - math.sqrt(0.5)) < 1e-15
        assert cert.graph_window[0] == Interval(-1.0, 1.0)
        assert cert.graph_window[1].hi == cert.r

    def test_rate_order_violations(self):
        # [TRIVIAL] m_v <= 1 rejects MapUnstable.
        with pytest.raises(RateOrderViolation):
            certify("MapUnstable", diag_certs(m_v=0.9), 0.5, 0.5)
        with pytest.raises(RateOrderViolation):
            certify("MapUnstable", diag_certs(m_h=3.0, m_v=3.0), 0.5, 0.5)
        with pytest.raises(RateOrderViolation):
            certify("MapStable", diag_certs(m_h=1.2, m_v=3.0), 0.5, 0.5)

    def test_unverified_cones(self):
        # m_h = 0.1 < b^2 leaves Q_h unverified for the diagonal map.
        with pytest.raises(UnverifiedCones):
            certify("MapUnstable", diag_certs(m_h=0.1), 0.5, 0.5)

    def test_form_mismatch(self):
        cert_h, cert_v = diag_certs()
        with pytest.raises(ValueError):
            certify("MapUnstable", (cert_v, cert_h), 0.5, 0.5)
        with pytest.raises(ValueError):
            certify("MapUnstable", diag_certs(), 0.25, 0.5)

    def test_flow_unstable(self):
        cert = certify("FlowUnstable", toy_flow_cert(), 0.5, 0.5)
        assert cert.kind is ManifoldKind.FLOW_UNSTABLE
        assert cert.rates == (1.0, 1.5)
        assert cert.u_dim == 1 and cert.s_dim == 1

    def test_flow_stable(self):
        fc = toy_flow_cert(c_h=-0.5, c_v=0.5)
        cert = certify("FlowStable", fc, 0.5, 0.5)
        assert cert.kind is ManifoldKind.FLOW_STABLE
        assert abs(cert.lipschitz - math.sqrt(0.5)) < 1e-15

    def test_flow_rate_violations(self):
        with pytest.raises(RateOrderViolation):
            certify("FlowUnstable", toy_flow_cert(c_h=1.0, c_v=-0.5), 0.5, 0.5)
        with pytest.raises(RateOrderViolation):
            certify("FlowStable", toy_flow_cert(c_h=0.5, c_v=1.0), 0.5, 0.5)

    def test_flow_unverified(self):
        fc = toy_flow_cert(c_h=1.0, c_v=2.5)  # A = 2 leaves no margin
        assert not fc.verified
        with pytest.raises(UnverifiedCones):
            certify("FlowUnstable", fc, 0.5, 0.5)

    def test_target_alpha_window(self):
        # [PAPER] r^u = sqrt(1 - 1e-4) for the proof parameters.
        fc = toy_flow_cert(alpha_h=1e-8, alpha_v=1e-4)
        cert = certify("FlowUnstable", fc, 1e-8, 1e-4)
        assert abs(cert.r - math.sqrt(1.0 - 1e-4)) < 1e-15
        assert abs(cert.lipschitz - 1e-4) < 1e-19

    def test_fixed_point_box_shifts_window(self):
        b = IVector([Interval(0.1, 0.1), Interval(-0.2, -0.2)])
        cert = certify("MapUnstable", diag_certs(), 0.5, 0.5, fixed_point_box=b)
        r = math.sqrt(0.5)
        assert abs(cert.graph_window[0].lo - (-r + 0.1)) < 1e-15
        assert abs(cert.graph_window[1].hi - 0.8) < 1e-15

    def test_json_export(self):
        cert = certify("FlowUnstable", toy_flow_cert(), 0.5, 0.5)
        blob = json.dumps(cert.to_json())
        data = json.loads(blob)
        assert data["kind"] == "FlowUnstable"
        assert data["rates"] == {"c_h": 1.0, "c_v": 1.5}
        assert "closed balls" in data["note"]
        assert len(data["graph_window"]) == 2

    def test_type_errors(self):
        with pytest.raises(TypeError):
            certify("MapUnstable", toy_flow_cert(), 0.5, 0.5)
        with pytest.raises(TypeError):
            certify("FlowUnstable", diag_certs(), 0.5, 0.5)
