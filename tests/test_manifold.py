"""Launch windows built from verified cone conditions."""

import math
from fractions import Fraction

import pytest

from conecert.cones import flow_cone_check
from conecert.interval import Interval, IMatrix, IVector
from conecert.manifold import UnverifiedCones, launch_window

ORIGIN = IVector([Interval(0.0), Interval(0.0)])


def toy_flow_cert(alpha_h=0.5, alpha_v=0.5, c_h=1.0, c_v=1.5, eps=0.0):
    a = IMatrix.from_floats([[2.0]])
    b = IMatrix.from_floats([[-1.0]])
    e = IMatrix.from_floats([[eps]])
    return flow_cone_check(a, b, e, e, alpha_h, alpha_v, c_h, c_v)


class TestCertify:
    def test_flow_unstable(self):
        # [TRIVIAL] linear field, manifold is the x-axis: the window is
        # one point r_u r on it, widened by s = r_u sqrt(alpha_h) across
        u = launch_window(toy_flow_cert(), ORIGIN, 1e-7)
        x0, s = u[0].lo, u[1].hi
        assert u[0].lo == u[0].hi and u[1] == Interval(-s, s)
        # x0 at most r_u r, s at least r_u sqrt(alpha_h), both within
        # a few ulps of it (exact rational comparisons)
        bound = Fraction(1e-7) ** 2 * Fraction(1, 2)
        assert Fraction(x0) ** 2 <= bound <= Fraction(s) ** 2
        assert abs(x0 - 1e-7 * math.sqrt(0.5)) < 1e-22
        assert abs(s - 1e-7 * math.sqrt(0.5)) < 1e-22

    def test_flow_rate_violations(self):
        # the cones verify at these rates; the rate order refuses them
        for c_h, c_v in ((1.0, -0.5), (-0.9, -0.5)):
            fc = toy_flow_cert(c_h=c_h, c_v=c_v)
            assert fc.verified
            with pytest.raises(UnverifiedCones, match="c_v > c_h"):
                launch_window(fc, ORIGIN, 1.0)

    def test_flow_unverified(self):
        fc = toy_flow_cert(c_h=1.0, c_v=2.5)  # A = 2 leaves no margin
        assert not fc.verified
        with pytest.raises(UnverifiedCones, match="cone conditions failed"):
            launch_window(fc, ORIGIN, 1.0)

    def test_target_alpha_window(self):
        # [PAPER] r^u = sqrt(1 - 1e-4) for the proof parameters: at
        # r_u = 1 the launch coordinate is the lower end of r
        fc = toy_flow_cert(alpha_h=1e-8, alpha_v=1e-4)
        x0 = launch_window(fc, ORIGIN, 1.0)[0].lo
        assert abs(x0 - math.sqrt(1.0 - 1e-4)) < 1e-15
        assert Fraction(x0) ** 2 <= 1 - Fraction(1e-4)

    def test_fixed_point_box_shifts_window(self):
        b = IVector([Interval(0.1, 0.1), Interval(-0.2, -0.2)])
        u = launch_window(toy_flow_cert(), b, 1.0)
        assert abs(u[0].lo - (0.1 + math.sqrt(0.5))) < 1e-15
        assert abs(u[1].hi - (-0.2 + math.sqrt(0.5))) < 1e-15

    def test_fat_fixed_point_box_is_refused(self):
        # x0 must clear every fixed point of b
        fat = IVector([Interval(-1e-6, 1e-6)] * 2)
        with pytest.raises(UnverifiedCones, match="launch coordinate"):
            launch_window(toy_flow_cert(), fat, 1e-20)
        assert launch_window(toy_flow_cert(), fat, 1e-5)[0].lo > 1e-6
