"""Interval-object references for the float-pair arithmetic.

The Taylor step and the Lohner update run on float (lo, hi) pairs with
the rounding of the Interval operations.  The functions here are those
operations in the form the Interval code had before the pair paths took
them over: the exact-directed sums with their overflow branches first,
the product as the min and max of its four corners with 0 * inf = 0, and
idot and the point-factor products built on that product.  The
bit-for-bit tests compare the pair paths against them.
"""

from __future__ import annotations

import math
import sys

from conecert.interval import IMatrix, Interval, IVector

INF = math.inf
MAXF = sys.float_info.max
_nextafter = math.nextafter


def add_dn(a: float, b: float) -> float:
    s = a + b
    if s != s:  # inf - inf
        return -INF
    if s == INF:
        return MAXF
    if s == -INF:
        return -INF
    bp = s - a
    ap = s - bp
    err = (a - ap) + (b - bp)
    return s if err >= 0.0 else _nextafter(s, -INF)


def add_up(a: float, b: float) -> float:
    s = a + b
    if s != s:
        return INF
    if s == INF:
        return INF
    if s == -INF:
        return -MAXF
    bp = s - a
    ap = s - bp
    err = (a - ap) + (b - bp)
    return s if err <= 0.0 else _nextafter(s, INF)


def _mul_ep(a: float, b: float) -> float:
    p = a * b
    return 0.0 if p != p else p


def mul(x: Interval, y: Interval) -> Interval:
    ps = (_mul_ep(x.lo, y.lo), _mul_ep(x.lo, y.hi),
          _mul_ep(x.hi, y.lo), _mul_ep(x.hi, y.hi))
    return Interval(_nextafter(min(ps), -INF), _nextafter(max(ps), INF))


def idot(xs, ys) -> Interval:
    lo = hi = 0.0
    for x, y in zip(xs, ys):
        ps = (_mul_ep(x.lo, y.lo), _mul_ep(x.lo, y.hi),
              _mul_ep(x.hi, y.lo), _mul_ep(x.hi, y.hi))
        lo = _nextafter(lo + _nextafter(min(ps), -INF), -INF)
        hi = _nextafter(hi + _nextafter(max(ps), INF), INF)
    return Interval(lo, hi)


def sq(x: Interval) -> Interval:
    if x.lo >= 0.0:
        return Interval(max(_nextafter(x.lo * x.lo, -INF), 0.0),
                        _nextafter(x.hi * x.hi, INF))
    if x.hi <= 0.0:
        return Interval(max(_nextafter(x.hi * x.hi, -INF), 0.0),
                        _nextafter(x.lo * x.lo, INF))
    m = max(-x.lo, x.hi)
    return Interval(0.0, _nextafter(m * m, INF))


def matvec(m: IMatrix, v) -> IVector:
    return IVector([idot(row, list(v)) for row in m.rows])


def mul_floats(a: IMatrix, b: list) -> IMatrix:
    """a times the float matrix b as point intervals."""
    cols = [[Interval(f) for f in col] for col in zip(*b)]
    return IMatrix([[idot(row, col) for col in cols] for row in a.rows])


def bits(x) -> tuple:
    """The endpoints of an Interval, or the value of a float, by repr:
    equal bits, zero signs included."""
    if isinstance(x, Interval):
        return repr(x.lo), repr(x.hi)
    return repr(x)
