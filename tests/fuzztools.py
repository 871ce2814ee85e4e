"""Containment fuzz drivers shared by the unit suite and the acceptance gate.

Oracles:
  * add/sub/mul/div/sq: exact rational arithmetic via Fraction.
  * sqrt: exact comparison of squared endpoints via Fraction.
  * exp: mpmath at 40 significant digits, with a 1e-30 guard band
    for the oracle's own final rounding.

Every result is also checked to be an interval of the extended reals:
no NaN endpoint and no infinite point ([inf, inf] or [-inf, -inf]).
The arithmetic and exp fuzzers run a second block on operands
with endpoints moved to +-inf, where the finite members must still land
inside.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath

from conecert.interval import (
    Interval,
    DivisionByZeroInterval,
    sqrt,
    exp,
    sq,
)


def _rand_float(rng: random.Random) -> float:
    # Mix magnitudes so subnormal-free but wide-dynamic-range cases appear.
    exp10 = rng.uniform(-12.0, 12.0)
    return rng.uniform(-1.0, 1.0) * 10.0**exp10


def rand_interval(rng: random.Random) -> Interval:
    a = _rand_float(rng)
    if rng.random() < 0.25:
        return Interval(a, a)
    b = a + abs(_rand_float(rng)) * rng.choice([1e-18, 1e-9, 1.0])
    return Interval(min(a, b), max(a, b))


def _rand_member(rng: random.Random, iv: Interval) -> float:
    if iv.lo == iv.hi:
        return iv.lo
    t = rng.random()
    x = iv.lo + t * (iv.hi - iv.lo)
    return min(max(x, iv.lo), iv.hi)


def _extend(
    rng: random.Random, iv: Interval, keep_sign: bool = False
) -> Interval:
    """iv with its lower and/or upper endpoint sometimes moved to -inf/+inf.

    keep_sign only opens the side away from zero, so an interval that
    excludes zero keeps excluding it.
    """
    lo, hi = iv.lo, iv.hi
    if rng.random() < 0.4 and not (keep_sign and iv.lo > 0.0):
        lo = -math.inf
    if rng.random() < 0.4 and not (keep_sign and iv.hi < 0.0):
        hi = math.inf
    return Interval(lo, hi)


def _finite_member(rng: random.Random, iv: Interval) -> float:
    """A finite member of an interval whose endpoints may be infinite."""
    far = 10.0 ** rng.uniform(0.0, 300.0)
    lo = iv.lo if math.isfinite(iv.lo) else min(iv.hi, 0.0) - far
    hi = iv.hi if math.isfinite(iv.hi) else max(lo, 0.0) + far
    return _rand_member(rng, Interval(lo, hi))


def _extended_real(r: Interval) -> bool:
    """No NaN endpoint and not an infinite point."""
    return (
        r.lo == r.lo and r.hi == r.hi
        and r.lo != math.inf and r.hi != -math.inf
    )


def _encloses(r: Interval, q: Fraction) -> bool:
    return (r.lo == -math.inf or Fraction(r.lo) <= q) and (
        r.hi == math.inf or q <= Fraction(r.hi)
    )


def fuzz_arith_containment(n: int, seed: int = 20260819) -> int:
    """n cases per operation; exact member results must land inside."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n):
        a = rand_interval(rng)
        b = rand_interval(rng)
        x = _rand_member(rng, a)
        y = _rand_member(rng, b)
        fx, fy = Fraction(x), Fraction(y)

        r = a + b
        assert Fraction(r.lo) <= fx + fy <= Fraction(r.hi), (a, b, x, y, "+")
        r = a - b
        assert Fraction(r.lo) <= fx - fy <= Fraction(r.hi), (a, b, x, y, "-")
        r = a * b
        assert Fraction(r.lo) <= fx * fy <= Fraction(r.hi), (a, b, x, y, "*")
        if not (b.lo <= 0.0 <= b.hi):
            r = a / b
            assert Fraction(r.lo) <= fx / fy <= Fraction(r.hi), (a, b, x, y, "/")
        else:
            try:
                a / b
                raise AssertionError("division by zero interval did not raise")
            except DivisionByZeroInterval:
                pass
        r = sq(a)
        assert Fraction(r.lo) <= fx * fx <= Fraction(r.hi), (a, x, "sq")
        # the extended reals: every result an extended-real interval, and
        # finite members still land inside
        ea, eb = _extend(rng, a), _extend(rng, b, keep_sign=True)
        ex, ey = _finite_member(rng, ea), _finite_member(rng, eb)
        fx, fy = Fraction(ex), Fraction(ey)
        cases = [
            (ea + eb, fx + fy, "+"),
            (ea - eb, fx - fy, "-"),
            (ea * eb, fx * fy, "*"),
            (sq(ea), fx * fx, "sq"),
        ]
        if not (eb.lo <= 0.0 <= eb.hi):
            cases.append((ea / eb, fx / fy, "/"))
        for r, q, op in cases:
            assert _extended_real(r), (ea, eb, r, op)
            assert _encloses(r, q), (ea, eb, q, op + " unbounded")
        checked += 1
    return checked


def fuzz_sqrt_containment(n: int, seed: int = 97) -> int:
    rng = random.Random(seed)
    for _ in range(n):
        a = rand_interval(rng)
        a = Interval(abs(a.lo), max(abs(a.lo), abs(a.hi)))
        x = _rand_member(rng, a)
        r = sqrt(a)
        # lo <= sqrt(x) <= hi iff lo^2 <= x and x <= hi^2 for nonnegatives.
        assert Fraction(r.lo) ** 2 <= Fraction(x), (a, x)
        assert Fraction(x) <= Fraction(r.hi) ** 2, (a, x)
    return n


_GUARD = mpmath.mpf("1e-30")


def fuzz_elem_containment(n: int, seed: int = 4242) -> int:
    """exp against mpmath; arguments kept in a sane range."""
    rng = random.Random(seed)
    old_dps = mpmath.mp.dps
    mpmath.mp.dps = 40
    try:
        for _ in range(n):
            lo = rng.uniform(-30.0, 30.0)
            hi = lo + abs(rng.gauss(0.0, 1.0)) * rng.choice([1e-12, 1e-3, 1.0])
            a = Interval(lo, hi)
            x = _rand_member(rng, a)
            mx = mpmath.mpf(x)
            # the same argument with endpoints moved to +-inf
            ea = _extend(rng, a)
            ex = _finite_member(rng, ea)
            r = exp(a)
            y = mpmath.exp(mx)
            assert mpmath.mpf(r.lo) <= y + _GUARD, (a, x)
            assert y - _GUARD <= mpmath.mpf(r.hi), (a, x)
            r = exp(ea)
            assert _extended_real(r), ea
            y = mpmath.exp(mpmath.mpf(ex))
            assert mpmath.mpf(r.lo) <= y + _GUARD, (ea, ex)
            assert y - _GUARD <= mpmath.mpf(r.hi), (ea, ex)
    finally:
        mpmath.mp.dps = old_dps
    return n


def _ulp(x: float) -> Fraction:
    ax = abs(x)
    return Fraction(math.nextafter(ax, math.inf)) - Fraction(ax)


def fuzz_width_growth(n: int, seed: int = 7) -> int:
    """Width beyond the exact range stays within 4 ulp for rational ops."""
    rng = random.Random(seed)
    for _ in range(n):
        a = rand_interval(rng)
        b = rand_interval(rng)
        cases = [
            (a + b, [Fraction(u) + Fraction(v) for u in (a.lo, a.hi) for v in (b.lo, b.hi)]),
            (a - b, [Fraction(u) - Fraction(v) for u in (a.lo, a.hi) for v in (b.lo, b.hi)]),
            (a * b, [Fraction(u) * Fraction(v) for u in (a.lo, a.hi) for v in (b.lo, b.hi)]),
        ]
        if not (b.lo <= 0.0 <= b.hi):
            cases.append(
                (a / b, [Fraction(u) / Fraction(v) for u in (a.lo, a.hi) for v in (b.lo, b.hi)])
            )
        for r, corners in cases:
            exact_w = max(corners) - min(corners)
            got_w = Fraction(r.hi) - Fraction(r.lo)
            slack = got_w - exact_w
            budget = 4 * max(_ulp(r.lo), _ulp(r.hi))
            assert slack <= budget, (a, b, r, float(slack), float(budget))
    return n
