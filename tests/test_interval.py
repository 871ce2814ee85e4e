"""Interval arithmetic unit tests.

Expected values are either exact endpoint arithmetic, rational oracles via
Fraction, or mpmath at 40 digits for exp (see fuzztools).
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fuzztools
import refarith
from conecert.interval import (
    Box,
    DivisionByZeroInterval,
    DomainError,
    IMatrix,
    Interval,
    IVector,
    decimal_to_interval,
    exp,
    idot,
    mat_opnorm_upper,
    sq,
    sqrt,
)
from conecert.interval import _add_dn, _add_up, _idot_ends, _mid, _mul_ends
from oracles import box_intersect, vec_norm_sup

UP = math.inf
DOWN = -math.inf


def ulps_apart(a: float, b: float, n: int) -> bool:
    x = min(a, b)
    for _ in range(n):
        if x >= max(a, b):
            return True
        x = math.nextafter(x, UP)
    return x >= max(a, b)


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


# -- construction ------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    assert Interval(3.0).lo == Interval(3.0).hi
    assert Interval(1.0, 2.0).mid == 1.5


def test_infinite_points_rejected():
    # IEEE 1788-2015: the reals have no infinite members, so [inf, inf]
    # and [-inf, -inf] are no intervals; unbounded ones stay valid
    for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
        with pytest.raises(ValueError, match="infinite point"):
            Interval(lo, hi)
    with pytest.raises(ValueError, match="infinite point"):
        Interval(math.inf)
    with pytest.raises(ValueError, match="infinite point"):
        Interval(*json.loads("[-Infinity, -Infinity]"))
    for lo, hi in ((1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)):
        assert Interval(lo, hi).hi == hi
    # an overflowing operation stops short of an infinite point
    big = Interval(1e308)
    for r in (big * 10.0, big + big, big / 1e-10):
        assert r.lo == 1.7976931348623157e308 and r.hi == math.inf


def test_point_and_contains():
    a = Interval(1.0, 2.0)
    assert 1.5 in a
    assert 1.0 in a and 2.0 in a
    assert 2.5 not in a
    assert Interval(1.25, 1.75) in a


# -- arithmetic examples -----------------------------------------------------


def test_add_exact_endpoints():
    r = Interval(1, 2) + Interval(3, 4)
    assert r.lo <= 4.0 and 6.0 <= r.hi
    assert ulps_apart(r.lo, 4.0, 2) and ulps_apart(r.hi, 6.0, 2)


def test_mul_mixed_signs():
    r = Interval(-1, 2) * Interval(3, 4)
    assert r.lo <= -4.0 and 8.0 <= r.hi
    assert ulps_apart(r.lo, -4.0, 2) and ulps_apart(r.hi, 8.0, 2)


def test_div_by_zero_interval_raises():
    with pytest.raises(DivisionByZeroInterval):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(DivisionByZeroInterval):
        Interval(1, 2) / Interval(0, 1)


def test_div_unbounded_has_no_nan_endpoint():
    # -inf / -inf is the corner where x, y -> -inf give every positive
    # quotient; the other corners give -1, -0 and +inf.  [DERIVED]
    r = Interval(-math.inf, 1.0) / Interval(-math.inf, -1.0)
    assert not (math.isnan(r.lo) or math.isnan(r.hi))
    assert r.contains_zero() and -1.0 in r and r.hi == math.inf
    assert r.lo >= math.nextafter(-1.0, DOWN)
    # opposite signs at the infinite corner fill the negative half-line
    r = Interval(1.0, math.inf) / Interval(-math.inf, -2.0)
    assert r == Interval(-math.inf, math.nextafter(0.0, UP))
    # finite operands keep the four-corner result bit for bit
    r = Interval(1.0, 3.0) / Interval(2.0, 4.0)
    assert r == Interval(math.nextafter(0.25, DOWN), math.nextafter(1.5, UP))


def test_neg_abs_exact():
    a = Interval(-3.0, 2.0)
    assert (-a) == Interval(-2.0, 3.0)
    assert abs(a) == Interval(0.0, 3.0)
    assert abs(Interval(-5.0, -1.0)) == Interval(1.0, 5.0)


def test_scalar_mixing():
    a = Interval(1.0, 2.0)
    assert 3.0 in (a + 1.0) and 2.0 in (a + 1.0)
    assert 4.0 in (2.0 * a)
    assert 0.5 in (a - 0.5)
    assert 1.0 in (2.0 / a)


# -- elementary functions ----------------------------------------------------


def test_sqrt_basic():
    r = sqrt(Interval(4.0, 9.0))
    assert r.lo <= 2.0 and 3.0 <= r.hi
    assert ulps_apart(r.lo, 2.0, 2) and ulps_apart(r.hi, 3.0, 2)
    assert sqrt(Interval(0.0, 0.0)) == Interval(0.0, 0.0)


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        sqrt(Interval(-1.0, 4.0))


def test_sqrt2_contains_bisection_root():
    # Bisection oracle for sqrt(2) in exact rational arithmetic.
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(80):
        m = (lo + hi) / 2
        if m * m < 2:
            lo = m
        else:
            hi = m
    r = sqrt(Interval(2.0, 2.0))
    assert Fraction(r.lo) <= lo and hi <= Fraction(r.hi)


def test_exp_monotone_and_tight():
    r = exp(Interval(0.0, 1.0))
    assert r.lo <= 1.0 and math.e <= r.hi
    assert ulps_apart(r.lo, 1.0, 4)
    assert ulps_apart(r.hi, math.e, 4)


# -- set operations ----------------------------------------------------------


def test_intersect_empty_is_none():
    assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)) is None
    got = Interval(0.0, 2.0).intersect(Interval(1.0, 3.0))
    assert got == Interval(1.0, 2.0)
    # Touching endpoints intersect in a point.
    assert Interval(0.0, 1.0).intersect(Interval(1.0, 2.0)) == Interval(1.0, 1.0)


def test_hull():
    assert Interval(0.0, 1.0).hull(Interval(3.0, 4.0)) == Interval(0.0, 4.0)


# -- property tests ----------------------------------------------------------


@given(intervals(), intervals(), intervals(), intervals())
def test_inclusion_monotonicity(a, b, da, db):
    big_a = a.hull(da)
    big_b = b.hull(db)
    assert (a + b).is_subset_of(big_a + big_b)
    assert (a - b).is_subset_of(big_a - big_b)
    assert (a * b).is_subset_of(big_a * big_b)
    if not (big_b.lo <= 0.0 <= big_b.hi):
        assert (a / b).is_subset_of(big_a / big_b)


@given(intervals(), intervals())
def test_sub_add_relationship(a, b):
    # x in a, y in b implies x - y + y in (a - b) + b.
    assert a.is_subset_of((a - b) + b)


@given(intervals())
def test_json_round_trip_bit_exact(a):
    text = json.dumps(a.to_json())
    back = Interval(*json.loads(text))
    assert back.lo == a.lo and back.hi == a.hi


def test_json_round_trip_awkward_floats():
    for x in (5e-324, -5e-324, 1.7976931348623157e308, 0.1, 2.0**-1074):
        a = Interval(-abs(x), abs(x))
        back = Interval(*json.loads(json.dumps(a.to_json())))
        assert back == a


# -- fuzz suites (smaller counts here; acceptance runs the full sizes) -------


def test_fuzz_arith_containment_small():
    assert fuzztools.fuzz_arith_containment(3000) == 3000


def test_fuzz_sqrt_containment_small():
    assert fuzztools.fuzz_sqrt_containment(3000) == 3000


def test_fuzz_elem_containment_small():
    assert fuzztools.fuzz_elem_containment(800) == 800


def test_fuzz_width_growth_small():
    assert fuzztools.fuzz_width_growth(3000) == 3000


# -- idot ---------------------------------------------------------------------


def test_idot_matches_naive():
    xs = [Interval(1, 2), Interval(-1, 1), Interval(0.5)]
    ys = [Interval(3, 4), Interval(2, 2), Interval(-2, -1)]
    fused = idot(xs, ys)
    naive = Interval(0.0)
    for x, y in zip(xs, ys):
        naive = naive + x * y
    # Same enclosure quality: each contains the exact range; widths close.
    assert fused.intersect(naive) is not None
    assert naive.is_subset_of(Interval(fused.lo - 1e-12, fused.hi + 1e-12))
    assert fused.is_subset_of(Interval(naive.lo - 1e-12, naive.hi + 1e-12))


# -- float-pair kernels against the Interval-object forms ---------------------

_TINY = 5e-324
_MIN_NORMAL = 2.2250738585072014e-308
_SPECIAL = [
    0.0, -0.0, math.inf, -math.inf, refarith.MAXF, -refarith.MAXF,
    _TINY, -_TINY, 3 * _TINY, -7 * _TINY, _MIN_NORMAL, -_MIN_NORMAL,
    _MIN_NORMAL - _TINY, 1.0, -1.0, 1.0 + 2.0**-52, -(1.0 + 2.0**-52),
    2.0**-53, 1e308, -1e308, 0.75 * refarith.MAXF, 3.0, -0.1,
]


def _random_floats(rng, n: int) -> list:
    """Floats of both signs over the whole range, subnormals included."""
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.2:
            out.append(rng.choice(_SPECIAL))
        elif kind < 0.35:
            out.append(rng.choice([-1, 1]) * rng.randint(1, 2**20) * _TINY)
        else:
            out.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308))
    return out


def _random_intervals(rng, n: int) -> list:
    """Intervals with zero endpoints of both signs, zero, infinite and
    overflowing ones."""
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            out.append(rng.choice([
                Interval(-math.inf, 1.0), Interval(-2.0, math.inf),
                Interval(-math.inf, math.inf), Interval(0.0, math.inf),
                Interval(-math.inf, -0.0), Interval(1e300, math.inf),
            ]))
        elif kind < 0.2:
            out.append(Interval(rng.choice([0.0, -0.0]),
                                rng.choice([0.0, 3.0, _TINY])))
        elif kind < 0.25:
            out.append(Interval(-rng.choice([0.0, 2.0, _TINY]),
                                rng.choice([-0.0, 0.0])))
        else:
            lo, hi = sorted(_random_floats(rng, 2))
            while lo == hi and math.isinf(lo):
                lo, hi = sorted(_random_floats(rng, 2))
            out.append(Interval(lo, hi))
    return out


def test_directed_sums_match_the_overflow_first_branches():
    # [TRIVIAL] _add_dn and _add_up test the TwoSum error first; the
    # branch order they replace is the reference, bit for bit, on zeros
    # of both signs, infinities, overflows and subnormals
    rng = random.Random(358)
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL]
    pairs += [tuple(_random_floats(rng, 2)) for _ in range(20000)]
    for a, b in pairs:
        assert repr(_add_dn(a, b)) == repr(refarith.add_dn(a, b)), (a, b)
        assert repr(_add_up(a, b)) == repr(refarith.add_up(a, b)), (a, b)


def _le(x: float, y: Fraction) -> bool:
    return x == DOWN or (x != UP and Fraction(x) <= y)


def _ge(x: float, y: Fraction) -> bool:
    return x == UP or (x != DOWN and Fraction(x) >= y)


def test_directed_sums_are_the_adjacent_floats():
    # [DERIVED] exact rational sums: for finite a and b, _add_dn(a, b) is
    # the greatest float at or below a + b and _add_up(a, b) the least at
    # or above (-inf and inf past the finite range), on random pairs,
    # near cancellations, equal exponents, subnormals, signed zeros and
    # overflows.  With an infinite operand an infinite sum gives
    # maxfloat at its near end, as an overflow does, and inf - inf the
    # whole line.
    rng = random.Random(1401)
    maxf = refarith.MAXF
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL]
    pairs += [(maxf, 2.0**970), (maxf, 2.0**969), (-maxf, -2.0**970),
              (-maxf, 2.0**970), (_TINY, -0.0), (-0.0, -0.0)]
    pairs += [tuple(_random_floats(rng, 2)) for _ in range(1500)]
    for _ in range(1500):
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 307)
        pairs.append((a, -a * (1.0 + rng.uniform(-1e-3, 1e-3))))
        pairs.append((a, a * rng.uniform(0.5, 2.0)))
    for a, b in pairs:
        dn, up = _add_dn(a, b), _add_up(a, b)
        if math.isinf(a) or math.isinf(b):
            s = a + b
            want = ((DOWN, UP) if s != s else (maxf, UP) if s > 0
                    else (DOWN, -maxf))
            assert (dn, up) == want, (a, b)
            continue
        exact = Fraction(a) + Fraction(b)
        assert _le(dn, exact) and not _le(math.nextafter(dn, UP), exact), (
            a, b)
        assert _ge(up, exact) and not _ge(math.nextafter(up, DOWN), exact), (
            a, b)


def test_corner_product_matches_four_corners():
    # [TRIVIAL] the product picks its two corners by sign; the min and max
    # of all four corners with 0 * inf = 0 is the reference, bit for bit,
    # and Interval multiplication and sq round as their pair forms do
    rng = random.Random(270)
    xs = _random_intervals(rng, 3000)
    ys = _random_intervals(rng, 3000)
    for x, y in zip(xs, ys):
        ref = refarith.bits(refarith.mul(x, y))
        assert tuple(map(repr, _mul_ends(x.lo, x.hi, y.lo, y.hi))) == ref
        assert refarith.bits(x * y) == ref
        assert refarith.bits(sq(x)) == refarith.bits(refarith.sq(x))
        assert repr(_mid(x.lo, x.hi)) == repr(x.mid)


def test_idot_matches_four_corner_terms():
    # [TRIVIAL] idot and its endpoint form against the four-corner
    # accumulation, bit for bit, over lengths 0 to 8
    rng = random.Random(1988)
    for _ in range(1500):
        n = rng.randint(0, 8)
        xs, ys = _random_intervals(rng, n), _random_intervals(rng, n)
        ref = refarith.bits(refarith.idot(xs, ys))
        assert refarith.bits(idot(xs, ys)) == ref
        ends = _idot_ends([x.lo for x in xs], [x.hi for x in xs],
                          [y.lo for y in ys], [y.hi for y in ys])
        assert tuple(map(repr, ends)) == ref


def test_decimal_to_interval():
    a = decimal_to_interval("0.5")
    assert a.lo == a.hi == 0.5
    b = decimal_to_interval("0.1")
    assert b.width <= 2 * math.ulp(0.1)
    assert Fraction(b.lo) <= Fraction("0.1") <= Fraction(b.hi)
    c = decimal_to_interval("0.004253863522")
    assert Fraction(c.lo) <= Fraction("0.004253863522") <= Fraction(c.hi)
    assert c.width <= 2 * math.ulp(0.005)


def _decimal_reference(s: str) -> Interval:
    # the enclosure from Fraction(s) itself, which expands 10**|e|
    f = float(s)
    d = Fraction(s) - Fraction(f)
    return Interval(math.nextafter(f, -math.inf) if d < 0 else f,
                    math.nextafter(f, math.inf) if d > 0 else f)


def test_decimal_to_interval_huge_exponents():
    # [TRIVIAL] below the least subnormal, or 0 at any exponent, in under
    # 0.1 s each; then bit for bit the reference at exponents -330 to
    # -20000, with digits that keep the double at 0 and away from it
    for s, want in (("1e-100000000", (0.0, 5e-324)),
                    ("-1e-100000000", (-5e-324, -0.0)),
                    ("0e+100000000", (0.0, 0.0)), ("0e-100000000", (0.0, 0.0))):
        t0 = time.perf_counter()
        got = decimal_to_interval(s)
        assert time.perf_counter() - t0 < 0.1, s
        assert refarith.bits(got) == tuple(map(repr, want)), s
    for e in [*range(-330, -400, -1), *range(-400, -20001, -997), -20000]:
        # the last digits reach a double of 1e-300 while e >= -4300
        for digits in ("1", "-2.5", "0", "9" * 17, "1" + "0" * min(-e - 300, 4000)):
            s = f"{digits}e{e}"
            want = refarith.bits(_decimal_reference(s))
            assert refarith.bits(decimal_to_interval(s)) == want, s


# -- vectors, matrices, norms -------------------------------------------------


def test_vec_norm_sup_pythagorean():
    v = IVector([Interval(3, 3), Interval(4, 4)])
    r = vec_norm_sup(v)
    assert 5.0 in r
    assert r.width <= 16 * math.ulp(5.0)


def test_matvec_containment():
    m = IMatrix.from_floats([[1.0, 2.0], [0.0, -1.0]])
    v = IVector([Interval(1, 2), Interval(3, 3)])
    r = m.matvec(v)
    assert 7.0 in r[0] and 8.0 in r[0]
    assert -3.0 in r[1]


def test_mat_opnorm_upper_vs_numpy_oracle():
    import numpy as np

    rng = __import__("random").Random(11)
    for _ in range(100):
        rows = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)]
        m = IMatrix.from_floats(rows)
        bound = mat_opnorm_upper(m)
        true = float(np.linalg.norm(np.array(rows), 2))
        assert bound >= true - 1e-12
        assert bound <= math.sqrt(3) * true + 1e-12  # Frobenius-type slack


def test_mat_opnorm_upper_interval_entries():
    m = IMatrix([[Interval(-1, 1), Interval(0)], [Interval(0), Interval(-1, 1)]])
    assert mat_opnorm_upper(m) >= 1.0


def test_matmul_identity():
    m = IMatrix.from_floats([[1.0, 2.0], [3.0, 4.0]])
    eye = IMatrix.identity(2)
    prod = m.matmul(eye)
    for i in range(2):
        for j in range(2):
            assert m[i, j].mid in prod[i, j]


def test_symmetrize():
    m = IMatrix.from_floats([[0.0, 2.0], [4.0, 0.0]])
    s = m.symmetrize()
    assert 3.0 in s[0, 1] and 3.0 in s[1, 0]


# -- box operations -----------------------------------------------------------


def test_box_ops():
    a: Box = IVector([Interval(0, 1), Interval(0, 1)])
    b: Box = IVector([Interval(0.5, 2), Interval(-1, 0.5)])
    i = box_intersect(a, b)
    assert i is not None and i[0] == Interval(0.5, 1) and i[1] == Interval(0, 0.5)
    assert box_intersect(a, IVector([Interval(2, 3), Interval(0, 1)])) is None
