"""Interval arithmetic with outward rounding, the substrate for every certificate.

All operations satisfy containment: if x is in a and y is in b then the exact
value x op y lies in op(a, b).  Directed rounding is emulated by nudging
endpoints with math.nextafter after each float operation, since CPython gives
no access to hardware rounding modes.  The cost is at most one ulp of extra
width per endpoint for rational operations (add, sub, mul, div, sqrt) and two
ulps for exp, whose libm implementation is accurate to one ulp but not
correctly rounded.

Width growth per operation is therefore bounded by 4 ulp beyond the exact
range for rational operations and 6 ulp for exp.  Intervals
are closed and endpoints may be +-inf (unbounded enclosure), but, as in
IEEE 1788-2015, no interval is an infinite point: the reals have no
infinite members, so the constructors reject [inf, inf] and [-inf, -inf],
and no operation returns one (an overflowing endpoint stops at the
largest finite double on its inner side).  No endpoint is ever NaN: the
constructor rejects NaN, and the operations whose float kernels
can produce one define it away -- inf - inf in add and sub rounds to the
infinite endpoint, 0 * inf is 0 in mul, and inf / inf in div stands for its
signed half-line.
The internal fast constructor _mk does not check.  Empty intersection is
represented by None, never by an interval with lo > hi.

Intervals are immutable by convention: no method mutates endpoints, so values
can be shared freely.  A float operand is a point interval: a NaN one
raises.  The float-pair kernels (_add_dn, _add_up, _mul_ends, _sq_ends,
_sqrt_ends, _idot_ends) are the operations on (lo, hi) endpoints that
the Interval methods call, so code written on float pairs with them
rounds bit for bit as the same formula in Interval objects; _acc_mul
inlines _mul_ends and the exact-directed sums for matrices of pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter

__all__ = [
    "Interval",
    "IVector",
    "IMatrix",
    "Box",
    "DomainError",
    "DivisionByZeroInterval",
    "sqrt",
    "exp",
    "sq",
    "idot",
    "eye",
    "decimal_to_interval",
    "mat_opnorm_upper",
]


class DomainError(ValueError):
    """Elementary function evaluated on an interval outside its domain."""


class DivisionByZeroInterval(ZeroDivisionError):
    """Division by an interval whose enclosure contains zero."""


def _mk(lo: float, hi: float) -> "Interval":
    # Internal fast constructor, skips validation.  Callers guarantee lo <= hi
    # and no NaN by construction.
    iv = Interval.__new__(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _add_dn(a: float, b: float) -> float:
    # Directed addition rounding down, exactly rounded via the TwoSum error
    # term: a + b = s + err holds exactly in the absence of overflow, so the
    # nudge is skipped whenever the float sum is already exact or below.
    # The error, tested first, is NaN only for an infinite or NaN sum: the
    # nudge then takes an overflow to maxfloat and keeps -inf, and
    # inf - inf rounds to -inf.
    s = a + b
    bp = s - a
    ap = s - bp
    if (a - ap) + (b - bp) >= 0.0:
        return s
    return _nextafter(s, _NINF) if s == s else _NINF


def _add_up(a: float, b: float) -> float:
    s = a + b
    bp = s - a
    ap = s - bp
    if (a - ap) + (b - bp) <= 0.0:
        return s
    return _nextafter(s, _INF) if s == s else _INF


def _mul_ends(a0: float, a1: float, b0: float, b1: float) -> tuple:
    """[a0, a1] * [b0, b1] as (lo, hi), rounded as Interval products are:
    the least and the greatest corner product, picked by the signs of
    the endpoints, each nudged outward.  A NaN corner is 0 * inf, which
    comes only from a factor [0, 0], whose corners are all 0."""
    if b0 >= 0.0:
        p = a0 * (b1 if a0 < 0.0 else b0)
        q = a1 * (b0 if a1 < 0.0 else b1)
    elif b1 <= 0.0:
        p = a1 * (b0 if a1 >= 0.0 else b1)
        q = a0 * (b1 if a0 >= 0.0 else b0)
    elif a0 >= 0.0:
        p, q = a1 * b0, a1 * b1
    elif a1 <= 0.0:
        p, q = a0 * b1, a0 * b0
    else:
        p, q = min(a0 * b1, a1 * b0), max(a0 * b0, a1 * b1)
    return (_nextafter(p if p == p else 0.0, _NINF),
            _nextafter(q if q == q else 0.0, _INF))


def _idot_ends(alo, ahi, blo, bhi) -> tuple:
    """idot on endpoint lists: (lo, hi) of sum_i [alo_i, ahi_i] *
    [blo_i, bhi_i] over the common length, each product rounded as
    _mul_ends rounds it and each sum nudged outward."""
    lo = hi = 0.0
    for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
        p, q = _mul_ends(a0, a1, b0, b1)
        lo = _nextafter(lo + p, _NINF)
        hi = _nextafter(hi + q, _INF)
    return lo, hi


def _acc_mul(acc: list, a: list, b: list) -> list:
    """acc + a b for matrices of (lo, hi) float pairs, lists of rows:
    entry (i, j) rounds as the Interval sum acc_ij + a_i0 b_0j +
    a_i1 b_1j + ... in that order does, each product's least and greatest
    corner picked by the signs and nudged outward (a NaN corner, 0 * inf,
    is 0, as in _mul_ends) and each sum exact-directed by its TwoSum
    error (as _add_dn and _add_up), all inline.  The local Jacobian
    (rtbp.local_jacobian) forms every sum of products with it."""
    cols = list(zip(*b))
    out = []
    for acc_row, a_row in zip(acc, a):
        row = []
        for (lo, hi), col in zip(acc_row, cols):
            for (a0, a1), (b0, b1) in zip(a_row, col):
                if b0 >= 0.0:
                    p = a0 * (b1 if a0 < 0.0 else b0)
                    q = a1 * (b0 if a1 < 0.0 else b1)
                elif b1 <= 0.0:
                    p = a1 * (b0 if a1 >= 0.0 else b1)
                    q = a0 * (b1 if a0 >= 0.0 else b0)
                elif a0 >= 0.0:
                    p = a1 * b0
                    q = a1 * b1
                elif a1 <= 0.0:
                    p = a0 * b1
                    q = a0 * b0
                else:
                    p = a0 * b1
                    t = a1 * b0
                    if t < p:
                        p = t
                    q = a0 * b0
                    t = a1 * b1
                    if t > q:
                        q = t
                p = _nextafter(p if p == p else 0.0, _NINF)
                q = _nextafter(q if q == q else 0.0, _INF)
                s = lo + p
                t = s - lo
                if not (lo - (s - t)) + (p - t) >= 0.0:
                    s = _nextafter(s, _NINF) if s == s else _NINF
                lo = s
                s = hi + q
                t = s - hi
                if not (hi - (s - t)) + (q - t) <= 0.0:
                    s = _nextafter(s, _INF) if s == s else _INF
                hi = s
            row.append((lo, hi))
        out.append(row)
    return out


def _mid(lo: float, hi: float) -> float:
    """Interval(lo, hi).mid."""
    if lo == _NINF and hi == _INF:
        return 0.0
    m = 0.5 * (lo + hi)
    if m != m or m == _INF or m == _NINF:
        m = 0.5 * lo + 0.5 * hi
    # Clamp: the reported midpoint must lie inside the interval.
    return min(max(m, lo), hi)


def _ends(x) -> tuple:
    """(lo, hi) of an operand; a float is a point, and a NaN one raises."""
    if isinstance(x, Interval):
        return x.lo, x.hi
    f = float(x)
    if f != f:
        raise ValueError("NaN endpoint")
    return f, f


class Interval:
    """Closed interval [lo, hi] of doubles with outward-rounded arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not lo <= hi:  # NaN or inverted
            if lo != lo or hi != hi:
                raise ValueError("NaN endpoint")
            raise ValueError(f"inverted endpoints: [{lo!r}, {hi!r}]")
        if lo == hi and lo - hi != 0.0:  # inf - inf is NaN
            raise ValueError(f"infinite point: [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    # -- structure -----------------------------------------------------------

    @property
    def width(self) -> float:
        # Rounded up so a reported width is itself an upper bound.
        return _nextafter(self.hi - self.lo, _INF) if self.hi != self.lo else 0.0

    @property
    def mid(self) -> float:
        return _mid(self.lo, self.hi)

    @property
    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __contains__(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def strictly_inside(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        """Exact intersection, None when empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return _mk(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        return _mk(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = _mk(*_ends(other))
        return _mk(_add_dn(self.lo, other.lo), _add_up(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = _mk(*_ends(other))
        return _mk(_add_dn(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __rsub__(self, other) -> "Interval":
        o = _ends(other)[0]
        return _mk(_add_dn(o, -self.hi), _add_up(o, -self.lo))

    def __mul__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            return _mk(*_mul_ends(self.lo, self.hi, *_ends(other)))
        return _mk(*_mul_ends(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = _mk(*_ends(other))
        if other.lo <= 0.0 <= other.hi:
            raise DivisionByZeroInterval(f"denominator {other!r} contains zero")
        q1 = self.lo / other.lo
        q2 = self.lo / other.hi
        q3 = self.hi / other.lo
        q4 = self.hi / other.hi
        if q1 != q1 or q2 != q2 or q3 != q3 or q4 != q4:
            return _div_unbounded(self, other)
        return _mk(
            _nextafter(min(q1, q2, q3, q4), _NINF),
            _nextafter(max(q1, q2, q3, q4), _INF),
        )

    def __rtruediv__(self, other) -> "Interval":
        return _mk(*_ends(other)) / self

    def __neg__(self) -> "Interval":
        return _mk(-self.hi, -self.lo)

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return _mk(self.lo, self.hi)
        if self.hi <= 0.0:
            return _mk(-self.hi, -self.lo)
        return _mk(0.0, max(-self.lo, self.hi))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def to_json(self) -> list[float]:
        return [self.lo, self.hi]


def _div_unbounded(a: Interval, b: Interval) -> Interval:
    """a / b when an infinite endpoint of a meets one of b.

    inf / inf has no value, but the quotients x / y with x and y running
    off to those infinities fill a half-line, [0, inf] for like signs and
    [-inf, 0] otherwise (IEEE 1788); that half-line stands in for the
    NaN corner, so no NaN endpoint escapes.
    """
    lo, hi = _INF, _NINF
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            q = x / y
            if q == q:
                lo, hi = min(lo, q), max(hi, q)
            elif (x > 0.0) == (y > 0.0):
                lo, hi = min(lo, 0.0), _INF
            else:
                lo, hi = _NINF, max(hi, 0.0)
    return _mk(_nextafter(lo, _NINF), _nextafter(hi, _INF))


# -- elementary functions ----------------------------------------------------


def sqrt(x: Interval) -> Interval:
    """Square root.  Requires x.lo >= 0, otherwise DomainError."""
    if x.lo < 0.0:
        raise DomainError(f"sqrt of interval containing negatives: {x!r}")
    return _mk(*_sqrt_ends(x.lo, x.hi))


def _sqrt_ends(lo: float, hi: float) -> tuple:
    """sqrt on the endpoints (lo, hi), 0 <= lo."""
    # math.sqrt is correctly rounded, one nudge per endpoint suffices.
    r0 = _nextafter(math.sqrt(lo), _NINF) if lo != 0.0 else 0.0
    r1 = _nextafter(math.sqrt(hi), _INF) if hi != 0.0 else 0.0
    return max(r0, 0.0), r1


def _pad2_down(v: float) -> float:
    return _nextafter(_nextafter(v, _NINF), _NINF)


def _pad2_up(v: float) -> float:
    return _nextafter(_nextafter(v, _INF), _INF)


def exp(x: Interval) -> Interval:
    # libm exp is accurate to 1 ulp, pad 2 ulp outward.
    try:
        lo = _pad2_down(math.exp(x.lo))
    except OverflowError:
        lo = 1.7976931348623157e308
    try:
        hi = _pad2_up(math.exp(x.hi))
    except OverflowError:
        hi = _INF
    return _mk(max(lo, 0.0), hi)


def sq(x: Interval) -> Interval:
    """x*x with the dependency resolved, result always >= 0."""
    return _mk(*_sq_ends(x.lo, x.hi))


def _sq_ends(lo: float, hi: float) -> tuple:
    """sq on the endpoints (lo, hi)."""
    if lo >= 0.0:
        return max(_nextafter(lo * lo, _NINF), 0.0), _nextafter(hi * hi, _INF)
    if hi <= 0.0:
        return max(_nextafter(hi * hi, _NINF), 0.0), _nextafter(lo * lo, _INF)
    m = max(-lo, hi)
    return 0.0, _nextafter(m * m, _INF)


def idot(xs: Sequence[Interval], ys: Sequence[Interval]) -> Interval:
    """Fused interval dot product sum(xs[i] * ys[i]), summed on the
    endpoints by _idot_ends with one outward nudge per term.  The IMatrix
    products and flow's Lohner update sum with it; the Taylor recurrences
    (rtbp._dot) fall back to it only for a dot with an infinite or
    overflowing sum."""
    return _mk(*_idot_ends([x.lo for x in xs], [x.hi for x in xs],
                           [y.lo for y in ys], [y.hi for y in ys]))


def decimal_to_interval(s: str) -> Interval:
    """Tightest interval around an exact decimal literal.

    The decimal is compared exactly against the nearest double via Fraction,
    so the result is the double itself when representable and the bracketing
    one-ulp interval otherwise; 10^|e| of the exponent e is formed only for
    a nonzero double, and at 0 the sign of the digits decides.  Used for
    configuration values such as mass ratios given as decimal strings.
    """
    f = float(s)
    if math.isinf(f):
        raise ValueError(f"decimal out of double range: {s}")
    digits, _, e = s.strip().lower().partition("e")
    exact = Fraction(digits)
    if f and e:
        exact *= Fraction(10) ** int(e)
    approx = Fraction(f)
    if approx == exact:
        return _mk(f, f)
    if approx < exact:
        return _mk(f, _nextafter(f, _INF))
    return _mk(_nextafter(f, _NINF), f)


def eye(n: int) -> list[list[float]]:
    """The n x n identity matrix as float rows."""
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


# -- vectors and matrices ----------------------------------------------------


class IVector:
    """Vector of intervals, componentwise sound."""

    __slots__ = ("c",)

    def __init__(self, comps: Iterable[Interval | float]):
        self.c = [
            x if isinstance(x, Interval) else Interval(float(x))
            for x in comps
        ]

    @classmethod
    def from_floats(cls, xs: Iterable[float]) -> "IVector":
        return cls([Interval(float(x)) for x in xs])

    def __len__(self) -> int:
        return len(self.c)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.c)

    def __getitem__(self, i):
        return self.c[i]

    def __add__(self, other: "IVector") -> "IVector":
        return IVector([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other: "IVector") -> "IVector":
        return IVector([a - b for a, b in zip(self.c, other.c)])

    def mid(self) -> list[float]:
        return [a.mid for a in self.c]

    def is_subset_of(self, other: "IVector") -> bool:
        return all(a.is_subset_of(b) for a, b in zip(self.c, other.c))

    def __eq__(self, other) -> bool:
        return isinstance(other, IVector) and self.c == other.c

    def __repr__(self) -> str:
        return f"IVector({self.c!r})"

    def to_json(self) -> list[list[float]]:
        return [a.to_json() for a in self.c]


# A Box is an IVector regarded as a product of intervals.
Box = IVector


class IMatrix:
    """Dense matrix of intervals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Interval | float]]):
        self.rows = [
            [
                x if isinstance(x, Interval) else Interval(float(x))
                for x in row
            ]
            for row in rows
        ]

    @classmethod
    def from_floats(cls, rows) -> "IMatrix":
        return cls([[Interval(float(x)) for x in row] for row in rows])

    @classmethod
    def identity(cls, n: int) -> "IMatrix":
        return cls.from_floats(eye(n))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> list[Interval]:
        return list(self.rows[i])

    def col(self, j: int) -> list[Interval]:
        return [r[j] for r in self.rows]

    def __add__(self, other: "IMatrix") -> "IMatrix":
        return IMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IMatrix") -> "IMatrix":
        return IMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "IMatrix":
        return IMatrix([[-a for a in row] for row in self.rows])

    def matvec(self, v: IVector) -> IVector:
        return IVector([idot(row, v.c) for row in self.rows])

    def matmul(self, other: "IMatrix") -> "IMatrix":
        cols = [other.col(j) for j in range(other.shape[1])]
        return IMatrix([[idot(row, col) for col in cols] for row in self.rows])

    def symmetrize(self) -> "IMatrix":
        """(M + M^T) / 2, entrywise interval arithmetic."""
        n, m = self.shape
        half = Interval(0.5)
        return IMatrix(
            [
                [(self.rows[i][j] + self.rows[j][i]) * half for j in range(m)]
                for i in range(n)
            ]
        )

    def mid(self) -> list[list[float]]:
        return [[a.mid for a in row] for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, IMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"IMatrix({self.rows!r})"

    def to_json(self):
        return [[a.to_json() for a in row] for row in self.rows]


# -- norms -------------------------------------------------------------------


def mat_opnorm_upper(m: IMatrix) -> float:
    """Upper bound on the spectral norm, valid for every point matrix in m.

    Computed as min(Frobenius, sqrt(norm_1 * norm_inf)) of the entrywise
    absolute-value majorant, each accumulation rounded upward.
    """
    return _opnorm_upper([[a.mag for a in row] for row in m.rows])


def _opnorm_upper(mags: list) -> float:
    """mat_opnorm_upper of the matrix of entry magnitudes mags."""
    n_rows, n_cols = len(mags), len(mags[0]) if mags else 0
    fro2 = 0.0
    for row in mags:
        for x in row:
            fro2 = _nextafter(fro2 + _nextafter(x * x, _INF), _INF)
    fro = _nextafter(math.sqrt(fro2), _INF)
    norm_inf = 0.0
    for row in mags:
        s = 0.0
        for x in row:
            s = _nextafter(s + x, _INF)
        norm_inf = max(norm_inf, s)
    norm_1 = 0.0
    for j in range(n_cols):
        s = 0.0
        for i in range(n_rows):
            s = _nextafter(s + mags[i][j], _INF)
        norm_1 = max(norm_1, s)
    holder = _nextafter(math.sqrt(_nextafter(norm_1 * norm_inf, _INF)), _INF)
    return min(fro, holder)
