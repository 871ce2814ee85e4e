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
can be shared freely.

IArray holds a batch of intervals as two float64 arrays, the batch along
the leading axis, and shares this rounding model: each of its operations
rounds every entry exactly as the Interval operation does (the same
float kernels, the same TwoSum-exact sums, the same outward nudges and
the same 0 * inf = 0 and inf / inf conventions), so a formula evaluated
on a batch gives, entry by entry, the endpoints the per-entry Interval
evaluation gives, bit for bit.  It raises the Interval operation's
exception when any entry would, and never lets a numpy floating-point
warning escape.  IArray.matmul is the batched twin of IMatrix.matmul
with the rounding of idot.  Its kernels keep the numpy calls per
operation few, as they cost more than the arithmetic on tens of entries.
A float operand of either class is a point interval: a NaN one raises.
"""

from __future__ import annotations

import contextvars
import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter

__all__ = [
    "Interval",
    "IArray",
    "IVector",
    "IMatrix",
    "MatrixSeries",
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


def _mid(lo: float, hi: float) -> float:
    """Interval(lo, hi).mid."""
    if lo == _NINF and hi == _INF:
        return 0.0
    m = 0.5 * (lo + hi)
    if m != m or m == _INF or m == _NINF:
        m = 0.5 * lo + 0.5 * hi
    # Clamp: the reported midpoint must lie inside the interval.
    return min(max(m, lo), hi)


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

    # A batch operand defers to IArray's reflected operation.
    def __add__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            if isinstance(other, IArray):
                return NotImplemented
            other = _mk(*_ends(other))
        return _mk(_add_dn(self.lo, other.lo), _add_up(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            if isinstance(other, IArray):
                return NotImplemented
            other = _mk(*_ends(other))
        return _mk(_add_dn(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __rsub__(self, other) -> "Interval":
        o = _ends(other)[0]
        return _mk(_add_dn(o, -self.hi), _add_up(o, -self.lo))

    def __mul__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            if isinstance(other, IArray):
                return NotImplemented
            return _mk(*_mul_ends(self.lo, self.hi, *_ends(other)))
        return _mk(*_mul_ends(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            if isinstance(other, IArray):
                return NotImplemented
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
    if isinstance(x, IArray):
        return x.sqrt()
    if x.lo < 0.0:
        raise DomainError(f"sqrt of interval containing negatives: {x!r}")
    # math.sqrt is correctly rounded, one nudge per endpoint suffices.
    lo = _nextafter(math.sqrt(x.lo), _NINF) if x.lo != 0.0 else 0.0
    hi = _nextafter(math.sqrt(x.hi), _INF) if x.hi != 0.0 else 0.0
    return _mk(max(lo, 0.0), hi)


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
    if isinstance(x, IArray):
        return x.sq()
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
    products and flow's Lohner update sum with it, and IArray.matmul
    rounds as it does; the Taylor recurrences (rtbp._dot) fall back to
    it only for a dot with an infinite or overflowing sum."""
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


# -- batches of intervals ----------------------------------------------------


# most entries of one product pass of IArray.matmul: past 4096 (32 KB per
# temporary) the time per entry grows by more than the saved calls
_MATMUL_BLOCK = 4096
_QUIET = contextvars.ContextVar("_QUIET", default=False)


def _quiet(fn):
    # Every special value is handled explicitly, so numpy's floating-point
    # warnings (inf - inf, 0 * inf, overflow) carry no information here.
    # The outermost wrapped call enters np.errstate once; the calls inside
    # it, such as the IArray operations of a batch formula, skip it.
    @functools.wraps(fn)
    def wrapper(*args):
        if _QUIET.get():
            return fn(*args)
        token = _QUIET.set(True)
        try:
            with np.errstate(all="ignore"):
                return fn(*args)
        finally:
            _QUIET.reset(token)

    return wrapper


def _lowest(x) -> float:
    """The lower endpoint of an Interval, the least one of an IArray."""
    return x.lo if isinstance(x, Interval) else float(x.lo.min())


def _ends(x):
    """(lo, hi) of an operand; a float is a point, and a NaN one raises."""
    if isinstance(x, (IArray, Interval)):
        return x.lo, x.hi
    f = float(x)
    if f != f:
        raise ValueError("NaN endpoint")
    return f, f


def _a_add_dn(a, b):
    # _add_dn entrywise, nudging the sum in place where the error is not
    # >= 0 (asarray: a 0-d sum is a numpy scalar).  An infinite or
    # overflowed sum makes the TwoSum error NaN, so the nudge gives -inf
    # and maxfloat as the scalar branches do; fmax turns the NaN of
    # inf - inf into -inf.
    s = np.asarray(a + b)
    bp = s - a
    ap = s - bp
    err = (a - ap) + (b - bp)
    np.nextafter(s, _NINF, out=s, where=~(err >= 0.0))
    return np.fmax(s, _NINF)


def _a_add_up(a, b):
    s = np.asarray(a + b)
    bp = s - a
    ap = s - bp
    err = (a - ap) + (b - bp)
    np.nextafter(s, _INF, out=s, where=~(err <= 0.0))
    return np.fmin(s, _INF)


def _a_mul(alo, ahi, blo, bhi):
    # Interval * Interval entrywise: min and max over the corner products
    # with 0 * inf = 0, nudged outward; minimum propagates NaN, so a NaN
    # minimum flags a 0 * inf corner
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    lo = np.minimum(np.minimum(ps[0], ps[1]), np.minimum(ps[2], ps[3]))
    hi = np.maximum(np.maximum(ps[0], ps[1]), np.maximum(ps[2], ps[3]))
    if np.isnan(np.minimum.reduce(lo, axis=None)):
        ps = [np.where(p == p, p, 0.0) for p in ps]
        lo = np.minimum(np.minimum(ps[0], ps[1]), np.minimum(ps[2], ps[3]))
        hi = np.maximum(np.maximum(ps[0], ps[1]), np.maximum(ps[2], ps[3]))
    return np.nextafter(lo, _NINF), np.nextafter(hi, _INF)


class IArray:
    """A batch of closed intervals [lo, hi] held as two float64 arrays.

    The batch runs along the leading axes; a vector or matrix of
    intervals per batch entry adds trailing axes.  Operands may be
    IArrays, Intervals or floats, broadcast as numpy arrays are, and
    every operation follows the Interval rounding model entry by entry
    (module docstring).  sq and sqrt dispatch here, so formulas written
    for Interval evaluate on a batch unchanged.
    """

    __slots__ = ("lo", "hi")
    # numpy operands defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=float)
        hi = lo if hi is None else np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ValueError(f"endpoint shapes differ: {lo.shape}, {hi.shape}")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("NaN endpoint")
        if (lo > hi).any():
            raise ValueError("inverted endpoints")
        if (lo == _INF).any() or (hi == _NINF).any():
            raise ValueError("infinite point")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _of(cls, lo, hi) -> "IArray":
        # fast constructor, callers guarantee lo <= hi and no NaN
        out = cls.__new__(cls)
        out.lo = lo
        out.hi = hi
        return out

    @classmethod
    def stack(cls, entries) -> "IArray":
        """One IArray from nested entries: Intervals or IArrays, in
        sequences, IVectors or IMatrix rows.  The entries' batch shapes
        broadcast and lead; the nesting, flattened a level at a time,
        becomes the trailing axes.  No numpy call is made per entry."""
        flat, nest = [entries], ()
        while not isinstance(flat[0], (Interval, IArray)):
            flat = [e.c if isinstance(e, IVector)
                    else e.rows if isinstance(e, IMatrix) else e for e in flat]
            nest += (len(flat[0]),)
            flat = [x for e in flat for x in e]
        shapes = {e.lo.shape for e in flat if isinstance(e, IArray)}
        batch = (shapes.pop() if len(shapes) == 1
                 else np.broadcast_shapes(*shapes))
        lo = np.empty(batch + (len(flat),))
        hi = np.empty(batch + (len(flat),))
        for k, e in enumerate(flat):
            lo[..., k] = e.lo
            hi[..., k] = e.hi
        return cls._of(lo.reshape(batch + nest), hi.reshape(batch + nest))

    @property
    def shape(self) -> tuple:
        return self.lo.shape

    def __getitem__(self, idx) -> "IArray":
        return IArray._of(self.lo[idx], self.hi[idx])

    def __repr__(self) -> str:
        return f"IArray({self.lo!r}, {self.hi!r})"

    def hull_over(self, axis: int = 0) -> "IArray":
        """Hull of the entries along one axis, which is removed.  Only
        the sign of a zero endpoint can differ from a chain of
        Interval.hull calls."""
        return IArray._of(self.lo.min(axis=axis), self.hi.max(axis=axis))

    def to_imatrix(self) -> "IMatrix":
        """The Interval matrix of a 2-d IArray, with float endpoints."""
        return IMatrix(
            [
                list(map(_mk, rl, rh))
                for rl, rh in zip(self.lo.tolist(), self.hi.tolist())
            ]
        )

    # -- arithmetic: the argument order of each kernel call is the one the
    # Interval operation with the same operands uses

    @_quiet
    def __add__(self, other) -> "IArray":
        olo, ohi = _ends(other)
        return IArray._of(_a_add_dn(self.lo, olo), _a_add_up(self.hi, ohi))

    @_quiet
    def __radd__(self, other) -> "IArray":
        olo, ohi = _ends(other)
        if isinstance(other, Interval):
            return IArray._of(_a_add_dn(olo, self.lo), _a_add_up(ohi, self.hi))
        # float + Interval is Interval.__add__ with the float second
        return IArray._of(_a_add_dn(self.lo, olo), _a_add_up(self.hi, ohi))

    @_quiet
    def __sub__(self, other) -> "IArray":
        olo, ohi = _ends(other)
        return IArray._of(_a_add_dn(self.lo, -ohi), _a_add_up(self.hi, -olo))

    @_quiet
    def __rsub__(self, other) -> "IArray":
        olo, ohi = _ends(other)
        return IArray._of(_a_add_dn(olo, -self.hi), _a_add_up(ohi, -self.lo))

    @_quiet
    def __mul__(self, other) -> "IArray":
        if isinstance(other, (IArray, Interval)):
            return IArray._of(*_a_mul(self.lo, self.hi, other.lo, other.hi))
        o = _ends(other)[0]
        lo, hi = (self.lo, self.hi) if o >= 0.0 else (self.hi, self.lo)
        lo, hi = lo * o, hi * o
        if not (o != 0.0 and math.isfinite(o)):  # 0 * inf = 0
            lo = np.where(lo == lo, lo, 0.0)
            hi = np.where(hi == hi, hi, 0.0)
        return IArray._of(np.nextafter(lo, _NINF), np.nextafter(hi, _INF))

    __rmul__ = __mul__

    @_quiet
    def __truediv__(self, other) -> "IArray":
        return _a_div(self.lo, self.hi, *_ends(other))

    @_quiet
    def __rtruediv__(self, other) -> "IArray":
        return _a_div(*_ends(other), self.lo, self.hi)

    def __neg__(self) -> "IArray":
        return IArray._of(-self.hi, -self.lo)

    @_quiet
    def sq(self) -> "IArray":
        """sq entrywise."""
        lo, hi = self.lo, self.hi
        ll, hh = lo * lo, hi * hi
        pos = lo >= 0.0
        neg = hi <= 0.0
        small = np.maximum(np.nextafter(np.where(pos, ll, hh), _NINF), 0.0)
        big = np.where(pos, hh, np.where(neg, ll, np.maximum(ll, hh)))
        return IArray._of(
            np.where(pos | neg, small, 0.0), np.nextafter(big, _INF)
        )

    @_quiet
    def sqrt(self) -> "IArray":
        """sqrt entrywise; DomainError if any entry reaches below zero."""
        lo, hi = self.lo, self.hi
        if np.logical_or.reduce(lo < 0.0, axis=None):
            raise DomainError("sqrt of a batch with negative entries")
        rlo = np.where(lo != 0.0, np.nextafter(np.sqrt(lo), _NINF), 0.0)
        rhi = np.where(hi != 0.0, np.nextafter(np.sqrt(hi), _INF), 0.0)
        return IArray._of(np.maximum(rlo, 0.0), rhi)

    @_quiet
    def matmul(self, other: "IArray") -> "IArray":
        """Batched twin of IMatrix.matmul: (..., n, k) times (..., k, m),
        the batch axes broadcast, every entry summed as idot sums it.
        One _a_mul forms the products of as many k terms as keep its
        (..., n, k, m) broadcast within _MATMUL_BLOCK entries, all k of
        them for a small batch; the sum runs over k in order, nudged
        after each term."""
        lead = np.broadcast_shapes(self.lo.shape[:-1], other.lo.shape[:-2] + (1,))
        step = max(1, _MATMUL_BLOCK // max(1, math.prod(lead) * other.lo.shape[-1]))
        lo = hi = 0.0
        for t0 in range(0, self.lo.shape[-1], step):
            ks = slice(t0, t0 + step)
            plo, phi = _a_mul(
                self.lo[..., :, ks, None], self.hi[..., :, ks, None],
                other.lo[..., None, ks, :], other.hi[..., None, ks, :],
            )
            for t in range(plo.shape[-2]):
                lo = np.nextafter(lo + plo[..., t, :], _NINF)
                hi = np.nextafter(hi + phi[..., t, :], _INF)
        return IArray._of(lo, hi)


def _a_div(alo, ahi, blo, bhi) -> IArray:
    # Interval.__truediv__ entrywise, with its inf / inf half-lines
    if np.logical_or.reduce((blo <= 0.0) & (bhi >= 0.0), axis=None):
        raise DivisionByZeroInterval("a denominator in the batch contains zero")
    qs = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    lo = np.minimum(np.minimum(qs[0], qs[1]), np.minimum(qs[2], qs[3]))
    hi = np.maximum(np.maximum(qs[0], qs[1]), np.maximum(qs[2], qs[3]))
    lo = np.nextafter(lo, _NINF)
    hi = np.nextafter(hi, _INF)
    if np.isnan(np.minimum.reduce(lo, axis=None)):
        bad = np.isnan(lo)
        ends = np.broadcast_arrays(alo, ahi, blo, bhi)
        for idx in zip(*np.nonzero(bad)):
            a0, a1, b0, b1 = (float(e[idx]) for e in ends)
            r = _div_unbounded(_mk(a0, a1), _mk(b0, b1))
            lo[idx], hi[idx] = r.lo, r.hi
    return IArray._of(lo, hi)


# -- vectors and matrices ----------------------------------------------------


class IVector:
    """Vector of intervals, componentwise sound."""

    __slots__ = ("c",)

    def __init__(self, comps: Iterable[Interval | float]):
        self.c = [
            x if isinstance(x, (Interval, IArray)) else Interval(float(x))
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

    def __neg__(self) -> "IVector":
        return IVector([-a for a in self.c])

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
                x if isinstance(x, (Interval, IArray)) else Interval(float(x))
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


class MatrixSeries:
    """Taylor coefficients V_0..V_order of an interval matrix function.

    Entry (i, j) is held as a pair of float lists (lo, hi) indexed by the
    order, as the Taylor kernels compute it and flow reads it; no IMatrix
    is built.  The order is read from the lists, so a kernel may append
    coefficients to a series it has handed out.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries  # entries[i][j] = (lo list, hi list)

    @property
    def order(self) -> int:
        return len(self.entries[0][0][0]) - 1


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
