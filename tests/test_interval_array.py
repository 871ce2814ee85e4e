"""Arrays of (lo, hi) float pairs against Interval, entry by entry, on
the extended reals.

The derivative over N runs on lists of float pairs, never on Interval
objects: the inline products and sums of interval._acc_mul, the
quotients of rtbp._div_pos and the endpoint forms _sq_ends and
_sqrt_ends of sq and sqrt.  Oracle: the same expression in Interval
objects, applied to each entry.  Every pair must hold the Interval
result's endpoints bit for bit, the sign of a zero included, and no
numpy warning may escape.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conecert import rtbp
from conecert.interval import (
    DomainError,
    IMatrix,
    Interval,
    IVector,
    _acc_mul,
    _mk,
    _sq_ends,
    _sqrt_ends,
    sq,
    sqrt,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAX = 1.7976931348623157e308
ONE = (1.0, 1.0)
ZERO = (0.0, 0.0)

# every double but NaN: +-inf, +-0, subnormals, maxfloat
ext = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, math.inf,
                     -math.inf]),
)
# the divisors the pair quotient takes: 0 < lo, hi up to +inf
pos = st.one_of(
    st.floats(min_value=5e-324),
    st.sampled_from([5e-324, 1.0, MAX, math.inf]),
)


@st.composite
def intervals(draw):
    a, b = draw(ext), draw(ext)
    # no infinite point: the reals have no infinite members
    assume(not (a == b and math.isinf(a)))
    return Interval(a, b) if a <= b else Interval(b, a)


@st.composite
def divisors(draw):
    a, b = draw(pos), draw(pos)
    assume(min(a, b) < math.inf)
    return Interval(min(a, b), max(a, b))


batches = st.lists(intervals(), min_size=1, max_size=6)


def _operands(op):
    return divisors() if op is operator.truediv else intervals()


def _pair(x: Interval) -> tuple:
    return x.lo, x.hi


def _point(f: float) -> Interval:
    # a float operand is the point [f, f], an infinite one included
    return _mk(f, f)


def _kernel(op, a: tuple, b: tuple) -> tuple:
    """op on the pairs a and b as the derivative's kernels form it: a sum
    accumulates a product with 1 onto a, a difference that of -b, a
    product lands on a zero accumulator, a quotient is rtbp._div_pos."""
    if op is operator.truediv:
        return rtbp._div_pos(*a, *b)
    if op is operator.mul:
        return _acc_mul([[ZERO]], [[a]], [[b]])[0][0]
    if op is operator.sub:
        b = -b[1], -b[0]
    return _acc_mul([[a]], [[b]], [[ONE]])[0][0]


def _oracle(op, x: Interval, y: Interval) -> Interval:
    """The Interval expression _kernel rounds as, in the same order."""
    if op is operator.truediv:
        return x / y
    if op is operator.mul:
        return Interval(0.0) + x * y
    return op(x, y * 1.0)


def _same(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _check(got: tuple, want: Interval) -> None:
    assert _same(got[0], want.lo), (got, want)
    assert _same(got[1], want.hi), (got, want)


def _check_batch(op, xs: list, ys: list) -> None:
    """The pairs of xs op ys equal the per-entry Interval results."""
    got = [_kernel(op, _pair(x), _pair(y)) for x, y in zip(xs, ys)]
    for g, x, y in zip(got, xs, ys):
        _check(g, _oracle(op, x, y))


OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", OPS)
@given(data=st.data())
def test_binary_op_batch_with_batch(op, data):
    xs = data.draw(batches)
    ys = data.draw(st.lists(_operands(op), min_size=len(xs),
                            max_size=len(xs)))
    _check_batch(op, xs, ys)


# the TwoSum error of a sum that overflows (maxfloat + maxfloat) or is
# inf + -inf is NaN, and the nudge must still take the first to maxfloat
@pytest.mark.parametrize("op", OPS)
@given(xs=batches, y=intervals())
@example(xs=[Interval(MAX)], y=Interval(MAX))
@example(xs=[Interval(-MAX)], y=Interval(MAX))
@example(xs=[Interval(0.0, math.inf)], y=Interval(-math.inf, 0.0))
@example(xs=[Interval(1.0, math.inf)], y=Interval(MAX, math.inf))
def test_binary_op_with_interval(op, xs, y):
    # a quotient's divisor is positive: the entries that are not leave
    # the batch, and a y that is not divides no batch
    if op is not operator.truediv or y.lo > 0.0:
        _check_batch(op, xs, [y] * len(xs))
    ds = [x for x in xs if x.lo > 0.0] if op is operator.truediv else xs
    _check_batch(op, [y] * len(ds), ds)


@pytest.mark.parametrize("op", OPS)
@given(xs=batches, f=ext)
@example(xs=[Interval(MAX)], f=MAX)
@example(xs=[Interval(-MAX)], f=MAX)
@example(xs=[Interval(0.0, math.inf)], f=-math.inf)
@example(xs=[Interval(-math.inf, 0.0)], f=math.inf)
def test_binary_op_with_float(op, xs, f):
    if op is not operator.truediv or f > 0.0:
        got = [_kernel(op, _pair(x), (f, f)) for x in xs]
        for g, x in zip(got, xs):
            _check(g, _oracle(op, x, _point(f)))
    ds = [x for x in xs if x.lo > 0.0] if op is operator.truediv else xs
    got = [_kernel(op, (f, f), _pair(x)) for x in ds]
    for g, x in zip(got, ds):
        _check(g, _oracle(op, _point(f), x))


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("x", [Interval(1.0, 2.0)], ids=["Interval"])
@pytest.mark.parametrize("float_first", [False, True],
                         ids=["x_op_nan", "nan_op_x"])
def test_nan_float_operand_raises(op, x, float_first):
    # a float operand is a point interval, and [nan, nan] is none: it
    # raises as Interval(nan) does instead of giving a false enclosure
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN endpoint"):
        op(nan, x) if float_first else op(x, nan)


def test_add_keeps_operand_order():
    # Interval addition is not commutative at this overflow edge: the
    # TwoSum error of a + b is NaN, that of b + a is exact
    a, b = -3 * 2.0**970, 1.7976931348623157e308
    assert (Interval(a) + Interval(b)).hi != (Interval(b) + Interval(a)).hi
    assert (a + Interval(b)).hi == (Interval(b) + Interval(a)).hi
    # the kernel adds the product onto the accumulator, in that order
    for acc, y in ((Interval(a), Interval(b)), (Interval(b), Interval(a))):
        _check(_acc_mul([[_pair(acc)]], [[_pair(y)]], [[ONE]])[0][0],
               acc + y * 1.0)


@given(xs=batches)
def test_unary_ops(xs):
    for x in xs:
        # negation swaps and negates the ends, as the kernel negates
        # Omega and K' pairs
        _check((-x.hi, -x.lo), -x)
        # sq resolves the dependency of x * x: the same upper end, and
        # the lower end clamped to 0, or 0 when x straddles 0
        lo, hi = _sq_ends(x.lo, x.hi)
        prod = x * x
        assert _same(hi, prod.hi) and _same(hi, sq(x).hi)
        want = max(prod.lo, 0.0) if x.lo >= 0.0 or x.hi <= 0.0 else 0.0
        assert _same(lo, want) and _same(lo, sq(x).lo)
        if x.lo < 0.0:
            with pytest.raises(DomainError):
                sqrt(x)
            continue
        # sqrt's pair encloses the exact root, within two ulps of it
        r0, r1 = _sqrt_ends(x.lo, x.hi)
        _check((r0, r1), sqrt(x))
        assert 0.0 <= r0 and Fraction(r0) ** 2 <= Fraction(x.lo)
        assert Fraction(math.nextafter(math.nextafter(r0, math.inf),
                                       math.inf)) ** 2 > Fraction(x.lo)
        if x.hi == math.inf:
            assert r1 == math.inf
        else:
            assert Fraction(r1) ** 2 >= Fraction(x.hi)


def _pairs(m: IMatrix) -> list:
    return [[_pair(x) for x in row] for row in m.rows]


def _sum_of_products(acc: IMatrix, a: IMatrix, b: IMatrix) -> IMatrix:
    """acc_ij + a_i0 b_0j + a_i1 b_1j + ... in Interval objects, in the
    order _acc_mul documents."""
    n, k = a.shape
    m = b.shape[1]
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = acc[i, j]
            for t in range(k):
                s = s + a[i, t] * b[t, j]
            row.append(s)
        out.append(row)
    return IMatrix(out)


def _zeros(n: int, m: int) -> IMatrix:
    return IMatrix([[Interval(0.0)] * m for _ in range(n)])


def _check_matrix(got: list, want: IMatrix, idot_form=None) -> None:
    """got equals want bit for bit and, for a zero accumulator, lies
    inside idot_form, the IMatrix product: the products are the same,
    and a sum exact-directed is never wider than one nudged outward."""
    assert (len(got), len(got[0])) == want.shape
    for i, row in enumerate(got):
        for j, g in enumerate(row):
            _check(g, want[i, j])
            if idot_form is not None:
                assert idot_form[i, j].lo <= g[0]
                assert g[1] <= idot_form[i, j].hi


@given(data=st.data())
def test_matmul_matches_imatrix_matmul(data):
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return IMatrix([[data.draw(intervals()) for _ in range(cols)]
                        for _ in range(rows)])

    a, b = matrix(n, k), matrix(k, m)
    got = _acc_mul(_pairs(_zeros(n, m)), _pairs(a), _pairs(b))
    _check_matrix(got, _sum_of_products(_zeros(n, m), a, b), a.matmul(b))


def test_matmul_broadcasts_a_shared_matrix():
    # one matrix for every piece, as C^-1 and the chart's M0 are
    c = IMatrix([[Interval(1.0, 2.0), Interval(-1.0)],
                 [Interval(0.5), Interval(-3.0, 3.0)]])
    m0 = IMatrix([[Interval(0.25, 0.5)], [Interval(-1.0, 1.0)]])
    pieces = ([Interval(0.1, 0.2), Interval(1.0)],
              [Interval(-1.0, 2.0), Interval(0.25)])
    shared, acc = _pairs(c), _pairs(m0)
    for u, v in pieces:
        col = IMatrix([[u], [v]])
        got = _acc_mul(acc, shared, _pairs(col))
        _check_matrix(got, _sum_of_products(m0, c, col))
        want = c.matvec(IVector([u, v]))
        _check_matrix(_acc_mul(_pairs(_zeros(2, 1)), shared, _pairs(col)),
                      _sum_of_products(_zeros(2, 1), c, col),
                      IMatrix([[want[0]], [want[1]]]))


def _mixed_entries(rng: random.Random, n: int) -> list:
    """n Intervals: finite ones over many magnitudes, points, zeros and
    half-lines, so that sums round, overflow and meet 0 * inf."""
    out = []
    for _ in range(n):
        r = rng.random()
        a = rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-8, 8)
        if r < 0.1:
            out.append(Interval(0.0))
        elif r < 0.25:
            out.append(Interval(a))
        elif r < 0.3:
            out.append(Interval(-math.inf, a) if a < 0 else Interval(a, math.inf))
        elif r < 0.33:
            out.append(Interval(1.7976931348623157e308, math.inf))
        else:
            out.append(Interval(a, a + abs(a) * rng.random()))
    return out


def _matrix(entries, rows: int, cols: int) -> IMatrix:
    return IMatrix([entries[i * cols:(i + 1) * cols] for i in range(rows)])


@pytest.mark.parametrize("terms_per_pass", [1, 2, 4])
def test_matmul_broadcast_shapes_match_imatrix(terms_per_pass):
    # the shapes of rtbp.local_jacobian, against the Interval sums and
    # IMatrix.matmul piece by piece, the terms of each sum accumulated in
    # passes of 1, 2 or all of them: (4, 4) + (4, 2)(2, 4) (M0 plus
    # C^-1[:, 2:4] times rows 2-3 of DF C), (4, 1) + (4, 3)(3, 1) (column
    # 0 plus M_1:3 K'), (3, 4) + (3, 1)(1, 4) (rows 1-3 less K' times row
    # 0) and (1, 1) + (1, 4)(4, 1) (row 0 of C^-1 F)
    pieces = 6
    rng = random.Random(1401)
    shapes = [(4, 2, 4), (4, 3, 1), (3, 1, 4), (1, 4, 1)]
    for n, k, m in shapes:
        shared = _matrix(_mixed_entries(rng, n * k), n, k)
        for _ in range(pieces):
            acc = _matrix(_mixed_entries(rng, n * m), n, m)
            b = _matrix(_mixed_entries(rng, k * m), k, m)
            got, a, bp = _pairs(acc), _pairs(shared), _pairs(b)
            for t in range(0, k, terms_per_pass):
                got = _acc_mul(got, [r[t:t + terms_per_pass] for r in a],
                               bp[t:t + terms_per_pass])
            _check_matrix(got, _sum_of_products(acc, shared, b))
            zero = _acc_mul(_pairs(_zeros(n, m)), a, bp)
            _check_matrix(zero, _sum_of_products(_zeros(n, m), shared, b),
                          shared.matmul(b))


def test_constructor_validation():
    # a pair goes back into Interval objects (the hull of DF over N) only
    # through the validating constructors
    with pytest.raises(ValueError, match="inverted"):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        IVector([0.0, math.nan])
    with pytest.raises(ValueError, match="NaN"):
        IMatrix([[0.0, 1.0], [math.nan, 1.0]])


def test_numpy_scalar_operand_defers():
    # a numpy float on either side of an Interval is the float's point,
    # and the result is an Interval, not a numpy object
    x, f = Interval(1.0, 2.0), 2.0
    for op in OPS:
        for got, want in ((op(np.float64(f), x), op(f, x)),
                          (op(x, np.float64(f)), op(x, f))):
            assert type(got) is Interval
            _check(_pair(got), want)
