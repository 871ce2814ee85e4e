"""IArray against Interval, entry by entry, on the extended reals.

Oracle: the scalar Interval operation applied to each entry of the
batch.  Every IArray operation must return the same endpoints bit for
bit (the sign of a zero included), or raise the same exception class
when any entry raises, and must not let a numpy warning escape.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conecert import interval
from conecert.interval import (
    DivisionByZeroInterval,
    DomainError,
    IArray,
    IMatrix,
    Interval,
    IVector,
    sq,
    sqrt,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAX = 1.7976931348623157e308

# every double but NaN: +-inf, +-0, subnormals, maxfloat
ext = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, math.inf,
                     -math.inf]),
)


@st.composite
def intervals(draw):
    a, b = draw(ext), draw(ext)
    # no infinite point: the reals have no infinite members
    assume(not (a == b and math.isinf(a)))
    return Interval(a, b) if a <= b else Interval(b, a)


batches = st.lists(intervals(), min_size=1, max_size=6)


def _pack(ivs) -> IArray:
    return IArray([x.lo for x in ivs], [x.hi for x in ivs])


def _same(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _outcome(fn):
    try:
        return fn()
    except (DivisionByZeroInterval, DomainError) as exc:
        return type(exc)


def _check(batch_fn, scalar_fns):
    """The batch result equals the per-entry results, or both raise."""
    expected = [_outcome(f) for f in scalar_fns]
    failures = [e for e in expected if isinstance(e, type)]
    got = _outcome(batch_fn)
    if failures:
        assert got in failures
        return
    assert isinstance(got, IArray)
    for k, e in enumerate(expected):
        assert _same(float(got.lo[k]), e.lo), (k, got.lo[k], e)
        assert _same(float(got.hi[k]), e.hi), (k, got.hi[k], e)


OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", OPS)
@given(data=st.data())
def test_binary_op_batch_with_batch(op, data):
    xs = data.draw(batches)
    ys = data.draw(st.lists(intervals(), min_size=len(xs), max_size=len(xs)))
    _check(lambda: op(_pack(xs), _pack(ys)),
           [lambda x=x, y=y: op(x, y) for x, y in zip(xs, ys)])


# the TwoSum error of a sum that overflows (maxfloat + maxfloat) or is
# inf + -inf is NaN, and the nudge must still take the first to maxfloat
@pytest.mark.parametrize("op", OPS)
@given(xs=batches, y=intervals())
@example(xs=[Interval(MAX)], y=Interval(MAX))
@example(xs=[Interval(-MAX)], y=Interval(MAX))
@example(xs=[Interval(0.0, math.inf)], y=Interval(-math.inf, 0.0))
def test_binary_op_with_interval(op, xs, y):
    _check(lambda: op(_pack(xs), y), [lambda x=x: op(x, y) for x in xs])
    _check(lambda: op(y, _pack(xs)), [lambda x=x: op(y, x) for x in xs])


@pytest.mark.parametrize("op", OPS)
@given(xs=batches, f=ext)
@example(xs=[Interval(MAX)], f=MAX)
@example(xs=[Interval(-MAX)], f=MAX)
@example(xs=[Interval(0.0, math.inf)], f=-math.inf)
@example(xs=[Interval(-math.inf, 0.0)], f=math.inf)
def test_binary_op_with_float(op, xs, f):
    _check(lambda: op(_pack(xs), f), [lambda x=x: op(x, f) for x in xs])
    _check(lambda: op(f, _pack(xs)), [lambda x=x: op(f, x) for x in xs])


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize(
    "x", [Interval(1.0, 2.0), IArray([1.0, -3.0], [2.0, 4.0])],
    ids=["Interval", "IArray"],
)
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
    ys = [Interval(b)]
    _check(lambda: Interval(a) + _pack(ys), [lambda: Interval(a) + ys[0]])
    _check(lambda: _pack(ys) + Interval(a), [lambda: ys[0] + Interval(a)])
    _check(lambda: a + _pack(ys), [lambda: a + ys[0]])


@given(xs=batches)
def test_unary_ops(xs):
    _check(lambda: -_pack(xs), [lambda x=x: -x for x in xs])
    _check(lambda: sq(_pack(xs)), [lambda x=x: sq(x) for x in xs])
    _check(lambda: sqrt(_pack(xs)), [lambda x=x: sqrt(x) for x in xs])


@given(data=st.data())
def test_matmul_matches_imatrix_matmul(data):
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    batch = data.draw(st.integers(1, 3))

    def matrices(rows, cols):
        return [
            IMatrix([[data.draw(intervals()) for _ in range(cols)]
                     for _ in range(rows)])
            for _ in range(batch)
        ]

    a, b = matrices(n, k), matrices(k, m)
    got = IArray.stack([x.rows for x in a]).matmul(
        IArray.stack([x.rows for x in b])
    )
    for p in range(batch):
        want = a[p].matmul(b[p])
        for i in range(n):
            for j in range(m):
                assert _same(float(got.lo[p, i, j]), want[i, j].lo)
                assert _same(float(got.hi[p, i, j]), want[i, j].hi)


def test_matmul_broadcasts_a_shared_matrix():
    c = IMatrix([[Interval(1.0, 2.0), Interval(-1.0)],
                 [Interval(0.5), Interval(-3.0, 3.0)]])
    pieces = IArray.stack([[Interval(0.1, 0.2), Interval(1.0)],
                           [Interval(-1.0, 2.0), Interval(0.25)]])
    got = IArray.stack(c).matmul(pieces[..., None])[..., 0]
    for p, (u, v) in enumerate(([Interval(0.1, 0.2), Interval(1.0)],
                                [Interval(-1.0, 2.0), Interval(0.25)])):
        want = c.matvec(IVector([u, v]))
        for i in range(2):
            assert _same(float(got.lo[p, i]), want[i].lo)
            assert _same(float(got.hi[p, i]), want[i].hi)


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
def test_matmul_broadcast_shapes_match_imatrix(monkeypatch, terms_per_pass):
    # the broadcasts of rtbp.local_jacobian_batch, against IMatrix.matmul
    # piece by piece, with the product passes of IArray.matmul cut into 1,
    # 2 or all terms of the sum: a shared (4, 4) matrix times a (P, 4, 4)
    # batch (C^-1 M), a (P, 4, 3) batch times a (P, 3, 1) one (M_1:3 K')
    # and a shared (1, 4) row times a (P, 4, 1) batch (row 0 of C^-1 F)
    pieces = 6
    rng = random.Random(1401)
    c = _matrix(_mixed_entries(rng, 16), 4, 4)
    mats = [_matrix(_mixed_entries(rng, 12), 4, 3) for _ in range(pieces)]
    cols = [_matrix(_mixed_entries(rng, 3), 3, 1) for _ in range(pieces)]
    row = _matrix(_mixed_entries(rng, 4), 1, 4)
    vecs = [_matrix(_mixed_entries(rng, 4), 4, 1) for _ in range(pieces)]
    cases = [
        (c, [_matrix(_mixed_entries(rng, 16), 4, 4) for _ in range(pieces)],
         IArray.stack(c), 16),
        (mats, cols, IArray.stack([m.rows for m in mats]), 4),
        (row, vecs, IArray.stack(row), 1),
    ]
    for left, right, a, entries in cases:
        # entries per term of one pass: the (..., n, m) result size per piece
        monkeypatch.setattr(interval, "_MATMUL_BLOCK",
                            entries * pieces * terms_per_pass)
        got = a.matmul(IArray.stack([m.rows for m in right]))
        for p, r in enumerate(right):
            want = (left[p] if isinstance(left, list) else left).matmul(r)
            assert got.shape == (pieces,) + want.shape
            for i, j in np.ndindex(want.shape):
                assert _same(float(got.lo[p, i, j]), want[i, j].lo)
                assert _same(float(got.hi[p, i, j]), want[i, j].hi)


def test_stack_broadcasts_shared_entries():
    a = IArray([0.0, 1.0], [0.5, 2.0])
    m = IArray.stack([[a, Interval(3.0)], [Interval(-1.0, 1.0), a]])
    assert m.shape == (2, 2, 2)
    assert m.lo[:, 0, 1].tolist() == [3.0, 3.0]
    assert m.hi[:, 1, 1].tolist() == [0.5, 2.0]
    h = m.hull_over(0).to_imatrix()
    assert h[0, 0] == Interval(0.0, 2.0) and h[1, 0] == Interval(-1.0, 1.0)
    # a (1,)-shaped entry broadcasts against the batch as numpy does, and
    # an IVector adds one trailing axis
    one = IArray([5.0], [6.0])
    v = IArray.stack(IVector([a, one, Interval(7.0)]))
    assert v.shape == (2, 3)
    assert v.lo.tolist() == [[0.0, 5.0, 7.0], [1.0, 5.0, 7.0]]
    assert v.hi.tolist() == [[0.5, 6.0, 7.0], [2.0, 6.0, 7.0]]
    assert IArray.stack([one, Interval(1.0)]).shape == (1, 2)
    assert IArray.stack(IVector([one, one])).hi.tolist() == [[6.0, 6.0]]


def test_constructor_validation():
    with pytest.raises(ValueError):
        IArray([1.0], [0.0])
    with pytest.raises(ValueError):
        IArray([math.nan])
    with pytest.raises(ValueError):
        IArray([0.0, 1.0], [1.0])


def test_numpy_scalar_operand_defers():
    # a numpy float on the left must not turn the batch into an object array
    got = np.float64(2.0) * IArray([1.0, 2.0])
    assert isinstance(got, IArray)
    assert got.lo.tolist() == [(Interval(1.0) * 2.0).lo, (Interval(2.0) * 2.0).lo]
