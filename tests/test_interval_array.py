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
from hypothesis import assume, given, strategies as st

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

# every double but NaN: +-inf, +-0, subnormals, maxfloat
ext = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf]),
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


@pytest.mark.parametrize("op", OPS)
@given(xs=batches, y=intervals())
def test_binary_op_with_interval(op, xs, y):
    _check(lambda: op(_pack(xs), y), [lambda x=x: op(x, y) for x in xs])
    _check(lambda: op(y, _pack(xs)), [lambda x=x: op(y, x) for x in xs])


@pytest.mark.parametrize("op", OPS)
@given(xs=batches, f=ext)
def test_binary_op_with_float(op, xs, f):
    _check(lambda: op(_pack(xs), f), [lambda x=x: op(x, f) for x in xs])
    _check(lambda: op(f, _pack(xs)), [lambda x=x: op(f, x) for x in xs])


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
    # the two broadcasts of rtbp.local_jacobian_batch, against
    # IMatrix.matmul piece by piece, with the product passes of IArray.matmul
    # cut into 1, 2 or all 4 terms of the sum
    pieces = 6
    monkeypatch.setattr(interval, "_MATMUL_BLOCK", 16 * pieces * terms_per_pass)
    rng = random.Random(1401)
    # a shared (4, 4) matrix times a (P, 4, 4) batch
    c = _matrix(_mixed_entries(rng, 16), 4, 4)
    batch = [_matrix(_mixed_entries(rng, 16), 4, 4) for _ in range(pieces)]
    got = IArray.stack(c).matmul(IArray.stack([m.rows for m in batch]))
    assert got.shape == (pieces, 4, 4)
    for p, m in enumerate(batch):
        want = c.matmul(m)
        for i in range(4):
            for j in range(4):
                assert _same(float(got.lo[p, i, j]), want[i, j].lo)
                assert _same(float(got.hi[p, i, j]), want[i, j].hi)
    # a (P, 4, 4, 4) stack of 4 x 4 matrices times a (P, 1, 4, 1) column
    stack = [[_matrix(_mixed_entries(rng, 16), 4, 4) for _ in range(4)]
             for _ in range(pieces)]
    cols = [_mixed_entries(rng, 4) for _ in range(pieces)]
    got = IArray.stack([[h.rows for h in hs] for hs in stack]).matmul(
        IArray.stack([[[[v] for v in col]] for col in cols])
    )
    assert got.shape == (pieces, 4, 4, 1)
    for p in range(pieces):
        for b in range(4):
            want = stack[p][b].matmul(IMatrix([[v] for v in cols[p]]))
            for i in range(4):
                assert _same(float(got.lo[p, b, i, 0]), want[i, 0].lo)
                assert _same(float(got.hi[p, b, i, 0]), want[i, 0].hi)


def test_stack_broadcasts_shared_entries():
    a = IArray([0.0, 1.0], [0.5, 2.0])
    m = IArray.stack([[a, Interval(3.0)], [Interval(-1.0, 1.0), a]])
    assert m.shape == (2, 2, 2)
    assert m.lo[:, 0, 1].tolist() == [3.0, 3.0]
    assert m.hi[:, 1, 1].tolist() == [0.5, 2.0]
    h = m.hull_over(0).to_imatrix()
    assert h[0, 0] == Interval(0.0, 2.0) and h[1, 0] == Interval(-1.0, 1.0)


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
