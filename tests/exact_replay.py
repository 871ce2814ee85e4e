"""The flight kernels' own outputs, checked against exact rationals.

The soundness tests of the kernels draw random or hand-picked inputs.
The replay checks the proof's own call stream instead: Replay.install
wraps the float kernels at module level, and keeps every STRIDE-th call
of each.  The exact range of a kept call, a
fractions.Fraction pair, must lie inside the returned pair:

  * the products (_mul_ends) and quotients (rtbp._div_pos): the least and
    the greatest corner product or quotient;
  * the dots (rtbp._dot, _idot_ends): the sums of the least and of the
    greatest corner products over the terms, summed as integers scaled
    by 2^2148, where every product of two floats is an integer;
  * flow._horner for h > 0: the two endpoint polynomials;
  * flow._mul_floats, every entry: the exact dot of an interval row with
    a float column;
  * rtbp._power_next: the exact range of
    -sum_j c_j [s_(k-j)] [p_j] / (k [s_0]) over its inputs, with the
    half-integer weights c_j = j + 3/2 (k - j) of r^-3;
  * rtbp._scale, a product by a positive mass, and rtbp._wsum, the
    mass-weighted sum [m1] [a] + [m2] [b]: the least and the greatest
    corner product, or the sums of them;
  * rtbp._acc_mul, the local Jacobian's inline products and sums, every
    entry acc_ij + sum_t a_it b_tj: the accumulator's ends plus the sums
    of the least and of the greatest corner products over the terms;
  * interval.exp as flow binds it, every call (one per step, the
    e^(L h) of the a-priori ball, the one libm function on the verdict
    path): e^lo and e^hi of its argument [lo, hi] from mpmath at 60
    digits, whose rounding, about 1e-60 relative, is far below the
    2^-53 spacing that a violation would show;
  * rtbp._point_field, every call (one per thin series, the decimal
    forces that narrow coefficient 1 of a point start): P_X' and P_Y' at
    the point at both ends of the mass, from mpmath at 60 digits.  The mass of a flight is a point or one ulp wide, over
    which the field moves monotonically as far as 60 digits can tell.

An entry with a non-finite operand is counted and skipped, and an
infinite end of the returned pair encloses everything on its side.  The
fused dot's running error bound is Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, section 4.2; containment is
the IEEE 1788-2015 requirement on every enclosure.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

import mpmath

from conecert import flow, interval, rtbp

STRIDE = 50

# every finite float is an integer multiple of 2^-1074
_SCALE = 1074


def _fixed(x: float) -> int:
    """x 2^1074, an exact integer."""
    n, d = x.as_integer_ratio()
    return (n << _SCALE) >> (d.bit_length() - 1)


def _corners(a0, a1, b0, b1) -> list:
    """The four corner products of [a0, a1] [b0, b1], scaled by 2^2148."""
    bs = (_fixed(b0), _fixed(b1))
    return [a * b for a in (_fixed(a0), _fixed(a1)) for b in bs]


def _exact_dot(alo, ahi, blo, bhi) -> tuple:
    """sum_i [alo_i, ahi_i] [blo_i, bhi_i] exactly: the sums of the least
    and the greatest corner products, in integers scaled by 2^2148."""
    lo = hi = 0
    for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
        cs = _corners(a0, a1, b0, b1)
        lo += min(cs)
        hi += max(cs)
    return Fraction(lo, 1 << 2 * _SCALE), Fraction(hi, 1 << 2 * _SCALE)


def _exact_product(a0, a1, b0, b1) -> tuple:
    return _exact_dot([a0], [a1], [b0], [b1])


def _exact_quotient(a0, a1, d0, d1) -> tuple:
    cs = [Fraction(a) / Fraction(d) for a in (a0, a1) for d in (d0, d1)]
    return min(cs), max(cs)


def _exact_horner(los, his, top, h, lo, hi) -> tuple:
    assert h > 0.0  # the endpoint polynomials bound the range for h > 0
    hf = Fraction(h)
    elo, ehi = Fraction(lo), Fraction(hi)
    for k in range(top, -1, -1):
        elo = elo * hf + Fraction(los[k])
        ehi = ehi * hf + Fraction(his[k])
    return elo, ehi


def _exact_sum(a, b) -> tuple:
    s = Fraction(a) + Fraction(b)
    return s, s


def _exact_power_next(s, pw, k) -> tuple:
    (sl, sh), (pl, ph) = s, pw
    lo = hi = 0
    for j in range(k):
        w2 = 2 * j + 3 * (k - j)  # 2 c_j, a positive integer
        cs = _corners(sl[k - j], sh[k - j], pl[j], ph[j])
        lo += w2 * min(cs)
        hi += w2 * max(cs)
    den = 1 << 2 * _SCALE + 1
    qs = [-Fraction(n, den) / (k * Fraction(d))
          for n in (lo, hi) for d in (sl[0], sh[0])]
    return min(qs), max(qs)


def _exact_wsum(m, al, ah, bl, bh) -> tuple:
    (m1l, m1h), (m2l, m2h) = m
    return _exact_dot([m1l, m2l], [m1h, m2h], [al, bl], [ah, bh])


def _mp_fraction(x) -> Fraction:
    """The mpf x as an exact Fraction (man_exp drops the sign)."""
    man, exp2 = x.man_exp
    return (-man if x < 0 else man) * Fraction(2) ** exp2


def _mp_exp(lo, hi) -> tuple:
    """e^lo and e^hi from mpmath at 60 digits, as Fractions."""
    with mpmath.workdps(60):
        return tuple(_mp_fraction(mpmath.exp(mpmath.mpf(x))) for x in (lo, hi))


@functools.lru_cache(maxsize=8)
def _mp_fields(u: tuple, mu_lo: float, mu_hi: float) -> list:
    """F at the point u at each end of the mass, from mpmath at 60
    digits, as Fractions: one (lesser, greater) pair per component."""
    ends = []
    with mpmath.workdps(60):
        x, y, px, py = map(mpmath.mpf, u)
        for mu in map(mpmath.mpf, (mu_lo, mu_hi)):
            w1, w2 = (((x - mu + j) ** 2 + y**2) ** mpmath.mpf(-1.5)
                      for j in (0, 1))
            ends.append([_mp_fraction(f) for f in (
                px + y, py - x,
                py - (1 - mu) * (x - mu) * w1 - mu * (x - mu + 1) * w2,
                -px - y * ((1 - mu) * w1 + mu * w2))])
    return [tuple(sorted(pair)) for pair in zip(*ends)]


def _mp_point_field(u, mu_lo, mu_hi, i) -> tuple:
    return _mp_fields(u, mu_lo, mu_hi)[i]


# Each kernel's cases(args, out) yields, per checked entry, the floats the
# entry reads, the exact-range function and its arguments, and the
# returned lower and upper end (None for an end the kernel does not form).


def _pair(exact, floats):
    """The one case of a kernel that returns one (lo, hi) pair."""
    def cases(args, out):
        yield floats(*args), exact, args, out[0], out[1]
    return cases


def _dot_args(alo, ahi, blo, bhi) -> list:
    n = min(len(alo), len(ahi), len(blo), len(bhi))
    return [*alo[:n], *ahi[:n], *blo[:n], *bhi[:n]]


def _horner_args(los, his, top, h, lo, hi) -> list:
    return [*los[:top + 1], *his[:top + 1], h, lo, hi]


def _power_args(s, pw, k) -> list:
    (sl, sh), (pl, ph) = s, pw
    return [*sl[:k + 1], *sh[:k + 1], *pl[:k], *ph[:k]]


def _acc_mul_cases(args, out):
    acc, a, b = args
    cols = list(zip(*b))
    for acc_row, a_row, out_row in zip(acc, a, out):
        for (lo, hi), col, (out0, out1) in zip(acc_row, cols, out_row):
            terms = ([e[0] for e in a_row], [e[1] for e in a_row],
                     [e[0] for e in col], [e[1] for e in col])
            yield ([lo, hi, *_dot_args(*terms)], _exact_acc, (lo, hi, terms),
                   out0, out1)


def _exact_acc(lo, hi, terms) -> tuple:
    """[lo, hi] + sum_t a_t b_t exactly."""
    dlo, dhi = _exact_dot(*terms)
    return Fraction(lo) + dlo, Fraction(hi) + dhi


def _exp_cases(args, out):
    (x,) = args
    yield (x.lo, x.hi), _mp_exp, (x.lo, x.hi), out.lo, out.hi


def _point_field_cases(args, out):
    u, mu = args
    for i, (lo, hi) in enumerate(out, 2):  # P_X' and P_Y'
        yield ([*u, mu.lo, mu.hi], _mp_point_field,
               (tuple(u), mu.lo, mu.hi, i), lo, hi)


def _mul_floats_cases(args, out):
    alo, ahi, b = args
    for i, (rl, rh) in enumerate(zip(alo, ahi)):
        for j, col in enumerate(zip(*b)):
            yield ([*rl, *rh, *col], _exact_dot, (rl, rh, col, col),
                   out[0][i][j], out[1][i][j])


# name: (owner, attribute, cases, keep every n-th call)
KERNELS = {
    "rtbp._dot": (rtbp, "_dot", _pair(_exact_dot, _dot_args), STRIDE),
    "rtbp._acc_mul": (rtbp, "_acc_mul", _acc_mul_cases, STRIDE),
    "rtbp._div_pos": (rtbp, "_div_pos",
                      _pair(_exact_quotient, lambda *a: a), STRIDE),
    "rtbp._power_next": (rtbp, "_power_next",
                         _pair(_exact_power_next, _power_args), STRIDE),
    "rtbp._scale": (rtbp, "_scale", _pair(
        lambda c, a0, a1: _exact_product(*c, a0, a1),
        lambda c, *a: [*c, *a]), STRIDE),
    "rtbp._wsum": (rtbp, "_wsum", _pair(
        _exact_wsum, lambda m, *ab: [*m[0], *m[1], *ab]), STRIDE),
    "flow._horner": (flow, "_horner", _pair(_exact_horner, _horner_args),
                     STRIDE),
    "flow._mul_floats": (flow, "_mul_floats", _mul_floats_cases, STRIDE),
    "flow.exp": (flow, "exp", _exp_cases, 1),
    "rtbp._point_field": (rtbp, "_point_field", _point_field_cases, 1),
    **{
        f"{mod.__name__.rsplit('.', 1)[1]}._mul_ends": (
            mod, "_mul_ends", _pair(_exact_product, lambda *a: a), STRIDE,
        )
        for mod in (interval, flow, rtbp)
    },
    **{
        f"{mod.__name__.rsplit('.', 1)[1]}._idot_ends": (
            mod, "_idot_ends", _pair(_exact_dot, _dot_args), STRIDE,
        )
        for mod in (interval, flow, rtbp)
    },
}


def _encloses(lo, hi, out0, out1) -> bool:
    """[out0, out1] contains [lo, hi]; None is an end not formed."""
    below = out0 is None or out0 == -math.inf or (
        math.isfinite(out0) and Fraction(out0) <= lo)
    above = out1 is None or out1 == math.inf or (
        math.isfinite(out1) and hi <= Fraction(out1))
    return below and above


class Replay:
    """Per-kernel counts of calls, checked and skipped entries, and the
    violations, filled while the wrappers are installed."""

    def __init__(self):
        self.calls, self.kept, self.skipped = Counter(), Counter(), Counter()
        self.violations = []

    def _wrap(self, name, fn, cases, stride):
        def kernel(*args):
            out = fn(*args)
            self.calls[name] += 1
            if self.calls[name] % stride:
                return out
            for floats, exact, exact_args, out0, out1 in cases(args, out):
                if not all(math.isfinite(x) for x in floats):
                    self.skipped[name] += 1
                    continue
                self.kept[name] += 1
                if not _encloses(*exact(*exact_args), out0, out1):
                    self.violations.append((name, exact_args, out0, out1))
            return out

        return kernel

    def install(self, mp) -> None:
        """Wrap every kernel of KERNELS through the MonkeyPatch mp."""
        for name, (owner, attr, *rule) in KERNELS.items():
            mp.setattr(owner, attr, self._wrap(name, getattr(owner, attr),
                                               *rule))
