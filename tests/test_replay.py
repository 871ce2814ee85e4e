"""The flight kernels' own outputs, checked against exact rationals.

The soundness tests of the kernels draw random or hand-picked inputs.
This one replays the proof's own call stream instead: it flies the left
endpoint and one band flight over the first default fragment through
prover.launch_chain, with the float kernels wrapped at module level, and
keeps every STRIDE-th call of each.  The exact range of a kept call, a
fractions.Fraction pair, must lie inside the returned pair:

  * the products (_mul_ends) and quotients (rtbp._div_pos): the least and
    the greatest corner product or quotient;
  * the dots (rtbp._dot, _idot_ends): the sums of the least and of the
    greatest corner products over the terms, summed as integers scaled
    by 2^2148, where every product of two floats is an integer;
  * flow._horner for h > 0: the two endpoint polynomials.

A call with a non-finite operand is counted and skipped.  The fused dot's
running error bound is Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., SIAM 2002, section 4.2; containment is the IEEE
1788-2015 requirement on every enclosure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conecert import flow, interval, rtbp
from conecert.interval import Interval, decimal_to_interval
from conecert.prover import ProofConfig, launch_chain
from conecert.rtbp import RtbpParams

STRIDE = 50


# every finite float is an integer multiple of 2^-1074
_SCALE = 1074


def _fixed(x: float) -> int:
    """x 2^1074, an exact integer."""
    n, d = x.as_integer_ratio()
    return (n << _SCALE) >> (d.bit_length() - 1)


def _exact_dot(alo, ahi, blo, bhi) -> tuple:
    """sum_i [alo_i, ahi_i] [blo_i, bhi_i] exactly: the sums of the least
    and the greatest corner products, in integers scaled by 2^2148."""
    lo = hi = 0
    for a0, a1, b0, b1 in zip(alo, ahi, blo, bhi):
        bs = (_fixed(b0), _fixed(b1))
        cs = [a * b for a in (_fixed(a0), _fixed(a1)) for b in bs]
        lo += min(cs)
        hi += max(cs)
    return Fraction(lo, 1 << 2 * _SCALE), Fraction(hi, 1 << 2 * _SCALE)


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


def _dot_args(alo, ahi, blo, bhi) -> tuple:
    n = min(len(alo), len(ahi), len(blo), len(bhi))
    return [*alo[:n], *ahi[:n], *blo[:n], *bhi[:n]]


def _horner_args(los, his, top, h, lo, hi) -> tuple:
    return [*los[:top + 1], *his[:top + 1], h, lo, hi]


# name: (module attribute, exact range, the floats a call reads)
KERNELS = {
    "rtbp._dot": (rtbp, "_dot", _exact_dot, _dot_args),
    "rtbp._div_pos": (rtbp, "_div_pos", _exact_quotient, lambda *a: a),
    "flow._horner": (flow, "_horner", _exact_horner, _horner_args),
    **{
        f"{mod.__name__.rsplit('.', 1)[1]}._mul_ends": (
            mod, "_mul_ends",
            lambda a0, a1, b0, b1: _exact_dot([a0], [a1], [b0], [b1]),
            lambda *a: a,
        )
        for mod in (interval, flow, rtbp)
    },
    **{
        f"{mod.__name__.rsplit('.', 1)[1]}._idot_ends": (
            mod, "_idot_ends", _exact_dot, _dot_args,
        )
        for mod in (interval, flow, rtbp)
    },
}


@pytest.fixture(scope="module")
def replay():
    """Fly both chains with every kernel wrapped; return the per-kernel
    counts of kept, skipped and violating calls, and the violations."""
    calls, kept, skipped = Counter(), Counter(), Counter()
    violations = []
    mp = pytest.MonkeyPatch()

    def wrap(name, fn, exact, floats):
        def kernel(*args):
            out = fn(*args)
            calls[name] += 1
            if calls[name] % STRIDE:
                return out
            if not all(math.isfinite(x) for x in floats(*args)):
                skipped[name] += 1
                return out
            kept[name] += 1
            lo, hi = exact(*args)
            if not Fraction(out[0]) <= lo <= hi <= Fraction(out[1]):
                violations.append((name, args, out))
            return out

        return kernel

    for name, (mod, attr, exact, floats) in KERNELS.items():
        mp.setattr(mod, attr, wrap(name, getattr(mod, attr), exact, floats))
    try:
        cfg = ProofConfig.default()
        left = launch_chain(
            RtbpParams(decimal_to_interval(cfg.mu_left)), cfg,
            cfg.endpoint_subdivision, [],
        )
        band = launch_chain(
            RtbpParams(Interval(*cfg.fragment_intervals()[0])),
            replace(cfg, alpha_h=cfg.fragment_alpha_h),
            cfg.fragment_subdivision, [], band=True,
        )
    finally:
        mp.undo()
    return left, band, kept, skipped, violations


def test_flights_certify_under_the_wrappers(replay):
    left, band, *_ = replay
    assert left.failure is None and left.crossing is not None
    assert band.failure is None and len(band.crossing.image) == 5


def test_every_kept_kernel_call_encloses_its_exact_range(replay):
    *_, kept, skipped, violations = replay
    # every kernel was sampled but rtbp._idot_ends, _dot's fallback for an
    # infinite endpoint, which these flights never reach
    assert all(kept[n] for n in KERNELS if n != "rtbp._idot_ends"), kept
    assert kept["rtbp._dot"] > 1000 and kept["rtbp._div_pos"] > 100, kept
    assert not violations, (len(violations), violations[:3], kept, skipped)
