"""The proof's own kernel calls, checked against exact rationals.

The shared chains of conftest (the left endpoint and one band flight over
the first default fragment) fly with the kernels of exact_replay wrapped;
that module's docstring says what each kept call is checked against.
"""

from __future__ import annotations

from exact_replay import KERNELS


def test_flights_certify_under_the_wrappers(shared_chains):
    left, band = shared_chains.left, shared_chains.band
    assert left.verified and left.poincare_image is not None
    assert band.failure is None and len(band.crossing.image) == 5


def test_every_kept_kernel_call_encloses_its_exact_range(shared_chains):
    r = shared_chains.replay
    # every kernel was sampled but rtbp._idot_ends, _dot's fallback for an
    # infinite endpoint, which these flights never reach
    assert all(r.kept[n] for n in KERNELS if n != "rtbp._idot_ends"), r.kept
    assert r.kept["rtbp._dot"] > 1000 and r.kept["rtbp._div_pos"] > 100, r.kept
    assert r.kept["rtbp._acc_mul"] > 100, r.kept
    assert not r.violations, (
        len(r.violations), r.violations[:3], r.kept, r.skipped)
