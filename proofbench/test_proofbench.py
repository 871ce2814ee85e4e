"""Fast tests of the benchmark's own code.

    python3 -m pytest proofbench -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys
import time

import pytest

import speed
import tracer
import workloads
from conecert.interval import decimal_to_interval
from conecert.prover import ProofConfig

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 1, 31, 38, 12345])
def test_proof_band_is_seeded_and_inside_default_band(seed):
    left, right = workloads.proof_band(seed)
    assert (left, right) == workloads.proof_band(seed)
    lo, hi = decimal_to_interval(left), decimal_to_interval(right)
    default = ProofConfig.default().mu_interval()
    assert lo.is_subset_of(default) and hi.is_subset_of(default)
    assert abs((hi.mid - lo.mid) - 1e-11) < 1e-16
    # decimal strings with the default band's 13 digits
    assert re.fullmatch(r"0\.\d{13}", left) and re.fullmatch(r"0\.\d{13}", right)


def test_seeds_move_the_band():
    bands = {workloads.proof_band(s) for s in range(20)}
    assert len(bands) > 5


def test_every_wrapped_name_is_patched_everywhere():
    originals = tracer.public_functions()
    assert "interval.idot" in originals and "flow.poincare_crossing" in originals
    by_id = {id(fn): q for q, fn in originals.items()}
    tr = tracer.Tracer()
    tr.install()
    try:
        for layer in tracer.LAYERS + ("",):
            mod = importlib.import_module(
                f"conecert.{layer}" if layer else "conecert"
            )
            left = [
                f"{mod.__name__}.{attr} is {by_id[id(obj)]}"
                for attr, obj in vars(mod).items()
                if id(obj) in by_id
            ]
            assert not left, left
        rtbp = importlib.import_module("conecert.rtbp")
        for path in tracer.METHODS["rtbp"]:
            cls, meth = path.split(".")
            assert vars(getattr(rtbp, cls))[meth] is not originals[f"rtbp.{path}"]
    finally:
        tr.uninstall()
    flow = importlib.import_module("conecert.flow")
    assert flow.idot is originals["interval.idot"]


def test_trace_self_time_and_flight_scope():
    from conecert import rtbp

    tr = tracer.Tracer()
    tr.install()
    try:
        params = rtbp.RtbpParams.from_float(0.0042538634220)
        rtbp.jordan_basis(params)
    finally:
        tr.uninstall()
    summary = tr.summary()
    jb = summary["rtbp.jordan_basis"]
    assert jb["calls"] == 1 and 0.0 < jb["self_s"] <= jb["s"]
    assert summary["interval.sqrt"]["calls"] > 0
    assert all(v["flight_calls"] == 0 for v in summary.values())
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(jb["s"], rel=1e-6)


def test_metric_names_and_units(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m


def test_layer_metrics_match_spec(spec):
    produced = set(tracer.layer_metrics({}, 0, 0))
    produced |= {f"flow.{w}" for w in (
        "px_width_left", "px_width_right",
        "tcross_width_endpoint", "tcross_width_fragment",
    )}
    produced |= {"trace.spans", "trace.overhead_ratio"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_manifold_slices_are_the_default_proofs():
    cfg = ProofConfig.default()
    slices = workloads.fragment_slices(cfg)
    assert len(slices) == cfg.fragments * cfg.fragment_mu_slices
    band = cfg.mu_interval()
    assert slices[0][0] == band.lo and slices[-1][1] == band.hi
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))


def test_workload_names_match_spec(spec):
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_sampler_freezes_and_takes_the_pauses_out(tmp_path):
    busy = "import time\nt = time.monotonic()\nwhile time.monotonic() - t < 0.4: pass\nprint('ok')"
    run = speed.run_sampled([sys.executable, "-c", busy], tmp_path, tmp_path, 30.0)
    assert run.returncode == 0 and run.stdout.strip() == "ok"
    assert len(run.frozen) >= 3 and len(run.samples) >= len(run.frozen)
    wall = run.end - run.start
    assert 0.0 < run.active(run.start, run.end) < wall
    assert run.nominal(run.start, run.end) > 0.0
    unsampled = speed.run_sampled(
        [sys.executable, "-c", busy], tmp_path, tmp_path, 30.0, sample=False
    )
    assert unsampled.frozen == [] and unsampled.returncode == 0


def test_sampler_kills_and_reaps_at_the_deadline(tmp_path):
    t0 = time.monotonic()
    with pytest.raises(speed.Timeout):
        speed.run_sampled(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            tmp_path, tmp_path, 0.5,
        )
    assert time.monotonic() - t0 < 10.0
    assert list(tmp_path.iterdir()) == []
