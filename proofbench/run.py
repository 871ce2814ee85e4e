"""Proof benchmark: runs one workload, checks it, prints every metric.

    python3 proofbench/run.py --workload {proof,endpoints,manifold} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it builds nothing.  The workload runs in
a child process (proofbench/worker.py) so that set-up and peak memory are
measured from a fresh interpreter.

--trace 0  times set-up in SETUP_REPEATS fresh interpreters, then runs
           passes of the workload for S seconds (at least one) and reports
           the end-to-end metrics of BENCHMARK.json: medians over passes
           and set-ups, and the certified widths.  wall_s and setup_s
           are in nominal seconds: wall time with the sampling pauses
           taken out, rescaled to the machine speed sampled while the
           program was frozen (see speed.py).  The times as measured are
           printed next to them.
--trace 1  runs one untraced pass and one traced pass, neither frozen,
           and reports the per-layer metrics, times as measured; the
           spans go to .bench_out/.

Each pass is checked (verdict, signs, printed bands, every unit
verified), and its widths and report digest must repeat exactly across
the passes of one invocation.  A pass of proof or endpoints outlasts
10 s, so at --seconds 10 only a --trace 1 run compares two passes of
them (untraced against traced).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a worker that fails or
passes the deadline gives "correct": false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole run ends within 180 s
# flight widths: zero on workloads that fly nothing, so per-layer
FLIGHT_WIDTHS = (
    "px_width_left",
    "px_width_right",
    "tcross_width_endpoint",
    "tcross_width_fragment",
)


class WorkerFailed(Exception):
    pass


def _worker(args: list, deadline: float, sample: bool = True):
    """Run one worker; return its JSON report and its `speed.Sampled`."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    OUT.mkdir(exist_ok=True)
    try:
        run = speed.run_sampled(
            cmd, ROOT, OUT, max(1.0, deadline - time.monotonic()), sample
        )
    except speed.Timeout:
        raise WorkerFailed(
            f"worker passed the {DEADLINE_S:.0f} s deadline: {' '.join(args)}"
        ) from None
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise WorkerFailed(f"worker exited {run.returncode}: {' '.join(args)}")
    report = json.loads(run.stdout.strip().splitlines()[-1])
    for p in report.get("passes", ()):
        p["seconds"] = run.active(p["start"], p["end"])
        p["nominal_seconds"] = run.nominal(p["start"], p["end"])
    return report, run


def _check_passes(passes: list, expected: list) -> list:
    """Problems that make the run incorrect, as messages."""
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {m}" for m in p["failed_checks"]]
        missing = [w for w in expected if w not in p["widths"]]
        if missing and not p["failed_checks"]:
            problems.append(f"pass {i}: widths missing: {missing}")
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        if p["widths"] != first["widths"]:
            problems.append(f"pass {i}: widths differ from pass 0")
        if p["digest"] != first["digest"]:
            problems.append(f"pass {i}: report digest differs from pass 0")
    return problems


def _measure(args, base: list, deadline: float):
    """Run the workers; return metric values, passes, expected widths
    and set-up times."""
    values: dict = {}
    setup: list = []
    if args.trace:
        # untraced and traced passes run unfrozen: their times are the
        # per-layer figures, as measured
        plain, _ = _worker(base + ["--mode", "plain"], deadline, False)
        traced, _ = _worker(base + ["--mode", "traced"], deadline, False)
        passes = plain["passes"] + traced["passes"]
        values.update(traced["layers"])
        widths = passes[0]["widths"]
        for w in FLIGHT_WIDTHS:
            values[f"flow.{w}"] = widths.get(w, 0.0)
        values["trace.spans"] = traced["spans"]
        values["trace.overhead_ratio"] = (
            traced["passes"][0]["seconds"] / plain["passes"][0]["seconds"]
        )
    else:
        for _ in range(SETUP_REPEATS):
            _, run = _worker(base + ["--mode", "setup"], deadline)
            setup.append((run.active(run.start, run.end),
                          run.nominal(run.start, run.end)))
        plain, _ = _worker(
            base + ["--mode", "plain", "--seconds", str(args.seconds)],
            deadline,
        )
        passes = plain["passes"]
        widths = passes[0]["widths"]
        values["wall_s"] = statistics.median(
            p["nominal_seconds"] for p in passes
        )
        values["setup_s"] = statistics.median(n for _, n in setup)
        values["peak_rss_mb"] = plain["peak_rss_mb"]
        values["verified_ratio"] = 1.0 - (
            sum(p["failed"] for p in passes)
            / sum(p["attempted"] for p in passes)
        )
        for w in ("cone_margin_min", "dfn_width_max"):
            if w in widths:
                values[w] = widths[w]
    return values, passes, plain["expected_widths"], setup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("proof", "endpoints", "manifold"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "conecert" / "__init__.py").is_file():
        print(f"no conecert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        values, passes, expected, setup = _measure(args, base, deadline)
    except WorkerFailed as exc:
        print(f"FAILED CHECK: {exc}")
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
        return 0
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    problems = _check_passes(passes, expected)
    for i, p in enumerate(passes):
        print(
            f"pass {i}: {p['nominal_seconds']:.3f} s nominal "
            f"({p['seconds']:.3f} s as measured), "
            f"{p['attempted'] - p['failed']}/{p['attempted']} units verified, "
            f"retries {p['retries']}, digest {p['digest']}, "
            f"widths {json.dumps(p['widths'], sort_keys=True)}"
        )
    if setup:
        print("set-up, nominal (as measured): " + ", ".join(
            f"{n:.3f} ({a:.3f})" for a, n in setup) + " s")
    for m in problems:
        print(f"FAILED CHECK: {m}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"FAILED CHECK: metrics missing: {missing}")
    print(json.dumps({
        "correct": not problems and not missing,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
