"""One benchmark process: set up, run passes of a workload, report JSON.

    python3 proofbench/worker.py --workload W --seed N --mode M [--seconds S]

Modes:
  setup   import conecert.prover and build the workload's configs, then exit
          (the parent times this from outside, interpreter start included);
  plain   run passes until S seconds have elapsed (at least one);
  traced  install the tracer, run one pass, write the spans to
          .bench_out/trace-<workload>.npz and report the per-layer figures.

Each pass reports its start and end as `time.monotonic()` readings, so
that the parent, which freezes this process now and then to sample the
machine speed (speed.py), can take the frozen time out.  The last line
of standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    RUSAGE_CHILDREN reports the peak of the single largest waited-for
    child, not the sum of children that ran at the same time, so with
    several worker processes alive at once this undercounts them.
    """
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def _timed_pass(work) -> dict:
    start = time.monotonic()
    res = work.run_pass()
    return {
        "start": start,
        "end": time.monotonic(),
        "attempted": len(res.units),
        "failed": res.failed,
        "widths": res.widths,
        "failed_checks": res.failed_checks,
        "retries": res.retries,
        "digest": res.digest,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        print("{}")
        return

    out: dict = {"passes": [], "expected_widths": list(work.widths)}
    if args.mode == "traced":
        import tracer

        tr = tracer.Tracer()
        tr.install()
        p = _timed_pass(work)
        tr.uninstall()
        out["passes"].append(p)
        trace_dir = workloads.ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        tr.write(trace_dir / f"trace-{args.workload}.npz")
        out["layers"] = tracer.layer_metrics(
            tr.summary(), tr.steps_accepted, p["retries"]
        )
        out["spans"] = len(tr.span_name)
    else:
        start = time.monotonic()
        while True:
            out["passes"].append(_timed_pass(work))
            if time.monotonic() - start >= args.seconds:
                break
        out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
