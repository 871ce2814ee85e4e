"""Layer bench of the Taylor integrator and of the derivative stage.

    python3 tools/bench_layers.py --label LABEL [--row NAME] [--src DIR]

Measures the conecert tree under DIR (default: this checkout's src/) and
records the result as one row of BENCH_<LABEL>.json at the repository
root.  A row of the same NAME (default: the measured tree's short commit)
is replaced; other rows are kept, so running the script once on a parent
checkout's src/ with --row before and once here with --row after gives a
before/after record.

A row holds:
  * flights, per default endpoint: seconds spent in flow.poincare_crossing,
    step attempts (calls of flow._expand_step, the crossing step
    included), attempts whose rough enclosure failed, attempts rejected
    on the solution Lagrange term, accepted steps, and the P_X and
    crossing-time widths of the certified image;
  * layers, median milliseconds over REPEATS calls at the middle expanded
    step of the left flight: expand of the thin midpoint (order p = 20)
    and of the rough tube (box, order p + 1), expand_variational of the
    tube series from V_0 = I (order p + 1), and one flow._expand_step;
  * derivative, median milliseconds of the derivative-over-N stage:
    prover.enclose_DF_over_N over the left endpoint's N in 256 pieces
    and over the first default mass slice's N in 32 pieces (DFN_REPEATS
    calls each), one scalar rtbp.local_jacobian on the whole left N, one
    linalg.verified_inverse of D(Phi) over it, and, on trees that have
    the array path, the same two computations as batches of one
    (rtbp.local_jacobian_batch, linalg.BatchSolver), which is why single
    boxes keep the scalar path;
  * the machine, the Python version and the commit.

Times are wall clock as measured: run it with nothing else busy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 25
DFN_REPEATS = 5


def _commit(src: Path) -> str:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args],
            capture_output=True, text=True, check=False,
        ).stdout.strip()

    rev = git("rev-parse", "--short", "HEAD") or "unknown"
    return rev + ("+dirty" if git("status", "--porcelain", ".") else "")


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def _median_ms(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _fly_endpoints(flow, prover, cfg):
    """Both endpoint flights with counting wrappers; returns the flight
    rows and the expanded steps of the left flight."""
    expand_step = flow._expand_step
    crossing = prover.poincare_crossing
    stats: dict = {}
    steps: list = []

    def counted_step(field, enc, h, order, *args, **kwargs):
        stats["attempts"] += 1
        try:
            data = expand_step(field, enc, h, order, *args, **kwargs)
        except flow.EnclosureFailure:
            stats["rough_failures"] += 1
            raise
        if data is None or data.sol_err > cfg.tolerance:
            stats["sol_err_rejections"] += 1
        else:
            steps.append((field, enc, h, order))
        return data

    def timed_crossing(*args, observer=None, **kwargs):
        def count(enc, tube):
            stats["accepted"] += 1

        t0 = time.perf_counter()
        try:
            return crossing(*args, observer=count, **kwargs)
        finally:
            stats["flight_s"] += time.perf_counter() - t0

    rows = {}
    left_steps: list = []
    flow._expand_step = counted_step
    prover.poincare_crossing = timed_crossing
    try:
        for side, mu in (("left", cfg.mu_left), ("right", cfg.mu_right)):
            stats.update(attempts=0, rough_failures=0, sol_err_rejections=0,
                         accepted=0, flight_s=0.0)
            steps.clear()
            ep = prover.run_endpoint(side, mu, cfg)
            if not ep.verified:
                raise RuntimeError(f"{side} endpoint failed: {ep.failure}")
            rows[side] = dict(
                stats,
                px_width=ep.poincare_image[2].width,
                tcross_width=ep.crossing_time.width,
            )
            if side == "left":
                left_steps = list(steps)
    finally:
        flow._expand_step = expand_step
        prover.poincare_crossing = crossing
    return rows, left_steps


def _derivative_layers(cfg) -> dict:
    """Milliseconds of the derivative-over-N stage and its single-box
    layers, scalar and (where the tree has it) batched."""
    from dataclasses import replace

    from conecert import interval, linalg, prover, rtbp

    def setup(mu, c):
        params = rtbp.RtbpParams(mu)
        chart = rtbp.jordan_basis(params)
        b = prover.enclose_fixed_point(chart, params, c)
        return params, chart, prover.build_N(b, c)

    params, chart, n_box = setup(interval.decimal_to_interval(cfg.mu_left), cfg)
    frag = replace(cfg, alpha_h=cfg.fragment_alpha_h)
    lo, hi = prover._slice_cuts(
        *cfg.fragment_intervals()[0], cfg.fragment_mu_slices
    )[0]
    s_params, s_chart, s_n_box = setup(interval.Interval(lo, hi), frag)
    dphi = rtbp.d_total_change(n_box, chart)
    out = {
        "enclose_DF_over_N_256": _median_ms(
            lambda: prover.enclose_DF_over_N(chart, params, n_box, 256),
            DFN_REPEATS,
        ),
        "enclose_DF_over_N_32_slice": _median_ms(
            lambda: prover.enclose_DF_over_N(s_chart, s_params, s_n_box, 32),
            DFN_REPEATS,
        ),
        "local_jacobian": _median_ms(
            lambda: rtbp.local_jacobian(n_box, chart, params)
        ),
        "verified_inverse": _median_ms(lambda: linalg.verified_inverse(dphi)),
        "local_jacobian_batch_of_one": None,
        "batch_solver_inverse_of_one": None,
    }
    if hasattr(rtbp, "local_jacobian_batch"):
        one = interval.IArray([n_box[0].lo], [n_box[0].hi])
        q = interval.IVector([one, n_box[1], n_box[2], n_box[3]])
        a = interval.IArray.stack(dphi)[None]
        ident = interval.IArray.stack(interval.IMatrix.identity(4))[None]
        out["local_jacobian_batch_of_one"] = _median_ms(
            lambda: rtbp.local_jacobian_batch(q, chart, params)
        )
        out["batch_solver_inverse_of_one"] = _median_ms(
            lambda: linalg.BatchSolver(a).solve(ident)
        )
    return out


def measure(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from conecert import flow, prover
    from conecert.interval import IMatrix, IVector

    cfg = prover.ProofConfig.default()
    flights, steps = _fly_endpoints(flow, prover, cfg)
    field, enc, h, order = steps[len(steps) // 2]
    tube = flow.a_priori_enclosure(field, enc.as_box(), h)
    ser_z = field.expand(tube, order + 1)
    mid = IVector.from_floats(enc.midpoint)
    ident = IMatrix.identity(4)
    layers = {
        "expand_thin_p": _median_ms(lambda: field.expand(mid, order)),
        "expand_box_p1": _median_ms(lambda: field.expand(tube, order + 1)),
        "expand_variational_p1": _median_ms(
            lambda: field.expand_variational(ser_z, ident, order + 1)
        ),
        "expand_step": _median_ms(
            lambda: flow._expand_step(field, enc, h, order)
        ),
    }
    return {
        "commit": _commit(src),
        "machine": _machine(),
        "order": order,
        "step_h": h,
        "layers_ms": layers,
        "derivative_ms": _derivative_layers(cfg),
        "flights": flights,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--row")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args()
    row = measure(args.src.resolve())
    row = {"row": args.row or row["commit"], **row}
    path = ROOT / f"BENCH_{args.label}.json"
    record = {"label": args.label, "rows": []}
    if path.exists():
        record = json.loads(path.read_text())
    record["rows"] = [
        r for r in record["rows"] if r["row"] != row["row"]
    ] + [row]
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(row, indent=2))


if __name__ == "__main__":
    main()
