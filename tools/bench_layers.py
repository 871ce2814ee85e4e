"""Layer bench of the Taylor integrator and of the derivative stage.

    python3 tools/bench_layers.py --label LABEL [--row NAME] [--src DIR]
                                  [--full]

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
    on the solution Lagrange term, full steps (attempts that expanded all
    five series), accepted steps with the least, median and largest
    accepted step size, the least, median and largest transport order q
    of the full steps (p on trees that expand every series to p), the
    tube-column coefficients they expanded (q + 1 each), the P_X and
    crossing-time widths of the certified image, and the sha256 of the
    endpoint's report, json.dumps(to_json(), sort_keys=True);
  * layers, median milliseconds over REPEATS calls at the middle expanded
    step of the left flight: expand of the thin midpoint (order p = 20)
    and of the rough tube (box, order p + 1), expand_variational of the
    tube series from the one column V_0 = x0 - m, the step's box less its
    midpoint (order p + 1, no stop rule), expand_variational of the box
    series from the identity at the step's transport order q (the
    transport's series), 1000 calls of rtbp._dot of length 12 (the tube
    series' d1 against w1 reversed, coefficients 0..11; the row's
    milliseconds read as microseconds per dot), one flow._expand_step,
    one flow._assemble (the Lohner update) of that step, the image
    Horner of the step (flow._horner_vec of the thin series from the
    tube series' Lagrange coefficient, read off float_series() as the
    step reads it), and the tube column's stop rule at orders 1..q+1 of
    the column series, with the tail at q+1 (flow._column_term);
  * derivative, median milliseconds of the derivative-over-N stage, the
    proof's one derivative path: prover.enclose_DF_over_N over the left
    endpoint's N in 256 pieces and over the first default mass slice's N
    in 32 pieces, each cold (the cache of the batch's psi half,
    prover._n_pieces, cleared before every call, outside the timing) and
    warm (the _warm rows: the cache holds the call's N), and of the
    chart stage before it: rtbp.jordan_basis at the left endpoint's mass
    and over the same mass slice (REPEATS calls each); and
    derivative_calls, the Python-level calls one call of each of the
    enclose_DF_over_N rows makes, cold and warm: every "call" event of
    sys.setprofile ("calls"), the call itself included, and those of
    them whose frame runs code of the measured conecert tree
    ("conecert_calls").  On trees without that cache every call is
    cold, so a cold row and its _warm row measure the same call;
  * fragment, the first fragment of the default proof
    (prover.run_fragment): wall seconds, the flights it flew
    (prover.poincare_image calls), their step attempts and accepted
    steps, the transport orders and tube-column coefficients as above,
    the largest P_X width of a flight and the crossing-time width;
  * with --full, the default proof (prover.check_homoclinic on
    ProofConfig.default()): verdict, wall seconds, both P_X images, the
    number of fragment flights, the largest fragment P_X and
    crossing-time widths, fragment retries and endpoint subboxes;
  * the machine, the Python version and the commit.

Times are wall clock as measured: run it with nothing else busy.  The
host's speed drifts between and within runs, so each timed call of the
layers and derivative rows is followed by one proofbench.speed.reference()
loop, and layers_nominal_ms and derivative_nominal_ms give the same rows
rescaled to the nominal machine speed of proofbench (each call's time
times REF_NOMINAL_S over the reference loop timed next to it, then the
median).  Compare layer rows of two trees by their nominal values.  The call
counts do not depend on the host's speed at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 25

sys.path.insert(0, str(ROOT))
from proofbench import speed  # noqa: E402


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


def _timed_rows(fns: dict, repeats: int = REPEATS,
                before=None) -> tuple[dict, dict]:
    """Median milliseconds of each callable over `repeats` calls, as
    ({name: as measured}, {name: nominal}).  Each call is followed by a
    reference loop, whose time rescales that call to the nominal speed.
    before, if given, runs untimed ahead of every call."""
    ms, nominal = {}, {}
    for name, fn in fns.items():
        fn()
        times, scaled = [], []
        for _ in range(repeats):
            if before is not None:
                before()
            t0 = time.perf_counter()
            fn()
            t = time.perf_counter() - t0
            times.append(t)
            scaled.append(t * speed.REF_NOMINAL_S / speed.reference())
        ms[name] = 1e3 * statistics.median(times)
        nominal[name] = 1e3 * statistics.median(scaled)
    return ms, nominal


def _call_counts(calls: dict, package: str, before=None) -> dict:
    """The Python-level calls of one call of each (function, args) of
    calls, after a warm-up call and before(), if given: all "call" events
    of sys.setprofile, and those in frames of code under the directory
    package."""
    out = {}
    for name, (fn, args) in calls.items():
        fn(*args)
        if before is not None:
            before()
        counts = {"calls": 0, "conecert_calls": 0}

        def count(frame, event, arg):
            if event == "call":
                counts["calls"] += 1
                if frame.f_code.co_filename.startswith(package):
                    counts["conecert_calls"] += 1

        sys.setprofile(count)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        out[name] = counts
    return out


def _flight_tolerance(flow, cfg) -> float:
    """The step tolerance of the proof's flights: flow's default, or the
    ProofConfig field on trees that still kept it there."""
    tol = getattr(flow, "TOL", None)
    return cfg.tolerance if tol is None else tol


class _Counter:
    """Counting wrappers around one tree's flights while entered.

    flow._expand_step counts step attempts by outcome and keeps the
    transport order of each full step, the observer of
    prover.poincare_crossing counts accepted steps and their sizes, and
    prover.poincare_image keeps every certified crossing.
    """

    def __init__(self, flow, prover, tolerance: float):
        self.flow, self.prover, self.tolerance = flow, prover, tolerance
        self.reset()

    def reset(self) -> None:
        self.stats = dict(attempts=0, rough_failures=0, sol_err_rejections=0,
                          full_steps=0, accepted=0, flight_s=0.0)
        self.steps: list = []
        self.sizes: list = []
        self.images: list = []
        self.orders: list = []

    def __enter__(self) -> "_Counter":
        flow, prover = self.flow, self.prover
        self._saved = (flow._expand_step, prover.poincare_crossing,
                       prover.poincare_image)
        expand_step, crossing, image = self._saved
        stats = self.stats

        def counted_step(field, enc, h, order, *args, **kwargs):
            stats["attempts"] += 1
            try:
                data = expand_step(field, enc, h, order, *args, **kwargs)
            except flow.EnclosureFailure:
                stats["rough_failures"] += 1
                raise
            if data is None or data.sol_err > self.tolerance:
                stats["sol_err_rejections"] += 1
            else:
                stats["full_steps"] += 1
                self.steps.append((field, enc, h, order))
                self.orders.append(getattr(data, "order", order))
            return data

        def timed_crossing(*args, observer=None, **kwargs):
            last = [args[1].time.mid]

            def count(enc, tube):
                stats["accepted"] += 1
                self.sizes.append(enc.time.mid - last[0])
                last[0] = enc.time.mid

            t0 = time.perf_counter()
            try:
                return crossing(*args, observer=count, **kwargs)
            finally:
                stats["flight_s"] += time.perf_counter() - t0

        def kept_image(*args, **kwargs):
            cr = image(*args, **kwargs)
            self.images.append(cr)
            return cr

        flow._expand_step = counted_step
        prover.poincare_crossing = timed_crossing
        prover.poincare_image = kept_image
        return self

    def __exit__(self, *exc) -> None:
        (self.flow._expand_step, self.prover.poincare_crossing,
         self.prover.poincare_image) = self._saved

    def order_stats(self) -> dict:
        """The transport orders of the full steps counted, and the
        tube-column coefficients those steps expanded."""
        return dict(
            transport_order_min=min(self.orders),
            transport_order_median=statistics.median(self.orders),
            transport_order_max=max(self.orders),
            column_coefficients=sum(q + 1 for q in self.orders),
        )


def _fly_endpoints(flow, prover, cfg):
    """Both endpoint flights with counting wrappers; returns the flight
    rows and the expanded steps of the left flight."""
    counter = _Counter(flow, prover, _flight_tolerance(flow, cfg))
    rows = {}
    left_steps: list = []
    for side, mu in (("left", cfg.mu_left), ("right", cfg.mu_right)):
        counter.reset()
        with counter:
            ep = prover.run_endpoint(side, mu, cfg)
        if not ep.verified:
            raise RuntimeError(f"{side} endpoint failed: {ep.failure}")
        sizes = counter.sizes
        rows[side] = dict(
            counter.stats,
            h_accepted_min=min(sizes),
            h_accepted_median=statistics.median(sizes),
            h_accepted_max=max(sizes),
            **counter.order_stats(),
            px_width=ep.poincare_image[2].width,
            tcross_width=ep.crossing_time.width,
            digest=hashlib.sha256(
                json.dumps(ep.to_json(), sort_keys=True).encode()
            ).hexdigest(),
        )
        if side == "left":
            left_steps = list(counter.steps)
    return rows, left_steps


def _one_fragment(flow, prover, cfg) -> dict:
    """The first fragment of the default proof, with its flights."""
    counter = _Counter(flow, prover, _flight_tolerance(flow, cfg))
    lo, hi = cfg.fragment_intervals()[0]
    t0 = time.perf_counter()
    with counter:
        out = prover.run_fragment(0, lo, hi, cfg)
    wall = time.perf_counter() - t0
    if not out.verified:
        raise RuntimeError(f"fragment 0 failed: {out.failure}")
    stats = counter.stats
    return {
        "seconds": wall,
        "flights": len(counter.images),
        "retried": out.retried,
        "attempts": stats["attempts"],
        "accepted": stats["accepted"],
        **counter.order_stats(),
        "flight_s": stats["flight_s"],
        "px_width_max": max(cr.image[2].width for cr in counter.images),
        "tcross_width": out.crossing_time.width,
    }


def _derivative_layers(cfg) -> tuple[dict, dict, dict]:
    """Milliseconds of the derivative-over-N and chart stages, as
    measured and nominal, and the Python-level calls of one
    derivative-over-N call."""
    from dataclasses import replace

    from conecert import interval, prover, rtbp

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
    dfn = {
        "enclose_DF_over_N_256":
            (prover.enclose_DF_over_N, (chart, params, n_box, 256)),
        "enclose_DF_over_N_32_slice":
            (prover.enclose_DF_over_N, (s_chart, s_params, s_n_box, 32)),
    }
    cache = getattr(prover, "_n_pieces", None)
    clear = cache.cache_clear if cache is not None else None
    fns = {name: partial(fn, *args) for name, (fn, args) in dfn.items()}
    ms, nominal = _timed_rows(fns, before=clear)
    warm_ms, warm_nominal = _timed_rows(
        {name + "_warm": fn for name, fn in fns.items()}
    )
    package = str(Path(prover.__file__).parent) + os.sep
    calls = _call_counts(dfn, package, before=clear)
    calls.update({
        name + "_warm": counts
        for name, counts in _call_counts(dfn, package).items()
    })
    chart_ms, chart_nominal = _timed_rows({
        "jordan_basis_endpoint": lambda: rtbp.jordan_basis(params),
        "jordan_basis_slice": lambda: rtbp.jordan_basis(s_params),
    })
    return ({**ms, **warm_ms, **chart_ms},
            {**nominal, **warm_nominal, **chart_nominal}, calls)


def _full_proof(prover) -> dict:
    """The default proof end to end, keeping the fragments' crossings."""
    run_fragment, image = prover.run_fragment, prover.poincare_image
    fragment_images: list = []
    in_fragment = [False]

    def fragment(*args, **kwargs):
        in_fragment[0] = True
        try:
            return run_fragment(*args, **kwargs)
        finally:
            in_fragment[0] = False

    def kept_image(*args, **kwargs):
        cr = image(*args, **kwargs)
        if in_fragment[0]:
            fragment_images.append(cr)
        return cr

    prover.run_fragment, prover.poincare_image = fragment, kept_image
    try:
        t0 = time.perf_counter()
        report = prover.check_homoclinic(prover.ProofConfig.default())
        wall = time.perf_counter() - t0
    finally:
        prover.run_fragment, prover.poincare_image = run_fragment, image
    widths = [
        f.crossing_time.width
        for f in report.fragments
        if f.crossing_time is not None
    ]
    return {
        "verdict": report.verdict,
        "wall_s": wall,
        "px_left": report.left.poincare_image[2].to_json(),
        "px_right": report.right.poincare_image[2].to_json(),
        "fragment_flights": len(fragment_images),
        "fragment_px_width_max": max(
            (cr.image[2].width for cr in fragment_images), default=None
        ),
        "fragment_tcross_width_max": max(widths) if widths else None,
        "fragment_retries": sum(f.retried for f in report.fragments),
        "endpoint_subboxes": [report.left.subboxes, report.right.subboxes],
    }


def _tail_stop(flow, v, q: int, h: float, order: int, sol_err: float):
    """The step's stop rule over the tube column v at orders 1..q+1 and
    its tail at q+1."""
    hpl, hph = flow._powers(h, order + 1)
    stops = [
        all(-lo <= sol_err and hi <= sol_err
            for lo, hi in flow._column_term(v, k, hpl, hph))
        for k in range(1, q + 2)
    ]
    return stops, flow._column_term(v, q + 1, hpl, hph)


def measure(src: Path, full: bool = False) -> dict:
    sys.path.insert(0, str(src))
    from conecert import flow, prover, rtbp
    from conecert.interval import IMatrix, Interval, IVector

    cfg = prover.ProofConfig.default()
    flights, steps = _fly_endpoints(flow, prover, cfg)
    field, enc, h, order = steps[len(steps) // 2]
    data = flow._expand_step(field, enc, h, order)
    box = enc.as_box()
    tube = flow.a_priori_enclosure(field, box, h)
    ser_z = field.expand(tube, order + 1)
    mid = IVector.from_floats(enc.midpoint)
    column = IMatrix([[box[i] - m] for i, m in enumerate(enc.midpoint)])
    q = getattr(data, "order", order)
    ser_x = field.expand(box, q)
    ident = IMatrix.identity(len(box))
    ser_m = field.expand(mid, order)
    # the Lagrange coefficient as (lo, hi) pairs, or as an IVector for
    # trees whose _horner_vec reads one (those with flow._ends)
    sol_tail = [(lo[order + 1], hi[order + 1])
                for lo, hi in ser_z.float_series()]
    if hasattr(flow, "_ends"):
        sol_tail = IVector([Interval(*t) for t in sol_tail])
    v_col = field.expand_variational(ser_z, column, order + 1)
    (d1l, d1h), (w1l, w1h) = ser_z.d1, ser_z.w1
    dot_args = (d1l[:12], d1h[:12], w1l[11::-1], w1h[11::-1])
    layers, layers_nominal = _timed_rows({
        "expand_thin_p": lambda: field.expand(mid, order),
        "expand_box_p1": lambda: field.expand(tube, order + 1),
        "expand_variational_p1_column":
            lambda: field.expand_variational(ser_z, column, order + 1),
        "expand_variational_q_identity":
            lambda: field.expand_variational(ser_x, ident, q),
        "dot_12_x1000":
            lambda: [rtbp._dot(*dot_args) for _ in range(1000)],
        "expand_step": lambda: flow._expand_step(field, enc, h, order),
        "assemble": lambda: flow._assemble(enc, data, h),
        "horner_image": lambda: flow._horner_vec(ser_m, order, h, sol_tail),
        "tail_stop":
            lambda: _tail_stop(flow, v_col, q, h, order, data.sol_err),
    })
    derivative, derivative_nominal, derivative_calls = _derivative_layers(cfg)
    row = {
        "commit": _commit(src),
        "machine": _machine(),
        "order": order,
        "step_h": h,
        "step_q": q,
        "layers_ms": layers,
        "layers_nominal_ms": layers_nominal,
        "derivative_ms": derivative,
        "derivative_nominal_ms": derivative_nominal,
        "derivative_calls": derivative_calls,
        "flights": flights,
        "fragment": _one_fragment(flow, prover, cfg),
    }
    if full:
        row["full"] = _full_proof(prover)
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--row")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--full", action="store_true",
                    help="also run the default proof (minutes)")
    args = ap.parse_args()
    row = measure(args.src.resolve(), args.full)
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
