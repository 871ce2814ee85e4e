"""Layer bench of the Taylor integrator and of the derivative stage.

    python3 tools/bench_layers.py --label LABEL [--row NAME] [--src DIR]
                                  [--commit SHA] [--full]

Measures the conecert tree under DIR (default: this checkout's src/) and
records the result as one row of BENCH_<LABEL>.json at the repository
root.  A row of the same NAME (default: the measured tree's short commit)
is replaced; other rows are kept, so running the script once on a parent
checkout's src/ with --row before and once here with --row after gives a
before/after record.  The row's commit is read with git from DIR, or
taken from --commit for a tree that is not a git checkout (a `git
archive` copy of the parent).

A row holds:
  * flights, per default endpoint: seconds spent in flow.poincare_crossing,
    step attempts (calls of flow._expand_step, the crossing step
    included), attempts whose rough enclosure failed, attempts rejected
    on the solution Lagrange term, full steps (attempts that expanded
    every series), accepted steps with the least, median and largest
    accepted step size, the least, median and largest transport order q
    of the full steps, the tube-column coefficients they expanded
    (q + 1 each), the attempts whose series stopped below order p
    (reduced_steps) and the series order p' that each attempt reached
    (series_orders: p' to attempts; p' + 1 is the order its last tube
    series ends at, read when the attempt returns, after any extension
    by the tube column), the calls of the field's expand and
    expand_variational by the order reached at their return (a stop rule
    may end a series before the order asked for), the order-1 calls
    apart as field_reads (F over a box) and df_reads (DF over a tube)
    from the series of order 2 and up, the series coefficients formed
    (series_coefficients: the calls of RtbpSolutionSeries.extend, one
    coefficient each, wherever a series is extended, plus the orders the
    variational series reached), the coefficients an attempt formed at
    an order it had formed before in a series from the same start
    (reformed_coefficients: a solution series from the same box, or a
    variational one from the same V_0 along a series from the same box;
    the order-1 reads of F and DF are not counted), the terms of every
    rtbp._dot call (dot_terms, the shorter side's length summed), the
    P_X and crossing-time widths of the certified image, the sha256 of
    the endpoint's report, json.dumps(to_json(), sort_keys=True), and the
    error budget (below);
  * layers, median milliseconds over REPEATS calls at the middle expanded
    step of the left flight: expand of the thin midpoint (order p = 19)
    and of the rough tube (box, order p + 1), expand_variational of the
    tube series from the one column V_0 = x0 - m, the step's box less its
    midpoint (order p + 1, no stop rule), expand_variational of the box
    series from the identity at the step's transport order q (the
    transport's series), 1000 calls of rtbp._dot of length 12 (the tube
    series' X against w1 reversed, coefficients 0..11; the row's
    milliseconds read as microseconds per dot), one flow._expand_step at
    the flight's tol, one flow._assemble (the Lohner update) of that
    step, the image Horner of the step (flow._horner_vec of the thin
    series from the tube series' Lagrange coefficient, read off
    float_series() as the step reads it: the whole image phi_h(m) on a
    tree before the tube of order 2, its increment phi_h(m) - m from
    then on), and the tube column's stop
    rule at orders 1..q+1 of the column series, with the tail at q+1
    (flow._column_term); all but expand_step at the full order p;
  * derivative, median milliseconds of the derivative-over-N stage, the
    proof's one derivative path: prover.enclose_DF_over_N over the left
    endpoint's N in 256 pieces and over the first default mass slice's N
    in 8 pieces, each cold (the cache of the pieces' mass-free half,
    prover._n_pieces, cleared before every call, outside the timing) and
    warm (the _warm rows: the cache holds the call's N), each also in
    microseconds per piece (the _us_per_piece rows), and of the
    chart stage before it: rtbp.jordan_basis at the left endpoint's mass
    and over the same mass slice (REPEATS calls each); and
    derivative_calls, the Python-level calls one call of each of the
    enclose_DF_over_N rows makes, cold and warm: every "call" event of
    sys.setprofile ("calls"), the call itself included, and those of
    them whose frame runs code of the measured conecert tree
    ("conecert_calls");
  * fragment, the first fragment of the default proof
    (prover.run_fragment): wall seconds, the flights it flew
    (prover.poincare_image calls), their step attempts and accepted
    steps, the transport orders, tube-column coefficients, series orders,
    expansion counts, series and reformed coefficients and dot terms as
    above,
    the largest P_X width of a flight and the crossing-time width, and
    the error budget of its flights;
  * error_budget, per flight row: the median and the largest value, over
    the accepted steps (the calls of flow._assemble), of the widths that
    join the Lohner remainder in a step, each the largest over the
    components: the midpoint's increment (increment), h times coefficient
    1 of the thin midpoint series, the field at the midpoint
    (thin_field_h), twice the solution's Lagrange term (sol_err_2), the
    tail vector (tail), and the two defect products that _assemble adds,
    the transport's defect times the initial remainder (init_defect) and
    times the error remainder (error_defect);
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
import math
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


_BUDGET = ("increment", "thin_field_h", "sol_err_2", "tail", "init_defect",
           "error_defect")


def _step_budget(flow, enc, data, h: float, thin) -> tuple:
    """The widths of _BUDGET for one accepted step, each the largest over
    the components; the defect products are formed as _assemble forms
    them, from the flow module's own helpers."""
    def widest(pairs):
        return max(hi - lo for lo, hi in pairs)

    def defect(basis, box):
        _, dlo, dhi = flow._split(*flow._mul_floats(*data.transport, basis))
        rlo, rhi = [c.lo for c in box], [c.hi for c in box]
        return widest(flow._idot_ends(dl, dh, rlo, rhi)
                      for dl, dh in zip(dlo, dhi))

    return (
        max(c.width for c in data.increment),
        h * widest((lo[1], hi[1]) for lo, hi in thin.float_series()),
        2.0 * data.sol_err,
        max(c.width for c in data.tail),
        defect(enc.init_basis, enc.init_remainder),
        defect(enc.basis, enc.remainder),
    )


class _Counter:
    """Counting wrappers around one tree's flights while entered.

    flow._expand_step counts step attempts by outcome and keeps the
    transport order of each full step and the series order of each
    attempt, the observer of prover.poincare_crossing counts accepted
    steps and their sizes, prover.poincare_image keeps every certified
    crossing, the field's expand and expand_variational count their calls
    by the order reached, RtbpSolutionSeries.extend counts the solution
    coefficients, both keep the (start, order) of each coefficient formed
    in the running attempt to count the reformed ones, and rtbp._dot
    counts its terms.
    """

    def __init__(self, flow, prover, tolerance: float):
        self.flow, self.prover, self.tolerance = flow, prover, tolerance
        self.reset()

    def reset(self) -> None:
        self.stats = dict(attempts=0, rough_failures=0, sol_err_rejections=0,
                          full_steps=0, reduced_steps=0, accepted=0,
                          flight_s=0.0, dot_terms=0,
                          reformed_coefficients=0)
        self.extends = 0
        self.steps: list = []
        self.sizes: list = []
        self.images: list = []
        self.orders: list = []
        self.series_orders: dict = {}
        self.expand_orders: dict = {}
        self.variational_orders: dict = {}
        self.budget: list = []

    def __enter__(self) -> "_Counter":
        flow, prover = self.flow, self.prover
        field_cls = prover.RtbpTaylorField
        rtbp = sys.modules[field_cls.__module__]
        series_cls = rtbp.RtbpSolutionSeries
        self._saved = (flow._expand_step, prover.poincare_crossing,
                       prover.poincare_image, field_cls.expand,
                       field_cls.expand_variational, rtbp._dot,
                       series_cls.extend, flow._assemble)
        (expand_step, crossing, image, expand, variational, dot,
         extend, assemble) = self._saved
        stats = self.stats
        ex, var = self.expand_orders, self.variational_orders
        # the running attempt's tube order p + 1 and its last tube series
        tube = [None, None]
        # the (start, order) of each coefficient the running attempt has
        # formed, None outside an attempt, and whether an order-1 read runs
        formed, reading = [None], [False]
        # the last series expanded from a point: the step's thin series
        thin = [None]

        def start(ser):
            return tuple((lo[0], hi[0]) for lo, hi in ser.float_series())

        def form(key, k):
            if formed[0] is None or reading[0]:
                return
            if (key, k) in formed[0]:
                stats["reformed_coefficients"] += 1
            formed[0].add((key, k))

        def counted_extend(ser):
            self.extends += 1
            form(start(ser), ser.order + 1)
            return extend(ser)

        def counted_expand(field, u0, order, stop=None):
            reading[0] = order == 1
            try:
                # a tree without the stop rule takes no fourth argument
                ser = expand(field, u0, order, *([stop] if stop else []))
            finally:
                reading[0] = False
            k = len(ser.float_series()[0][0]) - 1
            ex[k] = ex.get(k, 0) + 1
            if order == tube[0]:
                tube[1] = ser
            if all(lo == hi for lo, hi in start(ser)):
                thin[0] = ser
            return ser

        def counted_variational(field, sol, v0, order, stop=None):
            reading[0] = order == 1
            try:
                v = variational(field, sol, v0, order, stop)
            finally:
                reading[0] = False
            k = len(v[0][0][0]) - 1
            var[k] = var.get(k, 0) + 1
            if order > 1:
                key = (start(sol), tuple((c.lo, c.hi) for r in v0.rows
                                         for c in r))
                for j in range(1, k + 1):
                    form(key, j)
            return v

        def counted_dot(alo, ahi, blo, bhi):
            stats["dot_terms"] += min(len(alo), len(blo))
            return dot(alo, ahi, blo, bhi)

        def counted_step(field, enc, h, order, *args, **kwargs):
            stats["attempts"] += 1
            tube[:] = [order + 1, None]
            formed[0] = set()
            try:
                data = expand_step(field, enc, h, order, *args, **kwargs)
            except flow.EnclosureFailure:
                stats["rough_failures"] += 1
                raise
            finally:
                ser, tube[:], formed[0] = tube[1], [None, None], None
            if ser is not None:
                reached = len(ser.float_series()[0][0]) - 1
                so = self.series_orders
                so[reached - 1] = so.get(reached - 1, 0) + 1
                stats["reduced_steps"] += reached <= order
            if data.sol_err > self.tolerance:
                stats["sol_err_rejections"] += 1
            else:
                stats["full_steps"] += 1
                tol = args[0] if args else kwargs.get("tol", math.inf)
                self.steps.append((field, enc, h, order, tol))
                self.orders.append(data.order)
            return data

        def budgeted_assemble(enc, data, h):
            self.budget.append(_step_budget(flow, enc, data, h, thin[0]))
            return assemble(enc, data, h)

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
        field_cls.expand = counted_expand
        field_cls.expand_variational = counted_variational
        rtbp._dot = counted_dot
        series_cls.extend = counted_extend
        flow._assemble = budgeted_assemble
        return self

    def __exit__(self, *exc) -> None:
        field_cls = self.prover.RtbpTaylorField
        rtbp = sys.modules[field_cls.__module__]
        (self.flow._expand_step, self.prover.poincare_crossing,
         self.prover.poincare_image, field_cls.expand,
         field_cls.expand_variational, rtbp._dot,
         rtbp.RtbpSolutionSeries.extend, self.flow._assemble) = self._saved

    def expansion_stats(self) -> dict:
        """The expand and expand_variational calls by the order reached,
        the order-1 reads of F and DF apart from the longer series, the
        coefficients formed (the solution's counted at extend), and the
        series orders of the step attempts."""
        ex, var = self.expand_orders, self.variational_orders
        so = self.series_orders
        return dict(
            expand_calls={str(k): ex[k] for k in sorted(ex)},
            expand_variational_calls={str(k): var[k] for k in sorted(var)},
            field_reads=ex.get(1, 0),
            df_reads=var.get(1, 0),
            series_expansions=sum(ex.values()) - ex.get(1, 0)
            + sum(var.values()) - var.get(1, 0),
            series_coefficients=self.extends
            + sum(k * n for k, n in var.items()),
            series_orders={str(k): so[k] for k in sorted(so)},
        )

    def budget_stats(self) -> dict:
        """The median and the largest of each error-budget entry over the
        accepted steps counted."""
        return {
            key: {"median": statistics.median(vals), "max": max(vals)}
            for key, vals in zip(_BUDGET, zip(*self.budget))
        }

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
    counter = _Counter(flow, prover, flow.TOL)
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
            **counter.expansion_stats(),
            px_width=ep.poincare_image[2].width,
            tcross_width=ep.crossing_time.width,
            digest=hashlib.sha256(
                json.dumps(ep.to_json(), sort_keys=True).encode()
            ).hexdigest(),
            error_budget=counter.budget_stats(),
        )
        if side == "left":
            left_steps = list(counter.steps)
    return rows, left_steps


def _one_fragment(flow, prover, cfg) -> dict:
    """The first fragment of the default proof, with its flights."""
    counter = _Counter(flow, prover, flow.TOL)
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
        "reduced_steps": stats["reduced_steps"],
        "dot_terms": stats["dot_terms"],
        "reformed_coefficients": stats["reformed_coefficients"],
        **counter.order_stats(),
        **counter.expansion_stats(),
        "flight_s": stats["flight_s"],
        "px_width_max": max(cr.image[2].width for cr in counter.images),
        "tcross_width": out.crossing_time.width,
        "error_budget": counter.budget_stats(),
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
    pieces = {"enclose_DF_over_N_256": 256, "enclose_DF_over_N_8_slice": 8}
    dfn = {
        "enclose_DF_over_N_256":
            (prover.enclose_DF_over_N, (chart, params, n_box, 256)),
        "enclose_DF_over_N_8_slice":
            (prover.enclose_DF_over_N, (s_chart, s_params, s_n_box, 8)),
    }
    clear = prover._n_pieces.cache_clear
    fns = {name: partial(fn, *args) for name, (fn, args) in dfn.items()}
    ms, nominal = _timed_rows(fns, before=clear)
    warm_ms, warm_nominal = _timed_rows(
        {name + "_warm": fn for name, fn in fns.items()}
    )
    # microseconds per piece: the row's milliseconds over its pieces
    for rows in (ms, nominal, warm_ms, warm_nominal):
        rows.update({
            f"{name}_us_per_piece": 1e3 * rows[name] / pieces[
                name.removesuffix("_warm")]
            for name in list(rows)
        })
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


def measure(src: Path, full: bool = False, commit: str | None = None) -> dict:
    sys.path.insert(0, str(src))
    from conecert import flow, prover, rtbp
    from conecert.interval import IMatrix, IVector

    cfg = prover.ProofConfig.default()
    flights, steps = _fly_endpoints(flow, prover, cfg)
    field, enc, h, order, tol = steps[len(steps) // 2]
    data = flow._expand_step(field, enc, h, order)
    box = enc.as_box()
    tube = flow.a_priori_enclosure(field, box, h)
    ser_z = field.expand(tube, order + 1)
    mid = IVector.from_floats(enc.midpoint)
    column = IMatrix([[box[i] - m] for i, m in enumerate(enc.midpoint)])
    q = data.order
    ser_x = field.expand(box, q)
    ident = IMatrix.identity(len(box))
    ser_m = field.expand(mid, order)
    # the Lagrange coefficient, one (lo, hi) pair per component
    sol_tail = [(lo[order + 1], hi[order + 1])
                for lo, hi in ser_z.float_series()]
    v_col = field.expand_variational(ser_z, column, order + 1)
    (xl, xh), (w1l, w1h) = ser_z.float_series()[0], ser_z.w1
    dot_args = (xl[:12], xh[:12], w1l[11::-1], w1h[11::-1])
    layers, layers_nominal = _timed_rows({
        "expand_thin_p": lambda: field.expand(mid, order),
        "expand_box_p1": lambda: field.expand(tube, order + 1),
        "expand_variational_p1_column":
            lambda: field.expand_variational(ser_z, column, order + 1),
        "expand_variational_q_identity":
            lambda: field.expand_variational(ser_x, ident, q),
        "dot_12_x1000":
            lambda: [rtbp._dot(*dot_args) for _ in range(1000)],
        "expand_step":
            lambda: flow._expand_step(field, enc, h, order, tol),
        "assemble": lambda: flow._assemble(enc, data, h),
        "horner_image": lambda: flow._horner_vec(ser_m, order, h, sol_tail),
        "tail_stop":
            lambda: _tail_stop(flow, v_col, q, h, order, data.sol_err),
    })
    derivative, derivative_nominal, derivative_calls = _derivative_layers(cfg)
    row = {
        "commit": commit or _commit(src),
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
    ap.add_argument("--commit",
                    help="the measured tree's commit, when DIR is no checkout")
    ap.add_argument("--full", action="store_true",
                    help="also run the default proof (minutes)")
    args = ap.parse_args()
    row = measure(args.src.resolve(), args.full, args.commit)
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
