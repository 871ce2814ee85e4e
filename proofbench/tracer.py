"""Outside-in tracing of the conecert layers.

`Tracer.install()` wraps every public function of the seven library
modules, plus the Taylor-field methods named in METHODS, and rebinds each
wrapper in every conecert module that holds the original by name (for
example `idot` is imported into `rtbp` and `flow`, so patching
`interval.idot` alone would miss the Taylor convolutions).  The library
code itself is not edited.

Each call becomes one span (name, start, end, parent) kept in compact
in-memory arrays; `write()` saves them to one file at the end, and
`layer_metrics()` derives the per-layer figures from them.  Accepted
flight steps are counted through the `observer` hook of
`flow.poincare_crossing`, which the tracer chains in front of any
observer the caller passes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("prover", "flow", "rtbp", "linalg", "cones", "manifold", "interval")

# public methods that carry a layer's work but are not module functions
METHODS = {
    "rtbp": ("RtbpTaylorField.expand", "RtbpTaylorField.expand_variational"),
}

CROSSING = "flow.poincare_crossing"


def _modules() -> dict:
    return {name: importlib.import_module(f"conecert.{name}") for name in LAYERS}


def public_functions() -> dict:
    """Qualified name -> original function, for every traced callable."""
    out = {}
    for layer, mod in _modules().items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[f"{layer}.{attr}"] = obj
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            out[f"{layer}.{path}"] = getattr(getattr(mod, cls_name), meth)
    return out


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack = [-1]
        self.steps_accepted = 0
        self._patched: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if qualname == CROSSING:
            inner = traced

            @functools.wraps(fn)
            def traced(*args, observer=None, **kwargs):  # noqa: F811
                def counting(enc, tube):
                    self.steps_accepted += 1
                    if observer is not None:
                        observer(enc, tube)

                return inner(*args, observer=counting, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced callable wherever conecert binds it by name."""
        originals = public_functions()
        wrappers = {id(fn): self._wrap(q, fn) for q, fn in originals.items()}
        mods = _modules()
        mods["__init__"] = importlib.import_module("conecert")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for layer, paths in METHODS.items():
            for path in paths:
                cls_name, meth = path.split(".")
                cls = getattr(mods[layer], cls_name)
                orig = vars(cls)[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, wrappers[id(orig)])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
        }

    def write(self, path) -> None:
        """Save every span, plus the name table, to one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per qualified name: calls, inclusive seconds, self seconds,
        and calls made inside a flight (under poincare_crossing)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_t = dur - child
        # inclusive time counts only the outermost span of directly
        # recursive calls
        pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outer = pname != name
        # flight membership: a span under a poincare_crossing span
        in_flight = name == (
            self.names.index(CROSSING) if CROSSING in self.names else -1
        )
        while True:
            grown = in_flight | (has_parent & in_flight[np.maximum(parent, 0)])
            if (grown == in_flight).all():
                break
            in_flight = grown
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selft = np.bincount(name, weights=self_t, minlength=k)
        flight_calls = np.bincount(name[in_flight], minlength=k)
        return {
            q: {
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(selft[i]),
                "flight_calls": int(flight_calls[i]),
            }
            for i, q in enumerate(self.names)
        }


def layer_metrics(summary: dict, steps_accepted: int, retries: int) -> dict:
    """The per-layer metric values, keyed by metric name.

    `retries` counts the 8-subbox endpoint fallbacks plus the fragment
    retries of the traced pass.
    """
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "flight_calls": 0}

    def g(q):
        return summary.get(q, zero)

    # one step expansion runs two variational expansions
    expansions = g("rtbp.RtbpTaylorField.expand_variational")["flight_calls"] // 2
    lj = g("rtbp.local_jacobian")
    dot = g("interval.idot")
    m = {
        "prover.chart_s": g("rtbp.jordan_basis")["s"],
        "prover.fixed_point_s": g("prover.enclose_fixed_point")["s"],
        "prover.derivative_s": g("prover.build_N")["s"]
        + g("prover.enclose_DF_over_N")["s"],
        "prover.cones_s": g("prover.certify_unstable")["s"],
        "prover.flight_s": g("prover.poincare_image")["s"],
        "prover.flights": g("prover.poincare_image")["calls"],
        "prover.retries": retries,
        "flow.crossing_s": g(CROSSING)["self_s"],
        "flow.tube_s": g("flow.a_priori_enclosure")["s"],
        "flow.step_expansions": expansions,
        "flow.steps_accepted": steps_accepted,
        "flow.accept_ratio": steps_accepted / expansions if expansions else 0.0,
        "rtbp.expand_calls": g("rtbp.RtbpTaylorField.expand")["calls"],
        "rtbp.expand_s": g("rtbp.RtbpTaylorField.expand")["s"],
        "rtbp.expand_variational_calls":
            g("rtbp.RtbpTaylorField.expand_variational")["calls"],
        "rtbp.expand_variational_s":
            g("rtbp.RtbpTaylorField.expand_variational")["s"],
        "rtbp.local_jacobian_calls": lj["calls"],
        "rtbp.local_jacobian_s": lj["s"],
        "rtbp.local_jacobian_ms_per_call":
            1e3 * lj["s"] / lj["calls"] if lj["calls"] else 0.0,
        "linalg.interval_newton_s": g("linalg.interval_newton")["s"],
        "linalg.solve_cols_s": g("linalg.solve_interval_linear_cols")["s"],
        "linalg.verified_inverse_calls": g("linalg.verified_inverse")["calls"],
        "linalg.verified_inverse_s": g("linalg.verified_inverse")["s"],
        "linalg.pd_check_s": g("linalg.is_positive_definite")["s"],
        "cones.flow_cone_check_s": g("cones.flow_cone_check")["s"],
        "manifold.certify_s": g("manifold.certify")["s"],
        "interval.idot_calls": dot["calls"],
        "interval.idot_s": dot["s"],
        "interval.idot_us_per_call":
            1e6 * dot["s"] / dot["calls"] if dot["calls"] else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v["self_s"] for q, v in summary.items()
            if q.split(".")[0] == layer
        )
    return m
