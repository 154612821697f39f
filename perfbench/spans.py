"""In-memory spans around the benchmark's calls into qsagnac layers.

A span records (id, name, start, end, parent, run) plus counts taken from
the call's arguments or result.  Spans of one workload operation share a
run id.  Times come from time.perf_counter, which on Linux reads
CLOCK_MONOTONIC, so spans written by a command process nest correctly
under the span the benchmark opened around that process.
"""

import contextlib
import itertools
import os
import time


def _trace_bytes(trace):
    """Bytes held by the four trace columns, computed from the arrays."""
    return int(sum(a.nbytes for a in (trace.t, trace.psi, trace.chi, trace.drive)))


def _model(args, kwargs):
    return kwargs["model"] if "model" in kwargs else args[1]


# layer call -> (name suffix from the arguments, counts from args and result).
# The span of a call is named "<layer call>[.<suffix>]".
LAYER_CALLS = {
    "expsim.angle_sweep": (None, lambda a, k, r: {"records": len(r)}),
    "expsim.write_counts_csv": (None, None),
    "expsim.read_counts_csv": (None, lambda a, k, r: {"records": len(r)}),
    "expsim.simulate_polarimeter": (
        None, lambda a, k, r: {"samples": len(r.t), "bytes": _trace_bytes(r)}),
    "expsim.write_trace_csv": (None, lambda a, k, r: {"bytes": _trace_bytes(a[0])}),
    "expsim.read_trace_csv": (None, lambda a, k, r: {"bytes": _trace_bytes(r)}),
    "analysis.fit_switch_pair": (
        _model, lambda a, k, r: {"n_iter": [r[0].n_iter, r[1].n_iter]}),
    "analysis.mc_uncertainty": (
        _model, lambda a, k, r: {"resamples": r.n_samples * len(r.param_means),
                                 "nonconverged": r.nonconverged_fraction}),
    "analysis.extract_earth_phase": (lambda a, k: a[0].model, None),
    "analysis.fit_angle_sweep": (None, None),
    "analysis.enhancement_factor": (None, None),
    "analysis.demodulate_trace": (lambda a, k: f"n{len(a[0].t)}", None),
    "analysis.calibrate_scale_factor": (None, None),
    "sensedesign.rotation_resolution": (None, None),
    "sensedesign.landscape": (None, None),
    "sensedesign.optimize_gfring": (None, None),
}


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext({})

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans in memory; the benchmark writes them out when it ends."""

    enabled = True

    def __init__(self, run=None, parent=None):
        self.spans = []
        self.run = run
        self._stack = [parent]
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}:"

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": f"{self._prefix}{next(self._ids)}", "name": name,
               "parent": self._stack[-1], "run": self.run,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def call(self, name, fn, *args, **kwargs):
        suffix, counts = LAYER_CALLS[name]
        full = f"{name}.{suffix(args, kwargs)}" if suffix else name
        with self.span(full) as rec:
            result = fn(*args, **kwargs)
        if counts:
            rec["attrs"].update(counts(args, kwargs, result))
        return result


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], edge), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
