"""Tracing from outside the program: module attributes are wrapped.

``Tracer.install()`` replaces every public function of ``fwpp.markov``,
``fwpp.abelian``, ``fwpp.planes`` and ``fwpp.adjacency`` (and ``cli.main``)
by a wrapper.  The library calls its own functions through module globals
and module attributes, so internal calls are caught too.

Most wrappers record a span: name, start, end, parent span and operation
id, kept in flat arrays and written out at the end.  Leaf functions that
run more than 10^5 times in one operation only count calls.  Only
``cli.main`` is wrapped in ``cli``, so its self time is argument parsing
plus formatting and serialization.

Three work counts are *computed* after the run, by the benchmark's own
arithmetic, from arguments and results recorded during it:

* ``adjacency.adjacent_partner.scan_len``: the sum of ``l1``, the local
  Gorenstein index at the slot, which is the length of the ``d1`` scan;
* ``planes.isomorphism_witness.search_space``: ``6 * mu * phi(mu)`` summed
  over calls passing the ``mu`` and sorted-``u`` prefilter;
* ``planes.singularity_report.res_curves``: the sum of returned curve
  counts, one Hirzebruch-Jung loop step each.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from collections import Counter

import arith

MODULES = ("markov", "abelian", "planes", "adjacency")

#: Leaves called more than 10^4 times in some operation (``apply_automorphism``
#: reaches 2*10^5 in a large-``mu`` ``iso``), plus a generator function, whose
#: span would end before its work: counted, never spanned.
COUNTER_ONLY = frozenset({"abelian.apply_automorphism", "abelian.automorphisms",
                          "abelian.pair_generates", "markov.norm"})

#: Span statistics reported per function: calls, ms (inclusive), self_ms.
SPAN_STATS = {
    "cli.main": ("calls", "self_ms"),
    "markov.enumerate_tree": ("calls", "ms"),
    "markov.admissible_arrangements": ("calls", "ms"),
    "abelian.smith_normal_form": ("calls", "ms"),
    "abelian.hermite_normal_form": ("calls", "ms"),
    "abelian.kernel_basis": ("calls", "ms"),
    "abelian.cokernel_structure": ("calls", "ms"),
    "planes.classify": ("calls", "ms", "self_ms"),
    "planes.adjust": ("calls", "ms", "self_ms"),
    "planes.isomorphism_witness": ("calls", "ms", "self_ms"),
    "planes.series_id": ("calls", "ms"),
    "planes.singularity_report": ("calls", "ms", "self_ms"),
    "planes.generator_of": ("calls", "ms"),
    "adjacency.adjacency_graph": ("calls", "ms", "self_ms"),
    "adjacency.adjacency_neighbors": ("calls", "ms"),
    "adjacency.adjacent_partner": ("calls", "ms", "self_ms"),
    "adjacency.self_adjacency_census": ("calls", "ms"),
}
COUNTED_CALLS = ("abelian.apply_automorphism", "abelian.pair_generates",
                 "abelian.k_membership_multiple", "planes.local_gorenstein_index")
RESULT_COUNTS = ("markov.enumerate_tree.nodes", "planes.classify.classes", "planes.isomorphism_witness.found",
                 "adjacency.adjacency_graph.nodes", "adjacency.adjacency_graph.edges")
COMPUTED = ("adjacency.adjacent_partner.scan_len", "planes.isomorphism_witness.search_space",
            "planes.singularity_report.res_curves")
RATIOS = ("planes.isomorphism_witness.found_ratio", "adjacency.adjacency_graph.kept_ratio")
LAYERS = ("cli",) + MODULES


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, stats in SPAN_STATS.items():
        for s in stats:
            units[f"{name}.{s}"] = "count" if s == "calls" else "ms"
    units["cli.stdout_bytes"] = "count"
    for name in COUNTED_CALLS:
        units[f"{name}.calls"] = "count"
    for name in RESULT_COUNTS + COMPUTED:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "1"
    for layer in LAYERS:
        units[f"{layer}.raised"] = "count"
    units["trace.overhead_s"] = "s"
    return units


#: Counts read off a result in O(1) while tracing: function -> (metric, value) pairs.
RESULT_HOOKS = {
    "markov.enumerate_tree": lambda r: (("markov.enumerate_tree.nodes", len(r.nodes)),),
    "planes.classify": lambda r: (("planes.classify.classes", len(r)),),
    "planes.isomorphism_witness": lambda r: (("planes.isomorphism_witness.found", int(r is not None)),),
    "adjacency.adjacency_graph": lambda r: (("adjacency.adjacency_graph.nodes", len(r.nodes)),
                                            ("adjacency.adjacency_graph.edges", len(r.edges))),
}

#: Calls whose arguments, or results, feed the computed counts after the run.
RECORD_ARGS = ("adjacency.adjacent_partner", "planes.isomorphism_witness")
RECORD_RESULT = ("planes.singularity_report",)


class Tracer:
    """Spans and counters of one traced repetition, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.counts = Counter()
        self.raised = Counter()
        self.recorded: dict[str, list] = {k: [] for k in RECORD_ARGS + RECORD_RESULT}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, key, layer, fn):
        name_id = len(self.names)
        self.names.append(key)
        names, starts, ends, parents, ops = (self.span_name, self.span_start, self.span_end,
                                             self.span_parent, self.span_op)
        stack, raised, counts = self._stack, self.raised, self.counts
        clock = time.perf_counter
        on_result = RESULT_HOOKS.get(key)
        record = self.recorded.get(key)
        record_args = key in RECORD_ARGS
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised[layer] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                for metric, value in on_result(result):
                    counts[metric] += value
            if record is not None:
                record.append(args if record_args else result)
            return result

        return wrapper

    def _counter_wrapper(self, key, layer, fn):
        counts, raised = self.counts, self.raised
        calls = f"{key}.calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise

        return wrapper

    def _wrap(self, module, layer, attr):
        fn = getattr(module, attr)
        key = f"{layer}.{attr}"
        make = self._counter_wrapper if key in COUNTER_ONLY else self._span_wrapper
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(key, layer, fn))

    def install(self, fwpp_pkg):
        for layer in MODULES:
            module = getattr(fwpp_pkg, layer)
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._wrap(module, layer, attr)
        self._wrap(fwpp_pkg.cli, "cli", "main")

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict:
        """Per function: [calls, inclusive seconds, self seconds]."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        totals = {}
        for i in range(n):
            t = totals.setdefault(self.names[self.span_name[i]], [0, 0.0, 0.0])
            t[0] += 1
            t[1] += dur[i]
            t[2] += dur[i] - child[i]
        return totals

    def computed_counts(self) -> dict:
        scan = 0
        for q, slot in self.recorded["adjacency.adjacent_partner"]:
            u, eta = q.u, q.eta
            iota = arith.gorenstein_index(q.mu, u, eta, slot)
            if (q.mu * u[slot]) % (iota * iota) == 0:
                scan += iota
        space = 0
        for q1, q2 in self.recorded["planes.isomorphism_witness"]:
            if q1.mu == q2.mu and sorted(q1.u) == sorted(q2.u):
                space += 6 * q1.mu * arith.euler_phi(q1.mu)
        curves = sum(sum(r.res_curves) for r in self.recorded["planes.singularity_report"])
        return {"adjacency.adjacent_partner.scan_len": scan,
                "planes.isomorphism_witness.search_space": space,
                "planes.singularity_report.res_curves": curves}

    def layer_metrics(self, stdout_bytes: int) -> dict:
        """Every per-layer metric except ``trace.overhead_s``."""
        totals = self.span_totals()
        out = {}
        for name, stats in SPAN_STATS.items():
            calls, incl, own = totals.get(name, (0, 0.0, 0.0))
            for s in stats:
                out[f"{name}.{s}"] = calls if s == "calls" else 1000.0 * (incl if s == "ms" else own)
        out["cli.stdout_bytes"] = stdout_bytes
        for name in COUNTED_CALLS:
            out[f"{name}.calls"] = self.counts[f"{name}.calls"] if name in COUNTER_ONLY else totals.get(name, [0])[0]
        for name in RESULT_COUNTS:
            out[name] = self.counts[name]
        out.update(self.computed_counts())
        calls = out["planes.isomorphism_witness.calls"]
        out["planes.isomorphism_witness.found_ratio"] = out["planes.isomorphism_witness.found"] / calls if calls else 0.0
        classes = out["planes.classify.classes"]
        out["adjacency.adjacency_graph.kept_ratio"] = out["adjacency.adjacency_graph.nodes"] / classes if classes else 0.0
        for layer in LAYERS:
            out[f"{layer}.raised"] = self.raised[layer]
        return out

    def write_spans(self, path: str):
        """All spans as gzipped JSON lines: a header with the names, then
        ``[name index, start s, end s, parent span index, operation id]``."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(f"[{self.span_name[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                         f"{self.span_parent[i]},{self.span_op[i]}]\n")
