"""The handle through which the benchmark calls fasdlab, and the spans around those calls.

The benchmark reaches the library only through ``Lib``.  Untraced, its
attributes are the library's own functions, so timing adds nothing to a call.
Traced, each attribute is wrapped so that every call records a span (name,
start, end, parent, error) and the work counts of ``COUNTERS``.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict

LAYERS = ("generators", "digraph", "ordering", "coloring", "triples", "delta3")

# Every public fasdlab function the benchmark calls, by layer.
CALLS = {
    "generators": (
        "random_orgraph",
        "random_two_regular_orgraph",
        "circulant_digraph",
        "circulant_graph",
        "paley_graph",
        "gadget_dg",
        "gadget_h3",
        "gadget_h4",
        "gadget_h5",
    ),
    "digraph": ("Digraph", "girth", "strong_components", "enumerate_cycles", "is_acyclic", "eulerian_orient"),
    "ordering": ("fas_exact", "fas_weighted_exact", "bas", "backward_arc_ids"),
    "coloring": ("fasd_exact", "good_coloring_search", "verify_good_coloring"),
    "triples": ("decompose3", "verify_good_triple"),
    "delta3": ("good_g_coloring", "fas_sixth", "fvs_exact"),
}


def _arcs(out, args):
    return out.m


def _dp_states(out, args):
    n = args[0].n
    return n << n


def _nodes(out, args):
    return out.nodes


# Work counted at the call boundary: call -> ((counter, f(result, args)), ...).
COUNTERS = {
    "generators.random_orgraph": (("generators.arcs", _arcs),),
    "generators.random_two_regular_orgraph": (("generators.arcs", _arcs),),
    "generators.circulant_digraph": (("generators.arcs", _arcs),),
    "generators.gadget_dg": (("generators.arcs", _arcs),),
    "generators.gadget_h3": (("generators.arcs", _arcs),),
    "generators.gadget_h4": (("generators.arcs", _arcs),),
    "generators.gadget_h5": (("generators.arcs", _arcs),),
    "ordering.fas_exact": (("ordering.dp_states", _dp_states),),
    "ordering.fas_weighted_exact": (("ordering.dp_states", _dp_states),),
    "coloring.fasd_exact": (("coloring.fasd_exact.nodes", _nodes),),
    "coloring.good_coloring_search": (("coloring.good_coloring_search.nodes", _nodes),),
    "digraph.enumerate_cycles": (("digraph.enumerate_cycles.cycles", lambda out, args: len(out)),),
    "delta3.fas_sixth": (
        ("delta3.fas_sixth.removed", lambda out, args: len(out)),
        ("delta3.fas_sixth.arcs", lambda out, args: args[0].m),
    ),
}

# Calls whose spans carry an argument in their name, so the report can split them.
LABELS = {"delta3.good_g_coloring": lambda args: f"g={args[1]}"}


def load_modules() -> dict:
    """Import (again) every fasdlab layer; the benchmark's set-up repeats this."""
    for name in [m for m in sys.modules if m == "fasdlab" or m.startswith("fasdlab.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"fasdlab.{layer}") for layer in LAYERS}


class Lib:
    """The fasdlab functions the benchmark calls, wrapped in spans when traced."""

    def __init__(self, modules: dict, tracer: Tracer | None = None):
        self.INFINITE = modules["digraph"].INFINITE
        for layer, names in CALLS.items():
            for fn_name in names:
                fn = getattr(modules[layer], fn_name)
                if tracer is not None:
                    fn = tracer.wrap(f"{layer}.{fn_name}", fn)
                setattr(self, fn_name, fn)


class Tracer:
    """In-memory spans of one run; every span carries the run's trace id.

    A span is ``[id, parent, name, start, end, error]``.  Spans nest strictly
    because the benchmark is one thread, so a span's children never overlap.
    """

    def __init__(self, clock, trace_id: str):
        self.clock = clock
        self.trace_id = trace_id
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent, name, self.clock(), None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def end(self, span: list, error: str | None = None) -> None:
        span[4] = self.clock()
        span[5] = error
        self.stack.pop()

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        label = LABELS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            span = self.begin(name if label is None else f"{name}[{label(args)}]")
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.end(span, type(exc).__name__)
                raise
            self.end(span)
            for counter, measure in counters:
                counts[counter] += measure(out, args)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, error in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": self.trace_id,
                            "span": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "error": error,
                        }
                    )
                    + "\n"
                )


def span_table(spans) -> dict:
    """Per span name: calls, failures by exception type, busy and self seconds.

    Busy time is the sum of a name's span durations.  Self time subtracts the
    part of each span that its child spans cover.
    """
    covered = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    table = {}
    for sid, _, name, start, end, error in spans:
        row = table.setdefault(name, {"calls": 0, "failed": Counter(), "busy": 0.0, "self": 0.0})
        row["calls"] += 1
        if error is not None:
            row["failed"][error] += 1
        row["busy"] += end - start
        row["self"] += end - start - covered[sid]
    return table
