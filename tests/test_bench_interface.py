"""The library calls the benchmark in ``perfbench/`` makes still exist.

The benchmark looks its calls up by name, per layer, from ``CALLS`` in
``perfbench/tracing.py``; a name that went missing would only show as a
failed benchmark run.  The file is read, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

from fasdlab.delta3 import fas_sixth, good_g_coloring
from fasdlab.generators import random_orgraph
from fasdlab.triples import decompose3

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def bench_calls() -> dict:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "CALLS" in targets:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no CALLS")


def test_every_benchmark_call_resolves():
    calls = bench_calls()
    assert calls
    for layer, names in calls.items():
        module = importlib.import_module(f"fasdlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fasdlab.{layer}.{name}"


def test_benchmark_keywords_are_accepted():
    g3 = random_orgraph(12, 3, 3, seed=1, arc_target=18)
    g6 = random_orgraph(12, 3, 6, seed=1, arc_target=16)
    deg4 = random_orgraph(12, 4, 3, seed=1, arc_target=24)
    assert len(good_g_coloring(g3, 3, check=False)) == g3.m
    assert 6 * len(fas_sixth(g6, check=False)) <= g6.m
    assert len(decompose3(deg4, verify=False).orderings) == 3
