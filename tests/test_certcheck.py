"""The certificate checker: independence, agreement with the verifiers built on
it, and one mutation per rule that it must reject."""

import ast
import random
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from fasdlab import certcheck
from fasdlab.certcheck import (
    arc_index,
    backward_arc_ids,
    bas,
    check_coloring,
    check_conflict_clique,
    check_counting_bound,
    check_fas_order,
    check_fas_sixth,
    check_fvs,
    check_triple,
    closed_cycle_arcs,
    is_acyclic,
)
from fasdlab.coloring import counting_bound, fasd_exact, refute_by_conflict_clique
from fasdlab.delta3 import fas_sixth, fvs_exact, good_g_coloring
from fasdlab.digraph import Digraph, enumerate_cycles
from fasdlab.generators import directed_cycle, gadget_dg, gadget_h5, random_orgraph
from fasdlab.ordering import _scaled_weights, fas_exact, fas_weighted_exact
from fasdlab.triples import decompose3


def plain(d):
    """The digraph as bare data, without any of Digraph's adjacency."""
    return SimpleNamespace(n=d.n, arcs=list(d.arcs), weights=d.weights)


def walk_ids(d, cycle):
    """Arc ids along a vertex cycle, read off Digraph's own adjacency."""
    return tuple(d.arc_id(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1]))


def without(d, drop):
    return Digraph(d.n, [uv for a, uv in enumerate(d.arcs) if a not in drop])


class TestIndependence:
    def test_imports_only_the_standard_library(self):
        tree = ast.parse(Path(certcheck.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                names.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
        assert "fasdlab" not in names and "numpy" not in names
        assert names <= set(sys.stdlib_module_names) | {"__future__"}

    def test_solvers_borrow_no_more_of_the_checker(self):
        # what a module takes from certcheck besides its check_* rules is
        # shared with the checker; these sets may shrink but not grow
        borrowed = {
            "coloring": set(),
            "digraph": {"exact_weights", "is_acyclic"},
            "ordering": {"backward_arc_ids", "bas", "exact_weights"},
            "triples": {"backward_arc_ids"},
        }
        src = Path(certcheck.__file__).parent
        for path in sorted(src.glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in ("certcheck", "fasdlab.certcheck"):
                    names.update(a.name for a in node.names if not a.name.startswith("check_"))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    assert "certcheck" not in {a.name.split(".")[-1] for a in node.names}, path.stem
            assert names <= borrowed.get(path.stem, set()), path.stem

    def test_every_rule_reads_bare_data(self):
        d = random_orgraph(24, 3, 6, seed=3, arc_target=32)
        w = random_orgraph(10, 4, 3, seed=4, weighted=True, arc_target=20)
        h5 = gadget_h5()
        clique = refute_by_conflict_clique(h5)
        coloring = good_g_coloring(d, 3)
        triple = decompose3(d).orderings
        fas = fas_sixth(d)
        cert = fas_weighted_exact(w)
        fvs = fvs_exact(w).vertices
        cycle = enumerate_cycles(h5, 4).cycles[0]
        bound = counting_bound(h5)
        for g in (d, plain(d)):
            assert is_acyclic(g) == is_acyclic(d)
            assert check_coloring(g, coloring, 3) == (True, None)
            assert check_triple(g, triple) == (True, None)
            assert check_fas_sixth(g, fas) == (True, None)
            assert backward_arc_ids(g, triple[0]) == backward_arc_ids(d, triple[0])
        for g in (w, plain(w)):
            assert check_fvs(g, fvs) == (True, None)
            assert check_fas_order(g, cert.order, cert.value) == (True, None)
            assert bas(g, cert.order) == cert.value
            assert tuple(backward_arc_ids(g, cert.order)) == cert.arc_ids
        for g in (h5, plain(h5)):
            assert closed_cycle_arcs(arc_index(g), cycle) == walk_ids(h5, cycle)
            assert check_conflict_clique(g, 4, clique.arcs, clique.witness) == (True, None)
            assert check_counting_bound(g, bound.cycles, bound.arcs, bound.bound) == (True, None)


def fifo_kahn(d):
    """Kahn's peeling with a queue over Digraph's own adjacency."""
    indeg = [d.in_degree(v) for v in range(d.n)]
    q = deque(v for v in range(d.n) if indeg[v] == 0)
    order = []
    while q:
        u = q.popleft()
        order.append(u)
        for v, _ in d.out_arcs(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                q.append(v)
    return (True, order) if len(order) == d.n else (False, None)


def test_is_acyclic_keeps_the_fifo_order():
    rng = random.Random(7)
    for i in range(60):
        n = rng.randrange(1, 30)
        d = random_orgraph(n, 4, 3, seed=i, arc_target=rng.randrange(0, 2 * n + 1))
        # the backward arcs of a shuffled order leave an acyclic digraph
        order = list(range(n))
        rng.shuffle(order)
        dag = without(d, set(backward_arc_ids(d, order)))
        for g in (d, dag):
            assert is_acyclic(g) == fifo_kahn(g)
        assert is_acyclic(dag)[0]


def fas_orders():
    """(digraph, exact FAS certificate): unweighted, and weighted with a
    weight of six fraction digits."""
    d = random_orgraph(12, 4, 3, seed=5, arc_target=24)
    w = random_orgraph(12, 4, 3, seed=6, weighted=True, arc_target=24)
    w = Digraph(w.n, w.arcs, (w.weights[0] + 0.000001,) + w.weights[1:])
    return [(d, fas_exact(d)), (w, fas_weighted_exact(w))]


class TestMutations:
    """Each mutation is rejected; between them they reach every rejecting
    return of the rules.  ``check_conflict_clique``'s are in test_coloring."""

    def test_colouring_missing_an_arc_raises(self):
        d = random_orgraph(20, 3, 4, seed=1, arc_target=30)
        coloring = good_g_coloring(d, 4)
        del coloring[d.m - 1]
        with pytest.raises(ValueError, match="every arc"):
            check_coloring(d, coloring, 4)

    def test_recoloured_arc_names_the_failing_colour(self):
        d = random_orgraph(20, 3, 4, seed=1, arc_target=30)
        good = good_g_coloring(d, 4)
        rejected = 0
        for a in range(d.m):
            for c in range(1, 5):
                coloring = {**good, a: c}
                ok, bad = check_coloring(d, coloring, 4)
                if ok:
                    continue
                rejected += 1
                # colour ``bad`` is the first whose removal leaves a cycle
                cyclic = [
                    not is_acyclic(without(d, {x for x, k in coloring.items() if k == k0}))[0]
                    for k0 in range(1, 5)
                ]
                assert cyclic.index(True) + 1 == bad
        assert rejected > 0

    def test_swapped_vertices_in_one_order_report_the_arc(self):
        d = random_orgraph(30, 4, 3, seed=2, arc_target=60)
        triple = [list(o) for o in decompose3(d).orderings]
        # two neighbours in one order with an arc between them: swapping them
        # flips that arc alone
        for order in triple:
            pairs = [
                (j, a)
                for j in range(d.n - 1)
                for a, (u, v) in enumerate(d.arcs)
                if {u, v} == {order[j], order[j + 1]}
            ]
            if pairs:
                j, a = pairs[0]
                order[j], order[j + 1] = order[j + 1], order[j]
                assert check_triple(d, triple) == (False, a)
                return
        pytest.fail("no adjacent pair joined by an arc")

    def test_fas_missing_an_arc_of_a_cycle(self):
        # degree 3 and girth 6: the minimum FAS, 2 arcs, is within a sixth of 24
        d = random_orgraph(18, 3, 6, seed=3, arc_target=24)
        ids = list(fas_exact(d).arc_ids)
        assert len(ids) == 2 and check_fas_sixth(d, ids) == (True, None)
        # a minimum FAS is minimal: without any one of its arcs a cycle is left
        for a in ids:
            assert check_fas_sixth(d, [x for x in ids if x != a]) == (False, "the remainder has a cycle")

    def test_fas_above_a_sixth(self):
        d = random_orgraph(24, 3, 6, seed=3, arc_target=32)
        assert check_fas_sixth(d, list(fas_sixth(d))) == (True, None)
        # every arc leaves an acyclic remainder, but is more than a sixth
        assert check_fas_sixth(d, list(range(d.m))) == (False, f"6*{d.m} > m={d.m}")

    def test_fas_repeating_an_arc(self):
        d = directed_cycle(6)
        assert check_fas_sixth(d, [0, 0]) == (False, "arc ids are not distinct arcs")
        assert check_fas_sixth(d, [6]) == (False, "arc ids are not distinct arcs")

    def test_fas_order_with_two_vertices_swapped(self):
        for d, cert in fas_orders():
            order = list(cert.order)
            # neighbours in the order joined by an arc of positive weight:
            # swapping them flips that arc alone
            j = next(
                j
                for j in range(d.n - 1)
                for a, (u, v) in enumerate(d.arcs)
                if {u, v} == {order[j], order[j + 1]} and (d.weights is None or d.weights[a] > 0)
            )
            order[j], order[j + 1] = order[j + 1], order[j]
            weight = bas(d, order)
            assert weight != cert.value
            assert check_fas_order(d, order, cert.value) == (False, f"its backward arcs weigh {weight}, not {cert.value}")

    def test_fas_order_repeating_a_vertex(self):
        for d, cert in fas_orders():
            order = list(cert.order)
            for bad in (order[:-1] + order[:1], order[:-1], order + [d.n]):
                assert check_fas_order(d, bad, cert.value) == (False, "the order is not a permutation of the vertex set")

    def test_fas_value_off_by_one_unit(self):
        for d, cert in fas_orders():
            unit = 1 if d.weights is None else Fraction(1, _scaled_weights(d)[1])
            assert check_fas_order(d, cert.order, cert.value) == (True, None)
            for value in (cert.value - unit, cert.value + unit):
                assert check_fas_order(d, cert.order, value) == (
                    False,
                    f"its backward arcs weigh {cert.value}, not {value}",
                )

    def test_fvs_missing_a_vertex(self):
        d = random_orgraph(12, 4, 3, seed=2, arc_target=24)
        vs = fvs_exact(d).vertices
        assert len(vs) > 1 and check_fvs(d, vs) == (True, None)
        # a minimum FVS is minimal: without any one of its vertices a cycle is left
        for v in vs:
            assert check_fvs(d, [x for x in vs if x != v]) == (False, "the remainder has a cycle")

    def test_fvs_repeating_a_vertex_or_out_of_range(self):
        d = directed_cycle(6)
        assert check_fvs(d, [0]) == (True, None)
        for bad in ([0, 0], [6], [-1]):
            assert check_fvs(d, bad) == (False, "vertex ids are not distinct vertices")

    def test_closed_cycle_rule(self):
        h5 = gadget_h5()
        index = arc_index(h5)
        cyc = (0, 5, 1, 6)
        assert closed_cycle_arcs(index, cyc) == walk_ids(h5, cyc)
        for bad in ((6, 1, 5, 0), (0, 5, 0, 6), (0,), ()):
            assert closed_cycle_arcs(index, bad) is None
        # two triangles through vertex 0: a closed walk, but not a simple cycle
        eight = arc_index(Digraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
        assert closed_cycle_arcs(eight, (0, 1, 2)) == (0, 1, 2)
        assert closed_cycle_arcs(eight, (0, 1, 2, 0, 3, 4)) is None
        # of parallel arcs the lowest id
        assert closed_cycle_arcs(arc_index(SimpleNamespace(arcs=[(1, 0), (0, 1), (0, 1)])), (0, 1)) == (1, 0)

    def test_counting_bound_mutations(self):
        d12 = gadget_dg(12)
        cb = fasd_exact(d12).refutation
        cycles, arcs, bound = list(cb.cycles), cb.arcs, cb.bound
        check = lambda *family: check_counting_bound(d12, *family)
        assert check(cycles, arcs, bound) == (True, None)
        # a vertex dropped from a cycle skips an arc: the walk does not close
        shortened = [cycles[0][:3] + cycles[0][4:]] + cycles[1:]
        assert check(shortened, arcs, bound) == (False, "cycle 0 is not a closed cycle of D")
        # a cycle twice puts each arc it shares with another cycle on three
        ok, why = check(cycles + cycles[:1], arcs, bound)
        assert not ok and why.endswith("lies on three of the cycles")
        assert check(cycles, arcs, bound + 1) == (False, "bound 11 is not 21 // 2")
        assert check(cycles, arcs[1:], bound) == (False, "the arcs are not the union of the cycles")
        assert check([], (), 0) == (False, "the family has no cycles")

    def test_one_cycle_counting_bound_mutations(self):
        # fasd(C5) = 5 is refuted by its one 5-cycle, the bound 5 // 1
        c5 = directed_cycle(5)
        ref = fasd_exact(c5).refutation
        assert check_counting_bound(c5, ref.cycles, ref.arcs, ref.bound) == (True, None)
        h5, cyc = gadget_h5(), (0, 5, 1, 6)
        arcs = walk_ids(h5, cyc)
        assert check_counting_bound(h5, [cyc], arcs, 4) == (True, None)
        assert check_counting_bound(h5, [cyc], arcs, 5) == (False, "bound 5 is not 4 // 1")
        assert check_counting_bound(h5, [cyc[::-1]], arcs, 4) == (False, "cycle 0 is not a closed cycle of D")

    def test_triple_needs_three_orders(self):
        d = directed_cycle(3)
        with pytest.raises(ValueError, match="three orderings"):
            check_triple(d, [(0, 1, 2), (2, 1, 0)])
