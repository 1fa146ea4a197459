import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fasdlab import ordering
from fasdlab.certcheck import check_fas_order
from fasdlab.digraph import (
    BudgetError,
    Digraph,
    GraphError,
    MultiDigraph,
    is_acyclic,
    strong_components,
)
from fasdlab.generators import (
    directed_cycle,
    gadget_dg,
    random_orgraph,
    rotational_tournament,
)
from fasdlab.ordering import (
    FAS_EXACT_MAX_N,
    _fas_dp,
    backward_arc_ids,
    bas,
    fas_brute,
    fas_exact,
    fas_upper_heuristic,
    fas_weighted_exact,
)
from test_golden import fas_components_corpus


def seeded_multidigraphs():
    """Multidigraphs on 3..8 vertices with 2n random arcs, parallel arcs and
    digons among them."""
    rng = random.Random(5)
    return [MultiDigraph(n, [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]) for n in range(3, 9)]


# Test-only copies of the pure-Python subset DP and its weight scaling that
# the numpy DP replaced; the numpy DP must return the same value and order.
def _reference_scaled_weights(d: Digraph):
    exact = [Fraction(repr(w)) for w in d.weights]
    scale = math.lcm(*(w.denominator for w in exact))
    return [int(w * scale) for w in exact], scale


def _reference_fas_dp(d: Digraph, weighted: bool):
    n = d.n
    if n == 0:
        return 0, ()
    if weighted:
        w, scale = _reference_scaled_weights(d)
        out_items = [[] for _ in range(n)]
        for a, (u, v) in enumerate(d.arcs):
            out_items[u].append((1 << v, w[a]))
    else:
        outmask = [0] * n
        for u, v in d.arcs:
            outmask[u] |= 1 << v

    size = 1 << n
    inf = float("inf")
    f = [0] * size
    choice = bytearray(size)
    for mask in range(1, size):
        best = inf
        best_v = 0
        rest = mask
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            prev = mask ^ bit
            if weighted:
                cost = f[prev]
                for nbit, nw in out_items[v]:
                    if nbit & prev:
                        cost += nw
            else:
                cost = f[prev] + (outmask[v] & prev).bit_count()
            # lowest vertex id wins ties, and bits are scanned low-to-high
            if cost < best:
                best = cost
                best_v = v
        f[mask] = best
        choice[mask] = best_v
    order = []
    mask = size - 1
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return (Fraction(f[size - 1], scale) if weighted else f[size - 1]), order


def _reference_per_component(d: Digraph, weighted: bool):
    """The reference DP on each strong component, the subgraph it induces,
    summed, with the orders concatenated in ``strong_components`` order."""
    value, order = 0, []
    for verts in strong_components(d):
        local = {v: i for i, v in enumerate(verts)}
        ids = [a for a, (u, v) in enumerate(d.arcs) if u in local and v in local]
        arcs = [(local[d.arcs[a][0]], local[d.arcs[a][1]]) for a in ids]
        sub = Digraph(len(verts), arcs, [d.weights[a] for a in ids] if weighted else None)
        sub_value, sub_order = _reference_fas_dp(sub, weighted)
        value += sub_value
        order += [verts[i] for i in sub_order]
    return value, order


@pytest.fixture
def tables(monkeypatch):
    """Every table that ``_fas_table`` builds, in the order built."""
    built = []

    def recording(in_items, bound):
        built.append(build(in_items, bound))
        return built[-1]

    build = ordering._fas_table
    monkeypatch.setattr(ordering, "_fas_table", recording)
    return built


def assert_dp_matches_reference(d: Digraph):
    for weighted in (False, True) if d.weighted else (False,):
        value, order = _fas_dp(d, weighted)
        assert type(value) is (Fraction if weighted else int) and all(type(v) is int for v in order)
        assert (value, list(order)) == _reference_per_component(d, weighted)


class TestBas:
    def test_3_cycle_natural_order(self):
        assert bas(directed_cycle(3), (0, 1, 2)) == 1

    def test_topological_order_zero(self):
        d = Digraph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        ok, order = is_acyclic(d)
        assert ok and bas(d, order) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            bas(directed_cycle(3), (0, 1, 1))

    def test_backward_and_forward_partition_arcs(self):
        rng = random.Random(0)
        for seed in range(10):
            d = random_orgraph(9, 5, 3, seed=seed)
            order = list(range(d.n))
            rng.shuffle(order)
            back = set(backward_arc_ids(d, order))
            rev = list(reversed(order))
            forward = set(range(d.m)) - back
            # both sides are feedback arc sets
            assert set(backward_arc_ids(d, rev)) == forward
            for ids in (back, forward):
                keep = [uv for a, uv in enumerate(d.arcs) if a not in ids]
                assert is_acyclic(Digraph(d.n, keep))[0]


class TestFasExact:
    def test_directed_cycles(self):
        for n in (3, 5, 8):
            assert fas_exact(directed_cycle(n)).value == 1

    def test_d8(self):
        cert = fas_exact(gadget_dg(8))
        assert cert.value == 2
        assert gadget_dg(8).m == 15

    def test_witness_attains_value(self):
        for seed in range(10):
            d = random_orgraph(10, 5, 3, seed=seed)
            cert = fas_exact(d)
            assert bas(d, cert.order) == cert.value
            keep = [uv for a, uv in enumerate(d.arcs) if a not in set(cert.arc_ids)]
            assert is_acyclic(Digraph(d.n, keep))[0]

    def test_equals_brute_force_on_tournament(self):
        t = rotational_tournament(7)
        assert fas_exact(t).value == fas_brute(t)[0]

    def test_equals_brute_force_random(self):
        for seed in range(25):
            d = random_orgraph(7, 6, 3, seed=seed)
            assert fas_exact(d).value == fas_brute(d)[0]

    def test_monotone_under_arc_addition(self):
        rng = random.Random(1)
        for seed in range(10):
            d = random_orgraph(8, 6, 3, seed=seed)
            pairs = {(u, v) for u, v in d.arcs}
            candidates = [
                (u, v)
                for u in range(8)
                for v in range(8)
                if u != v and (u, v) not in pairs and (v, u) not in pairs
            ]
            if not candidates:
                continue
            extra = rng.choice(candidates)
            bigger = Digraph(8, list(d.arcs) + [extra])
            assert fas_exact(bigger).value >= fas_exact(d).value

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            fas_exact(directed_cycle(25))

    def test_refuses_just_above_the_cap(self):
        assert FAS_EXACT_MAX_N == 22
        with pytest.raises(BudgetError):
            fas_exact(directed_cycle(23))

    def test_directed_cycle_at_the_cap(self):
        d = directed_cycle(22)
        cert = fas_exact(d)
        assert cert.value == 1 and len(cert.arc_ids) == 1
        assert bas(d, cert.order) == 1

    def test_dp_counts_parallel_arcs(self):
        # a popcount of the heads counted the two arcs 0 -> 1 once, so the DP
        # answered 1 with the order (1, 0), which reverses both
        for d in [MultiDigraph(2, [(0, 1), (0, 1), (1, 0)])] + seeded_multidigraphs():
            cert = fas_exact(d)
            assert cert.value == bas(d, cert.order) == fas_brute(d)[0]
            assert cert.arc_ids == tuple(backward_arc_ids(d, cert.order))

    def test_weighted_multidigraph_is_counted(self):
        # the self-check rebuilt the arcs as a Digraph, which refused the
        # parallel arcs 0 -> 1
        d = MultiDigraph(2, [(0, 1), (0, 1), (1, 0)], [1.0, 2.0, 0.5])
        assert fas_weighted_exact(d).value == Fraction(1, 2)
        assert fas_exact(d).value == fas_brute(MultiDigraph(d.n, d.arcs))[0] == 1

    def test_answers_past_22_when_every_component_is_small(self):
        # two directed 12-cycles joined by an arc, and 400 disjoint 5-cycles
        cycle = list(directed_cycle(12).arcs)
        joined = Digraph(24, cycle + [(u + 12, v + 12) for u, v in cycle] + [(3, 15)])
        many = Digraph(2000, [(5 * i + u, 5 * i + v) for i in range(400) for u, v in directed_cycle(5).arcs])
        for d, want in ((joined, 2), (many, 400)):
            cert = fas_exact(d)
            assert cert.value == want and check_fas_order(d, cert.order, want) == (True, None)

    def test_refuses_a_23_cycle_with_a_pendant_dag(self):
        d = Digraph(26, list(directed_cycle(23).arcs) + [(0, 23), (23, 24), (5, 25), (24, 25)])
        with pytest.raises(BudgetError, match="23 > 22"):
            fas_exact(d)


class TestFasDpReference:
    def test_matches_reference_on_grid(self):
        for n in range(15):
            for max_deg in range(2, 7):
                for weighted in (False, True):
                    d = random_orgraph(n, max_deg, 3, seed=100 * n + max_deg, weighted=weighted)
                    assert_dp_matches_reference(d)

    def test_matches_reference_at_n16(self):
        assert_dp_matches_reference(random_orgraph(16, 4, 3, seed=16, arc_target=32))
        assert_dp_matches_reference(random_orgraph(16, 5, 3, seed=61, weighted=True))

    def test_matches_reference_on_components(self):
        simple = [d for d in fas_components_corpus() if type(d) is Digraph]
        assert len(simple) == 9
        for d in simple:
            assert_dp_matches_reference(d)

    def test_components_equal_brute(self):
        small = [d for d in fas_components_corpus() if d.n <= 9]
        assert len(small) == 4
        for d in small:
            plain = MultiDigraph(d.n, d.arcs)
            assert fas_exact(d).value == fas_brute(plain)[0]
            if d.weighted:
                assert fas_weighted_exact(d).value == fas_brute(d)[0]

    def test_int64_path_matches_reference(self, tables):
        # integer weights near 10^9 (a scale of 1) push a component's total
        # past int32
        rng = random.Random(5)
        for seed in range(3):
            d = random_orgraph(12, 4, 3, seed=seed)
            heavy = Digraph(d.n, d.arcs, [float(rng.randint(1, 10**9)) for _ in d.arcs])
            assert ordering._scaled_weights(heavy)[1] == 1
            tables.clear()
            assert_dp_matches_reference(heavy)
            assert any(g.dtype == np.int64 for g in tables)


class TestFasDpWork:
    def test_one_table_per_strong_component(self, tables):
        # two directed 11-cycles joined by one arc: two tables of 2^11, where
        # one table over all 22 vertices would hold 2^22
        cycle = list(directed_cycle(11).arcs)
        d = Digraph(22, cycle + [(u + 11, v + 11) for u, v in cycle] + [(0, 11)])
        cert = fas_exact(d)
        assert cert.value == 2 and bas(d, cert.order) == 2
        assert sorted(map(len, tables)) == [2**11, 2**11]

    def test_strongly_connected_input_builds_one_table(self, tables):
        d = gadget_dg(8)
        assert fas_exact(d).value == 2
        assert [len(g) for g in tables] == [2**d.n]

    def test_acyclic_input_builds_no_table(self, tables):
        # arcs i -> i+1 and i -> i+2: 5 000 strong components of one vertex
        n = 5000
        d = Digraph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)])
        cert = fas_exact(d)
        assert cert.value == 0 and cert.order == tuple(range(n))
        assert tables == []


def component_weight(in_items):
    return sum(hw for items in in_items for _, hw in items)


class TestFasDpBound:
    """The order bound prunes the DP, is checked, and changes no answer."""

    def test_bound_below_fas_raises(self, monkeypatch):
        for d in (rotational_tournament(7), gadget_dg(8), random_orgraph(12, 4, 3, seed=0, weighted=True, arc_target=24)):
            weighted = d.weighted
            value, _ = _fas_dp(d, weighted)
            # one strong component, so its fas is the whole value
            monkeypatch.setattr(ordering, "_order_bound", lambda items: value - 1)
            with pytest.raises(AssertionError, match="below its fas"):
                _fas_dp(d, weighted)
            monkeypatch.undo()

    def test_no_pruning_gives_the_same_answers(self, monkeypatch):
        grid = [random_orgraph(n, 2 + n % 5, 3, seed=7 * n, weighted=n % 2 == 1) for n in range(1, 15)]
        grid += seeded_multidigraphs() + fas_components_corpus() + [rotational_tournament(9)]
        pruned = [_fas_dp(d, w) for d in grid for w in (False, True)[: 1 + d.weighted]]
        monkeypatch.setattr(ordering, "_order_bound", component_weight)
        assert [_fas_dp(d, w) for d in grid for w in (False, True)[: 1 + d.weighted]] == pruned

    def test_few_sets_kept_on_the_benchmark_inputs(self, tables):
        fas_exact(random_orgraph(20, 4, 3, seed=20, arc_target=40))
        fas_weighted_exact(random_orgraph(20, 4, 3, seed=120, weighted=True, arc_target=40))
        # strong components of 19 and 1 vertices, then one of 20: tables of
        # 2^19 and 2^20 sets, of which 284 and 162 are kept, and none for the
        # lone vertex
        kept = [int((g != np.iinfo(g.dtype).max).sum()) for g in tables]
        assert len(kept) == 2 and max(kept) <= 1000


class TestFasWeighted:
    def test_digon_reduction_consistency(self):
        # the digon pays its lighter arc, 3; what is left of it is acyclic
        d = Digraph(2, [(0, 1), (1, 0)], [3.0, 5.0])
        assert fas_weighted_exact(Digraph(2, [(1, 0)], [2.0])).value == 0
        assert fas_weighted_exact(d).value == Fraction(3)

    def test_uniform_weights_match_unweighted(self):
        for seed in range(8):
            d = random_orgraph(8, 4, 3, seed=seed)
            dw = Digraph(d.n, d.arcs, [1.0] * d.m)
            assert fas_weighted_exact(dw).value == fas_exact(d).value

    def test_equals_weighted_brute(self):
        for seed in range(10):
            d = random_orgraph(7, 4, 3, seed=seed, weighted=True)
            assert fas_weighted_exact(d).value == fas_brute(d)[0]

    def test_scaling_by_lambda(self):
        for seed in range(5):
            d = random_orgraph(8, 4, 3, seed=seed, weighted=True)
            scaled = Digraph(d.n, d.arcs, [2 * w for w in d.weights])
            c1 = fas_weighted_exact(d)
            c2 = fas_weighted_exact(scaled)
            assert c2.value == 2 * c1.value
            # the witness backward set of the scaled instance is optimal for both
            assert bas(d, c2.order) == c1.value

    def test_rejects_unweighted(self):
        with pytest.raises(ValueError):
            fas_weighted_exact(directed_cycle(4))

    def test_int64_values_are_exact(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)], [5000.0, 3000.25, 4000.0])
        assert fas_weighted_exact(d).value == Fraction(300025, 100)
        for seed in range(4):
            small = random_orgraph(7, 4, 3, seed=seed, weighted=True)
            heavy = Digraph(small.n, small.arcs, [1000.0 * round(100 * w) for w in small.weights])
            assert fas_weighted_exact(heavy).value == fas_brute(heavy)[0]


class TestExactWeights:
    def test_seven_decimals_are_exact(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)], [1e-7, 5.0, 5.0])
        assert fas_weighted_exact(d).value == fas_brute(d)[0] == Fraction(1, 10**7)
        assert bas(d, fas_upper_heuristic(d)) == Fraction(1, 10**7)

    def test_digon_residue_is_exact(self):
        # the digon pays its lighter arc, 0.1, and leaves 0.2 on (0, 1)
        d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)], [0.3, 0.1, 1.0, 1.0])
        residue = Digraph(3, [(0, 1), (1, 2), (2, 0)], [0.2, 1.0, 1.0])
        assert fas_weighted_exact(residue).value == Fraction(1, 5)
        assert fas_weighted_exact(d).value == Fraction(1, 10) + Fraction(1, 5)
        # two digons' lighter arcs sum exactly too
        stacked = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)], [0.1, 0.7, 0.2, 0.9])
        assert fas_weighted_exact(stacked).value == Fraction(3, 10)

    def test_six_decimals_are_exact(self):
        d = Digraph(3, [(0, 1), (1, 2), (2, 0)], [0.000001, 2.5, 1e-6 * 3])
        assert fas_weighted_exact(d).value == Fraction(1, 10**6)

    def test_total_beyond_int64_is_rejected(self):
        # the second: a scale of 10^12 takes 1e7 to 10^19
        for weights in ([4e18, 4e18, 4e18], [1e-12, 1e7, 1e7]):
            d = Digraph(3, [(0, 1), (1, 2), (2, 0)], weights)
            for oracle in (fas_weighted_exact, fas_brute, fas_upper_heuristic):
                with pytest.raises(GraphError, match="scaled to integers, are too large"):
                    oracle(d)


class TestHeuristic:
    def test_acyclic_gives_zero(self):
        d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert bas(d, fas_upper_heuristic(d)) == 0

    def test_directed_cycle_gives_one(self):
        assert bas(directed_cycle(9), fas_upper_heuristic(directed_cycle(9))) == 1

    def test_upper_bounds_exact(self):
        for seed in range(10):
            d = random_orgraph(10, 5, 3, seed=seed)
            assert bas(d, fas_upper_heuristic(d)) >= fas_exact(d).value

    def test_deterministic(self):
        d = random_orgraph(12, 4, 3, seed=3)
        assert fas_upper_heuristic(d) == fas_upper_heuristic(d)

    def test_weight_ties_are_exact(self):
        # slot costs must be exact here: in floats 0.3 - 0.2 - 0.1 < 0 breaks
        # a tie between slots
        arcs = [(0, 3), (5, 1), (5, 4), (2, 4), (5, 0), (3, 4), (2, 5), (1, 2), (2, 3), (4, 2)]
        d = Digraph(6, arcs, [0.7, 0.3, 0.1, 0.1, 0.3, 0.1, 0.3, 0.2, 0.1, 0.2])
        assert bas(d, fas_upper_heuristic(d)) == fas_brute(d)[0] == Fraction(2, 5)

    def test_parallel_arcs_each_count(self):
        # slot costs that count one arc per parallel class miss the optimum:
        # at 3 on the first digraph when out-arcs are dropped, at 2 on the
        # second when in-arcs are
        for n, arcs, want in (
            (4, [(0, 1), (1, 0), (1, 0), (0, 1), (0, 3), (1, 0)], 2),
            (5, [(4, 1), (4, 1), (1, 3), (0, 3), (3, 0), (3, 0)], 1),
        ):
            d = MultiDigraph(n, arcs)
            assert bas(d, fas_upper_heuristic(d)) == fas_brute(d)[0] == want

    def test_no_adjacent_swap_helps(self):
        cases = [random_orgraph(8, 4, 3, seed=s, weighted=s % 2 == 1) for s in range(20)]
        for d in cases + seeded_multidigraphs():
            order = list(fas_upper_heuristic(d))
            val = bas(d, order)
            assert val >= fas_brute(d)[0]
            for i in range(d.n - 1):
                swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
                assert bas(d, swapped) >= val

    def test_no_worse_than_the_greedy_order(self):
        # the last slot adds the arcs that the greedy order makes backward
        cases = [random_orgraph(10, 5, 3, seed=s) for s in range(10)]
        cases += [random_orgraph(8, 4, 3, seed=s, weighted=s % 2 == 1) for s in range(20)]
        for d in cases + seeded_multidigraphs():
            w = [1] * d.m if d.weights is None else ordering._scaled_weights(d)[0]
            in_items = [[] for _ in range(d.n)]
            for a, (u, v) in enumerate(d.arcs):
                in_items[v].append((u, w[a]))
            greedy = ordering._greedy_order(in_items)[2]
            assert bas(d, fas_upper_heuristic(d)) <= bas(d, greedy)
