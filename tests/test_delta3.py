import random
import tracemalloc

import pytest

from fasdlab import delta3, digraph
from fasdlab.certcheck import check_coloring, check_fas_sixth
from fasdlab.checks import COLORINGS_COUNT
from fasdlab.coloring import verify_good_coloring
from fasdlab.delta3 import (
    fas_sixth,
    fvs_brute,
    fvs_exact,
    good_g_coloring,
)
from fasdlab.digraph import (
    BudgetError,
    Digraph,
    GraphError,
    MultiDigraph,
    Peel,
    eulerian_orient,
    girth,
    is_acyclic,
)
from fasdlab.generators import (
    circulant_digraph,
    circulant_graph,
    directed_cycle,
    gadget_co,
    gadget_co_prime,
    gadget_dg,
    gadget_h3,
    is_digon_odd_cycle,
    paley_graph,
    random_orgraph,
    random_two_regular_orgraph,
)
from fasdlab.ordering import fas_exact
from fasdlab.triples import decompose3


class TestGoodGColoring:
    def test_directed_cycles(self):
        for g in (3, 4, 5):
            for n in (g, g + 1, g + 4):
                d = directed_cycle(n)
                c = good_g_coloring(d, g)
                assert verify_good_coloring(d, c, g)[0]

    def test_h3_with_each_g(self):
        d = gadget_h3()
        for g in (3, 4, 5):
            c = good_g_coloring(d, g)
            assert verify_good_coloring(d, c, g)[0]

    def test_rejects_degree_4(self):
        from fasdlab.generators import gadget_h4

        with pytest.raises(GraphError):
            good_g_coloring(gadget_h4(), 3)

    def test_rejects_low_girth(self):
        with pytest.raises(GraphError):
            good_g_coloring(directed_cycle(3), 4)

    def test_every_class_nonempty_on_cyclic_inputs(self):
        d = directed_cycle(7)
        c = good_g_coloring(d, 5)
        assert set(c.values()) == {1, 2, 3, 4, 5}

    def test_random_g3(self):
        for seed in range(120):
            d = random_orgraph(6 + seed % 22, 3, 3, seed=seed)
            c = good_g_coloring(d, 3)
            assert verify_good_coloring(d, c, 3)[0]

    def test_random_g4(self):
        for seed in range(120):
            d = random_orgraph(7 + seed % 22, 3, 4, seed=seed)
            c = good_g_coloring(d, 4)
            assert verify_good_coloring(d, c, 4)[0]

    def test_random_g5(self):
        for seed in range(200):
            d = random_orgraph(8 + seed % 25, 3, 5, seed=seed)
            c = good_g_coloring(d, 5)
            assert verify_good_coloring(d, c, 5)[0]

    def test_acyclic_input(self):
        d = Digraph(4, [(0, 1), (1, 2), (0, 3)])
        c = good_g_coloring(d, 5)
        assert verify_good_coloring(d, c, 5)[0]

    def test_dg_gadgets_girth_6_plus(self):
        for g in (6, 8, 10):
            d = gadget_dg(g)
            for target in (3, 4, 5):
                c = good_g_coloring(d, target)
                assert verify_good_coloring(d, c, target)[0]


class TestRelabelling:
    """The short-path fix writes pi^-1 of its colors onto its own arcs."""

    @pytest.mark.parametrize("g", [4, 5])
    def test_permutation_takes_first_then_second_then_the_rest(self, g):
        for first in range(1, g + 1):
            for second in [None, *range(1, g + 1)]:
                pi = delta3._permute_colors(first, second, g)
                assert sorted(pi) == sorted(pi.values()) == list(range(1, g + 1))
                assert pi[first] == 1
                led = [first]
                if second not in (None, first):
                    assert pi[second] == 2
                    led.append(second)
                rest = [c for c in range(1, g + 1) if c not in led]
                assert [pi[c] for c in rest] == list(range(len(led) + 1, g + 1))

    def test_both_permutation_cases_give_good_colorings(self, monkeypatch):
        taken = {"one heavy": 0, "two heavy": 0}
        real = delta3._permute_colors

        def counting(first, second, g):
            taken["one heavy" if second is None else "two heavy"] += 1
            return real(first, second, g)

        monkeypatch.setattr(delta3, "_permute_colors", counting)
        # the g = 4 instances of the colorings check at seed 0
        for i in range(COLORINGS_COUNT):
            n = 6 + i % 40
            d = random_orgraph(n, 3, 4, seed=i * 3 + 4, arc_target=(3 * n) // 2)
            assert check_coloring(d, good_g_coloring(d, 4, check=False), 4)[0]
        assert taken["one heavy"] > 0 and taken["two heavy"] > 0, taken


class TestFvsExact:
    def test_directed_cycle_needs_one(self):
        cert = fvs_exact(directed_cycle(7))
        assert len(cert.vertices) == 1 and cert.within_half

    def test_digon_odd_cycle_exception(self):
        cert = fvs_exact(gadget_co(5))
        assert len(cert.vertices) == 3  # (n + 1) / 2
        assert cert.exceptional and not cert.within_half

    def test_digon_triangle(self):
        cert = fvs_exact(gadget_co(3))
        assert len(cert.vertices) == 2 and cert.exceptional

    def test_matches_brute_oracle(self):
        for seed in range(25):
            d = random_orgraph(9, 4, 3, seed=seed)
            assert len(fvs_exact(d).vertices) == len(fvs_brute(d))

    def test_brute_oracle_on_digons(self):
        for length in (3, 5):
            d = gadget_co(length)
            assert len(fvs_exact(d).vertices) == len(fvs_brute(d))

    def test_matches_brute_oracle_on_multidigraphs(self):
        rng = random.Random(9)
        cases = [gadget_co(3), gadget_co(5), MultiDigraph(5, gadget_co(5).arcs + ((0, 1), (3, 2)))]
        for i in range(60):
            n = rng.randrange(3, 13)
            arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 4 * n))]
            cases.append(MultiDigraph(n, arcs + arcs[: i % 4]))
        # random pairs on 14 vertices, digons among them, where the search
        # meets a node whose shortest cycle has only kept vertices
        for seed in (483, 832, 2011):
            rng = random.Random(seed)
            n = rng.randrange(6, 15)
            cases.append(Digraph(n, sorted({tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n, 4 * n))})))
        for d in cases:
            cert = fvs_exact(d)
            brute = fvs_brute(d)
            simple = Digraph(d.n, sorted(set(d.arcs)))
            assert len(cert.vertices) == len(brute)
            assert cert.within_half == (2 * len(brute) <= d.n)
            assert cert.exceptional == is_digon_odd_cycle(simple)
            drop = set(cert.vertices)
            assert is_acyclic(Digraph(d.n, [(u, v) for u, v in simple.arcs if drop.isdisjoint((u, v))]))[0]

    @staticmethod
    def counted_fvs_exact(monkeypatch, d):
        """fvs_exact(d) and the number of cycle searches it made."""
        calls = 0
        search = delta3._shortest_cycle

        def counted(*args):
            nonlocal calls
            calls += 1
            return search(*args)

        with monkeypatch.context() as patch:
            patch.setattr(delta3, "_shortest_cycle", counted)
            return fvs_exact(d), calls

    def test_packing_bound_prunes_the_search(self, monkeypatch):
        cert, calls = self.counted_fvs_exact(monkeypatch, eulerian_orient(circulant_graph(24, [1, 2, 3])))
        assert len(cert.vertices) == 8
        # 139 cycle searches with the budget-bounded, inherited packing, the
        # kept vertices and the in-degree-one cut; 161 with the bounded walk
        # alone, 187 with every node's full packing, 3 504 without them
        assert calls <= 150

    def test_cycle_searches_on_c24(self, monkeypatch):
        # the search tree is pinned, so a faster cycle search saves per call
        cert, calls = self.counted_fvs_exact(monkeypatch, circulant_digraph(24, [1, 5]))
        assert (len(cert.vertices), calls) == (5, 410)

    def test_cycle_searches_on_the_benchmark_inputs(self, monkeypatch):
        # perfbench's five `exact` fvs inputs, built here: a ceiling on the
        # searches in all, 924 now; 1 000 with the bounded walk alone and
        # 1 361 with every node's full packing
        inputs = [
            circulant_digraph(24, [1, 5]),
            eulerian_orient(circulant_graph(24, [1, 2, 3])),
            eulerian_orient(paley_graph(17)),
            random_two_regular_orgraph(24, seed=1),
            random_two_regular_orgraph(24, seed=2),
        ]
        assert sum(self.counted_fvs_exact(monkeypatch, d)[1] for d in inputs) <= 924

    def test_half_bound_or_exception(self):
        for seed in range(25):
            d = random_orgraph(12, 4, 3, seed=seed)
            cert = fvs_exact(d)
            assert cert.within_half or cert.exceptional

    def test_removal_is_acyclic(self):
        for seed in range(10):
            d = random_orgraph(10, 4, 3, seed=seed)
            cert = fvs_exact(d)
            drop = set(cert.vertices)
            keep = [(u, v) for u, v in d.arcs if u not in drop and v not in drop]
            assert is_acyclic(Digraph(d.n, keep))[0]

    def test_no_size_cap(self):
        assert fvs_exact(directed_cycle(30)).vertices == (0,)

    def test_long_cycle_is_cheap(self):
        # a child's removed and kept sets are built only when it is popped;
        # building all 5 000 siblings' kept sets up front traced about 700 MiB
        tracemalloc.start()
        try:
            assert fvs_exact(directed_cycle(5000)).vertices == (0,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_budget_refusal(self, monkeypatch):
        # 410 cycle searches on 24 vertices; the budget allows 100
        monkeypatch.setattr(delta3, "_FVS_WORK_BUDGET", 24 * 100)
        with pytest.raises(BudgetError):
            fvs_exact(circulant_digraph(24, [1, 5]))


class TestFasSixth:
    def check(self, d):
        fas = fas_sixth(d)
        keep = [uv for a, uv in enumerate(d.arcs) if a not in set(fas)]
        assert is_acyclic(Digraph(d.n, keep))[0]
        assert 6 * len(fas) <= d.m
        return fas

    def test_directed_6_cycle(self):
        fas = self.check(directed_cycle(6))
        assert len(fas) == 1

    def test_directed_12_cycle(self):
        fas = self.check(directed_cycle(12))
        assert len(fas) <= 2

    def test_dg_gadgets(self):
        for g in (6, 8, 10, 12):
            self.check(gadget_dg(g))

    def test_co_prime_out_of_scope(self):
        # girth 4 < 6: rejected
        with pytest.raises(GraphError):
            fas_sixth(gadget_co_prime(5))

    def test_random_instances(self):
        for seed in range(150):
            d = random_orgraph(8 + seed % 30, 3, 6, seed=seed)
            self.check(d)

    def test_matches_exact_on_small(self):
        for seed in range(40):
            d = random_orgraph(8 + seed % 7, 3, 6, seed=seed)
            fas = self.check(d)
            assert len(fas) >= fas_exact(d).value

    def test_rejects_high_degree(self):
        from fasdlab.generators import gadget_h5

        with pytest.raises(GraphError):
            fas_sixth(gadget_h5())

    def test_acyclic_gives_empty(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        assert fas_sixth(d) == ()

    def test_matching_expansions_past_24_pairs(self):
        # vertex v becomes the arc 2v -> 2v+1 and arc u -> w the arc
        # 2u+1 -> 2w; the cores have 30, 40, 60 and 149 matching pairs.  The
        # 149-pair core's exact FVS fits the work budget only with the
        # kept-aware packing and the in-degree-one cut: 8 810 cycle searches
        # with the budget-bounded, inherited packing, 19 933 with every node's
        # full packing, and 134 228 and a refusal without those cuts
        for n, jumps in ((30, [1, 2]), (40, [1, 3]), (60, [1, 4]), (149, [1, 5])):
            arcs = [(2 * v, 2 * v + 1) for v in range(n)]
            arcs += [(2 * u + 1, 2 * w) for u, w in circulant_digraph(n, jumps).arcs]
            d = Digraph(2 * n, arcs)
            assert check_fas_sixth(d, fas_sixth(d)) == (True, None)


class TestSharedInputCheck:
    """decompose3, good_g_coloring and fas_sixth share one input check."""

    def test_parallel_arcs_are_rejected(self):
        d = MultiDigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        for construct in (decompose3, lambda d: good_g_coloring(d, 3), fas_sixth):
            with pytest.raises(GraphError, match="parallel arcs"):
                construct(d)

    def test_multidigraph_without_parallel_arcs_acts_as_digraph(self):
        arcs = [(0, 1), (1, 2), (2, 0)]
        multi, simple = MultiDigraph(3, arcs), Digraph(3, arcs)
        assert decompose3(multi) == decompose3(simple)
        assert good_g_coloring(multi, 3) == good_g_coloring(simple, 3)
        with pytest.raises(GraphError, match="girth 3 below 6"):
            fas_sixth(multi)

    def test_decompose3_does_not_compute_the_girth(self):
        # a fresh value: the generator reads the girth of its own output
        d = Digraph(40, random_orgraph(40, 4, 3, seed=1).arcs)
        decompose3(d)
        assert getattr(d, "_cycle", None) is None


class TestBareCycle:
    """One walk tells both constructions whether a strong piece is a bare cycle."""

    def test_steps_around_a_cycle_piece(self):
        pl = Peel(directed_cycle(5))
        assert delta3._bare_cycle(pl, 2) == [(2, 2), (3, 3), (4, 4), (0, 0), (1, 1)]

    def test_none_on_a_piece_with_a_heavy_vertex(self):
        # the chord 1 -> 3 makes 1 out-heavy and 3 in-heavy
        pl = Peel(Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]))
        assert (len(pl.out[1]), len(pl.inn[3])) == (2, 2)
        assert delta3._bare_cycle(pl, 1) is None  # a heavy start
        assert delta3._bare_cycle(pl, 2) is None  # a balanced start, walking into 3


class TestPeelOverlapRegression:
    def test_class_path_closing_back_g3(self):
        # the peeled path's exit arc returns to its entry: p1 p2 p3 p1 cycle
        arcs = [(0, 1), (1, 2), (2, 0), (3, 0), (2, 4), (4, 3)]
        d = Digraph(5, arcs)
        c = good_g_coloring(d, 3)
        assert verify_good_coloring(d, c, 3)[0]

    def test_class_path_closing_back_g4(self):
        arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (3, 5), (5, 6), (6, 4)]
        d = Digraph(7, arcs)
        assert girth(d) == 4
        c = good_g_coloring(d, 4)
        assert verify_good_coloring(d, c, 4)[0]

    def test_class_path_closing_back_g5(self):
        arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (4, 6), (6, 7), (7, 8), (8, 5)]
        d = Digraph(9, arcs)
        assert girth(d) == 5
        c = good_g_coloring(d, 5)
        assert verify_good_coloring(d, c, 5)[0]


# Peel.split calls on the grid below, per girth (6 is fas_sixth): a case runs
# on each strong component before its first split, so a component finished
# by its first case is never split.  These may fall but not grow.
SPLITS_MAX = {3: 47, 4: 45, 5: 48, 6: 52}

# Vertices the tree repair visits on the same grid, per girth: those whose
# arcs or children it reads, summed over all repairs.  These may fall but
# not grow, so a repair that searches the whole piece shows here.
REATTACH_MAX = {3: 742, 4: 542, 5: 623, 6: 701}


def _split_grid(g):
    for n in (10, 30, 100):
        for seed in range(5):
            d = random_orgraph(n, 3, g, seed=seed, arc_target=(4 * n) // 3 if g == 6 else (3 * n) // 2)
            fas_sixth(d) if g == 6 else good_g_coloring(d, g)


def test_peel_splits_do_not_grow(monkeypatch):
    calls = []
    real = Peel.split
    monkeypatch.setattr(Peel, "split", lambda pl, *args: calls.append(1) or real(pl, *args))
    for g, most in SPLITS_MAX.items():
        calls.clear()
        _split_grid(g)
        assert len(calls) <= most, g


class _Reads:
    """A mapping that forwards to ``real`` and records each key read."""

    def __init__(self, real, seen):
        self.real, self.seen = real, seen

    def __getitem__(self, v):
        self.seen.add(v)
        return self.real[v]

    def get(self, v, default=None):
        self.seen.add(v)
        return self.real.get(v, default)

    def __setitem__(self, v, value):
        self.real[v] = value

    def __delitem__(self, v):
        del self.real[v]

    def pop(self, v, *default):
        return self.real.pop(v, *default)


def test_peel_repairs_do_not_grow(monkeypatch):
    visits = []
    real = digraph._reattach

    def counting(dead, arcs, back, par, kids):
        seen = set()
        lost = real(dead, _Reads(arcs, seen), _Reads(back, seen), par, _Reads(kids, seen))
        visits.append(len(seen))
        return lost

    monkeypatch.setattr(digraph, "_reattach", counting)
    for g, most in REATTACH_MAX.items():
        visits.clear()
        _split_grid(g)
        assert sum(visits) <= most, (g, sum(visits))
