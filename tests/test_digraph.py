import random
from collections import deque

import pytest

from fasdlab.certcheck import arc_index, closed_cycle_arcs
from fasdlab.digraph import (
    INFINITE,
    Digraph,
    Graph,
    GraphError,
    MultiDigraph,
    Peel,
    _cycle_walk,
    _shortest_cycle,
    _tarjan,
    chains,
    connected_components,
    enumerate_cycles,
    eulerian_orient,
    girth,
    is_acyclic,
    max_degree,
    shortest_cycle,
    strong_components,
)
from fasdlab.generators import (
    directed_cycle,
    gadget_dg,
    gadget_h3,
    gadget_h4,
    gadget_h5,
    paley_graph,
    random_orgraph,
)
from fasdlab.ordering import backward_arc_ids
from test_generators import reference_random_orgraph
from test_golden import multi_corpus


def brute_cycles(d, max_len):
    """Oracle: enumerate simple cycles by DFS over all starting vertices."""
    found = set()

    def walk(start, path, on_path):
        u = path[-1]
        for v in d.out_neighbors(u):
            if v == start and len(path) >= 2:
                k = len(path)
                rots = [tuple(path[i:] + path[:i]) for i in range(k)]
                found.add(min(rots))
            elif v not in on_path and len(path) < max_len:
                walk(start, path + [v], on_path | {v})

    for s in range(d.n):
        walk(s, [s], {s})
    return found


def reference_shortest_cycle(d, removed=()):
    """The shortest-cycle BFS without pruning: every root and every head not
    in ``removed``."""
    best = None
    for s in range(d.n):
        if s in removed:
            continue
        parent = {s: None}
        q = deque([(s, 0)])
        while q:
            u, du = q.popleft()
            if best is not None and du + 1 >= len(best):
                break
            for v, _ in d.out_arcs(u):
                if v == s:
                    best = [u]
                    while best[-1] != s:
                        best.append(parent[best[-1]])
                    best.reverse()
                    q.clear()
                    break
                if v not in removed and v not in parent:
                    parent[v] = u
                    q.append((v, du + 1))
    return best


def seeded_digraphs(count, seed):
    """Random Digraphs and MultiDigraphs (parallel arcs, digons) on up to 12 vertices."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(2, 13)
        arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3 * n))]
        yield MultiDigraph(n, arcs) if i % 3 == 0 else Digraph(n, list(dict.fromkeys(arcs)))


def seeded_views(count, seed):
    """(digraph, removed vertex set): none removed, or up to half of them."""
    rng = random.Random(seed)
    for i, d in enumerate(seeded_digraphs(count, seed)):
        yield d, set(rng.sample(range(d.n), rng.randrange(d.n // 2 + 1))) if i % 2 else set()


class TestInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Digraph(3, [(0, 0)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(GraphError):
            Digraph(3, [(0, 1), (0, 1)])

    def test_multidigraph_allows_parallel(self):
        m = MultiDigraph(3, [(0, 1), (0, 1), (1, 2)])
        assert m.m == 3

    def test_rejects_bad_vertex(self):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 2)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            Digraph(2, [(0, 1)], [-1.0])

    def test_immutable(self):
        d = Digraph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            d.n = 5

    def test_empty_graph_legal(self):
        d = Digraph(0, [])
        assert girth(d) is INFINITE
        assert is_acyclic(d)[0]


class TestDegrees:
    def test_directed_3_cycle(self):
        assert max_degree(directed_cycle(3)) == 2
        assert max_degree(Digraph(0, [])) == 0

    def test_h5_delta(self):
        assert max_degree(gadget_h5()) == 5

    def test_h3_delta(self):
        assert max_degree(gadget_h3()) == 3


class TestGirth:
    def test_directed_7_cycle(self):
        assert girth(directed_cycle(7)) == 7

    def test_h4_girth_6(self):
        assert girth(gadget_h4()) == 6

    def test_h3_girth_9(self):
        assert girth(gadget_h3()) == 9

    def test_h5_girth_4(self):
        assert girth(gadget_h5()) == 4

    def test_d8_girth_8(self):
        assert girth(gadget_dg(8)) == 8

    def test_digon(self):
        assert girth(Digraph(2, [(0, 1), (1, 0)])) == 2

    def test_acyclic_is_infinite(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert girth(d) is INFINITE

    def test_girth_infinite_iff_acyclic(self):
        for seed in range(20):
            d = reference_random_orgraph(10, 4, 3, seed=seed, backbone=seed % 2 == 0)
            assert (girth(d) is INFINITE) == is_acyclic(d)[0]


class TestAcyclicity:
    def test_single_arc(self):
        ok, order = is_acyclic(Digraph(2, [(0, 1)]))
        assert ok and order is not None

    def test_digon_false(self):
        assert not is_acyclic(Digraph(2, [(0, 1), (1, 0)]))[0]

    def test_topological_witness_has_no_backward_arcs(self):
        d = Digraph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2), (2, 5)])
        ok, order = is_acyclic(d)
        assert ok
        assert backward_arc_ids(d, order) == []


class TestStrongComponents:
    def test_acyclic_path_singletons(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        assert strong_components(d) == [[0], [1], [2], [3]]

    def test_directed_5_cycle_single(self):
        assert strong_components(directed_cycle(5)) == [[0, 1, 2, 3, 4]]

    def test_two_cycles_joined_source_first(self):
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        comps = strong_components(Digraph(6, arcs))
        assert comps == [[0, 1, 2], [3, 4, 5]]

    def test_condensation_is_acyclic(self):
        for seed in range(10):
            d = random_orgraph(12, 4, 3, seed=seed)
            comps = strong_components(d)
            idx = {}
            for i, comp in enumerate(comps):
                for v in comp:
                    idx[v] = i
            # every cross-component arc must point forward in emitted order
            for u, v in d.arcs:
                assert idx[u] <= idx[v]


class TestPeel:
    ARCS = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (0, 3)]

    def test_live_arcs_in_arc_order(self):
        d = Digraph(5, self.ARCS)
        pl = Peel(d, [0, 1, 2, 3])
        assert pl.out[1] == [(2, 1), (3, 3)]
        assert pl.out[3] == []
        assert pl.inn[3] == [(1, 3), (0, 5)]
        assert sorted(pl.out) == [0, 1, 2, 3]
        assert Peel(d).out[3] == [(4, 4)]

    def test_delete_cuts_the_arcs_at_a_vertex(self):
        d = Digraph(5, self.ARCS)
        pl = Peel(d)
        pl.delete(4)
        pl.delete(1)
        assert 1 not in pl.out and 1 not in pl.inn
        assert pl.out[0] == [(3, 5)] and pl.inn[2] == [] and pl.out[3] == []

    def test_neighbourhood_at_removal(self):
        # delete returns the live arcs each vertex had when it went
        d = Digraph(5, self.ARCS)
        pl = Peel(d)
        cut = {v: pl.delete(v) for v in (3, 0, 1)}
        assert cut[3] == ([(4, 4)], [(1, 3), (0, 5)])
        assert cut[0] == ([(1, 0)], [(2, 2)])
        assert cut[1] == ([(2, 1)], [])

    def test_split_matches_strong_components(self):
        # a root's component is split again after each round of deletions,
        # repairing its search trees, and must match Tarjan every time
        rng = random.Random(11)
        for seed in range(30):
            d = reference_random_orgraph(40, 3, 3, seed=seed, arc_target=60, backbone=seed % 2 == 0)
            pl = Peel(d)
            piece, root, before = sorted(pl.out), None, set()
            while piece:
                alive = [v for v in piece if v in pl.out]
                keep = set(alive)
                live = Digraph(d.n, [(u, v) for u, v in d.arcs if u in keep and v in keep])
                want = [c for c in strong_components(live) if c[0] in keep]
                old_root = root
                root, comps, cut, touched = pl.split(piece, root)
                got = list(comps)
                if root is not None:
                    rest = {v for c in comps for v in c}
                    giant = [v for v in alive if v in pl.out and v not in rest]
                    assert root in giant
                    if root == old_root:
                        # every vertex left that lost an arc, and no other
                        changed = {
                            v for v in giant
                            if any(w in before and w not in giant for w in d.out_neighbors(v) + d.in_neighbors(v))
                        }
                        assert set(touched) == changed
                    else:
                        assert touched == giant
                    got.append(giant)
                assert sorted(got) == sorted(c for c in want if len(c) > 1)
                comp_of = {v: i for i, c in enumerate(want) for v in c}
                inside = [a for a, (u, v) in enumerate(d.arcs) if u in comp_of and v in comp_of]
                assert cut == [a for a in inside if comp_of[d.arcs[a][0]] != comp_of[d.arcs[a][1]]]
                assert [v for v in alive if v in pl.out] == sorted(v for c in got for v in c)
                for v in comp_of.keys() & pl.out.keys():
                    assert all(comp_of[w] == comp_of[v] for w, _ in pl.out[v] + pl.inn[v])
                if root is None:
                    break
                piece, before = giant, set(giant)
                for v in rng.sample(piece, min(len(piece), rng.randrange(1, 4))):
                    pl.delete(v)

    def test_deep_split_keeps_its_trees(self):
        # at n = 300 the trees are deep and the root's piece can collapse; the
        # deletions take the root itself, a whole path of in-degree-1,
        # out-degree-1 vertices, or a few vertices, as the peeling does
        rng = random.Random(36)
        regrown = paths = 0
        for seed in range(4):
            d = random_orgraph(300, 3, 3 + seed % 2, seed=seed, arc_target=450)
            pl = Peel(d)
            todo, root = [sorted(pl.out)], None
            while todo or root is not None:
                if root is None:
                    piece = todo.pop()
                live = sorted(a for v in pl.out for _, a in pl.out[v])
                alive = {v for v in piece if v in pl.out}
                # the root stays while it lives; a new one is the highest vertex
                want_root = root if root in alive else max(alive, default=None)
                regrown += root != want_root
                root, comps, cut, touched = pl.split(piece, root)
                assert root in (want_root, None)
                giant = set(pl.piece) | ({want_root} & alive)
                lost = alive - giant
                inside = Digraph(d.n, [d.arcs[a] for a in live if set(d.arcs[a]) <= lost])
                assert comps == [c for c in strong_components(inside) if c[0] in lost and len(c) > 1]
                todo += comps
                if root is None:
                    continue
                before = Digraph(d.n, [d.arcs[a] for a in live if set(d.arcs[a]) <= alive])
                assert [c for c in strong_components(before) if root in c] == [sorted(giant)]
                self.assert_trees(pl, root, giant)
                piece = sorted(giant)
                step = rng.randrange(3)
                if step == 0:
                    doomed = [root]
                else:
                    doomed = self.bare_path(pl, piece) if step == 1 else []
                    paths += len(doomed) > 1
                    doomed = doomed or rng.sample(piece, min(len(piece), rng.randrange(1, 4)))
                for v in doomed:
                    pl.delete(v)
        assert regrown > 4 and paths > 4

    @staticmethod
    def bare_path(pl, piece):
        """A maximal path of in-degree-1, out-degree-1 vertices, or []."""
        bare = [v for v in piece if len(pl.out[v]) == len(pl.inn[v]) == 1]
        if not bare:
            return []
        path = [bare[len(bare) // 2]]
        while len(pl.inn[path[0]]) == len(pl.out[path[0]]) == 1 and len(path) < len(piece):
            u = pl.inn[path[0]][0][0]
            if u in path or len(pl.inn[u]) != 1 or len(pl.out[u]) != 1:
                break
            path.insert(0, u)
        while len(path) < len(piece):
            w = pl.out[path[-1]][0][0]
            if w in path or len(pl.inn[w]) != 1 or len(pl.out[w]) != 1:
                break
            path.append(w)
        return path

    @staticmethod
    def assert_trees(pl, root, giant):
        # the reach-out tree hangs each vertex below a live in-neighbour and
        # the reach-in tree below a live out-neighbour; both span the piece
        for (par, kids), arcs in zip(pl._trees, (pl.out, pl.inn)):
            assert par.keys() == kids.keys() == giant and par[root] is None
            hung = sorted((c, u) for u, cs in kids.items() for c in cs)
            assert hung == sorted((v, u) for v, u in par.items() if u is not None)
            assert all(any(w == v for w, _ in arcs[u]) for v, u in hung)
            up = {root}
            for v in giant:
                chain = []
                while v not in up:
                    chain.append(v)
                    v = par[v]
                    assert len(chain) <= len(giant)
                up.update(chain)


class TestTarjan:
    def test_within_gives_the_induced_components(self):
        rng = random.Random(7)
        for seed in range(60):
            d = random_orgraph(40, 3 + seed % 2, 3, seed=seed, arc_target=55 + seed % 20)
            for _ in range(5):
                within = set(rng.sample(range(d.n), rng.randrange(1, d.n + 1)))
                induced = Digraph(d.n, [(u, v) for u, v in d.arcs if u in within and v in within])
                want = [c for c in strong_components(induced) if c[0] in within]
                assert _tarjan(sorted(within), d._out, within) == want


class TestShortestCycle:
    def test_acyclic_gives_none(self):
        assert shortest_cycle(Digraph(3, [(0, 1), (1, 2)])) is None
        assert shortest_cycle(Digraph(0, [])) is None

    def test_is_a_cycle_of_girth_length(self):
        for seed in range(40):
            d = reference_random_orgraph(9, 4, 3, seed=seed, arc_target=14, backbone=seed % 3 != 0)
            cyc = shortest_cycle(d)
            lengths = [len(c) for c in brute_cycles(d, d.n)]
            if not lengths:
                assert cyc is None and girth(d) is INFINITE
                continue
            assert len(cyc) == min(lengths) == girth(d)
            assert len(set(cyc)) == len(cyc)
            assert all(d.has_arc(u, w) for u, w in zip(cyc, cyc[1:] + cyc[:1]))

    def test_ties_go_to_the_smallest_root(self):
        # two triangles, the later one through vertex 0
        d = Digraph(6, [(3, 4), (4, 5), (5, 3), (1, 2), (2, 0), (0, 1)])
        assert shortest_cycle(d) == [0, 1, 2]

    def test_digon_and_parallel_arcs(self):
        assert shortest_cycle(Digraph(2, [(0, 1), (1, 0)])) == [0, 1]
        assert shortest_cycle(MultiDigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])) == [0, 1, 2]

    def test_view_hides_removed_vertices(self):
        d = Digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4)])
        assert _shortest_cycle(d, {0}) == [1, 2, 3]
        assert _shortest_cycle(d, {0, 2}) is None

    def test_digraph_keeps_its_answer(self):
        d = Digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4)])
        first = shortest_cycle(d)
        assert shortest_cycle(d) == first == [0, 1]
        first.append(4)
        assert shortest_cycle(d) == [0, 1]
        with pytest.raises(AttributeError):
            d._cycle = (2, 3, 1)
        assert girth(d) == 2

    def test_view_is_not_served_from_the_digraph(self):
        d = Digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4)])
        assert shortest_cycle(d) == [0, 1]
        assert _shortest_cycle(d, {0}) == [1, 2, 3]
        assert shortest_cycle(d) == [0, 1]

    def test_matches_the_unpruned_search(self):
        for d, removed in seeded_views(2400, 1):
            assert _shortest_cycle(d, removed) == reference_shortest_cycle(d, removed)
        for d in seeded_digraphs(600, 2):
            assert shortest_cycle(d) == reference_shortest_cycle(d)
        for seed in range(10):
            d = random_orgraph(60, 4, 3 + seed % 3, seed=seed, arc_target=110)
            removed = set(range(0, 60, 7 + seed))
            assert _shortest_cycle(d, removed) == reference_shortest_cycle(d, removed)
        # at size, root ids run far ahead of the marks earlier roots left
        rng = random.Random(12)
        for n, deg, g in ((100, 3, 3), (150, 4, 4), (200, 3, 5), (300, 4, 6), (250, 4, 3), (120, 3, 6)):
            d = random_orgraph(n, deg, g, seed=n + g, arc_target=n * deg // 2)
            for size in (0, n // 20, n // 10, n // 4):
                removed = set(rng.sample(range(n), size))
                assert _shortest_cycle(d, removed) == reference_shortest_cycle(d, removed)

    @pytest.mark.parametrize(
        "d, removed, want",
        [
            # root 0's one in-neighbour above it, 2, is removed
            (Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)]), {2}, [1, 3]),
            # root 0's one out-neighbour above it, 2, is removed
            (Digraph(4, [(0, 2), (2, 1), (1, 0), (1, 3), (3, 1)]), {2}, [1, 3]),
            # a digon through root 0, and root 1 whose digon partner is below it
            (Digraph(3, [(1, 0), (0, 1), (1, 2)]), (), [0, 1]),
            (Digraph(3, [(1, 0), (0, 1), (1, 2)]), {0}, None),
            (Digraph(4, [(3, 0), (1, 3), (3, 1), (0, 3)]), (), [0, 3]),
            # parallel arcs: both arcs out of root 0 enter a removed vertex,
            # and root 1's parallel arcs lead only below it
            (MultiDigraph(4, [(0, 3), (0, 3), (3, 0), (1, 2), (2, 1)]), {3}, [1, 2]),
            (MultiDigraph(3, [(1, 0), (1, 0), (0, 2), (2, 1), (2, 1)]), (), [0, 2, 1]),
        ],
    )
    def test_skipped_roots(self, d, removed, want):
        assert _shortest_cycle(d, removed) == reference_shortest_cycle(d, removed) == want

    def test_any_floor_up_to_the_girth_gives_the_same_cycle(self):
        for d, removed in seeded_views(600, 3):
            cycle = _shortest_cycle(d, removed)
            top = len(cycle) if cycle else d.n - len(removed) + 1
            for floor in range(2, top + 1):
                assert _shortest_cycle(d, removed, floor) == cycle

    def test_kept_answer_leaves_equality_alone(self):
        arcs = [(0, 1), (1, 2), (2, 0)]
        d, e = Digraph(3, arcs), Digraph(3, arcs)
        assert shortest_cycle(d) == [0, 1, 2]
        assert d == e and hash(d) == hash(e)
        assert len({d, e}) == 1


class TestEnumerateCycles:
    def test_directed_4_cycle(self):
        res = enumerate_cycles(directed_cycle(4), 4)
        assert list(res) == [(0, 1, 2, 3)]
        assert not res.truncated

    def test_matches_brute_force_small(self):
        for seed in range(15):
            d = random_orgraph(8, 5, 3, seed=seed)
            res = enumerate_cycles(d, 8)
            assert not res.truncated
            assert set(res.cycles) == brute_cycles(d, 8)

    def test_caps_and_bounds_match_brute_force(self):
        for d in seeded_digraphs(150, 4):
            for max_len in range(2, 9):
                full = enumerate_cycles(d, max_len)
                assert not full.truncated
                assert set(full.cycles) == brute_cycles(d, max_len)
                assert list(full.cycles) == sorted(set(full.cycles))
                for cap in (1, 2, 5):
                    res = enumerate_cycles(d, max_len, cap=cap)
                    assert res.cycles == full.cycles[:cap]
                    assert res.truncated == (len(full) >= cap)

    def test_kept_girth_gives_the_fresh_walk(self):
        # a digraph that keeps its shortest cycle walks nothing below it; at
        # every bound and cap the answer is a fresh digraph's, which keeps none
        acyclic = Digraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 3)])
        for d in [*seeded_digraphs(150, 4), acyclic]:
            kept = type(d)(d.n, d.arcs)
            g = girth(kept)
            bounds = set(range(2, 9)) if g is INFINITE else {*range(2, 9), g - 1, g, g + 1}
            for max_len in sorted(bounds):
                assert list(_cycle_walk(kept, max_len)) == list(_cycle_walk(d, max_len))
                for cap in (1, 2, 5):
                    res, want = enumerate_cycles(kept, max_len, cap=cap), enumerate_cycles(d, max_len, cap=cap)
                    assert (res.cycles, res.truncated) == (want.cycles, want.truncated)
            assert getattr(d, "_cycle", None) is None

    def test_walk_trusts_the_kept_cycle(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)])
        assert enumerate_cycles(d, 3).cycles == ((0, 1, 2), (2, 3))
        object.__setattr__(d, "_cycle", (0, 1, 2))  # not the real girth, 2
        assert enumerate_cycles(d, 2).cycles == ()
        assert enumerate_cycles(d, 3).cycles == ((0, 1, 2), (2, 3))
        object.__setattr__(d, "_cycle", ())
        assert enumerate_cycles(d, 3).cycles == ()

    def test_parallel_arcs_give_one_cycle(self):
        triangle = MultiDigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        assert enumerate_cycles(triangle, 3).cycles == ((0, 1, 2),)
        digon = MultiDigraph(2, [(0, 1), (1, 0), (1, 0)])
        assert enumerate_cycles(digon, 3).cycles == ((0, 1),)

    def test_walk_ids_are_the_checkers(self):
        # the solver reads arc ids off its own walk; the checker recomputes
        # them from the vertex cycle, taking the lowest of parallel arcs
        for d in [*seeded_digraphs(300, 6), *multi_corpus()]:
            walk = list(_cycle_walk(d, d.n))
            index = arc_index(d)
            for cycle, ids in walk:
                assert ids == closed_cycle_arcs(index, cycle)
            assert len({cycle for cycle, _ in walk}) == len(walk)

    def test_deterministic_lex_order(self):
        d = gadget_dg(8)
        res = enumerate_cycles(d, 12)
        assert list(res.cycles) == sorted(res.cycles)

    def test_cap_reports_truncation(self):
        d = gadget_h5()
        res = enumerate_cycles(d, 10, cap=3)
        assert res.truncated and len(res.cycles) == 3

    def test_every_h5_matching_pair_shares_a_4_cycle(self):
        d = gadget_h5()
        cycles = enumerate_cycles(d, 4).cycles
        matching = [(i, 5 + i) for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = matching[i], matching[j]
                assert any(
                    _arc_on_cycle(a, c) and _arc_on_cycle(b, c) for c in cycles
                )

    def test_cycle_longer_than_the_recursion_limit(self):
        res = enumerate_cycles(directed_cycle(1100), 1100)
        assert list(res) == [tuple(range(1100))]
        assert not res.truncated

    def test_high_girth_graph_has_no_short_cycles(self):
        d = random_orgraph(20, 3, 5, seed=7)
        assert len(enumerate_cycles(d, 4).cycles) == 0


def _arc_on_cycle(arc, cycle):
    k = len(cycle)
    return any((cycle[i], cycle[(i + 1) % k]) == arc for i in range(k))


class TestEulerianOrient:
    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        d = eulerian_orient(g)
        assert sorted(tuple(sorted(a)) for a in d.arcs) == sorted(g.edges)
        assert all(d.out_degree(v) == d.in_degree(v) == 1 for v in range(3))

    def test_4_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d = eulerian_orient(g)
        assert all(d.out_degree(v) == d.in_degree(v) == 1 for v in range(4))

    def test_paley_13_halves_degree(self):
        d = eulerian_orient(paley_graph(13))
        assert all(d.out_degree(v) == d.in_degree(v) == 3 for v in range(13))
        assert not d.has_digon()

    def test_rejects_odd_degree(self):
        with pytest.raises(GraphError):
            eulerian_orient(Graph(2, [(0, 1)]))

    def test_random_even_graphs(self):
        import random

        rng = random.Random(3)
        for trial in range(10):
            n = 8
            # union of two random cycles gives even degrees after dedup retries
            while True:
                p1 = list(range(n))
                p2 = list(range(n))
                rng.shuffle(p1)
                rng.shuffle(p2)
                e1 = {tuple(sorted((p1[i], p1[(i + 1) % n]))) for i in range(n)}
                e2 = {tuple(sorted((p2[i], p2[(i + 1) % n]))) for i in range(n)}
                if not (e1 & e2):
                    break
            g = Graph(n, sorted(e1 | e2))
            d = eulerian_orient(g)
            assert all(d.out_degree(v) == d.in_degree(v) for v in range(n))
            assert sorted(tuple(sorted(a)) for a in d.arcs) == sorted(g.edges)


class TestChains:
    def test_open_chain_starts_at_a_tail_that_is_no_joint(self):
        # 1 and 4 have in- or out-degree 2; the chain 1 -> 2 -> 3 -> 4 holds
        # the lowest id, 0, in its middle
        d = Digraph(5, [(2, 3), (3, 4), (0, 1), (1, 2), (4, 0), (4, 1)])
        assert chains(d) == [(3, 0, 1), (4, 2), (5,)]

    def test_whole_cycle_starts_at_its_lowest_arc_id(self):
        # 0 -> 1 -> 2 -> 3 -> 0 with ids 3, 0, 2, 1, beside an open chain
        d = Digraph(7, [(1, 2), (3, 0), (2, 3), (0, 1), (4, 5), (5, 6)])
        assert chains(d) == [(0, 2, 1, 3), (4, 5)]

    def test_digon_through_a_joint(self):
        # 1 and 2 are joints on digons with 0, which is not one
        d = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
        assert chains(d) == [(0, 1), (2, 3)]
        assert chains(Digraph(2, [(1, 0), (0, 1)])) == [(0, 1)]

    def test_parallel_in_arc_makes_no_joint(self):
        # 1 has in-degree 2 by two parallel arcs, so the chain starts there
        d = MultiDigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)])
        assert chains(d) == [(0,), (1,), (2, 3)]

    def test_chains_partition_the_arcs_and_share_their_cycles(self):
        for d in seeded_digraphs(300, 9):
            found = chains(d)
            assert sorted(a for chain in found for a in chain) == list(range(d.m))
            assert found == sorted(found)
            joint = [d.out_degree(v) == d.in_degree(v) == 1 for v in range(d.n)]
            for chain in found:
                heads = [d.arcs[a][1] for a in chain]
                assert all(d.arcs[b][0] == v and joint[v] for v, b in zip(heads, chain[1:]))
                closed = heads[-1] == d.arcs[chain[0]][0] and all(joint[v] for v in heads)
                assert closed or not joint[heads[-1]]
                assert (closed and chain[0] == min(chain)) or not joint[d.arcs[chain[0]][0]]
                on = set(chain)
                for _, ids in _cycle_walk(d, d.n):
                    assert len(on.intersection(ids)) in (0, len(on))

    def test_longer_than_the_recursion_limit(self):
        n = 10**5
        assert chains(directed_cycle(n)) == [tuple(range(n))]
        assert chains(Digraph(n, [(i, i + 1) for i in range(n - 1)])) == [tuple(range(n - 1))]


class TestComponents:
    def test_connected_components(self):
        d = Digraph(5, [(0, 1), (2, 3)])
        assert connected_components(d) == [[0, 1], [2, 3], [4]]


class TestDegenerateInputs:
    def test_empty_and_arc_free_legal_everywhere(self):
        from fasdlab.coloring import fasd_exact
        from fasdlab.delta3 import good_g_coloring
        from fasdlab.ordering import fas_exact
        from fasdlab.triples import decompose3, verify_good_triple

        for d in (Digraph(0, []), Digraph(5, [])):
            assert girth(d) is INFINITE
            assert fasd_exact(d).value is INFINITE
            assert fas_exact(d).value == 0
            t = decompose3(d)
            assert verify_good_triple(d, t)[0]
            assert good_g_coloring(d, 5) == {}
