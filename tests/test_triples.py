import pytest

from fasdlab.digraph import Digraph, GraphError, Peel, is_acyclic
from fasdlab.generators import (
    circulant_digraph,
    directed_cycle,
    random_orgraph,
    random_two_regular_orgraph,
    rotational_tournament,
)
from fasdlab.triples import (
    _extend_antidirected,
    _find_transitive_triangle,
    _triple_transitive,
    _vtriple,
    decompose3,
    is_subordering,
    verify_good_triple,
)


# The lemma cases are private steps of decompose3 over one Peel; these run one
# step on a whole digraph.


def vtriple(d, v):
    """Good v-triple of d, which has no 2-regular component; v is unbalanced."""
    return _vtriple(Peel(d), v)


def triple_transitive(d):
    """Good triple of a connected 2-regular orgraph with a transitive triangle."""
    pl = Peel(d)
    return _triple_transitive(pl, _find_transitive_triangle(pl))


def extend(d, path, triple, pi_idx=0, variant=1):
    """Good path[0]-triple of d from a good path[-1]-triple of d - path[:-1]."""
    pl = Peel(d)
    then = [pl.delete(x) for x in path[:-1]]
    return _extend_antidirected(then, list(path), [list(o) for o in triple], pi_idx, variant)


class TestVerifyGoodTriple:
    def test_same_ordering_thrice_is_bad(self):
        d = directed_cycle(4)
        ok, arc = verify_good_triple(d, ((0, 1, 2, 3),) * 3)
        assert not ok and arc is not None

    def test_triple_on_3_cycle(self):
        d = directed_cycle(3)
        t = decompose3(d)
        ok, _ = verify_good_triple(d, t)
        assert ok

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValueError):
            verify_good_triple(directed_cycle(3), ((0, 1), (0, 1, 2), (0, 1, 2)))


class TestNonregularVTriple:
    def test_single_vertex(self):
        d = Digraph(1, [])
        assert vtriple(d, 0) == ([0], [0], [0])

    def test_source_vertex_structure(self):
        # v = 0 has no in-neighbors: triple is (v.., ..v, v..)
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        t = vtriple(d, 0)
        s1, s2, s3 = t
        assert s1[0] == 0 and s2[-1] == 0
        assert verify_good_triple(d, t)[0]

    def test_v_first_and_last_positions(self):
        for seed in range(30):
            d = random_orgraph(12, 4, 3, seed=seed)
            unbalanced = [
                v for v in range(d.n) if min(d.out_degree(v), d.in_degree(v)) <= 1
            ]
            if not unbalanced:
                continue
            v = unbalanced[0]
            t = vtriple(d, v)
            s1, s2, _ = t
            assert s1[0] == v and s2[-1] == v
            assert verify_good_triple(d, t)[0]


class TestTransitiveTriangleCase:
    def test_tournament_based_2_regular(self):
        # the rotational 5-tournament is 2-regular and has transitive triangles
        d = rotational_tournament(5)
        assert verify_good_triple(d, triple_transitive(d))[0]

    def test_circulant_with_transitive_triangle(self):
        # jumps {1, 2}: 0->1, 1->2(wait 1+1), 0->2 gives a transitive triangle
        d = circulant_digraph(7, [1, 2])
        assert verify_good_triple(d, triple_transitive(d))[0]


class TestExtendAlongAntidirected:
    def _base_instance(self):
        # path 0-1-2 with arcs 0->1 and 2->1 inside a larger graph
        arcs = [(0, 1), (2, 1), (3, 2), (2, 4), (4, 3), (3, 5), (5, 4)]
        return Digraph(6, arcs)

    def test_base_case_both_variants(self):
        d = self._base_instance()
        rest = Digraph(6, [(3, 2), (2, 4), (4, 3), (3, 5), (5, 4)])
        inner = tuple([v for v in o if v not in (0, 1)] for o in vtriple(rest, 2))
        # pi* is the inner triple's first (0) or second (1) ordering; variant
        # 1 keeps it in the result's first ordering, variant 2 in its second
        for pi_idx in (0, 1):
            for variant in (1, 2):
                res = extend(d, [0, 1, 2], inner, pi_idx, variant)
                assert verify_good_triple(d, res)[0]
                s1, s2, _ = res
                assert s1[0] == 0 and s2[-1] == 0
                assert is_subordering(inner[pi_idx], res[variant - 1])


class TestDecompose3:
    def check(self, d):
        t = decompose3(d)
        ok, arc = verify_good_triple(d, t)
        assert ok, f"arc {arc} not backward exactly once"
        classes = t.backward_classes(d)
        assert sorted(a for ids in classes for a in ids) == list(range(d.m))
        for ids in classes:
            keep = [uv for a, uv in enumerate(d.arcs) if a not in set(ids)]
            assert is_acyclic(Digraph(d.n, keep))[0]
        return t, classes

    def test_directed_3_cycle_class_sizes(self):
        _, classes = self.check(directed_cycle(3))
        assert sorted(len(c) for c in classes) == [1, 1, 1]

    def test_two_regular_triangle_free_circulant(self):
        # Z9 with jumps {1, 4} is 2-regular, digon-free, transitive-triangle-free
        self.check(circulant_digraph(9, [1, 4]))

    def test_two_regular_triangle_free_larger(self):
        for n, k in ((11, 4), (13, 5), (15, 4), (21, 8)):
            d = circulant_digraph(n, [1, k])
            has_tt = any(
                d.has_arc(u, v) and d.has_arc(v, w) and d.has_arc(u, w)
                for u in range(n)
                for v in d.out_neighbors(u)
                for w in d.out_neighbors(v)
            )
            if not has_tt and not d.has_digon():
                self.check(d)

    def test_tournaments(self):
        self.check(rotational_tournament(5))

    def test_random_two_regular(self):
        for seed in range(20):
            d = random_two_regular_orgraph(10 + (seed % 5), seed=seed)
            self.check(d)

    def test_random_instances(self):
        for seed in range(60):
            d = random_orgraph(6 + (seed % 25), 4, 3, seed=seed)
            self.check(d)

    def test_disconnected_instance(self):
        c1 = circulant_digraph(9, [1, 4])
        arcs = list(c1.arcs) + [(u + 9, v + 9) for u, v in directed_cycle(5).arcs]
        self.check(Digraph(14, arcs))

    def test_rejects_degree_5(self):
        from fasdlab.generators import gadget_h5

        with pytest.raises(GraphError):
            decompose3(gadget_h5())

    def test_rejects_digon(self):
        with pytest.raises(GraphError):
            decompose3(Digraph(2, [(0, 1), (1, 0)]))

    def test_weighted_min_class_bound(self):
        # min backward-class weight is at most w(D)/3
        for seed in range(20):
            d = random_orgraph(14, 4, 3, seed=seed, weighted=True)
            t = decompose3(d)
            weights = [sum(d.weights[a] for a in ids) for ids in t.backward_classes(d)]
            assert min(weights) <= d.total_weight() / 3 + 1e-9
