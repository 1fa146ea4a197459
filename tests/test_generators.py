import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from fasdlab import generators
from fasdlab.digraph import INFINITE, BudgetError, Digraph, GraphError, girth, is_acyclic, max_degree
from fasdlab.generators import (
    directed_cycle,
    gadget_co,
    gadget_co_prime,
    gadget_dg,
    gadget_h3,
    gadget_h4,
    gadget_h5,
    is_digon_odd_cycle,
    paley_graph,
    prime_in_progression,
    random_orgraph,
    random_two_regular_orgraph,
    rotational_tournament,
    split4_degree3,
    split_k,
)


class TestBasicFamilies:
    def test_directed_cycle_girth(self):
        assert girth(directed_cycle(3)) == 3
        assert girth(directed_cycle(2)) == 2  # digon

    def test_directed_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            directed_cycle(1)

    def test_rotational_tournament_regular(self):
        for n in (3, 5, 7):
            t = rotational_tournament(n)
            k = (n - 1) // 2
            assert all(t.out_degree(v) == t.in_degree(v) == k for v in range(n))
            assert t.m == n * (n - 1) // 2
            assert not t.has_digon()

    def test_rotational_tournament_rejects_even(self):
        with pytest.raises(GraphError):
            rotational_tournament(4)


class TestSplits:
    def test_split2_of_3_cycle_is_6_cycle(self):
        d = split_k(directed_cycle(3), 2)
        assert d.n == 6 and d.m == 6
        assert girth(d) == 6

    def test_split_multiplies_girth(self):
        for n, k in ((5, 2), (5, 3), (7, 2), (7, 3)):
            t = rotational_tournament(n)
            assert girth(split_k(t, k)) == k * girth(t)

    def test_h4_structure(self):
        h4 = gadget_h4()
        assert h4.n == 14 and h4.m == 28  # 21 tournament arcs + 7 split arcs
        assert max_degree(h4) == 4
        assert girth(h4) == 6

    def test_h3_structure(self):
        h3 = gadget_h3()
        assert h3.n == 15 and h3.m == 20  # 10 tournament arcs + 10 chain arcs
        assert max_degree(h3) == 3
        assert girth(h3) == 9

    def test_h5_structure(self):
        h5 = gadget_h5()
        assert h5.n == 10 and h5.m == 25
        assert max_degree(h5) == 5
        assert girth(h5) == 4

    def test_split4_counts_and_degree(self):
        d = rotational_tournament(7)  # 3-regular
        s = split4_degree3(d)
        assert s.m == 2 * d.m
        assert s.n == 4 * d.n
        assert max_degree(s) == 3
        assert not s.has_digon()

    def test_split4_rejects_non_3_regular(self):
        with pytest.raises(GraphError):
            split4_degree3(directed_cycle(5))


class TestDgGadget:
    def test_arc_counts(self):
        # a = 3(k-1) + 6
        assert gadget_dg(8).m == 15
        assert gadget_dg(4).m == 9
        assert gadget_dg(12).m == 21

    def test_girth_equals_g(self):
        for g in (4, 6, 8, 10, 12):
            assert girth(gadget_dg(g)) == g

    def test_max_degree_3(self):
        for g in (4, 8, 16):
            assert max_degree(gadget_dg(g)) == 3

    def test_rejects_odd(self):
        with pytest.raises(GraphError):
            gadget_dg(7)


class TestCoFamily:
    def test_co_is_detected(self):
        for length in (3, 5, 7):
            assert is_digon_odd_cycle(gadget_co(length))

    def test_non_members_rejected(self):
        assert not is_digon_odd_cycle(directed_cycle(5))
        assert not is_digon_odd_cycle(gadget_co_prime(5))

    def test_one_cycle_under_any_labels(self):
        # a digon C3 beside a digon C4 has every degree and count of a digon
        # C7, but two components
        c3 = gadget_co(3).arcs
        c4 = [(u + 3, (u + 1) % 4 + 3) for u in range(4)]
        c4 += [(v, u) for u, v in c4]
        assert not is_digon_odd_cycle(Digraph(7, list(c3) + c4))
        perm = list(range(7))
        random.Random(7).shuffle(perm)
        arcs = [(perm[u], perm[v]) for u, v in gadget_co(7).arcs]
        random.Random(8).shuffle(arcs)
        assert is_digon_odd_cycle(Digraph(7, arcs))

    def test_co_prime_structure(self):
        d = gadget_co_prime(5)
        assert d.n == 10 and d.m == 15
        assert girth(d) == 4
        # plus side: in 1 out 2; minus side: in 2 out 1
        for v in range(5):
            assert d.out_degree(2 * v) == 2 and d.in_degree(2 * v) == 1
            assert d.out_degree(2 * v + 1) == 1 and d.in_degree(2 * v + 1) == 2


class TestPaley:
    def test_paley_13_is_6_regular(self):
        g = paley_graph(13)
        assert all(g.degree(v) == 6 for v in range(13))

    def test_paley_5_is_5_cycle(self):
        g = paley_graph(5)
        # squares mod 5 are {1, 4}: the graph is the cycle 0-1-2-3-4
        assert sorted(g.edges) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_rejects_bad_modulus(self):
        with pytest.raises(GraphError):
            paley_graph(7)
        with pytest.raises(GraphError):
            paley_graph(21)  # 21 = 1 mod 4 but composite


# A verbatim copy of random_orgraph as it was before it kept adjacency
# incrementally, stopped at saturation and drew bits directly; the current
# generator, which always lays the backbone, must return the same arcs and
# weights as the reference with backbone=True for every argument tuple.
def reference_random_orgraph(
    n: int,
    max_deg: int,
    min_girth: int = 3,
    seed: int = 0,
    arc_target: int | None = None,
    backbone: bool = True,
    weighted: bool = False,
) -> Digraph:
    """Seeded random digon-free digraph with degree and girth guarantees.

    Starts (optionally) from a directed cycle backbone of length >= min_girth
    so the instance actually contains cycles, then adds random arcs, rejecting
    any that would exceed ``max_deg``, create a digon, or close a cycle
    shorter than ``min_girth``.  Deterministic for a fixed seed.  Weights, when
    requested, are drawn as exact multiples of 1/100.
    """
    if min_girth < 3:
        raise GraphError("orgraphs need min_girth >= 3")
    if max_deg < 2 and n > 0 and backbone:
        raise GraphError("max_deg < 2 cannot carry a cycle backbone")
    rng = random.Random(seed)
    arcs = []
    arcset = set()
    outd = [0] * n
    ind = [0] * n

    def add(u, v):
        arcs.append((u, v))
        arcset.add((u, v))
        outd[u] += 1
        ind[v] += 1

    if backbone and n >= min_girth:
        cyc = list(range(n))
        rng.shuffle(cyc)
        length = rng.randrange(min_girth, n + 1)
        for i in range(length):
            add(cyc[i], cyc[(i + 1) % length])

    if arc_target is None:
        arc_target = max(len(arcs), min(n * max_deg // 2, int(1.5 * n)))
    attempts = 0
    max_attempts = 200 * max(arc_target, 1) + 500
    while len(arcs) < arc_target and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in arcset or (v, u) in arcset:
            continue
        if outd[u] + ind[u] >= max_deg or outd[v] + ind[v] >= max_deg:
            continue
        if reference_dist(arcset, n, v, u, min_girth - 1) is not None:
            continue
        add(u, v)
    if backbone and n >= min_girth and not arcs:
        raise BudgetError(f"could not build any arcs for n={n}, max_deg={max_deg}")
    weights = None
    if weighted:
        weights = [rng.randrange(1, 1001) / 100 for _ in arcs]
    d = Digraph(n, arcs, weights)
    g = girth(d)
    if g is not INFINITE and g < min_girth:  # pragma: no cover - defensive
        raise AssertionError("girth postcondition violated")
    return d


def reference_dist(arcset, n, src, dst, limit):
    """BFS distance src -> dst over an arc set, None when > limit."""
    if src == dst:
        return 0
    out = {}
    for u, v in arcset:
        out.setdefault(u, []).append(v)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            if du >= limit:
                continue
            for v in out.get(u, ()):
                if v not in dist:
                    dist[v] = du + 1
                    if v == dst:
                        return du + 1
                    nxt.append(v)
        frontier = nxt
    return None


def orgraph_grid():
    """Seeded argument tuples (n, max_deg, min_girth, seed, arc_target,
    weighted): n = 1..40 and a few at 200, every degree, girth and flag."""
    flags = list(itertools.product((False, True), (False, True)))
    out = []
    for n in range(1, 41):
        for max_deg in range(2, 7):
            for min_girth in range(3, 8):
                weighted, explicit = flags[(n + 3 * max_deg + min_girth) % 4]
                target = (n * max_deg) // 2 + n % 3 if explicit else None
                out.append((n, max_deg, min_girth, len(out), target, weighted))
    out += [
        (200, 3, 4, 1, None, False),
        (200, 4, 3, 2, 400, True),
        (200, 3, 6, 3, 266, False),
        (200, 6, 7, 4, None, True),
        (200, 2, 5, 5, 200, False),
    ]
    return out


def build(generator, *args):
    try:
        d = generator(*args)
    except (BudgetError, GraphError, ValueError) as exc:
        return type(exc)
    return d.n, d.arcs, d.weights


class TestRandomOrgraph:
    def test_respects_declared_bounds(self):
        for seed in range(25):
            d = random_orgraph(20, 4, 4, seed=seed)
            assert max_degree(d) <= 4
            g = girth(d)
            assert g is INFINITE or g >= 4
            assert not d.has_digon()

    def test_deterministic_per_seed(self):
        a = random_orgraph(15, 3, 5, seed=11)
        b = random_orgraph(15, 3, 5, seed=11)
        assert a.arcs == b.arcs

    def test_backbone_gives_cycles(self):
        d = random_orgraph(12, 4, 3, seed=2)
        assert not is_acyclic(d)[0]

    def test_weighted_instances(self):
        d = random_orgraph(10, 4, 3, seed=4, weighted=True)
        assert d.weighted and all(w > 0 for w in d.weights)

    def test_two_regular_generator(self):
        for seed in range(5):
            d = random_two_regular_orgraph(9, seed=seed)
            assert all(d.out_degree(v) == d.in_degree(v) == 2 for v in range(9))
            assert not d.has_digon()

    def test_two_regular_generator_gives_up_on_four_vertices(self):
        # 8 arcs on 4 vertices cannot avoid common or opposite pairs
        with pytest.raises(BudgetError):
            random_two_regular_orgraph(4)


    def test_matches_reference_on_grid(self):
        for *args, weighted in orgraph_grid():
            got = build(random_orgraph, *args, weighted)
            assert got == build(reference_random_orgraph, *args, True, weighted), args

    def test_handoff_matches_reference_on_grid_slice(self, monkeypatch):
        # every fifth grid tuple, all drawn from numpy's MT19937: 201 tuples,
        # 100 of them weighted, about half saturating and half carrying a u
        # into the next block
        monkeypatch.setattr(generators, "_NUMPY_ATTEMPTS", 0)
        grid = orgraph_grid()[::5]
        assert any(weighted for *_, weighted in grid)
        for *args, weighted in grid:
            got = build(random_orgraph, *args, weighted)
            assert got == build(reference_random_orgraph, *args, True, weighted), args

    def test_handoff_fires_only_on_large_budgets(self):
        # the largest budgets of the benchmark's sweep (24 500 attempts) and
        # of the grid (80 500) stay on the stdlib stream; n = 3000 does not
        script = "\n".join(
            [
                "import sys",
                "from fasdlab.generators import random_orgraph",
                "random_orgraph(60, 4, 3, seed=1, arc_target=120, weighted=True)",
                "random_orgraph(45, 3, 5, seed=2, arc_target=67)",
                "random_orgraph(200, 4, 3, seed=2, arc_target=400, weighted=True)",
                "print('numpy.random' in sys.modules)",
                "random_orgraph(3000, 3, 5, seed=2, arc_target=4500)",
                "print('numpy.random' in sys.modules)",
            ]
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False", "True"]

    @staticmethod
    def saturated_draws(monkeypatch):
        """Build the saturating instance unweighted, then weighted, and return
        the 32-bit words each drew, per stream: ``getrandbits`` and numpy's
        ``random_raw``."""
        words = {False: {"stdlib": 0, "numpy": 0}, True: {"stdlib": 0, "numpy": 0}}
        weighted = False

        class Counting(random.Random):
            def getrandbits(self, k):
                words[weighted]["stdlib"] += (k + 31) // 32
                return super().getrandbits(k)

        class MT19937(np.random.MT19937):  # the state setter checks the class name
            def random_raw(self, size=None, output=True):
                words[weighted]["numpy"] += size
                return super().random_raw(size, output)

        monkeypatch.setattr(generators.random, "Random", Counting)
        monkeypatch.setattr(np.random, "MT19937", MT19937)
        # the girth-7 backbone leaves at most one vertex below degree 2
        budget = 200 * 12 + 500
        d = random_orgraph(8, 2, 7, seed=3, arc_target=12)
        assert sum(words[False].values()) < budget // 20
        weighted = True
        w = random_orgraph(8, 2, 7, seed=3, arc_target=12, weighted=True)
        assert sum(words[True].values()) > 2 * budget
        ref = reference_random_orgraph(8, 2, 7, seed=3, arc_target=12, weighted=True)
        assert w.arcs == d.arcs == ref.arcs and w.weights == ref.weights
        return words, budget

    def test_saturation_stops_unweighted_draws_only(self, monkeypatch):
        words, _ = self.saturated_draws(monkeypatch)
        assert words[False]["numpy"] == words[True]["numpy"] == 0

    def test_saturation_stops_unweighted_draws_only_after_handoff(self, monkeypatch):
        monkeypatch.setattr(generators, "_NUMPY_ATTEMPTS", 0)
        words, budget = self.saturated_draws(monkeypatch)
        # both instances draw their blocks from numpy; the weighted one, every block
        assert 0 < words[False]["numpy"] and words[True]["numpy"] > 2 * budget

    def test_no_vertices_with_a_target_raises(self):
        with pytest.raises(ValueError):
            random_orgraph(0, 3, arc_target=3)

    def test_single_vertex_has_no_arcs(self):
        d = random_orgraph(1, 3, arc_target=2)
        assert d.n == 1 and d.arcs == ()


class TestMersenneTwisterHandoff:
    """random.Random and numpy's MT19937 are the same generator: a state
    moved from one to the other gives the same 32-bit words, which is what
    random_orgraph's handoff and its weighted rewind rest on."""

    @staticmethod
    def at_position(seed, pos):
        """A random.Random whose state has ``pos`` words of its key used."""
        rng = random.Random(seed)
        rng.getrandbits(32 * 624)  # one full twist: pos is 624 again
        if pos == 0:  # never reached by drawing, but a state setstate accepts
            key = rng.getstate()[1]
            rng.setstate((3, key[:-1] + (0,), None))
        elif pos < 624:
            rng.getrandbits(32 * pos)
        assert rng.getstate()[1][-1] == pos
        return rng

    @staticmethod
    def words(rng, k):
        return np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    @pytest.mark.parametrize("pos", [0, 1, 311, 623, 624])
    def test_same_words_both_ways(self, seed, pos):
        rng = self.at_position(seed, pos)
        key = rng.getstate()[1]
        mt = np.random.MT19937(0)
        mt.state = {"bit_generator": "MT19937", "state": {"key": key[:-1], "pos": key[-1]}}
        single = random.Random()
        single.setstate(rng.getstate())
        k = 1500  # crosses two twists
        block = self.words(rng, k)
        assert block.tolist() == [single.getrandbits(32) for _ in range(k)]
        assert mt.random_raw(k).tolist() == block.tolist()
        # the rewind: numpy's state back into random.Random, mid-key
        mt.random_raw(pos + 1)
        state = mt.state["state"]
        back = random.Random()
        back.setstate((3, tuple(state["key"].tolist()) + (state["pos"],), None))
        assert self.words(back, k).tolist() == mt.random_raw(k).tolist()


def sieve_oracle(p, k, limit=2_000_000):
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    for x in range(2, limit):
        if sieve[x] and x % (2**k) == 1 and x % p == 4 % p:
            return x
    raise AssertionError("oracle found no prime")


class TestPrimeInProgression:
    def test_matches_sieve_oracle(self):
        for p, k in ((5, 2), (5, 3), (13, 2), (3, 4)):
            x = prime_in_progression(p, k)
            assert x == sieve_oracle(p, k)

    def test_congruences_hold(self):
        x = prime_in_progression(5, 2)
        assert x % 4 == 1 and x % 5 == 4

    def test_crt_residue_unique(self):
        # both congruences pin x mod 2^k * p
        x = prime_in_progression(11, 3)
        assert x % 8 == 1 and x % 11 == 4


class TestSplit4FasRelation:
    def test_feedback_sets_map_back_three_to_one(self):
        # the degree-reducing split: a FAS of the split graph maps to a FAS of
        # the original with at most triple the size, so fas(split) >= fas(D)/3
        import math

        from fasdlab.digraph import eulerian_orient, is_acyclic
        from fasdlab.ordering import backward_arc_ids, fas_exact, fas_upper_heuristic

        d = eulerian_orient(paley_graph(13))  # 3-regular orientation
        s = split4_degree3(d)
        assert s.m == 2 * d.m and max_degree(s) == 3

        order = fas_upper_heuristic(s)
        f_prime = set(backward_arc_ids(s, order))
        exact = fas_exact(d).value
        assert len(f_prime) >= math.ceil(exact / 3)

        # map the split FAS back: original arcs one-to-one, internal arcs of a
        # chain become the original arcs entering that vertex
        into = {v: [] for v in range(d.n)}
        for a, (u, v) in enumerate(d.arcs):
            into[v].append(a)
        mapped = set()
        for a in f_prime:
            u, v = s.arcs[a]
            if u // 4 == v // 4:
                mapped.update(into[u // 4])
            else:
                # original arcs appear after the 3n internal arcs, in order
                mapped.add(a - 3 * d.n)
        keep = [uv for a, uv in enumerate(d.arcs) if a not in mapped]
        from fasdlab.digraph import Digraph as DG

        assert is_acyclic(DG(d.n, keep))[0]
        assert len(mapped) <= 3 * len(f_prime)
