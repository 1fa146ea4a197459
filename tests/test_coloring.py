import random

import pytest

from fasdlab import coloring
from fasdlab.certcheck import (
    arc_index,
    check_coloring,
    check_conflict_clique,
    check_counting_bound,
    closed_cycle_arcs,
)
from fasdlab.checks import oracle_corpus_fasd
from fasdlab.coloring import (
    EXHAUSTED,
    ConflictClique,
    CountingBound,
    _pk_repair,
    counting_bound,
    fasd_brute,
    fasd_exact,
    good_coloring_search,
    refute_by_conflict_clique,
    verify_good_coloring,
)
from fasdlab.delta3 import good_g_coloring
from fasdlab.digraph import (
    INFINITE,
    BudgetError,
    Digraph,
    enumerate_cycles,
    girth,
    is_acyclic,
    shortest_cycle,
)
from fasdlab.generators import (
    circulant_digraph,
    directed_cycle,
    gadget_co,
    gadget_dg,
    gadget_h3,
    gadget_h4,
    gadget_h5,
    random_orgraph,
    rotational_tournament,
    split_k,
)
from fasdlab.ordering import fas_exact
from test_golden import fasd_corpus


def reference_verify(d, coloring, t):
    """verify_good_coloring's verdict from a Digraph built per color."""
    for c in range(1, t + 1):
        rest = Digraph(d.n, [uv for a, uv in enumerate(d.arcs) if coloring[a] != c])
        if not is_acyclic(rest)[0]:
            return False, (c, tuple(shortest_cycle(rest)))
    return True, None


class TestVerifyGoodColoring:
    def test_matches_the_per_color_digraph_check(self):
        rng = random.Random(4)
        for i in range(90):
            g = 3 + i % 3
            n = rng.randrange(10, 80)
            d = random_orgraph(n, 3, g, seed=i, arc_target=(3 * n) // 2)
            good = good_g_coloring(d, g)
            assert verify_good_coloring(d, good, g) == reference_verify(d, good, g) == (True, None)
            for a in rng.sample(range(d.m), min(d.m, 5)):
                bad = dict(good)
                bad[a] = rng.choice([c for c in range(1, g + 1) if c != good[a]])
                assert verify_good_coloring(d, bad, g) == reference_verify(d, bad, g)
        for _ in range(300):
            n = rng.randrange(2, 9)
            d = Digraph(n, list(dict.fromkeys(tuple(rng.sample(range(n), 2)) for _ in range(2 * n))))
            t = rng.randrange(2, 5)
            coloring = {a: rng.randrange(1, t + 1) for a in range(d.m)}
            assert verify_good_coloring(d, coloring, t) == reference_verify(d, coloring, t)

    def test_rainbow_cycle_good(self):
        d = directed_cycle(5)
        ok, _ = verify_good_coloring(d, {a: a + 1 for a in range(5)}, 5)
        assert ok

    def test_duplicate_color_on_tight_cycle_bad(self):
        d = directed_cycle(5)
        coloring = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}
        ok, info = verify_good_coloring(d, coloring, 5)
        assert not ok
        color, cycle = info
        assert color == 5 and len(cycle) == 5

    def test_failure_witness_is_a_shortest_avoiding_cycle(self):
        # a 5-cycle listed before a 3-cycle through the same arc 0 -> 1; the
        # only color-2 arc (2, 3) lies on neither
        arcs = [(0, 1), (1, 3), (3, 4), (4, 5), (5, 0), (1, 2), (2, 0), (2, 3)]
        d = Digraph(6, arcs)
        coloring = {a: 1 for a in range(d.m)}
        coloring[7] = 2
        ok, (color, cycle) = verify_good_coloring(d, coloring, 2)
        assert not ok and color == 2
        assert cycle == (0, 1, 2)

    def test_partial_coloring_rejected(self):
        with pytest.raises(ValueError):
            verify_good_coloring(directed_cycle(3), {0: 1}, 3)

    def test_out_of_range_color_rejected(self):
        with pytest.raises(ValueError):
            verify_good_coloring(directed_cycle(3), {0: 1, 1: 2, 2: 4}, 3)


class TestPKOrder:
    def test_matches_full_recompute(self):
        # one remainder of a shared colored adjacency: color 1 arcs, color 2 skipped
        rng = random.Random(0)
        for trial in range(30):
            n = 8
            pos = list(range(n))
            out = [{} for _ in range(n)]
            inn = [{} for _ in range(n)]
            arcs = set()
            for _ in range(40):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in arcs:
                    continue
                # oracle: does adding (u, v) keep the arc set acyclic?
                candidate = arcs | {(u, v)}
                ok_oracle = is_acyclic(Digraph(n, sorted(candidate)))[0]
                ok_pk = pos[u] < pos[v] or _pk_repair(pos, out, inn, 2, u, v)
                assert ok_pk == ok_oracle
                if ok_pk:
                    arcs.add((u, v))
                    out[u][v] = inn[v][u] = 1
                    # the maintained order must topologically sort the arcs
                    assert all(pos[a] < pos[b] for a, b in arcs)
                else:
                    # it closes a cycle in color 1 only; the repair must not see it
                    out[u][v] = inn[v][u] = 2
            # removals keep the order valid
            while arcs:
                u, v = arcs.pop()
                del out[u][v], inn[v][u]
                assert all(pos[a] < pos[b] for a, b in arcs)


class TestGoodColoringSearch:
    def test_directed_5_cycle_t5(self):
        res = good_coloring_search(directed_cycle(5), 5)
        assert res.sat
        ok, _ = verify_good_coloring(directed_cycle(5), res.coloring, 5)
        assert ok

    def test_h5_t4_unsat(self):
        res = good_coloring_search(gadget_h5(), 4)
        assert res.status == "unsat"

    def test_d8_t8_unsat(self):
        res = good_coloring_search(gadget_dg(8), 8)
        assert res.status == "unsat"

    def test_budget_exceeded_distinguished(self):
        res = good_coloring_search(gadget_h4(), 5, node_budget=3)
        assert res.status == "budget"

    def test_negative_budget_rejected(self):
        acyclic = Digraph(2, [(0, 1)])
        for d in (directed_cycle(3), acyclic):
            with pytest.raises(ValueError, match="node_budget"):
                good_coloring_search(d, 3, node_budget=-1)
            with pytest.raises(ValueError, match="node_budget"):
                fasd_exact(d, node_budget=-1)

    def test_t_above_girth_unsat(self):
        assert good_coloring_search(directed_cycle(4), 5).status == "unsat"

    def test_acyclic_always_sat(self):
        d = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert good_coloring_search(d, 3).sat

    def test_search_deeper_than_the_recursion_limit(self):
        # one search level per arc: 1500 arcs of 500 disjoint directed triangles
        arcs = [(3 * k + i, 3 * k + (i + 1) % 3) for k in range(500) for i in range(3)]
        d = Digraph(1500, arcs)
        res = good_coloring_search(d, 3)
        assert res.sat and res.nodes == 1500
        assert verify_good_coloring(d, res.coloring, 3)[0]


class TestFasdExact:
    def test_directed_cycles_hit_girth(self):
        for n in (3, 5, 7):
            cert = fasd_exact(directed_cycle(n))
            assert cert.value == n
            ok, _ = verify_good_coloring(directed_cycle(n), cert.witness, n)
            assert ok
            assert cert.refutation == CountingBound((tuple(range(n)),), tuple(range(n)), n)

    def test_acyclic_infinite(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        assert fasd_exact(d).value is INFINITE

    def test_non_acyclic_at_least_2(self):
        for seed in range(10):
            d = random_orgraph(9, 4, 3, seed=seed)
            if is_acyclic(d)[0]:
                continue
            cert = fasd_exact(d)
            assert cert.value >= 2

    def test_value_at_most_girth(self):
        for seed in range(10):
            d = random_orgraph(10, 4, 3, seed=seed)
            cert = fasd_exact(d)
            if cert.value is not INFINITE:
                assert cert.value <= girth(d)

    def test_witness_classes_are_feedback_sets(self):
        d = random_orgraph(9, 4, 3, seed=3)
        cert = fasd_exact(d)
        for c in range(1, cert.value + 1):
            keep = [uv for a, uv in enumerate(d.arcs) if cert.witness[a] != c]
            assert is_acyclic(Digraph(d.n, keep))[0]

    def test_refutations_pass_the_checker(self):
        for d in fasd_corpus() + [gadget_dg(12)]:
            ref = fasd_exact(d).refutation
            if isinstance(ref, CountingBound):
                assert check_counting_bound(d, ref.cycles, ref.arcs, ref.bound) == (True, None)
            else:
                assert check_conflict_clique(d, ref.t, ref.arcs, ref.witness) == (True, None)

    @pytest.mark.parametrize("cap", (1, 2, 3))
    def test_truncated_cycle_reads_keep_the_value(self, monkeypatch, cap):
        # fewer watched cycles only prune less, and a prefix of the girth
        # cycles still gives a valid counting bound or clique
        digraphs = [gadget_dg(4), gadget_dg(6), directed_cycle(5)] + fasd_corpus()[5:]
        digraphs += [circulant_digraph(n, [1, j]) for n in range(5, 11) for j in range(2, n // 2 + 1)]
        full = [fasd_exact(d) for d in digraphs]
        monkeypatch.setattr(coloring, "TIGHT_CYCLE_CAP", cap)
        capped = [fasd_exact(d) for d in digraphs]
        for d, want, cert in zip(digraphs, full, capped):
            assert cert.value == want.value
            assert check_coloring(d, cert.witness, cert.value) == (True, None)
            ref = cert.refutation
            if isinstance(ref, CountingBound):
                assert check_counting_bound(d, ref.cycles, ref.arcs, ref.bound) == (True, None)
            elif isinstance(ref, ConflictClique):
                assert check_conflict_clique(d, ref.t, ref.arcs, ref.witness) == (True, None)
        # the cap is read at each call: the search prunes less, and h5's
        # 4-cycles are cut before they hold its clique
        assert sum(c.nodes for c in capped) > sum(c.nodes for c in full)
        assert refute_by_conflict_clique(gadget_h5()) is None

    def test_matches_brute_oracle_small(self):
        rng = random.Random(7)
        for seed in range(12):
            d = random_orgraph(6, 6, 3, seed=seed, arc_target=rng.randrange(5, 9))
            assert fasd_brute(d) == fasd_exact(d).value

    def test_node_budget_is_total_over_levels(self):
        # c15(1, 4, 6): t = 4 is refuted by 3406 nodes, and t = 3 needs 22393 more
        d = circulant_digraph(15, [1, 4, 6])
        cert = fasd_exact(d, node_budget=25798)
        assert cert.value is None
        assert (cert.lo, cert.hi) == (2, 3)
        assert cert.refutation == EXHAUSTED
        assert cert.nodes == 25799
        assert fasd_exact(d, node_budget=25799).value == 3

    def test_counting_bound_refutes_the_levels_above_it(self):
        # dg12: the bound 10 of three 12-cycles refutes t = 12 and 11, so only
        # the sat level t = 10 is searched
        d12 = gadget_dg(12)
        cert = fasd_exact(d12)
        assert (cert.value, cert.nodes) == (10, 198)
        ref = cert.refutation
        assert isinstance(ref, CountingBound) and ref.bound == 10 and len(ref.cycles) == 3
        assert check_counting_bound(d12, ref.cycles, ref.arcs, ref.bound) == (True, None)
        assert verify_good_coloring(d12, cert.witness, 10) == (True, None)

    def test_budget_stop_below_the_counting_bound(self):
        # dg18: t = 18, 17 and 16 lie above the bound 15, so the budget runs out at t = 15
        cert = fasd_exact(gadget_dg(18), node_budget=200_000)
        assert cert.value is None
        assert (cert.lo, cert.hi) == (2, 15)
        assert isinstance(cert.refutation, CountingBound) and cert.refutation.bound == 15

    def test_dg16_is_certified(self):
        # chain symmetry breaking completes dg16, and its counting bound 13
        # certifies the value from above
        d = gadget_dg(16)
        cert = fasd_exact(d)
        assert cert.value == 13 and cert.nodes <= 43_399
        assert verify_good_coloring(d, cert.witness, 13) == (True, None)
        ref = cert.refutation
        assert isinstance(ref, CountingBound) and ref.bound == 13
        assert check_counting_bound(d, ref.cycles, ref.arcs, ref.bound) == (True, None)

    def test_dg14_within_its_node_cap(self):
        d = gadget_dg(14)
        cert = fasd_exact(d)
        assert cert.value == 12 and cert.nodes <= 12_909
        assert verify_good_coloring(d, cert.witness, 12) == (True, None)

    def test_budget_stop_at_the_girth_reports_the_bound(self):
        # the bound refutes g + 1 before any search, so a stop at t = g names it
        d = circulant_digraph(17, [1, 4])
        cert = fasd_exact(d, node_budget=0)
        assert (cert.value, cert.lo, cert.hi) == (None, 2, 5)
        assert cert.refutation == counting_bound(d)
        assert cert.refutation.cycles == (enumerate_cycles(d, 5, cap=1).cycles[0],)

    def test_value_at_the_girth_is_refuted_by_one_girth_cycle(self):
        # the least girth cycle alone bounds fasd by g, and checks as a counting bound
        digraphs = fasd_corpus() + [circulant_digraph(n, [1, j]) for n in range(5, 13) for j in range(2, n // 2 + 1)]
        seen = 0
        for d in digraphs:
            g, cert = girth(d), fasd_exact(d)
            if cert.value != g:
                continue
            seen += 1
            ref = cert.refutation
            assert isinstance(ref, CountingBound) and ref.bound == g
            assert ref.cycles == (enumerate_cycles(d, g, cap=1).cycles[0],)
            assert check_counting_bound(d, ref.cycles, ref.arcs, ref.bound) == (True, None)
        assert seen >= 20

    def test_circulants_meet_girth_within_budget(self):
        # arcs on the most girth cycles go first: every two-jump circulant of
        # girth >= 4 at 13 <= n <= 18 is solved in at most 1964 nodes
        for n in range(13, 19):
            for j in range(2, n // 2 + 1):
                d = circulant_digraph(n, [1, j])
                g = girth(d)
                if g is INFINITE or g < 4:
                    continue
                cert = fasd_exact(d, node_budget=5000)
                assert cert.value == g, (n, j)
                assert verify_good_coloring(d, cert.witness, g) == (True, None)
        assert fasd_exact(circulant_digraph(17, [1, 4])).nodes <= 100

    def test_c39_many_watched_cycles(self):
        # c39(1, 4) watches thousands of cycles of length <= 15; the forward
        # check's near-sets are built per cycle, then kept to the later arcs
        d = circulant_digraph(39, [1, 4])
        cert = fasd_exact(d)
        assert (cert.value, cert.complete, cert.nodes) == (12, True, 83)
        ref = cert.refutation
        assert isinstance(ref, CountingBound) and ref.bound == 12
        assert verify_good_coloring(d, cert.witness, 12) == (True, None)

    def test_fas_fasd_inequality(self):
        # fas(D) <= a(D) / fasd(D) in integer form
        for seed in range(8):
            d = random_orgraph(9, 4, 3, seed=seed)
            if is_acyclic(d)[0]:
                continue
            cert = fasd_exact(d)
            assert fas_exact(d).value <= d.m // cert.value


class TestFasdBrute:
    @pytest.mark.parametrize(
        "d, want",
        [(directed_cycle(k), k) for k in range(2, 9)]
        + [
            (Digraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), INFINITE),
            (Digraph(0, []), INFINITE),
            (Digraph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]), 3),
            (gadget_dg(4), 4),
            (rotational_tournament(5), 3),
            (gadget_co(3), 2),
        ],
    )
    def test_known_values(self, d, want):
        assert fasd_brute(d) == want

    def test_arc_limit(self):
        assert fasd_brute(Digraph(13, [(i, i + 1) for i in range(12)])) is INFINITE
        with pytest.raises(BudgetError):
            fasd_brute(directed_cycle(13))


class TestConflictClique:
    def test_h5_matching_clique_at_t4(self):
        h5 = gadget_h5()
        clique = refute_by_conflict_clique(h5)
        assert clique is not None
        assert len(clique.arcs) == 5
        assert check_conflict_clique(h5, 4, clique.arcs, clique.witness) == (True, None)
        # the clique is exactly the oriented matching
        matching_ids = {h5.arc_id(i, 5 + i) for i in range(5)}
        assert set(clique.arcs) == matching_ids

    def test_h4_split_clique_at_t6(self):
        h4 = gadget_h4()
        clique = refute_by_conflict_clique(h4)
        assert clique is not None and len(clique.arcs) == 7
        assert check_conflict_clique(h4, 6, clique.arcs, clique.witness) == (True, None)
        split_ids = {h4.arc_id(2 * i, 2 * i + 1) for i in range(7)}
        assert set(clique.arcs) == split_ids

    def test_h3_split_clique_at_t9(self):
        h3 = gadget_h3()
        clique = refute_by_conflict_clique(h3)
        assert clique is not None and len(clique.arcs) == 10
        assert check_conflict_clique(h3, 9, clique.arcs, clique.witness) == (True, None)
        split_ids = set()
        for i in range(5):
            split_ids.add(h3.arc_id(3 * i, 3 * i + 1))
            split_ids.add(h3.arc_id(3 * i + 1, 3 * i + 2))
        assert set(clique.arcs) == split_ids

    def test_check_rejects_broken_h5_cliques(self):
        h5 = gadget_h5()
        clique = refute_by_conflict_clique(h5)
        check = lambda arcs, witness: check_conflict_clique(h5, 4, arcs, witness)
        assert check(clique.arcs[:4], clique.witness) == (False, "4 arcs are not more than 4")
        # an arc twice, even with a witness for the pair it makes with itself
        a = clique.arcs[0]
        twice = {**clique.witness, (a, a): clique.witness[(a, clique.arcs[1])]}
        assert check(clique.arcs[:4] + (a,), twice) == (False, "an arc is repeated")
        # swap the witness of one pair for a 6-cycle through both of its arcs,
        # a 4-cycle that misses the second arc, the witness shortened, reversed
        # (against the arcs) or repeating a vertex
        (a, b), cyc = min(clique.witness.items())
        assert (a, b, cyc) == (0, 1, (0, 5, 1, 6))
        index = arc_index(h5)
        cycles = [(c, set(closed_cycle_arcs(index, c))) for c in enumerate_cycles(h5, 6).cycles]
        longer = next(c for c, ids in cycles if len(c) == 6 and {a, b} <= ids)
        misses = next(c for c, ids in cycles if len(c) == 4 and a in ids and b not in ids)
        why = {
            longer: "the witness of arcs 0 and 1 has 6 arcs, not 4",
            misses: "the witness of arcs 0 and 1 misses one of them",
            cyc[:-1]: "the witness of arcs 0 and 1 has 3 arcs, not 4",
            cyc[::-1]: "the witness of arcs 0 and 1 is not a closed cycle of D",
            (0, 5, 0, 6): "the witness of arcs 0 and 1 is not a closed cycle of D",
        }
        for broken, reason in why.items():
            witness = {**clique.witness, (a, b): broken}
            assert check(clique.arcs, witness) == (False, reason)
        del witness[(a, b)]
        assert check(clique.arcs, witness) == (False, "arcs 0 and 1 have no witness")
        assert check(clique.arcs, clique.witness) == (True, None)

    def test_directed_cycle_has_none(self):
        assert refute_by_conflict_clique(directed_cycle(6)) is None

    def test_acyclic_has_none(self):
        assert refute_by_conflict_clique(Digraph(3, [(0, 1), (1, 2)])) is None

    def test_greedy_search_past_12_arcs(self):
        # every vertex of the rotational 5-tournament becomes a directed
        # 4-chain, so each cycle grows fourfold: girth 12 and a 13-arc clique
        arcs = [(4 * v + c, 4 * v + c + 1) for v in range(5) for c in range(3)]
        arcs += [(4 * u + 3, 4 * v) for u, v in rotational_tournament(5).arcs]
        d = Digraph(20, arcs)
        assert girth(d) == 12
        clique = refute_by_conflict_clique(d)
        assert clique is not None and len(clique.arcs) == 13
        assert check_conflict_clique(d, 12, clique.arcs, clique.witness) == (True, None)

    def test_every_clique_of_split_random_tournaments_refutes_its_level(self):
        # 2- and 3-way splits of 60 random tournaments on 4-8 vertices: 120
        # inputs, 29 with a clique, each passing the checker and confirmed by
        # a complete search that finds no good coloring at its level
        found = 0
        for seed in range(60):
            n = 4 + seed % 5
            rng = random.Random(seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            tournament = Digraph(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs])
            for k in (2, 3):
                d = split_k(tournament, k)
                clique = refute_by_conflict_clique(d)
                if clique is None:
                    continue
                found += 1
                assert check_conflict_clique(d, clique.t, clique.arcs, clique.witness) == (True, None)
                assert good_coloring_search(d, clique.t).status == "unsat"
        assert found == 29

    def test_no_clique_on_a_circulant_of_girth_11(self):
        # every arc of c39(1, 8) lies on girth cycles with at least 11 others,
        # so the search tries each seed before returning None
        d = circulant_digraph(39, [1, 8])
        assert girth(d) == 11
        assert refute_by_conflict_clique(d) is None
        assert fasd_exact(d).value == 11

    def test_d8_has_9_clique_at_t8(self):
        clique = refute_by_conflict_clique(gadget_dg(8))
        assert clique is not None and len(clique.arcs) == 9
        assert check_conflict_clique(gadget_dg(8), 8, clique.arcs, clique.witness) == (True, None)


class TestCountingBound:
    """The bound on the three-path gadget, the double count of result (iii)."""

    def test_closed_form_even_g(self):
        # bound = floor((3(k-1)+6)/2) for g = 2k; strictly below g from g = 8 on
        expected = {4: 4, 6: 6, 8: 7, 10: 9, 12: 10, 14: 12, 16: 13}
        for g, want in expected.items():
            cb = counting_bound(gadget_dg(g))
            assert cb.bound == want == g - (g // 4 - 1)
            if g >= 8:
                assert cb.bound < g

    def test_d8_arithmetic(self):
        cb = counting_bound(gadget_dg(8))
        assert len(cb.cycles) == 3 and len(cb.arcs) == 15 and cb.bound == 7

    def test_rejects_malformed(self):
        # one colour more, or a cycle dropped from the family, fails the check
        d = gadget_dg(8)
        cb = counting_bound(d)
        assert check_counting_bound(d, cb.cycles, cb.arcs, 8) == (False, "bound 8 is not 15 // 2")
        assert check_counting_bound(d, cb.cycles[:2], cb.arcs, 7) == (
            False,
            "the arcs are not the union of the cycles",
        )

    def test_acyclic_has_no_bound(self):
        with pytest.raises(ValueError, match="acyclic"):
            counting_bound(Digraph(3, [(0, 1), (1, 2)]))

    def test_bound_not_below_true_value(self):
        # exhaustive search at g = 4 confirms the counting bound is an upper bound
        d = gadget_dg(4)
        cert = fasd_exact(d)
        assert cert.value <= counting_bound(d).bound

    def test_gadget_output_passes_the_checker(self):
        for g in range(4, 17, 2):
            d = gadget_dg(g)
            cb = counting_bound(d)
            assert check_counting_bound(d, cb.cycles, cb.arcs, cb.bound) == (True, None)


class TestGirthCountingBound:
    def test_gadget_closed_form(self):
        # from g = 8 on the greedy finds the three cycles that pair the gadget's
        # defining paths: each path arc is on two of them, each connector on one
        for g in range(8, 21, 2):
            d = gadget_dg(g)
            cb = counting_bound(d)
            assert cb.bound == g - (g // 4 - 1)
            assert check_counting_bound(d, cb.cycles, cb.arcs, cb.bound) == (True, None)
            k = g // 2
            paths = [list(range(j * k, j * k + k)) for j in range(3)]
            pairs = [paths[i] + paths[j] for i, j in ((0, 1), (0, 2), (1, 2))]
            index = arc_index(d)
            arc_sets = lambda cycles: sorted(sorted(closed_cycle_arcs(index, c)) for c in cycles)
            assert arc_sets(cb.cycles) == arc_sets(pairs)

    def test_never_below_the_brute_oracle(self):
        for seed in range(10):
            for d in oracle_corpus_fasd(seed, 100):
                g = girth(d)
                if g is INFINITE:
                    continue
                cb = counting_bound(d)
                assert check_counting_bound(d, cb.cycles, cb.arcs, cb.bound) == (True, None)
                assert cb.bound >= fasd_brute(d)

    def test_never_below_the_exact_value(self):
        for d in fasd_corpus():
            cb = counting_bound(d)
            assert check_counting_bound(d, cb.cycles, cb.arcs, cb.bound) == (True, None)
            assert cb.bound >= fasd_exact(d).value


class TestSmallCasesUnsat:
    def test_fasd_5_4_lt_4(self):
        assert good_coloring_search(gadget_h5(), 4).status == "unsat"

    def test_h5_exact_value(self):
        cert = fasd_exact(gadget_h5())
        assert cert.value == 3
        ok, _ = verify_good_coloring(gadget_h5(), cert.witness, 3)
        assert ok


class TestGadgetDecompositionValues:
    def test_desk_scale_gadget_values(self):
        # exact values of the named gadgets, each consistent with its bound
        assert fasd_exact(gadget_h5()).value == 3  # girth 4, refuted at 4
        h4 = fasd_exact(gadget_h4(), node_budget=10**6)
        assert h4.value == 5  # girth 6, refuted at 6
        h3 = fasd_exact(gadget_h3(), node_budget=10**6)
        assert h3.value == 8  # girth 9, refuted at 9
        d8 = fasd_exact(gadget_dg(8))
        assert d8.value == 7  # meets the counting bound exactly

    def test_cycle_family_monotone_in_girth(self):
        values = [fasd_exact(directed_cycle(n)).value for n in range(3, 8)]
        assert values == [3, 4, 5, 6, 7]
