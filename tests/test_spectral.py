import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fasdlab.digraph import Digraph, Graph, GraphError, eulerian_orient
from fasdlab.generators import circulant_graph, paley_graph
from fasdlab.ordering import fas_exact
from fasdlab.spectral import (
    lambda_extremes,
    mixing_violations,
    orientation_fas_lower_bound,
)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_minus_matching(n):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % 2 == 0 and v == u + 1)
    ]
    return Graph(n, edges)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def circulant_spectrum(n, jumps):
    """mu_k = sum_j 2 cos(2 pi j k / n), k = 0..n-1, over distinct jumps 0 < j < n/2."""
    return [sum(2 * math.cos(2 * math.pi * j * k / n) for j in set(jumps)) for k in range(n)]


def circulant_lambda(n, jumps):
    # mu_0 = d is the only copy of d on a connected circulant
    return max(abs(mu) for mu in circulant_spectrum(n, jumps)[1:])


def assert_close(got, want, what):
    # two-sided, so an understated lam fails as well as an overstated one
    assert want - 1e-12 <= got <= want + 1e-12, (what, got, want)


class TestLambdaExtremes:
    def test_complete_k4(self):
        rep = lambda_extremes(complete_graph(4))
        assert_close(rep.lam, 1.0, "K4")
        assert_close(rep.lam_prime, 1.0, "K4")

    def test_cycles_match_closed_form(self):
        for n in (4, 5, 6, 8, 13):
            rep = lambda_extremes(cycle_graph(n))
            spec = [2 * math.cos(2 * math.pi * k / n) for k in range(n)]
            want = sorted(abs(x) for x in spec)[-2]
            assert_close(rep.lam, want, n)

    def test_paley_13_closed_form(self):
        rep = lambda_extremes(paley_graph(13))
        assert_close(rep.lam, (1 + math.sqrt(13)) / 2, "lam")
        assert_close(rep.lam_prime, (1 + math.sqrt(13)) / 2, "lam_prime")

    def test_paley_17_closed_form(self):
        rep = lambda_extremes(paley_graph(17))
        assert_close(rep.lam, (1 + math.sqrt(17)) / 2, "lam")
        assert_close(rep.lam_prime, (1 + math.sqrt(17)) / 2, "lam_prime")

    def test_matches_closed_form_spectra(self):
        # (name, graph, lam, lam_prime); the bipartite graphs drop -d for lam_prime
        cases = [
            ("K2", complete_graph(2), 1.0, 0.0),  # spectrum 1, -1
            ("K6", complete_graph(6), 1.0, 1.0),  # spectrum 5, -1
            ("K10-M", complete_minus_matching(10), 2.0, 2.0),  # spectrum 8, 0^5, -2^4
            ("C8", cycle_graph(8), 2.0, math.sqrt(2)),
            ("C(12;1,3)", circulant_graph(12, [1, 3]), 4.0, math.sqrt(3)),
        ]
        for n, jumps in ((16, [1, 2, 3]), (9, [1]), (13, [1]), (31, [1]), (101, [1])):
            lam = circulant_lambda(n, jumps)
            cases.append((f"C({n};{jumps})", circulant_graph(n, jumps), lam, lam))
        for name, g, lam, lam_prime in cases:
            rep = lambda_extremes(g)
            assert_close(rep.lam, lam, name)
            assert_close(rep.lam_prime, lam_prime, name)

    def test_bipartite_flags_and_lambda_prime(self):
        rep = lambda_extremes(cycle_graph(4))
        assert rep.bipartite
        assert_close(rep.lam, 2.0, "lam")  # -d is in the spectrum
        assert_close(rep.lam_prime, 0.0, "lam_prime")

    def test_disconnected_flag(self):
        # two disjoint triangles: the second copy of d = 2 is lambda
        rep = lambda_extremes(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
        assert rep.connected is False
        assert not rep.bipartite
        assert_close(rep.lam, 2.0, "lam")
        assert lambda_extremes(complete_graph(4)).connected is True

    def test_rejects_non_regular(self):
        with pytest.raises(GraphError):
            lambda_extremes(Graph(3, [(0, 1)]))


class Pairs:
    """An rng that draws the given sets in turn, as |S|, S, |T|, T."""

    def __init__(self, *sets):
        self.sets = iter(sets)
        self.drawn = None

    def randrange(self, lo, hi):
        self.drawn = list(next(self.sets))
        assert lo <= len(self.drawn) < hi
        return len(self.drawn)

    def sample(self, population, k):
        assert k == len(self.drawn) and set(self.drawn) <= set(population)
        return self.drawn


class Recording(random.Random):
    """A seeded rng that logs every randrange and sample call with its result."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randrange(self, *args):
        out = super().randrange(*args)
        self.calls.append(("randrange", args, out))
        return out

    def sample(self, population, k):
        out = super().sample(population, k)
        self.calls.append(("sample", (population, k), out))
        return out


def e_between(g, s, t):
    """e(S, T) as ordered pairs, an edge inside the overlap counted twice."""
    return sum((u in s and v in t) + (v in s and u in t) for u, v in g.edges)


class TestMixingCheck:
    def test_full_sets_zero_deviation(self):
        # e(V, V) = d n meets d |V| |V| / n exactly with a zero right side;
        # counting each edge once would be off by d n / 2, a violation
        for g in (complete_graph(4), paley_graph(13)):
            assert mixing_violations(g, 0.0, 1, Pairs(range(g.n), range(g.n))) == 0

    def test_empty_set(self):
        assert mixing_violations(complete_graph(4), 0.0, 1, Pairs([], [0, 1])) == 0

    def test_never_violated_on_paley(self):
        for q in (13, 17):
            g = paley_graph(q)
            assert mixing_violations(g, lambda_extremes(g).lam, 400, random.Random(q)) == 0

    def test_sampled_pairs_draw_size_then_set(self):
        """Pairs come from the rng as |S|, S, |T|, T, so seeded mixing output stays fixed."""
        rng = Recording(3)
        mixing_violations(paley_graph(13), 1.0, 5, rng)
        plain, want = random.Random(3), []
        for _ in range(2 * 5):
            k = plain.randrange(0, 14)
            want.append(("randrange", (0, 14), k))
            want.append(("sample", (range(13), k), plain.sample(range(13), k)))
        assert rng.calls == want

    def test_nonzero_counts_pinned(self):
        # measured with 3 000 samples and a fresh Random(7) per call
        cases = [
            (paley_graph(13), 1.0, 153),
            (paley_graph(17), 1.0, 87),
            (circulant_graph(12, [1, 2]), 0.0, 1851),
            (circulant_graph(12, [1, 2]), 1.0, 108),
        ]
        for g, lam, want in cases:
            assert mixing_violations(g, lam, 3000, random.Random(7)) == want, (g, lam)

    def test_errors_negative_count_first_then_non_regular(self):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            mixing_violations(path, 1.0, -1, random.Random(0))
        with pytest.raises(GraphError):
            mixing_violations(path, 1.0, 1, random.Random(0))
        assert mixing_violations(path, 1.0, 0, random.Random(0)) == 0

    def test_equal_halves_corollary(self):
        g = complete_minus_matching(10)
        lam = lambda_extremes(g).lam
        rng = random.Random(0)
        for _ in range(100):
            s = set(rng.sample(range(10), 5))
            t = set(range(10)) - s
            assert mixing_violations(g, lam, 1, Pairs(s, t)) == 0
            assert e_between(g, s, t) >= (g.regular_degree() - lam) * g.n / 4 - 1e-9


class TestOrientationBound:
    def test_k10_minus_matching_pipeline(self):
        g = complete_minus_matching(10)
        rep = lambda_extremes(g)
        assert abs(rep.lam - 2.0) < 1e-8  # spectrum of J - I - M off the top
        d = eulerian_orient(g)
        ob = orientation_fas_lower_bound(d, rep.lam)
        assert ob.bound == pytest.approx((8 - 2.0) * 10 / 8)
        assert ob.holds

    def test_directed_4_cycle(self):
        g = cycle_graph(4)
        d = eulerian_orient(g)
        lam = lambda_extremes(g).lam  # = 2 since C4 is bipartite
        ob = orientation_fas_lower_bound(d, lam)
        assert ob.fas_value == fas_exact(d).value
        assert ob.bound == pytest.approx(0.0)
        assert ob.holds
        # with the bipartite-excluded eigenvalue the bound tightens to 1 = fas
        lam_prime = lambda_extremes(g).lam_prime
        ob2 = orientation_fas_lower_bound(d, lam_prime)
        assert ob2.bound == pytest.approx(1.0)
        assert ob2.holds

    def test_rejects_odd_order(self):
        g = paley_graph(13)
        d = eulerian_orient(g)
        with pytest.raises(GraphError):
            orientation_fas_lower_bound(d, 2.3)

    def test_rejects_non_eulerian(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        with pytest.raises(GraphError):
            orientation_fas_lower_bound(d, 1.0)

    def test_bound_below_exact_on_circulants(self):
        for n in (8, 12, 16):
            g = circulant_graph(n, [1, 2])
            lam = lambda_extremes(g).lam
            d = eulerian_orient(g)
            ob = orientation_fas_lower_bound(d, lam)
            assert ob.holds

    def test_decided_exactly_when_fas_exact_answers(self):
        # two disjoint C12(1, 2): n = 24, strong components of 12; one
        # C24(1, 2): a strong component of 24, which fas_exact refuses
        half = circulant_graph(12, [1, 2]).edges
        twice = Graph(24, list(half) + [(u + 12, v + 12) for u, v in half])
        ob = orientation_fas_lower_bound(eulerian_orient(twice), lambda_extremes(twice).lam)
        assert ob.fas_value == fas_exact(eulerian_orient(twice)).value and ob.holds
        whole = circulant_graph(24, [1, 2])
        ob = orientation_fas_lower_bound(eulerian_orient(whole), lambda_extremes(whole).lam)
        assert ob.fas_value is None and ob.holds is None


def test_blas_pool_is_one_thread_unless_the_caller_sets_it():
    """The BLAS thread variables, as they read when ``import fasdlab`` first
    imports numpy: "1" by default, and a value the caller set is kept."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = (
        "import os, sys\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        f"        if name == 'numpy': print(*(os.environ.get(v) for v in {names!r}))\n"
        "sys.meta_path.insert(0, Watch())\n"
        "import fasdlab\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in names}

    def seen(**env):
        env = {**base, **env, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return proc.stdout.split()

    assert seen() == ["1", "1", "1"]
    assert seen(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
