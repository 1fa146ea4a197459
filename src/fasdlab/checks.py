"""Desk-scale verification harness: every headline claim as a runnable check.

Each check builds its own instances, runs the relevant construction or oracle,
and returns ``(claim, passed, details)`` with enough detail to audit.
``run_checks`` is the one runner: it validates the ids, times each check and
names its CheckResult by its key in the registry below, which the
``verify-paper`` CLI command and the acceptance test suite both run.  A check
that compares with an exact oracle skips an instance the oracle refuses with
BudgetError, so the oracle alone decides its reach.  Determinism comes from
explicit seeds, default 0.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .certcheck import (
    check_coloring,
    check_conflict_clique,
    check_counting_bound,
    check_fas_sixth,
    check_triple,
)
from .coloring import (
    counting_bound,
    fasd_brute,
    fasd_exact,
    good_coloring_search,
    refute_by_conflict_clique,
)
from .delta3 import fas_sixth, good_g_coloring
from .digraph import INFINITE, BudgetError, eulerian_orient, girth, is_acyclic
from .generators import (
    circulant_digraph,
    directed_cycle,
    gadget_co,
    gadget_dg,
    gadget_h3,
    gadget_h4,
    gadget_h5,
    paley_graph,
    random_orgraph,
    random_two_regular_orgraph,
)
from .ordering import bas, fas_brute, fas_exact, fas_weighted_exact
from .spectral import lambda_extremes, mixing_violations, orientation_fas_lower_bound
from .triples import decompose3

# the fixed sizes of the random checks: instances per check, sampled set
# pairs per Paley graph, and instances compared with each brute-force oracle
TRIPLES_COUNT = 500
WEIGHTED_COUNT = 200
COLORINGS_COUNT = 300
SIXTH_COUNT = 200
MIXING_SAMPLES = 10000
ORACLE_FAS_COUNT = 200
ORACLE_FASD_COUNT = 100


@dataclass
class CheckResult:
    check_id: str
    claim: str
    passed: bool
    seconds: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id:<12} {self.seconds:7.2f}s  {self.claim}"


def check_d8(seed: int) -> tuple[str, bool, dict]:
    """The three-path girth-8 gadget has minimum FAS 2 over its 15 arcs."""
    d = gadget_dg(8)
    cert = fas_exact(d)
    ok = cert.value == 2 and d.m == 15 and girth(d) == 8
    claim = "three-path girth-8 gadget: fas = 2, a = 15"
    return claim, ok, {"fas": cert.value, "arcs": d.m, "witness": list(cert.order)}


def check_h5(seed: int) -> tuple[str, bool, dict]:
    """No good 4-coloring of the oriented K5,5 gadget; the matching is a 5-clique."""
    h5 = gadget_h5()
    res = good_coloring_search(h5, 4)
    clique = refute_by_conflict_clique(h5)
    matching = {h5.arc_id(i, 5 + i) for i in range(5)}
    ok = (
        res.status == "unsat"
        and clique is not None
        and set(clique.arcs) == matching
        and check_conflict_clique(h5, 4, clique.arcs, clique.witness)[0]
    )
    claim = "matching gadget: no good 4-coloring (5 matching arcs pairwise tight)"
    clique_arcs = sorted(clique.arcs) if clique else None
    return claim, ok, {"search_status": res.status, "search_nodes": res.nodes, "clique": clique_arcs}


def check_h4_h3(seed: int) -> tuple[str, bool, dict]:
    """Split-tournament gadgets refute 6 colors at girth 6 and 9 at girth 9."""
    h4, h3 = gadget_h4(), gadget_h3()
    c4 = refute_by_conflict_clique(h4)
    c3 = refute_by_conflict_clique(h3)
    split4 = {h4.arc_id(2 * i, 2 * i + 1) for i in range(7)}
    split3 = set()
    for i in range(5):
        split3.add(h3.arc_id(3 * i, 3 * i + 1))
        split3.add(h3.arc_id(3 * i + 1, 3 * i + 2))
    ok = (
        c4 is not None
        and set(c4.arcs) == split4
        and check_conflict_clique(h4, 6, c4.arcs, c4.witness)[0]
        and c3 is not None
        and set(c3.arcs) == split3
        and check_conflict_clique(h3, 9, c3.arcs, c3.witness)[0]
    )
    claim = "split gadgets: 7-arc clique at 6 colors, 10-arc clique at 9 colors"
    return claim, ok, {
        "h4_clique": sorted(c4.arcs) if c4 else None,
        "h3_clique": sorted(c3.arcs) if c3 else None,
    }


def triples_corpus(count: int, seed: int):
    """Mixed max-degree-4 digon-free corpus, n <= 60, with 2-regular members."""
    out = []
    i = 0
    while len(out) < count:
        kind = i % 5
        s = seed * 100003 + i
        if kind == 0:
            n = 6 + (i % 55)
            out.append(random_orgraph(n, 4, 3, seed=s, arc_target=(n * 2)))
        elif kind == 1:
            n = 9 + (i % 20)
            try:
                out.append(random_two_regular_orgraph(n, seed=s))
            except BudgetError:
                pass
        elif kind == 2:
            n = 9 + 2 * (i % 9)
            k = 2 + (i % (n - 4))
            d = circulant_digraph(n, [1, k + 1])
            if not d.has_digon():
                out.append(d)
        elif kind == 3:
            n = 5 + (i % 56)
            out.append(random_orgraph(n, 4, 4, seed=s))
        else:
            n = 6 + (i % 50)
            out.append(random_orgraph(n, 3, 3, seed=s))
        i += 1
    return out[:count]


def check_triples(seed: int) -> tuple[str, bool, dict]:
    """Every max-degree-4 digon-free instance splits into three feedback arc sets."""
    failures = 0
    done = 0
    for d in triples_corpus(TRIPLES_COUNT, seed):
        triple = decompose3(d, verify=False)
        ok, _ = check_triple(d, triple)
        if not ok:
            failures += 1
        done += 1
    claim = f"{done} random max-degree-4 instances split into 3 FASs"
    return claim, failures == 0 and done >= TRIPLES_COUNT, {"instances": done, "failures": failures}


def check_weighted(seed: int) -> tuple[str, bool, dict]:
    """Minimum weighted FAS is at most a third of the weight at max degree 4."""
    violations = 0
    exact_checked = 0
    for i in range(WEIGHTED_COUNT):
        small = i % 5 == 0
        n = (6 + i % 9) if small else (17 + i % 32)
        d = random_orgraph(n, 4, 3, seed=seed * 77 + i, weighted=True, arc_target=2 * n)
        triple = decompose3(d, verify=False)
        # exact decimals of the weights, so a bound is never met by rounding
        total = d.total_weight()
        if 3 * min(bas(d, o) for o in triple.orderings) > total:
            violations += 1
        try:
            exact = fas_weighted_exact(d).value
        except BudgetError:
            continue
        exact_checked += 1
        if 3 * exact > total:
            violations += 1
    claim = f"{WEIGHTED_COUNT} weighted instances: min class and exact weighted FAS within w/3"
    return claim, violations == 0, {
        "instances": WEIGHTED_COUNT,
        "exact_checked": exact_checked,
        "violations": violations,
    }


def check_colorings(seed: int) -> tuple[str, bool, dict]:
    """Good g-colorings exist constructively for degree 3 and g in {3, 4, 5}."""
    failures = 0
    for g in (3, 4, 5):
        for i in range(COLORINGS_COUNT):
            n = 6 + (i % 40)
            d = random_orgraph(n, 3, g, seed=seed * 31 + i * 3 + g, arc_target=(3 * n) // 2)
            try:
                c = good_g_coloring(d, g, check=False)
            except Exception:
                failures += 1
                continue
            ok, _ = check_coloring(d, c, g)
            if not ok:
                failures += 1
    cycle_ok = all(fasd_exact(directed_cycle(g)).value == g for g in (3, 4, 5))
    claim = f"3x{COLORINGS_COUNT} degree-3 instances take good g-colorings; cycles hit g exactly"
    return claim, failures == 0 and cycle_ok, {
        "per_g": COLORINGS_COUNT,
        "failures": failures,
        "cycle_exact": cycle_ok,
    }


def check_sixth(seed: int) -> tuple[str, bool, dict]:
    """A sixth of the arcs suffices at degree 3 and girth 6."""
    failures = 0
    exact_checked = 0
    for i in range(SIXTH_COUNT):
        small = i % 3 == 0
        n = (8 + i % 7) if small else (22 + i % 23)
        d = random_orgraph(n, 3, 6, seed=seed * 13 + i, arc_target=(4 * n) // 3)
        fas = fas_sixth(d, check=False)
        if not check_fas_sixth(d, fas)[0]:
            failures += 1
        try:
            exact = fas_exact(d).value
        except BudgetError:
            continue
        exact_checked += 1
        if len(fas) < exact:
            failures += 1
    six = fas_exact(directed_cycle(6))
    claim = f"{SIXTH_COUNT} degree-3 girth-6 instances: FAS within a/6 (6-cycle tight)"
    return claim, failures == 0 and six.value == 1, {
        "instances": SIXTH_COUNT,
        "exact_checked": exact_checked,
        "failures": failures,
    }


def check_counting(seed: int) -> tuple[str, bool, dict]:
    """Counting bounds match the closed form; exhaustive search confirms the gadget."""
    ok = True
    bounds = {}
    for g in range(4, 17, 2):
        d = gadget_dg(g)
        cb = counting_bound(d)
        bounds[g] = cb.bound
        checked, _ = check_counting_bound(d, cb.cycles, cb.arcs, cb.bound)
        if cb.bound != g - (g // 4 - 1) or not checked:
            ok = False
    # search alone, with no refutation: no good 8-coloring, a good 7-coloring
    d8 = gadget_dg(8)
    runs = [good_coloring_search(d8, t) for t in (8, 7)]
    value = 7 if [r.status for r in runs] == ["unsat", "sat"] else None
    ok = ok and value == 7
    claim = "three-path gadget bounds match g - floor(g/4 - 1); exhaustive value = 7"
    return claim, ok, {"bounds": bounds, "d8_value": value, "d8_nodes": sum(r.nodes for r in runs)}


def check_mixing(seed: int) -> tuple[str, bool, dict]:
    """Mixing inequality holds over sampled pairs on quadratic-residue graphs."""
    violations = 0
    eig_ok = True
    for q in (13, 17):
        g = paley_graph(q)
        rep = lambda_extremes(g)
        closed = (1 + math.sqrt(q)) / 2
        if abs(rep.lam - closed) > 1e-12:
            eig_ok = False
        violations += mixing_violations(g, rep.lam, MIXING_SAMPLES, random.Random(seed * 1009 + q))
    claim = f"2x{MIXING_SAMPLES} sampled pairs satisfy the mixing bound; eigenvalues closed-form"
    return claim, violations == 0 and eig_ok, {
        "samples": 2 * MIXING_SAMPLES,
        "violations": violations,
        "eigenvalues_match": eig_ok,
    }


def check_lower_bound(seed: int) -> tuple[str, bool, dict]:
    """Eulerian-orientation FAS meets the spectral (d - lam) n / 8 bound on an even graph."""
    from .digraph import Graph

    # complete graph on 10 vertices minus a perfect matching: 8-regular, lam = 2
    n = 10
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % 2 == 0 and v == u + 1)
    ]
    g = Graph(n, edges)
    rep = lambda_extremes(g)
    d = eulerian_orient(g)
    ob = orientation_fas_lower_bound(d, rep.lam)
    claim = "even-order regular graph: exact FAS >= (d - lam) n / 8"
    return claim, ob.holds is True, {"bound": ob.bound, "fas": ob.fas_value, "lam": rep.lam}


def inequality_instances(seed: int):
    """Every desk-scale instance the harness touches, small enough for exact fas."""
    out = [
        ("cycle-3", directed_cycle(3)),
        ("cycle-5", directed_cycle(5)),
        ("cycle-6", directed_cycle(6)),
        ("cycle-8", directed_cycle(8)),
        ("dg-4", gadget_dg(4)),
        ("dg-6", gadget_dg(6)),
        ("dg-8", gadget_dg(8)),
        ("h5", gadget_h5()),
        ("h4", gadget_h4()),
        ("h3", gadget_h3()),
        ("co-3", gadget_co(3)),
        ("co-5", gadget_co(5)),
        ("paley-13-orient", eulerian_orient(paley_graph(13))),
    ]
    for i in range(20):
        out.append((f"rand-{i}", random_orgraph(5 + i % 6, 4, 3, seed=seed * 71 + i)))
    return out


def check_inequalities(seed: int) -> tuple[str, bool, dict]:
    """fasd <= girth, fas <= a / fasd, and fasd >= 2 on every processed instance."""
    violations = []
    processed = 0
    for name, d in inequality_instances(seed):
        acyclic, _ = is_acyclic(d)
        cert = fasd_exact(d)
        processed += 1
        if acyclic:
            if cert.value is not INFINITE:
                violations.append(name)
            continue
        g = girth(d)
        fas = fas_exact(d).value
        if not (2 <= cert.value <= g):
            violations.append(name)
        if fas > d.m // cert.value:
            violations.append(name)
    claim = f"{processed} instances: 2 <= fasd <= girth and fas <= a/fasd"
    return claim, not violations, {"processed": processed, "violations": violations}


def oracle_corpus_fas(seed: int, count: int):
    out = []
    i = 0
    while len(out) < count:
        n = 4 + (i % 5)
        d = random_orgraph(n, 6, 3, seed=seed * 3 + i, arc_target=n + i % 6)
        out.append(d)
        i += 1
    return out


def oracle_corpus_fasd(seed: int, count: int):
    out = []
    i = 0
    while len(out) < count:
        n = 5 + (i % 3)
        d = random_orgraph(n, 5, 3, seed=seed * 17 + i, arc_target=6 + i % 5)
        g = girth(d)
        if d.m <= 10 and (g is INFINITE or g <= 4):
            out.append(d)
        i += 1
    return out


def check_oracles(seed: int) -> tuple[str, bool, dict]:
    """Exact solvers agree with brute-force enumeration on small corpora."""
    fas_bad = 0
    for d in oracle_corpus_fas(seed, ORACLE_FAS_COUNT):
        if fas_exact(d).value != fas_brute(d)[0]:
            fas_bad += 1
    fasd_bad = 0
    for d in oracle_corpus_fasd(seed, ORACLE_FASD_COUNT):
        if fasd_exact(d).value != fasd_brute(d):
            fasd_bad += 1
    claim = f"fas dp == {ORACLE_FAS_COUNT}x factorial brute; fasd search == {ORACLE_FASD_COUNT}x coloring enumeration"
    return claim, fas_bad == 0 and fasd_bad == 0, {"fas_mismatches": fas_bad, "fasd_mismatches": fasd_bad}


CHECKS = {
    "d8": check_d8,
    "h5": check_h5,
    "h4-h3": check_h4_h3,
    "triples": check_triples,
    "weighted": check_weighted,
    "colorings": check_colorings,
    "sixth": check_sixth,
    "counting": check_counting,
    "mixing": check_mixing,
    "lower-bound": check_lower_bound,
    "inequalities": check_inequalities,
    "oracles": check_oracles,
}


def run_checks(selected=None, seed: int = 0):
    """Run the selected checks (all, in registry order, by default) in the
    order given, each timed and named by its registry key.  An unknown id
    raises ValueError before any check runs."""
    ids = list(selected or CHECKS)
    unknown = [cid for cid in ids if cid not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check id {unknown[0]!r}; known: {', '.join(CHECKS)}")
    results = []
    for cid in ids:
        t0 = time.perf_counter()
        claim, passed, details = CHECKS[cid](seed=seed)
        results.append(CheckResult(cid, claim, bool(passed), time.perf_counter() - t0, details))
    return results
