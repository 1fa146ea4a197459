"""Exact FAS decomposition number via good arc-coloring search and refutations.

A total coloring of A(D) with t colors is *good* when every directed cycle
carries all t colors, equivalently when every color class is a feedback arc
set.  The decomposition number of a non-acyclic digraph is the largest t
admitting a good t-coloring; it always lies between 2 and the directed girth.

The searcher keeps one adjacency of the assigned arcs, each labelled with its
color.  The remainder avoiding a color is every arc of another color; a good
coloring keeps each remainder acyclic, so each keeps its own topological order
with local repair on insertion, and a branch dies the moment a remainder
closes a cycle.  Short cycles add a second pruning channel: a cycle must carry
all t colors, so once it has no slack (as many unassigned arcs as colors it
misses, like a t-cycle from the start) each color it carries is dead for its
unassigned arcs.  Dead colors are never tried, and with all t colors in use a
branch also dies when a later arc would have none left (forward checking).
Both cut only subtrees without a good coloring and keep the branch order, so
the search meets the same first good coloring as backtracking without them.
Arcs are colored fail-first (Haralick & Elliott 1980): first those on the
most t-cycles, each of which needs all t colors on its t arcs, then those on
the most watched cycles.  The arcs of a chain through vertices of in- and
out-degree 1 lie on exactly the same cycles, so any permutation of their
colors is good when one is; the search keeps each chain together and colors
it in non-decreasing order (the lex-leader rule for interchangeable
variables, Crawford, Ginsberg, Luks & Roy 1996), which spares it every
reordering of a chain's colors.

Whole levels are refuted without a search in two ways.  More than t arcs that
pairwise share a t-cycle need more than t colors (a conflict clique).  And a
family of k cycles with each arc on at most two of them needs ceil(k/2) of
their arcs in every color class, so at most |union| // ceil(k/2) colors fit (a
counting bound, built greedily from the girth cycles and checked by
``certcheck.check_counting_bound``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .certcheck import check_coloring, check_conflict_clique, check_counting_bound
from .digraph import INFINITE, BudgetError, Digraph, _cycle_walk, chains, girth, shortest_cycle

DEFAULT_NODE_BUDGET = 10**8
TIGHT_CYCLE_CAP = 20000
# fasd_brute tabulates 2^m arc subsets and tries up to Bell(m) colourings,
# 4.2 M at m = 12, where a directed 12-cycle takes about 0.5 s and 70 MiB
FASD_BRUTE_MAX_M = 12


def verify_good_coloring(d: Digraph, coloring: dict, t: int):
    """Check that every color class is a feedback arc set.

    Returns (True, None) or (False, (color, cycle)) where ``cycle`` is a
    shortest directed cycle avoiding the offending color, the one thing this
    adds to ``certcheck.check_coloring``.  Partial colorings raise ValueError.
    """
    ok, c = check_coloring(d, coloring, t)
    if ok:
        return True, None
    rest = type(d)(d.n, [uv for a, uv in enumerate(d.arcs) if coloring[a] != c])
    return False, (c, tuple(shortest_cycle(rest)))


def _pk_repair(pos: list, out: list, inn: list, skip: int, u: int, v: int) -> bool:
    """Pearce-Kelly repair of a topological order before arc u -> v joins it.

    The digraph is every arc x -> y with ``out[x][y] == inn[y][x] != skip``,
    and ``pos`` orders it with ``pos[u] > pos[v]``.  Returns False, with
    ``pos`` untouched, when v reaches u; otherwise moves only the vertices
    between pos[v] and pos[u] that the new arc forces and returns True.  The
    caller records the arc itself.
    """
    ub, lb = pos[u], pos[v]
    fwd, stack, seen = [v], [v], {v}
    while stack:
        for y, c in out[stack.pop()].items():
            if c != skip and pos[y] <= ub and y not in seen:
                if y == u:
                    return False
                seen.add(y)
                stack.append(y)
                fwd.append(y)
    bwd, stack, seen = [u], [u], {u}
    while stack:
        for y, c in inn[stack.pop()].items():
            if c != skip and pos[y] >= lb and y not in seen:
                seen.add(y)
                stack.append(y)
                bwd.append(y)
    bwd.sort(key=pos.__getitem__)
    fwd.sort(key=pos.__getitem__)
    moved = bwd + fwd
    for slot, x in zip(sorted(pos[x] for x in moved), moved):
        pos[x] = slot
    return True


def _starved(near, tight: int, zero: int, carried: list) -> bool:
    """Whether an arc of ``near``, each given by the mask of its watched cycles,
    has every color dead.

    Color c is dead for an arc when a cycle through it with no slack left (in
    ``zero``) carries c (in ``carried[c - 1]``).  Only an arc on a cycle of
    ``tight``, the slack-0 cycles through the arc just colored, can have lost
    a live color, so the others are skipped.
    """
    for cycles in near:
        if cycles & tight:
            cycles &= zero
            for mask in carried:
                if not cycles & mask:
                    break
            else:
                return True
    return False


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a bounded good-coloring search."""

    status: str  # "sat" | "unsat" | "budget"
    coloring: dict | None
    nodes: int

    @property
    def sat(self) -> bool:
        return self.status == "sat"


def good_coloring_search(
    d: Digraph, t: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchOutcome:
    """Backtracking search for a good t-arc-coloring of D.

    Complete: UNSAT is reported only after exhausting the branch space.  A
    budget exhaustion is reported as its own status, never as UNSAT.  Colors
    are canonicalized to appear in first-use order, which fixes the first
    assigned arc to color 1 and removes the t! relabeling symmetry.  Arcs are
    assigned fail-first: by the number of cycles of length exactly t through
    them, which have no slack from the start, then by the number of cycles of
    length <= t + 3, both descending, then by the first arc id of their chain
    (``digraph.chains``) and their place on it.  Without a t-cycle the first
    key is 0 for every arc.  The arcs of a chain lie on the same cycles, so
    they tie on both counts and are assigned one after another, and each
    chain arc after the first takes only colors at least its predecessor's.

    Neither symmetry rule loses a good coloring.  Take any good coloring and
    walk the arcs in search order, relabeling each color at its first use;
    at a chain, put the colors on it already seen first, sorted, then the new
    ones, each taking the next label in turn.  A relabeling keeps a coloring
    good, and so does permuting colors along a chain, since every cycle
    through one chain arc runs through all of them.  The result uses colors
    in first-use order and is non-decreasing along every chain, so the
    search meets it.

    A branch is cut when some remainder digraph closes a cycle or, once all t
    colors are in use, when a later arc has every color dead on those cycles;
    dead colors are not tried.  Neither cut drops a good coloring, so the
    witness is the first one in branch order either way.  Each color tried
    counts as a node, and a negative ``node_budget`` raises ValueError.  The
    search keeps an explicit stack, so its depth is not bounded by the
    recursion limit.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if node_budget < 0:
        raise ValueError("node_budget must be >= 0")
    g = girth(d)
    if g is INFINITE:
        # every coloring of an acyclic digraph is good
        return SearchOutcome("sat", {a: 1 for a in range(d.m)}, 0)
    if g < t:
        return SearchOutcome("unsat", None, 0)
    m = d.m

    # short cycles drive the second pruning channel.  A watched cycle of
    # length L needs all t colors, so its slack, distinct colors + unassigned
    # arcs - t, must stay >= 0; it starts at L - t <= 3 and falls by one
    # exactly when an arc takes a color the cycle already carries.  slack[k]
    # is the bitmask of watched cycles with slack >= k.  near[a] lists the
    # cycle masks of the later arcs that share a watched cycle with arc a.
    watch = [ids for _, ids in islice(_cycle_walk(d, t + 3), TIGHT_CYCLE_CAP)]
    on_cycles = [0] * m
    slack = [0] * 4
    for i, ids in enumerate(watch):
        for a in ids:
            on_cycles[a] |= 1 << i
        for k in range(1, len(ids) - t + 1):
            slack[k] |= 1 << i
    _, s1, s2, s3 = slack

    # fail-first: arcs on the most t-cycles (slack 0 from the start) lead.
    # The arcs of a chain lie on the same cycles, so they tie on both keys
    # and the tie-break keeps them together, in chain order: an arc at place
    # j > 0 follows its chain predecessor, whose color is its least candidate
    place = [None] * m
    for chain in chains(d):
        for j, a in enumerate(chain):
            place[a] = (chain[0], j)
    order = sorted(
        range(m),
        key=lambda a: (-(on_cycles[a] & ~s1).bit_count(), -on_cycles[a].bit_count(), place[a]),
    )
    rank = [0] * m
    for r, a in enumerate(order):
        rank[a] = r
    near = [set() for _ in range(m)]
    for ids in watch:
        for a in ids:
            near[a].update(ids)
    near = [[on_cycles[b] for b in bs if rank[b] > rank[a]] for a, bs in enumerate(near)]
    others = [tuple(k for k in range(1, t + 1) if k != c) for c in range(t + 1)]

    # all assigned arcs once, out[u][v] = inn[v][u] = color; the remainder
    # avoiding color k keeps its own topological order pos[k]
    out = [{} for _ in range(d.n)]
    inn = [{} for _ in range(d.n)]
    pos = [list(range(d.n)) for _ in range(t + 1)]
    present = [0] * (t + 1)  # watched cycles already carrying each color
    color = [0] * m  # 0 while unassigned

    def candidates(a: int, low: int, used: int, s1: int):
        tight = on_cycles[a] & ~s1
        return [c for c in range(low, min(t, used + 1) + 1) if not tight & present[c]]

    # an explicit stack: depth i tries cands[i][tried[i]:] for arc order[i]
    cands = [candidates(order[0], 1, 0, s1)] + [None] * (m - 1)
    tried = [0] * m
    used = [0] * m
    undo = [None] * m
    nodes = 0
    i = 0
    status = "unsat"
    while True:
        if tried[i] == len(cands[i]):
            if i == 0:
                break
            i -= 1
            a = order[i]
            u, v = d.arcs[a]
            del out[u][v], inn[v][u]
            s1, s2, s3, present[color[a]] = undo[i]
            color[a] = 0
            continue
        a = order[i]
        c = cands[i][tried[i]]
        tried[i] += 1
        nodes += 1
        if nodes > node_budget:
            status = "budget"
            break
        dup = on_cycles[a] & present[c]
        zero = ~(s1 & (s2 | ~dup))  # the watched cycles left without slack
        tight = on_cycles[a] & zero
        if tight and (c == t or used[i] == t):  # an unused color is live anywhere
            carried = present[1:]
            carried[c - 1] |= on_cycles[a]
            if _starved(near[a], tight, zero, carried):
                continue  # forward check: a later arc has no live color
        u, v = d.arcs[a]
        for k in others[c]:
            p = pos[k]
            if p[u] > p[v] and not _pk_repair(p, out, inn, k, u, v):
                break  # the remainder avoiding color k would close a cycle
        else:
            undo[i] = (s1, s2, s3, present[c])
            s1, s2, s3 = s1 & (s2 | ~dup), s2 & (s3 | ~dup), s3 & ~dup
            present[c] |= on_cycles[a]
            out[u][v] = inn[v][u] = color[a] = c
            i += 1
            if i == m:
                status = "sat"
                break
            used[i] = max(used[i - 1], c)
            cands[i] = candidates(order[i], c if place[order[i]][1] else 1, used[i], s1)
            tried[i] = 0
    if status == "sat":
        coloring = {a: color[a] for a in order}
        ok, _ = check_coloring(d, coloring, t)
        if not ok:  # pragma: no cover - would witness a search bug
            raise AssertionError("search produced a bad coloring")
        return SearchOutcome("sat", coloring, nodes)
    return SearchOutcome(status, None, nodes)


def fasd_brute(d: Digraph):
    """Independent oracle: fasd(D) by enumerating canonical colourings.

    Returns INFINITE for an acyclic D, else the largest t admitting a good
    t-colouring, and raises BudgetError above FASD_BRUTE_MAX_M arcs.  Reads
    only ``d.m`` and ``d.arcs``.  A table marks which of the 2^m arc subsets
    are acyclic by sink removal on arcs: after m rounds of dropping each arc
    whose head has no live out-arc, an arc is left exactly when the subset
    has a cycle.  For t = 2, 3, ... it tries the first-use canonical
    colourings (restricted growth strings) with exactly t colours, each good
    when every colour leaves an acyclic subset, and the first t with none
    gives t - 1.  That is complete: relabelling keeps a colouring good; an
    empty class leaves the cyclic D whole, so a good colouring uses every
    colour; and merging two classes of a good colouring gives a good one (a
    superset of a feedback arc set is one), so goodness is monotone in t.
    """
    m = d.m
    if m > FASD_BRUTE_MAX_M:
        raise BudgetError(f"brute force refused for m={m} > {FASD_BRUTE_MAX_M}")
    live = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    # feeds[b, a]: arc b leaves the head of arc a
    feeds = np.array([[v == x for _, v in d.arcs] for x, _ in d.arcs], dtype=np.uint8)
    for _ in range(m):
        live &= (live @ feeds) > 0
    acyclic = ~live.any(axis=1)
    full = (1 << m) - 1
    if acyclic[full]:
        return INFINITE
    for t in range(2, m + 1):
        # the class masks of each colouring: arc 0 takes colour 0, arc j a
        # used colour or the next new one, while the arcs after j can still
        # bring in the colours missing
        cls = np.zeros((1, t), dtype=np.uint16)
        cls[0, 0] = 1
        top = np.zeros(1, dtype=np.int8)
        for j in range(1, m):
            parts, tops = [], []
            for c in range(t):
                new_top = np.maximum(top, c)
                ok = (c <= top + 1) & (new_top + m - 1 - j >= t - 1)
                part = cls[ok]
                part[:, c] |= 1 << j
                parts.append(part)
                tops.append(new_top[ok])
            cls, top = np.concatenate(parts), np.concatenate(tops)
        if not acyclic[full ^ cls].all(axis=1).any():
            return t - 1
    return m


# ---------------------------------------------------------------------------
# refutations


@dataclass(frozen=True)
class ConflictClique:
    """More than t arcs that pairwise share a cycle of length exactly t.

    On a t-cycle a good t-coloring is a bijection onto the colors, so arcs
    sharing such a cycle need distinct colors; a clique of size t+1 is
    therefore a proof that no good t-coloring exists.  ``witness`` maps each
    arc pair to a shared tight cycle.  ``certcheck.check_conflict_clique``
    checks exactly this.
    """

    t: int
    arcs: tuple
    witness: dict = field(hash=False)


@dataclass(frozen=True)
class CountingBound:
    """Cycle-family double counting: no good coloring has more than ``bound``
    colors.

    ``cycles`` is a family of k cycles of D, ``arcs`` their union U, and each
    arc of U lies on at most two members.  Every color class of a good
    coloring is a FAS, so it meets each member, and an arc covers at most two,
    so each class holds at least ceil(k/2) arcs of U.  The classes are
    disjoint, so the number of colors is at most |U| // ceil(k/2) = ``bound``.
    ``certcheck.check_counting_bound`` checks exactly this.
    """

    cycles: tuple
    arcs: tuple
    bound: int


EXHAUSTED = "exhausted"


def refute_by_conflict_clique(d: Digraph) -> ConflictClique | None:
    """Search a (t+1)-clique in the conflict graph of the t-cycles, t = girth(D).

    More than t arcs that pairwise share a t-cycle refute a good t-coloring.
    The girth is the only level worth it: below it there is no t-cycle, and
    every level above it is refuted by fasd <= girth.  Returns None on an
    acyclic digraph and when no clique is found; the latter is not a
    satisfiability proof.

    The search is one greedy pass: from each seed arc in id order, it takes
    every arc, in id order, that shares a t-cycle with each arc taken so far.
    That is enough because a miss costs only a complete search of the level:
    on 8 274 cyclic inputs (random orgraphs and orientations, two- and
    three-jump circulants, matching gadgets, split tournaments, h3-h5 and
    dg4-dg12) a search exact up to 12 arcs found 1 063 cliques and this pass
    all but 2, and the exact search took over a second on circulants with
    none.
    """
    t = girth(d)
    if t is INFINITE:
        return None
    pair_witness = {}
    neigh = {}
    for cyc, ids in islice(_cycle_walk(d, t), TIGHT_CYCLE_CAP):
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                key = (min(a, b), max(a, b))
                pair_witness.setdefault(key, cyc)
                neigh.setdefault(a, set()).add(b)
                neigh.setdefault(b, set()).add(a)
    target = t + 1
    for seed in sorted(a for a, s in neigh.items() if len(s) >= t):
        clique = [seed]
        common = set(neigh[seed])  # the arcs adjacent to every arc taken so far
        for v in sorted(neigh[seed]):
            if v in common:
                clique.append(v)
                if len(clique) == target:
                    break
                common &= neigh[v]
        if len(clique) == target:
            break
    else:
        return None
    arcs = tuple(sorted(clique))
    witness = {}
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            witness[(a, b)] = pair_witness[(a, b)]
    ok, why = check_conflict_clique(d, t, arcs, witness)
    if not ok:  # pragma: no cover - would witness a builder bug
        raise AssertionError(f"constructed clique fails its check: {why}")
    return ConflictClique(t, arcs, witness)


def counting_bound(d: Digraph) -> CountingBound:
    """The least counting bound over prefixes of a greedy family of girth
    cycles.

    The cycles of length girth(D), at most TIGHT_CYCLE_CAP of them, are taken
    in enumeration order, and a cycle joins the family when every arc on it is
    still on fewer than two members.  Each prefix of the family is itself a
    valid family, so the one with the least |union| // ceil(k/2) is returned;
    of equal ones the shortest.  The one-cycle prefix gives the girth, so the
    bound never exceeds it.  A truncated enumeration still gives a valid
    family.  Raises ValueError on an acyclic digraph.
    """
    g = girth(d)
    if g is INFINITE:
        raise ValueError("an acyclic digraph has no counting bound")
    on = [0] * d.m  # members through each arc
    family = []
    size = best = best_k = 0
    for cycle, ids in islice(_cycle_walk(d, g), TIGHT_CYCLE_CAP):
        if any(on[a] == 2 for a in ids):
            continue
        for a in ids:
            size += not on[a]
            on[a] += 1
        family.append((cycle, ids))
        bound = size // ((len(family) + 1) // 2)
        if not best_k or bound < best:
            best, best_k = bound, len(family)
    family = family[:best_k]
    arcs = sorted({a for _, ids in family for a in ids})
    return CountingBound(tuple(c for c, _ in family), tuple(arcs), best)


# ---------------------------------------------------------------------------
# the exact decomposition number


@dataclass(frozen=True)
class FasdCertificate:
    """Exact decomposition number with witness and refutation.

    ``value`` is INFINITE exactly for acyclic inputs.  Otherwise ``witness``
    is a good coloring with value colors and ``refutation`` explains why
    value + 1 fails: a CountingBound equal to value, a ConflictClique at the
    girth, or EXHAUSTED for a completed search.  When the budget runs out the
    value is None, (lo, hi) bracket the true answer and ``refutation`` is that
    of hi + 1.
    """

    value: object
    witness: dict | None
    refutation: object = None
    lo: int | None = None
    hi: int | None = None
    nodes: int = 0

    @property
    def complete(self) -> bool:
        return self.value is not None


def fasd_exact(d: Digraph, node_budget: int = DEFAULT_NODE_BUDGET) -> FasdCertificate:
    """Largest t admitting a good t-coloring, searched downward from a proven
    bound.

    First the counting bound of the girth cycles (``counting_bound``) is
    built and checked with ``certcheck.check_counting_bound``.  It refutes
    every level above it: a good coloring's classes are disjoint FASs, each
    meeting every cycle of the family with at least ceil(k/2) arcs of its
    union.  The bound is at most the girth g.

    When the bound is g, a conflict clique at t = g is sought, once.  Below
    the girth there is no t-cycle, so no clique can exist there.

    Then the search runs downward from the first level not yet refuted, and
    the level that is sat gives the value and the witness.  fasd >= 2 holds
    for every non-acyclic digraph (the backward and forward arcs of any
    ordering are both feedback arc sets), so the loop always ends with a
    witness unless the budget is hit first.  ``node_budget`` bounds the total
    search nodes over all levels: each level gets what the earlier ones left;
    a negative budget raises ValueError.
    """
    if node_budget < 0:
        raise ValueError("node_budget must be >= 0")
    g = girth(d)
    if g is INFINITE:
        return FasdCertificate(INFINITE, None)
    refutation = counting_bound(d)
    ok, why = check_counting_bound(d, refutation.cycles, refutation.arcs, refutation.bound)
    if not ok:  # pragma: no cover - would witness a builder bug
        raise AssertionError(f"counting bound fails its check: {why}")
    top = refutation.bound
    if top == g:
        clique = refute_by_conflict_clique(d)
        if clique is not None:
            refutation, top = clique, g - 1
    nodes = 0
    for t in range(top, 1, -1):
        res = good_coloring_search(d, t, node_budget=node_budget - nodes)
        nodes += res.nodes
        if res.status == "sat":
            return FasdCertificate(t, res.coloring, refutation, nodes=nodes)
        if res.status == "budget":
            return FasdCertificate(None, None, refutation, lo=2, hi=t, nodes=nodes)
        refutation = EXHAUSTED
    raise AssertionError(
        "no good 2-coloring found for a non-acyclic digraph"
    )  # pragma: no cover
