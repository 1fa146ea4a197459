"""Vertex orderings and certified minimum feedback arc sets.

An ordering is a tuple permutation of [0, n).  Its backward arcs (head placed
before tail) always form a feedback arc set, and the minimum of bas(D, order)
over all orderings is exactly fas(D), which is what the subset dynamic program
computes.  fas(D) is the sum of fas over the strong components of D, so the
program builds one table per component, of 2^|C| entries over its own
vertices, and refuses D only when a component has more than FAS_EXACT_MAX_N
vertices.  Each table is filled in numpy, one popcount layer of vertex subsets
at a time, with g(S) = f(S) + w(C - S -> S), the least backward weight of an
order of the component C that puts S first.  Only the sets with g(S) <= U are
kept, where U is the backward weight of a greedy, sifted order of C: a prefix
P of an optimal order of S has g(P) <= g(S), so every set on an optimal chain
is kept with its exact value, and the witness orders are those of the full DP.
The table stays dense (2^|C| entries, the unkept ones at a sentinel), and a
full set that was not kept raises AssertionError.  Weighted values are exact
Fractions: each weight is read as the decimal its repr shows, and all of them
are scaled by their least common denominator to integers, never rounded, so
optimality claims never depend on float tolerance.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certcheck import backward_arc_ids, bas, check_fas_order, exact_weights  # noqa: F401 (bas: re-export)
from .digraph import BudgetError, Digraph, GraphError, strong_components

FAS_EXACT_MAX_N = 22
_FAS_BRUTE_MAX_N = 9


@dataclass(frozen=True)
class FasCertificate:
    """Exact minimum feedback arc set answer with an attaining ordering.

    ``value`` is an int for unweighted inputs and an exact Fraction for
    weighted ones.  The backward arcs of ``order`` are a minimum FAS, listed in
    ``arc_ids``.
    """

    value: object
    order: tuple
    arc_ids: tuple


def _scaled_weights(d: Digraph) -> tuple:
    """(integer weights, scale): each weight is the decimal its repr shows,
    times the least common denominator of them all, which is the scale.

    Raises GraphError when the scaled total does not fit the int64 sums of
    the DP and the brute-force oracle.
    """
    exact = exact_weights(d)
    scale = math.lcm(*(w.denominator for w in exact))
    scaled = [w.numerator * (scale // w.denominator) for w in exact]
    if sum(scaled) >= np.iinfo(np.int64).max:
        raise GraphError("the weights, scaled to integers, are too large for exact search")
    return scaled, scale


def fas_exact(d: Digraph) -> FasCertificate:
    """Minimum FAS size via the subset DP, with a witness ordering.

    f(S) = min over v in S of f(S - v) + (arcs from v into S - v): appending v
    to the placed prefix S - v makes exactly its arcs into the prefix backward.
    The arcs between strong components all go forward when the components
    are placed in topological order, so fas(D) is the sum of fas over the
    components, and the DP runs on each component alone.  The witness is the
    components' orders in ``strong_components`` order, each read off its own
    table, the lowest vertex id first on ties.  Refuses D, rather than fall
    back to a heuristic, when a component has more than FAS_EXACT_MAX_N
    vertices.
    """
    value, order = _fas_dp(d, weighted=False)
    return _certified(d, False, value, order)


def fas_weighted_exact(d: Digraph) -> FasCertificate:
    """Minimum FAS weight (exact rational) via the same subset DP."""
    if d.weights is None:
        raise ValueError("fas_weighted_exact needs a weighted digraph")
    value, order = _fas_dp(d, weighted=True)
    return _certified(d, True, value, order)


def _certified(d: Digraph, weighted: bool, value, order) -> FasCertificate:
    """The DP's answer, once ``check_fas_order`` finds that the backward arcs
    of its order weigh its value (count them, for an unweighted answer)."""
    counted = d if weighted or d.weights is None else type(d)(d.n, d.arcs)
    ok, why = check_fas_order(counted, order, value)
    if not ok:  # pragma: no cover - would witness a DP bug
        raise AssertionError(f"fas DP value {value}: {why}")
    return FasCertificate(value, tuple(order), tuple(backward_arc_ids(d, order)))


def _fas_dp(d: Digraph, weighted: bool):
    comps = strong_components(d)
    largest = max(map(len, comps), default=0)
    if largest > FAS_EXACT_MAX_N:
        raise BudgetError(f"exact search refused for a strong component of {largest} > {FAS_EXACT_MAX_N} vertices")
    w, scale = _scaled_weights(d) if weighted else ([1] * d.m, 1)
    comp_of = [0] * d.n
    local = [0] * d.n
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            comp_of[v] = c
            local[v] = i
    # in_items[c][i]: (local id of the tail, weight) per arc into the i-th
    # vertex of component c from inside c
    in_items = [[[] for _ in verts] for verts in comps]
    for a, (u, v) in enumerate(d.arcs):
        if comp_of[u] == comp_of[v]:
            in_items[comp_of[u]][local[v]].append((local[u], w[a]))
    value = 0
    order = []
    for c, (verts, items) in enumerate(zip(comps, in_items)):
        if len(verts) == 1:  # no arc inside (no loops): fas 0 and no table
            order += verts
            continue
        g = _fas_table(items, _order_bound(items))
        s = (1 << len(verts)) - 1
        # every set on an optimal chain is kept, the full set among them
        if g[s] == np.iinfo(g.dtype).max:
            raise AssertionError(f"the order bound of strong component {c} is below its fas")
        value += int(g[s])
        # walk the table down from C: the last vertex of each prefix S is the
        # lowest local id v with g(S) = g(S - v) + w(C - S -> v), as
        # _fas_table explains
        tail = []
        while s:
            top = int(g[s])
            v = next(
                v
                for v, ins in enumerate(items)
                if s >> v & 1 and int(g[s ^ 1 << v]) + sum(hw for u, hw in ins if not s >> u & 1) == top
            )
            tail.append(verts[v])
            s ^= 1 << v
        order += reversed(tail)
    return (Fraction(value, scale) if weighted else value), order


def _fas_table(in_items, bound):
    """The subset DP over one strong component C, in local vertex ids, kept to
    the prefix sets that can still beat a known order.

    ``in_items[v]`` lists (tail, weight) for the arcs into v inside C, and
    ``bound`` is U, the backward weight of some order of C.  The DP runs on
    g(S) = f(S) + w(C - S -> S), the least backward weight of an order of C
    that puts S first:

        g(S) = min over v in S of g(S - v) + w(C - S -> v),

    and g(C) = f(C) = fas(C).  g(S) - f(S) does not depend on v, so a vertex
    attains g(S) exactly when it attains f(S).  Layer j + 1 grows from the
    sets of layer j kept so far, and a set is kept when g(S) <= U.  As weights
    are nonnegative, g(S - v) <= g(S) for the v that attains g(S), so every
    set with g(S) <= U is reached from a kept set and holds its exact g.

    The orders stay those of the unbounded DP.  Let P be a prefix of an
    optimal order of S; then f(P) <= f(S) - w(S - P -> P), so
    g(P) <= f(S) + w(C - S -> P) <= g(S).  Every set on the chain that the
    reconstruction follows from C therefore has g <= fas(C) <= U and is kept,
    and a set S - v that is not kept has g(S - v) > U >= g(S), so its v
    attains nothing: the lowest id that attains g(S) is the one that attains
    f(S).  The table stays dense, 2^|C| entries; a set not kept holds
    iinfo.max.
    """
    k = len(in_items)
    # a score g(S - v) + w(C - S -> v) counts disjoint arcs of C, so it is at
    # most their total, which stays below the sentinel iinfo.max; the
    # smallest such type keeps the table and the temporaries small
    total = sum(hw for items in in_items for _, hw in items)
    dt = next(t for t in (np.int16, np.int32, np.int64) if total < np.iinfo(t).max)
    never = np.iinfo(dt).max
    # lo[m, v] and hi[m, v]: the weight of the arcs into v from the vertex set
    # m, over the low h ids and over the others
    into = np.zeros((k, k), dtype=dt)
    for v, items in enumerate(in_items):
        for u, hw in items:
            into[u, v] += hw
    h = k // 2
    lo, hi = _subset_sums(into[:h]), _subset_sums(into[h:])
    low = (1 << h) - 1
    full = (1 << k) - 1
    g = np.full(1 << k, never, dtype=dt)
    g[0] = 0
    layer = np.zeros(1, dtype=np.int32)
    # (set, vertex) pairs scored at once: at most 2^15, so the temporaries
    # stay small, and no more sets than a layer can hold, C(k, k // 2), so a
    # small table allocates no more than it scores
    rows = max(1, min(math.comb(k, k // 2), (1 << 15) // k))
    # the pairs' positions, which fit in dt, and the bit of each pair's
    # vertex, the vertex running fastest
    slots = np.arange(rows * k, dtype=dt)
    bits = np.left_shift(1, slots % k, dtype=np.int32)
    for _ in range(k):
        grown = [layer[:0]]
        for i in range(0, len(layer), rows):
            prev = layer[i : i + rows]
            rest = full ^ prev
            score = lo.take(rest & low, axis=0)
            score += hi.take(rest >> h, axis=0)
            score = score.ravel()
            score += g.take(prev).repeat(k)
            prev = prev.repeat(k)
            masks = prev | bits[: score.size]
            # a pair whose vertex is in prev already is no move, and its sum
            # may overflow
            keep = ((score <= bound) & (masks != prev)).nonzero()[0]
            masks, score = masks.take(keep), score.take(keep)
            # the sets first reached here make the next layer.  To list each
            # once, every copy writes its position into g and the copy whose
            # position g then holds is kept; g is never again before the
            # scores go in
            fresh = masks.take((g.take(masks) == never).nonzero()[0])
            pos = slots[: fresh.size]
            g[fresh] = pos
            fresh = fresh.take((g.take(fresh) == pos).nonzero()[0])
            g[fresh] = never
            grown.append(fresh)
            np.minimum.at(g, masks, score)
        layer = np.concatenate(grown)
    return g


def _subset_sums(rows):
    """t[m] = the sum of rows[b] over the bits b of m."""
    t = np.zeros((1 << len(rows), rows.shape[1]), dtype=rows.dtype)
    for b, row in enumerate(rows):
        t[1 << b : 2 << b] = t[: 1 << b] + row
    return t


def _greedy_order(in_items):
    """The greedy order of a digraph given as ``_fas_table``'s ``in_items``,
    after Eades, Lin & Smyth (IPL 1993): it repeatedly places the unplaced
    vertex of least in-weight from the other unplaced vertices, the lowest id
    on a tie.  The unplaced vertices wait in a heap of (in-weight, id); an
    entry is pushed again whenever its weight drops, and one whose vertex is
    placed or whose weight is old is stale and skipped, so the whole order
    costs O((n + m) log m), not a scan of the unplaced vertices per step.

    Returns (into, step, order).  ``into[v][u]`` is the weight of the arcs
    u -> v, and ``step[v]`` is the map ``_cheapest_slot`` takes for v: the
    weight of v's arcs to u minus that of u's arcs to v, for each neighbour u.
    """
    k = len(in_items)
    into = [{} for _ in range(k)]
    out = [{} for _ in range(k)]
    step = [{} for _ in range(k)]
    for v, items in enumerate(in_items):
        for u, hw in items:
            into[v][u] = into[v].get(u, 0) + hw
            out[u][v] = out[u].get(v, 0) + hw
            step[u][v] = step[u].get(v, 0) + hw
            step[v][u] = step[v].get(u, 0) - hw
    need = [sum(ws.values()) for ws in into]
    heap = [(w, v) for v, w in enumerate(need)]
    heapq.heapify(heap)
    placed = [False] * k
    order = []
    while heap:
        w, v = heapq.heappop(heap)
        if placed[v] or w != need[v]:
            continue
        placed[v] = True
        order.append(v)
        for u, hw in out[v].items():
            if not placed[u]:
                need[u] -= hw
                heapq.heappush(heap, (need[u], u))
    return into, step, order


def _order_bound(in_items) -> int:
    """The backward weight of a cheap order of one strong component, in the
    terms of ``_fas_table``: an upper bound on its fas, which that table
    checks rather than trusts.

    The order is ``_greedy_order``'s, sifted: each vertex in turn moves to its
    cheapest slot, in passes until a pass no longer lowers the weight.
    """
    into, step, order = _greedy_order(in_items)

    def weight():
        pos = {v: i for i, v in enumerate(order)}
        return sum(hw for v, ws in enumerate(into) for u, hw in ws.items() if pos[v] < pos[u])

    best = weight()
    while best:
        for v in range(len(order)):
            order.remove(v)
            order.insert(_cheapest_slot(order, step[v]), v)
        now = weight()
        if now == best:
            break
        best = now
    return best


def _cheapest_slot(order, step) -> int:
    """Where to insert a vertex into ``order`` so that it makes the least
    weight backward, the earliest slot on a tie.  ``step[u]`` is the weight of
    its arcs to u minus that of u's arcs to it: moving it past u makes the
    former backward and the latter forward."""
    cost = best = slot = 0
    for i, u in enumerate(order, 1):
        cost += step.get(u, 0)
        if cost < best:
            best, slot = cost, i
    return slot


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> tuple:
    """All n! orderings in lexicographic order, and the position of each vertex
    in each of them.  Built once per n and read-only, because every call of
    ``fas_brute`` at that n shares the arrays (2 n! n bytes, 6.5 MB at n = 9).
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    pos = np.empty_like(perms)
    pos[np.arange(perms.shape[0])[:, None], perms] = np.arange(n, dtype=np.int8)
    perms.setflags(write=False)
    pos.setflags(write=False)
    return perms, pos


def fas_brute(d: Digraph):
    """Independent factorial oracle: minimum bas over all n! orderings.

    Vectorized with numpy over the permutation list; shares no code with the
    DP.  Returns (value, order).  Weighted inputs are scored by exact scaled
    integers like the DP, and the value comes back as an int or Fraction.
    """
    n = d.n
    if n > _FAS_BRUTE_MAX_N:
        raise BudgetError(f"brute force refused for n={n} > {_FAS_BRUTE_MAX_N}")
    if n == 0:
        return 0, ()
    perms, pos = _permutation_table(n)
    scaled, scale = ([1] * d.m, 1) if d.weights is None else _scaled_weights(d)
    total = np.zeros(perms.shape[0], dtype=np.int64)
    for w, (u, v) in zip(scaled, d.arcs):
        total += (pos[:, v] < pos[:, u]) * w
    best = int(total.argmin())
    value = int(total[best])
    if d.weights is not None:
        value = Fraction(value, scale)
    return value, tuple(int(x) for x in perms[best])


def fas_upper_heuristic(d: Digraph) -> tuple:
    """Cheapest-slot insertion in the greedy order; deterministic.

    Returns an ordering whose bas upper-bounds fas(D).  Used where exact
    search is refused.  The vertices are taken in ``_greedy_order`` over all
    of D, and each goes in at the slot that makes the least placed weight
    backward (the earliest slot on a tie).  Costs are the exact scaled integer
    weights of the DP, and parallel arcs count each.

    The last slot makes backward exactly the arcs that the greedy order makes
    backward when it places the same vertex, so the result's bas is at most
    the greedy order's; on an acyclic D that order is topological, and the
    bas is 0.  No adjacent swap lowers the result's bas: two neighbours were
    already neighbours when the later one was inserted, and the swapped order
    puts it in the slot on the other side of the earlier one, which cost no
    less then and differs by the same arcs now.
    """
    w = [1] * d.m if d.weights is None else _scaled_weights(d)[0]
    in_items = [[] for _ in range(d.n)]
    for a, (u, v) in enumerate(d.arcs):
        in_items[v].append((u, w[a]))
    _, step, greedy = _greedy_order(in_items)
    order = []
    for v in greedy:
        order.insert(_cheapest_slot(order, step[v]), v)
    return tuple(order)
