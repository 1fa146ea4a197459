"""Vertex orderings and certified minimum feedback arc sets.

An ordering is a tuple permutation of [0, n).  Its backward arcs (head placed
before tail) always form a feedback arc set, and the minimum of bas(D, order)
over all orderings is exactly fas(D), which is what the subset dynamic program
computes.  fas(D) is the sum of fas over the strong components of D, so the
program builds one table per component, of 2^|C| entries over its own
vertices, and a table of 2^n entries only when D is strongly connected; the
n <= FAS_EXACT_MAX_N cap is still on D as a whole.  Each table is filled in
numpy, one popcount layer of vertex subsets at a time.  Weighted values are
carried as exact Fractions: each weight is read as the decimal its repr shows
and scaled by 10^6 to an integer, and a weight with more than six fraction
digits is rejected, never rounded, so optimality claims never depend on float
tolerance.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certcheck import backward_arc_ids, bas, exact_weights, is_acyclic
from .digraph import BudgetError, Digraph, GraphError, strong_components

WEIGHT_SCALE = 10**6

FAS_EXACT_MAX_N = 22
_FAS_BRUTE_MAX_N = 9
_HEURISTIC_RESTARTS = 3


@dataclass(frozen=True)
class FasCertificate:
    """Exact minimum feedback arc set answer with an attaining ordering.

    ``value`` is an int for unweighted inputs and an exact Fraction for
    weighted ones.  The backward arcs of ``order`` are a minimum FAS, listed in
    ``arc_ids``.
    """

    kind: str  # "unweighted" | "weighted"
    value: object
    order: tuple
    arc_ids: tuple
    note: str = ""


def _scaled_weights(d: Digraph) -> list:
    """Weights as exact integers in units of 1/WEIGHT_SCALE.

    Each weight is the decimal its repr shows.  Raises GraphError, naming the
    arc, when that decimal is not a whole number of units, and when the total
    does not fit the int64 sums of the DP and the brute-force oracle.
    """
    scaled = []
    for a, w in enumerate(exact_weights(d)):
        q = w * WEIGHT_SCALE
        if q.denominator != 1:
            u, v = d.arcs[a]
            raise GraphError(
                f"weight {d.weights[a]!r} of arc {a} ({u},{v}) is not a multiple of "
                f"1/{WEIGHT_SCALE}; exact search does not round weights"
            )
        scaled.append(q.numerator)
    if sum(scaled) >= np.iinfo(np.int64).max:
        raise GraphError(f"total weight {float(d.total_weight())!r} is too large for exact search")
    return scaled


def fas_exact(d: Digraph) -> FasCertificate:
    """Minimum FAS size via the subset DP, with a witness ordering.

    f(S) = min over v in S of f(S - v) + (arcs from v into S - v): appending v
    to the placed prefix S - v makes exactly its arcs into the prefix backward.
    The arcs between strong components all go forward when the components
    are placed in topological order, so f(S) is the sum of f_C(S & C) over the
    components C, and the DP runs on each component alone.  Refuses
    n > FAS_EXACT_MAX_N, counted over all of D, rather than fall back to a
    heuristic.

    Ties in the reconstruction take the lowest vertex id first, and the order
    is the one a DP over all of D gives: the cost of putting v last in S splits
    into v's arcs inside its component C, which cost at least
    f_C(S & C) - f_C(S & C - v), and its arcs into the rest of S, which cost at
    least 0.  So v attains f(S) exactly when both parts are at their minimum:
    v attains f_C(S & C), and its arcs into live vertices of other components
    weigh 0.
    """
    value, order = _fas_dp(d, weighted=False)
    return _certified(d, "unweighted", value, order)


def fas_weighted_exact(d: Digraph) -> FasCertificate:
    """Minimum FAS weight (exact rational) via the same subset DP."""
    if d.weights is None:
        raise ValueError("fas_weighted_exact needs a weighted digraph")
    value, order = _fas_dp(d, weighted=True)
    return _certified(d, "weighted", Fraction(value, WEIGHT_SCALE), order)


def _certified(d: Digraph, kind: str, value, order) -> FasCertificate:
    """The DP's answer, once the backward arcs of its order weigh its value."""
    ids = tuple(backward_arc_ids(d, order))
    weight = bas(d, order) if kind == "weighted" else len(ids)
    if weight != value:  # pragma: no cover - would witness a DP bug
        raise AssertionError(f"fas DP value {value}, but its order's backward arcs weigh {weight}")
    return FasCertificate(kind, value, tuple(order), ids)


def _fas_dp(d: Digraph, weighted: bool):
    n = d.n
    if n > FAS_EXACT_MAX_N:
        raise BudgetError(f"exact search refused for n={n} > {FAS_EXACT_MAX_N}")
    w = _scaled_weights(d) if weighted else [1] * d.m
    comps = strong_components(d)
    comp_of = [0] * n
    local = [0] * n
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            comp_of[v] = c
            local[v] = i
    # out_items[c][i]: (bit of the head, weight) per arc of the i-th vertex of
    # component c that stays inside c; cross[v]: the heads, as a mask over all
    # of D, of v's arcs of positive weight into other components
    out_items = [[[] for _ in verts] for verts in comps]
    cross = [0] * n
    for a, (u, v) in enumerate(d.arcs):
        if comp_of[u] == comp_of[v]:
            out_items[comp_of[u]][local[u]].append((1 << local[v], w[a]))
        elif w[a]:
            cross[u] |= 1 << v
    tables = [_fas_table(items) for items in out_items]

    # the last vertex of each prefix is the lowest id that attains its f,
    # read off the component tables as fas_exact explains
    live = [(1 << len(verts)) - 1 for verts in comps]
    alive = (1 << n) - 1

    def attains(v):
        if not alive >> v & 1 or cross[v] & alive:
            return False
        c = comp_of[v]
        s = live[c] ^ 1 << local[v]
        return int(tables[c][s]) + sum(hw for hbit, hw in out_items[c][local[v]] if hbit & s) == tables[c][live[c]]

    order = []
    for _ in range(n):
        v = next(filter(attains, range(n)))
        order.append(v)
        alive ^= 1 << v
        live[comp_of[v]] ^= 1 << local[v]
    order.reverse()
    return sum(int(f[-1]) for f in tables), order


def _fas_table(out_items):
    """The subset DP over one strong component, in local vertex ids.

    ``out_items[v]`` lists (bit of the head, weight) for the arcs of v inside
    the component.  Entry S of the result is f(S), the least weight of the arcs
    made backward by an ordering of the vertex set S.
    """
    k = len(out_items)
    outmask = [0] * k
    for v, items in enumerate(out_items):
        for hbit, _ in items:
            outmask[v] |= hbit
    w = [hw for items in out_items for _, hw in items]
    # a popcount of the heads counts parallel arcs once and each arc as 1, so
    # only simple arcs of weight 1 take it; the rest are added one by one
    popcount = set(w) <= {1} and sum(m.bit_count() for m in outmask) == len(w)
    # iinfo.max marks a set not scored yet, so it must exceed every cost,
    # and no cost exceeds the component's total weight
    dt = np.int32 if sum(w) < np.iinfo(np.int32).max else np.int64
    # f[S] is the least cost of placing the vertex set S first; layer j holds
    # the sets of pc[S] = j vertices
    size = 1 << k
    pc = np.zeros(size, dtype=np.uint8)
    for b in range(k):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    f = np.full(size, np.iinfo(dt).max, dtype=dt)
    f[0] = 0
    for j in range(1, k + 1):
        # the (j-1)-subsets of k-1 vertices; moving the bits >= v of each up
        # by one gives the sets S - v, and setting bit v the sets S of layer
        # j that contain v
        rest = np.flatnonzero(pc[: size >> 1] == j - 1)
        for v in range(k):
            bit = 1 << v
            prev = rest & -bit
            prev += rest
            masks = prev | bit
            score = f[prev]
            if popcount:
                score += pc[masks & outmask[v]]
            else:
                for hbit, hw in out_items[v]:
                    np.add(score, hw, out=score, where=(masks & hbit) != 0)
            np.minimum.at(f, masks, score)
    return f


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
    scaled = [1] * d.m if d.weights is None else _scaled_weights(d)
    total = np.zeros(perms.shape[0], dtype=np.int64)
    for w, (u, v) in zip(scaled, d.arcs):
        total += (pos[:, v] < pos[:, u]) * w
    best = int(total.argmin())
    value = int(total[best])
    if d.weights is not None:
        value = Fraction(value, WEIGHT_SCALE)
    return value, tuple(int(x) for x in perms[best])


def fas_upper_heuristic(d: Digraph, seed: int = 0) -> tuple:
    """Best of seeded cheapest-slot insertions; deterministic per seed.

    Returns an ordering whose bas upper-bounds fas(D).  Used where exact
    search is refused.  Each restart inserts the vertices in a shuffled order,
    each at the slot that makes the fewest placed arcs backward (the earliest
    slot on a tie).  Costs are the exact scaled integer weights of the DP, so
    a weight with more than six fraction digits raises GraphError here too,
    and parallel arcs count each.  No adjacent swap lowers the result's bas:
    two neighbours were already neighbours when the later one was inserted,
    and the swapped order puts it in the slot on the other side of the
    earlier one, which cost no less then and differs by the same arcs now.
    """
    acyclic, topo = is_acyclic(d)
    if acyclic:
        return tuple(topo)
    rng = random.Random(seed)
    w = [1] * d.m if d.weights is None else _scaled_weights(d)

    best_order = None
    best_val = None
    for _ in range(_HEURISTIC_RESTARTS):
        verts = list(range(d.n))
        rng.shuffle(verts)
        order = []
        placed = set()
        for v in verts:
            # costs relative to slot 0, which puts v first: moving v past u
            # makes the arcs v -> u backward and the arcs u -> v forward
            step = {}
            for u, a in d.out_arcs(v):
                if u in placed:
                    step[u] = step.get(u, 0) + w[a]
            for u, a in d.in_arcs(v):
                if u in placed:
                    step[u] = step.get(u, 0) - w[a]
            cost = 0
            costs = [cost]
            for u in order:
                cost += step.get(u, 0)
                costs.append(cost)
            slot = min(range(len(costs)), key=lambda i: (costs[i], i))
            order.insert(slot, v)
            placed.add(v)
        val = bas(d, order)
        if best_val is None or val < best_val:
            best_val = val
            best_order = tuple(order)
    return best_order
