"""Vertex orderings and certified minimum feedback arc sets.

An ordering is a tuple permutation of [0, n).  Its backward arcs (head placed
before tail) always form a feedback arc set, and the minimum of bas(D, order)
over all orderings is exactly fas(D), which is what the subset dynamic program
computes.  The program runs in numpy, one popcount layer of vertex subsets at
a time.  Weighted values are carried as exact Fractions: each weight is read
as the decimal its repr shows and scaled by 10^6 to an integer, and a weight
with more than six fraction digits is rejected, never rounded, so optimality
claims never depend on float tolerance.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certcheck import backward_arc_ids, bas, exact_weights, is_acyclic
from .digraph import BudgetError, Digraph, GraphError

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
    Refuses n > FAS_EXACT_MAX_N rather than fall back to a heuristic.  Ties in the
    reconstruction take the lowest vertex id first.
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
    # iinfo.max marks a set not scored yet, so it must exceed every cost,
    # and no cost exceeds sum(w)
    dt = np.int32 if sum(w) < np.iinfo(np.int32).max else np.int64
    outmask = [0] * n
    out_items = [[] for _ in range(n)]
    for a, (u, v) in enumerate(d.arcs):
        outmask[u] |= 1 << v
        out_items[u].append((1 << v, w[a]))
    # a popcount of the heads counts parallel arcs once, so only simple
    # unweighted inputs take it; the rest add up the arcs one by one
    popcount = not weighted and len(set(d.arcs)) == d.m

    def cost(v, s):
        """Weight of the arcs from v into the vertex set s."""
        if popcount:
            return (outmask[v] & s).bit_count()
        return sum(hw for hbit, hw in out_items[v] if hbit & s)

    # f[S] is the least cost of placing the vertex set S first; layer k holds
    # the sets of pc[S] = k vertices
    size = 1 << n
    pc = np.zeros(size, dtype=np.uint8)
    for b in range(n):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    f = np.full(size, np.iinfo(dt).max, dtype=dt)
    f[0] = 0
    for k in range(1, n + 1):
        # the (k-1)-subsets of n-1 vertices; moving the bits >= v of each up
        # by one gives the sets S - v, and setting bit v the sets S of layer
        # k that contain v
        rest = np.flatnonzero(pc[: size >> 1] == k - 1)
        for v in range(n):
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
            best = f[masks]
            np.minimum(best, score, out=best)
            f[masks] = best
    # the last vertex of each prefix is the lowest id that attains its f
    order = []
    s = size - 1
    while s:
        v = next(v for v in range(n) if s >> v & 1 and int(f[s ^ (1 << v)]) + cost(v, s) == f[s])
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return int(f[size - 1]), order


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
