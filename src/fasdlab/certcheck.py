"""The one checker of the lab's certificates: the rules that decide whether a
colouring, an ordering triple, a feedback arc or vertex set, a cycle or a
refutation of a good colouring is valid.

They read only ``d.n``, ``d.arcs`` and ``d.weights`` and import only the
standard library, so they share no code with the solvers they check (the
certifying algorithms of McConnell, Mehlhorn, Näher & Schweitzer, Computer
Science Review 2011).  A ``check_*`` rule returns (True, None) or (False, the
first failure); a malformed certificate raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction


def exact_weights(d) -> list:
    """Each arc weight as the exact decimal its repr shows, so sums are exact."""
    return [Fraction(repr(w)) for w in d.weights]


def _kahn(d, cuts):
    """Per arc-id set in ``cuts``, the FIFO Kahn order of D without its arcs
    (sources by id, then each vertex when its last in-arc goes); it covers
    every vertex exactly when the rest is acyclic."""
    out = [[] for _ in range(d.n)]
    indeg = [0] * d.n
    for a, (u, v) in enumerate(d.arcs):
        out[u].append((v, a))
        indeg[v] += 1
    for cut in cuts:
        left = indeg[:]
        for a in cut:
            left[d.arcs[a][1]] -= 1
        order = [v for v in range(d.n) if not left[v]]
        for u in order:
            for v, a in out[u]:
                if a not in cut:
                    left[v] -= 1
                    if not left[v]:
                        order.append(v)
        yield order


def is_acyclic(d):
    """Kahn peeling.  Returns (True, topological_order) or (False, None)."""
    order = next(_kahn(d, [()]))
    return (True, order) if len(order) == d.n else (False, None)


def backward_arc_ids(d, order) -> list:
    """Ids of arcs (u, v) whose head v is placed before their tail u."""
    if len(order) != d.n or sorted(order) != list(range(d.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    pos = [0] * d.n
    for i, v in enumerate(order):
        pos[v] = i
    return [a for a, (u, v) in enumerate(d.arcs) if pos[v] < pos[u]]


def bas(d, order):
    """Backward-arc statistic of an ordering: count, or exact total weight
    (a Fraction of the weights' decimals) if weighted."""
    ids = backward_arc_ids(d, order)
    if d.weights is None:
        return len(ids)
    w = exact_weights(d)
    return sum(w[a] for a in ids)


def check_fas_sixth(d, arc_ids):
    """Distinct arcs whose removal leaves D acyclic, at most a sixth of the
    arcs (6|F| <= m)."""
    cut, m = set(arc_ids), len(d.arcs)
    if len(cut) != len(arc_ids) or not cut.issubset(range(m)):
        return False, "arc ids are not distinct arcs"
    if len(next(_kahn(d, [cut]))) < d.n:
        return False, "the remainder has a cycle"
    if 6 * len(cut) > m:
        return False, f"6*{len(cut)} > m={m}"
    return True, None


def check_fvs(d, vertices):
    """Distinct vertices whose removal, with every arc at them, leaves D
    acyclic."""
    drop = set(vertices)
    if len(drop) != len(vertices) or not drop.issubset(range(d.n)):
        return False, "vertex ids are not distinct vertices"
    cut = {a for a, (u, v) in enumerate(d.arcs) if u in drop or v in drop}
    if len(next(_kahn(d, [cut]))) < d.n:
        return False, "the remainder has a cycle"
    return True, None


def check_coloring(d, coloring: dict, t: int):
    """Removing any one class of a colouring of every arc by 1..t leaves D
    acyclic; (False, c) names the first colour c that does not."""
    if set(coloring) != set(range(len(d.arcs))):
        raise ValueError("coloring must assign a color to every arc")
    classes = [set() for _ in range(t)]
    for a, c in coloring.items():
        if not 1 <= c <= t:
            raise ValueError(f"color {c} outside [1, {t}]")
        classes[c - 1].add(a)
    for c, order in enumerate(_kahn(d, classes), 1):
        if len(order) < d.n:
            return False, c
    return True, None


def check_triple(d, triple):
    """Each arc is backward in exactly one of three orders, given as such or
    as ``triple.orderings``; (False, a) names the first arc a that is not."""
    orderings = tuple(getattr(triple, "orderings", triple))
    if len(orderings) != 3:
        raise ValueError("a triple needs exactly three orderings")
    count = [0] * len(d.arcs)
    for order in orderings:
        for a in backward_arc_ids(d, order):
            count[a] += 1
    bad = next((a for a, k in enumerate(count) if k != 1), None)
    return (True, None) if bad is None else (False, bad)


def arc_index(d) -> dict:
    """(u, v) -> the lowest id of an arc from u to v, for closed_cycle_arcs."""
    index = {}
    for a, uv in enumerate(d.arcs):
        index.setdefault(uv, a)
    return index


def closed_cycle_arcs(index, cycle):
    """Arc ids along ``cycle`` (u0, ..., uk-1, back to u0) when it is a simple
    closed cycle of the digraph whose ``arc_index`` is ``index``, else None.
    Of parallel arcs the lowest id is taken."""
    k = len(cycle)
    if k < 2 or len(set(cycle)) != k:
        return None
    ids = tuple(index.get((cycle[i], cycle[(i + 1) % k])) for i in range(k))
    return None if None in ids else ids


def check_fas_order(d, order, value):
    """An ordering of the vertices whose backward arcs weigh exactly
    ``value``: the exact ``bas``, a count when D is unweighted.  A minimum
    FAS certificate, for its upper side."""
    if sorted(order) != list(range(d.n)):
        return False, "the order is not a permutation of the vertex set"
    weight = bas(d, order)
    if weight != value:
        return False, f"its backward arcs weigh {weight}, not {value}"
    return True, None


def check_counting_bound(d, cycles, arcs, bound):
    """A family of k >= 1 closed cycles of D, each arc on at most two of them,
    whose union U is ``arcs``, with bound = |U| // ceil(k/2).

    The double count: a colour class of a good colouring is a FAS, so it meets
    each of the k cycles; an arc of U covers at most two of them, so the class
    holds at least ceil(k/2) arcs of U.  The classes are disjoint, so no good
    colouring has more than ``bound`` colours.
    """
    if not cycles:
        return False, "the family has no cycles"
    index = arc_index(d)
    on = {}
    for i, cycle in enumerate(cycles):
        ids = closed_cycle_arcs(index, cycle)
        if ids is None:
            return False, f"cycle {i} is not a closed cycle of D"
        for a in ids:
            on[a] = on.get(a, 0) + 1
            if on[a] > 2:
                return False, f"arc {a} lies on three of the cycles"
    if sorted(arcs) != sorted(on):
        return False, "the arcs are not the union of the cycles"
    half = (len(cycles) + 1) // 2
    if bound != len(on) // half:
        return False, f"bound {bound} is not {len(on)} // {half}"
    return True, None


def check_conflict_clique(d, t, arcs, witness):
    """More than t distinct arcs, each pair (a, b) with a < b sharing the
    closed cycle of exactly t arcs ``witness[(a, b)]``.

    A good t-colouring gives the t arcs of a t-cycle t distinct colours, so
    arcs that pairwise share one need distinct colours, and more than t of
    them refute every good t-colouring.
    """
    if len(set(arcs)) != len(arcs):
        return False, "an arc is repeated"
    if len(arcs) <= t:
        return False, f"{len(arcs)} arcs are not more than {t}"
    index = arc_index(d)
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            cycle = witness.get((min(a, b), max(a, b)))
            if cycle is None:
                return False, f"arcs {a} and {b} have no witness"
            if len(cycle) != t:
                return False, f"the witness of arcs {a} and {b} has {len(cycle)} arcs, not {t}"
            ids = closed_cycle_arcs(index, cycle)
            if ids is None:
                return False, f"the witness of arcs {a} and {b} is not a closed cycle of D"
            if a not in ids or b not in ids:
                return False, f"the witness of arcs {a} and {b} misses one of them"
    return True, None

