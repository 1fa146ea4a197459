"""Partitioning the arcs of a max-degree-4 orgraph into three feedback arc sets.

The construction produces a *good triple* of vertex orderings: every arc is a
backward arc with respect to exactly one of the three.  Since the backward
arcs of any ordering form a feedback arc set, the three backward-arc classes
partition A(H) into three FASs, which also bounds the minimum weighted FAS by
w(H)/3.

The recursion tracks the proof layout exactly: components with an unbalanced
vertex (min(d+, d-) <= 1) are solved by insertion, connected 2-regular
components with a transitive triangle by deleting two triangle vertices, and
the remaining 2-regular transitive-triangle-free case by removing one vertex
and growing anti-directed paths between its former neighbors.  Every case
dispatch is deterministic (lowest eligible id), so certificates reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, GraphError, View, connected_components


@dataclass(frozen=True)
class OrderingTriple:
    """Three orderings whose backward-arc sets partition the arc set."""

    orderings: tuple

    def backward_classes(self, d: Digraph):
        """The three arc-id classes, one per ordering."""
        from .ordering import backward_arc_ids

        return tuple(tuple(backward_arc_ids(d, o)) for o in self.orderings)


def verify_good_triple(d: Digraph, triple) -> tuple:
    """Exact predicate: every arc backward in exactly one ordering.

    Returns (True, None) or (False, violating_arc_id).
    """
    orderings = triple.orderings if isinstance(triple, OrderingTriple) else tuple(triple)
    if len(orderings) != 3:
        raise ValueError("a triple needs exactly three orderings")
    positions = []
    for o in orderings:
        if sorted(o) != list(range(d.n)):
            raise ValueError("ordering is not a permutation of the vertex set")
        pos = [0] * d.n
        for i, v in enumerate(o):
            pos[v] = i
        positions.append(pos)
    for a, (u, v) in enumerate(d.arcs):
        count = sum(1 for pos in positions if pos[v] < pos[u])
        if count != 1:
            return False, a
    return True, None


def is_subordering(small, big) -> bool:
    """Subsequence test: ``small`` arises from ``big`` by deleting vertices."""
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


def is_antidirected_path(d: Digraph, path) -> bool:
    """Distinct vertices forming an underlying path whose arc directions alternate.

    Every interior vertex carries either both path arcs incoming or both
    outgoing.
    """
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    dirs = []
    for x, y in zip(path, path[1:]):
        if d.has_arc(x, y):
            dirs.append(True)
        elif d.has_arc(y, x):
            dirs.append(False)
        else:
            return False
    return all(a != b for a, b in zip(dirs, dirs[1:]))


def insert_no_backward(order, x: int, d: Digraph):
    """Insert x so no arc incident with x is backward; error when impossible.

    Works over the vertices present in ``order``: all in-neighbors of x there
    must be placeable before x and all out-neighbors after.  A failure signals
    a caller logic bug, not bad data.
    """
    present = set(order)
    pos = {v: i for i, v in enumerate(order)}
    ins = [pos[u] for u in d.in_neighbors(x) if u in present]
    outs = [pos[u] for u in d.out_neighbors(x) if u in present]
    lo = max(ins, default=-1)
    hi = min(outs, default=len(order))
    if lo >= hi:
        raise GraphError(f"no insertion slot for vertex {x} avoids backward arcs")
    slot = lo + 1
    return list(order[:slot]) + [x] + list(order[slot:])


# ---------------------------------------------------------------------------
# the recursion deletes vertices by shrinking a View's active set, never
# copying the graph


def _unbalanced(sub: View, v) -> bool:
    return min(sub.outdeg(v), sub.indeg(v)) <= 1


def _lowest_unbalanced(sub: View):
    for v in sorted(sub.active):
        if _unbalanced(sub, v):
            return v
    return None


def _insert_after(order, x, anchor):
    i = order.index(anchor)
    return order[: i + 1] + [x] + order[i + 1 :]


def _insert_before(order, x, anchor):
    i = order.index(anchor)
    return order[:i] + [x] + order[i:]


def _rev(order):
    return list(reversed(order))


def _vtriple(sub: View, v: int):
    """Good v-triple (v first in #1, last in #2) for graphs with no 2-regular component."""
    if len(sub.active) == 1:
        return [v], [v], [v]
    if sub.indeg(v) <= 1:
        return _vtriple_direct(sub, v)
    # take the converse, solve, and reverse each ordering back
    a, b, c = _vtriple_direct(sub.converse(), v)
    return _rev(b), _rev(a), _rev(c)


def _vtriple_direct(sub: View, v):
    rest = sub.without([v])
    ins = rest.in_neighbors(v)
    if not ins:
        u2 = _lowest_unbalanced(rest)
        if u2 is None:  # pragma: no cover - would witness a precondition break
            raise GraphError("no unbalanced vertex available in recursion")
        s1, s2, s3 = _vtriple(rest, u2)
        return [v] + s1, s2 + [v], [v] + s3
    (u,) = ins
    if not _unbalanced(rest, u):  # pragma: no cover - degree <= 3 after deletion
        raise GraphError("in-neighbor not unbalanced after deletion")
    u_first, u_last, s = _vtriple(rest, u)
    s_uv = _insert_after(u_first, v, u)
    return [v] + u_last, s + [v], s_uv


def good_vtriple_nonregular(d: Digraph, v: int) -> OrderingTriple:
    """Good v-triple of a digon-free max-degree-4 digraph without 2-regular components.

    v must be unbalanced.  The returned triple has v first in its first
    ordering and last in the second.
    """
    _validate_input(d)
    for comp in connected_components(d):
        if all(d.out_degree(u) == d.in_degree(u) == 2 for u in comp):
            raise GraphError("a 2-regular component is out of scope for this routine")
    sub = View(d)
    if not _unbalanced(sub, v):
        raise GraphError(f"vertex {v} is not unbalanced")
    t = _vtriple(sub, v)
    return OrderingTriple(tuple(tuple(o) for o in t))


def _find_transitive_triangle(sub: View):
    for a1 in sorted(sub.active):
        for a2 in sorted(sub.out_neighbors(a1)):
            for x in sorted(sub.out_neighbors(a1)):
                if x != a2 and sub.d.has_arc(a2, x):
                    return a1, a2, x
    return None


def _triple_transitive(sub: View):
    found = _find_transitive_triangle(sub)
    if found is None:
        raise GraphError("no transitive triangle present")
    a1, a2, x = found
    s_first, s_last, s = _vtriple(sub.without([a1, x]), a2)
    s_a1a2 = _insert_before(s_last, a1, a2)
    pi = [a1] + s_first
    pi = pi[:2] + [x] + pi[2:]  # x right after a1 and a2
    return [x] + s + [a1], s_a1a2 + [x], pi


def good_triple_transitive(d: Digraph) -> OrderingTriple:
    """Good triple of a connected 2-regular orgraph containing a transitive triangle."""
    _validate_input(d)
    if any(d.out_degree(v) != 2 or d.in_degree(v) != 2 for v in range(d.n)):
        raise GraphError("input must be 2-regular")
    t = _triple_transitive(View(d))
    return OrderingTriple(tuple(tuple(o) for o in t))


def _extend_antidirected(sub: View, path, triple, pi_idx: int, variant: int):
    """Extension engine: grow an x1-triple from an x_l-triple along an anti-directed path.

    ``triple`` is a good x_l-triple of the view minus path[:-1]; ``pi_idx``
    picks pi* as its first (0) or second (1) ordering; ``variant`` 1 demands
    pi* <= first ordering of the result, variant 2 demands pi* <= second.
    """
    x1, x2 = path[0], path[1]
    outs = sub.out_neighbors(x1)
    ins = sub.in_neighbors(x1)
    if outs == [x2] and len(outs) == 1:
        pass
    elif ins == [x2] and len(ins) == 1:
        flipped_triple = (_rev(triple[1]), _rev(triple[0]), _rev(triple[2]))
        res = _extend_antidirected(
            sub.converse(), path, flipped_triple, 1 - pi_idx, 3 - variant
        )
        return _rev(res[1]), _rev(res[0]), _rev(res[2])
    else:
        raise GraphError("path start must have its sole out- or in-neighbor on the path")

    if len(path) == 3:
        x3 = path[2]
        t0, t1, t2 = triple
        pis = _insert_after(t0, x2, x3)
        t_prime = ([x1] + pis, [x2] + t1 + [x1], t2 + [x1, x2])
        t_dprime = ([x1, x2] + t1, pis + [x1], t2 + [x1, x2])
        first, second = (t_prime, t_dprime) if pi_idx == 0 else (t_dprime, t_prime)
        return first if variant == 1 else second

    s_first, s_last, s = _extend_antidirected(sub.without([x1]), path[1:], triple, pi_idx, 1)
    s_x1x2 = _insert_before(s_last, x1, x2)
    if variant == 1:
        return [x1] + s_first, s + [x1], s_x1x2
    return [x1] + s, s_first + [x1], s_x1x2


def extend_along_antidirected(
    d: Digraph, path, triple, pi_star: str = "first", variant: int = 1
) -> OrderingTriple:
    """Public wrapper for the anti-directed extension step.

    ``path`` is an anti-directed path x1..xl in d whose start has its unique
    out- or in-neighbor at x2; ``triple`` is a good xl-triple of
    d - (path minus xl).  ``pi_star`` selects which of the xl-triple's first
    two orderings must survive as a subordering, and ``variant`` whether it
    lands in the first or second ordering of the produced x1-triple.
    """
    if len(path) < 3:
        raise GraphError("the extension step needs |V(path)| >= 3")
    if not is_antidirected_path(d, path):
        raise GraphError("path is not anti-directed in the input digraph")
    if pi_star not in ("first", "last"):
        raise ValueError("pi_star must be 'first' or 'last'")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    tri = triple.orderings if isinstance(triple, OrderingTriple) else triple
    tri = tuple(list(o) for o in tri)
    res = _extend_antidirected(
        View(d), list(path), tri, 0 if pi_star == "first" else 1, variant
    )
    return OrderingTriple(tuple(tuple(o) for o in res))


def _two_regular_triple(sub: View):
    """The 2-regular transitive-triangle-free case: x-removal plus path growth."""
    d = sub.d
    x = min(sub.active)
    a_nb = sorted(sub.in_neighbors(x))
    b_nb = sorted(sub.out_neighbors(x))
    a1, a2 = a_nb
    b1, b2 = b_nb
    d_act = sub.without([x])

    outs = d_act.out_neighbors(a2)
    if len(outs) != 1:  # pragma: no cover - forced by 2-regularity
        raise GraphError("expected a unique out-neighbor after deleting x")
    x1 = outs[0]
    if x1 in (a1, b1, b2):  # pragma: no cover - excluded by triangle-freeness
        raise GraphError("path start collides with a neighbor of x")

    path = [a2, x1]
    case = None
    while True:
        tail = path[-1]
        if tail == a1:
            case = "a1"
            break
        if tail in (b1, b2):
            case = "b"
            break
        if d.has_arc(path[-2], tail):
            cands = [u for u in d_act.in_neighbors(tail) if u not in path]
        else:
            cands = [u for u in d_act.out_neighbors(tail) if u not in path]
        if not cands:
            case = "stuck"
            break
        path.append(min(cands))

    pset = set(path)
    if case == "stuck":
        pa1_first, pa1_last, p = _vtriple(d_act.without(pset), a1)
        xl = path[-1]
        if d.has_arc(path[-2], xl):
            t = ([xl] + pa1_first, pa1_last + [xl], [xl] + p)
        else:
            t = ([xl] + pa1_first, pa1_last + [xl], p + [xl])
        a2_triple = _extend_antidirected(d_act, path, t, 0, 1)
    elif case == "a1":
        t = _vtriple(d_act.without(pset - {a1}), a1)
        a2_triple = _extend_antidirected(d_act, path, t, 0, 1)
    else:
        if path[-1] == b1:
            b1, b2 = b2, b1
        a2_triple = _case_b2(d_act, path, a1, b1, b2)

    pa2_first, pa2_last, p = a2_triple
    pos = {v: i for i, v in enumerate(pa2_first)}
    cut = max(pos[a1], pos[a2]) + 1
    if not cut <= min(pos[b1], pos[b2]):  # pragma: no cover - proof guarantee
        raise GraphError("order invariant a-before-b violated")
    sigma = pa2_first[:cut] + [x] + pa2_first[cut:]
    return [x] + p, pa2_last + [x], sigma


def _case_b2(d_act: View, path, a1, b1, b2):
    """Path hit b2: the three subcases on the arcs at b2."""
    d = d_act.d
    pset = set(path)
    if d.has_arc(path[-2], b2):
        pa1_first, pa1_last, p = _vtriple(d_act.without(pset), a1)
        t = ([b2] + pa1_last, pa1_first + [b2], [b2] + p)
        return _extend_antidirected(d_act, path, t, 1, 1)

    d_prime = d_act.without(pset - {b2})
    s_out = [u for u in d_prime.out_neighbors(b2) if u != a1 and u != b2]
    if not s_out:
        pa1_first, pa1_last, p = _vtriple(d_act.without(pset), a1)
        pi_b2a1 = _insert_before(pa1_last, b2, a1)
        t = ([b2] + p, pa1_first + [b2], pi_b2a1)
        return _extend_antidirected(d_act, path, t, 1, 1)

    s1 = min(s_out)
    if s1 == b1:  # pragma: no cover - excluded by triangle-freeness
        raise GraphError("second path start collides with b1")
    q = [b2, s1]
    while True:
        tail = q[-1]
        if tail in (a1, b1):
            qcase = "hit"
            break
        if d.has_arc(q[-2], tail):
            cands = [u for u in d_prime.in_neighbors(tail) if u not in q]
        else:
            cands = [u for u in d_prime.out_neighbors(tail) if u not in q]
        if not cands:
            qcase = "stuck"
            break
        q.append(min(cands))

    qset = set(q)
    sk = q[-1]
    if qcase == "stuck":
        pa1_first, pa1_last, p = _vtriple(d_prime.without(qset), a1)
        if len(q) >= 3:
            if d.has_arc(q[-2], sk):
                t = ([sk] + pa1_first, pa1_last + [sk], [sk] + p)
            else:
                t = ([sk] + pa1_first, pa1_last + [sk], p + [sk])
            t_b2 = _extend_antidirected(d_prime, q, t, 0, 2)
        else:
            t_b2 = ([b2, s1] + p, [s1] + pa1_first + [b2], pa1_last + [b2, s1])
    else:
        if len(q) < 3:  # pragma: no cover - s1 differs from a1 and b1
            raise GraphError("hit path too short")
        t = _vtriple(d_prime.without(qset - {sk}), sk)
        t_b2 = _extend_antidirected(d_prime, q, t, 0 if sk == a1 else 1, 2)
    return _extend_antidirected(d_act, path, t_b2, 1, 1)


def _validate_input(d: Digraph) -> None:
    from .digraph import max_degree

    if max_degree(d) > 4:
        raise GraphError("maximum degree must be at most 4")
    if d.has_digon():
        raise GraphError("input must be digon-free")


def decompose3(h: Digraph, verify: bool = True) -> OrderingTriple:
    """Good triple of any digon-free digraph with maximum degree at most 4.

    Components are solved independently and the orderings concatenated in
    component order; backward arcs never cross components.  The output is
    re-verified unless ``verify`` is disabled; a verification failure is a
    hard diagnostic, never silently patched.
    """
    _validate_input(h)
    parts = [[], [], []]
    for comp in connected_components(h):
        sub = View(h, comp)
        if any(sub.outdeg(v) != 2 or sub.indeg(v) != 2 for v in comp):
            t = _vtriple(sub, _lowest_unbalanced(sub))
        elif _find_transitive_triangle(sub) is not None:
            t = _triple_transitive(sub)
        else:
            t = _two_regular_triple(sub)
        for i in range(3):
            parts[i].extend(t[i])
    triple = OrderingTriple(tuple(tuple(o) for o in parts))
    if verify:
        ok, arc = verify_good_triple(h, triple)
        if not ok:
            raise AssertionError(
                f"constructed triple is not good (arc {arc}); this is a bug"
            )
    return triple
