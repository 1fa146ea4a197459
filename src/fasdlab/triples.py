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
The recursion runs as loops over one ``Peel``, so no input size exhausts the
interpreter's stack.

``decompose3`` is the module's one entry point: each lemma case of the proof
is a private step that it dispatches to and nothing else calls.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .certcheck import backward_arc_ids, check_triple as verify_good_triple
from .digraph import Digraph, GraphError, Peel, connected_components, require_orgraph


@dataclass(frozen=True)
class OrderingTriple:
    """Three orderings whose backward-arc sets partition the arc set."""

    orderings: tuple

    def backward_classes(self, d: Digraph):
        """The three arc-id classes, one per ordering."""
        return tuple(tuple(backward_arc_ids(d, o)) for o in self.orderings)


def is_subordering(small, big) -> bool:
    """Subsequence test: ``small`` arises from ``big`` by deleting vertices."""
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


# ---------------------------------------------------------------------------
# the recursions of the proof run as loops over one Peel: a chain of steps each
# deletes a vertex top-down, then the orderings are built bottom-up in _Orders


class _Orders:
    """Three vertex orderings built back to front, each step O(1).

    Every ordering is a doubly linked list.  The converse step of the proof
    (reverse all three, swap the first two) toggles one orientation flag and
    swaps two slots; ``permute`` moves whole orderings between slots.
    """

    __slots__ = ("link", "ends", "slot", "rev")

    def __init__(self, lists):
        # link[L] = [next, prev] of physical list L; ends[L] = [head, tail]
        self.link = [[{}, {}] for _ in range(3)]
        self.ends = [[None, None] for _ in range(3)]
        self.slot = [0, 1, 2]
        self.rev = 0
        for k, o in enumerate(lists):
            for x in o:
                self.push(k, x, back=True)

    def push(self, k, x, back=False):
        """Put x first (or last) in ordering k."""
        L, f = self.slot[k], self.rev ^ back
        nxt, prv = self.link[L][f], self.link[L][1 - f]
        ends = self.ends[L]
        h = ends[f]
        nxt[x], prv[x] = h, None
        if h is None:
            ends[1 - f] = x
        else:
            prv[h] = x
        ends[f] = x

    def place(self, k, x, u, before=False):
        """Put x right after (or before) u in ordering k."""
        L, f = self.slot[k], self.rev ^ before
        nxt, prv = self.link[L][f], self.link[L][1 - f]
        w = nxt[u]
        nxt[u], prv[x], nxt[x] = x, u, w
        if w is None:
            self.ends[L][1 - f] = x
        else:
            prv[w] = x

    def permute(self, i, j, k):
        """New slots 0, 1, 2 hold the old slots i, j, k."""
        s = self.slot
        self.slot = [s[i], s[j], s[k]]

    def converse(self):
        self.rev ^= 1
        self.slot[0], self.slot[1] = self.slot[1], self.slot[0]

    def lists(self):
        out = []
        for L in self.slot:
            nxt, x, o = self.link[L][self.rev], self.ends[L][self.rev], []
            while x is not None:
                o.append(x)
                x = nxt[x]
            out.append(o)
        return tuple(out)


def _unbalanced(pl: Peel, v) -> bool:
    return min(len(pl.out[v]), len(pl.inn[v])) <= 1


def _vtriple(pl: Peel, v: int):
    """Good v-triple (v first in #1, last in #2) of the live graph, which has no
    2-regular component; deletes every live vertex.

    Each step deletes v, working on the converse when v has two in-arcs, and
    continues at v's in-neighbor or else at the lowest unbalanced vertex.
    The unbalanced vertices are kept in a heap, filled on first use and fed
    from the arcs each deletion cut; since degrees only fall, a vertex stays
    unbalanced until it goes.
    """
    heap = None
    steps = []
    frame = 0  # 1 while the steps work on the converse
    while len(pl.out) > 1:
        flip = len((pl.out if frame else pl.inn)[v]) > 1
        frame ^= flip
        cut = pl.delete(v)
        ins = [u for u, _ in cut[1 - frame]]
        if heap is not None:
            for w, _ in cut[0] + cut[1]:
                if _unbalanced(pl, w):
                    heapq.heappush(heap, w)
        if ins:
            (u,) = ins
            if not _unbalanced(pl, u):  # pragma: no cover - degree <= 3 after deletion
                raise GraphError("in-neighbor not unbalanced after deletion")
        else:
            if heap is None:
                heap = [w for w in pl.out if _unbalanced(pl, w)]
                heapq.heapify(heap)
            while heap and heap[0] not in pl.out:
                heapq.heappop(heap)
            if not heap:  # pragma: no cover - would witness a precondition break
                raise GraphError("no unbalanced vertex available in recursion")
            u = heap[0]
        steps.append((v, flip, bool(ins), u))
        v = u
    pl.delete(v)
    t = _Orders(([v], [v], [v]))
    for v, flip, has_in, u in reversed(steps):
        if has_in:  # (v + B, C + v, A with v right after u)
            t.place(0, v, u)
            t.push(1, v)
            t.push(2, v, back=True)
            t.permute(1, 2, 0)
        else:  # (v + A, B + v, v + C)
            t.push(0, v)
            t.push(1, v, back=True)
            t.push(2, v)
        if flip:
            t.converse()
    return t.lists()


def _find_transitive_triangle(pl: Peel):
    for a1 in sorted(pl.out):
        outs = sorted(w for w, _ in pl.out[a1])
        for a2 in outs:
            for x in outs:
                if x != a2 and pl.d.has_arc(a2, x):
                    return a1, a2, x
    return None


def _triple_transitive(pl: Peel, triangle):
    """Good triple of a 2-regular component from its transitive triangle
    a1 -> a2 -> x, a1 -> x: delete a1 and x, then take a good a2-triple."""
    a1, a2, x = triangle
    pl.delete(a1)
    pl.delete(x)
    s_first, s_last, s = _vtriple(pl, a2)
    s_last.insert(s_last.index(a2), a1)
    pi = [a1] + s_first
    pi.insert(2, x)  # x right after a1 and a2
    return [x] + s + [a1], s_last + [x], pi


def _extend_antidirected(then, path, triple, pi_idx: int, variant: int):
    """Extension engine: grow an x1-triple from an x_l-triple along an anti-directed path.

    ``triple`` is a good x_l-triple of the graph minus path[:-1], whose
    vertices were deleted in path order before any other vertex of that
    graph; ``then[i]`` is what ``Peel.delete`` returned for path[i], its
    out-arcs and in-arcs in the graph minus path[:i].
    ``pi_idx`` picks pi* as the triple's first (0) or second (1) ordering;
    ``variant`` 1 demands pi* <= first ordering of the result, variant 2
    demands pi* <= second.  A step whose start has its sole in-neighbor on the
    path works on the converse: the triple is reversed with its first two
    orderings swapped, pi_idx and variant switch, and the result flips back.
    """
    steps = []
    frame = 0
    for i in range(len(path) - 2):
        x1, x2 = path[i], path[i + 1]
        outs, ins = ([w for w, _ in arcs] for arcs in then[i])
        if frame:
            outs, ins = ins, outs
        flip = outs != [x2]
        if flip and ins != [x2]:
            raise GraphError("path start must have its sole out- or in-neighbor on the path")
        if flip:
            frame ^= 1
            pi_idx, variant = 1 - pi_idx, 3 - variant
        steps.append((flip, variant))
        variant = 1
    t0, t1, t2 = triple
    if frame:
        t0, t1, t2 = t1[::-1], t0[::-1], t2[::-1]
    x1, x2, x3 = path[-3:]
    pis = list(t0)
    pis.insert(pis.index(x3) + 1, x2)
    t_prime = ([x1] + pis, [x2] + t1 + [x1], t2 + [x1, x2])
    t_dprime = ([x1, x2] + t1, pis + [x1], t2 + [x1, x2])
    first, second = (t_prime, t_dprime) if pi_idx == 0 else (t_dprime, t_prime)
    flip, variant = steps.pop()
    t = _Orders(first if variant == 1 else second)
    if flip:
        t.converse()
    for i in range(len(steps) - 1, -1, -1):
        flip, variant = steps[i]
        x1, x2 = path[i], path[i + 1]
        # s_first, s_last, s -> (x1 + s_first, s + x1, x1 before x2 in s_last)
        # or, for variant 2, (x1 + s, s_first + x1, the same)
        t.push(0 if variant == 1 else 2, x1)
        t.push(2 if variant == 1 else 0, x1, back=True)
        t.place(1, x1, x2, before=True)
        t.permute(*((0, 2, 1) if variant == 1 else (2, 0, 1)))
        if flip:
            t.converse()
    return t.lists()


def _grow_path(pl: Peel, path, stops):
    """Extend an anti-directed path over live vertices by lowest ids.

    Stops at a vertex of ``stops`` (returns "hit") or where no live vertex off
    the path continues it (returns "stuck").
    """
    d = pl.d
    on_path = set(path)
    while path[-1] not in stops:
        tail = path[-1]
        arcs = pl.inn[tail] if d.has_arc(path[-2], tail) else pl.out[tail]
        cands = [u for u, _ in arcs if u not in on_path]
        if not cands:
            return "stuck"
        path.append(min(cands))
        on_path.add(path[-1])
    return "hit"


def _two_regular_triple(pl: Peel):
    """The 2-regular transitive-triangle-free case: x-removal plus path growth."""
    d = pl.d
    x = min(pl.out)
    a1, a2 = sorted(u for u, _ in pl.inn[x])
    b1, b2 = sorted(u for u, _ in pl.out[x])
    pl.delete(x)

    outs = [u for u, _ in pl.out[a2]]
    if len(outs) != 1:  # pragma: no cover - forced by 2-regularity
        raise GraphError("expected a unique out-neighbor after deleting x")
    x1 = outs[0]
    if x1 in (a1, b1, b2):  # pragma: no cover - excluded by triangle-freeness
        raise GraphError("path start collides with a neighbor of x")

    path = [a2, x1]
    case = _grow_path(pl, path, (a1, b1, b2))
    if case == "stuck":
        then = [pl.delete(y) for y in path]
        pa1_first, pa1_last, p = _vtriple(pl, a1)
        xl = path[-1]
        if d.has_arc(path[-2], xl):
            t = ([xl] + pa1_first, pa1_last + [xl], [xl] + p)
        else:
            t = ([xl] + pa1_first, pa1_last + [xl], p + [xl])
        a2_triple = _extend_antidirected(then, path, t, 0, 1)
    elif path[-1] == a1:
        then = [pl.delete(y) for y in path[:-1]]
        t = _vtriple(pl, a1)
        a2_triple = _extend_antidirected(then, path, t, 0, 1)
    else:
        if path[-1] == b1:
            b1, b2 = b2, b1
        a2_triple = _case_b2(pl, path, a1, b1, b2)

    pa2_first, pa2_last, p = a2_triple
    pos = {v: i for i, v in enumerate(pa2_first)}
    cut = max(pos[a1], pos[a2]) + 1
    if not cut <= min(pos[b1], pos[b2]):  # pragma: no cover - proof guarantee
        raise GraphError("order invariant a-before-b violated")
    sigma = pa2_first[:cut] + [x] + pa2_first[cut:]
    return [x] + p, pa2_last + [x], sigma


def _case_b2(pl: Peel, path, a1, b1, b2):
    """Path hit b2: the three subcases on the arcs at b2."""
    d = pl.d
    then = [pl.delete(y) for y in path[:-1]]
    if d.has_arc(path[-2], b2):
        pl.delete(b2)
        pa1_first, pa1_last, p = _vtriple(pl, a1)
        t = ([b2] + pa1_last, pa1_first + [b2], [b2] + p)
        return _extend_antidirected(then, path, t, 1, 1)

    s_out = [u for u, _ in pl.out[b2] if u != a1 and u != b2]
    if not s_out:
        pl.delete(b2)
        pa1_first, pa1_last, p = _vtriple(pl, a1)
        pa1_last.insert(pa1_last.index(a1), b2)
        t = ([b2] + p, pa1_first + [b2], pa1_last)
        return _extend_antidirected(then, path, t, 1, 1)

    s1 = min(s_out)
    if s1 == b1:  # pragma: no cover - excluded by triangle-freeness
        raise GraphError("second path start collides with b1")
    q = [b2, s1]
    qcase = _grow_path(pl, q, (a1, b1))

    sk = q[-1]
    if qcase == "stuck":
        then_q = [pl.delete(y) for y in q]
        pa1_first, pa1_last, p = _vtriple(pl, a1)
        if len(q) >= 3:
            if d.has_arc(q[-2], sk):
                t = ([sk] + pa1_first, pa1_last + [sk], [sk] + p)
            else:
                t = ([sk] + pa1_first, pa1_last + [sk], p + [sk])
            t_b2 = _extend_antidirected(then_q, q, t, 0, 2)
        else:
            t_b2 = ([b2, s1] + p, [s1] + pa1_first + [b2], pa1_last + [b2, s1])
    else:
        if len(q) < 3:  # pragma: no cover - s1 differs from a1 and b1
            raise GraphError("hit path too short")
        then_q = [pl.delete(y) for y in q[:-1]]
        t = _vtriple(pl, sk)
        t_b2 = _extend_antidirected(then_q, q, t, 0 if sk == a1 else 1, 2)
    return _extend_antidirected(then, path, t_b2, 1, 1)


def decompose3(h: Digraph, verify: bool = True) -> OrderingTriple:
    """Good triple of any digon-free digraph with maximum degree at most 4.

    Components are solved independently and the orderings concatenated in
    component order; backward arcs never cross components.  The output is
    re-verified unless ``verify`` is disabled; a verification failure is a
    hard diagnostic, never silently patched.
    """
    require_orgraph(h, 4, 3)
    parts = [[], [], []]
    for comp in connected_components(h):
        pl = Peel(h, comp)
        if any(len(pl.out[v]) != 2 or len(pl.inn[v]) != 2 for v in comp):
            t = _vtriple(pl, min(v for v in comp if _unbalanced(pl, v)))
        elif (triangle := _find_transitive_triangle(pl)) is not None:
            t = _triple_transitive(pl, triangle)
        else:
            t = _two_regular_triple(pl)
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
