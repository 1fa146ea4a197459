"""Constructive results for max-degree-3 orgraphs, plus the exact FVS oracle.

Two constructions live here.  ``good_g_coloring`` produces a good g-arc-
coloring of any digon-free max-degree-3 digraph of girth at least g for
g in {3, 4, 5}; the recursion peels a shortest path from the in-heavy to the
out-heavy degree class and, in the one stubborn g = 5 configuration, reshapes
a recursive coloring through monochromatic in/out classes at the four
attachment vertices until five distinct colors can be threaded through the
removed pair.  ``fas_sixth`` turns the matching-contraction argument into an
algorithm: reduction rules strip forced configurations one arc at a time, and
the irreducible core is contracted to a degree-4 multigraph whose exact
minimum feedback vertex set selects the matching arcs of the answer.

Every constructed object is re-verified before being returned; a failure of a
case the argument says cannot fail raises a hard diagnostic rather than being
patched over.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .digraph import (
    BudgetError,
    Digraph,
    GraphError,
    MultiDigraph,
    View,
    girth,
    is_acyclic,
    max_degree,
    shortest_cycle,
    strong_components,
)
from .generators import is_digon_odd_cycle


@dataclass(frozen=True)
class DegreeClasses:
    """Partition of V by (d+, d-) signature for max-degree-3 digraphs.

    ``x12`` holds vertices with out-degree 1 / in-degree 2, ``x21`` the
    transposes, ``x11`` the balanced ones.  ``complete`` is False when some
    vertex fits none of the three signatures (possible only off the strongly
    connected max-degree-3 assumption).
    """

    x12: tuple
    x21: tuple
    x11: tuple
    complete: bool


def degree_classes(d: Digraph) -> DegreeClasses:
    x12, x21, x11, other = [], [], [], []
    for v in range(d.n):
        sig = (d.out_degree(v), d.in_degree(v))
        if sig == (1, 2):
            x12.append(v)
        elif sig == (2, 1):
            x21.append(v)
        elif sig == (1, 1):
            x11.append(v)
        else:
            other.append(v)
    return DegreeClasses(tuple(x12), tuple(x21), tuple(x11), not other)


# ---------------------------------------------------------------------------
# good g-arc-colorings for g in {3, 4, 5}


def good_g_coloring(d: Digraph, g: int, check: bool = True) -> dict:
    """Good g-arc-coloring of a digon-free max-degree-3 digraph, g in {3, 4, 5}.

    Requires girth(d) >= g.  Returns a total arc-id -> color map in which
    every color class is a feedback arc set.  The output is verified; an
    internal failure of a mandated case raises AssertionError.
    """
    if g not in (3, 4, 5):
        raise GraphError("g must be 3, 4, or 5")
    if max_degree(d) > 3:
        raise GraphError("maximum degree must be at most 3")
    if d.has_digon():
        raise GraphError("input must be digon-free")
    from .digraph import INFINITE

    gg = girth(d)
    if gg is not INFINITE and gg < g:
        raise GraphError(f"girth {gg} below requested g={g}")
    coloring = {}
    _color_subgraph(View(d), g, coloring)
    if len(coloring) != d.m:  # pragma: no cover - would witness a gap
        raise AssertionError("construction left arcs uncolored")
    if check:
        from .coloring import verify_good_coloring

        ok, info = verify_good_coloring(d, coloring, g)
        if not ok:
            raise AssertionError(f"construction produced a bad coloring: {info}")
    return coloring


def _color_subgraph(sub: View, g: int, coloring: dict) -> None:
    """Color all arcs inside the view; arcs between strong parts get color 1."""
    comps = strong_components(sub)
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    for a in sub.arc_ids():
        u, v = sub.d.arcs[a]
        if comp_of[u] != comp_of[v]:
            coloring[a] = 1
    for comp in comps:
        if len(comp) >= 2:
            _color_strong(View(sub.d, comp), g, coloring)


def _color_strong(sub: View, g: int, coloring: dict) -> None:
    """Strongly connected piece: peel a shortest (in-heavy, out-heavy)-path."""
    x12 = sorted(v for v in sub.active if (sub.outdeg(v), sub.indeg(v)) == (1, 2))
    x21 = sorted(v for v in sub.active if (sub.outdeg(v), sub.indeg(v)) == (2, 1))
    if not x12:
        _color_single_cycle(sub, g, coloring)
        return
    path = _shortest_class_path(sub, x12, set(x21))
    if path is None:  # pragma: no cover - contradicts strong connectivity
        raise AssertionError("no path between degree classes in a strong digraph")
    l = len(path)
    if l >= g - 1:
        _peel_long_path(sub, g, coloring, path)
    elif l == g - 2:
        _peel_short_path(sub, g, coloring, path)
    else:
        if not (g == 5 and l == 2):  # pragma: no cover - l >= 2 always
            raise AssertionError(f"unexpected path length {l} for g={g}")
        _special_five(sub, coloring, path)


def _color_single_cycle(sub: View, g: int, coloring: dict) -> None:
    # all degrees (1,1): the component is one directed cycle of length >= g
    start = min(sub.active)
    v = start
    arcs = []
    while True:
        ((w, a),) = sub.out_arcs(v)
        arcs.append(a)
        v = w
        if v == start:
            break
    if len(arcs) < g:  # pragma: no cover - girth precondition
        raise AssertionError("cycle shorter than g")
    for i, a in enumerate(arcs):
        coloring[a] = (i % g) + 1


def _shortest_class_path(sub: View, sources, targets):
    """Multi-source BFS from x12 to the first x21 vertex; interior stays x11."""
    dist = {v: 0 for v in sources}
    parent = {}
    q = deque(sorted(sources))
    while q:
        u = q.popleft()
        if u in targets:
            path = [u]
            while path[-1] in parent:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for w, _ in sorted(sub.out_arcs(u)):
            if w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                q.append(w)
    return None


def _peel_long_path(sub: View, g: int, coloring: dict, path) -> None:
    """Path length >= g-1: remove it and wrap colors 1..g around it.

    Every cycle meeting the path is funnelled through all of it, entering p1
    by a color-1 arc and leaving the last vertex by a color-g arc.
    """
    rest = sub.without(path)
    _color_subgraph(rest, g, coloring)
    for _, a in sub.in_arcs(path[0]):
        coloring[a] = 1
    for i in range(1, len(path)):
        a = sub.d.arc_id(path[i - 1], path[i])
        coloring[a] = i + 1 if i + 1 <= g - 1 else 1
    for _, a in sub.out_arcs(path[-1]):
        coloring[a] = g


def _peel_short_path(sub: View, g: int, coloring: dict, path) -> None:
    """Path length g-2: three cases on the classes of the two in-neighbors of p1."""
    p1 = path[0]
    w_in = sorted(u for u, _ in sub.in_arcs(p1))
    if len(w_in) != 2:  # pragma: no cover - p1 is in the (1,2) class
        raise AssertionError("expected two in-neighbors")
    w1, w2 = w_in
    sig = {}
    for w in (w1, w2):
        sig[w] = (sub.outdeg(w), sub.indeg(w))
    heavy = [w for w in (w1, w2) if sig[w] == (2, 1)]

    if not heavy:
        _short_case_light(sub, g, coloring, path, w1, w2)
    elif len(heavy) == 2:
        _short_case_heavy(sub, g, coloring, path, w1, w2)
    else:
        light = w1 if heavy[0] == w2 else w2
        _short_case_mixed(sub, g, coloring, path, light, heavy[0])


def _tail_colors(sub: View, g: int, coloring: dict, path) -> None:
    # p1p2 takes 3, arcs out of p2 take 4, arcs out of p3 take 5 when present
    coloring[sub.d.arc_id(path[0], path[1])] = 3
    for _, a in sub.out_arcs(path[1]):
        coloring[a] = 4
    if len(path) == 3:
        for _, a in sub.out_arcs(path[2]):
            coloring[a] = 5


def _short_case_light(sub, g, coloring, path, w1, w2) -> None:
    # both in-neighbors have out-degree 1 (their sole out-arc enters p1)
    rest = sub.without(list(path) + [w1, w2])
    _color_subgraph(rest, g, coloring)
    for w in (w1, w2):
        for _, a in sub.in_arcs(w):
            coloring[a] = 1
        coloring[sub.d.arc_id(w, path[0])] = 2
    _tail_colors(sub, g, coloring, path)


def _short_case_heavy(sub, g, coloring, path, w1, w2) -> None:
    # both in-neighbors are (2,1): only p1, p2 go; permute the recursive colors
    # so the unique arcs entering w1 and w2 cover {1, 2} between them.
    # For l = 3 the last path vertex stays behind as a source, so its
    # outgoing arcs lie on no remaining cycle and take color 5 afterwards.
    rest = sub.without(path[:2])
    _color_subgraph(rest, g, coloring)
    z1_arc = sub.in_arcs(w1)[0][1]
    z2_arc = sub.in_arcs(w2)[0][1]
    _permute_colors(coloring, rest.arc_ids(), {z1_arc: 1}, g, soft={z2_arc: (1, 2)})
    c2 = coloring[z2_arc]
    coloring[sub.d.arc_id(w1, path[0])] = 2
    coloring[sub.d.arc_id(w2, path[0])] = 3 - c2
    _tail_colors(sub, g, coloring, path)


def _short_case_mixed(sub, g, coloring, path, w1, w2) -> None:
    # w1 light (out-degree 1), w2 heavy (2,1) with a unique in-arc
    rest = sub.without([w1] + list(path))
    _color_subgraph(rest, g, coloring)
    z2_arc = sub.in_arcs(w2)[0][1]
    _permute_colors(coloring, rest.arc_ids(), {z2_arc: 1}, g)
    for _, a in sub.in_arcs(w1):
        coloring[a] = 1
    coloring[sub.d.arc_id(w1, path[0])] = 2
    coloring[sub.d.arc_id(w2, path[0])] = 2
    _tail_colors(sub, g, coloring, path)


def _permute_colors(coloring, arc_ids, want: dict, g: int, soft: dict | None = None):
    """Relabel colors on the given arcs so each want[arc] == color holds.

    ``soft`` entries may name a pair of acceptable colors; the permutation is
    extended to a full bijection on [1, g].  Logged permutations keep
    certificates auditable.
    """
    perm = {}
    for a, c in want.items():
        cur = coloring[a]
        if cur in perm and perm[cur] != c:  # pragma: no cover
            raise AssertionError("inconsistent color permutation request")
        perm[cur] = c
    if soft:
        for a, allowed in soft.items():
            cur = coloring[a]
            if cur in perm:
                continue
            free = [c for c in allowed if c not in perm.values()]
            if free:
                perm[cur] = free[0]
    used_src = set(perm)
    used_dst = set(perm.values())
    rest_src = [c for c in range(1, g + 1) if c not in used_src]
    rest_dst = [c for c in range(1, g + 1) if c not in used_dst]
    for s, t in zip(rest_src, rest_dst):
        perm[s] = t
    for a in arc_ids:
        coloring[a] = perm[coloring[a]]
    return perm


# ------------------------- the g = 5, l = 2 machinery ----------------------


class _Special:
    """Special-coloring workbench around a removed (p1, p2) arc, g = 5.

    Tracks the four attachment vertices (the two in-neighbors of p1 and the
    two out-neighbors of p2) and keeps each one's in-class and out-class
    monochromatic through every transformation.
    """

    def __init__(self, sub: View, coloring: dict, p1, p2, ws, qs):
        self.sub = sub
        self.coloring = coloring
        self.p1 = p1
        self.p2 = p2
        self.ws = ws
        self.qs = qs
        self.star = sub.without([p1, p2])
        self.on_cycle = self._on_cycle_map()

    def _on_cycle_map(self):
        comps = strong_components(self.star)
        big = {v for comp in comps if len(comp) >= 2 for v in comp}
        return {x: (x in big) for x in self.ws + self.qs}

    def in_ids(self, x):
        return [a for _, a in self.star.in_arcs(x)]

    def out_ids(self, x):
        return [a for _, a in self.star.out_arcs(x)]

    def col_in(self, x):
        ids = self.in_ids(x)
        if not ids:
            return None
        cols = {self.coloring[a] for a in ids}
        if len(cols) != 1:  # pragma: no cover - would witness broken specialness
            raise AssertionError(f"in-class of {x} lost monochromaticity")
        return cols.pop()

    def col_out(self, x):
        ids = self.out_ids(x)
        if not ids:
            return None
        cols = {self.coloring[a] for a in ids}
        if len(cols) != 1:  # pragma: no cover
            raise AssertionError(f"out-class of {x} lost monochromaticity")
        return cols.pop()

    def set_in(self, x, c):
        for a in self.in_ids(x):
            self.coloring[a] = c

    def set_out(self, x, c):
        for a in self.out_ids(x):
            self.coloring[a] = c

    def make_special(self):
        """Recolor everything at off-cycle attachment vertices to color 1."""
        for x in self.ws + self.qs:
            if not self.on_cycle[x]:
                self.set_in(x, 1)
                self.set_out(x, 1)
        for x in self.ws + self.qs:
            for ids in (self.in_ids(x), self.out_ids(x)):
                cols = {self.coloring[a] for a in ids}
                if len(cols) > 1:  # pragma: no cover - degree forces size 1
                    raise AssertionError("attachment class not monochromatic")

    def swap_in_out(self, x):
        ci, co = self.col_in(x), self.col_out(x)
        if ci is None or co is None:
            raise GraphError("swap needs both classes nonempty")
        self.set_in(x, co)
        self.set_out(x, ci)

    def apply_action(self, x, new_in, new_out):
        """Install a reachable (in, out) color pair at x (see candidate_pairs)."""
        if new_in is not None:
            self.set_in(x, new_in)
        if new_out is not None:
            self.set_out(x, new_out)

    def candidate_pairs(self, x):
        """Reachable (in_color, out_color) pairs at x, each preserving goodness.

        Off-cycle vertices recolor freely (their arcs lie on no cycle of the
        reduced graph).  On-cycle vertices have exactly one arc in and one out:
        the pair may be swapped, and when the two colors coincide either side
        may be recolored arbitrarily.
        """
        ci, co = self.col_in(x), self.col_out(x)
        pairs = {(ci, co)}
        if not self.on_cycle[x]:
            ins = range(1, 6) if ci is not None else (None,)
            outs = range(1, 6) if co is not None else (None,)
            return [(a, b) for a in ins for b in outs]
        if ci is not None and co is not None:
            pairs.add((co, ci))
            if ci == co:
                for c in range(1, 6):
                    pairs.add((ci, c))
                    pairs.add((c, co))
        return sorted(pairs, key=lambda p: (p != (ci, co), p))


def _special_five(sub: View, coloring: dict, path) -> None:
    """g = 5 with an adjacent (1,2) -> (2,1) pair: thread five colors through it."""
    p1, p2 = path
    ws = sorted(u for u, _ in sub.in_arcs(p1))
    qs = sorted(u for u, _ in sub.out_arcs(p2) if u != p1)
    if len(ws) != 2 or len(qs) != 2:  # pragma: no cover - class signatures
        raise AssertionError("attachment structure broken")
    if set(ws) & set(qs):  # pragma: no cover - would be a short cycle
        raise AssertionError("attachment vertices collide")
    star = sub.without([p1, p2])
    _color_subgraph(star, 5, coloring)
    sp = _Special(sub, coloring, p1, p2, ws, qs)
    sp.make_special()

    w1, w2 = ws
    q1, q2 = qs

    w_adj = sub.has_arc(w1, w2) or sub.has_arc(w2, w1)
    q_adj = sub.has_arc(q1, q2) or sub.has_arc(q2, q1)
    if w_adj and q_adj:
        if sub.has_arc(w2, w1):
            w1, w2 = w2, w1
        if sub.has_arc(q1, q2):
            q1, q2 = q2, q1
        _force_both_sides(sp, w1, w2, q1, q2)
    elif w_adj:
        if sub.has_arc(w2, w1):
            w1, w2 = w2, w1
        _force_w_side(sp, w1, w2, q1, q2, adjacent=True)
    elif q_adj:
        _force_q_side(sp, w1, w2, q1, q2)
    elif any(sub.has_arc(w, q) for w in ws for q in qs):
        _crosslink_path(sp, w1, w2, q1, q2)
    else:
        _normalize_and_finish(sp, w1, w2, q1, q2)


def _bridge(sp: _Special, w1, w2, q1, q2, cw1, cw2, c3, cq1, cq2) -> None:
    sub = sp.sub
    sp.coloring[sub.d.arc_id(w1, sp.p1)] = cw1
    sp.coloring[sub.d.arc_id(w2, sp.p1)] = cw2
    sp.coloring[sub.d.arc_id(sp.p1, sp.p2)] = c3
    sp.coloring[sub.d.arc_id(sp.p2, q1)] = cq1
    sp.coloring[sub.d.arc_id(sp.p2, q2)] = cq2


def _force_both_sides(sp: _Special, w1, w2, q1, q2) -> None:
    """Both sides adjacent (w1 -> w2 and q2 -> q1): force a color on each side.

    Every cycle through the removed pair is forced through a w-side color and
    a q-side color; once those two differ, the three bridge levels take the
    remaining colors.  When they coincide, the w-side color is moved first by
    a legal swap or duplicate-recolor at w1.
    """
    sub = sp.sub
    c1 = sp.col_in(w1)
    cq = sp.col_out(q1)
    if sub.indeg(w2) == 2:
        sp.set_in(w2, c1)
    if sub.outdeg(q2) == 2:
        sp.set_out(q2, cq)
    if c1 == cq:
        if sp.col_out(w1) is not None and sp.col_out(w1) != c1:
            sp.swap_in_out(w1)
        else:
            choice = min(c for c in range(1, 6) if c != c1)
            sp.set_in(w1, choice)
        c1 = sp.col_in(w1)
        if sub.indeg(w2) == 2:
            sp.set_in(w2, c1)
    if c1 == cq:  # pragma: no cover - the move above always separates them
        raise AssertionError("could not separate the two forced colors")
    c2, c3, c4 = [c for c in range(1, 6) if c not in (c1, cq)]
    _bridge(sp, w1, w2, q1, q2, c2, c2, c3, c4, c4)


def _force_w_side(sp: _Special, w1, w2, q1, q2, adjacent: bool) -> None:
    """Every cycle through p1 already sees c1 on the w side; fan out the rest.

    Entered either with w1 -> w2 an arc (then w2's in-class may need recoloring
    to c1) or with both in-classes already sharing c1.  The q's are known to be
    non-adjacent here, so steering one never disturbs the other.
    """
    sub = sp.sub
    if sub.has_arc(q1, q2) or sub.has_arc(q2, q1):  # pragma: no cover - driver dispatch order
        raise AssertionError("q adjacency must be dispatched before w forcing")
    c1 = sp.col_in(w1)
    if adjacent and sub.indeg(w2) == 2:
        sp.set_in(w2, c1)
    for q in (q1, q2):
        if sp.col_out(q) == c1:
            _steer_out_away(sp, q, {c1})
        if sp.col_out(q) == c1:  # pragma: no cover - the steer must land
            raise AssertionError("could not move an out-class off the forced color")
    b1, b2 = sp.col_out(q1), sp.col_out(q2)
    if b1 == b2:
        c2, c3, c4 = [c for c in range(1, 6) if c not in (c1, b1)]
        _bridge(sp, w1, w2, q1, q2, c2, c2, c3, c4, c4)
    else:
        c2, c3 = [c for c in range(1, 6) if c not in (c1, b1, b2)]
        _bridge(sp, w1, w2, q1, q2, c2, c2, c3, b2, b1)


def _steer_out_away(sp: _Special, q, banned: set) -> None:
    """Make q's out-class color avoid ``banned`` using a legal move at q."""
    ci, co = sp.col_in(q), sp.col_out(q)
    if ci is not None and ci != co:
        sp.swap_in_out(q)
        if sp.col_out(q) not in banned:
            return
        sp.swap_in_out(q)
    choice = min(c for c in range(1, 6) if c not in banned and c != co)
    if ci is None or ci == co:
        sp.set_out(q, choice)
        return
    raise AssertionError("no legal steering move at attachment vertex")


def _steer_in_away(sp: _Special, w, banned: set) -> None:
    ci, co = sp.col_in(w), sp.col_out(w)
    if co is not None and co != ci:
        sp.swap_in_out(w)
        if sp.col_in(w) not in banned:
            return
        sp.swap_in_out(w)
    choice = min(c for c in range(1, 6) if c not in banned and c != ci)
    if co is None or co == ci:
        sp.set_in(w, choice)
        return
    raise AssertionError("no legal steering move at attachment vertex")


def _force_q_side(sp: _Special, w1, w2, q1, q2) -> None:
    """Mirror of the w-side forcing, entered when the q's are adjacent or equal.

    In the adjacent case the arc must run q2 -> q1 after renaming: a cycle
    leaving through q2 either continues into q1 (when q2 has no other out-arc)
    or along q2's out-class, recolored to match q1's.  The w's are known to be
    non-adjacent here.
    """
    sub = sp.sub
    if sub.has_arc(w1, w2) or sub.has_arc(w2, w1):  # pragma: no cover - driver dispatch order
        raise AssertionError("w adjacency must be dispatched before q forcing")
    if sub.has_arc(q1, q2):
        q1, q2 = q2, q1
    adjacent = sub.has_arc(q2, q1)
    c1 = sp.col_out(q1)
    if adjacent and sub.outdeg(q2) == 2:
        sp.set_out(q2, c1)
    for w in (w1, w2):
        if sp.col_in(w) == c1:
            _steer_in_away(sp, w, {c1})
        if sp.col_in(w) == c1:  # pragma: no cover
            raise AssertionError("could not move an in-class off the forced color")
    a1, a2 = sp.col_in(w1), sp.col_in(w2)
    if a1 == a2:
        c2, c3, c4 = [c for c in range(1, 6) if c not in (c1, a1)]
        _bridge(sp, w1, w2, q1, q2, c4, c4, c3, c2, c2)
    else:
        c2, c3 = [c for c in range(1, 6) if c not in (c1, a1, a2)]
        _bridge(sp, w1, w2, q1, q2, a2, a1, c3, c2, c2)


def _crosslink_path(sp: _Special, w1, w2, q1, q2) -> None:
    """Some w -> q arc exists: recolor along the path s1 w q s2 and finish."""
    sub = sp.sub
    found = None
    for w, q in ((w1, q1), (w1, q2), (w2, q1), (w2, q2)):
        if sub.has_arc(w, q):
            found = (w, q)
            break
    w, q = found
    if w != w1:
        w1, w2 = w2, w1
    if q != q1:
        q1, q2 = q2, q1
    # the three path arcs: into w1, w1 -> q1, out of q1
    a_in = sp.in_ids(w1)
    a_mid = [sub.d.arc_id(w1, q1)]
    a_out = sp.out_ids(q1)
    if len(a_in) != 1 or len(a_out) != 1:  # pragma: no cover - degree forced
        raise AssertionError("attachment path degrees broken")
    route = [a_in[0], a_mid[0], a_out[0]]
    _make_route_distinct(sp, route)
    c1, c2, c3 = [sp.coloring[a] for a in route]
    c4 = sp.col_in(w2)
    if c4 in (c1, c2, c3):
        _rotate_route(sp, route, first=c4)
        _force_w_side(sp, w1, w2, q1, q2, adjacent=False)
        return
    if sp.col_out(q2) == c4:
        _steer_out_away(sp, q2, {c4})
    c5 = sp.col_out(q2)
    if c5 in (c1, c2, c3):
        _rotate_route(sp, route, last=c5)
        _force_q_side(sp, w1, w2, q1, q2)
        return
    _bridge(sp, w1, w2, q1, q2, c4, c1, c2, c5, c3)


def _make_route_distinct(sp: _Special, route) -> None:
    """Give the three route arcs pairwise distinct colors (legal per the path rule)."""
    cols = [sp.coloring[a] for a in route]
    for i in range(3):
        if cols[i] in cols[:i]:
            free = min(c for c in range(1, 6) if c not in cols)
            sp.coloring[route[i]] = free
            cols[i] = free


def _rotate_route(sp: _Special, route, first=None, last=None) -> None:
    """Permute the route arc colors so a chosen color lands first or last."""
    cols = [sp.coloring[a] for a in route]
    target = first if first is not None else last
    i = cols.index(target)
    j = 0 if first is not None else 2
    cols[i], cols[j] = cols[j], cols[i]
    for a, c in zip(route, cols):
        sp.coloring[a] = c


def _reshape_moves(sp: _Special, w1, w2, q1, q2):
    """Search per-vertex moves for four distinct attachment colors or a forced side.

    Returns ("ok", moves) when the in-colors of the w's and the out-colors of
    the q's can become pairwise distinct, else "w" or "q" when that side's pair
    can be made to coincide.  ``moves`` lists (vertex, (in, out)) actions for
    ``_Special.apply_action``.  The underlying argument guarantees one of the
    three outcomes; anything else is a hard diagnostic.
    """
    cand = {x: sp.candidate_pairs(x) for x in (w1, w2, q1, q2)}
    for acts in itertools.product(cand[w1], cand[w2], cand[q1], cand[q2]):
        cols = (acts[0][0], acts[1][0], acts[2][1], acts[3][1])
        if None not in cols and len(set(cols)) == 4:
            return "ok", list(zip((w1, w2, q1, q2), acts))
    for pw1, pw2 in itertools.product(cand[w1], cand[w2]):
        if pw1[0] is not None and pw1[0] == pw2[0]:
            return "w", [(w1, pw1), (w2, pw2)]
    for pq1, pq2 in itertools.product(cand[q1], cand[q2]):
        if pq1[1] is not None and pq1[1] == pq2[1]:
            return "q", [(q1, pq1), (q2, pq2)]
    raise AssertionError("no reshaping reaches distinct or forced colors")


def _normalize_and_finish(sp: _Special, w1, w2, q1, q2) -> None:
    """No adjacencies: reach four distinct colors, or fall back to a forcing pipeline."""
    kind, moves = _reshape_moves(sp, w1, w2, q1, q2)
    for x, act in moves:
        sp.apply_action(x, *act)
    if kind == "ok":
        a1, a2 = sp.col_in(w1), sp.col_in(w2)
        b1, b2 = sp.col_out(q1), sp.col_out(q2)
        mid = [c for c in range(1, 6) if c not in (a1, a2, b1, b2)][0]
        _bridge(sp, w1, w2, q1, q2, a2, a1, mid, b2, b1)
    elif kind == "w":
        _force_w_side(sp, w1, w2, q1, q2, adjacent=False)
    else:
        _force_q_side(sp, w1, w2, q1, q2)


class SpecialColoringToolkit:
    """Public handle on the reshaping moves around a removed (p1, p2) arc.

    Wraps a good 5-coloring of D - {p1, p2} where p1 has in-degree 2 and out
    arc p1 -> p2, and p2 has out-degree 2.  ``make_special`` collapses the
    classes at the four attachment vertices to single colors; the other
    operations require a special coloring and preserve both goodness and
    specialness.  Misuse (a non-special coloring where one is required) is
    rejected.
    """

    def __init__(self, d: Digraph, p1: int, p2: int, coloring: dict):
        sub = View(d)
        if not sub.has_arc(p1, p2):
            raise GraphError("p1 -> p2 must be an arc")
        ws = sorted(u for u, _ in sub.in_arcs(p1))
        qs = sorted(u for u, _ in sub.out_arcs(p2) if u != p1)
        if len(ws) != 2 or len(qs) != 2 or set(ws) & set(qs):
            raise GraphError("attachment structure must be two in- and two out-vertices")
        self._sp = _Special(sub, dict(coloring), p1, p2, ws, qs)
        self.ws = tuple(ws)
        self.qs = tuple(qs)

    @property
    def coloring(self) -> dict:
        return dict(self._sp.coloring)

    def is_special(self) -> bool:
        for x in self.ws + self.qs:
            for ids in (self._sp.in_ids(x), self._sp.out_ids(x)):
                if len({self._sp.coloring[a] for a in ids}) > 1:
                    return False
        return True

    def _require_special(self):
        if not self.is_special():
            raise GraphError("operation requires a special coloring")

    def make_special(self) -> None:
        self._sp.make_special()

    def swap_in_out(self, x: int) -> None:
        self._require_special()
        if x not in self.ws + self.qs:
            raise GraphError("swap target must be an attachment vertex")
        self._sp.swap_in_out(x)

    def class_colors(self, x: int):
        self._require_special()
        return self._sp.col_in(x), self._sp.col_out(x)

    def normalize_distinct(self) -> str:
        """Reach four distinct attachment colors, or report a forced side.

        Returns "ok" when the in-colors of the two w's and the out-colors of
        the two q's become pairwise distinct, "w" or "q" when the legal moves
        instead make that side's pair coincide (the forcing configurations).
        """
        self._require_special()
        kind, moves = _reshape_moves(self._sp, *self.ws, *self.qs)
        for x, act in moves:
            self._sp.apply_action(x, *act)
        return kind


# ---------------------------------------------------------------------------
# exact minimum feedback vertex sets


@dataclass(frozen=True)
class FvsCertificate:
    """Exact minimum feedback vertex set with the half-order bound noted.

    ``within_half`` records whether 2|S| <= n; the digon-odd-cycle family,
    needing (n+1)/2, is the only connected max-degree-4 exception and is
    flagged separately.
    """

    vertices: tuple
    minimum: bool
    within_half: bool
    exceptional: bool


FVS_EXACT_MAX_N = 24


def fvs_exact(d, max_n: int = FVS_EXACT_MAX_N) -> FvsCertificate:
    """Minimum feedback vertex set by increasing-size search.

    Iterative deepening on the answer size; each level branches on the
    vertices of a shortest remaining cycle, which is exhaustive.  That cycle
    is computed once per removed set and reused by later levels.  Works for
    plain and multi digraphs (parallel arcs are irrelevant to vertex sets).
    Refuses n beyond the budget.
    """
    if d.n > max_n:
        raise BudgetError(f"exact FVS refused for n={d.n} > {max_n}")
    full = View(Digraph(d.n, sorted(set(d.arcs))))
    cycles = {}  # removed set -> its shortest cycle, shared by all levels

    def solve(removed, budget):
        if removed not in cycles:
            cycles[removed] = shortest_cycle(full.without(removed))
        cyc = cycles[removed]
        if cyc is None:
            return set(removed)
        if budget == 0:
            return None
        for v in cyc:
            res = solve(removed | {v}, budget - 1)
            if res is not None:
                return res
        return None

    for k in range(d.n + 1):
        res = solve(frozenset(), k)
        if res is not None:
            s = tuple(sorted(res))
            exceptional = is_digon_odd_cycle(full.d)
            within = 2 * len(s) <= d.n
            return FvsCertificate(s, True, within, exceptional)
    raise AssertionError("unreachable: removing all vertices is acyclic")


def fvs_brute(d, max_n: int = 14):
    """Independent oracle: smallest vertex subset whose removal is acyclic."""
    if d.n > max_n:
        raise BudgetError(f"brute force refused for n={d.n} > {max_n}")
    arcs = sorted(set(d.arcs))
    for k in range(d.n + 1):
        for combo in itertools.combinations(range(d.n), k):
            drop = set(combo)
            keep = [uv for uv in arcs if uv[0] not in drop and uv[1] not in drop]
            idx = {v: i for i, v in enumerate(x for x in range(d.n) if x not in drop)}
            sub = Digraph(d.n - k, [(idx[u], idx[v]) for u, v in keep])
            if is_acyclic(sub)[0]:
                return combo
    return tuple(range(d.n))


# ---------------------------------------------------------------------------
# feedback arc sets of size a(D)/6 for max degree 3, girth >= 6


def fas_sixth(d: Digraph, check: bool = True) -> tuple:
    """FAS of size at most a(D)/6 for digon-free max-degree-3 girth >= 6 inputs.

    Mirrors the matching-contraction argument: reduction rules peel forced
    configurations (each contributing one arc against at least six removed),
    and the irreducible strongly connected core is contracted along its
    out-heavy/in-heavy matching to a degree-4 multigraph whose minimum
    feedback vertex set picks the answer arcs.  Returns a tuple of arc ids.
    """
    from .digraph import INFINITE

    if max_degree(d) > 3:
        raise GraphError("maximum degree must be at most 3")
    if d.has_digon():
        raise GraphError("input must be digon-free")
    gg = girth(d)
    if gg is not INFINITE and gg < 6:
        raise GraphError(f"girth {gg} below 6")
    fas = sorted(_fas6_solve(View(d)))
    if check:
        removed = set(fas)
        keep = [uv for a, uv in enumerate(d.arcs) if a not in removed]
        ok, _ = is_acyclic(Digraph(d.n, keep))
        if not ok:
            raise AssertionError("constructed arc set is not a feedback arc set")
        if 6 * len(fas) > d.m:
            raise AssertionError("constructed FAS exceeds one sixth of the arcs")
    return tuple(fas)


def _fas6_solve(sub: View):
    comps = strong_components(sub)
    if len(comps) > 1 or (comps and len(comps[0]) < len(sub.active)):
        out = []
        for comp in comps:
            if len(comp) >= 2:
                out.extend(_fas6_strong(View(sub.d, comp)))
        return out
    if not comps or len(comps[0]) < 2:
        return []
    return _fas6_strong(sub)


def _fas6_strong(sub: View):
    """One strongly connected piece; apply the first reduction that fits."""
    xplus = sorted(v for v in sub.active if (sub.outdeg(v), sub.indeg(v)) == (2, 1))
    xminus = sorted(v for v in sub.active if (sub.outdeg(v), sub.indeg(v)) == (1, 2))
    if not xplus and not xminus:
        # a bare directed cycle: one arc suffices
        return [min(a for a in sub.arc_ids())]

    paths, x_of, y_of = _x0_paths(sub, set(xplus), set(xminus))

    for i, p in enumerate(paths):
        if x_of[i] == y_of[i]:  # pragma: no cover - breaks strong connectivity
            raise AssertionError("path closes on its own attachment")

    xplus_set, xminus_set = set(xplus), set(xminus)
    # rule: attachment in the in-heavy class with a long middle path
    for i, p in enumerate(paths):
        if x_of[i] in xminus_set and len(p) >= 3:
            a = sub.d.arc_id(x_of[i], p[0])
            return [a] + _fas6_solve(sub.without(p + [x_of[i]]))
        if y_of[i] in xplus_set and len(p) >= 3:
            a = sub.d.arc_id(p[-1], y_of[i])
            return [a] + _fas6_solve(sub.without(p + [y_of[i]]))
    # rule: both attachments heavy on the wrong side
    for i, p in enumerate(paths):
        if x_of[i] in xminus_set and y_of[i] in xplus_set:
            a = sub.d.arc_id(x_of[i], p[0])
            return [a] + _fas6_solve(sub.without(p + [x_of[i], y_of[i]]))
    # rule: the out-heavy class is not independent
    hit = _class_arc(sub, xplus_set)
    if hit is not None:
        v1 = hit[0]
        while True:
            pred = [u for u, _ in sub.in_arcs(v1) if u in xplus_set]
            if not pred:
                break
            v1 = pred[0]
        v2 = [u for u, _ in sub.out_arcs(v1) if u in xplus_set][0]
        vp = [u for u, _ in sub.in_arcs(v1)][0]
        a = sub.d.arc_id(vp, v1)
        return [a] + _fas6_solve(sub.without([v1, v2, vp]))
    # mirror: the in-heavy class is not independent
    hit = _class_arc(sub, xminus_set)
    if hit is not None:
        vend = hit[1]
        while True:
            succ = [u for u, _ in sub.out_arcs(vend) if u in xminus_set]
            if not succ:
                break
            vend = succ[0]
        vprev = [u for u, _ in sub.in_arcs(vend) if u in xminus_set][0]
        vn = [u for u, _ in sub.out_arcs(vend)][0]
        a = sub.d.arc_id(vend, vn)
        return [a] + _fas6_solve(sub.without([vend, vprev, vn]))
    # rule: both attachments of some path in the out-heavy class
    for i, p in enumerate(paths):
        if x_of[i] in xplus_set and y_of[i] in xplus_set:
            xs = x_of[i]
            pre = [u for u, _ in sub.in_arcs(xs)][0]
            a = sub.d.arc_id(pre, xs)
            return [a] + _fas6_solve(sub.without(p + [xs, y_of[i], pre]))
        if x_of[i] in xminus_set and y_of[i] in xminus_set:
            ys = y_of[i]
            nxt = [u for u, _ in sub.out_arcs(ys)][0]
            a = sub.d.arc_id(ys, nxt)
            return [a] + _fas6_solve(sub.without(p + [x_of[i], ys, nxt]))
    # rule: a path's exit arcs back into its entry
    for i, p in enumerate(paths):
        yv, xv = y_of[i], x_of[i]
        if sub.has_arc(yv, xv):
            a = sub.d.arc_id(yv, xv)
            return [a] + _fas6_solve(sub.without(p + [xv, yv]))
    return _fas6_terminal(sub, xplus, xminus, paths, x_of, y_of)


def _x0_paths(sub: View, xplus: set, xminus: set):
    """Maximal balanced-class paths with their entry and exit attachments."""
    x0 = [v for v in sorted(sub.active) if (sub.outdeg(v), sub.indeg(v)) == (1, 1)]
    x0set = set(x0)
    seen = set()
    paths, x_of, y_of = [], [], []
    for v in x0:
        if v in seen:
            continue
        start = v
        while True:
            prev = [u for u, _ in sub.in_arcs(start)][0]
            if prev in x0set and prev not in seen and prev != v:
                start = prev
                if start == v:  # pragma: no cover - pure cycle handled earlier
                    break
            else:
                break
        path = [start]
        seen.add(start)
        while True:
            nxt = [u for u, _ in sub.out_arcs(path[-1])][0]
            if nxt in x0set:
                path.append(nxt)
                seen.add(nxt)
            else:
                break
        paths.append(path)
        x_of.append([u for u, _ in sub.in_arcs(path[0])][0])
        y_of.append([u for u, _ in sub.out_arcs(path[-1])][0])
    return paths, x_of, y_of


def _class_arc(sub: View, cls: set):
    for u in sorted(cls):
        for v, _ in sorted(sub.out_arcs(u)):
            if v in cls:
                return (u, v)
    return None


def _fas6_terminal(sub: View, xplus, xminus, paths, x_of, y_of):
    """Irreducible core: contract the matching and take an exact FVS."""
    verts = sorted(set(xplus) | set(xminus))
    idx = {v: i for i, v in enumerate(verts)}
    marcs = []
    mids = []
    for u in xminus:
        outs = [(w, a) for w, a in sub.out_arcs(u)]
        (w, a) = outs[0]
        if w not in idx or w not in set(xplus):  # pragma: no cover
            raise AssertionError("matching arc misses the out-heavy class")
        marcs.append((u, w))
        mids.append(a)
    pair_of = {}
    for j, (u, w) in enumerate(marcs):
        pair_of[u] = j
        pair_of[w] = j
    if len(pair_of) != 2 * len(marcs):  # pragma: no cover
        raise AssertionError("matching is not a perfect pairing")
    carcs = []
    for u in verts:
        for w, a in sub.out_arcs(u):
            if w in idx and a not in set(mids):
                carcs.append((pair_of[u], pair_of[w]))
    for i in range(len(paths)):
        carcs.append((pair_of[x_of[i]], pair_of[y_of[i]]))
    core = MultiDigraph(len(marcs), carcs)
    cert = fvs_exact(core)
    return [mids[j] for j in cert.vertices]
