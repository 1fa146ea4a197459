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

Both recursions run as one loop over one ``Peel`` (``_strong_pieces``): a
strong piece is split again only where it lost vertices, and the case scans
are heaps kept up to date, so no input size exhausts the interpreter's stack.

Every constructed object is re-verified before being returned; a failure of a
case the argument says cannot fail raises a hard diagnostic rather than being
patched over.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass

from .certcheck import check_coloring, check_fas_sixth, check_fvs
from .digraph import (
    BudgetError,
    Digraph,
    GraphError,
    MultiDigraph,
    Peel,
    _shortest_cycle,
    require_orgraph,
)
from .generators import is_digon_odd_cycle


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
    require_orgraph(d, 3, g)
    pl, colors = Peel(d), {}

    def cut(arcs):
        # arcs between strong parts lie on no cycle
        for a in arcs:
            colors[a] = 1

    chains = _Chains(pl)
    _strong_pieces(pl, chains, lambda start: _color_strong(pl, g, colors, chains, start), cut)
    coloring = {a: colors[a] for a in sorted(colors)}
    if len(coloring) != d.m:  # pragma: no cover - would witness a gap
        raise AssertionError("construction left arcs uncolored")
    if check:
        ok, color = check_coloring(d, coloring, g)
        if not ok:
            raise AssertionError(f"construction produced a bad coloring: color {color}")
    return coloring


def _strong_pieces(pl: Peel, scan, step, cut=None) -> None:
    """Run a proof's recursion into strong pieces as a loop over one Peel.

    ``scan`` is the proof's case scan, one for the whole run, and
    ``step(start)`` takes the first case that fits the piece and deletes that
    case's vertices: it returns None when the piece is finished, else
    ``(fix, watch)``.  What is left of the piece is then split again, ``cut``
    gets the ids of the arcs cut between its components, ``watch`` maps
    vertices to whether they still lie on a cycle of their piece, and ``fix``
    runs once everything split off is done.  The component ``Peel.split``
    certified goes last, so it is split again first, and the scan is updated
    at the vertices whose arcs changed.  Any other component runs its first
    case before its first split, with ``Peel.piece`` set to its vertices and
    the scan updated at all of them.  The scan checks every entry at the top
    (piece membership, version, the case's tests computed again), and a
    piece starts by walking all its vertices again, so the least valid entry
    is the one a scan built fresh for the piece would give.
    """
    todo = []

    def split(verts, root, watch):
        new_root, comps, arcs, touched = pl.split(verts, root)
        if cut is not None:
            cut(arcs)
        for x in watch or ():
            watch[x] = x in pl.out
        todo.extend((comp, None) for comp in reversed(comps))
        if new_root is not None:
            scan.update(touched)
            todo.append((None, new_root))

    split(sorted(pl.out), None, None)
    while todo:
        piece = todo.pop()
        if callable(piece):
            piece()
            continue
        verts, root = piece
        if root is None:
            pl.piece = set(verts)
            scan.update(verts)
        done = step(verts[0] if root is None else root)
        if done is not None:
            fix, watch = done
            if fix is not None:
                todo.append(fix)
            split(verts, root, watch)


def _color_strong(pl: Peel, g: int, coloring, chains, start: int):
    """Strongly connected piece: peel a shortest (in-heavy, out-heavy)-path.

    Returns the case's fix-up and watch map, or None when the piece was a
    single cycle (through ``start``) and is done.
    """
    path = chains.best()
    if path is None:
        _color_single_cycle(pl, g, coloring, _bare_cycle(pl, start))
        return None
    l = len(path)
    if l >= g - 1:
        return _peel_long_path(pl, g, coloring, path), None
    if l == g - 2:
        return _peel_short_path(pl, g, coloring, path), None
    if not (g == 5 and l == 2):  # pragma: no cover - l >= 2 always
        raise AssertionError(f"unexpected path length {l} for g={g}")
    return _special_five(pl, coloring, path)


def _bare_cycle(pl: Peel, start: int):
    """The (vertex, out-arc id) steps around a strong piece from ``start``
    when the piece is one directed cycle, else None."""
    v, steps = start, []
    while not steps or v != start:
        if len(pl.out[v]) != 1 or len(pl.inn[v]) != 1:
            return None
        ((w, a),) = pl.out[v]
        steps.append((v, a))
        v = w
    return steps


def _color_single_cycle(pl: Peel, g: int, coloring, steps) -> None:
    # the piece has no path between degree classes, so it is one directed
    # cycle of length >= g, colored around from its lowest vertex
    if steps is None:  # pragma: no cover - strong connectivity
        raise AssertionError("no path between degree classes in a strong digraph")
    if len(steps) < g:  # pragma: no cover - girth precondition
        raise AssertionError("cycle shorter than g")
    i0 = steps.index(min(steps))
    for i, (v, a) in enumerate(steps[i0:] + steps[:i0]):
        coloring[a] = (i % g) + 1
    for v, _ in steps:
        pl.delete(v)


def _balanced_path(pl: Peel, w):
    """The maximal path of (1,1) vertices through the (1,1) vertex w of a
    strong piece, with the vertex before it and the vertex after it."""
    out, inn = pl.out, pl.inn
    s = w
    while True:
        u = inn[s][0][0]
        if u == w or len(out[u]) != 1 or len(inn[u]) != 1:
            break
        s = u
    path = [s]
    while True:
        z = out[path[-1]][0][0]
        if z == s or len(out[z]) != 1 or len(inn[z]) != 1:
            break
        path.append(z)
    return path, inn[s][0][0], out[path[-1]][0][0]


class _Chains:
    """A strong piece's (1,2) vertices by their chains to the (2,1) class.

    The proof takes a shortest path from the (1,2) class to the (2,1) class
    with interior in the (1,1) class, by a BFS from every (1,2) vertex in
    increasing id.  In a strong max-degree-3 piece every (1,2) and (1,1)
    vertex has one out-arc and every (1,1) and (2,1) vertex one in-arc, so
    the BFS follows one chain of (1,1) vertices per source and returns the
    shortest chain that ends in the (2,1) class, the lowest source winning
    ties; chains into the (1,2) class die.  A heap keyed by (length, source)
    holds every live chain.  After deletions only the chains through vertices
    whose arcs changed are walked again; an entry is stale once its source
    leaves the piece (``Peel.piece``) or the class, or its chain is walked
    again.
    """

    __slots__ = ("pl", "heap", "ver")

    def __init__(self, pl: Peel):
        self.pl = pl
        self.heap = []
        self.ver = {}

    def update(self, touched) -> None:
        """Walk again the chains through ``touched``."""
        out, inn, ver = self.pl.out, self.pl.inn, self.ver
        seen = set()
        for v in touched:
            if v in seen:
                continue
            if len(out[v]) == 1 and len(inn[v]) == 1:  # back to the chain's source
                path, v, _ = _balanced_path(self.pl, v)
                seen.update(path)
            if v in seen or len(out[v]) != 1 or len(inn[v]) != 2:
                continue
            seen.add(v)
            ver[v] = k = ver.get(v, 0) + 1
            chain = [v]
            w = out[v][0][0]
            if len(out[w]) == 1 and len(inn[w]) == 1:
                path, _, w = _balanced_path(self.pl, w)
                chain += path
            if len(out[w]) == 2:
                chain.append(w)
                heapq.heappush(self.heap, (len(chain), v, k, chain))

    def best(self):
        """The proof's class path, or None when the (1,2) class is empty."""
        out, inn, heap = self.pl.out, self.pl.inn, self.heap
        while heap:
            _, u, k, path = heap[0]
            if u in self.pl.piece and self.ver[u] == k and len(out[u]) == 1 and len(inn[u]) == 2:
                return list(path)
            heapq.heappop(heap)
        return None


def _arc_ids(arcs):
    return [a for _, a in arcs]


def _peel_long_path(pl: Peel, g: int, coloring, path):
    """Path length >= g-1: remove it and wrap colors 1..g around it.

    Every cycle meeting the path is funnelled through all of it, entering p1
    by a color-1 arc and leaving the last vertex by a color-g arc.
    """
    d = pl.d
    into, outof = _arc_ids(pl.inn[path[0]]), _arc_ids(pl.out[path[-1]])
    for v in path:
        pl.delete(v)

    def fix():
        for a in into:
            coloring[a] = 1
        for i in range(1, len(path)):
            coloring[d.arc_id(path[i - 1], path[i])] = i + 1 if i + 1 <= g - 1 else 1
        for a in outof:
            coloring[a] = g

    return fix


def _peel_short_path(pl: Peel, g: int, coloring, path):
    """Path length g-2: three cases on the classes of the two in-neighbors of p1.

    Light in-neighbors (out-degree 1) go with the path; both heavy, only p1
    and p2 go and the proof permutes the colors of the rest by pi so the
    unique arcs into w1 and w2 cover {1, 2}; mixed, the light one goes and pi
    gives the heavy one's in-arc color 1.  For l = 3 in the heavy case the
    last path vertex stays behind as a source, so its outgoing arcs lie on no
    remaining cycle and take color 5 afterwards.

    The permutation pi is never applied to the rest: when the fix runs, the
    piece is a strong component whose arcs are the fix's own arcs and those
    colored since, so every cycle through them stays inside it.  Relabelling
    the whole piece by pi^-1 keeps its coloring good, and that is the rest as
    colored with each fix color c written as pi^-1(c).  Cases higher up read
    the colors they use when their own fix runs, so they need only that the
    rest is good.
    """
    d = pl.d
    out, inn = pl.out, pl.inn
    p1 = path[0]
    w_in = sorted(u for u, _ in inn[p1])
    if len(w_in) != 2:  # pragma: no cover - p1 is in the (1,2) class
        raise AssertionError("expected two in-neighbors")
    w1, w2 = w_in
    heavy = [w for w in (w1, w2) if (len(out[w]), len(inn[w])) == (2, 1)]
    # p1p2 takes 3, arcs out of p2 take 4, arcs out of p3 take 5 when present
    tail = [(d.arc_id(p1, path[1]), 3)]
    tail += [(a, 4) for _, a in out[path[1]]]
    if len(path) == 3:
        tail += [(a, 5) for _, a in out[path[2]]]

    if not heavy:
        into = _arc_ids(inn[w1]) + _arc_ids(inn[w2])
        drop = list(path) + [w1, w2]
    elif len(heavy) == 2:
        z1_arc, z2_arc = inn[w1][0][1], inn[w2][0][1]
        into, drop = [], path[:2]
    else:
        if heavy[0] == w1:
            w1, w2 = w2, w1
        # w1 light (out-degree 1), w2 heavy (2,1) with a unique in-arc
        z2_arc = inn[w2][0][1]
        into = _arc_ids(inn[w1])
        drop = [w1] + list(path)
    for v in drop:
        pl.delete(v)

    def fix():
        pi, c2 = {c: c for c in range(1, g + 1)}, 2
        if len(heavy) == 2:
            pi = _permute_colors(coloring[z1_arc], coloring[z2_arc], g)
            # w2's arc into p1 takes whichever of 1 and 2 its in-arc does not
            c2 = 3 - pi[coloring[z2_arc]]
        elif heavy:
            pi = _permute_colors(coloring[z2_arc], None, g)
        inv = {c: s for s, c in pi.items()}
        fixed = [(a, 1) for a in into] + [(d.arc_id(w1, p1), 2), (d.arc_id(w2, p1), c2)]
        for a, c in fixed + tail:
            coloring[a] = inv[c]

    return fix


def _permute_colors(first: int, second: int | None, g: int) -> dict:
    """The permutation of [1, g] taking ``first`` to 1, a different
    ``second`` to 2, and the other colors to the rest in increasing order."""
    src = [first] + ([second] if second not in (None, first) else [])
    src += [c for c in range(1, g + 1) if c not in src]
    return {s: t for t, s in enumerate(src, 1)}


# ------------------------- the g = 5, l = 2 machinery ----------------------


class _Special:
    """Special-coloring workbench around a removed (p1, p2) arc, g = 5.

    Tracks the four attachment vertices (the two in-neighbors of p1 and the
    two out-neighbors of p2) and keeps each one's in-class and out-class
    monochromatic through every transformation.  ``mirror`` is the same
    workbench on the converse digraph: in- and out-classes, the w's and the
    q's, and p1 and p2 trade places, so one routine written for the w side
    serves the q side too.  ``has`` and ``arc_id`` read arcs in the
    workbench's own direction.
    """

    def __init__(self, d, coloring, p1, p2, ws, qs, ins, outs, on_cycle):
        self.d = d
        self.coloring = coloring
        self.p1 = p1
        self.p2 = p2
        self.ws = ws
        self.qs = qs
        self.ins = ins
        self.outs = outs
        self.on_cycle = on_cycle
        self.flip = False

    def mirror(self):
        m = copy.copy(self)
        m.p1, m.p2, m.ws, m.qs = self.p2, self.p1, self.qs, self.ws
        m.ins, m.outs, m.flip = self.outs, self.ins, not self.flip
        return m

    def has(self, u, v):
        return self.d.has_arc(v, u) if self.flip else self.d.has_arc(u, v)

    def arc_id(self, u, v):
        return self.d.arc_id(v, u) if self.flip else self.d.arc_id(u, v)

    def _col(self, ids, x):
        if not ids:
            return None
        cols = {self.coloring[a] for a in ids}
        if len(cols) != 1:  # pragma: no cover - would witness broken specialness
            raise AssertionError(f"a class of {x} lost monochromaticity")
        return cols.pop()

    def col_in(self, x):
        return self._col(self.ins[x], x)

    def col_out(self, x):
        return self._col(self.outs[x], x)

    def set_in(self, x, c):
        for a in self.ins[x]:
            self.coloring[a] = c

    def set_out(self, x, c):
        for a in self.outs[x]:
            self.coloring[a] = c

    def make_special(self):
        """Recolor everything at off-cycle attachment vertices to color 1."""
        for x in self.ws + self.qs:
            if not self.on_cycle[x]:
                self.set_in(x, 1)
                self.set_out(x, 1)
        for x in self.ws + self.qs:
            # an on-cycle vertex keeps one arc in and one out, so both hold
            self.col_in(x)
            self.col_out(x)

    def swap_in_out(self, x):
        ci, co = self.col_in(x), self.col_out(x)
        if ci is None or co is None:
            raise GraphError("swap needs both classes nonempty")
        self.set_in(x, co)
        self.set_out(x, ci)

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


def _star(pl: Peel, p1, p2, xs):
    """Delete p1 and p2; the arc ids into and out of each x in xs that remain."""
    pl.delete(p1)
    pl.delete(p2)
    return {x: _arc_ids(pl.inn[x]) for x in xs}, {x: _arc_ids(pl.out[x]) for x in xs}


def _special_five(pl: Peel, coloring, path):
    """g = 5 with an adjacent (1,2) -> (2,1) pair: thread five colors through it."""
    d = pl.d
    p1, p2 = path
    ws = sorted(u for u, _ in pl.inn[p1])
    qs = sorted(u for u, _ in pl.out[p2] if u != p1)
    if len(ws) != 2 or len(qs) != 2:  # pragma: no cover - class signatures
        raise AssertionError("attachment structure broken")
    if set(ws) & set(qs):  # pragma: no cover - would be a short cycle
        raise AssertionError("attachment vertices collide")
    ins, outs = _star(pl, p1, p2, ws + qs)
    on_cycle = dict.fromkeys(ws + qs)

    def fix():
        sp = _Special(d, coloring, p1, p2, ws, qs, ins, outs, on_cycle)
        sp.make_special()
        w1, w2 = ws
        q1, q2 = qs
        has = sp.has
        w_adj = has(w1, w2) or has(w2, w1)
        q_adj = has(q1, q2) or has(q2, q1)
        if w_adj and q_adj:
            if has(w2, w1):
                w1, w2 = w2, w1
            if has(q1, q2):
                q1, q2 = q2, q1
            _force_both_sides(sp, w1, w2, q1, q2)
        elif w_adj:
            _force_side(sp, w1, w2, q1, q2)
        elif q_adj:
            _force_side(sp.mirror(), q1, q2, w1, w2)
        elif any(has(w, q) for w in ws for q in qs):
            _crosslink_path(sp, w1, w2, q1, q2)
        else:
            _normalize_and_finish(sp, w1, w2, q1, q2)

    return fix, on_cycle


def _bridge(sp: _Special, w1, w2, q1, q2, cw1, cw2, c3, cq1, cq2) -> None:
    arc_id = sp.arc_id
    sp.coloring[arc_id(w1, sp.p1)] = cw1
    sp.coloring[arc_id(w2, sp.p1)] = cw2
    sp.coloring[arc_id(sp.p1, sp.p2)] = c3
    sp.coloring[arc_id(sp.p2, q1)] = cq1
    sp.coloring[arc_id(sp.p2, q2)] = cq2


def _force_both_sides(sp: _Special, w1, w2, q1, q2) -> None:
    """Both sides adjacent (w1 -> w2 and q2 -> q1): force a color on each side.

    Every cycle through the removed pair is forced through a w-side color and
    a q-side color; once those two differ, the three bridge levels take the
    remaining colors.  When they coincide, the w-side color is moved first by
    a legal swap or duplicate-recolor at w1.
    """
    c1 = sp.col_in(w1)
    cq = sp.col_out(q1)
    if len(sp.ins[w2]) == 2:
        sp.set_in(w2, c1)
    if len(sp.outs[q2]) == 2:
        sp.set_out(q2, cq)
    if c1 == cq:
        if sp.col_out(w1) is not None and sp.col_out(w1) != c1:
            sp.swap_in_out(w1)
        else:
            choice = min(c for c in range(1, 6) if c != c1)
            sp.set_in(w1, choice)
        c1 = sp.col_in(w1)
        if len(sp.ins[w2]) == 2:
            sp.set_in(w2, c1)
    if c1 == cq:  # pragma: no cover - the move above always separates them
        raise AssertionError("could not separate the two forced colors")
    c2, c3, c4 = [c for c in range(1, 6) if c not in (c1, cq)]
    _bridge(sp, w1, w2, q1, q2, c2, c2, c3, c4, c4)


def _force_side(sp: _Special, w1, w2, q1, q2) -> None:
    """Every cycle through p1 already sees c1 on the w side; fan out the rest.

    Entered either with the w's adjacent, renamed so the arc runs w1 -> w2
    (then w2's in-class may need recoloring to c1: a cycle entering through
    w2 either comes from w1 or along that class), or with both in-classes
    already sharing c1.  The q's are known to be non-adjacent here, so
    steering one never disturbs the other.  On ``sp.mirror()`` this forces
    the q side.
    """
    if sp.has(q1, q2) or sp.has(q2, q1):  # pragma: no cover - _special_five dispatches it
        raise AssertionError("the other side's adjacency must be dispatched first")
    if sp.has(w2, w1):
        w1, w2 = w2, w1
    c1 = sp.col_in(w1)
    if sp.has(w1, w2) and len(sp.ins[w2]) == 2:
        sp.set_in(w2, c1)
    for q in (q1, q2):
        if sp.col_out(q) == c1:
            _steer_away(sp, q)
        if sp.col_out(q) == c1:  # pragma: no cover - the steer must land
            raise AssertionError("could not move a class off the forced color")
    b1, b2 = sp.col_out(q1), sp.col_out(q2)
    if b1 == b2:
        c2, c3, c4 = [c for c in range(1, 6) if c not in (c1, b1)]
        _bridge(sp, w1, w2, q1, q2, c2, c2, c3, c4, c4)
    else:
        c2, c3 = [c for c in range(1, 6) if c not in (c1, b1, b2)]
        _bridge(sp, w1, w2, q1, q2, c2, c2, c3, b2, b1)


def _steer_away(sp: _Special, q) -> None:
    """Move q's out-class off its color by a legal move at q.

    Swap the in- and out-class when their colors differ, else recolor the
    out-class to the least other color.
    """
    ci, co = sp.col_in(q), sp.col_out(q)
    if ci is not None and ci != co:
        sp.swap_in_out(q)
    else:
        sp.set_out(q, min(c for c in range(1, 6) if c != co))


def _crosslink_path(sp: _Special, w1, w2, q1, q2) -> None:
    """Some w -> q arc exists: recolor along the path s1 w q s2 and finish."""
    found = None
    for w, q in ((w1, q1), (w1, q2), (w2, q1), (w2, q2)):
        if sp.has(w, q):
            found = (w, q)
            break
    w, q = found
    if w != w1:
        w1, w2 = w2, w1
    if q != q1:
        q1, q2 = q2, q1
    # the three path arcs: into w1, w1 -> q1, out of q1
    a_in, a_out = sp.ins[w1], sp.outs[q1]
    if len(a_in) != 1 or len(a_out) != 1:  # pragma: no cover - degree forced
        raise AssertionError("attachment path degrees broken")
    route = [a_in[0], sp.arc_id(w1, q1), a_out[0]]
    _make_route_distinct(sp, route)
    c1, c2, c3 = [sp.coloring[a] for a in route]
    c4 = sp.col_in(w2)
    if c4 in (c1, c2, c3):
        _rotate_route(sp, route, first=c4)
        _force_side(sp, w1, w2, q1, q2)
        return
    if sp.col_out(q2) == c4:
        _steer_away(sp, q2)
    c5 = sp.col_out(q2)
    if c5 in (c1, c2, c3):
        _rotate_route(sp, route, last=c5)
        _force_side(sp.mirror(), q1, q2, w1, w2)
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
    can be made to coincide.  ``moves`` lists (vertex, (in, out)) colors from
    ``_Special.candidate_pairs``, None for an empty class.  The underlying
    argument guarantees one of the three outcomes; anything else is a hard
    diagnostic.
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
    for x, (c_in, c_out) in moves:
        # a None color belongs to an empty class, which has no arc to write
        sp.set_in(x, c_in)
        sp.set_out(x, c_out)
    if kind == "ok":
        a1, a2 = sp.col_in(w1), sp.col_in(w2)
        b1, b2 = sp.col_out(q1), sp.col_out(q2)
        mid = [c for c in range(1, 6) if c not in (a1, a2, b1, b2)][0]
        _bridge(sp, w1, w2, q1, q2, a2, a1, mid, b2, b1)
    elif kind == "w":
        _force_side(sp, w1, w2, q1, q2)
    else:
        _force_side(sp.mirror(), q1, q2, w1, w2)


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
    within_half: bool
    exceptional: bool


# fvs_exact refuses once its cycle searches times n would pass this, which
# bounds its memo of removed sets, not time (a search may run a BFS per root).
# fas_sixth's 249-pair core of the matching expansion of circulant_digraph(249,
# [1, 5]) needs 5.8 M and the 349-pair core 15.5 M.  On CPython 3.11, 2 vCPUs,
# a refused search held at most 483 MiB peak RSS (on 750 disjoint directed
# 4-cycles), and took 9 s on that expansion at n = 399.
_FVS_WORK_BUDGET = 2 * 10**7
_FVS_BRUTE_MAX_N = 14


def fvs_exact(d) -> FvsCertificate:
    """Minimum feedback vertex set by increasing-size search.

    Iterative deepening on the answer size k; each level is a depth-first
    search, on an explicit stack, that branches on the vertices of a shortest
    remaining cycle, which is exhaustive, and a node's budget is k less the
    vertices it removed.  That cycle is computed once per removed set and
    reused by later levels.  Works for plain and multi digraphs (parallel
    arcs are irrelevant to vertex sets).  Raises BudgetError once the cycle
    searches times n would pass ``_FVS_WORK_BUDGET``.

    Deleting vertices never shortens a cycle, so the length of the parent's
    cycle is a lower bound on the girth after one more deletion, and the
    cycle search stops at the first root that meets it.  The search returns
    the same cycle for any floor up to the girth, so a removed set reached
    along different branches keeps one cycle and the memo stays valid.

    Child i, which removes ``cyc[i]``, keeps ``cyc[:i]``: it is popped only
    after every earlier child failed, so no solution within the budget in its
    subtree removes a kept vertex.  A node's packing is its greedy chain: its
    own cycle C_1, then the chain of what deleting the non-kept vertices of
    C_1 leaves.  The chain's cycles share only kept vertices, so a solution
    in the node's subtree removes one vertex of each.  Three cuts drop only
    subtrees that hold no solution within the budget, so the search returns
    the same first solution as without them:

    - the chain is walked, through the cycle memo, only until it holds more
      cycles than the node's budget or a cycle that is all kept, the node's
      own among them; either makes the node dead.  That is the decision the
      full chain gives, with no search past it.  The deepening starts at the
      size of the root's full chain, where nothing is kept;
    - an alive node's chain is complete, C_1 to C_q with q at most its budget
      b, and it hands its children q and the non-kept vertices U of C_2 to
      C_q, one object for all of them.  Child i removes ``cyc[i]``, a
      non-kept vertex of C_1, and keeps ``cyc[:i]``.  C_2 to C_q avoid every
      non-kept vertex of C_1, so they are cycles of the child's digraph, U
      is still not kept, and they still meet each other only in kept
      vertices.  A child whose own shortest cycle has no non-kept vertex in U
      adds that cycle to them: q cycles against a budget of b - 1, so when
      q = b the child is dead without a walk of its own;
    - child i >= 1 is skipped when ``cyc[i]`` has one live in-neighbour,
      necessarily ``cyc[i-1]``: every cycle through ``cyc[i]`` passes it, so
      swapping ``cyc[i]`` for ``cyc[i-1]`` turns a solution of child i's
      subtree into one of the same size that removes ``cyc[i-1]`` and keeps
      ``cyc[:i-1]``, a subtree searched before (child i-1, or the earlier
      child of an ancestor that kept ``cyc[i-1]``).  Child 0 is never
      skipped, as its in-neighbour ``cyc[-1]`` is popped after it.

    Undeletable vertices are from the bounded search trees for directed
    feedback sets of Chen, Liu, Lu, O'Sullivan & Razgon (J. ACM 2008), and
    the in-degree-one reduction from Levy & Low (J. Algorithms 1988).
    """
    simple = Digraph(d.n, sorted(set(d.arcs)))
    inn = simple._in
    cycles = {}  # removed set -> its shortest cycle, shared by all levels
    searches = _FVS_WORK_BUDGET // max(d.n, 1)  # the most cycle searches allowed

    def cycle(removed, floor):
        if removed not in cycles:
            if len(cycles) >= searches:
                raise BudgetError(f"exact FVS refused for n={d.n} after {len(cycles)} cycle searches")
            cycles[removed] = _shortest_cycle(simple, removed, floor)
        return cycles[removed]

    def packing(removed, kept, cyc, budget):
        """The node's chain from its own cycle cyc, walked no further than budget:
        None when it proves the node dead, else its size q and the non-kept
        vertices of all its cycles but the first."""
        q, r, first = 0, removed, removed
        while cyc is not None:
            free = [v for v in cyc if v not in kept]
            if not free or q == budget:
                return None
            q, r = q + 1, r.union(free)
            if q == 1:
                first = r
            cyc = cycle(r, len(cyc))
        return q, r - first

    for k in range(packing(frozenset(), frozenset(), cycle(frozenset(), 2), d.n)[0], d.n + 1):
        # child i of the node (removed, kept) with cycle cyc and packing (q, U),
        # built when popped; the root's cyc is ()
        stack = [(frozenset(), frozenset(), (), 0, None)]
        while stack:
            removed, kept, cyc, i, inherited = stack.pop()
            removed, kept, floor = removed.union(cyc[i : i + 1]), kept.union(cyc[:i]), len(cyc) or 2
            cyc = cycle(removed, floor)
            if cyc is None:
                s = tuple(sorted(removed))
                ok, what = check_fvs(d, s)
                if not ok:  # pragma: no cover - would witness a search bug
                    raise AssertionError(f"fvs_exact returned {s}, but {what}")
                return FvsCertificate(s, 2 * len(s) <= d.n, is_digon_odd_cycle(simple))
            budget = k - len(removed)
            if inherited and inherited[0] > budget and inherited[1].isdisjoint([v for v in cyc if v not in kept]):
                continue
            inherited = packing(removed, kept, cyc, budget)
            if inherited is None:
                continue
            for i in reversed(range(len(cyc))):
                if cyc[i] in kept or (i and sum(u not in removed for u, _ in inn[cyc[i]]) == 1):
                    continue
                stack.append((removed, kept, cyc, i, inherited))
    raise AssertionError("unreachable: removing all vertices is acyclic")


def fvs_brute(d):
    """Independent oracle: smallest vertex subset whose removal is acyclic."""
    if d.n > _FVS_BRUTE_MAX_N:
        raise BudgetError(f"brute force refused for n={d.n} > {_FVS_BRUTE_MAX_N}")
    for k in range(d.n + 1):
        for combo in itertools.combinations(range(d.n), k):
            if check_fvs(d, combo)[0]:
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
    Raises BudgetError only when ``fvs_exact`` spends its work budget on the
    core, as on the 399-pair core of the matching expansion of
    circulant_digraph(399, [1, 5]).
    """
    require_orgraph(d, 3, 6)
    pl, fas = Peel(d), []
    red = _Reductions(pl)

    def step(start):
        arcs, drop = red.first(start)
        fas.extend(arcs)
        if not drop:
            return None
        for v in sorted(set(drop)):
            pl.delete(v)
        return None, None

    _strong_pieces(pl, red, step)
    fas.sort()
    if check:
        ok, why = check_fas_sixth(d, fas)
        if not ok:
            raise AssertionError(f"constructed FAS fails its check: {why}")
    return tuple(fas)


class _Reductions:
    """The first reduction of the proof that fits a strong piece.

    The proof scans, in this order: the balanced-class paths by lowest vertex
    for a path of three or more with an in-heavy entry or an out-heavy exit
    (rule 0), then for an in-heavy entry and out-heavy exit (rule 1); the
    out-heavy and then the in-heavy class by lowest vertex for an arc inside
    the class; the paths again for both attachments in one heavy class (rule
    2), and for an arc from exit back to entry (rule 3).  A piece no rule fits
    is one bare cycle or else the irreducible core.  The scans are heaps kept
    up to date as the piece loses vertices: the path heap holds (rule, lowest
    vertex) for every rule a path passed when last walked, the class heaps
    every vertex of the class.  Classes only move to the balanced class, so a
    class heap never gains an entry; a path changes only through vertices
    whose arcs changed, and those paths are walked again.  Entries are checked
    at the top; one whose vertex left the piece (``Peel.piece``) is stale.
    """

    __slots__ = ("pl", "plus", "minus", "paths")

    def __init__(self, pl: Peel):
        self.pl = pl
        self.plus, self.minus, self.paths = [], [], []

    def _sig(self, v):
        return len(self.pl.out[v]), len(self.pl.inn[v])

    def _tests(self, path, x, y):
        sx, sy = self._sig(x), self._sig(y)
        return (
            len(path) >= 3 and (sx == (1, 2) or sy == (2, 1)),
            sx == (1, 2) and sy == (2, 1),
            sx == sy and sx in ((2, 1), (1, 2)),
            self.pl.d.has_arc(y, x),
        )

    def update(self, touched) -> None:
        """Walk again the paths at ``touched``."""
        out, inn = self.pl.out, self.pl.inn
        seen = set()
        for v in touched:
            sig = self._sig(v)
            if sig in ((2, 1), (1, 2)):
                heapq.heappush(self.plus if sig == (2, 1) else self.minus, v)
            for w in [v] + [u for u, _ in out[v]] + [u for u, _ in inn[v]]:
                if w in seen or self._sig(w) != (1, 1):
                    continue
                path, x, y = _balanced_path(self.pl, w)
                seen.update(path)
                key = min(path)
                for rule, ok in enumerate(self._tests(path, x, y)):
                    if ok:
                        heapq.heappush(self.paths, (rule, key))

    def _top_path(self, last: int):
        """(rule, path, entry, exit) of the first path passing a rule up to
        ``last``, or None."""
        heap = self.paths
        while heap and heap[0][0] <= last:
            rule, k = heap[0]
            if k in self.pl.piece and self._sig(k) == (1, 1):
                path, x, y = _balanced_path(self.pl, k)
                if min(path) == k and self._tests(path, x, y)[rule]:
                    return rule, path, x, y
            heapq.heappop(heap)
        return None

    def _top_class(self, heap, sig):
        """The lowest vertex of the class ``sig`` with an out-arc inside the
        class, or None."""
        while heap:
            u = heap[0]
            if u in self.pl.piece and self._sig(u) == sig:
                if any(self._sig(w) == sig for w, _ in self.pl.out[u]):
                    return u
            heapq.heappop(heap)
        return None

    def _class_chain(self, v, sig, back, ahead):
        """(v1, v2, v0): v1 starts the chain of arcs inside the class ``sig``
        through v, read along ``ahead``, v2 follows v1 on it, and v0 is v1's
        one neighbour along ``back``."""
        while True:
            pred = [w for w, _ in back[v] if self._sig(w) == sig]
            if not pred:
                return v, [w for w, _ in ahead[v] if self._sig(w) == sig][0], back[v][0][0]
            v = pred[0]

    def first(self, start: int):
        """(answer arcs, vertices to remove) of the first reduction that fits;
        the vertices are None when the piece is finished."""
        pl = self.pl
        d, out, inn = pl.d, pl.out, pl.inn
        plus = lambda v: self._sig(v) == (2, 1)  # noqa: E731
        minus = lambda v: self._sig(v) == (1, 2)  # noqa: E731
        found = self._top_path(1)
        if found is not None:
            rule, p, x, y = found
            if rule == 1:  # both attachments heavy on the wrong side
                return [d.arc_id(x, p[0])], p + [x, y]
            # an attachment in the in-heavy class with a long middle path
            if minus(x):
                return [d.arc_id(x, p[0])], p + [x]
            return [d.arc_id(p[-1], y)], p + [y]
        # the out-heavy class is not independent
        v = self._top_class(self.plus, (2, 1))
        if v is not None:
            v1, v2, vp = self._class_chain(v, (2, 1), inn, out)
            return [d.arc_id(vp, v1)], [v1, v2, vp]
        # mirror: the in-heavy class is not independent
        v = self._top_class(self.minus, (1, 2))
        if v is not None:
            vend, vprev, vn = self._class_chain(v, (1, 2), out, inn)
            return [d.arc_id(vend, vn)], [vend, vprev, vn]
        found = self._top_path(3)
        if found is not None:
            rule, p, x, y = found
            if rule == 3:  # a path's exit arcs back into its entry
                return [d.arc_id(y, x)], p + [x, y]
            # both attachments of some path in one heavy class
            if plus(x):
                pre = inn[x][0][0]
                return [d.arc_id(pre, x)], p + [x, y, pre]
            nxt = out[y][0][0]
            return [d.arc_id(y, nxt)], p + [x, y, nxt]
        steps = _bare_cycle(pl, start)
        if steps is not None:  # one arc suffices
            return [min(a for _, a in steps)], None
        # the irreducible core, read off in full once
        verts = sorted(pl.piece)
        xplus = [v for v in verts if plus(v)]
        xminus = [v for v in verts if minus(v)]
        # the ends of the balanced paths, in order of their lowest vertex
        seen, x_of, y_of = set(), [], []
        for v in verts:
            if v not in seen and self._sig(v) == (1, 1):
                p, x, y = _balanced_path(self.pl, v)
                seen.update(p)
                x_of.append(x)
                y_of.append(y)
        return _fas6_terminal(pl, xplus, xminus, x_of, y_of), None


def _fas6_terminal(pl: Peel, xplus, xminus, x_of, y_of):
    """Irreducible core: contract the matching and take an exact FVS."""
    in_plus = set(xplus)
    pair_of, mids = {}, []
    for u in xminus:
        (w, a) = pl.out[u][0]
        if w not in in_plus:  # pragma: no cover
            raise AssertionError("matching arc misses the out-heavy class")
        pair_of[u] = pair_of[w] = len(mids)
        mids.append(a)
    if len(pair_of) != len(in_plus) + len(xminus):  # pragma: no cover
        raise AssertionError("matching is not a perfect pairing")
    in_mids = set(mids)
    carcs = []
    for u in sorted(pair_of):
        for w, a in pl.out[u]:
            if w in pair_of and a not in in_mids:
                carcs.append((pair_of[u], pair_of[w]))
    for x, y in zip(x_of, y_of):
        carcs.append((pair_of[x], pair_of[y]))
    core = MultiDigraph(len(mids), carcs)
    cert = fvs_exact(core)
    return [mids[j] for j in cert.vertices]
