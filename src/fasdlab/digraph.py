"""Immutable digraph values and the structural queries everything else builds on.

Vertices are integers in [0, n).  Arcs carry stable integer ids: the id of an
arc is its index in the arc list given at construction, and all certificates
(orderings, colorings, feedback sets) reference arcs by id.  A ``Digraph``
rejects self-loops and duplicate arcs; ``MultiDigraph`` permits parallel arcs
but still no loops.  Both are immutable after construction and safe to share.
The one mutable structure, ``Peel``, is what the peeling constructions delete
vertices from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .certcheck import exact_weights, is_acyclic  # noqa: F401  (is_acyclic is re-exported)


class _Infinite:
    """Distinguished value for the girth / decomposition number of acyclic digraphs."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


class GraphError(ValueError):
    """Raised when a graph value violates a structural invariant."""


class BudgetError(RuntimeError):
    """Raised when an operation refuses an input beyond its size budget or
    exhausts its search budget without an answer."""


class _BaseDigraph:
    # _cycle: the shortest cycle as a tuple, () when acyclic; unset until
    # shortest_cycle first runs on this digraph
    __slots__ = ("n", "arcs", "weights", "_out", "_in", "_cycle")

    _allow_parallel = False

    def __init__(self, n: int, arcs, weights=None):
        arcs = tuple((int(u), int(v)) for u, v in arcs)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen = set()
        for u, v in arcs:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) outside vertex range [0,{n})")
            if not self._allow_parallel:
                if (u, v) in seen:
                    raise GraphError(f"duplicate arc ({u},{v})")
                seen.add((u, v))
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(arcs):
                raise GraphError("weight list length differs from arc list length")
            for w in weights:
                if not (w >= 0.0) or w != w or w == float("inf"):
                    raise GraphError(f"weights must be finite and >= 0, got {w}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "weights", weights)
        out = [[] for _ in range(n)]
        inn = [[] for _ in range(n)]
        for a, (u, v) in enumerate(arcs):
            out[u].append((v, a))
            inn[v].append((u, a))
        object.__setattr__(self, "_out", tuple(tuple(x) for x in out))
        object.__setattr__(self, "_in", tuple(tuple(x) for x in inn))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def m(self) -> int:
        """Number of arcs a(D)."""
        return len(self.arcs)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def total_weight(self):
        """w(D): the arc count when unweighted, else the exact total weight."""
        if self.weights is None:
            return len(self.arcs)
        return sum(exact_weights(self), Fraction(0))

    def out_neighbors(self, v: int):
        return [u for u, _ in self._out[v]]

    def in_neighbors(self, v: int):
        return [u for u, _ in self._in[v]]

    def out_arcs(self, v: int):
        """List of (head, arc_id) pairs for arcs leaving v."""
        return self._out[v]

    def in_arcs(self, v: int):
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def has_arc(self, u: int, v: int) -> bool:
        return any(w == v for w, _ in self._out[u])

    def arc_id(self, u: int, v: int) -> int:
        """Id of the first arc from u to v."""
        for w, a in self._out[u]:
            if w == v:
                return a
        raise KeyError(f"no arc ({u},{v})")

    def has_digon(self) -> bool:
        arcset = set(self.arcs)
        return any((v, u) in arcset for u, v in self.arcs)

    def __repr__(self) -> str:
        kind = type(self).__name__
        w = ", weighted" if self.weighted else ""
        return f"{kind}(n={self.n}, m={self.m}{w})"

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.arcs == other.arcs
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.arcs, self.weights))


class Digraph(_BaseDigraph):
    """Simple directed graph, optionally arc-weighted."""

    __slots__ = ()


class MultiDigraph(_BaseDigraph):
    """Digraph variant with parallel arcs permitted (still loop-free)."""

    __slots__ = ()
    _allow_parallel = True


class Graph:
    """Undirected simple graph on vertices [0, n); edges stored as sorted pairs."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges):
        edges = tuple(tuple(sorted((int(u), int(v)))) for u, v in edges)
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(x)) for x in adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int):
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def is_regular(self) -> bool:
        degs = {self.degree(v) for v in range(self.n)}
        return len(degs) <= 1

    def regular_degree(self) -> int:
        if not self.is_regular() or self.n == 0:
            raise GraphError("graph is not regular")
        return self.degree(0)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Peel:
    """Live adjacency of a digraph under vertex and arc deletion.

    The peeling constructions remove a few vertices per step from one mutable
    structure instead of building a smaller digraph per step.  ``out[v]`` and
    ``inn[v]`` hold the live arcs at a live vertex v as (neighbour, arc id)
    pairs in arc order, so they read exactly like the arc lists of the induced
    subgraph on the live vertices; deleting a vertex or an arc costs
    O(degree), and ``delete`` returns the live out-arcs and in-arcs the
    vertex had when it went.  ``piece`` holds the vertices of the strong
    piece being worked on: the component ``split`` certified last, or those a
    caller set there.  ``split`` keeps a reach-out and a reach-in tree of that
    component, as parent and children maps, and repairs them after deletions.
    """

    __slots__ = ("d", "out", "inn", "piece", "_trees", "_dead", "_near")

    def __init__(self, d: _BaseDigraph, vertices=None):
        self.d = d
        if vertices is None:
            self.out = {v: list(d._out[v]) for v in range(d.n)}
            self.inn = {v: list(d._in[v]) for v in range(d.n)}
        else:
            keep = set(vertices)
            self.out = {v: [e for e in d._out[v] if e[0] in keep] for v in sorted(keep)}
            self.inn = {v: [e for e in d._in[v] if e[0] in keep] for v in sorted(keep)}
        # (parent, children) of a reach-out tree and a reach-in tree of the
        # strong piece ``split`` certified last; its vertices deleted since,
        # and the vertices they had arcs to then
        self._trees = ({}, {}), ({}, {})
        self._dead = []
        self._near = []
        self.piece = {}

    def delete(self, v: int):
        out, inn = self.out, self.inn
        outs, ins = out.pop(v), inn.pop(v)
        for w, a in outs:
            inn[w].remove((v, a))
        for u, a in ins:
            out[u].remove((v, a))
        if v in self._trees[0][0]:
            self._dead.append(v)
            self._near += [w for w, _ in outs + ins]
        return outs, ins

    def split(self, piece, root=None):
        """Strong components of a piece of the live graph.

        ``piece`` lists the piece's vertices in increasing order (deleted ones
        may remain in it).  Returns ``(root, comps, cut, touched)``: the
        component of ``root`` is certified by a reach-out and a reach-in tree
        from it and returned only through its root (None when it has a single
        vertex), ``comps`` are the other components as sorted lists, and
        ``cut`` the ids of the arcs between components in increasing order.
        Those arcs are cut and one-vertex components deleted, so afterwards
        the live arcs at a vertex are the arcs of its own component.

        To split what deletions left of the certified component, pass its
        root back (``piece`` may then be None): only the tree branches that
        hung below deleted vertices are searched again, Tarjan runs only on
        the vertices the component lost, and ``touched`` lists the vertices
        left in it whose arcs changed.  When the trees are grown afresh (no
        root, or it was deleted) the root changes and ``touched`` lists the
        whole component.  Between the two calls no other piece may be split.
        The results depend only on the vertices lost, which any correct repair
        finds, and on Tarjan over them in increasing order; the shape of the
        trees is read only by the next repair.
        """
        out, inn = self.out, self.inn
        fpar = self._trees[0][0]
        dead, near = self._dead, self._near
        self._dead, self._near = [], []
        if root is not None and root in out:
            lost = set(_reattach(dead, out, inn, *self._trees[0]))
            lost.update(_reattach(dead, inn, out, *self._trees[1]))
            giant = None
        else:
            vs = [v for v in (sorted(fpar) if piece is None else piece) if v in out]
            if not vs:
                self._trees = ({}, {}), ({}, {})
                return None, [], [], []
            root = vs[-1]  # peeling favours low ids, so the root lasts
            self._trees = _grow(root, out), _grow(root, inn)
            fpar, bpar = self._trees[0][0], self._trees[1][0]
            giant = [v for v in vs if v in fpar and v in bpar]
            lost = set(vs).difference(giant)
        for par, kids in self._trees:
            # a lost vertex only has lost vertices below it in either tree
            for v in lost:
                if v in par:
                    u = par.pop(v)
                    if u not in lost:
                        kids[u].remove(v)
                    del kids[v]
        comps = _tarjan(sorted(lost), out, lost)
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        cut = sorted(
            [(a, v, w) for v in lost for w, a in out[v] if comp_of.get(w) != comp_of[v]]
            + [(a, u, v) for v in lost for u, a in inn[v] if u not in lost]
        )
        for a, v, w in cut:
            out[v].remove((w, a))
            inn[w].remove((v, a))
        if giant is None:
            near += [x for _, v, w in cut for x in (v, w)]
            touched = sorted({w for w in near if w in out and w not in lost})
        else:
            touched = giant
        for comp in comps:
            if len(comp) == 1:
                self.delete(comp[0])
        if len(fpar) == 1:  # the root alone
            self._trees = ({}, {}), ({}, {})
            self.delete(root)
            root, touched = None, []
        self.piece = self._trees[0][0]
        return root, [comp for comp in comps if len(comp) > 1], [a for a, _, _ in cut], touched


def _grow(root, arcs):
    """BFS tree from ``root`` along ``arcs``, as (parent, children) maps."""
    par, kids = {root: None}, {root: []}
    reach = [root]
    for x in reach:
        for w, _ in arcs[x]:
            if w not in par:
                par[w] = x
                kids[w] = []
                kids[x].append(w)
                reach.append(w)
    return par, kids


def _reattach(dead, arcs, back, par, kids):
    """Repair a search tree after deleting ``dead``; returns the vertices out of reach.

    Only the branches below deleted vertices are searched.  Each of their
    vertices hangs below the first of its neighbours along ``back`` that is
    still in the tree, if it has one; a FIFO search along ``arcs`` from those
    hangs back the rest it reaches, and the ones it does not reach are lost.
    """
    deadset = set(dead)
    orphans, orph = [], set()
    stack = [c for v in dead for c in kids.get(v, ())]
    while stack:  # each vertex has one parent, so it is met once
        c = stack.pop()
        if c not in deadset:
            orph.add(c)
            orphans.append(c)
            stack.extend(kids[c])
    for v in dead:
        u = par.pop(v, None)
        if u is not None and u not in deadset and u not in orph:
            kids[u].remove(v)
        kids.pop(v, None)
    hung = []
    for o in orphans:
        kids[o] = []
        for u, _ in back[o]:
            if u not in orph:
                par[o] = u
                kids[u].append(o)
                hung.append(o)
                break
    orph.difference_update(hung)  # from here on, the orphans not hung back yet
    for x in hung:
        for w, _ in arcs[x]:
            if w in orph:
                orph.remove(w)
                par[w] = x
                kids[x].append(w)
                hung.append(w)
    lost = [o for o in orphans if o in orph]
    for o in lost:
        del par[o], kids[o]
    return lost


# ---------------------------------------------------------------------------
# structural queries


def max_degree(d: _BaseDigraph) -> int:
    """The largest out-degree plus in-degree of a vertex, 0 on no vertices."""
    return max((d.out_degree(v) + d.in_degree(v) for v in range(d.n)), default=0)


def shortest_cycle(d):
    """A shortest directed cycle of a digraph, as a vertex list, or None.

    BFS from every vertex in increasing id over arcs in arc order; a strictly
    shorter cycle replaces the best so far, so the answer starts at the
    smallest vertex on any shortest cycle and closes with the first arc back
    to it in BFS order.  A digon counts as a cycle of length 2; parallel arcs
    never shorten a cycle.  A digraph keeps its answer, so the search runs
    once per digraph; every call returns a fresh list.

    The BFS from root s enqueues only vertices above s, which cannot change
    the answer.  Root s replaces the best cycle only with a strictly shorter
    cycle through s, and no vertex below s lies on a cycle that short: the
    BFS from that earlier root would have found it.  So every vertex on a
    shortest s -> w path to a vertex w that closes such a cycle lies above s;
    those vertices are reached at the same depth, from the same parent and in
    the same order as in the unrestricted BFS, and when s improves nothing
    the restricted BFS, whose distances are never shorter, finds nothing too.
    """
    kept = getattr(d, "_cycle", None)
    if kept is None:
        cycle = _shortest_cycle(d, ())
        kept = () if cycle is None else tuple(cycle)
        object.__setattr__(d, "_cycle", kept)
    return list(kept) or None


def _shortest_cycle(d: _BaseDigraph, removed, floor: int = 2):
    """``shortest_cycle`` of D without the vertices in ``removed``, given that
    its girth is at least ``floor``; nothing is kept.

    The roots stop once the best cycle has ``floor`` vertices: a later root
    replaces it only with a strictly shorter one, so the answer is the same
    for every floor up to the girth.

    A root is skipped unless it has a live out-neighbour and a live
    in-neighbour above it: the BFS from s enters only live vertices above s,
    so a cycle it closes leaves s to one and returns from one; a skipped root
    could not have replaced the best cycle.  The BFS runs level by level, each
    level in the order a FIFO queue would hold it, so the parents and the
    first arc back to s are unchanged; a level whose cycles could not be
    shorter than the best so far ends the root.

    One call keeps its marks in two lists indexed by vertex: ``mark[v]`` is
    the root whose BFS reached v, or n for a removed vertex, and ``parent[v]``
    the vertex it was reached from.  Roots rise, so the BFS from s enters v
    exactly when ``v > s and mark[v] < s``: v is above s, live and not yet
    reached from s.
    """
    out, inn, n = d._out, d._in, d.n
    mark = [-1] * n
    for v in removed:
        mark[v] = n
    parent = [0] * n
    best = None
    bound = n + 1  # the length of the best cycle so far, n + 1 before one
    for s in range(n):
        if mark[s] == n:
            continue
        for v, _ in out[s]:
            if v > s and mark[v] < n:
                break
        else:
            continue
        for u, _ in inn[s]:
            if u > s and mark[u] < n:
                break
        else:
            continue
        level, depth = [s], 0
        while level and depth + 1 < bound:
            nxt = []
            for u in level:
                for v, _ in out[u]:
                    if v == s:
                        best = [u]
                        while best[-1] != s:
                            best.append(parent[best[-1]])
                        best.reverse()
                        bound = len(best)
                        break
                    if v > s and mark[v] < s:
                        mark[v] = s
                        parent[v] = u
                        nxt.append(v)
                if bound == depth + 1:
                    break
            level, depth = nxt, depth + 1
        if best is not None and len(best) <= floor:
            break
    return best


def girth(d: _BaseDigraph):
    """Length of a shortest directed cycle, or INFINITE when acyclic."""
    cycle = shortest_cycle(d)
    return INFINITE if cycle is None else len(cycle)


def require_orgraph(d: _BaseDigraph, max_deg: int, min_girth: int) -> None:
    """Raise GraphError unless D is an oriented graph (no parallel arcs and no
    digons) of maximum degree at most ``max_deg`` and girth at least
    ``min_girth``: the hypotheses the constructions share.

    An oriented graph has girth at least 3, so the girth, a BFS from every
    vertex, is read only when ``min_girth`` is above 3.
    """
    arcset = set(d.arcs)
    if len(arcset) != len(d.arcs):
        raise GraphError("input must not have parallel arcs")
    if max_degree(d) > max_deg:
        raise GraphError(f"maximum degree must be at most {max_deg}")
    if any((v, u) in arcset for u, v in arcset):
        raise GraphError("input must be digon-free")
    if min_girth > 3:
        g = girth(d)
        if g is not INFINITE and g < min_girth:
            raise GraphError(f"girth {g} below {min_girth}")


def strong_components(d: _BaseDigraph):
    """SCC partition of a digraph, in topological order of the condensation.

    Iterative Tarjan with roots in increasing vertex id and arcs in arc order.
    Components are sorted vertex lists; the component list as a whole is
    emitted sources first, so every arc between components goes forward.
    """
    return _tarjan(range(d.n), d._out)


def _tarjan(roots, out, within=None):
    """Tarjan over ``out[v]`` (pairs (head, arc id)) from ``roots`` in order.

    With ``within`` given, heads outside it are skipped, so the components
    are those of the subgraph induced on ``within``; without it every head
    met must lie in the vertex set the roots span.  The work stack keeps one
    iterator over ``out[v]`` per vertex v on it.
    """
    index = {}  # visit numbers; ``done`` once a vertex's component is out
    low = {}
    done = len(out)  # above every visit number, as each vertex visited keys out
    stack = []
    comps = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, arcs = work[-1]
            for w, _ in arcs:
                if w in index:
                    if index[w] < low[v]:
                        low[v] = index[w]
                elif within is None or w in within:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    comps.reverse()
    return comps


def chains(d: _BaseDigraph):
    """The maximal arc chains of D, as tuples of arc ids, sorted by first id.

    A joint is a vertex of in-degree 1 and out-degree 1, parallel arcs
    counted.  A chain is a walk whose inner vertices are all joints, so its
    arcs lie on exactly the same cycles: a cycle through any of them enters
    and leaves each joint by its only arcs.  The maximal chains partition the
    arcs, an arc with no joint at either end being a chain of its own.  A
    chain starts at an arc whose tail is not a joint, or, when every vertex
    on it is a joint and it is a whole cycle, at its lowest arc id.  One pass
    over the arcs for the open chains and one for the cycles, without
    recursion: O(n + m).
    """
    out, arcs = d._out, d.arcs
    joint = [len(o) == 1 and len(i) == 1 for o, i in zip(out, d._in)]
    on_chain = [False] * len(arcs)
    found = []
    # open chains first: every arc of a cycle of joints is left over after them
    for whole in (False, True):
        for a, (u, v) in enumerate(arcs):
            if on_chain[a] or (joint[u] and not whole):
                continue
            chain = [a]
            on_chain[a] = True
            while joint[v]:
                b = out[v][0][1]
                if on_chain[b]:  # around a whole cycle, back at its first arc
                    break
                chain.append(b)
                on_chain[b] = True
                v = arcs[b][1]
            found.append(tuple(chain))
    found.sort()
    return found


def connected_components(d: _BaseDigraph):
    """Components of the underlying undirected graph, as sorted vertex lists."""
    seen = [False] * d.n
    comps = []
    for s in range(d.n):
        if seen[s]:
            continue
        comp = []
        q = deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for v, _ in d.out_arcs(u):
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
            for v, _ in d.in_arcs(u):
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        comps.append(sorted(comp))
    return comps


@dataclass(frozen=True)
class CycleEnumeration:
    """Simple directed cycles of bounded length, in lexicographic rotation order."""

    cycles: tuple
    truncated: bool
    cap: int

    def __iter__(self):
        return iter(self.cycles)

    def __len__(self):
        return len(self.cycles)


def enumerate_cycles(d: _BaseDigraph, max_len: int, cap: int = 100000) -> CycleEnumeration:
    """All simple directed cycles of length <= max_len, at most ``cap`` of them.

    Each cycle is reported once, as the vertex tuple starting at its smallest
    vertex, and the overall list is in lexicographic order of those rotations.
    When the cap is hit, the result carries an explicit truncation flag;
    truncation is never silent.  A digraph whose girth is known (its
    ``shortest_cycle`` has run) and above ``max_len`` returns no cycles at
    once.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    cycles = tuple(cycle for cycle, _ in islice(_cycle_walk(d, max_len), cap))
    return CycleEnumeration(cycles, len(cycles) == cap, cap)


class _Steps(dict):
    """The (head, lowest arc id) pairs out of each vertex, in head order,
    built the first time the walk steps onto it (``_out`` lists arcs in id
    order, so the reversed dict keeps the lowest of parallel arcs)."""

    __slots__ = ("out",)

    def __init__(self, out):
        self.out = out

    def __missing__(self, v):
        step = self[v] = sorted(dict(reversed(self.out[v])).items())
        return step


def _cycle_walk(d: _BaseDigraph, max_len: int):
    """Yield (cycle, arc ids) for each simple directed cycle of length <=
    max_len, in the order of ``enumerate_cycles``; arc ids[i] leaves cycle[i].

    Each step goes to each head once, by its lowest arc id, so parallel arcs
    give one cycle, and its ids are those ``certcheck.closed_cycle_arcs``
    recomputes from the vertex tuple.  The search from root s steps onto a
    vertex v only when v can still get back to s within the length bound: a
    backward BFS from s over vertices above s gives each one's distance to s,
    and a path that cannot close in time is not extended.  Such a path would
    report no cycle, so the cycles and their order are those of the plain
    search.

    Only vertices above s appear on a cycle rooted at s, so, as in
    ``_shortest_cycle``, a root without an out-neighbour and an in-neighbour
    above it is skipped.  A digraph that keeps its shortest cycle (once
    ``shortest_cycle`` has run on it) yields nothing, without a search, when
    it is acyclic or that cycle is longer than ``max_len``.
    """
    if max_len < 2:
        return
    kept = getattr(d, "_cycle", None)
    if kept is not None and not 0 < len(kept) <= max_len:
        return
    out, inn = d._out, d._in
    steps = _Steps(out)
    # seen[v] is the root whose backward BFS reached v, and dist[v] the
    # distance from v to that root
    seen = [-1] * d.n
    dist = [0] * d.n
    for s in range(d.n):
        for v, _ in out[s]:
            if v > s:
                break
        else:
            continue
        for u, _ in inn[s]:
            if u > s:
                break
        else:
            continue
        # Only vertices >= s may appear, so every cycle is found exactly once,
        # rooted at its minimum vertex.  The BFS stamps each vertex above s
        # that reaches s within max_len - 1 arcs over such vertices; no other
        # vertex can be next on a path from s, so without a stamped
        # out-neighbour s is on no cycle searched here.
        frontier = [s]
        for k in range(1, max_len):
            reached = []
            for x in frontier:
                for u, _ in inn[x]:
                    if u > s and seen[u] != s:
                        seen[u] = s
                        dist[u] = k
                        reached.append(u)
            if not reached:
                break
            frontier = reached
        for v, _ in out[s]:
            if seen[v] == s:
                break
        else:
            continue
        # The depth-first search keeps one iterator over the steps of each
        # path vertex; ids[i] enters path[i + 1].
        path = [s]
        ids = []
        on_path = {s}
        stack = [iter(steps[s])]
        while stack:
            for v, a in stack[-1]:
                if v == s and len(path) >= 2:
                    yield tuple(path), (*ids, a)
                elif v not in on_path and seen[v] == s and len(path) + dist[v] <= max_len:
                    path.append(v)
                    ids.append(a)
                    on_path.add(v)
                    stack.append(iter(steps[v]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
                if ids:
                    ids.pop()


def eulerian_orient(g: Graph) -> Digraph:
    """Orient an even-degree graph so that every vertex has d+ = d-.

    Decomposes each component's edge set into closed trails (Hierholzer) and
    orients every trail as a directed walk.
    """
    for v in range(g.n):
        if g.degree(v) % 2 != 0:
            raise GraphError(f"vertex {v} has odd degree {g.degree(v)}")
    remaining = [sorted(g.neighbors(v), reverse=True) for v in range(g.n)]
    used = set()
    arcs = []

    def next_unused(u):
        while remaining[u]:
            v = remaining[u][-1]
            if (min(u, v), max(u, v)) in used:
                remaining[u].pop()
            else:
                return v
        return None

    for start in range(g.n):
        while next_unused(start) is not None:
            u = start
            while True:
                v = next_unused(u)
                if v is None:
                    break
                remaining[u].pop()
                used.add((min(u, v), max(u, v)))
                arcs.append((u, v))
                u = v
                if u == start:
                    break
    return Digraph(g.n, arcs)

