"""Immutable digraph values and the structural queries everything else builds on.

Vertices are integers in [0, n).  Arcs carry stable integer ids: the id of an
arc is its index in the arc list given at construction, and all certificates
(orderings, colorings, feedback sets) reference arcs by id.  A ``Digraph``
rejects self-loops and duplicate arcs; ``MultiDigraph`` permits parallel arcs
but still no loops.  Both are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


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

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Infinite)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _Infinite)


INFINITE = _Infinite()

GirthValue = "int | _Infinite"


class GraphError(ValueError):
    """Raised when a graph value violates a structural invariant."""


class BudgetError(RuntimeError):
    """Raised when an operation refuses an input beyond its size budget or
    exhausts its search budget without an answer."""


class _BaseDigraph:
    __slots__ = ("n", "arcs", "weights", "_out", "_in")

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

    def total_weight(self) -> float:
        """w(D): total arc weight (arc count when unweighted)."""
        if self.weights is None:
            return float(len(self.arcs))
        return sum(self.weights)

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

    def degree(self, v: int) -> int:
        return len(self._out[v]) + len(self._in[v])

    def has_arc(self, u: int, v: int) -> bool:
        return any(w == v for w, _ in self._out[u])

    def converse(self):
        """Reverse every arc.  Arc ids are preserved positionally."""
        return type(self)(self.n, [(v, u) for u, v in self.arcs], self.weights)

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

    def arc_id(self, u: int, v: int) -> int:
        for w, a in self._out[u]:
            if w == v:
                return a
        raise KeyError(f"no arc ({u},{v})")

    def has_digon(self) -> bool:
        arcset = set(self.arcs)
        return any((v, u) in arcset for u, v in self.arcs)

    def is_orgraph(self) -> bool:
        """True when the digraph has no directed 2-cycle."""
        return not self.has_digon()


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


class View:
    """Vertex-subset view of a fixed digraph.

    Recursions delete vertices by shrinking the active set, never by copying
    the graph.  Arc lists keep the digraph's arc order and arc ids, filtered to
    the active set; the converse view swaps out- and in-arcs in O(1).
    """

    __slots__ = ("d", "active", "_out", "_in")

    def __init__(self, d: _BaseDigraph, vertices=None):
        self.d = d
        self.active = frozenset(range(d.n) if vertices is None else vertices)
        self._out = d._out
        self._in = d._in

    def _derive(self, active, out, inn) -> "View":
        view = object.__new__(View)
        view.d, view.active, view._out, view._in = self.d, active, out, inn
        return view

    def out_arcs(self, v: int):
        """List of (head, arc_id) pairs for arcs leaving v inside the view."""
        act = self.active
        return [(u, a) for u, a in self._out[v] if u in act]

    def in_arcs(self, v: int):
        act = self.active
        return [(u, a) for u, a in self._in[v] if u in act]

    def out_neighbors(self, v: int):
        return [u for u, _ in self.out_arcs(v)]

    def in_neighbors(self, v: int):
        return [u for u, _ in self.in_arcs(v)]

    def outdeg(self, v: int) -> int:
        return len(self.out_arcs(v))

    def indeg(self, v: int) -> int:
        return len(self.in_arcs(v))

    def has_arc(self, u: int, v: int) -> bool:
        act = self.active
        return u in act and v in act and any(w == v for w, _ in self._out[u])

    def arc_ids(self):
        """Ids of the arcs with both ends in the view, in increasing order."""
        act = self.active
        return sorted(a for v in act for w, a in self._out[v] if w in act)

    def without(self, vs) -> "View":
        return self._derive(self.active.difference(vs), self._out, self._in)

    def converse(self) -> "View":
        return self._derive(self.active, self._in, self._out)


# ---------------------------------------------------------------------------
# structural queries


def degrees(d: _BaseDigraph):
    """Per-vertex (out-degree, in-degree) list together with the maximum degree."""
    pairs = [(d.out_degree(v), d.in_degree(v)) for v in range(d.n)]
    delta = max((a + b for a, b in pairs), default=0)
    return pairs, delta


def max_degree(d: _BaseDigraph) -> int:
    return degrees(d)[1]


def shortest_cycle(d):
    """A shortest directed cycle of a digraph or View, as a vertex list, or None.

    BFS from every vertex in increasing id over arcs in arc order; a strictly
    shorter cycle replaces the best so far, so the answer starts at the
    smallest vertex on any shortest cycle and closes with the first arc back
    to it in BFS order.  A digon counts as a cycle of length 2; parallel arcs
    never shorten a cycle.
    """
    view = d if isinstance(d, View) else View(d)
    act, out = view.active, view._out
    best = None
    for s in sorted(act):
        parent = {s: None}
        q = deque([(s, 0)])
        while q:
            u, du = q.popleft()
            if best is not None and du + 1 >= len(best):
                break
            for v, _ in out[u]:
                if v == s:
                    best = [u]
                    while best[-1] != s:
                        best.append(parent[best[-1]])
                    best.reverse()
                    q.clear()
                    break
                if v in act and v not in parent:
                    parent[v] = u
                    q.append((v, du + 1))
    return best


def girth(d: _BaseDigraph):
    """Length of a shortest directed cycle, or INFINITE when acyclic."""
    cycle = shortest_cycle(d)
    return INFINITE if cycle is None else len(cycle)


def is_acyclic(d: _BaseDigraph):
    """Kahn peeling.  Returns (True, topological_order) or (False, None)."""
    indeg = [d.in_degree(v) for v in range(d.n)]
    q = deque(v for v in range(d.n) if indeg[v] == 0)
    order = []
    while q:
        u = q.popleft()
        order.append(u)
        for v, _ in d.out_arcs(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                q.append(v)
    if len(order) == d.n:
        return True, order
    return False, None


def strong_components(d):
    """SCC partition of a digraph or View, in topological order of the condensation.

    Iterative Tarjan with roots in increasing vertex id and arcs in arc order.
    Components are sorted vertex lists; the component list as a whole is
    emitted sources first, so every arc between components goes forward.
    """
    view = d if isinstance(d, View) else View(d)
    act, out_arcs = view.active, view._out
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    for root in sorted(act):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            advanced = False
            out = out_arcs[v]
            while pi < len(out):
                w = out[pi][0]
                pi += 1
                if w not in act:
                    continue
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    comps.reverse()
    return comps


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

    Each cycle is reported as the vertex tuple starting at its smallest vertex,
    and the overall list is in lexicographic order of those rotations.  When
    the cap is hit, the result carries an explicit truncation flag; truncation
    is never silent.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    cycles = []
    if max_len < 2:
        return CycleEnumeration((), False, cap)
    for s in range(d.n):
        # Only vertices >= s may appear, so every cycle is found exactly once,
        # rooted at its minimum vertex.  The depth-first search keeps one
        # iterator over the sorted out-arcs of each path vertex.
        path = [s]
        on_path = {s}
        stack = [iter(sorted(d.out_arcs(s)))]
        while stack:
            for v, _ in stack[-1]:
                if v == s and len(path) >= 2:
                    cycles.append(tuple(path))
                    if len(cycles) >= cap:
                        return CycleEnumeration(tuple(cycles), True, cap)
                elif v > s and v not in on_path and len(path) < max_len:
                    path.append(v)
                    on_path.add(v)
                    stack.append(iter(sorted(d.out_arcs(v))))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return CycleEnumeration(tuple(cycles), False, cap)


def cycle_arc_ids(d: Digraph, cycle) -> tuple:
    """Arc ids along a vertex cycle (u0, u1, ..., uk-1), closing back to u0."""
    k = len(cycle)
    return tuple(d.arc_id(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def reduce_digons(d: Digraph):
    """Cancel directed 2-cycles, returning (orgraph, extracted_weight).

    Weighted: both arcs of each digon lose the smaller of the two weights and
    zero-weight arcs are dropped, so exactly one arc of each digon survives
    (none when the weights tie).  Unweighted: both arcs of each digon are
    deleted and the digon count is returned.  The extracted amount is what any
    minimum feedback set must pay inside the digons.
    """
    pair_of = {}
    for a, (u, v) in enumerate(d.arcs):
        pair_of[(u, v)] = a
    extracted = 0.0
    if d.weights is None:
        drop = set()
        for (u, v), a in pair_of.items():
            if u < v and (v, u) in pair_of:
                drop.add(a)
                drop.add(pair_of[(v, u)])
                extracted += 1.0
        arcs = [uv for i, uv in enumerate(d.arcs) if i not in drop]
        return Digraph(d.n, arcs), extracted
    w = list(d.weights)
    for (u, v), a in pair_of.items():
        if u < v and (v, u) in pair_of:
            b = pair_of[(v, u)]
            m = min(w[a], w[b])
            w[a] -= m
            w[b] -= m
            extracted += m
    arcs, weights = [], []
    for i, uv in enumerate(d.arcs):
        if (uv[1], uv[0]) in pair_of and w[i] == 0.0:
            continue
        arcs.append(uv)
        weights.append(w[i])
    return Digraph(d.n, arcs, weights), extracted


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


def induced_subgraph(d: Digraph, vertices) -> Digraph:
    """Induced sub-digraph with vertices relabeled to 0..k-1 (sorted order)."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    arcs = []
    weights = [] if d.weighted else None
    for a, (u, v) in enumerate(d.arcs):
        if u in pos and v in pos:
            arcs.append((pos[u], pos[v]))
            if weights is not None:
                weights.append(d.weights[a])
    return Digraph(len(vs), arcs, weights)
