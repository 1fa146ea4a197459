"""Spectral lower-bound machinery for feedback arc sets of Eulerian orientations.

For a d-regular graph with second adjacency eigenvalue bound lambda, every
equal split (S, T) of the vertices carries at least (d - lambda) n / 4 cross
edges.  An Eulerian orientation balances the two directions across any split,
so every vertex ordering of the orientation has at least (d - lambda) n / 8
backward arcs, bounding the minimum feedback arc set from below.

Extremal eigenvalues are read off the full dense spectrum (numpy
``eigvalsh``); tests check them against closed-form spectra.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .digraph import BudgetError, Digraph, Graph, GraphError
from .ordering import fas_exact


@dataclass(frozen=True)
class SpectralReport:
    """Extremal eigenvalue summary of a regular undirected graph.

    ``lam`` is the largest absolute eigenvalue after removing one copy of the
    degree d (so lam = d up to rounding for bipartite or disconnected graphs).
    ``lam_prime`` additionally excludes -d when the graph is connected and
    bipartite, and equals ``lam`` otherwise.
    """

    n: int
    d: int
    lam: float
    lam_prime: float
    bipartite: bool
    connected: bool


def _bipartition(g: Graph):
    """2-coloring of each component, one BFS per component.

    Returns (is_bipartite, is_connected); the graph is connected when at most
    one BFS had to start.
    """
    color = [0] * g.n
    ok = True
    starts = 0
    for s in range(g.n):
        if color[s]:
            continue
        starts += 1
        color[s] = 1
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                if color[v] == 0:
                    color[v] = -color[u]
                    q.append(v)
                elif color[v] == color[u]:
                    ok = False
    return ok, starts <= 1


def lambda_extremes(g: Graph) -> SpectralReport:
    """Second-largest absolute adjacency eigenvalue, read off the full dense
    spectrum of the adjacency matrix (ascending).

    ``lam`` is the largest |mu| once the top entry (d) is dropped.
    ``lam_prime`` also drops the bottom entry (-d) when the graph is connected
    and bipartite; both flags come from the BFS 2-coloring, not from a float
    tolerance.  Raises on empty or non-regular input.
    """
    if g.n == 0:
        raise GraphError("empty graph has no spectrum")
    if not g.is_regular():
        raise GraphError("input must be regular")
    bip, conn = _bipartition(g)
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    rest = np.abs(np.linalg.eigvalsh(a)[:-1])
    lam = float(rest.max(initial=0.0))
    lam_prime = float(rest[1:].max(initial=0.0)) if bip and conn else lam
    return SpectralReport(g.n, g.regular_degree(), lam, lam_prime, bip, conn)


def mixing_violations(g: Graph, lam: float, samples: int, rng) -> int:
    """How many of ``samples`` (S, T) pairs, drawn from rng as |S|, S, |T|, T,
    break |e(S,T) - d|S||T|/n| <= lam * sqrt(|S||T|(1-|S|/n)(1-|T|/n)).

    e(S, T) counts ordered pairs (u, v), u in S, v in T, uv an edge.  Edges
    inside the overlap count twice, making e(V, V) = d * n on d-regular
    graphs, which is the convention the mixing bound is stated for.  A
    negative ``samples`` raises ValueError; a non-regular graph raises
    GraphError when samples > 0.
    """
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if samples == 0:
        return 0
    if not g.is_regular():
        raise GraphError("mixing bound needs a regular graph")
    n, d = g.n, g.regular_degree()
    violations = 0
    for _ in range(samples):
        s = set(rng.sample(range(n), rng.randrange(0, n + 1)))
        t = set(rng.sample(range(n), rng.randrange(0, n + 1)))
        e_st = float(sum(len(t.intersection(g.neighbors(u))) for u in s))
        deviation = abs(e_st - d * len(s) * len(t) / n)
        rhs = lam * math.sqrt(len(s) * len(t) * (1 - len(s) / n) * (1 - len(t) / n))
        if not deviation <= rhs + 1e-9:
            violations += 1
    return violations


@dataclass(frozen=True)
class OrientationBound:
    """Ordering lower bound for an Eulerian orientation of a regular graph."""

    bound: float  # (d - lam) n / 8
    fas_value: object | None
    holds: bool | None


def orientation_fas_lower_bound(d: Digraph, lam: float) -> OrientationBound:
    """(d - lam) n / 8 lower bound on fas of an Eulerian orientation.

    Requires even order and d+ = d- at every vertex.  When ``fas_exact``
    answers, the bound is checked against the exact fas with a float-edge
    guard of 1e-6.
    """
    if d.n % 2 != 0:
        raise GraphError("the equal-split argument needs an even number of vertices")
    degs = {(d.out_degree(v), d.in_degree(v)) for v in range(d.n)}
    if any(o != i for o, i in degs):
        raise GraphError("orientation is not Eulerian (d+ != d- somewhere)")
    if len({o + i for o, i in degs}) != 1:
        raise GraphError("underlying graph is not regular")
    reg = next(iter(degs))[0] * 2
    bound = (reg - lam) * d.n / 8
    try:
        fas_value = fas_exact(d).value
    except BudgetError:
        fas_value = holds = None
    else:
        holds = fas_value >= math.ceil(bound - 1e-6)
    return OrientationBound(bound, fas_value, holds)

