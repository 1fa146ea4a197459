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
    """Second-largest absolute adjacency eigenvalue, read off ``dense_spectrum``.

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
    rest = np.abs(dense_spectrum(g)[:-1])
    lam = float(rest.max(initial=0.0))
    lam_prime = float(rest[1:].max(initial=0.0)) if bip and conn else lam
    return SpectralReport(g.n, g.regular_degree(), lam, lam_prime, bip, conn)


def dense_spectrum(g: Graph) -> np.ndarray:
    """Full dense symmetric eigendecomposition of the adjacency matrix, ascending."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class MixingCheck:
    """Both sides of the mixing inequality for one (S, T) pair."""

    e_st: float
    expected: float
    deviation: float
    rhs: float
    holds: bool
    equal_halves_lower: float | None


def edge_count_between(g: Graph, s, t) -> int:
    """e(S, T): ordered pairs (u, v), u in S, v in T, uv an edge.

    Edges inside the overlap count twice, making e(V, V) = d * n on d-regular
    graphs, which is the convention the mixing bound is stated for.
    """
    sset, tset = set(s), set(t)
    return sum((u in sset and v in tset) + (v in sset and u in tset) for u, v in g.edges)


def mixing_check(g: Graph, s, t, lam: float) -> MixingCheck:
    """Evaluate |e(S,T) - d|S||T|/n| <= lam * sqrt(|S||T|(1-|S|/n)(1-|T|/n)).

    Also evaluates the equal-halves corollary e(S,T) >= (d - lam) n / 4 when
    |S| = |T| = n/2.
    """
    if not g.is_regular():
        raise GraphError("mixing bound needs a regular graph")
    d = g.regular_degree()
    n = g.n
    e_st = float(edge_count_between(g, s, t))
    expected = d * len(s) * len(t) / n
    deviation = abs(e_st - expected)
    rhs = lam * math.sqrt(
        len(s) * len(t) * (1 - len(s) / n) * (1 - len(t) / n)
    )
    lower = None
    if len(s) == len(t) == n // 2 and n % 2 == 0:
        lower = (d - lam) * n / 4
    return MixingCheck(e_st, expected, deviation, rhs, deviation <= rhs + 1e-9, lower)


def mixing_violations(g: Graph, lam: float, samples: int, rng) -> int:
    """How many of ``samples`` (S, T) pairs, drawn from rng as |S|, S, |T|, T, break the bound.

    A negative ``samples`` raises ValueError."""
    if samples < 0:
        raise ValueError("samples must be >= 0")
    violations = 0
    for _ in range(samples):
        s = rng.sample(range(g.n), rng.randrange(0, g.n + 1))
        t = rng.sample(range(g.n), rng.randrange(0, g.n + 1))
        if not mixing_check(g, s, t, lam).holds:
            violations += 1
    return violations


@dataclass(frozen=True)
class OrientationBound:
    """Ordering lower bound for an Eulerian orientation of a regular graph."""

    n: int
    d: int
    lam: float
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
    return OrientationBound(d.n, reg, lam, bound, fas_value, holds)

