"""Graph families, gadget constructions, random instances, and prime search.

Vertex numbering of every gadget is fixed so certificates are reproducible:
path vertices come before connector attachments, and split chains occupy
contiguous id blocks.
"""

from __future__ import annotations

import random

import numpy as np

from .digraph import (
    INFINITE,
    BudgetError,
    Digraph,
    Graph,
    GraphError,
    connected_components,
    girth,
)


def directed_cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0 (n = 2 gives a digon)."""
    if n < 2:
        raise GraphError("a directed cycle needs at least 2 vertices")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def rotational_tournament(n: int) -> Digraph:
    """Regular tournament on odd n: arcs i -> i+j (mod n) for j = 1..(n-1)/2."""
    if n < 3 or n % 2 == 0:
        raise GraphError("rotational tournament needs odd n >= 3")
    arcs = [(i, (i + j) % n) for i in range(n) for j in range(1, (n - 1) // 2 + 1)]
    return Digraph(n, arcs)


def split_k(d: Digraph, k: int) -> Digraph:
    """Replace every vertex by a directed k-chain (k in {2, 3}).

    In-neighbors of v attach to the head of v's chain and out-neighbors leave
    from its tail, so every directed cycle gains a factor k in length.  Vertex
    v maps to the id block [k*v, k*v + k).
    """
    if k not in (2, 3):
        raise GraphError("split factor must be 2 or 3")
    arcs = []
    for v in range(d.n):
        for c in range(k - 1):
            arcs.append((k * v + c, k * v + c + 1))
    for u, v in d.arcs:
        arcs.append((k * u + k - 1, k * v))
    return Digraph(k * d.n, arcs)


def split4_degree3(d: Digraph) -> Digraph:
    """Degree-reducing 4-way vertex split of a 3-regular digraph.

    Vertex v becomes the chain v's -> vs -> vt -> v't (ids 4v..4v+3), where the
    three in-neighbors of v (sorted) attach to (vs, v's, v's) and the three
    out-neighbors depart from (vt, v't, v't).  The result has maximum degree 3
    and twice the arc count of the input.
    """
    for v in range(d.n):
        if d.out_degree(v) != 3 or d.in_degree(v) != 3:
            raise GraphError("input must be 3-regular (d+ = d- = 3 at every vertex)")

    def vsp(v):
        return 4 * v

    def vs(v):
        return 4 * v + 1

    def vt(v):
        return 4 * v + 2

    def vtp(v):
        return 4 * v + 3

    arcs = []
    for v in range(d.n):
        arcs.extend([(vsp(v), vs(v)), (vs(v), vt(v)), (vt(v), vtp(v))])
    head_of = {}
    tail_of = {}
    for v in range(d.n):
        for rank, u in enumerate(sorted(d.in_neighbors(v))):
            head_of[(u, v)] = vs(v) if rank == 0 else vsp(v)
        for rank, w in enumerate(sorted(d.out_neighbors(v))):
            tail_of[(v, w)] = vt(v) if rank == 0 else vtp(v)
    for u, v in d.arcs:
        arcs.append((tail_of[(u, v)], head_of[(u, v)]))
    return Digraph(4 * d.n, arcs)


def gadget_h5() -> Digraph:
    """K5,5 with a matching oriented X -> Y and all other edges Y -> X.

    Vertices 0..4 are X, 5..9 are Y.  Maximum degree 5, directed girth 4, and
    the five matching arcs pairwise share a 4-cycle.
    """
    arcs = [(i, 5 + i) for i in range(5)]
    arcs += [(5 + j, i) for j in range(5) for i in range(5) if i != j]
    return Digraph(10, arcs)


def gadget_h4() -> Digraph:
    """2-way split of the rotational 7-tournament: max degree 4, girth 6."""
    return split_k(rotational_tournament(7), 2)


def gadget_h3() -> Digraph:
    """3-way split of the rotational 5-tournament: max degree 3, girth 9."""
    return split_k(rotational_tournament(5), 3)


def gadget_dg(g: int) -> Digraph:
    """Three disjoint directed k-paths plus all six end-to-start connector arcs.

    Requires even g = 2k >= 4.  Path j (j = 0, 1, 2) occupies ids
    [j*k, (j+1)*k); connectors run from each path's last vertex to the first
    vertex of both other paths.  Girth g, arc count 3(k-1) + 6.
    """
    if g < 4 or g % 2 != 0:
        raise GraphError("the three-path gadget needs even g >= 4")
    k = g // 2
    arcs = []
    for j in range(3):
        base = j * k
        arcs.extend((base + i, base + i + 1) for i in range(k - 1))
    for i in range(3):
        for j in range(3):
            if i != j:
                arcs.append((i * k + k - 1, j * k))
    return Digraph(3 * k, arcs)


def gadget_co(length: int) -> Digraph:
    """Odd undirected cycle with every edge replaced by a digon."""
    if length < 3 or length % 2 == 0:
        raise GraphError("needs an odd cycle length >= 3")
    arcs = []
    for i in range(length):
        j = (i + 1) % length
        arcs.append((i, j))
        arcs.append((j, i))
    return Digraph(length, arcs)


def gadget_co_prime(length: int) -> Digraph:
    """Split form of the digon odd cycle.

    Each vertex v of gadget_co(length) becomes v+ (id 2v) and v- (id 2v+1)
    with an arc v- -> v+, and each arc u -> v becomes u+ -> v-.
    """
    h = gadget_co(length)
    arcs = [(2 * v + 1, 2 * v) for v in range(h.n)]
    arcs += [(2 * u, 2 * v + 1) for u, v in h.arcs]
    return Digraph(2 * h.n, arcs)


def is_digon_odd_cycle(d: Digraph) -> bool:
    """Structural test for membership in the digon-odd-cycle family.

    With every arc's reverse present and in- and out-degree 2 everywhere, the
    underlying graph is 2-regular, so one connected component makes it one
    cycle.
    """
    if d.n < 3 or d.n % 2 == 0 or d.m != 2 * d.n:
        return False
    arcset = set(d.arcs)
    if any((v, u) not in arcset for u, v in d.arcs):
        return False
    if any(d.out_degree(v) != 2 or d.in_degree(v) != 2 for v in range(d.n)):
        return False
    return len(connected_components(d)) == 1


def paley_graph(q: int) -> Graph:
    """Quadratic-residue graph on Z_q for a prime q = 1 (mod 4).

    Vertices u, v adjacent iff u - v is a nonzero square mod q; the graph is
    (q-1)/2-regular.  Prime inputs only; prime powers are not supported.
    """
    if q % 4 != 1:
        raise GraphError("q must be congruent to 1 mod 4")
    if not _is_prime(q):
        raise GraphError("only prime q supported at desk scale")
    squares = {(x * x) % q for x in range(1, q)}
    edges = [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares]
    return Graph(q, edges)


def circulant_digraph(n: int, jumps) -> Digraph:
    """Circulant digraph on Z_n with arcs i -> i+j for each jump j."""
    jumps = sorted(set(j % n for j in jumps))
    if any(j == 0 for j in jumps):
        raise GraphError("zero jump creates self-loops")
    arcs = [(i, (i + j) % n) for i in range(n) for j in jumps]
    return Digraph(n, arcs)


def circulant_graph(n: int, jumps) -> Graph:
    """Undirected circulant on Z_n with edges {i, i+j}."""
    edges = set()
    for i in range(n):
        for j in jumps:
            a, b = i, (i + j) % n
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


# Candidate words per block in random_orgraph: small enough that the degree
# screen, taken at the block's start, stays close to the live degrees.
_BLOCK_WORDS = 8192
# Attempt budgets from which random_orgraph draws its blocks from numpy's
# MT19937 rather than from random.Random (see its docstring).
_NUMPY_ATTEMPTS = 1 << 17


def random_orgraph(
    n: int,
    max_deg: int,
    min_girth: int = 3,
    seed: int = 0,
    arc_target: int | None = None,
    weighted: bool = False,
) -> Digraph:
    """Seeded random digon-free digraph with degree and girth guarantees.

    Starts from a directed cycle backbone of length >= min_girth so the
    instance actually contains cycles, then adds random arcs, rejecting any
    that would exceed ``max_deg``, create a digon, or close a cycle of length
    <= ``min_girth``.  Deterministic for a fixed seed.  Weights, when
    requested, are floats ``k / 100`` for k in 1..1000, so their repr has at
    most two decimals.

    Each attempt draws u, then v, as ``randrange(n)`` does: the top
    k = n.bit_length() bits of one 32-bit word of the stream, drawn again
    while >= n.  The words come in blocks: on CPython ``getrandbits(32 * B)``
    holds the next B words little-endian, word i being what the i-th
    ``getrandbits(32)`` call would return, so a block yields the same values
    in the same order (n < 2**32).  Every rejection test can only turn true
    as arcs are added, so an attempt whose u or v was at ``max_deg`` when its
    block was drawn would be rejected anyway and is dropped in bulk; each
    other attempt runs every test, in attempt order.  Once no pair can take
    an arc, the remaining attempts cannot change the arcs.  Weights come
    after the last attempt: at the arc target or at the end of the attempt
    budget, so a weighted instance then counts the words the remaining
    attempts would draw and puts the stream exactly there.

    With a budget of at least ``_NUMPY_ATTEMPTS`` attempts the blocks come
    from ``numpy.random.MT19937`` instead.  ``random.Random`` is the same
    Mersenne Twister (Matsumoto and Nishimura, 1998): its state, the 624
    key words and the position ``getstate()`` ends with, loads unchanged
    into numpy's, and ``random_raw(B)`` then returns the same B words that
    ``getrandbits(32 * B)`` would, in about a quarter of the time.  A
    weighted instance turns the state at its last block's start back into
    ``random.Random``'s and draws the skip from there.  The budget decides,
    not the arcs made, because the instances that stop short of their target
    draw all of it.  On a shared 2-vCPU VM (CPython 3.11, numpy 2.4) a
    handoff costs about 0.15 ms, as much as two blocks save, and the first
    one in a process imports ``numpy.random`` (11-17 ms and a few MiB),
    which only a few hundred thousand attempts earn back.  So the threshold
    lies above every budget of verify-paper and the tests' grids (at most
    80 500) and below those of the benchmark's n = 3000 instances (800 500
    and more): small instances keep the stdlib stream and never import
    ``numpy.random``.
    """
    if min_girth < 3:
        raise GraphError("orgraphs need min_girth >= 3")
    if max_deg < 2 and n > 0:
        raise GraphError("max_deg < 2 cannot carry a cycle backbone")
    rng = random.Random(seed)
    arcs = []
    arcset = set()
    deg = [0] * n
    free = np.ones(n, dtype=bool)  # deg < max_deg
    out = [[] for _ in range(n)]
    limit = min_girth - 1

    def add(u, v):
        arcs.append((u, v))
        arcset.add((u, v))
        deg[u] += 1
        deg[v] += 1
        free[u] = deg[u] < max_deg
        free[v] = deg[v] < max_deg
        out[u].append(v)

    def near(src):
        """Vertices reachable from src by a path of at most ``limit`` arcs."""
        seen = {src}
        frontier = [src]
        for _ in range(limit):
            nxt = [y for x in frontier for y in out[x] if y not in seen]
            seen.update(nxt)
            frontier = nxt
        return seen

    def saturated():
        """Whether no ordered pair can take an arc any more, so every draw is rejected."""
        spare = np.flatnonzero(free).tolist()
        for v in spare:
            blocked = near(v)
            for u in spare:
                if u not in blocked and (u, v) not in arcset:
                    return False
        return True

    if n >= min_girth:
        cyc = list(range(n))
        rng.shuffle(cyc)
        length = rng.randrange(min_girth, n + 1)
        for i in range(length):
            add(cyc[i], cyc[(i + 1) % length])

    if arc_target is None:
        arc_target = max(len(arcs), min(n * max_deg // 2, int(1.5 * n)))
    budget = 200 * max(arc_target, 1) + 500 if len(arcs) < arc_target else 0
    if budget and n == 0:  # getrandbits(0) is always 0: the draw would never end
        raise ValueError("empty range for randrange()")
    if budget >= _NUMPY_ATTEMPTS:
        from numpy.random import MT19937

        key = rng.getstate()[1]
        mt = MT19937(0)
        mt.state = {"bit_generator": "MT19937", "state": {"key": key[:-1], "pos": key[-1]}}

        words = mt.random_raw
        def snapshot():
            state = mt.state["state"]
            return (3, tuple(state["key"].tolist()) + (state["pos"],), None)

    else:

        def words(size):
            return np.frombuffer(rng.getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4")

        snapshot = rng.getstate

    shift = 32 - n.bit_length()
    # the saturation test belongs after the n-th rejection in a row, the
    # attempt check_at, so at most once per added arc; nothing changes until
    # the next survivor, so it runs there or at the block's end
    check_at = n - 1
    live = True  # some pair may still take an arc
    made = 0  # attempts in earlier blocks
    carry = np.zeros(0, dtype=np.uint32)  # a u whose v is in the next block
    size = min(_BLOCK_WORDS, max(64, 16 * n))
    while made < budget:
        state = snapshot() if weighted else None
        vals = words(size) >> shift
        at = np.flatnonzero(vals < n)  # the word each value was drawn from
        cand = np.concatenate((carry, vals[at]))
        pairs = min(len(cand) // 2, budget - made)
        last = pairs - 1 if made + pairs == budget else None  # the loop's final attempt
        keep = at[:0]  # once saturated, only a weighted instance draws on, to count words
        if live:
            ok = free[cand[: 2 * pairs]]
            keep = np.flatnonzero(ok[0::2] & ok[1::2])
        for i, u, v in zip(keep.tolist(), cand[2 * keep].tolist(), cand[2 * keep + 1].tolist()):
            if check_at < made + i:
                check_at = budget
                live = not saturated()
                if not live:
                    break
            if (
                deg[u] >= max_deg
                or deg[v] >= max_deg
                or u == v
                or (u, v) in arcset
                or (v, u) in arcset
                or u in near(v)
            ):
                continue
            add(u, v)
            if len(arcs) >= arc_target:
                last = i
                break
            check_at = made + i + n
        else:
            if check_at < made + pairs:
                check_at = budget
                live = not saturated()
        if last is not None or not (live or weighted):  # unweighted: nothing is drawn later
            break
        carry = cand[2 * pairs :]
        made += pairs
        size = min(_BLOCK_WORDS, 2 * size)
    if weighted and budget:
        # leave the stream just past the final attempt's v, where the weights start
        rng.setstate(state)
        rng.getrandbits(32 * (int(at[2 * last + 1 - len(carry)]) + 1))
    weights = None
    if weighted:
        weights = [rng.randrange(1, 1001) / 100 for _ in arcs]
    d = Digraph(n, arcs, weights)
    g = girth(d)
    if g is not INFINITE and g < min_girth:  # pragma: no cover - defensive
        raise AssertionError("girth postcondition violated")
    return d


def random_two_regular_orgraph(n: int, seed: int = 0) -> Digraph:
    """Random connected digon-free digraph with d+ = d- = 2 everywhere.

    Superimposes two random cyclic permutations, retrying until the result is
    simple (no common or opposite pairs) and connected, at most 400 times;
    raises BudgetError after that.
    """
    rng = random.Random(seed)
    for _ in range(400):
        p1 = list(range(n))
        p2 = list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        arcs = [(p1[i], p1[(i + 1) % n]) for i in range(n)]
        arcs += [(p2[i], p2[(i + 1) % n]) for i in range(n)]
        pairs = set()
        ok = True
        for u, v in arcs:
            if u == v or (u, v) in pairs or (v, u) in pairs:
                ok = False
                break
            pairs.add((u, v))
        if not ok:
            continue
        d = Digraph(n, arcs)
        if len(connected_components(d)) == 1:
            return d
    raise BudgetError(f"no simple connected 2-regular instance found for n={n}")


# ---------------------------------------------------------------------------
# primes in arithmetic progressions


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = (y * y) % x
            if y == x - 1:
                break
        else:
            return False
    return True


_PRIME_STEPS = 10**6


def prime_in_progression(p: int, k: int) -> int:
    """Smallest prime x with x = 1 (mod 2^k) and x = 4 (mod p), p an odd prime power.

    The two moduli are coprime, so the residue is unique mod 2^k * p and the
    stepped search is over x = r + t * 2^k * p; primes exist in the progression
    because r is coprime to the modulus.
    """
    if p % 2 == 0 or p < 3:
        raise ValueError("p must be an odd prime power >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    mod1 = 2**k
    # CRT: x = 1 + mod1 * t with 1 + mod1 * t = 4 (mod p)
    inv = pow(mod1, -1, p)
    t = (3 * inv) % p
    r = 1 + mod1 * t
    step = mod1 * p
    x = r
    for _ in range(_PRIME_STEPS):
        if x > 1 and _is_prime(x):
            return x
        x += step
    raise BudgetError(f"no prime found within {_PRIME_STEPS} steps")
