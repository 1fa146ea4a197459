"""The benchmark's workloads and the gates that check every answer they get.

A workload builds its fixed inputs in its constructor (that is set-up) and
hands out rounds of ``(group, operation)`` pairs.  An operation takes the
library handle, generates or picks its inputs, calls the library, and passes
every answer through a gate: an independent check of the witness.  A gate that
rejects an answer raises ``Rejected``.  The operation returns the arcs it
certified and the raw objects that go into the run's determinism digest.

``seconds_per_round`` is the CPU time a round took on the machine the
benchmark was calibrated on (see run.py), and ``trace_rounds`` how many rounds
a traced run covers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial


class Rejected(Exception):
    """An answer failed its independent check."""


@dataclass
class OpResult:
    arcs: int
    record: tuple


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise Rejected(what)


# ---------------------------------------------------------------------------
# gates


def gate_triple(lib, d, triple) -> list:
    """Every arc is backward in exactly one ordering; returns the three classes."""
    ok, arc = lib.verify_good_triple(d, triple)
    _check(ok, f"verify_good_triple: arc {arc} is not backward exactly once")
    return [lib.backward_arc_ids(d, order) for order in triple.orderings]


def gate_coloring(lib, d, coloring, t: int) -> None:
    ok, info = lib.verify_good_coloring(d, coloring, t)
    _check(ok, f"verify_good_coloring: color class is not a FAS ({info})")


def _weight(d, ids):
    """Exact weight of an arc set; weights are read back from their decimal text."""
    if d.weights is None:
        return len(ids)
    return sum((Fraction(repr(d.weights[a])) for a in ids), Fraction(0))


def gate_fas(lib, d, cert, upper=None) -> None:
    """The DP's witness ordering attains its value, which is at most ``upper``."""
    ids = lib.backward_arc_ids(d, cert.order)
    _check(tuple(ids) == tuple(cert.arc_ids), "fas: arc_ids are not the backward arcs of the order")
    if d.weights is None:
        _check(lib.bas(d, cert.order) == cert.value, "fas: bas(d, order) != value")
    else:
        _check(_weight(d, ids) == cert.value, "fas_w: weight of the backward arcs != value")
    if upper is not None:
        _check(cert.value <= upper, f"fas: value {cert.value} above a known FAS of weight {upper}")


def gate_sixth(lib, d, fas) -> None:
    """D - F is acyclic, its topological order only reverses arcs of F, and 6|F| <= m."""
    drop = set(fas)
    _check(len(drop) == len(fas) and drop <= set(range(d.m)), "fas_sixth: arc ids are not distinct arcs")
    rest = lib.Digraph(d.n, [uv for a, uv in enumerate(d.arcs) if a not in drop])
    ok, order = lib.is_acyclic(rest)
    _check(ok, "fas_sixth: the remainder has a cycle")
    _check(set(lib.backward_arc_ids(d, order)) <= drop, "fas_sixth: order reverses an arc outside F")
    _check(6 * len(drop) <= d.m, f"fas_sixth: 6*{len(drop)} > m={d.m}")


def gate_fasd(lib, d, cert, expected=None, at_least=None) -> None:
    _check(cert.complete, "fasd_exact: search budget exhausted")
    if cert.value is lib.INFINITE:
        _check(lib.is_acyclic(d)[0], "fasd_exact: INFINITE for a digraph with a cycle")
        return
    gate_coloring(lib, d, cert.witness, cert.value)
    _check(expected is None or cert.value == expected, f"fasd_exact: {cert.value} != known {expected}")
    _check(at_least is None or cert.value >= at_least, f"fasd_exact: {cert.value} below a good {at_least}-coloring")


def gate_fvs(lib, d, cert) -> None:
    removed = set(cert.vertices)
    keep = [(u, v) for u, v in d.arcs if u not in removed and v not in removed]
    _check(lib.is_acyclic(lib.Digraph(d.n, keep))[0], "fvs_exact: removing the set leaves a cycle")


def gate_structure(lib, d, g, comps, cycles, max_len: int, min_girth: int) -> None:
    """Girth, SCC partition and short-cycle list agree with each other."""
    _check(sorted(v for comp in comps for v in comp) == list(range(d.n)), "strong_components: not a partition")
    _check(not cycles.truncated, "enumerate_cycles: truncated")
    lengths = [len(c) for c in cycles]
    if g is lib.INFINITE:
        _check(not lengths, "girth: INFINITE but cycles were found")
        return
    _check(g >= min_girth, f"girth {g} below the generator's guarantee {min_girth}")
    if g <= max_len:
        _check(min(lengths, default=None) == g, f"girth {g} disagrees with the shortest enumerated cycle")
    else:
        _check(not lengths, f"girth {g} but a cycle of length <= {max_len} was enumerated")


# ---------------------------------------------------------------------------
# digest


def canon(x):
    """A value whose repr is the same in every process, for the digest."""
    if hasattr(x, "arcs") and hasattr(x, "n"):
        return (type(x).__name__, x.n, tuple(x.arcs), None if x.weights is None else tuple(x.weights))
    if isinstance(x, dict):
        return tuple(sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(canon(v) for v in x))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if is_dataclass(x):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name)) for f in fields(x))
    return x


# ---------------------------------------------------------------------------
# workloads


def _seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def generate(lib, kind: str, n: int, seed: int):
    """An instance of a kind: max degree 4 (``deg4``, weighted ``deg4w``),
    2-regular (``two``) or max degree 3 at girth at least g (``g3`` .. ``g6``)."""
    if kind == "deg4":
        return lib.random_orgraph(n, 4, 3, seed=seed, arc_target=2 * n)
    if kind == "deg4w":
        return lib.random_orgraph(n, 4, 3, seed=seed, weighted=True, arc_target=2 * n)
    if kind == "two":
        return lib.random_two_regular_orgraph(n, seed=seed)
    g = int(kind[1])
    return lib.random_orgraph(n, 3, g, seed=seed, arc_target=(4 * n) // 3 if g == 6 else (3 * n) // 2)


def construct(lib, kind: str, d):
    """Run and check the kind's construction.

    Returns the answer and, when it yields one, the weight of a feedback arc
    set: ``fas_sixth``'s set, or the lightest class of ``decompose3``'s triple.
    """
    if kind == "g6":
        fas = lib.fas_sixth(d, check=False)
        gate_sixth(lib, d, fas)
        return fas, len(fas)
    if kind.startswith("g"):
        g = int(kind[1])
        coloring = lib.good_g_coloring(d, g, check=False)
        gate_coloring(lib, d, coloring, g)
        return coloring, None
    triple = lib.decompose3(d, verify=False)
    classes = gate_triple(lib, d, triple)
    return triple, min(_weight(d, ids) for ids in classes)


def certified_fas(lib, d, upper):
    """Exact (weighted) minimum FAS, checked, and at most a FAS of weight ``upper``."""
    cert = (lib.fas_weighted_exact if d.weights is not None else lib.fas_exact)(d)
    gate_fas(lib, d, cert, upper=upper)
    return cert


class Sweep:
    """Many small seeded instances, as in verify-paper's triples/weighted/colorings/sixth checks.

    Every operation generates one instance, runs the construction, checks it
    with the independent verifier and, when n <= 14, cross-checks it against
    the exact oracles.  The cost is generation and per-call overhead on small
    inputs; the subset DP runs only at small n.  Every round holds one
    instance of each kind at each of its sizes, so only the instance seeds
    differ between rounds and between ``--seed`` values: a round's cost rests
    on its few n = 13, 14 DP calls, and drawing sizes at random would make it
    depend on the seed.
    """

    SIZES = {
        "deg4": range(6, 61),
        "deg4w": [*range(6, 15), *range(17, 49)],
        "two": range(9, 29),
        "g3": range(6, 46),
        "g4": range(6, 46),
        "g5": range(6, 46),
        "g6": [*range(8, 15), *range(22, 45)],
    }
    PLAN = [(kind, n) for kind, sizes in SIZES.items() for n in sizes]
    EXACT_MAX_N = 14
    seconds_per_round = 1.2

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.seed = seed
        self.trace_rounds = 1 if tiny else 4

    def round(self, r: int) -> list:
        first = r * len(self.PLAN)
        return [(kind, partial(self.op, first + j, kind, n)) for j, (kind, n) in enumerate(self.PLAN)]

    def op(self, i: int, kind: str, n: int, lib) -> OpResult:
        d = generate(lib, kind, n, _seed(self.seed, i))
        answer, fas_weight = construct(lib, kind, d)
        record = (d, answer)
        if d.n <= self.EXACT_MAX_N:
            if fas_weight is None:
                cert = lib.fasd_exact(d)
                gate_fasd(lib, d, cert, at_least=int(kind[1]))
            else:
                cert = certified_fas(lib, d, fas_weight)
            record += (cert,)
        return OpResult(d.m, record)


class Exact:
    """A fixed set of exact queries, built in set-up and repeated every round.

    Nearly all the work is in the three oracles.  Each query is one
    operation, in group ``fas`` (the subset DP), ``fasd`` (the colouring
    search, with the two decision queries) or ``fvs`` (the FVS search).

    The random instances have fixed seeds, not ones drawn from ``--seed``:
    with only 20 queries, the median query time sits on one or two of them,
    and their cost varies with the seed (``fvs_exact``'s fivefold, the
    weighted DP's and the generators' in set-up by up to a third).
    """

    # Known values, from the paper and verify-paper's d8/h5/h4-h3 checks.
    FASD = (("dg8", 7), ("dg10", 9), ("dg12", 10), ("h3", 8), ("h4", 5), ("h5", 3), ("c17", 5))
    seconds_per_round = 14.0

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.trace_rounds = 1
        sizes = (8, 9, 10) if tiny else (16, 18, 20)
        fas = [generate(lib, "deg4", n, n) for n in sizes]
        fas += [generate(lib, "deg4w", n, 100 + n) for n in sizes]
        gadgets = {
            "dg8": lib.gadget_dg(8),
            "dg10": lib.gadget_dg(10),
            "dg12": lib.gadget_dg(12),
            "h3": lib.gadget_h3(),
            "h4": lib.gadget_h4(),
            "h5": lib.gadget_h5(),
            "c17": lib.circulant_digraph(17, [1, 4]),
        }
        names = ("dg8", "h4", "h5") if tiny else tuple(name for name, _ in self.FASD)
        if tiny:
            fvs = [lib.circulant_digraph(10, [1, 3]), lib.random_two_regular_orgraph(10, seed=seed)]
        else:
            fvs = [
                lib.circulant_digraph(24, [1, 5]),
                lib.eulerian_orient(lib.circulant_graph(24, [1, 2, 3])),
                lib.eulerian_orient(lib.paley_graph(17)),
                lib.random_two_regular_orgraph(24, seed=1),
                lib.random_two_regular_orgraph(24, seed=2),
            ]
        self.queries = [("fas", partial(self.fas, d)) for d in fas]
        self.queries += [("fasd", partial(self.fasd, gadgets[name], value)) for name, value in self.FASD if name in names]
        # fasd(dg8) = 7 and fasd(h5) = 3, so both decisions are unsat.
        self.queries += [("fasd", partial(self.decision, gadgets[name], t)) for name, t in (("dg8", 8), ("h5", 4))]
        self.queries += [("fvs", partial(self.fvs, d)) for d in fvs]

    def round(self, r: int) -> list:
        return self.queries

    @staticmethod
    def fas(d, lib) -> OpResult:
        _, fas_weight = construct(lib, "deg4", d)
        return OpResult(d.m, (certified_fas(lib, d, fas_weight),))

    @staticmethod
    def fasd(d, value, lib) -> OpResult:
        cert = lib.fasd_exact(d)
        gate_fasd(lib, d, cert, expected=value)
        return OpResult(d.m, (cert,))

    @staticmethod
    def decision(d, t, lib) -> OpResult:
        out = lib.good_coloring_search(d, t)
        _check(out.status == "unsat", f"good_coloring_search: {out.status} at t={t}, known unsat")
        return OpResult(d.m, (out,))

    @staticmethod
    def fvs(d, lib) -> OpResult:
        cert = lib.fvs_exact(d)
        gate_fvs(lib, d, cert)
        return OpResult(d.m, (cert,))


class Large:
    """One instance per kind at n = 3000, through the same code as the sweep.

    Each operation generates one instance, checks girth, SCCs and the cycles of
    length <= 6 against each other, then runs the construction for its kind
    and checks it.  At this size the superlinear parts of the generators and
    constructions dominate.

    The instances are the same in every round and for every ``--seed``: at
    this size one instance can cost 3.5 times another of the same kind (the
    backbone cycle's random length sets the size of the strong component), so
    a handful of seed-derived instances per run would measure the seeds, not
    the code.
    """

    KINDS = ("g3", "g4", "g5", "g6", "deg4", "two")
    CYCLE_LEN = 6
    seconds_per_round = 20.0

    def __init__(self, lib, seed: int, tiny: bool = False):
        self.n = 60 if tiny else 3000
        self.trace_rounds = 1

    def round(self, r: int) -> list:
        return [(kind, partial(self.op, kind, i)) for i, kind in enumerate(self.KINDS)]

    def op(self, kind: str, s: int, lib) -> OpResult:
        d = generate(lib, kind, self.n, s)
        g = lib.girth(d)
        comps = lib.strong_components(d)
        cycles = lib.enumerate_cycles(d, self.CYCLE_LEN)
        min_girth = int(kind[1]) if kind.startswith("g") else 3
        gate_structure(lib, d, g, comps, cycles, self.CYCLE_LEN, min_girth)
        answer, _ = construct(lib, kind, d)
        return OpResult(d.m, (d, g, comps, cycles, answer))


WORKLOADS = {"sweep": Sweep, "exact": Exact, "large": Large}
