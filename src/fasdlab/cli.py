"""Command-line surface: generators, solvers, spectral reports, and the harness.

Exit codes: 0 success, 1 check or verification failure, 2 usage error (a
GraphError or ValueError, or a file that cannot be read or written), 3 budget
exceeded (a BudgetError from any command, or fasd running out of nodes;
both print ``refused: ...`` on stderr).  All randomized commands take
--seed (default 0) and are deterministic given their flags.  ``fas``
weighs its answer exactly when the file has weights, with or without
--heuristic, which inserts the vertices in greedy order.  ``fasd
--budget`` (default 10^8, a negative one is a usage error) caps the search
nodes, which fasd spends as a total over all levels.  A negative ``mixing
--samples`` and an unknown ``verify-paper --check`` id are usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .checks import run_checks
from .coloring import DEFAULT_NODE_BUDGET, fasd_exact, good_coloring_search
from .delta3 import fas_sixth, fvs_exact, good_g_coloring
from .digraph import BudgetError, Digraph, Graph
from .fileio import _jsonable, certificate_json, format_digraph, read_digraph, to_dot, write_digraph
from .generators import (
    directed_cycle,
    gadget_co,
    gadget_co_prime,
    gadget_dg,
    gadget_h3,
    gadget_h4,
    gadget_h5,
    paley_graph,
    random_orgraph,
    rotational_tournament,
)
from .ordering import bas, fas_exact, fas_upper_heuristic, fas_weighted_exact
from .spectral import lambda_extremes, mixing_violations
from .triples import decompose3

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _underlying_graph(d: Digraph) -> Graph:
    edges = sorted({tuple(sorted(uv)) for uv in d.arcs})
    return Graph(d.n, edges)


# gen's families, each built from the parsed arguments
FAMILIES = {
    "cycle": lambda a: directed_cycle(a.n),
    "tournament": lambda a: rotational_tournament(a.n),
    "h3": lambda a: gadget_h3(),
    "h4": lambda a: gadget_h4(),
    "h5": lambda a: gadget_h5(),
    "dg": lambda a: gadget_dg(a.g),
    "co": lambda a: gadget_co(a.n),
    "co-prime": lambda a: gadget_co_prime(a.n),
    "paley": lambda a: Digraph(a.n, paley_graph(a.n).edges),  # one arc per edge
    "random": lambda a: random_orgraph(
        a.n, a.max_deg, a.min_girth, seed=a.seed, weighted=a.weighted
    ),
}


def cmd_gen(args) -> int:
    d = FAMILIES[args.family](args)
    if args.output:
        write_digraph(args.output, d)
    else:
        sys.stdout.write(format_digraph(d))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(d))
    return EXIT_OK


def cmd_fas(args) -> int:
    d = read_digraph(args.file)
    if args.heuristic:
        order = fas_upper_heuristic(d)
        value = bas(d, order)
        print(f"bas {value}")
        print("order " + " ".join(map(str, order)))
        return EXIT_OK
    cert = fas_weighted_exact(d) if d.weighted else fas_exact(d)
    print(f"fas {cert.value}")
    print("order " + " ".join(map(str, cert.order)))
    print("arcs " + " ".join(map(str, cert.arc_ids)))
    return EXIT_OK


def cmd_fasd(args) -> int:
    d = read_digraph(args.file)
    if args.t is not None:
        res = good_coloring_search(d, args.t, node_budget=args.budget)
        if res.status == "budget":
            print(f"refused: node budget spent; t={args.t} undecided", file=sys.stderr)
            return EXIT_BUDGET
        print(f"t={args.t} {res.status} nodes={res.nodes}")
        if res.sat and args.certificate:
            _write_cert(
                args.certificate,
                "good-coloring",
                {"t": args.t, "coloring": res.coloring},
                f"good {args.t}-arc-coloring exists",
            )
        return EXIT_OK
    cert = fasd_exact(d, node_budget=args.budget)
    if cert.value is None:
        print(f"refused: node budget spent; fasd in [{cert.lo}, {cert.hi}]", file=sys.stderr)
        return EXIT_BUDGET
    print(f"fasd {cert.value}")
    if args.certificate:
        payload = {
            "value": cert.value,
            "witness": cert.witness,
            "refutation": cert.refutation,
        }
        _write_cert(args.certificate, "fasd", payload, "exact decomposition number")
    return EXIT_OK


def _write_cert(path, kind, payload, claim) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(certificate_json(kind, payload, claim))


def cmd_decompose3(args) -> int:
    d = read_digraph(args.file)
    triple = decompose3(d)
    classes = triple.backward_classes(d)
    for i, (order, ids) in enumerate(zip(triple.orderings, classes), start=1):
        print(f"sigma{i} " + " ".join(map(str, order)))
        print(f"class{i} " + " ".join(map(str, ids)))
    if args.certificate:
        _write_cert(
            args.certificate,
            "triple",
            {"orderings": triple.orderings, "classes": classes},
            "arc set partitioned into 3 feedback arc sets",
        )
    return EXIT_OK


def cmd_colorg(args) -> int:
    d = read_digraph(args.file)
    coloring = good_g_coloring(d, args.g)
    print(json.dumps({str(a): c for a, c in sorted(coloring.items())}))
    if args.certificate:
        _write_cert(
            args.certificate,
            "good-coloring",
            {"t": args.g, "coloring": coloring},
            f"good {args.g}-arc-coloring for max degree 3",
        )
    return EXIT_OK


def cmd_fas6(args) -> int:
    d = read_digraph(args.file)
    fas = fas_sixth(d)
    print("arcs " + " ".join(map(str, fas)))
    print(f"size {len(fas)} of {d.m}")
    if args.certificate:
        _write_cert(
            args.certificate,
            "fas-sixth",
            {"arcs": fas, "total_arcs": d.m},
            "feedback arc set within one sixth of the arcs",
        )
    return EXIT_OK


def cmd_fvs(args) -> int:
    d = read_digraph(args.file)
    cert = fvs_exact(d)
    print("vertices " + " ".join(map(str, cert.vertices)))
    flags = []
    if cert.within_half:
        flags.append("within-half")
    if cert.exceptional:
        flags.append("digon-odd-cycle")
    print(f"size {len(cert.vertices)}" + (" " + " ".join(flags) if flags else ""))
    return EXIT_OK


def cmd_spectral(args) -> int:
    d = read_digraph(args.file)
    g = _underlying_graph(d)
    rep = lambda_extremes(g)
    print(
        f"n={rep.n} d={rep.d} lambda={rep.lam:.9f} lambda'={rep.lam_prime:.9f} "
        f"bipartite={rep.bipartite} connected={rep.connected}"
    )
    return EXIT_OK


def cmd_mixing(args) -> int:
    d = read_digraph(args.file)
    g = _underlying_graph(d)
    rep = lambda_extremes(g)
    violations = mixing_violations(g, rep.lam, args.samples, random.Random(args.seed))
    print(f"samples={args.samples} violations={violations} lambda={rep.lam:.6f}")
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def cmd_verify_paper(args) -> int:
    results = run_checks(args.check, seed=args.seed)
    for r in results:
        print(r.line())
    if args.json:
        doc = [
            {
                "check": r.check_id,
                "claim": r.claim,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "details": _jsonable(r.details),
            }
            for r in results
        ]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fasdlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph family instance")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("-n", type=int, default=8)
    g.add_argument("--g", type=int, default=8, help="girth parameter for dg")
    g.add_argument("--max-deg", type=int, default=4)
    g.add_argument("--min-girth", type=int, default=3)
    g.add_argument("--weighted", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g.add_argument("--dot")
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("fas", help="minimum feedback arc set")
    f.add_argument("file")
    f.add_argument("--heuristic", action="store_true")
    f.set_defaults(func=cmd_fas)

    fd = sub.add_parser("fasd", help="FAS decomposition number")
    fd.add_argument("file")
    fd.add_argument("--t", type=int)
    fd.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="total search nodes over all levels",
    )
    fd.add_argument("--certificate")
    fd.set_defaults(func=cmd_fasd)

    d3 = sub.add_parser("decompose3", help="partition arcs into 3 feedback arc sets")
    d3.add_argument("file")
    d3.add_argument("--certificate")
    d3.set_defaults(func=cmd_decompose3)

    cg = sub.add_parser("colorg", help="good g-arc-coloring for max degree 3")
    cg.add_argument("file")
    cg.add_argument("--g", type=int, required=True, choices=[3, 4, 5])
    cg.add_argument("--certificate")
    cg.set_defaults(func=cmd_colorg)

    f6 = sub.add_parser("fas6", help="FAS within a sixth of the arcs (degree 3, girth 6)")
    f6.add_argument("file")
    f6.add_argument("--certificate")
    f6.set_defaults(func=cmd_fas6)

    fv = sub.add_parser("fvs", help="exact minimum feedback vertex set")
    fv.add_argument("file")
    fv.set_defaults(func=cmd_fvs)

    sp = sub.add_parser("spectral", help="extremal eigenvalues of the underlying graph")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_spectral)

    mx = sub.add_parser("mixing", help="sampled mixing-inequality check")
    mx.add_argument("file")
    mx.add_argument("--samples", type=int, default=1000)
    mx.add_argument("--seed", type=int, default=0)
    mx.set_defaults(func=cmd_mixing)

    vp = sub.add_parser("verify-paper", help="run the desk-scale verification harness")
    vp.add_argument("--check", action="append", help="check id (repeatable); default all")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", help="write a machine-readable report")
    vp.set_defaults(func=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
