"""Text graph format, DOT export, and versioned JSON certificate schemas.

The text format is line-oriented UTF-8: the first non-comment line is
``n m``, followed by m lines ``u v`` or ``u v w`` with 0-indexed endpoints and
decimal weights.  ``#`` starts a comment anywhere.  Unweighted graphs
round-trip bit-exactly.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, is_dataclass

from .digraph import Digraph, GraphError

CERT_SCHEMA = "fasdlab-cert-v1"


class FormatError(ValueError):
    """Malformed graph file; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_digraph(text: str) -> Digraph:
    lines = _content_lines(text)
    try:
        lineno, head = next(lines)
    except StopIteration:
        raise FormatError(0, "empty file") from None
    parts = head.split()
    if len(parts) != 2:
        raise FormatError(lineno, f"expected 'n m', got {head!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(lineno, f"expected integers in header, got {head!r}") from None
    arcs = []
    weights = []
    head_line, arc_lines = lineno, []
    weighted = None
    for lineno, line in lines:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(lineno, f"expected 'u v' or 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(lineno, f"bad endpoints in {line!r}") from None
        has_w = len(parts) == 3
        if weighted is None:
            weighted = has_w
        elif weighted != has_w:
            raise FormatError(lineno, "mixed weighted and unweighted arc lines")
        if has_w:
            try:
                w = float(parts[2])
            except ValueError:
                raise FormatError(lineno, f"bad weight in {line!r}") from None
            weights.append(w)
        arcs.append((u, v))
        arc_lines.append(lineno)
        if len(arcs) > m:
            raise FormatError(lineno, f"more than the declared {m} arcs")
    if len(arcs) != m:
        raise FormatError(lineno, f"declared {m} arcs, found {len(arcs)}")
    try:
        return Digraph(n, arcs, weights if weighted else None)
    except GraphError:
        pass

    def error(k):
        try:
            Digraph(n, arcs[:k], weights[:k] if weighted else None)
        except GraphError as exc:
            return exc
        return None

    # Digraph checks n, then each arc and each weight on its own, so it rejects
    # exactly the arc prefixes that reach the first bad line: the shortest one
    # names that line, or the header when it is empty
    k = bisect.bisect_left(range(len(arcs) + 1), True, key=lambda k: error(k) is not None)
    raise FormatError(arc_lines[k - 1] if k else head_line, str(error(k)))


def format_digraph(d: Digraph) -> str:
    out = [f"{d.n} {d.m}"]
    if d.weights is None:
        out.extend(f"{u} {v}" for u, v in d.arcs)
    else:
        out.extend(f"{u} {v} {w!r}" for (u, v), w in zip(d.arcs, d.weights))
    return "\n".join(out) + "\n"


def read_digraph(path) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def write_digraph(path, d: Digraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_digraph(d))


def to_dot(d: Digraph) -> str:
    """Graphviz rendering; weights become edge labels."""
    lines = ["digraph D {"]
    for v in range(d.n):
        lines.append(f"  {v};")
    for a, (u, v) in enumerate(d.arcs):
        if d.weights is not None:
            lines.append(f'  {u} -> {v} [label="{d.weights[a]!r}"];')
        else:
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    from fractions import Fraction

    from .digraph import _Infinite

    if isinstance(obj, _Infinite):
        return "infinite"
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def certificate_json(kind: str, payload: dict, claim: str) -> str:
    """Versioned JSON envelope for any certificate object."""
    doc = {"schema": CERT_SCHEMA, "kind": kind, "claim": claim}
    doc.update({k: _jsonable(v) for k, v in payload.items()})
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
