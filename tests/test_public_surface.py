"""A ratchet on the package's public names.

A function or constant in ``fasdlab.__all__`` that nothing in the package
calls and the benchmark does not run exists only for its own tests: its input
checks guard nothing the lab runs.  Each such name either gains a caller or
goes, and its tests call the private step that stays.
"""

import ast
from pathlib import Path

import fasdlab
from test_bench_interface import bench_calls

SRC = Path(fasdlab.__file__).resolve().parent


def names_read_in_src() -> set:
    """Every name or attribute the package's modules read, other than in
    ``__init__``; a ``def`` or an import binds its name without reading it."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller():
    benchmarked = {name for names in bench_calls().values() for name in names}
    read = names_read_in_src()
    unused = [
        name
        for name in fasdlab.__all__
        if not isinstance(getattr(fasdlab, name), type) and name not in read | benchmarked
    ]
    assert unused == []
