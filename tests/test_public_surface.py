"""A ratchet on the package's public names.

A function or constant in ``fasdlab.__all__``, a public module-level
function of any module, or a public method or property of any class, that
nothing in the package calls and the benchmark does not run exists only for
its own tests: its input checks guard nothing the lab runs.  Each such name either gains a caller or goes, and its tests
call the private step that stays.  ``UNCALLED`` names the few that stay
anyway, each with its reason.
"""

import ast
from pathlib import Path

import fasdlab
from test_bench_interface import bench_calls

SRC = Path(fasdlab.__file__).resolve().parent

UNCALLED = {
    "fvs_brute": "the tests' reference oracle for fvs_exact",
    "is_subordering": "a test's property helper (ROADMAP item 13)",
    "prime_in_progression": "the census of ROADMAP item 11 is to be its caller (item 13)",
    "split4_degree3": "the census of ROADMAP item 11 is to be its caller (item 13)",
    "complete": "FasdCertificate.complete: the benchmark's gate_fasd reads it",
}


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


def public_functions() -> list:
    """Every module-level function of the package, and every method or
    property of a module-level class, whose name does not start with an
    underscore."""
    tops = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    defs = tops + [node for top in tops if isinstance(top, ast.ClassDef) for node in top.body]
    return [
        node.name
        for node in defs
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def test_every_public_name_has_a_caller():
    benchmarked = {name for names in bench_calls().values() for name in names}
    called = names_read_in_src() | benchmarked | set(UNCALLED)
    exported = [name for name in fasdlab.__all__ if not isinstance(getattr(fasdlab, name), type)]
    unused = [name for name in exported + public_functions() if name not in called]
    assert unused == []
