"""A ratchet on the functions of the package that call themselves.

Python bounds the depth of recursion, so a function that calls itself can die
with RecursionError on a large enough input.  The set below may shrink but
not grow.  The walk sees direct self-calls only: a function calling its own
name, or a method calling itself through ``self.``.  Mutual recursion and
calls through another name go unseen.
"""

import ast
import textwrap
from pathlib import Path

import fasdlab

SRC = Path(fasdlab.__file__).resolve().parent

SELF_RECURSIVE_ALLOWED = {
    # depth is the nesting of the data it converts
    "fileio._jsonable",
}


def _calls_itself(fn: ast.FunctionDef, method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if method:
            if isinstance(f, ast.Attribute) and f.attr == fn.name and isinstance(f.value, ast.Name) and f.value.id == "self":
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def self_recursive(source: str, module: str) -> set:
    """Qualified names of the functions in ``source`` that call themselves,
    nested functions and methods included, wherever they sit in a block."""
    found = set()

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, in_class):
                    found.add(name)
                visit(child, name, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), module, False)
    return found


def test_walk_sees_nested_and_method_self_calls():
    source = textwrap.dedent(
        """
        def outer(x):
            if x:
                def bb(k):
                    return bb(k - 1) if k else 0
                return bb(x)
            return outer

        class Node:
            def depth(self):
                return 1 + max((c.depth() for c in self.kids), default=0)

            def walk(self):
                return [self.walk()]

            def flat(self):
                return flat(self)
        """
    )
    assert self_recursive(source, "m") == {"m.outer.bb", "m.Node.walk"}


def test_self_recursive_functions_do_not_grow():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= self_recursive(path.read_text(), path.stem)
    assert found <= SELF_RECURSIVE_ALLOWED, sorted(found - SELF_RECURSIVE_ALLOWED)
