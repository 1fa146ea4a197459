"""A ratchet on imports: every name a module imports is used in that module.

A line that imports a name only to re-export it says so with
``# noqa: F401``.  No linter is needed; the walk below reads the source.
"""

import ast
from pathlib import Path

import fasdlab

SRC = Path(fasdlab.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are used by being exported
    used |= {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_every_import_is_used():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in unused_imports(path)] == []


def test_the_walk_flags_a_leftover_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import hashlib\nimport math\nfrom random import Random  # noqa: F401\n\nmath.pi\n")
    assert unused_imports(path) == ["mod.py:1 hashlib"]
