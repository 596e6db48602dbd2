"""The package's surface: no dead imports, and an `__all__` that resolves.

Standard library only (`ast`), so it runs wherever the rest of the suite does.
"""

import ast
from pathlib import Path

import regunify

SRC = Path(regunify.__file__).parent


def _imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # `__all__` entries and quoted annotations name things as strings
            used.add(node.value)
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_all_entries_resolve_and_are_unique():
    assert len(regunify.__all__) == len(set(regunify.__all__))
    assert [n for n in regunify.__all__ if not hasattr(regunify, n)] == []


def test_unused_import_is_reported():
    # the check above must see through attribute use, aliases and strings
    tree = ast.parse(
        "import os.path\nimport json as j\nfrom x import a, b, c\n"
        "def f(v: 'a') -> None:\n    return os.path.join(j.dumps(v))\n__all__ = ['c']\n"
    )
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["b"]
