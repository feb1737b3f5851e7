"""Every name a `cts` module imports is used in that module.

No linter is installed, so this walks each module's syntax tree with the
standard library's `ast`. `__init__.py` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cts"


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in _imported(tree) if name not in used]


def test_no_unused_imports():
    found = {p.name: unused_imports(p) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
