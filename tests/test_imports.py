"""Every name a `cts` module imports is used in that module, and every
top-level function and class is reached from the rest of the package.

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


# Kept though no code in the package calls it: it reads back the ticket files
# that every command writes, for users and tools.
UNREACHED_ON_PURPOSE = {("mask", "load_ticket")}


def unreached(paths) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class that nothing in
    ``paths`` references, as a Name, an Attribute or a from-import, outside
    its own definition."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    defs = [(mod, node) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    refs = []  # (module, node, referenced name)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(mod, node, a.name) for a in node.names]
    found = []
    for mod, d in defs:
        inside = {id(n) for n in ast.walk(d)}
        if not any(name == d.name and not (rmod == mod and id(node) in inside)
                   for rmod, node, name in refs):
            found.append((mod, d.name))
    return found


def test_every_function_is_reached():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert set(unreached(paths)) - UNREACHED_ON_PURPOSE == set()
