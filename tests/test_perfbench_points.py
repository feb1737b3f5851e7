"""Every function the benchmark wraps in a span, and every name it reads of
the program, still exists.

`perfbench/spans.py` patches module attributes by name; a renamed or
deleted function would break a benchmark run (or only its `--trace 1`
layer table). This resolves each wrap point and patches nothing.

`perfbench/run.py` imports `cts` afresh and reads its modules as attributes
of the package (`cts.data.load_dataset`), so `import cts` must bind them.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_MODULE = _spans()


@pytest.mark.parametrize("target,attr,name", _MODULE.PHASE_POINTS + _MODULE.LAYER_POINTS)
def test_wrap_point_resolves(target, attr, name):
    owner = _MODULE._resolve(target)
    assert callable(getattr(owner, attr, None)), f"{target}.{attr} ({name}) is gone"


def _dotted(node) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def cts_reads(path: Path) -> set[tuple[str, ...]]:
    """The `cts` names a script reads: (module to import, attribute, ...).

    `from cts.m import n` reads ("cts.m", "n"); an attribute chain off the
    package, such as `cts.data.load_dataset` or `self.cts.data.load_dataset`,
    reads ("cts", "data", "load_dataset"), and so does `mk.x` after
    `from cts import mask as mk`.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    reads, alias = set(), {"cts": ("cts",)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cts":
            for a in node.names:
                reads.add((node.module, a.name))
                if node.module == "cts":
                    alias[a.asname or a.name] = ("cts", a.name)
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[:2] == ["self", "cts"]:
            parts = parts[1:]
        if parts and parts[0] in alias:
            reads.add(alias[parts[0]] + tuple(parts[1:]))
    return reads


_RESOLVE = """
import importlib, json, sys
import cts
missing = []
for chain in json.loads(sys.argv[1]):
    obj = importlib.import_module(chain[0])
    for part in chain[1:]:
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(".".join(chain))
print(json.dumps(missing))
"""


def test_fresh_import_binds_every_name_perfbench_reads():
    scripts = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tools" / "digest_outputs.py"]
    # chains off the package first, so that no import_module below binds a
    # module that `import cts` alone left unbound
    chains = sorted(set().union(*map(cts_reads, scripts)), key=lambda c: (c[0] != "cts", c))
    assert ("cts", "data", "load_dataset") in chains
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", _RESOLVE, json.dumps(chains)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
