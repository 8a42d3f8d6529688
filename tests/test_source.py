"""Static checks on the package source, with the standard library only."""

import ast
import importlib.util
from pathlib import Path

import stc

PACKAGE = Path(stc.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """The names a module imports (at any depth) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_unused_import_check_sees_unused_names():
    source = ("import os, os.path\nimport sys as system\n"
              "from json import dumps, loads as read\n"
              "def f():\n    from math import pi, tau\n"
              "    return system.argv, read, os.sep, tau\n")
    assert _unused_imports(source) == ["dumps", "pi"]


def test_no_module_imports_a_name_it_never_uses():
    # `__init__.py` imports names to re-export them.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_name_the_benchmark_wraps_exists():
    # The benchmark's traced run reports a layer whose name is gone as null.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert len(layers.LAYERS) >= 19
    assert [name for _, name in layers.LAYERS if layers.resolve(name) is None] == []
