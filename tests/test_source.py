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


def _eager_imports(source: str) -> list[tuple[int, str | None, list[str]]]:
    """(level, module, names) of each import that runs when the module is
    imported: every import outside a function body."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(0, alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.append((node.level, node.module, [a.name for a in node.names]))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _loaded_by(module: str) -> dict[str, set[str]]:
    """Each package module that importing `module` runs, with the modules
    outside the package that it imports at that time."""
    loaded, todo = {}, ["stc", module]
    while todo:
        name = todo.pop()
        if name in loaded:
            continue
        path = PACKAGE / ("__init__.py" if name == "stc" else name[4:] + ".py")
        loaded[name] = outside = set()
        for level, target, names in _eager_imports(path.read_text(encoding="utf-8")):
            if not level:
                outside.add(target.split(".")[0])
            elif target:
                todo.append(f"stc.{target}")
            else:
                todo += [f"stc.{n}" for n in names]
    return loaded


def test_the_eager_import_walk_skips_function_bodies():
    source = ("import os.path\nfrom . import a, b\nfrom .c import d\n"
              "class K:\n    import json\n"
              "if os.sep:\n    from math import pi\n"
              "def f():\n    from .e import g\n    import typing\n")
    assert sorted(_eager_imports(source), key=str) == [
        (0, "json", []), (0, "math", ["pi"]), (0, "os.path", []),
        (1, "c", ["d"]), (1, None, ["a", "b"])]


def test_the_cli_loads_no_generator_oracle_dataclasses_or_typing():
    # The solve path's start-up: `dataclasses` pulls in `inspect`, `ast` and
    # `dis`, `typing` is as dear when no `site` hook has loaded it, and
    # `argparse` loads `gettext`, `locale` and `shutil`.
    loaded = _loaded_by("stc.cli")
    assert sorted(loaded) == ["stc", "stc.cli", "stc.digraph", "stc.errors",
                              "stc.extension", "stc.formats", "stc.reduction",
                              "stc.solver"]
    dear = {"argparse", "dataclasses", "typing"}
    assert {name: sorted(outside & dear) for name, outside in loaded.items()
            if outside & dear} == {}
