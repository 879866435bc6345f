"""Checks on the package source itself."""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.join(ROOT, "src", "bnscan")


def test_the_package_has_no_assert_statements():
    # checks that guard results must still run under python -O, which
    # compiles assert statements away; they raise exceptions instead
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_every_function_the_benchmark_traces_exists():
    # perfbench/spans.py finds the layers by rebinding these names; a
    # rename in the package would silently drop a layer from the trace
    path = os.path.join(ROOT, "perfbench", "spans.py")
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert targets
    missing = []
    for module, name, _span in targets:
        mod = importlib.import_module(f"bnscan.{module}")
        if not callable(getattr(mod, name, None)):
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_no_module_imports_a_name_it_never_uses():
    # a leftover import hides which module still depends on which; the
    # package's __init__ re-exports its names, so it is left out
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    unused = []
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{os.path.basename(path)}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not unused, unused
