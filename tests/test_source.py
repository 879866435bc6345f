"""Checks on the package source itself."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "bnscan")


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
