"""Checks on the package source itself."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "webbitext")


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert, so an invariant checked with one goes
    # unchecked there; the package raises instead.
    found = []
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (os.path.relpath(path, SRC), node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
