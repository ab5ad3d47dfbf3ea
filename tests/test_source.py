"""Source-level checks on the package."""
import ast
import pathlib

import interfero

SRC = pathlib.Path(interfero.__file__).parent


def test_no_assert_statements_in_package():
    # validation by assert leaks tracebacks and disappears under python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
