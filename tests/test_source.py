"""Rules on the library source itself."""
import ast
from pathlib import Path

import polyshallow


def test_no_assert_statements():
    """Witness and input checks must still run under `python -O`, which
    strips every assert statement, so the library raises instead."""
    root = Path(polyshallow.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10  # the whole package, subpackages included
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
