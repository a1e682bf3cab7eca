"""Rules on the library source itself."""
import ast
import sys
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


def test_imports_are_stdlib_or_polyshallow():
    """The package has no runtime dependencies (`dependencies = []` in
    pyproject.toml): every import names a standard-library module or
    polyshallow itself, relative imports included."""
    root = Path(polyshallow.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"polyshallow"}]
    assert found == []
