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


def test_no_true_division():
    """Coordinates are exact rationals, and most are plain ints: `int / int`
    would turn one into a float unseen. The package divides with `//` or
    builds a Fraction, so no `/` operator appears in it."""
    root = Path(polyshallow.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
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


# Every function that builds a value with `core._unchecked` (no validation),
# named as (module, qualified function), with the test in
# tests/test_producers.py that checks its output against full validation.
UNCHECKED_PRODUCERS = {
    ("core", "Hypergraph.from_edges"): "test_from_edges_valid_property",
    ("core", "VertexSet.of"): "test_vertex_set_of_valid_property",
    ("core", "restrict_at_least"): "test_restrictions_and_induced_valid_property",
    ("core", "restrict_exact"): "test_restrictions_and_induced_valid_property",
    ("core", "induced_subhypergraph"): "test_restrictions_and_induced_valid_property",
    ("geometry", "capture_edges"): "test_capture_edges_valid_property",
    ("apgraphs", "build_ap_hypergraph"): "test_build_ap_hypergraph_valid_property",
}


def _uses(tree: ast.AST, name: str) -> list[str]:
    """Qualified names of the functions (or "<module>") that refer to `name`,
    as a bare name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return found


def test_unchecked_producers_are_tested():
    """A function that skips validation must be on UNCHECKED_PRODUCERS, and
    the test named for it must exist, so a new caller needs a test entry."""
    root = Path(polyshallow.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        callers |= {(module, fn) for fn in _uses(tree, "_unchecked")}
    assert callers == set(UNCHECKED_PRODUCERS)
    tests = Path(__file__).with_name("test_producers.py")
    defined = {node.name for node in ast.walk(ast.parse(tests.read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert set(UNCHECKED_PRODUCERS.values()) <= defined


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function, class and assigned
    name, and of each method of a module-level class; dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node.lineno) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _references(tree: ast.AST):
    """Every loaded name, attribute read and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_no_dead_names():
    """Every name the package defines at module level, and every method,
    is referenced somewhere in src/, tests/ or bench/; dunders are exempt.

    A reference is matched by bare name only: any attribute read of that
    name counts, whatever object it is read from, and so does a call of a
    function inside its own body. A dead method that shares its name with
    any attribute read elsewhere therefore passes."""
    root = Path(polyshallow.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    used = set()
    for part in ("src", "tests", "bench"):
        for path in sorted((repo / part).rglob("*.py")):
            used.update(_references(ast.parse(path.read_text(), str(path))))
    dead = [f"{path.relative_to(root)}:{line} {name}"
            for path in sorted(root.rglob("*.py"))
            for name, line in _definitions(ast.parse(path.read_text(), str(path)))
            if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
