"""Every definition in the package is used by the package itself, and no
module of it imports numpy.

A function, class or method that only tests call is surface the certifier
does not need: either a default-suite check should use it or it should go.
This test parses ``src/tubecert/*.py`` and fails on any top-level function or
class, or non-dunder method, whose name is never referenced inside the
package (as a name, an attribute or an imported name).  The matching is by
name, so it is a lower bound on what is unused, not a call graph.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tubecert"

# Entry points called from outside the package.
ALLOWED = {("cli", "main")}  # the ``tubecert`` console script


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(qualified name, bare name) of each top-level def/class and non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _referenced(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_no_module_imports_numpy():
    """numpy is a test-only oracle; the package computes its Levi numerics itself."""
    importers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(module)
    assert not importers, f"numpy imported by: {sorted(importers)}"


def test_every_definition_is_referenced_in_the_package():
    trees = _trees()
    referenced = _referenced(trees)
    unused = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, name in _definitions(tree)
        if name not in referenced and (module, qualname) not in ALLOWED
    ]
    assert not unused, f"defined in src/tubecert but never referenced there: {unused}"
