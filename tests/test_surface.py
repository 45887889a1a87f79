"""Every definition and module-level constant in the package is used by the
package itself, every parameter default is overridden somewhere in it, no
module of it imports numpy or dataclasses, no float polynomial remains in it,
one zero test builds every invariance certificate, and one base class makes
every value class immutable and compares it.

A function, class or method that only tests call is surface the certifier
does not need: either a default-suite check should use it or it should go.
This test parses ``src/tubecert/*.py`` and fails on any top-level function or
class, or non-dunder method, whose name is never referenced inside the
package (as a name, an attribute or an imported name).  Likewise a parameter
default that no call in the package overrides is a knob with one value: it
should be a constant.  The matching is by name, so both are lower bounds on
what is unused, not a call graph.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tubecert.poly import HermitianPolynomial, VariableSpace
from tubecert.scalars import GaussianRational

SRC = Path(__file__).resolve().parent.parent / "src" / "tubecert"

# Entry points called from outside the package.
ALLOWED = {("cli", "main")}  # the ``tubecert`` console script

# Module-level constants read from outside the package.
ALLOWED_CONSTANTS = {("__init__", "__version__")}

# Defaults that callers outside the package override, as (module, function, parameter).
ALLOWED_DEFAULTS = {
    ("cli", "main", "argv"),  # the console entry reads sys.argv
    # Tests pass a degenerate form H as an oracle: it enlarges the algebra.
    ("lie", "u21_basis", "H"),
    ("lie", "su21_basis", "H"),
}


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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _importers(package: str) -> list[str]:
    """The modules of the package that import ``package`` or one of its submodules."""
    importers = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == package for name in names):
                importers.add(module)
    return sorted(importers)


def test_no_module_imports_numpy():
    """numpy is a test-only oracle; the package computes its Levi numerics itself."""
    importers = _importers("numpy")
    assert not importers, f"numpy imported by: {importers}"


def test_no_module_imports_dataclasses():
    """The records are plain classes: ``dataclasses`` loads ``inspect`` (and ``ast``,
    ``dis``, ``tokenize``) into every start-up, and each decorator runs at import."""
    importers = _importers("dataclasses")
    assert not importers, f"dataclasses imported by: {importers}"


def test_loading_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, tubecert.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("coefficient", [0.5, 2.0, 1j, complex(1, 0)], ids=repr)
def test_polynomials_reject_float_and_complex_coefficients(coefficient):
    space = VariableSpace(1)
    with pytest.raises(TypeError):
        HermitianPolynomial(space, {(1, 0): coefficient})
    with pytest.raises(TypeError):
        HermitianPolynomial.constant(space, coefficient)
    for exact in (1, Fraction(1, 2), GaussianRational(1, 2)):
        assert not HermitianPolynomial(space, {(1, 0): exact}).is_zero()


def test_no_float_tower_names_remain_in_the_package():
    """Every polynomial is exact: no name ``to_float`` or ``printed_map``, no
    ``exact=`` keyword in a call and no parameter named ``exact``."""
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                names = [node.name]
            elif isinstance(node, ast.Call):
                names = [f"{k.arg}=" for k in node.keywords if k.arg == "exact"]
            elif isinstance(node, ast.arg) and node.arg == "exact":
                names = ["parameter exact"]
            found += [f"{module}.py:{getattr(node, 'lineno', '?')}: {name}" for name in names
                      if name in ("to_float", "printed_map", "exact=", "parameter exact")]
    assert not found, f"float-tower names in src/tubecert: {found}"


def test_only_the_zero_test_builds_a_certificate():
    """An ``InvarianceCertificate(...)`` call appears only in maps.equivalence_certificate,
    so a second certificate route cannot come back unnoticed."""
    builders = set()
    for module, tree in _trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "InvarianceCertificate":
                        builders.add(f"{module}.{getattr(top, 'name', '<module>')}")
    assert builders == {"maps.equivalence_certificate"}


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


def _constants(tree):
    """The names bound by the module's top-level assignments."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_module_constant_is_read_in_the_package():
    trees = _trees()
    read = _referenced(trees)
    unread = [f"{module}.{name}" for module, tree in trees.items() for name in _constants(tree)
              if name not in read and (module, name) not in ALLOWED_CONSTANTS]
    assert not unread, f"module constants never read in src/tubecert: {unread}"


def test_only_the_record_base_defines_setattr():
    """Immutability is written once, in scalars.Record, so a second idiom for it
    cannot come back unnoticed."""
    definers = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bound = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                bound |= {t.id for item in node.body if isinstance(item, ast.Assign)
                          for t in item.targets if isinstance(t, ast.Name)}
                if "__setattr__" in bound:
                    definers.append(f"{module}.{node.name}")
    assert definers == ["scalars.Record"]


def test_only_the_record_base_and_the_scalar_define_eq():
    """Value equality is written once, in scalars.Record; GaussianRational keeps its own
    because it also equals the int or Fraction of the same value."""
    definers = [f"{module}.{node.name}" for module, tree in _trees().items()
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(isinstance(item, ast.FunctionDef) and item.name == "__eq__"
                        for item in node.body)]
    assert definers == ["scalars.Record", "scalars.GaussianRational"]


def _defaults(tree):
    """(function, callee name, parameter, its index among a call's positional
    arguments or None) for each parameter default; a method's ``self`` is not
    among them, and ``__init__`` is called by its class name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(item): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, functions)
    }
    for node in ast.walk(tree):
        if not isinstance(node, functions):
            continue
        owner = methods.get(id(node))
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        callee = owner if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index in range(first, len(positional)):
            yield node.name, callee, positional[index].arg, index - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, callee, arg.arg, None


def _overrides(call, parameter, index):
    """True when the call may set the parameter: by keyword, by position, or
    through ``*args`` / ``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_overridden_in_the_package():
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    fixed = [
        f"{module}.{function}({parameter})"
        for module, tree in trees.items()
        for function, callee, parameter, index in _defaults(tree)
        if (module, function, parameter) not in ALLOWED_DEFAULTS
        and not any(_overrides(c, parameter, index) for c in calls.get(callee, ()))
    ]
    assert not fixed, f"defaults that no call in src/tubecert overrides: {fixed}"
