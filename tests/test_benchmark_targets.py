"""The benchmark's tracer names only functions and check kinds that exist.

``tubebench/tracer.py`` wraps the functions listed in ``TARGETS`` and opens a
span per check kind in ``CHECK_KINDS``; its coverage gate fails a traced run
when one of them is gone.  This test reads both tables from the file's syntax
tree, without importing or changing it, and resolves every entry against the
package, so a deletion that breaks the gate fails here in about a second.

The gate also fails a traced run when a target is not called on a workload it
is assigned to.  The last test generates the ``levi``, ``pullback`` and
``elimination`` configs with ``tubebench/workloads.py``, empties the package's
``functools`` caches (a worker pass starts in a fresh interpreter, so a target
called only inside a cached routine runs once in it), runs the config
in-process under ``cProfile`` and checks each assignment, so moving a target
off its workload fails here too.
"""

import ast
import cProfile
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tubecert import checks, cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "tubebench" / "tracer.py"
WORKLOADS = ROOT / "tubebench" / "workloads.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "CHECK_KINDS"):
                tables[name] = node.value
    # _t(name, module, attr, fields, workloads="all")
    targets = [
        (
            ast.literal_eval(call.args[1]),
            ast.literal_eval(call.args[2]),
            ast.literal_eval(call.args[4]) if len(call.args) > 4 else "all",
        )
        for call in tables["TARGETS"].elts
    ]
    return targets, ast.literal_eval(tables["CHECK_KINDS"])


def test_every_tracer_target_resolves_in_the_package():
    targets, _ = _tables()
    assert targets
    missing = []
    for module, attr, _ in targets:
        obj = importlib.import_module(f"tubecert.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_tracer_check_kind_has_a_handler():
    _, kinds = _tables()
    assert kinds
    assert [kind for kind in kinds if kind not in checks.HANDLERS] == []


def _clear_package_caches():
    """Empty every functools cache of the package, as a fresh interpreter starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("tubecert."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.mark.parametrize("workload", ["levi", "pullback", "elimination"])
def test_every_tracer_target_is_called_on_its_workload(workload):
    spec = importlib.util.spec_from_file_location("tubebench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text, expected = workloads.generate(workload, 1, ROOT)
    _clear_package_caches()
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        specs = cli.parse_config(text)
        cli.resolve_targets(specs)
        results = cli.run_suite(specs)
    finally:
        profiler.disable()
    assert {r.id: r.status for r in results} == expected
    package = Path(cli.__file__).resolve().parent
    called = {
        (Path(entry.code.co_filename).stem, entry.code.co_qualname)
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and Path(entry.code.co_filename).resolve().parent == package
    }
    targets, _ = _tables()
    wanted = {
        (module, attr)
        for module, attr, where in targets
        if where == "all" or workload in where.split()
    }
    assert sorted(wanted - called) == []
