"""The benchmark's tracer names only functions and check kinds that exist.

``tubebench/tracer.py`` wraps the functions listed in ``TARGETS`` and opens a
span per check kind in ``CHECK_KINDS``; its coverage gate fails a traced run
when one of them is gone.  This test reads both tables from the file's syntax
tree, without importing or changing it, and resolves every entry against the
package, so a deletion that breaks the gate fails here in about a second.
"""

import ast
import importlib
from pathlib import Path

from tubecert import checks

TRACER = Path(__file__).resolve().parent.parent / "tubebench" / "tracer.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "CHECK_KINDS"):
                tables[name] = node.value
    targets = [
        (ast.literal_eval(call.args[1]), ast.literal_eval(call.args[2]))
        for call in tables["TARGETS"].elts
    ]
    return targets, ast.literal_eval(tables["CHECK_KINDS"])


def test_every_tracer_target_resolves_in_the_package():
    targets, _ = _tables()
    assert targets
    missing = []
    for module, attr in targets:
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
