"""Batch verification runner.

``tubecert verify <config>`` executes every check block in a config file and
emits one JSON object per check (newline-delimited) plus a markdown summary
table.  ``tubecert describe <id>`` prints a catalog object, ``tubecert list``
the known identifiers.

Config files are line-oriented key-value blocks, one check per block, blocks
separated by blank lines::

    # generator invariance at alpha = 0
    id = gamma-generators-alpha-0
    kind = invariance
    target = gamma(alpha=0)
    seed = 101
    path = exact
    param.count = 20

Exit codes: 0 all checks pass, 1 any check fails, 2 config or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import catalog
from .checks import CheckResult, CheckSpec, prepare, run_check
from .errors import ConfigError, DomainError
from .geometry import Hypersurface, SidedDomain
from .maps import HoloPolyMap
from .poly import RealPolynomial, format_poly


BLOCK_KEYS = ("id", "kind", "target", "seed", "path")


def parse_config(text: str) -> list[CheckSpec]:
    """Parse the block format; every block needs id, kind, and target.

    A block takes the keys in ``BLOCK_KEYS`` and ``param.<name>``, each at most
    once.  Each block is checked against the check table and typed
    (:func:`checks.prepare`).
    """
    specs: list[CheckSpec] = []
    block: dict[str, str] = {}
    block_end = 0  # the line of the block's last key
    seen_ids: set[str] = set()

    def reject(lineno: int, message: str):
        where = f"check {block['id']!r}, line {lineno}" if "id" in block else f"line {lineno}"
        raise ConfigError(f"{where}: {message}")

    def flush():
        if not block:
            return
        for required in ("id", "kind", "target"):
            if required not in block:
                raise ConfigError(f"block ending at line {block_end} lacks {required!r}")
        if block["id"] in seen_ids:
            raise ConfigError(f"duplicate check id {block['id']!r}")
        seen_ids.add(block["id"])
        try:
            seed = int(block.get("seed", "0"))
        except ValueError:
            raise ConfigError(f"check {block['id']!r}: bad seed {block['seed']!r}") from None
        params = {
            key[len("param."):]: value
            for key, value in block.items()
            if key.startswith("param.")
        }
        spec = CheckSpec(
            id=block["id"],
            kind=block["kind"],
            target=block["target"],
            parameters=params,
            seed=seed,
            path=block.get("path", "exact"),
        )
        specs.append(prepare(spec))
        block.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in BLOCK_KEYS and not key.startswith("param."):
            reject(lineno, f"unknown key {key!r} (keys are {', '.join(BLOCK_KEYS)}, param.<name>)")
        if key in block:
            reject(lineno, f"key {key!r} repeated in the block")
        block[key] = value
        block_end = lineno
    flush()
    return specs


def default_config_text() -> str:
    return resources.files("tubecert").joinpath("data/default_suite.cfg").read_text()


def resolve_targets(specs: list[CheckSpec]):
    """Fail fast, before running anything, if a registry target cannot be built
    (a ``lie`` target names its check, not a catalog object)."""
    for spec in specs:
        try:
            if catalog.parse_ident(spec.target)[0] in catalog.FAMILIES:
                catalog.resolve(spec.target)
        except (KeyError, DomainError) as exc:
            raise ConfigError(f"check {spec.id!r}: {exc.args[0]}") from None


def run_suite(
    specs: list[CheckSpec],
    fail_fast: bool = False,
    seed_override: int | None = None,
) -> list[CheckResult]:
    """Run the checks one after another, in config order."""
    results = []
    for spec in specs:
        if seed_override is not None:
            spec = spec._replace(seed=seed_override)
        results.append(run_check(spec))
        if fail_fast and results[-1].status != "pass":
            break
    return results


def result_json_line(result: CheckResult) -> str:
    payload = {"id": result.id, "status": result.status, "details": result.details,
               "wall_time_ms": round(result.wall_time_ms, 3)}
    return json.dumps(payload, sort_keys=True, default=str)


def markdown_summary(results: list[CheckResult]) -> str:
    lines = ["| check | status | time (ms) |", "|---|---|---|"]
    for r in results:
        lines.append(f"| {r.id} | {r.status} | {r.wall_time_ms:.1f} |")
    passed = sum(r.status == "pass" for r in results)
    lines.append("")
    lines.append(f"{passed}/{len(results)} checks passed.")
    return "\n".join(lines)


def describe(ident: str) -> str:
    entry = catalog.resolve(ident)
    lines = [f"{entry.ident}  [{entry.kind}]", entry.description]
    obj = entry.obj
    if isinstance(obj, Hypersurface):
        lines.append(f"rho = {format_poly(obj.rho)}")
    elif isinstance(obj, SidedDomain):
        rel = ">" if obj.side == 1 else "<"
        lines.append(f"points with rho {rel} 0, rho = {format_poly(obj.rho)}")
    elif isinstance(obj, catalog.RationalizedEquivalence):  # the printed map, exactly
        for i, (comp, r) in enumerate(zip(obj.rational_map.components, obj.radicands), start=1):
            lines.append(f"z{i} -> ({r})^(1/4) * [{format_poly(comp)}]")
    elif isinstance(obj, HoloPolyMap):
        for i, comp in enumerate(obj.components, start=1):
            lines.append(f"z{i} -> {format_poly(comp)}")
    elif isinstance(obj, RealPolynomial):
        lines.append(f"graph = {obj}")
    elif isinstance(obj, tuple):  # matrix rows
        for row in obj:
            lines.append("[ " + ", ".join(str(x) for x in row) + " ]")
    else:
        lines.append(repr(obj))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubecert", description="certificate suite for homogeneous tube domains"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification config")
    p_verify.add_argument("config", nargs="?", help="config path (omit for the shipped suite)")
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument("--format", choices=("json", "md"), default="json")
    p_verify.add_argument("--seed-override", type=int, default=None)
    p_verify.add_argument("--out", help="also write the JSON report to this file")

    p_desc = sub.add_parser("describe", help="print a catalog object")
    p_desc.add_argument("ident")

    sub.add_parser("list", help="list known identifiers")

    args = parser.parse_args(argv)

    if args.command == "list":
        for ident in catalog.known_identifiers():
            print(ident)
        return 0

    if args.command == "describe":
        try:
            print(describe(args.ident))
        except (KeyError, DomainError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        return 0

    try:
        text = Path(args.config).read_text() if args.config else default_config_text()
        specs = parse_config(text)
        resolve_targets(specs)
    except (ConfigError, OSError, KeyError, DomainError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:  # an unwritable report path fails before any check runs
        report = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2

    results = run_suite(specs, fail_fast=args.fail_fast, seed_override=args.seed_override)
    json_lines = [result_json_line(r) for r in results]
    if args.format == "json":
        for line in json_lines:
            print(line)
    else:
        print(markdown_summary(results))
    if report:
        with report:
            report.write("\n".join(json_lines) + "\n")

    # An empty config is an empty report that vacuously passes.
    return 1 if any(r.status != "pass" for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
