"""Self-tests of the benchmark, run from the root of a checkout::

    python3 tubebench/selftest.py

They check the benchmark rather than tubecert: the generator is seeded and
keeps to the catalog's constraints, the verdict gate can say no, the tracer's
counts repeat exactly and reach every layer on its assigned workload, tracing
changes no result, and ``BENCHMARK.json`` names exactly the metrics that
``run.py`` prints.  Takes about half a minute.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import tracer
import workloads

ROOT = run.ROOT
GENERATED = tuple(w for w in workloads.WORKLOADS if w != "suite")
POSITIVE_PARAMS = ("count", "draws", "samples", "points", "float_count", "exact_count",
                   "inverse_draws", "stabilizer_reps", "constant_draws")


class SelfTestFailure(Exception):
    pass


def _scratch_dir():
    run.OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT_DIR)


def expect(condition: bool, message: str):
    if not condition:
        raise SelfTestFailure(message)


def test_generator_is_seeded():
    for name in GENERATED:
        first = workloads.generate(name, 3, ROOT)
        expect(first == workloads.generate(name, 3, ROOT), f"{name}: seed 3 gave two configs")
        expect(first != workloads.generate(name, 4, ROOT), f"{name}: seeds 3 and 4 agree")
        expect(set(first[1].values()) == {"pass"}, f"{name}: a check is not expected to pass")


def test_generated_configs_are_valid():
    sys.path.insert(0, str(ROOT / "src"))
    from tubecert import cli

    heights = {name: set() for name in GENERATED}
    for name in GENERATED:
        for seed in range(1, 21):
            text, expected = workloads.generate(name, seed, ROOT)
            specs = cli.parse_config(text)
            cli.resolve_targets(specs)
            expect([s.id for s in specs] == list(expected), f"{name}/{seed}: ids differ")
            for spec in specs:
                for key in POSITIVE_PARAMS:
                    if key in spec.parameters:
                        expect(int(spec.parameters[key]) >= 1, f"{spec.id}: {key} < 1")
                sigma = re.search(r"sigma=([^,)]+)", spec.target)
                if sigma:
                    expect(1 <= float(sigma[1]) < 33.97, f"{spec.id}: sigma out of range")
                alpha = re.search(r"alpha=([^,)]+)", spec.target)
                if alpha:
                    alpha = Fraction(alpha[1])
                    heights[name].add(max(abs(alpha.numerator), alpha.denominator))
    for name in ("pullback", "levi"):
        expect(min(heights[name]) <= 12, f"{name}: no alpha of small height")
        expect(max(heights[name]) >= 10**5, f"{name}: no alpha of large height")


def test_gate_flags_a_wrong_expectation():
    config = ROOT / "src" / "tubecert" / "data" / "negative_control.cfg"
    with _scratch_dir() as tmp:
        result = run.run_pass(config, Path(tmp) / "report.ndjson")
    expected = {check_id: "pass" for check_id in workloads.check_ids(config.read_text())}
    attempted, failed, wrong = run.verdict_gate([result["report"]], expected)
    expect((attempted, failed) == (1, 1), f"gate gave {attempted} attempted, {failed} failed")
    expect(list(wrong) == ["perturbed-element-asserted-exact"], f"gate named {wrong}")
    _, failed, _ = run.verdict_gate(
        [result["report"]], {"perturbed-element-asserted-exact": "fail"})
    expect(failed == 0, "gate rejected the right expectation")
    line = json.loads(result["report"][0])
    line["wall_time_ms"] += 1.0
    retimed = json.dumps(line)
    line["details"]["reason"] += " (changed)"
    _, failed, wrong = run.verdict_gate(
        [result["report"], [retimed], [json.dumps(line)]], {line["id"]: "fail"})
    expect(failed == 1 and "pass 3 differs" in wrong.get(line["id"], ""),
           f"gate missed a report that differs between passes: {wrong}")


def test_traced_counts_repeat_and_cover_every_layer():
    seed = 5
    for name in workloads.WORKLOADS:
        text, expected = workloads.generate(name, seed, ROOT)
        with _scratch_dir() as tmp:
            config = Path(tmp) / "workload.cfg"
            config.write_text(text)
            plain = run.run_pass(config, Path(tmp) / "plain.ndjson")
            traced = [run.run_pass(config, Path(tmp) / f"traced{k}.ndjson", traced=True)
                      for k in range(2)]
        counts = [tracer.counts_only(t["layers"]) for t in traced]
        expect(counts[0] == counts[1], f"{name}: per-layer counts differ between traced runs")
        _, failed, wrong = run.verdict_gate(
            [plain["report"]] + [t["report"] for t in traced], expected)
        expect(failed == 0, f"{name}: traced and untraced reports differ: {wrong}")
        gaps = run.coverage_gaps(name, traced[0]["calls"])
        expect(not gaps, f"{name}: no call recorded for {gaps}")
        sites = traced[0]["sites"]
        for alias in ("scalars.gr_add", "scalars.gr_mul", "poly.mul", "maps.compose",
                      "maps.certificate", "catalog.make_p_element"):
            expect(sites[alias] >= 2, f"{alias} wrapped at only {sites[alias]} binding site")


def test_benchmark_json_matches_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(declared == tracer.metric_table(), "per_layer differs from tracer.metric_table()")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(end_to_end == dict(run.END_TO_END),
           "end_to_end differs from run.END_TO_END")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from workloads.WORKLOADS")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
        except SelfTestFailure as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
