"""tubecert benchmark: time from ``tubecert verify`` to a verdict that can be trusted.

Usage, from the root of a checkout::

    python3 tubebench/run.py --workload suite --seed 1 --seconds 20 --trace 0

The workload config is generated from the seed (see ``workloads.py``) and is
all the program receives.  Each pass runs in a fresh interpreter
(``worker.py``), because ``tubecert verify`` is a one-shot command: a pass
pays for interpreter start, imports and config resolution (``setup_s``), then
runs every check and writes the NDJSON report (``verify_s``).  Passes repeat,
one at a time, until ``--seconds`` is used up, and each metric reports its
median over the passes.  Times are scaled to a reference machine speed by
calibrations between the checks (see ``worker.py``); the raw times are in the
detail line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracer.py`` (counts from any traced pass, since they must all agree, and
times as medians over traced passes), plus the tracing overhead
(median traced minus median untraced ``verify_s``).

Every pass is checked by the verdict gate: each check must end with its known
status, and each pass's report, with ``wall_time_ms`` removed, must equal the
first pass's.  ``attempted`` counts checks run over all passes and ``failed``
the wrong verdicts among them, so ``failed / attempted`` is the wrong-verdict
ratio.  The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 120
MIN_PASSES = 2
OUT_DIR = ROOT / ".tubebench"
# (metric, unit); each reports its median over the untraced passes of a run.
END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Raw (unscaled) times and calibration figures kept in the detail line.
RAW = ("raw_setup_s", "raw_verify_s", "raw_cpu_s", "segments")


class PassFailed(Exception):
    pass


def run_pass(config: Path, report: Path, spans: Path | None = None, traced: bool = False) -> dict:
    """Spawn one worker pass and return its JSON line, with the report's lines added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(config), str(report), repr(t0)]
    if traced:
        cmd += ["--trace", str(spans or "")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["report"] = report.read_text().splitlines()
    except (IndexError, ValueError, OSError) as exc:
        raise PassFailed(f"pass gave no readable result: {exc}") from None
    return out


def _strip_timing(line: str) -> tuple[str, str]:
    payload = json.loads(line)
    payload.pop("wall_time_ms", None)
    return payload["id"], json.dumps(payload, sort_keys=True)


def verdict_gate(reports: list[list[str] | None], expected: dict[str, str]):
    """Count checks attempted and wrong verdicts over all passes, naming each wrong check.

    A verdict is wrong when the check's status differs from the expected one,
    when its report (timing removed) differs from the first pass's, when it is
    missing from a pass's report or when the pass crashed.  Returns
    ``(attempted, failed, wrong)`` with ``wrong`` mapping check id to the first
    reason found for it.
    """
    attempted = failed = 0
    wrong: dict[str, str] = {}
    first: dict[str, str] | None = None
    for k, lines in enumerate(reports, start=1):
        got: dict[str, str] = {}
        for line in lines or []:
            check_id, stripped = _strip_timing(line)
            got[check_id] = stripped
        if first is None and lines is not None:
            first = got
        for check_id in list(expected) + [c for c in got if c not in expected]:
            attempted += 1
            if lines is None:
                reason = f"pass {k} crashed"
            elif check_id not in expected:
                reason = f"pass {k} reported an unexpected check"
            elif check_id not in got:
                reason = f"missing from pass {k}"
            elif (status := json.loads(got[check_id])["status"]) != expected[check_id]:
                reason = f"status {status!r} in pass {k}, expected {expected[check_id]!r}"
            elif got[check_id] != first.get(check_id):
                reason = f"report of pass {k} differs from the first pass"
            else:
                continue
            failed += 1
            wrong.setdefault(check_id, reason)
    return attempted, failed, wrong


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def coverage_gaps(workload: str, calls: dict[str, int]) -> list[str]:
    """Wrapped functions assigned to this workload that recorded no call."""
    names = [t.name for t in tracer.TARGETS if workload in t.workloads] + ["cli.report"]
    if workload == "suite":
        names += [f"checks.{kind}" for kind in tracer.CHECK_KINDS]
    return [name for name in names if not calls.get(name)]


def _run_passes(seconds: float, config: Path, out_dir: Path, pattern: tuple[bool, ...]):
    """Run passes until the time is spent or one fails; pass k is traced if pattern[k % len].

    A new pass starts only if the last one would still end before the
    deadline, and at least ``max(MIN_PASSES, len(pattern))`` passes run.
    """
    passes: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        k = len(passes)
        traced = pattern[k % len(pattern)]
        report = out_dir / f"pass-{k:03d}.ndjson"
        first_traced = traced and not any(p["traced"] for p in passes)
        spans = out_dir / "spans.ndjson" if first_traced else None
        start = time.monotonic()
        try:
            result = run_pass(config, report, spans, traced)
        except PassFailed as exc:
            passes.append({"traced": traced, "report": None})
            return passes, str(exc)
        result["traced"] = traced
        passes.append(result)
        last = time.monotonic() - start
        if len(passes) >= max(MIN_PASSES, len(pattern)) and time.monotonic() + last > deadline:
            return passes, None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one benchmark run and return (result object, detail object)."""
    text, expected = workloads.generate(workload, seed, ROOT)
    out_dir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config = out_dir / "workload.cfg"
    config.write_text(text)

    passes, error = _run_passes(seconds, config, out_dir, (False, True) if trace else (False,))
    attempted, failed, wrong = verdict_gate([p["report"] for p in passes], expected)
    ok = [p for p in passes if p["report"] is not None]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not plain or (trace and not traced):
        raise PassFailed(error or "no pass completed")

    detail = {
        "workload": workload, "seed": seed, "checks": len(expected),
        "passes": len(passes), "wrong_verdict_ratio": failed / attempted,
        "wrong_verdicts": wrong,
    }
    problems = [error] if error else []
    if trace:
        counts = [tracer.counts_only(p["layers"]) for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced passes")
        gaps = coverage_gaps(workload, traced[0]["calls"])
        if gaps:
            problems.append(f"no call recorded on {workload} for {gaps}")
        untraced_s = statistics.median(p["verify_s"] for p in plain)
        traced_s = statistics.median(p["verify_s"] for p in traced)
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        layers.update(counts[0])
        layers["trace.verify_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracer.metric_table()}
        detail.update(traced_passes=len(traced), untraced_passes=len(plain),
                      untraced_verify_s=untraced_s, binding_sites=traced[0]["sites"])
    else:
        metrics = {}
        for name, unit in END_TO_END:
            values = [p[name] for p in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            detail[name] = {"samples": values, "quartiles": _quartiles(values)}
        for name in RAW:
            values = [p[name] for p in plain]
            detail[name] = {"samples": values, "quartiles": _quartiles(values)}
        steps = [s for p in plain for s in p["calibration_step_s"]]
        detail["calibration_step_s"] = {"samples": len(steps), "quartiles": _quartiles(steps)}
    detail["problems"] = problems
    result = {
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps a running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tubecert" / "cli.py").is_file():
        print(f"no tubecert source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for check_id, reason in detail["wrong_verdicts"].items():
        print(f"wrong verdict: {check_id}: {reason}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
