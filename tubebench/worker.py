"""One verify pass in a fresh interpreter.

Usage: ``python3 tubebench/worker.py <root> <config> <report> <t0> [--trace <spans>]``

Runs the steps of ``tubecert verify <config> --out <report>``: import
``tubecert.cli``, ``parse_config`` and ``resolve_targets`` (set-up), then
``run_suite`` and the NDJSON report write (the timed pass).  ``t0`` is the
spawning process's ``time.monotonic()`` just before the spawn, so set-up time
includes interpreter start.  Prints one JSON line with the timings, or with
the per-layer summary when traced.

The speed of the shared machine this runs on drifts by up to about 2x within
seconds, set by load from outside the process; CPU time drifts with it.  So
the pass runs the checks in config order in segments of at least
``SEGMENT_S`` (each a ``run_suite`` call over whole checks) and runs a fixed
piece of reference work (``calibrate``) before the first segment and after
every segment.  Each segment's time is scaled by the reference speed over the
speed the two calibrations around it measured, which removes the machine's
drift from the time but keeps every change in the program's own cost.  The
raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

# Shortest stretch of checks timed between two calibrations.
SEGMENT_S = 0.1
# Iterations of the reference loop in one calibration.
CALIBRATION_STEPS = 1500
# Wall (and CPU) seconds per reference iteration that the scaled times assume:
# about the fastest one iteration ran on the 2-core Xeon of the baseline, with
# Python 3.11.7, so scaled times read close to raw times on an unloaded machine.
REFERENCE_STEP_S = 7.5e-6


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def calibrate(steps: int = CALIBRATION_STEPS) -> tuple[float, float]:
    """Wall and CPU seconds per iteration of a fixed piece of Fraction arithmetic.

    The loop uses only the standard library, and runs with the cyclic garbage
    collector off so the size of tubecert's heap does not reach it; no change
    to tubecert moves it.  It only tracks how fast the machine runs Python now.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    a, b, acc, seen = Fraction(3, 7), Fraction(5, 11), Fraction(0), {}
    for i in range(steps):
        c = a * b + Fraction(i % 13, 17)
        acc = (acc + c) / 3
        seen[i & 255] = c
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if gc_was_on:
        gc.enable()
    return wall / steps, cpu / steps


def timed_run(cli, specs, report: Path, tracer=None) -> tuple[list, dict]:
    """Run every check and write the report, timing segments between calibrations.

    Returns the results and the pass's timings: raw and scaled wall and CPU
    seconds, the calibrations and the number of segments.
    """
    results = []
    calibrations = [calibrate()]
    raw_wall = raw_cpu = scaled_wall = scaled_cpu = 0.0
    i = 0
    while i < len(specs):
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        while i < len(specs) and time.perf_counter() - wall0 < SEGMENT_S:
            results += cli.run_suite([specs[i]])
            i += 1
        if i == len(specs):
            with tracer.region("cli.report") if tracer else nullcontext():
                report.write_text("".join(cli.result_json_line(r) + "\n" for r in results))
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        calibrations.append(calibrate())
        (wall_before, cpu_before), (wall_after, cpu_after) = calibrations[-2:]
        raw_wall += wall
        raw_cpu += cpu
        scaled_wall += wall * 2 * REFERENCE_STEP_S / (wall_before + wall_after)
        scaled_cpu += cpu * 2 * REFERENCE_STEP_S / (cpu_before + cpu_after)
    timings = {
        "verify_s": scaled_wall, "cpu_s": scaled_cpu,
        "raw_verify_s": raw_wall, "raw_cpu_s": raw_cpu,
        "calibration_step_s": [wall for wall, _ in calibrations],
        "segments": len(calibrations) - 1,
    }
    return results, timings


def main(argv: list[str]) -> int:
    root, config, report, t0 = Path(argv[0]).resolve(), argv[1], Path(argv[2]), float(argv[3])
    spans_path = argv[5] if len(argv) > 5 and argv[4] == "--trace" else None
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from tubecert import cli

    source = (root / "src" / "tubecert").resolve()
    if Path(cli.__file__).resolve().parent != source:
        print(f"tubecert was imported from {cli.__file__}, not {source}", file=sys.stderr)
        return 2
    specs = cli.parse_config(Path(config).read_text())
    cli.resolve_targets(specs)
    raw_setup_s = time.monotonic() - t0

    _, out = timed_run(cli, specs, report, tracer)
    # Set-up is scaled by the calibration that follows it.
    out.update(setup_s=raw_setup_s * REFERENCE_STEP_S / out["calibration_step_s"][0],
               raw_setup_s=raw_setup_s)
    if tracer is None:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.update(peak_rss_mb=rss_kb / 1024.0)
    else:
        out.update(layers=tracer.summary(), calls=dict(tracer.calls), sites=tracer.sites)
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
