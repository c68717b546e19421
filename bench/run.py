#!/usr/bin/env python3
"""Benchmark command for aces: one workload per process, a closed loop with one
client on a single thread.

    python3 bench/run.py --workload chain-desk --seed 1 --seconds 20 --trace 0

A run replays a fixed job list made from ``--seed``; ``--seconds`` sizes the
list through each workload's nominal job rate, so the work done never depends
on a clock.  Set-up builds the workload's key set several times (the median
is ``setup_s``), checks every key, then one untimed warm-up job runs before
the timed loop.  Every job's outputs are checked.  Times are reported on the
reference host (see ``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times each layer
of ``aces`` instead: it runs the rounds of the first half of the job list
untraced and traced, alternating which pass goes first, and prints the
per-layer metrics, per traced job (``keygen.*`` per key, from one traced
key-set build).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy is written to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pk_bytes": "bytes",
    "ct_bytes": "bytes",
}

# Layer -> the per-layer metrics its wrapper yields.
TIMED_LAYERS = {
    "rings.mul": ("calls", "self_ms"),
    "rings.make": ("calls", "self_ms"),
    "rings.add": ("calls", "self_ms"),
    "channel.sample": ("calls", "self_ms"),
    "channel.eval": ("calls", "self_ms"),
    "cipher.encrypt": ("calls", "self_ms"),
    "cipher.decrypt": ("self_ms",),
    "homo.hom_mul": ("calls", "self_ms"),
    "homo.tensor_contract": ("self_ms",),
    "homo.hom_add": ("self_ms",),
    "refresh.refresh_ct": ("calls", "self_ms"),
    "refresh.check": ("calls", "self_ms"),
    "circuit.evaluate": ("self_ms",),
    "serial.load": ("self_ms",),
    "serial.dump": ("self_ms",),
    "serial.decode": ("self_ms",),
    "serial.encode": ("self_ms",),
    "cli.main": ("self_ms",),
}
COUNTED = ("circuit.gates", "circuit.refresh_events", "serial.load.bytes", "serial.dump.bytes")
KEYGEN_LAYERS = ("keygen.keygen", "keygen.secret", "keygen.tensor", "keygen.locators")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, kinds in TIMED_LAYERS.items():
        for kind in kinds:
            units[f"{layer}.{kind}"] = "count" if kind == "calls" else "ms"
    units["refresh.check.hit_ratio"] = "ratio"
    for name in COUNTED:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for layer in KEYGEN_LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.traced_jobs_per_s"] = "1/s"
    units["trace.untraced_jobs_per_s"] = "1/s"
    units["host.calibration_ms"] = "ms"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aces" / "__init__.py").is_file():
        print(f"error: the aces sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_runner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    jobs = wl.jobs(args.seed, args.seconds)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    try:
        runner = make_runner(wl, args.seed, work)
        if args.trace:
            return traced_run(wl, runner, jobs, args)
        return plain_run(wl, runner, jobs, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_setup(wl, runner, clock, seed) -> list[str]:
    """Key checks plus one untimed warm-up job."""
    from workloads import Loop

    warm = Loop(wl, runner, clock, measure_sizes=False).run([wl.warmup(seed)])
    return runner.check_keys() + warm.problems + warm.failures


def plain_run(wl, runner, jobs, args) -> int:
    from hostspeed import HostClock
    from workloads import Loop

    clock = HostClock()
    clock.calibrate()
    builds, first, problems = [], None, []
    for _ in range(wl.setup_repeats):
        builds.append([])
        keys = runner.build_keys(clock, builds[-1])
        if first is None:
            first = keys
        elif keys != first:
            problems.append("set-up is not deterministic: key sets differ between builds")
    problems += check_setup(wl, runner, clock, args.seed)
    loop = Loop(wl, runner, clock).run(jobs, wl.rounds)
    ms = [s * 1000 for s in loop.seconds()]
    values = {
        "setup_s": statistics.median(clock.seconds(spans) for spans in builds),
        "jobs_per_s": loop.jobs_per_s,
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pk_bytes": runner.pk_bytes(),
        "ct_bytes": statistics.mean(loop.sizes),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return finish(wl, args, [loop], problems, metrics)


def traced_run(wl, runner, jobs, args) -> int:
    import tracing
    from hostspeed import REFERENCE_S, HostClock
    from workloads import Loop

    clock = HostClock()
    clock.calibrate()
    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer, ["workloads"]):
        runner.build_keys(clock, [])
    problems = check_setup(wl, runner, clock, args.seed)
    half = jobs[: max(1, len(jobs) // 2)]
    # The untraced and traced passes alternate round by round, and each goes
    # first in every other round, so neither gets the later or warmer slot.
    # Each pass has its own clock: only the traced pass's samples scale the
    # layer times.
    base = Loop(wl, runner, HostClock(), measure_sizes=False)
    loop = Loop(wl, runner, HostClock(), measure_sizes=False)
    tracer = tracing.Tracer()
    for r in range(wl.rounds):
        for traced in (False, True) if r % 2 == 0 else (True, False):
            if traced:
                with tracing.installed(tracer, ["workloads"]):
                    loop.run(half)
            else:
                base.run(half)
    loop_s = statistics.median(loop.clock.samples)
    scale = REFERENCE_S / loop_s
    per_job = loop.attempted
    values = {}
    for layer, kinds in TIMED_LAYERS.items():
        for kind in kinds:
            if kind == "calls":
                values[f"{layer}.calls"] = tracer.calls[layer] / per_job
            else:
                values[f"{layer}.self_ms"] = tracer.self_s[layer] * scale * 1000 / per_job
    checks = tracer.calls["refresh.check"]
    values["refresh.check.hit_ratio"] = tracer.counts["refresh.check.hits"] / checks if checks else 0
    for name in COUNTED:
        values[name] = tracer.counts[name] / per_job
    for layer in KEYGEN_LAYERS:
        values[f"{layer}.self_ms"] = setup_tracer.self_s[layer] * scale * 1000 / wl.n_keys
    values["trace.traced_jobs_per_s"] = loop.jobs_per_s
    values["trace.untraced_jobs_per_s"] = base.jobs_per_s
    values["trace.overhead_ratio"] = loop.jobs_per_s / base.jobs_per_s
    values["host.calibration_ms"] = loop_s * 1000
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return finish(wl, args, [base, loop], problems, metrics)


def finish(wl, args, loops, problems, metrics) -> int:
    problems = problems + [p for loop in loops for p in loop.problems]
    failures = [f for loop in loops for f in loop.failures]
    for line in problems[:20] + failures[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
