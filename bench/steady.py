#!/usr/bin/env python3
"""Steadiness check: run workloads many times and compare the spread with the bounds.

    python3 bench/steady.py --runs 10 --sets 2 [--workload chain-desk ...]

Each run is the command from ``BENCHMARK.json`` with ``--trace 0`` and
``--seconds`` set to its ``run_seconds``, in its own process, with its own
seed.  With ``--sets 2`` the runs of the two sets alternate (A B, B A, A B,
...) and set k uses seeds ``1 + k*runs + i``.  For every end-to-end metric
and set it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound; between sets,
how much worse the later median is than the first.  Every metric, ``setup_s``
too, is held to both rules.  It also compares the share of failed jobs
between sets, which must be equal.  Exits 1 when a rule fails.  A summary is
written to ``.bench_results/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def check_workload(bench: dict, workload: str, args) -> bool:
    sets = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for k in order:
            seed = 1 + k * args.runs + i
            sets[k].append(run_once(bench, workload, seed))
            print(f"{workload}: set {k} run {i} seed {seed} done", file=sys.stderr)
    ok = True
    seconds = bench["run_seconds"]
    summary = {"workload": workload, "runs": args.runs, "seconds": seconds, "metrics": {}}
    print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs, {seconds} s each")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        unit = sets[0][0]["metrics"][name]["unit"]
        summary["metrics"][name] = {"unit": unit, "bound": bound, "sets": stats}
        for k, s in enumerate(stats):
            held = s["spread"] <= bound
            ok &= held
            flag = "ok" if held else "TOO WIDE"
            if s["spread"] <= bound / 3:
                flag = "steady"
            print(f"  {name:12s} set {k}: median {s['median']:.6g} {unit}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f} "
                  f"(bound {bound}) {flag}")
        for k, s in enumerate(stats[1:], start=1):
            drift = worse_by(metric, stats[0]["median"], s["median"])
            ok &= drift <= bound
            print(f"  {name:12s} set {k} vs set 0: worse by {drift:+.4f} "
                  f"(bound {bound}) {'ok' if drift <= bound else 'WORSE'}")
    shares = []
    for runs in sets:
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares.append(failed / attempted)
        ok &= all(r["correct"] for r in runs)
    ok &= len(set(shares)) == 1
    summary["failed_share"] = shares
    print(f"  failed share per set: {shares}; all outputs correct: "
          f"{all(r['correct'] for runs in sets for r in runs)}")
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / f"steady-{workload}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    ok = True
    for workload in args.workload or names:
        ok &= check_workload(bench, workload, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
