#!/usr/bin/env python3
"""Smoke check of the rockperf benchmark at tiny input sizes.

Usage, from the repository root:

    python3 rockperf/smoke.py

For every workload in BENCHMARK.json, runs rockperf/run.py --size tiny
with two seeds, untraced and traced, and asserts that

  * every run exits 0 with a correct result and no failures;
  * an untraced run prints exactly the end_to_end metrics and a traced
    run exactly the per_layer metrics, each with its declared unit and
    a numeric value;
  * changing the seed changes the inputs (the host line's
    inputs_digest) but not the set of metrics.

Exits 1 on the first violation, 0 when everything holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def fail(message):
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    what = f"{workload} seed {seed} trace {trace}"
    if done.returncode != 0:
        fail(f"{what}: exit {done.returncode}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    result = lines[-1]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: result not correct: {result}")
    host = [line for line in lines[:-1] if line.get("rockperf") == "host"]
    if len(host) != 1:
        fail(f"{what}: expected one host line")
    return host[0], result["metrics"], what


def check_metrics(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail(f"{what}: metrics {sorted(set(metrics) ^ set(want))} "
             "missing or undeclared")
    for name, value in metrics.items():
        if value.get("unit") != want[name]:
            fail(f"{what}: {name} has unit {value.get('unit')}, "
                 f"declared {want[name]}")
        if not isinstance(value.get("value"), (int, float)):
            fail(f"{what}: {name} has no numeric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            digests, name_sets = set(), set()
            for seed in SEEDS:
                host, metrics, what = run(workload, seed, trace)
                check_metrics(metrics, declared, what)
                digests.add(host["inputs_digest"])
                name_sets.add(frozenset(metrics))
            if len(digests) != len(SEEDS):
                fail(f"{workload} trace {trace}: seeds {SEEDS} produced "
                     "identical inputs")
            if len(name_sets) != 1:
                fail(f"{workload} trace {trace}: metric set depends on "
                     "the seed")
            print(f"smoke: {workload} trace {trace}: ok", flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
