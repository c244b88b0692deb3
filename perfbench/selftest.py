#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimal size.

    python3 perfbench/selftest.py

Runs each workload for one second on a small scale table, with two seeds
untraced and one seed traced, and checks that
  * every metric BENCHMARK.json names is printed, with its unit, and no
    other metric is;
  * the run is correct (no failed operation, no wrong answer);
  * a different seed changes the request stream (the request digest);
  * the metric set is the same for every seed.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{out.returncode}:\n{out.stdout}\n{out.stderr}")
    meta = next(json.loads(l[len("meta "):]) for l in lines
                if l.startswith("meta "))
    return meta, json.loads(lines[-1])


def check_result(result, expected, label, errors):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: not correct ({result.get('failed')} failed)")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} unit {got.get('unit')} != {unit}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        meta1, r1 = run(workload, 1, 0)
        meta2, r2 = run(workload, 2, 0)
        _, traced = run(workload, 1, 1)
        check_result(r1, end_to_end, f"{workload} seed 1", errors)
        check_result(r2, end_to_end, f"{workload} seed 2", errors)
        check_result(traced, per_layer, f"{workload} traced", errors)
        if meta1["request_digest"] == meta2["request_digest"]:
            errors.append(f"{workload}: seeds 1 and 2 send the same requests")
        if set(r1["metrics"]) != set(r2["metrics"]):
            errors.append(f"{workload}: metric set changes with the seed")
        print(f"{workload}: checked", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
