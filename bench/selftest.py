"""Self-test of the benchmark's output contract.

Runs every workload listed in BENCHMARK.json at a tiny size (one cycle), in
timed and in traced mode, and checks that the result line has exactly the
keys correct/attempted/failed/metrics and exactly the metric names and units
that BENCHMARK.json lists.  It also checks that the benchmark exits non-zero
without printing a result in a directory that holds only BENCHMARK.json and
the benchmark's own files.

Run from the root of a source checkout:  python3 bench/selftest.py
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not counts")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)), flush=True)

    bare = os.path.join(HERE, "_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
        failures += not ok
        print("without sources: " + ("exits non-zero, no result" if ok
                                     else f"exit {proc.returncode}"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
