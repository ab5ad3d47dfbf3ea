#!/usr/bin/env python3
"""A/B comparison of two source trees on one benchmark workload.

Usage:

    python3 tools/ab.py --base DIR --change DIR --workload W \\
        --seeds 1,20261017 --pairs N --seconds S --out FILE

Each tree runs its own ``bench/run.py`` (``--trace 0``) in a fresh process,
from its own root.  For every seed the tool runs N pairs; which tree goes
first alternates from pair to pair, so slow spells of a shared host fall
on both sides.

FILE is one JSON object.  ``runs`` holds, per run, the seed, the pair, the
tree, its place in the pair, the exit code, ``correct``, ``attempted``,
``failed`` and the end-to-end metrics.  ``summary`` holds, per seed and
end-to-end metric of the change tree's ``BENCHMARK.json``, the medians and
ranges of both trees, the base interquartile range, the change/base ratio
of the medians, the pairs the change won, whether the median moved the
better way by more than the base IQR (``resolved``), and whether the ratio
is worse than the metric's bound (``crosses_bound``).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

TREES = ("base", "change")


def run_bench(root, workload, seed, seconds):
    """One benchmark run of the tree at ``root``: (exit code, result
    object or None, details object or None)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = detail = None
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError):
        pass
    return proc.returncode, result, detail


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(base, change, better, bound):
    """Summary of one metric over paired runs: ``base[i]`` and
    ``change[i]`` are the values of pair i (None where a run gave none)."""
    pairs = [(b, c) for b, c in zip(base, change)
             if b is not None and c is not None]
    b_vals = [b for b in base if b is not None]
    c_vals = [c for c in change if c is not None]
    if not b_vals or not c_vals:
        return {"pairs": len(pairs), "missing": True}
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = statistics.median(b_vals), statistics.median(c_vals)
    ratio = c_med / b_med if b_med else float("inf")
    spread = iqr(b_vals)
    return {
        "base_median": b_med, "change_median": c_med,
        "base_range": [min(b_vals), max(b_vals)],
        "change_range": [min(c_vals), max(c_vals)],
        "base_iqr": spread,
        "ratio": ratio,
        "pairs": len(pairs),
        "pairs_won": sum(sign * (c - b) > 0 for b, c in pairs),
        "resolved": sign * (c_med - b_med) > spread,
        "crosses_bound": (ratio < 1.0 - bound if better == "higher"
                          else ratio > 1.0 + bound),
    }


def summarize(runs, end_to_end):
    """{seed: {metric: compare(...)}} over the run records ``runs`` for the
    metrics of ``end_to_end`` (BENCHMARK.json's list)."""
    out = {}
    for seed in sorted({r["seed"] for r in runs}):
        paired = {}
        for r in runs:
            if r["seed"] == seed:
                paired.setdefault(r["pair"], {})[r["tree"]] = r
        order = sorted(paired)
        out[str(seed)] = {}
        for m in end_to_end:
            values = {t: [paired[i].get(t, {}).get("metrics", {})
                          .get(m["name"]) for i in order] for t in TREES}
            out[str(seed)][m["name"]] = compare(
                values["base"], values["change"], m["better"], m["bound"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,20261017")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    roots = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]

    runs, env = [], None
    for seed in seeds:
        for pair in range(args.pairs):
            order = TREES if pair % 2 == 0 else TREES[::-1]
            for place, tree in enumerate(order):
                rc, result, detail = run_bench(roots[tree], args.workload,
                                               seed, args.seconds)
                result = result or {}
                record = {
                    "seed": seed, "pair": pair, "tree": tree, "place": place,
                    "exit_code": rc, "correct": result.get("correct"),
                    "attempted": result.get("attempted"),
                    "failed": result.get("failed"),
                    "metrics": {k: v["value"] for k, v in
                                result.get("metrics", {}).items()},
                }
                runs.append(record)
                if env is None and detail:
                    env = detail.get("env")
                print(json.dumps(record), file=sys.stderr, flush=True)

    report = {"workload": args.workload, "seeds": seeds, "pairs": args.pairs,
              "seconds": args.seconds, "env": env,
              "summary": summarize(runs, end_to_end), "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [r for r in runs if r["exit_code"] != 0 or r["correct"] is not True]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
