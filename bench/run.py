"""Benchmark for the interfero package.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): mc-trials, bootstrap, decompose,
group-functions.  The process is a single closed-loop client: it issues one
operation, waits for it, checks its output, and issues the next.  BLAS is
pinned to one thread before numpy is imported.

Each run executes a fixed number of whole cycles of the workload's
operation mix, sized so that the cycles take about ``--seconds`` on the
reference machine.  The work of a run therefore depends only on the seed
and ``--seconds``, never on the speed of the code under test.

``--trace 0`` measures end-to-end metrics.  Set-up (imports, input
generation, cache warm-up) is timed in this process and in four fresh
processes that stop after set-up, started between chunks of the timed
cycles; ``setup_s`` is the median of the five.
Operation times cover the program calls only, not the output checks.
``units_per_s`` is the work units of one cycle divided by the time the
cycle takes when every operation takes the median time of the completed
operations of its kind; an operation that failed outright is left out of
the medians and counted in ``failed``.

``--trace 1`` measures per-layer metrics from a separate traced run: the
set-up is traced, then half as many cycles run once untraced and once with
every listed function wrapped, so the ratio of the two median operation
times is the tracing overhead and the per-layer counts repeat exactly for a
given seed.  Spans are written to
``bench/_work/trace-<workload>-<seed>.jsonl`` at exit.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details: named throughput and quality metrics, the tail percentile,
failures grouped by error class, and the environment.  ``attempted`` and
``failed`` count work units; ``correct`` is false when any output the
program returned as a success fails its check, or, when tracing, when an
expected span did not fire.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "units_per_s": "1/s", "peak_rss_mb": "MB"}

# traced functions and the statistics reported for each
LAYERS = {
    "curvefit.fit_curve": ("calls", "self_s", "fails"),
    "characterize.characterize_dataset": ("self_s",),
    "characterize.estimate_arguments": ("self_s",),
    "characterize.calibrate_gamma": ("self_s",),
    "characterize.bootstrap": ("self_s",),
    "harness.simulate_dataset": ("calls", "self_s"),
    "harness.run_trials": ("calls", "self_s"),
    "photonic.cross_envelope": ("calls", "self_s"),
    "photonic.coincidence_curve_model": ("calls", "self_s"),
    "linalg.svd": ("calls", "self_s"),
    "linalg.nearest_unitary": ("calls", "self_s"),
    "csd.csd": ("self_s", "fails"),
    "csd.decompose": ("self_s",),
    "csd.reconstruct": ("self_s",),
    "sunrep.canonical_basis_states": ("calls", "self_s"),
    "sunrep.dfunction": ("calls", "self_s"),
    "sunrep.dfunction_matrix": ("calls", "self_s"),
    "immanants.immanant": ("calls", "self_s"),
    "immanants.permanent": ("calls", "self_s"),
    "immanants.kostant_lhs_rhs": ("calls", "self_s"),
    "immanants.submatrix_immanant_identity": ("calls", "self_s"),
    "bosonrep.minor_basis_count": ("calls", "self_s"),
    "bosonrep.basis_set": ("calls", "self_s"),
    "io.read_bundle": ("self_s",),
    "io.write_result": ("self_s",),
    "io.read_matrix": ("self_s",),
    "io.write_matrix": ("self_s",),
    "io.read_plan": ("self_s",),
    "io.write_plan": ("self_s",),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "fails": "count"}
DERIVED = {"curvefit.fit_curve.starts_per_fit": "count",
           "curvefit.fit_curve.converged_start_ratio": "ratio",
           "characterize.bootstrap.replicate_fail_ratio": "ratio",
           "trace.uncovered_s": "s",
           "trace.overhead_ratio": "ratio"}
# units of the workload-specific metrics printed in the detail line; the
# quality figures are dimensionless trace distances, residuals and shares
NAMED_UNITS = {"trials_per_s": "1/s", "replicates_per_s": "1/s",
               "unitaries_per_s": "1/s", "checks_per_s": "1/s",
               "fail_rate": "ratio", "char_error_mean": "1",
               "bootstrap_coverage": "ratio", "roundtrip_err_max": "1",
               "identity_residual_max": "1"}
# the module whose self time should dominate each workload
DOMINANT = {"mc-trials": "curvefit", "bootstrap": "curvefit",
            "decompose": "csd", "group-functions": "sunrep"}


def per_layer_units():
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYERS.items() for stat in stats}
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
class Record:
    def __init__(self, kind, seconds, units):
        self.kind = kind
        self.seconds = seconds
        self.units = units


def cycle_count(workload, seconds):
    return max(1, round(seconds / workload.nominal_cycle_s))


def run_ops(workload, cycles, tracer=None):
    """Run the cycles numbered in ``cycles`` (a range) and time each op."""
    records = []
    for k in cycles:
        for op in workload.cycle(k):
            if tracer is not None:
                tracer.op_id = len(records)
            t = time.perf_counter()
            result = op.call()
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.op_id = None
            records.append(Record(op.kind, dt, op.check(result)))
    return records


def tail(times):
    """(value, percentile) at the highest percentile with >= 10 samples
    beyond it; the maximum when there are too few samples."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def summarize(workload, records):
    attempted = sum(r.units.attempted for r in records)
    failed = sum(r.units.failed for r in records)
    wrong = sum(r.units.wrong for r in records)
    by_class = Counter()
    samples = []
    quality = {}
    per_kind = {}
    for r in records:
        by_class.update(r.units.failures)
        samples.extend(f"{r.kind}: {s}" for s in r.units.samples)
        for name, values in r.units.quality.items():
            quality.setdefault(name, []).extend(values)
        per_kind.setdefault(r.kind, []).append(r)
    # a kind with no completed op in the run is left out of both sums
    units = spent = 0.0
    for rs in per_kind.values():
        done = [r.seconds for r in rs if r.units.failed < r.units.attempted]
        if done:
            units += sum(r.units.attempted for r in rs)
            spent += len(rs) * statistics.median(done)
    times = [r.seconds for r in records]
    busy = sum(times)
    tail_s, tail_pct = tail(times)
    return {
        "attempted": attempted, "failed": failed, "wrong": wrong,
        "busy_s": busy, "ops": len(records),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s, "op_tail_percentile": tail_pct,
        "units_per_s": units / spent if spent else 0.0,
        "fail_rate": failed / attempted,
        "failures_by_class": dict(sorted(by_class.items())),
        "failure_samples": samples[:10],
        "quality": workload.quality(quality),
        "op_p50_s_by_kind": {k: statistics.median(r.seconds for r in rs)
                             for k, rs in sorted(per_kind.items())},
    }


def environment():
    import numpy
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "process_threads": threads}


def setup_sample(args):
    """Set-up time of a fresh process, which stops right after set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(args, workload, setup_s):
    cycles = cycle_count(workload, args.seconds)
    # the fresh-process set-up samples are spread over the run, one after
    # each chunk of cycles, so that they do not all fall in one slow spell
    # of a shared host
    records, setups = [], [setup_s]
    chunks = SETUP_SAMPLES - 1
    for i in range(chunks):
        records += run_ops(workload, range(cycles * i // chunks,
                                           cycles * (i + 1) // chunks))
        setups.append(setup_sample(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = summarize(workload, records)
    named = {workload.throughput: s["units_per_s"], "fail_rate": s["fail_rate"],
             **s["quality"]}
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": 0,
        "cycles": cycles, "ops": s["ops"], "busy_s": s["busy_s"],
        "unit": workload.unit,
        "named_metrics": {k: {"value": v, "unit": NAMED_UNITS[k.split("[")[0]]}
                          for k, v in named.items()},
        "op_tail_percentile": s["op_tail_percentile"],
        "failures_by_class": s["failures_by_class"],
        "failure_samples": s["failure_samples"],
        "op_p50_s_by_kind": s["op_p50_s_by_kind"],
        "setup_samples_s": setups,
    }
    metrics = {"setup_s": statistics.median(setups),
               "op_p50_s": s["op_p50_s"], "op_tail_s": s["op_tail_s"],
               "units_per_s": s["units_per_s"], "peak_rss_mb": peak_rss_mb}
    return detail, s, {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in metrics.items()}


def traced_run(args, workload, tracer):
    cycles = cycle_count(workload, args.seconds / 2)
    base = run_ops(workload, range(cycles))
    tracer.install()
    try:
        records = run_ops(workload, range(cycles), tracer=tracer)
    finally:
        tracer.uninstall()
    s = summarize(workload, records)
    stats = tracer.layer_stats()
    values = {}
    for name, wanted in LAYERS.items():
        for stat in wanted:
            values[f"{name}.{stat}"] = stats[name][stat]
    c = tracer.counters
    fits = stats["curvefit.fit_curve"]["calls"]
    values["curvefit.fit_curve.starts_per_fit"] = c["fit_starts"] / fits if fits else 0.0
    values["curvefit.fit_curve.converged_start_ratio"] = (
        c["fit_converged_starts"] / c["fit_starts"] if c["fit_starts"] else 0.0)
    values["characterize.bootstrap.replicate_fail_ratio"] = (
        c["bootstrap_failed_replicates"] / c["bootstrap_replicates"]
        if c["bootstrap_replicates"] else 0.0)
    values["trace.uncovered_s"] = sum(
        r.seconds - tracer.covered_time(i) for i, r in enumerate(records))
    values["trace.overhead_ratio"] = s["op_p50_s"] / statistics.median(
        r.seconds for r in base)

    by_module = Counter()
    for name, entry in stats.items():
        if name != "cli.main" and entry["calls"]:
            by_module[name.split(".")[0]] += entry["self_s"]
    dominant = by_module.most_common(1)[0][0] if by_module else None
    missing = sorted(set(workload.expected_spans) - tracer.fired())
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": 1,
        "cycles": cycles, "ops": s["ops"],
        "expected_spans_missing": missing,
        "self_s_by_module": dict(by_module.most_common()),
        "dominant_module": dominant,
        "dominant_module_expected": DOMINANT[workload.name],
        "fail_rate": s["fail_rate"],
        "failures_by_class": s["failures_by_class"],
        "spans": len(tracer.spans),
    }
    if dominant != DOMINANT[workload.name]:
        detail["dominant_module_note"] = (
            "self time is attributed to the innermost traced function; "
            "see self_s_by_module for the split")
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return detail, s, metrics, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "interfero", "__init__.py")):
        sys.stderr.write(f"no interfero sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            tracer = Tracer(LAYERS)
            tracer.install()
            tracer.op_id = "setup"
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            try:
                detail, s, metrics, missing = traced_run(args, workload, tracer)
            finally:
                tracer.write_jsonl(os.path.join(
                    HERE, "_work", f"trace-{args.workload}-{args.seed}.jsonl"))
            correct = s["wrong"] == 0 and not missing
        else:
            workload.setup()
            setup_s = time.perf_counter() - T0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            detail, s, metrics = timed_run(args, workload, setup_s)
            correct = s["wrong"] == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["env"] = environment()
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
