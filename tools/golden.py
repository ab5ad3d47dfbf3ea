#!/usr/bin/env python3
"""Golden seeded outputs: the byte-identity contract as a check.

Runs a fixed corpus of seeded CLI invocations in a temporary directory and
records the exit code and the SHA-256 of the stdout of each, and the
SHA-256 of every file they write, in tests/data/golden.json.  Float bits
depend on the numpy and BLAS build and on the CPU, so the file also
records the environment that wrote it, and a check on another environment
does not run.

Usage:  python3 tools/golden.py --write | --check

--check exits 0 when every record matches, 1 when one differs (each
differing record is listed), and 2 when the environment differs from the
recorded one.  A change that alters seeded output on purpose rewrites the
file with --write and lists the changed records.
"""
import argparse
import contextlib
import hashlib
import io as _io
import os
import platform
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from interfero import cli, io, linalg  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "tests", "data", "golden.json")

# simulate bundles that characterize reads, with and without --bootstrap
CHARACTERIZED = ["sim-m3-s1-gauss-plain", "sim-m3-s7-double-plain",
                 "sim-m3-s1-gauss-nocal", "sim-m5-s1-gauss-plain"]
# warm irreps for basis and dfunc
IRREPS = [(3, "2,1"), (4, "1,0,1")]


def corpus():
    """(name, argv) of every invocation in run order; the paths in argv
    are relative to the working directory."""
    runs = []
    for m in (2, 3, 5):
        for seed in (1, 7):
            for spectra in ("gauss", "double"):
                for mode, flags in (("plain", []),
                                    ("noiseless", ["--noiseless"]),
                                    ("nocal", ["--no-calibration"])):
                    name = f"sim-m{m}-s{seed}-{spectra}-{mode}"
                    runs.append((name, [
                        "simulate", "--m", str(m), "--seed", str(seed),
                        "--gamma", "0.9", "--spectra", spectra,
                        "--out", name] + flags))
    for m, variant, spectra, trials in ((3, "full", "gauss", 4),
                                        (3, "gauss", "double", 4),
                                        (3, "nocal", "gauss", 4),
                                        (5, "full", "gauss", 2)):
        name = f"trials-m{m}-{variant}-{spectra}"
        runs.append((name, [
            "trials", "--m", str(m), "--variant", variant, "--spectra",
            spectra, "--trials", str(trials), "--seed", "3",
            "--plot-csv", name + ".csv"]))
    # half of these trials fail with DivisionByZeroCount: pins the failure
    # records (trial index, class and message)
    runs.append(("trials-m4-full-failing", [
        "trials", "--m", "4", "--variant", "full", "--trials", "8",
        "--seed", "5", "--photons", "1e3", "--pairs", "2e3"]))
    for bundle in CHARACTERIZED:
        runs.append(("char-" + bundle, [
            "characterize", "--data", bundle, "--out", f"char-{bundle}.json",
            "--plot-csv", f"char-{bundle}.csv"]))
        runs.append(("boot-" + bundle, [
            "characterize", "--data", bundle, "--out", f"boot-{bundle}.json",
            "--bootstrap", "10", "--seed", "5"]))
    for group in ("su2", "su3", "su4"):
        runs.append(("identities-" + group, [
            "verify-identities", "--group", group, "--trials", "2",
            "--seed", "11"]))
    runs.append(("decompose", ["decompose", "--in", "u8.json", "--ns", "4",
                               "--np", "2", "--out", "plan8.json"]))
    runs.append(("reconstruct", ["reconstruct", "--in", "plan8.json",
                                 "--out", "u8-back.json"]))
    for n, irrep in IRREPS:
        runs.append((f"basis-{irrep}", ["basis", "--n", str(n), "--irrep",
                                        irrep]))
        runs.append((f"dfunc-{irrep}", ["dfunc", "--in", f"su{n}.json",
                                        "--irrep", irrep]))
    return runs


def write_inputs():
    """The seeded matrices that decompose and dfunc read."""
    io.write_matrix(linalg.haar_random_unitary(8, seed=8), "u8.json")
    for n, _ in IRREPS:
        io.write_matrix(linalg.haar_special_unitary(
            n, np.random.default_rng(n)), f"su{n}.json")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_corpus():
    """Run the corpus in a fresh temporary directory: {"runs": {name:
    {"exit", "stdout"}}, "files": {relative path: SHA-256}}."""
    runs, files = {}, {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_inputs()
        for name, argv in corpus():
            out = _io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            runs[name] = {"exit": code,
                          "stdout": _sha256(out.getvalue().encode())}
        for root, _, names in os.walk("."):
            for fname in names:
                path = os.path.join(root, fname)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path).replace(os.sep, "/")] = \
                        _sha256(fh.read())
    return {"runs": runs, "files": dict(sorted(files.items()))}


def differences(recorded, current):
    """Names of the runs and files whose records differ, are missing or
    are new."""
    out = []
    for part in ("runs", "files"):
        want, got = recorded[part], current[part]
        out += [f"{part}/{key}" for key in sorted(set(want) | set(got))
                if want.get(key) != got.get(key)]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="run the corpus and rewrite the golden file")
    mode.add_argument("--check", action="store_true",
                      help="run the corpus and compare with the golden file")
    args = ap.parse_args()
    if args.write:
        doc = {"schema": "v1", "environment": environment(), **run_corpus()}
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        io.dump_json(doc, GOLDEN)
        print(f"wrote {len(doc['runs'])} runs and {len(doc['files'])} files")
        return 0
    recorded = io.load_json(GOLDEN)
    if recorded["environment"] != environment():
        print(f"not checked: environment {environment()} differs from the "
              f"recorded {recorded['environment']}")
        return 2
    diff = differences(recorded, run_corpus())
    for key in diff:
        print("differs:", key)
    print(f"{len(diff)} records differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
