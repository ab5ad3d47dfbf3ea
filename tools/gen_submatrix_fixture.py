#!/usr/bin/env python3
"""Regenerate the tabulated submatrix-immanant D-function label pairs.

For each tabulated (n, irrep, rows, cols) instance the identity

    imm^lambda(V[rows, cols]) = sum over pairs (r, c) of D^K_{r,c}(V)

holds for a specific set of canonical-basis label pairs whose occupations
indicate the kept rows/columns.  This script recovers those pairs
numerically: it solves the least-squares system over many random special
unitaries for the coefficients of all candidate (r, c) pairs, checks that
the solution is exactly 0/1 with dim(lambda) ones and negligible residual,
and writes the result to src/interfero/fixtures/submatrix_dlabels.json.

Usage:  python3 tools/gen_submatrix_fixture.py [--check]

With --check the derived fixture is compared against the shipped file
instead of overwriting it.
"""
import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from interfero import immanants, linalg, sunrep  # noqa: E402

INSTANCES = [
    (4, (2, 1), (2, 3, 4), (1, 3, 4)),
    (4, (2, 1), (2, 3, 4), (1, 2, 4)),
    (4, (2, 1), (1, 3, 4), (1, 2, 4)),
    (5, (2, 1), (2, 3, 5), (1, 3, 4)),
    (5, (3, 1), (1, 3, 4, 5), (1, 2, 3, 5)),
]

N_SAMPLES = 40
SEED = 12345


def indicator(index_set, n):
    return tuple(1 if i in index_set else 0 for i in range(1, n + 1))


def derive_pairs(n, lam, rows, cols):
    kappas = immanants.partition_to_label(lam, n)
    dim_lam = immanants.sn_character(lam, (1,) * sum(lam))
    row_labels = sunrep.labels_with_weight(n, kappas, indicator(rows, n))
    col_labels = sunrep.labels_with_weight(n, kappas, indicator(cols, n))
    candidates = [(r, c) for r in row_labels for c in col_labels]

    rng = np.random.default_rng(SEED)
    a = np.zeros((N_SAMPLES, len(candidates)), dtype=complex)
    b = np.zeros(N_SAMPLES, dtype=complex)
    for t in range(N_SAMPLES):
        v = linalg.haar_special_unitary(n, rng)
        sub = v[np.ix_([i - 1 for i in rows], [j - 1 for j in cols])]
        b[t] = immanants.immanant(sub, lam)
        for idx, (r, c) in enumerate(candidates):
            a[t, idx] = sunrep.dfunction(n, v, r, c)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    rounded = np.round(np.real(x)).astype(int)
    if (np.max(np.abs(x - rounded)) > 1e-8
            or not set(rounded) <= {0, 1}
            or int(rounded.sum()) != dim_lam):
        raise SystemExit(
            f"no clean 0/1 combination with {dim_lam} terms for "
            f"n={n} lam={lam} rows={rows} cols={cols}: x={x}")
    resid = np.max(np.abs(a @ rounded - b))
    if resid > 1e-10:
        raise SystemExit(f"residual too large: {resid}")
    pairs = [candidates[i] for i in np.nonzero(rounded)[0]]
    print(f"n={n} lam={lam} rows={rows} cols={cols}: "
          f"{len(pairs)} pairs, residual {resid:.2e}")
    return pairs


def label_json(label):
    return {"chain": [list(k) for k in label.chain_irreps],
            "occ": list(label.occupations)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", action="store_true",
                    help="compare against the shipped fixture")
    args = ap.parse_args()

    identities = []
    for n, lam, rows, cols in INSTANCES:
        pairs = derive_pairs(n, lam, rows, cols)
        identities.append({
            "n": n,
            "irrep": list(lam),
            "rows": list(rows),
            "cols": list(cols),
            "pairs": [[label_json(r), label_json(c)] for r, c in pairs],
        })
    doc = {"schema": "v1", "identities": identities}

    path = os.path.join(os.path.dirname(__file__), "..", "src", "interfero",
                        "fixtures", "submatrix_dlabels.json")
    if args.check:
        with open(path) as fh:
            shipped = json.load(fh)
        if shipped != doc:
            raise SystemExit("derived fixture differs from the shipped file")
        print("shipped fixture matches the derivation")
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
