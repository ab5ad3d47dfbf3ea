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

from interfero import immanants  # noqa: E402

INSTANCES = [
    (4, (2, 1), (2, 3, 4), (1, 3, 4)),
    (4, (2, 1), (2, 3, 4), (1, 2, 4)),
    (4, (2, 1), (1, 3, 4), (1, 2, 4)),
    (5, (2, 1), (2, 3, 5), (1, 3, 4)),
    (5, (3, 1), (1, 3, 4, 5), (1, 2, 3, 5)),
]

SEED = 12345


def derive_pairs(n, lam, rows, cols):
    fit = immanants.fit_label_pairs(n, lam, rows, cols,
                                    np.random.default_rng(SEED))
    if not fit.clean:
        raise SystemExit(
            f"no clean 0/1 combination with {fit.expected_terms} terms for "
            f"n={n} lam={lam} rows={rows} cols={cols}: x={fit.x}")
    if fit.residual > 1e-10:
        raise SystemExit(f"residual too large: {fit.residual}")
    pairs = [fit.candidates[i] for i in np.nonzero(fit.rounded)[0]]
    print(f"n={n} lam={lam} rows={rows} cols={cols}: "
          f"{len(pairs)} pairs, residual {fit.residual:.2e}")
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
