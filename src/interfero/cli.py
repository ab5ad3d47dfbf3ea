"""Command-line front-end.

Verbs: decompose, reconstruct, characterize, simulate, trials, dfunc,
basis, immanant, verify-identities, cost.  See each verb's --help for
file schemas and units.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  Every randomized verb requires --seed and, given the same
argv, produces byte-identical artifacts.  The environment variable
INTERF_TOL overrides the default numerical tolerance.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import characterize, csd, harness, immanants, io, linalg, sunrep
from .errors import InterferoError, ParseError

MATRIX_SCHEMA = ('matrix JSON: {"schema": "v1", "rows": R, "cols": C, '
                 '"re": [row-major reals], "im": [row-major reals]}')
BUNDLE_SCHEMA = ("bundle directory: counts.csv (i,j,b,count), "
                 "coincidence/<i>_<i'>_<j>_<j'>.csv (tau [ps], count), "
                 "spectra/<j>.csv (omega [rad/ps], value), calibration.csv, "
                 "manifest.json (m, B, units, seed)")


def _env_tol(default):
    raw = os.environ.get("INTERF_TOL")
    if raw is None:
        return default
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"INTERF_TOL is not a number: {raw!r}")
    if not (0 < tol < 1):
        raise ParseError(f"INTERF_TOL out of range (0, 1): {tol}")
    return tol


def _parse_ints(text, what):
    """A comma-separated integer list such as an irrep label or a
    partition; ``what`` names it in the error message."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be comma-separated integers, "
                         f"got {text!r}")


def _emit(obj, out_path):
    if out_path:
        io.dump_json(obj, out_path)
    else:
        sys.stdout.write(io.json_text(obj))


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------
def cmd_decompose(args):
    u = io.read_matrix(getattr(args, "in"))
    dim = args.ns * args.np_
    if u.shape != (dim, dim):
        raise ParseError("matrix size does not match --ns * --np",
                         rows=int(u.shape[0]), expected=dim)
    plan = csd.decompose(u, args.ns, args.np_, tol=_env_tol(1e-10))
    io.write_plan(plan, args.out)
    census = plan.census()
    _emit({"schema": "v1", "n_s": args.ns, "n_p": args.np_,
           "census": census, "out": args.out}, None)
    return 0


def cmd_reconstruct(args):
    plan = io.read_plan(getattr(args, "in"))
    u = csd.reconstruct(plan)
    if args.out:
        io.write_matrix(u, args.out)
    else:
        _emit(io.matrix_to_json(u), None)
    return 0


def cmd_characterize(args):
    dataset = io.read_bundle(args.data)
    if args.bootstrap:
        if args.seed is None:
            raise ParseError("--bootstrap requires --seed")
        est = characterize.bootstrap(dataset, n_replicates=args.bootstrap,
                                     seed=args.seed,
                                     threshold=args.threshold)
    else:
        est = characterize._unwrap(characterize.characterize_dataset(
            [dataset], threshold=args.threshold)[0])
    io.write_result(est, args.out)
    if args.plot_csv:
        rows = []
        for key in sorted(dataset.coincidence):
            tau, counts = dataset.coincidence[key]
            series = "coincidence_" + "_".join(str(k) for k in key)
            rows.extend((t, c, series) for t, c in zip(tau, counts))
        io.write_plot_csv(rows, args.plot_csv)
    return 0


def cmd_simulate(args):
    rng = np.random.default_rng(args.seed)
    if args.unitary:
        u = io.read_matrix(args.unitary)
        if u.shape != (args.m, args.m):
            raise ParseError("--unitary size does not match --m",
                             rows=int(u.shape[0]), m=args.m)
    else:
        u = linalg.haar_random_unitary(args.m, rng=rng)
    dataset = harness.simulate_dataset(
        u, args.gamma, rng=rng,
        spectra=harness.source_spectra(args.spectra, args.m),
        n_blocks=args.blocks, photons_per_input=args.photons,
        pair_rate=args.pairs, noise=not args.noiseless,
        include_calibration=not args.no_calibration)
    io.write_bundle(dataset, args.out, seed=args.seed,
                    extra_manifest={"gamma": args.gamma,
                                    "noise": not args.noiseless})
    io.write_matrix(u, os.path.join(args.out, "unitary.json"))
    io.write_matrix(linalg.canonicalize_representative(u),
                    os.path.join(args.out, "truth.json"))
    return 0


def cmd_trials(args):
    report = harness.run_trials(
        args.m, args.variant, args.trials, args.seed, gamma=args.gamma,
        spectra_kind=args.spectra, photons_per_input=args.photons,
        pair_rate=args.pairs, n_blocks=args.blocks)
    report["schema"] = "v1"
    _emit(report, args.out)
    if args.plot_csv:
        rows = [(t, e, args.variant)
                for t, e in enumerate(report["per_trial"])]
        io.write_plot_csv(rows, args.plot_csv)
    return 0


def cmd_dfunc(args):
    kap = _parse_ints(args.irrep, "irrep label")
    n = len(kap) + 1
    v = sunrep.fundamental_matrix(n, io.read_matrix(getattr(args, "in")))
    labels, d = sunrep.dfunction_matrix(
        n, linalg.assert_unitary(v, _env_tol(1e-8)), kap)
    out = {
        "schema": "v1",
        "n": n,
        "irrep": list(kap),
        "labels": [{"chain": [list(k) for k in lab.chain_irreps],
                    "occupations": list(lab.occupations)}
                   for lab in labels],
        "matrix": io.matrix_to_json(d),
    }
    _emit(out, args.out)
    return 0


def cmd_basis(args):
    kap = _parse_ints(args.irrep, "irrep label")
    if len(kap) != args.n - 1:
        raise ParseError("irrep label must have n-1 entries",
                         n=args.n, got=len(kap))
    basis = sunrep.canonical_basis_states(args.n, kap)
    out = {
        "schema": "v1",
        "n": args.n,
        "irrep": list(kap),
        "dimension": len(basis),
        "states": [{"chain": [list(k) for k in lab.chain_irreps],
                    "occupations": list(lab.occupations),
                    "gt": [list(r) for r in sunrep.state_to_gt(lab)]}
                   for lab, _ in basis],
    }
    _emit(out, args.out)
    return 0


def cmd_immanant(args):
    t = io.read_matrix(getattr(args, "in"))
    lam = _parse_ints(args.partition, "partition")
    value = immanants.immanant(t, lam)
    _emit({"schema": "v1", "partition": list(lam),
           "re": float(value.real), "im": float(value.imag)}, args.out)
    return 0


def _identity_checks(group, trials, seed):
    """Yield (name, lhs, rhs, residual) for the group's identity suite."""
    n = int(group[2:])
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        v = linalg.haar_special_unitary(n, rng)
        if n == 2:
            beta = float(rng.uniform(0, math.pi))
            basis = sunrep.canonical_basis_states(2, (2,))
            lab = next(l for l, _ in basis if l.occupations == (1, 1))
            d = sunrep.dfunction(2, (0.0, beta, 0.0), lab, lab)
            yield (f"d100-cos-beta[{t}]", complex(d), math.cos(beta),
                   abs(d - math.cos(beta)))
            continue
        for lam in immanants.partitions_of(n):
            lhs, rhs, diff = immanants.kostant_lhs_rhs(v, lam, n)
            name = "kostant-" + "".join(str(x) for x in lam) + f"[{t}]"
            yield (name, lhs, rhs, diff)
        if n == 4:
            res = immanants.littlewood_relation_check(v)
            yield (f"littlewood[{t}]", 0.0, 0.0, res)
        for lam, rows, cols in immanants.tabulated_submatrices(n):
            lhs, rhs, diff = immanants.submatrix_immanant_identity(
                v, lam, rows, cols, n)
            yield (f"submatrix-{rows}-{cols}[{t}]", lhs, rhs, diff)


def _conjecture_probe(n, lam, rows, cols, seed, n_samples=40):
    """Exploratory test: is the submatrix immanant a +1-combination of
    dim(lambda) distinct irrep matrix elements?  Returns a report dict."""
    fit = immanants.fit_label_pairs(n, lam, rows, cols,
                                    np.random.default_rng(seed), n_samples)
    return {
        "partition": list(lam),
        "rows": list(rows),
        "cols": list(cols),
        "candidates": len(fit.candidates),
        "expected_terms": fit.expected_terms,
        "holds": bool(fit.clean and fit.residual < 1e-10),
        "residual": fit.residual,
        "coefficients": [int(c) for c in fit.rounded] if fit.clean else
                        [float(np.real(c)) for c in fit.x],
    }


def cmd_verify_identities(args):
    tol = _env_tol(1e-10)
    checks = []
    worst = 0.0
    for name, lhs, rhs, residual in _identity_checks(args.group, args.trials,
                                                     args.seed):
        lhs = complex(lhs)
        rhs = complex(rhs)
        checks.append({
            "check": name,
            "lhs": {"re": lhs.real, "im": lhs.imag},
            "rhs": {"re": rhs.real, "im": rhs.imag},
            "residual": float(residual),
        })
        worst = max(worst, float(residual))
    ok = worst < tol
    out = {"schema": "v1", "group": args.group, "trials": args.trials,
           "tolerance": tol, "max_residual": worst, "pass": ok,
           "checks": checks}
    if args.conjecture:
        n = int(args.group[2:])
        if n < 4:
            raise ParseError("--conjecture needs su4 or su5")
        rng = np.random.default_rng(args.seed)
        probes = []
        for _ in range(2):
            k = n - 1
            rows = tuple(sorted(rng.choice(range(1, n + 1), size=k,
                                           replace=False).tolist()))
            cols = tuple(sorted(rng.choice(range(1, n + 1), size=k,
                                           replace=False).tolist()))
            probes.append(_conjecture_probe(n, (2, 1) if k == 3 else (3, 1),
                                            rows, cols, args.seed))
        out["conjecture"] = probes
    _emit(out, args.out)
    if not ok:
        raise InterferoError("identity residual exceeds tolerance",
                             max_residual=worst, tolerance=tol)
    return 0


def cmd_cost(args):
    report = dict(csd.cost_report(args.ns, args.np_))
    report["schema"] = "v1"
    report["n_s"] = args.ns
    report["n_p"] = args.np_
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------
def build_parser():
    parser = argparse.ArgumentParser(
        prog="interfero",
        description="Interferometer decomposition, characterization, "
                    "simulation and group-function toolkit.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "decompose",
        help="factor a unitary into beam splitters, internal unitaries "
             "and phase banks",
        description="Factor an (ns*np)-dimensional unitary into balanced "
                    "beam splitters (BS), np-dimensional internal unitaries "
                    "(IU) and internal phase banks (IP). Input: "
                    + MATRIX_SCHEMA + ". Output: plan JSON (schema v1). "
                    "Angles are in radians; matrices are dimensionless.")
    p.add_argument("--in", required=True, help="input unitary (matrix JSON)")
    p.add_argument("--ns", type=int, required=True,
                   help="number of spatial modes")
    p.add_argument("--np", dest="np_", type=int, required=True,
                   help="internal-mode dimension per spatial mode")
    p.add_argument("--out", required=True, help="output plan JSON path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "reconstruct",
        help="multiply a plan's elements back into a unitary",
        description="Rebuild the full unitary from a plan JSON file. "
                    "Output: " + MATRIX_SCHEMA + " (stdout or --out).")
    p.add_argument("--in", required=True, help="input plan JSON")
    p.add_argument("--out", help="output matrix JSON path (default stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser(
        "characterize",
        help="estimate the representative matrix from a data bundle",
        description="Run the one- and two-photon characterization pipeline "
                    "on a " + BUNDLE_SCHEMA + ". Output: result.json with "
                    "the representative matrix W (matrix JSON), the "
                    "mode-matching parameter gamma and diagnostics; with "
                    "--bootstrap also elementwise sigma matrices. Delays "
                    "tau are in ps.")
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--out", required=True, help="output result.json path")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="small-|theta| mitigation threshold in radians "
                        "(default 0.1)")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="number of bootstrap replicates for error bars")
    p.add_argument("--seed", type=int,
                   help="PRNG seed (required with --bootstrap)")
    p.add_argument("--plot-csv",
                   help="also write measured curves as x,y,series CSV")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser(
        "simulate",
        help="forward-simulate a characterization experiment",
        description="Generate a synthetic " + BUNDLE_SCHEMA + " for a "
                    "random (or given) unitary with Poisson shot noise. "
                    "Also writes unitary.json and truth.json (canonical "
                    "representative) into the bundle. Counts are events "
                    "per repetition block; tau grid is in ps.")
    p.add_argument("--m", type=int, required=True, help="number of ports")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="mode-matching parameter in [0, 1] (default 1)")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--unitary", help="use this matrix JSON instead of a "
                                     "random unitary")
    p.add_argument("--spectra", choices=["gauss", "double"],
                   default="gauss", help="source spectral shape")
    p.add_argument("--blocks", type=int, default=10,
                   help="repetition blocks B (default 10)")
    p.add_argument("--photons", type=float, default=1e5,
                   help="single-photon budget per input (default 1e5)")
    p.add_argument("--pairs", type=float, default=2e5,
                   help="photon-pair budget per curve (default 2e5)")
    p.add_argument("--noiseless", action="store_true",
                   help="emit exact expected counts instead of Poisson draws")
    p.add_argument("--no-calibration", action="store_true",
                   help="omit the reference beam-splitter data")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "trials",
        help="Monte-Carlo accuracy study over random unitaries",
        description="Repeat simulate+characterize for fresh Haar-random "
                    "unitaries and report per-trial trace-distance errors. "
                    "Variants: full (calibrated), nocal (gamma fixed to 1), "
                    "gauss (Gaussian fit to non-Gaussian spectra). Output: "
                    "report JSON; --plot-csv writes x=trial, y=error, "
                    "series=variant.")
    p.add_argument("--m", type=int, required=True, help="number of ports")
    p.add_argument("--variant", choices=["full", "nocal", "gauss"],
                   required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="PRNG seed")
    p.add_argument("--gamma", type=float, default=0.9,
                   help="true mode-matching parameter (default 0.9)")
    p.add_argument("--spectra", choices=["gauss", "double"], default="gauss",
                   help="true source spectra")
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--photons", type=float, default=1e5)
    p.add_argument("--pairs", type=float, default=2e5)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--plot-csv", help="per-trial errors as x,y,series CSV")
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser(
        "dfunc",
        help="irrep matrix of a group element in the canonical basis",
        description="Compute the full D-matrix of an n×n unitary in the "
                    "irrep given by --irrep (comma-separated nonnegative "
                    "integers, n-1 entries). Input: " + MATRIX_SCHEMA + ". "
                    "Output JSON lists the canonical state labels (subgroup "
                    "chain + mode occupations) and the matrix.")
    p.add_argument("--in", required=True,
                   help="group element (matrix JSON, n×n unitary)")
    p.add_argument("--irrep", required=True,
                   help='irrep label, e.g. "1,1" for the SU(3) adjoint')
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_dfunc)

    p = sub.add_parser(
        "basis",
        help="enumerate the canonical basis of an irrep",
        description="List every canonical basis state of the su(n) irrep: "
                    "subgroup-chain labels, mode occupations and the "
                    "equivalent Gelfand-Tsetlin pattern, plus the "
                    "dimension. All quantities are dimensionless integers.")
    p.add_argument("--n", type=int, required=True, help="SU(n) rank + 1")
    p.add_argument("--irrep", required=True,
                   help="comma-separated label with n-1 entries")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser(
        "immanant",
        help="character-weighted permutation sum of a matrix",
        description="Evaluate the immanant of a square matrix for the "
                    "given integer partition (determinant: 1,1,...,1; "
                    "permanent: N). Input: " + MATRIX_SCHEMA + ". Output: "
                    "complex value as {re, im}. Matrices up to 10x10.")
    p.add_argument("--in", required=True, help="input matrix JSON")
    p.add_argument("--partition", required=True,
                   help='integer partition, e.g. "2,1"')
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_immanant)

    p = sub.add_parser(
        "verify-identities",
        help="check immanant/group-function identities on random elements",
        description="Draw random special unitaries and verify the identity "
                    "suite for the chosen group: SU(2) cos-beta matrix "
                    "element, SU(3)/SU(4) immanant zero-weight sums, SU(4) "
                    "submatrix and Littlewood relations, SU(5) submatrix "
                    "relations. Emits one {check, lhs, rhs, residual} "
                    "record per identity; exits 0 only if every residual "
                    "is below the tolerance (INTERF_TOL, default 1e-10).")
    p.add_argument("--group", choices=["su2", "su3", "su4", "su5"],
                   required=True)
    p.add_argument("--trials", type=int, required=True,
                   help="random group elements per identity")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--conjecture", action="store_true",
                   help="exploratory (su4/su5 only): probe whether randomly "
                        "chosen untabulated submatrices also equal a sum of "
                        "dim(partition) distinct matrix elements with unit "
                        "coefficients; reported, never asserted")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser(
        "cost",
        help="element-count accounting for the block decomposition",
        description="Closed-form element counts for ns spatial modes and "
                    "np internal modes, with the equivalent triangular "
                    "single-mode mesh size and the reduction factor.")
    p.add_argument("--ns", type=int, required=True,
                   help="number of spatial modes")
    p.add_argument("--np", dest="np_", type=int, required=True,
                   help="internal-mode dimension")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_cost)

    return parser


# parse_args leaves a parser as it was, so one parser serves every main call.
# The verbs' cmd_* functions are bound (set_defaults) when it is first built:
# replace one before the first main call, or call build_parser directly.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # the typed checks catch the overflows and 0/0s that matter, so
        # numpy's warnings would only print before the error's JSON
        with np.errstate(all="ignore"):
            return args.func(args)
    except InterferoError as exc:
        payload = dict(exc.to_json())
        payload["schema"] = "v1"
        sys.stderr.write(io.json_text(payload))
        return 1


if __name__ == "__main__":
    sys.exit(main())
