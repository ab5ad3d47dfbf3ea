"""The four benchmark workloads.

Each workload drives the package from outside, through ``interfero.cli.main``
and a few public library functions, with inputs generated from the benchmark
seed.  A workload has a ``setup`` (input generation and cache warm-up, timed
as set-up) and a ``cycle(k)`` that returns the k-th fixed round of
operations.  The timed loop runs whole cycles, so every run measures the same
mix of operation kinds.

An operation is timed around its program calls only; its output check runs
afterwards and returns a ``Units`` record: how many work units it attempted
(trials, bootstrap replicates, unitaries or identity checks), which failed
and why, and the quality figures it observed.
"""
import contextlib
import io as _io
import json
import os
from collections import Counter
from fractions import Fraction

import numpy as np

from interfero import bosonrep, cli

ROUND_TRIP_TOL = 1e-9     # decompose -> reconstruct trace distance
IDENTITY_TOL = 1e-10      # verify-identities residual
UNITARY_TOL = 1e-9        # characterized W and D-matrices


# ---------------------------------------------------------------------------
# inputs and independent checks
# ---------------------------------------------------------------------------
def derive(seed, *keys):
    """A 32-bit seed for one input, fixed by the benchmark seed and keys."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def special_unitary(n, seed):
    u = haar_unitary(n, seed)
    return u / np.linalg.det(u) ** (1.0 / n)


def write_matrix(path, m):
    m = np.asarray(m, dtype=complex)
    with open(path, "w") as fh:
        json.dump({"schema": "v1", "rows": m.shape[0], "cols": m.shape[1],
                   "re": np.real(m).ravel().tolist(),
                   "im": np.imag(m).ravel().tolist()}, fh)


def read_matrix(path):
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def matrix_from_json(obj):
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    return (re + 1j * im).reshape(obj["rows"], obj["cols"])


def trace_distance(a, b):
    return float(0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False)))


def unitarity_defect(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def weyl_dimension(kappas):
    """Dimension of the su(n) irrep with Dynkin label ``kappas``."""
    lam = [sum(kappas[i:]) for i in range(len(kappas))] + [0]
    dim = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return int(dim)


def partition_label(lam, n):
    padded = list(lam) + [0] * (n - len(lam))
    return tuple(padded[i] - padded[i + 1] for i in range(n - 1))


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class CliResult:
    def __init__(self, rc, stdout, stderr, error_class):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.error_class = error_class


def run_cli(argv):
    """``cli.main(argv)`` with its streams captured.

    A non-zero exit is classified by the error class the CLI writes as JSON
    on stderr; an exception escaping ``main`` by its type.
    """
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed unit, not a stop
            return CliResult(None, out.getvalue(), err.getvalue(),
                             type(exc).__name__)
    error_class = None
    if rc:
        try:
            error_class = json.loads(err.getvalue())["error"]
        except (ValueError, KeyError, TypeError):
            error_class = f"exit-{rc}"
    return CliResult(rc, out.getvalue(), err.getvalue(), error_class)


class Units:
    """Outcome of one checked operation."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failures = Counter()
        self.samples = []
        self.quality = {}
        self.wrong = 0          # outputs returned as success that fail a check

    def fail(self, cls, count=1, detail=None, wrong=False):
        self.failures[cls] += count
        if wrong:
            self.wrong += count
        if detail is not None and len(self.samples) < 3:
            self.samples.append(f"{cls}: {detail}")
        return self

    def add(self, name, value):
        self.quality.setdefault(name, []).append(float(value))

    @property
    def failed(self):
        return min(self.attempted, sum(self.failures.values()))


class Op:
    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class Workload:
    name = unit = throughput = None
    nominal_cycle_s = 1.0    # a run executes round(seconds / this) cycles
    expected_spans = ()

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def path(self, *parts):
        return os.path.join(self.work, *parts)


class McTrials(Workload):
    """``trials`` verb ops mixing the criterion-05 and criterion-06 traffic."""
    name = "mc-trials"
    unit = "trials"
    throughput = "trials_per_s"
    nominal_cycle_s = 1.7
    expected_spans = (
        "cli.main", "harness.run_trials", "harness.simulate_dataset",
        "characterize.characterize_dataset", "characterize.estimate_arguments",
        "characterize.calibrate_gamma", "curvefit.fit_curve",
        "photonic.cross_envelope", "photonic.coincidence_curve_model",
        "linalg.svd", "linalg.nearest_unitary")
    # (kind, m, variant, trials per op, extra argv); trial counts balance op
    # times so that no two kinds of very different cost straddle the median
    CONFIGS = (
        ("m5-full", 5, "full", 1, ["--gamma", "0.9", "--photons", "1e7",
                                   "--pairs", "2e7"]),
        ("m5-nocal", 5, "nocal", 1, ["--gamma", "0.9", "--photons", "1e7",
                                     "--pairs", "2e7"]),
        ("m3-full", 3, "full", 4, ["--gamma", "0.95", "--spectra", "double"]),
        ("m3-gauss", 3, "gauss", 6, ["--gamma", "0.95", "--spectra", "double"]),
    )

    def setup(self):
        out = self.path("warmup.json")
        res = run_cli(["trials", "--m", "3", "--variant", "full", "--trials",
                       "1", "--seed", str(derive(self.seed, 99)), "--out", out])
        if res.rc != 0:
            raise RuntimeError(f"warm-up trials op failed: {res.error_class}")

    def cycle(self, k):
        return [self._op(k, j, *cfg) for j, cfg in enumerate(self.CONFIGS)]

    def _op(self, k, j, kind, m, variant, trials, extra):
        out = self.path(f"{kind}.json")
        argv = (["trials", "--m", str(m), "--variant", variant, "--trials",
                 str(trials), "--seed", str(derive(self.seed, k, j)),
                 "--out", out] + extra)

        def check(res):
            units = Units(trials)
            if res.rc != 0:
                return units.fail(res.error_class, trials)
            with open(out) as fh:
                report = json.load(fh)
            errs = report["per_trial"]
            if len(errs) + len(report["failures"]) != trials:
                return units.fail("CheckFailed:trial-count", trials,
                                  wrong=True)
            for f in report["failures"]:
                units.fail("trial:" + f["error"], detail=f"trial {f['trial']}")
            for e in errs:
                if not (np.isfinite(e) and 0.0 <= e <= m):
                    units.fail("CheckFailed:error-range", detail=repr(e),
                               wrong=True)
                else:
                    units.add("char_error", e)
                    units.add(f"char_error[{kind}]", e)
            return units

        return Op(kind, lambda: run_cli(argv), check)

    @staticmethod
    def quality(q):
        return _char_error_summary(q)


def _char_error_summary(q):
    out = {}
    for name, values in sorted(q.items()):
        if name.startswith("char_error"):
            out[name.replace("char_error", "char_error_mean")] = float(np.mean(values))
    return out


class Bootstrap(Workload):
    """``characterize --bootstrap`` ops on bundles written by ``simulate``."""
    name = "bootstrap"
    unit = "replicates"
    throughput = "replicates_per_s"
    nominal_cycle_s = 1.4
    expected_spans = (
        "cli.main", "io.read_bundle", "io.write_result",
        "characterize.bootstrap", "characterize.characterize_dataset",
        "characterize.estimate_arguments", "characterize.calibrate_gamma",
        "curvefit.fit_curve", "photonic.cross_envelope", "linalg.svd",
        "linalg.nearest_unitary", "harness.simulate_dataset")
    # (kind, m, spectra, replicates per op); replicate counts balance op times
    CONFIGS = (("m3-gauss", 3, "gauss", 14), ("m3-double", 3, "double", 14),
               ("m4-gauss", 4, "gauss", 6), ("m4-double", 4, "double", 6))
    BUNDLES_PER_CONFIG = 7

    def setup(self):
        for j, (kind, m, spectra, _) in enumerate(self.CONFIGS):
            for b in range(self.BUNDLES_PER_CONFIG):
                res = run_cli(["simulate", "--m", str(m), "--gamma", "0.95",
                               "--seed", str(derive(self.seed, j, b)),
                               "--spectra", spectra,
                               "--out", self.path(f"{kind}-{b}")])
                if res.rc != 0:
                    raise RuntimeError(f"simulate failed: {res.error_class}")
        res = run_cli(["characterize", "--data", self.path(
            f"{self.CONFIGS[0][0]}-0"), "--out", self.path("warmup.json")])
        if res.rc != 0:
            raise RuntimeError(f"warm-up characterize failed: {res.error_class}")

    def cycle(self, k):
        return [self._op(k, j, *cfg) for j, cfg in enumerate(self.CONFIGS)]

    def _op(self, k, j, kind, m, spectra, reps):
        bundle = self.path(f"{kind}-{k % self.BUNDLES_PER_CONFIG}")
        out = self.path(f"{kind}-result.json")
        argv = ["characterize", "--data", bundle, "--out", out,
                "--bootstrap", str(reps), "--seed", str(derive(self.seed, k, j))]

        def check(res):
            units = Units(reps)
            if res.rc != 0:
                return units.fail(res.error_class, reps)
            with open(out) as fh:
                result = json.load(fh)
            w = matrix_from_json(result["w"])
            sre = matrix_from_json(result["sigma_re"]).real
            sim = matrix_from_json(result["sigma_im"]).real
            if unitarity_defect(w) > UNITARY_TOL:
                return units.fail("CheckFailed:W-not-unitary", reps,
                                  wrong=True)
            truth = read_matrix(os.path.join(bundle, "truth.json"))
            err, t = min(((trace_distance(w, c), c) for c in
                          (truth, truth.conj())), key=lambda pair: pair[0])
            for d in result["diagnostics"]:
                if d.get("type") == "bootstrap-failures":
                    for entry in d["log"]:
                        units.fail("replicate:" + entry["error"])
                    unlogged = d["count"] - len(d["log"])
                    if unlogged > 0:
                        units.fail("replicate:unlogged", unlogged)
            units.add("char_error", err)
            covered = (int(np.sum(np.abs((w - t).real) <= 2 * sre + 1e-12))
                       + int(np.sum(np.abs((w - t).imag) <= 2 * sim + 1e-12)))
            units.add("covered", covered)
            units.add("entries", 2 * w.size)
            return units

        return Op(kind, lambda: run_cli(argv), check)

    @staticmethod
    def quality(q):
        out = _char_error_summary(q)
        if q.get("entries"):
            out["bootstrap_coverage"] = sum(q["covered"]) / sum(q["entries"])
        return out


class Decompose(Workload):
    """``decompose`` then ``reconstruct`` on Haar unitaries."""
    name = "decompose"
    unit = "unitaries"
    throughput = "unitaries_per_s"
    nominal_cycle_s = 3.6
    expected_spans = (
        "cli.main", "io.read_matrix", "io.write_plan", "io.read_plan",
        "io.write_matrix", "csd.decompose", "csd.csd", "csd.reconstruct",
        "linalg.svd")
    # deep spatial chains, balanced shapes, wide internal shapes; the wide
    # ones (n_p >= 4) are where linalg's orthonormal completion fails.
    # Three slow, two middle and three fast shapes per cycle keep the median
    # inside the middle pair even when some slow ones fail fast; the middle
    # pair is one shape on two inputs, so that the median reads one kind.
    SHAPES = ((20, 2), (12, 5), (14, 2), (8, 3), (4, 8),
              (26, 2), (14, 2), (5, 10))
    INPUT_SETS = 6

    def setup(self):
        for s in range(self.INPUT_SETS):
            for j, (ns, np_) in enumerate(self.SHAPES):
                write_matrix(self.path(f"u-{s}-{j}.json"),
                             haar_unitary(ns * np_, derive(self.seed, s, j)))
        write_matrix(self.path("warmup.json"), haar_unitary(6, self.seed))
        res = run_cli(["decompose", "--in", self.path("warmup.json"), "--ns",
                       "3", "--np", "2", "--out", self.path("warmup-plan.json")])
        if res.rc != 0:
            raise RuntimeError(f"warm-up decompose failed: {res.error_class}")

    def cycle(self, k):
        return [self._op(k, j, ns, np_) for j, (ns, np_) in enumerate(self.SHAPES)]

    def _op(self, k, j, ns, np_):
        src = self.path(f"u-{k % self.INPUT_SETS}-{j}.json")
        plan = self.path("plan.json")
        rec = self.path("rec.json")
        kind = f"{ns}x{np_}"

        def call():
            res = run_cli(["decompose", "--in", src, "--ns", str(ns), "--np",
                           str(np_), "--out", plan])
            if res.rc != 0:
                return res, None
            return res, run_cli(["reconstruct", "--in", plan, "--out", rec])

        def check(results):
            dec, recon = results
            units = Units(1)
            for res in (dec, recon):
                if res is not None and res.rc != 0:
                    return units.fail(res.error_class, detail=kind)
            census = json.loads(dec.stdout)["census"]
            if census["BS"] != ns * (ns - 1):
                return units.fail("CheckFailed:census", wrong=True)
            err = trace_distance(read_matrix(rec), read_matrix(src))
            if not err < ROUND_TRIP_TOL:
                return units.fail("CheckFailed:round-trip", detail=repr(err),
                                  wrong=True)
            units.add("roundtrip_err", err)
            return units

        return Op(kind, call, check)

    @staticmethod
    def quality(q):
        vals = q.get("roundtrip_err")
        return {"roundtrip_err_max": max(vals)} if vals else {}


class GroupFunctions(Workload):
    """Identity checks, D-matrices, bases and dimension-law counts."""
    name = "group-functions"
    unit = "checks"
    throughput = "checks_per_s"
    nominal_cycle_s = 4.0
    expected_spans = (
        "cli.main", "io.read_matrix", "sunrep.canonical_basis_states",
        "sunrep.dfunction", "sunrep.dfunction_matrix", "bosonrep.basis_set",
        "bosonrep.minor_basis_count", "immanants.immanant",
        "immanants.permanent", "immanants.kostant_lhs_rhs",
        "immanants.submatrix_immanant_identity")
    DFUNC = ((3, (2, 1)), (3, (2, 2)), (4, (1, 0, 1)), (4, (0, 2, 0)))
    BASIS = ((4, (1, 1, 0)), (5, (1, 1, 0, 0)))
    # verify-su5 is the slowest op (one per cycle, fewer than 11 per run), so
    # op_tail_s reads the next kind down: the su5 (1,1,0,1) count runs three
    # times per cycle with distinct seeds so that the tail falls inside it
    # rather than on the edge between two kinds of different cost
    COUNTS = ((2, 2), (1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 1), (1, 1, 0, 1),
              (0, 1, 1, 0))
    ELEMENTS = 6

    def setup(self):
        for s in range(self.ELEMENTS):
            for n in sorted({n for n, _ in self.DFUNC}):
                write_matrix(self.path(f"g{n}-{s}.json"),
                             special_unitary(n, derive(self.seed, s, n)))
        # the first call that fills the canonical-basis cache, once per irrep
        # any timed op uses: every CLI process pays it once
        irreps = {(n, partition_label(lam, n)) for n in (3, 4, 5)
                  for lam in partitions(n)}
        # the submatrix identities use the irreps of (2,1) and (3,1)
        irreps |= {(5, (1, 1, 0, 0)), (5, (2, 1, 0, 0)), (4, (1, 1, 0))}
        irreps |= set(self.DFUNC) | set(self.BASIS)
        for n, kap in sorted(irreps):
            res = run_cli(["basis", "--n", str(n), "--irrep",
                           ",".join(map(str, kap)), "--out", self.path("basis.json")])
            if res.rc != 0:
                raise RuntimeError(f"basis warm-up failed: {res.error_class}")

    def cycle(self, k):
        ops = [self._verify(k, n) for n in (3, 4, 5)]
        ops += [self._dfunc(k, n, kap) for n, kap in self.DFUNC]
        ops += [self._basis(n, kap) for n, kap in self.BASIS]
        ops += [self._count(k, i, kap) for i, kap in enumerate(self.COUNTS)]
        return ops

    def _verify(self, k, n):
        out = self.path(f"verify-su{n}.json")
        argv = ["verify-identities", "--group", f"su{n}", "--trials", "1",
                "--seed", str(derive(self.seed, k, n)), "--out", out]

        def check(res):
            if res.rc not in (0, 1) or not os.path.exists(out):
                return Units(1).fail(res.error_class)
            with open(out) as fh:
                report = json.load(fh)
            os.remove(out)
            units = Units(len(report["checks"]))
            for c in report["checks"]:
                if not c["residual"] < IDENTITY_TOL:
                    units.fail("CheckFailed:identity-residual",
                               detail=f"{c['check']} {c['residual']!r}",
                               wrong=True)
                units.add("identity_residual", c["residual"])
            if res.rc != 0 or not report["pass"]:
                units.fail(res.error_class or "CheckFailed:pass-flag",
                           wrong=True)
            return units

        return Op(f"verify-su{n}", lambda: run_cli(argv), check)

    def _dfunc(self, k, n, kap):
        src = self.path(f"g{n}-{k % self.ELEMENTS}.json")
        out = self.path("dfunc.json")
        label = ",".join(map(str, kap))
        argv = ["dfunc", "--in", src, "--irrep", label, "--out", out]

        def check(res):
            units = Units(1)
            if res.rc != 0:
                return units.fail(res.error_class)
            with open(out) as fh:
                d = matrix_from_json(json.load(fh)["matrix"])
            if d.shape[0] != weyl_dimension(kap):
                return units.fail("CheckFailed:dimension", wrong=True)
            if unitarity_defect(d) > UNITARY_TOL:
                return units.fail("CheckFailed:D-not-unitary", wrong=True)
            return units

        return Op(f"dfunc-su{n}-{label}", lambda: run_cli(argv), check)

    def _basis(self, n, kap):
        out = self.path("basis.json")
        label = ",".join(map(str, kap))
        argv = ["basis", "--n", str(n), "--irrep", label, "--out", out]

        def check(res):
            units = Units(1)
            if res.rc != 0:
                return units.fail(res.error_class)
            with open(out) as fh:
                basis = json.load(fh)
            keys = {json.dumps(s["gt"]) for s in basis["states"]}
            if not basis["dimension"] == len(keys) == weyl_dimension(kap):
                return units.fail("CheckFailed:basis-dimension", wrong=True)
            return units

        return Op(f"basis-su{n}-{label}", lambda: run_cli(argv), check)

    def _count(self, k, i, kap):
        seed = derive(self.seed, k, i, *kap)

        def call():
            try:
                return bosonrep.minor_basis_count(kap, seed=seed), None
            except Exception as exc:  # a crash is a failed unit, not a stop
                return None, type(exc).__name__

        def check(result):
            count, error_class = result
            units = Units(1)
            if error_class is not None:
                return units.fail(error_class)
            if count != weyl_dimension(kap):
                return units.fail("CheckFailed:dimension-law", wrong=True)
            return units

        return Op(f"count-{''.join(map(str, kap))}", call, check)

    @staticmethod
    def quality(q):
        vals = q.get("identity_residual")
        return {"identity_residual_max": max(vals)} if vals else {}


WORKLOADS = {w.name: w for w in (McTrials, Bootstrap, Decompose, GroupFunctions)}
