"""End-to-end acceptance criteria.

Each test checks one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in the captured output of a
failing run).  Several tests are Monte-Carlo studies and take minutes.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from interfero import (
    bosonrep,
    characterize,
    cli,
    csd,
    harness,
    immanants,
    io,
    linalg,
    sunrep,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def special_unitary(m, seed):
    u = linalg.haar_random_unitary(m, seed=seed)
    return u / np.linalg.det(u) ** (1.0 / m)


# ---------------------------------------------------------------------------
# 1. decomposition round trip
# ---------------------------------------------------------------------------
def test_criterion_01_csd_round_trip():
    combos = list(itertools.product(range(1, 7), range(1, 4)))
    seeds = itertools.count(100)
    worst = 0.0
    t0 = time.time()
    n_done = 0
    while n_done < 200:
        for n_s, n_p in combos:
            if n_done >= 200:
                break
            u = linalg.haar_random_unitary(n_s * n_p, seed=next(seeds))
            plan = csd.decompose(u, n_s, n_p)
            worst = max(worst, linalg.trace_distance(csd.reconstruct(plan), u))
            n_done += 1
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 60.0,
           f"200 round trips over (ns,np) in {{1..6}}x{{1..3}}: "
           f"max trace distance {worst:.2e} (< 1e-9), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. element census
# ---------------------------------------------------------------------------
def test_criterion_02_element_census():
    ok = True
    details = []
    for n_p in (1, 2, 3):
        u = linalg.haar_random_unitary(4 * n_p, seed=7 + n_p)
        census = csd.decompose(u, 4, n_p).census()
        ok &= census["BS"] == 12 and census["IU"] == 16
        details.append(f"np={n_p}: {census['BS']}BS/{census['IU']}IU")
    # closed forms hold for every tested geometry
    for n_s, n_p in itertools.product(range(2, 6), range(1, 4)):
        u = linalg.haar_random_unitary(n_s * n_p, seed=50 + 10 * n_s + n_p)
        census = csd.decompose(u, n_s, n_p).census()
        rep = csd.cost_report(n_s, n_p)
        ok &= census["BS"] == rep["beam_splitters"] == n_s * (n_s - 1)
        ok &= census["IU"] == n_s ** 2
    report(2, ok, "ns=4 census 6 CS blocks -> 12 BS, 16 IU "
                  f"({'; '.join(details)}); closed forms hold on 2..5 x 1..3")


# ---------------------------------------------------------------------------
# 3. cost formulas
# ---------------------------------------------------------------------------
def test_criterion_03_cost_formulas():
    ok = True
    for n_s in range(2, 12):
        for n_p in range(2, 12):
            eta = csd.cost_report(n_s, n_p)["reduction_factor"]
            closed = (n_s * n_p * (n_s * n_p - 1)) / (2 * n_s * (n_s - 1))
            ok &= abs(eta - closed) < 1e-12 and eta > n_p ** 2 / 2
    report(3, ok, "reduction factor matches closed form and exceeds np^2/2 "
                  "on the 10x10 grid ns,np in {2..11}")


# ---------------------------------------------------------------------------
# 4. noiseless characterization exactness
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_04_noiseless_characterization():
    t0 = time.time()
    worst = 0.0
    for m in (3, 4, 5, 6):
        for k in range(20):
            u = linalg.haar_random_unitary(m, seed=1000 + 100 * m + k)
            ds = harness.simulate_dataset(u, 1.0, seed=m * 37 + k,
                                          noise=False)
            est = characterize.characterize_dataset(ds)
            worst = max(worst, harness.characterization_error(est.w, u))
    elapsed = time.time() - t0
    report(4, worst < 1e-6 and elapsed < 300.0,
           f"noiseless m in {{3..6}}, gamma=1, 20 unitaries each: max error "
           f"{worst:.2e} (< 1e-6), {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 5. calibration advantage
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_05_calibration_advantage():
    ok = True
    details = []
    budget = dict(photons_per_input=1e7, pair_rate=2e7)
    for gamma in (0.9, 0.95, 0.99):
        seed = int(gamma * 1000)
        full = harness.run_trials(5, "full", 100, seed, gamma=gamma, **budget)
        nocal = harness.run_trials(5, "nocal", 100, seed, gamma=gamma,
                                   **budget)
        lo, hi = harness.mean_ratio_confidence(nocal["per_trial"],
                                               full["per_trial"])
        ok &= lo > 1.0
        if gamma == 0.9:
            ratio = nocal["mean_error"] / full["mean_error"]
            ok &= ratio > 3.0
            details.append(f"gamma=0.9 ratio {ratio:.2f}x (> 3)")
        details.append(f"gamma={gamma}: ratio CI [{lo:.2f}, {hi:.2f}]")
    report(5, ok, "m=5, 100 trials: no-calibration error exceeds calibrated "
                  "with 95% confidence; " + "; ".join(details))


# ---------------------------------------------------------------------------
# 6. spectral-fit advantage
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_06_spectral_fit_advantage():
    full = harness.run_trials(3, "full", 100, 77, gamma=0.95,
                              spectra_kind="double")
    gauss = harness.run_trials(3, "gauss", 100, 77, gamma=0.95,
                               spectra_kind="double")
    lo, hi = harness.mean_ratio_confidence(gauss["per_trial"],
                                           full["per_trial"])
    report(6, lo > 1.0,
           f"non-Gaussian source, 100 trials: Gaussian-fit/full error ratio "
           f"CI [{lo:.2f}, {hi:.2f}] excludes 1 at 95% confidence")


# ---------------------------------------------------------------------------
# 7. reflectivity fixture
# ---------------------------------------------------------------------------
def test_criterion_07_reflectivity_fixture():
    published = {"calibrated": (0.7021, 0.3421, 0.6929),
                 "nocal": (3.8945, 4.6331, 0.7035)}
    out = harness.reflectivity_comparison()
    ok = True
    for method, expected in published.items():
        got = [row["distance"] for row in out[method]]
        for g, e in zip(got, expected):
            ok &= abs(g - e) / e < 0.005
    report(7, ok, "normalized reflectivity distances match the published "
                  "rows within 0.5%")


# ---------------------------------------------------------------------------
# 8. bootstrap coverage
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_08_bootstrap_coverage():
    covered = 0
    total = 0
    for k in range(100):
        u = linalg.haar_random_unitary(3, seed=4000 + k)
        ds = harness.simulate_dataset(u, 0.95, seed=k)
        try:
            est = characterize.bootstrap(ds, n_replicates=40, seed=k)
        except Exception:
            total += 18
            continue
        cands = [linalg.canonicalize_representative(u),
                 linalg.canonicalize_representative(u.conj())]
        truth = min(cands, key=lambda c: linalg.trace_distance(est.w, c))
        dre = np.abs(np.real(est.w - truth))
        dim = np.abs(np.imag(est.w - truth))
        covered += int(np.sum(dre <= 2 * est.sigma_re + 1e-12))
        covered += int(np.sum(dim <= 2 * est.sigma_im + 1e-12))
        total += 2 * truth.size
    frac = covered / total
    report(8, frac >= 0.90,
           f"m=3 Poisson noise, 100 experiments: {100 * frac:.1f}% of "
           "representative entries within +/-2 sigma bootstrap bars (>= 90%)")


# ---------------------------------------------------------------------------
# 9. dimension law
# ---------------------------------------------------------------------------
def _irreps_up_to(n, maxdim):
    out = []

    def rec(prefix):
        if len(prefix) == n - 1:
            out.append(tuple(prefix))
            return
        k = 0
        while True:
            probe = tuple(prefix + [k] + [0] * (n - 2 - len(prefix)))
            if bosonrep.irrep_dimension(probe) > maxdim:
                break
            rec(prefix + [k])
            k += 1
    rec([])
    return [k for k in out if bosonrep.irrep_dimension(k) <= maxdim]


@pytest.mark.slow
def test_criterion_09_dimension_law():
    checked = 0
    ok = True
    for n in (2, 3, 4, 5):
        for kap in _irreps_up_to(n, 200):
            ok &= bosonrep.minor_basis_count(kap, n) \
                == bosonrep.irrep_dimension(kap)
            checked += 1
    # explicit anchors via the exact boson-monomial route
    ok &= bosonrep.basis_set(bosonrep.hws((1, 1)), 3).dimension() == 8
    ok &= bosonrep.basis_set(bosonrep.hws((2, 2)), 3).dimension() == 27
    bs = bosonrep.basis_set(bosonrep.hws((1, 1)), 3)
    ok &= len(bs.by_weight[(0, 0)]) == 2
    report(9, ok, f"basis count equals the dimension formula for all "
                  f"{checked} irreps with dim <= 200 at n in {{2..5}}; "
                  "(1,1)->8, (2,2)->27, weight-(0,0) multiplicity 2")


# ---------------------------------------------------------------------------
# 10. D-matrix unitarity and homomorphism
# ---------------------------------------------------------------------------
def test_criterion_10_dmatrix_properties():
    worst = 0.0
    for n, kap in [(3, (1, 1)), (3, (2, 0)), (3, (3, 0)), (4, (1, 0, 1))]:
        prev = None
        for k in range(20):
            omega = special_unitary(n, 6000 + 100 * n + k)
            _, d = sunrep.dfunction_matrix(n, omega, kap)
            worst = max(worst, linalg.unitarity_defect(d))
            if prev is not None:
                om_prev, d_prev = prev
                _, d12 = sunrep.dfunction_matrix(n, om_prev @ omega, kap)
                worst = max(worst, float(np.max(np.abs(d12 - d_prev @ d))))
            prev = (omega, d)
    basis = sunrep.canonical_basis_states(2, (2,))
    lab = next(l for l, _ in basis if l.occupations == (1, 1))
    worst_cb = 0.0
    for beta in np.linspace(0.0, math.pi, 19):
        d = sunrep.dfunction(2, (0.4, float(beta), -1.1), lab, lab)
        worst_cb = max(worst_cb, abs(d - math.cos(beta)))
    report(10, worst < 1e-9 and worst_cb < 1e-12,
           f"unitarity/homomorphism residual {worst:.2e} (< 1e-9) over 20 "
           f"elements per irrep; middle SU(2) element matches cos(beta) to "
           f"{worst_cb:.2e} (< 1e-12)")


# ---------------------------------------------------------------------------
# 11. zero-weight immanant identity
# ---------------------------------------------------------------------------
def test_criterion_11_kostant_identity():
    worst = 0.0
    for k in range(50):
        v = special_unitary(3, 7000 + k)
        for lam in [(3,), (2, 1), (1, 1, 1)]:
            _, _, diff = immanants.kostant_lhs_rhs(v, lam, 3)
            worst = max(worst, diff)
    report(11, worst < 1e-10,
           f"immanant = zero-weight D sum for all partitions of 3 "
           f"(permanent included), 50 elements: residual {worst:.2e} "
           "(< 1e-10)")


# ---------------------------------------------------------------------------
# 12. submatrix identities
# ---------------------------------------------------------------------------
def test_criterion_12_submatrix_identities():
    instances = [
        (4, (2, 1), (2, 3, 4), (1, 3, 4)),
        (4, (2, 1), (2, 3, 4), (1, 2, 4)),
        (4, (2, 1), (1, 3, 4), (1, 2, 4)),
        (5, (2, 1), (2, 3, 5), (1, 3, 4)),
        (5, (3, 1), (1, 3, 4, 5), (1, 2, 3, 5)),
    ]
    worst = 0.0
    for n, lam, rows, cols in instances:
        for k in range(20):
            v = special_unitary(n, 8000 + 50 * n + k)
            _, _, diff = immanants.submatrix_immanant_identity(
                v, lam, rows, cols, n)
            worst = max(worst, diff)
    worst_lw = 0.0
    for k in range(20):
        v = special_unitary(4, 8500 + k)
        worst_lw = max(worst_lw, immanants.littlewood_relation_check(v))
    report(12, worst < 1e-10 and worst_lw < 1e-9,
           f"five tabulated submatrix instances: residual {worst:.2e} "
           f"(< 1e-10); four-split permanent relation: {worst_lw:.2e} "
           "(< 1e-9)")


# ---------------------------------------------------------------------------
# 13. three-photon consistency
# ---------------------------------------------------------------------------
def _quadrature(u, taus, sigma):
    om = np.linspace(-8 * sigma, 8 * sigma, 2001)
    dw = om[1] - om[0]
    f2 = np.exp(-om ** 2 / (2 * sigma ** 2))
    f2 /= f2.sum() * dw

    def g(d):
        return (f2 * np.exp(1j * om * d)).sum() * dw

    total = 0.0
    for s in itertools.permutations(range(3)):
        for r in itertools.permutations(range(3)):
            ts = u[0, s[0]] * u[1, s[1]] * u[2, s[2]]
            tr = u[0, r[0]] * u[1, r[1]] * u[2, r[2]]
            prod = 1.0 + 0j
            for q in range(3):
                prod *= g(taus[s[q]] - taus[r[q]])
            total += (ts * tr.conjugate() * prod).real
    return total


def test_criterion_13_three_photon():
    rng = np.random.default_rng(99)
    worst_q = worst_p = worst_abc = 0.0
    for k in range(5):
        u = linalg.haar_random_unitary(3, seed=9000 + k)
        taus = rng.uniform(-1.2, 1.2, 3)
        p = immanants.three_photon_coincidence(u, taus, 0.9)
        worst_q = max(worst_q, abs(p - _quadrature(u, taus, 0.9)))
        p0 = immanants.three_photon_coincidence(u, (0.0, 0.0, 0.0), 0.9)
        worst_p = max(worst_p, abs(p0 - abs(immanants.permanent(u)) ** 2))
        v = u / np.linalg.det(u) ** (1 / 3)
        for x, y in zip(immanants.abc_terms(v),
                        immanants.abc_via_dfunctions(v)):
            worst_abc = max(worst_abc, abs(x - y))
    report(13, worst_q < 1e-6 and worst_p < 1e-10 and worst_abc < 1e-10,
           f"closed form vs quadrature {worst_q:.2e} (< 1e-6); zero-delay "
           f"vs |permanent|^2 {worst_p:.2e} (< 1e-10); group-function vs "
           f"matrix-element amplitudes {worst_abc:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# 14. CLI determinism
# ---------------------------------------------------------------------------
def test_criterion_14_cli_determinism(tmp_path):
    invocations = [
        (["simulate", "--m", "3", "--gamma", "0.95", "--seed", "21",
          "--out", "{d}/bundle"],
         ["bundle/counts.csv", "bundle/manifest.json",
          "bundle/calibration.csv", "bundle/unitary.json"]),
        (["trials", "--m", "3", "--variant", "full", "--trials", "2",
          "--seed", "8", "--out", "{d}/rep.json",
          "--plot-csv", "{d}/rep.csv"], ["rep.json", "rep.csv"]),
        (["verify-identities", "--group", "su3", "--trials", "3",
          "--seed", "6", "--out", "{d}/v.json"], ["v.json"]),
    ]
    ok = True
    for args, artifacts in invocations:
        blobs = []
        for run in ("a", "b"):
            d = tmp_path / f"{args[0]}_{run}"
            d.mkdir(exist_ok=True)
            assert cli.main([a.format(d=d) for a in args]) == 0
            blobs.append([(d / f).read_bytes() for f in artifacts])
        ok &= blobs[0] == blobs[1]
    report(14, ok, "seeded simulate/trials/verify-identities invocations "
                   "are byte-identical across consecutive runs")
