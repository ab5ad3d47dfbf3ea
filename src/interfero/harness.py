"""Synthetic-experiment harness: simulate characterization datasets with
Poisson shot noise, run pipeline variants over many random unitaries and
compare against the published verification tables."""
import json
from importlib import resources

import numpy as np

from . import linalg, photonic
from .characterize import (CharacterizationDataset, all_curve_keys,
                           characterize_dataset, required_choice_keys)
from .errors import InterferoError

DEFAULT_TAU_GRID = np.linspace(-5.0, 5.0, 33)
VARIANTS = ("full", "nocal", "gauss")


def beam_splitter_matrix(vartheta):
    """Variable beam splitter with reflectivity cos ϑ."""
    c, s = np.cos(vartheta), np.sin(vartheta)
    return np.array([[c, 1j * s], [1j * s, c]])


def gaussian_approximation(spec):
    """Gaussian spectral amplitude with the mean and standard deviation of
    the measured intensity |f(ω)|² — the mismatched fit model."""
    p = spec.weights * spec.values ** 2
    p = p / np.sum(p)
    mean = float(np.sum(p * spec.omega))
    std = float(np.sqrt(np.sum(p * (spec.omega - mean) ** 2)))
    return photonic.gaussian_spectrum(center=mean, width=std,
                                      n_points=len(spec.omega),
                                      span=(spec.omega[-1] - spec.omega[0])
                                      / (2 * std))


def simulate_dataset(u, gamma, seed=None, rng=None, spectra=None, loss=None,
                     n_blocks=10, photons_per_input=1e5, pair_rate=2e5,
                     tau_grid=None, noise=True, curve_keys=None,
                     calibration_vartheta=0.6, include_calibration=True,
                     fit_spectra=None):
    """Forward-simulate one characterization experiment for unitary u.

    With ``noise`` the counts are Poisson draws at the stated photon
    budgets; without it they are exact expected values (floats).
    ``fit_spectra`` optionally substitutes different spectra into the
    returned dataset (model-mismatch studies) while the data themselves
    are always generated from the true ``spectra``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    m = u.shape[0]
    params = photonic.representative_from_unitary(u)
    if spectra is None:
        spectra = [photonic.gaussian_spectrum() for _ in range(m)]
    if loss is None:
        loss = photonic.LossModel.lossless(m)
    if tau_grid is None:
        tau_grid = DEFAULT_TAU_GRID
    if curve_keys is None:
        curve_keys = all_curve_keys(m)

    lossy = photonic.assemble_lossy_matrix(params, loss)
    probs = photonic.single_photon_matrix(lossy)
    expected = probs[:, :, None] * (photons_per_input / n_blocks) \
        * np.ones(n_blocks)
    singles = rng.poisson(expected).astype(float) if noise else expected

    envelopes = {}     # one overlap envelope per input pair (j, j')

    def envelope(j, j2):
        if (j, j2) not in envelopes:
            envelopes[j, j2], _ = photonic.cross_envelope(spectra[j - 1],
                                                          spectra[j2 - 1])
        return envelopes[j, j2]

    curves = {}
    for key in curve_keys:
        i, i2, j, j2 = key
        model = photonic.coincidence_curve_model(
            params, loss, gamma, spectra[j - 1], spectra[j2 - 1], key,
            envelope=envelope(j, j2))
        mean_curve = pair_rate * model(np.asarray(tau_grid, dtype=float))
        counts = rng.poisson(np.maximum(mean_curve, 0.0)).astype(float) \
            if noise else mean_curve
        curves[key] = (np.asarray(tau_grid, dtype=float), counts)

    cal_single = cal_curve = cal_spectra = None
    if include_calibration:
        u_bs = beam_splitter_matrix(calibration_vartheta)
        bs_params = photonic.representative_from_unitary(u_bs)
        bs_loss = photonic.LossModel.lossless(2)
        bs_probs = photonic.single_photon_matrix(
            photonic.assemble_lossy_matrix(bs_params, bs_loss))
        bs_expected = bs_probs[:, :, None] * (photons_per_input / n_blocks) \
            * np.ones(n_blocks)
        cal_single = rng.poisson(bs_expected).astype(float) if noise \
            else bs_expected
        model = photonic.coincidence_curve_model(
            bs_params, bs_loss, gamma, spectra[0], spectra[1], (1, 2, 1, 2),
            envelope=envelope(1, 2))
        mean_curve = pair_rate * model(np.asarray(tau_grid, dtype=float))
        cal_counts = rng.poisson(np.maximum(mean_curve, 0.0)).astype(float) \
            if noise else mean_curve
        cal_curve = (np.asarray(tau_grid, dtype=float), cal_counts)
        cal_spectra = (spectra[0], spectra[1])

    used_spectra = spectra if fit_spectra is None else fit_spectra
    used_cal_spectra = cal_spectra
    if fit_spectra is not None and cal_spectra is not None:
        used_cal_spectra = (fit_spectra[0], fit_spectra[1])
    return CharacterizationDataset(
        singles, curves, used_spectra,
        calibration_single=cal_single, calibration_curve=cal_curve,
        calibration_spectra=used_cal_spectra)


def characterization_error(w, u):
    """Trace distance between the recovered W and the representative of u,
    minimized over the unresolvable global conjugation U ↔ U*."""
    return min(
        linalg.trace_distance(w, linalg.canonicalize_representative(u)),
        linalg.trace_distance(w, linalg.canonicalize_representative(u.conj())))


def run_trials(m, variant, n_trials, seed, gamma=0.9, spectra_kind="gauss",
               photons_per_input=1e5, pair_rate=2e5, n_blocks=10,
               threshold=0.1, noise=True):
    """Monte-Carlo verification run: fresh Haar unitaries, simulated data,
    one pipeline variant, per-trial errors ε = min over {U, U*}.

    Variants: "full" (calibrated fit with the true spectra), "nocal"
    (γ forced to 1), "gauss" (Gaussian spectra substituted in the fit).
    """
    assert variant in VARIANTS
    per_trial = []
    failures = []
    for t in range(n_trials):
        rng = np.random.default_rng([int(seed), t])
        u = linalg.haar_random_unitary(m, rng=rng)
        if spectra_kind == "gauss":
            spectra = [photonic.gaussian_spectrum() for _ in range(m)]
        else:
            spectra = [photonic.double_peak_spectrum() for _ in range(m)]
        fit_spectra = None
        if variant == "gauss":
            fit_spectra = [gaussian_approximation(s) for s in spectra]
        ds = simulate_dataset(
            u, gamma, rng=rng, spectra=spectra, fit_spectra=fit_spectra,
            photons_per_input=photons_per_input, pair_rate=pair_rate,
            n_blocks=n_blocks, noise=noise,
            include_calibration=(variant != "nocal"))
        try:
            est = characterize_dataset(
                ds, threshold=threshold,
                gamma_override=1.0 if variant == "nocal" else None)
            per_trial.append(characterization_error(est.w, u))
        except InterferoError as exc:
            failures.append({"trial": t, "error": str(exc),
                             "class": exc.code})
    errs = np.array(per_trial)
    return {
        "variant": variant,
        "trials": n_trials,
        "m": m,
        "gamma": gamma,
        "mean_error": float(np.mean(errs)) if len(errs) else float("nan"),
        "std_error": float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
        "failures": failures,
        "per_trial": [float(e) for e in errs],
    }


def bootstrap_mean_ci(values, n_boot=2000, seed=0, level=0.95):
    """Percentile bootstrap confidence interval for the mean."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), (n_boot, len(values)))
    means = values[idx].mean(axis=1)
    lo = (1.0 - level) / 2
    return (float(np.quantile(means, lo)),
            float(np.quantile(means, 1.0 - lo)))


def mean_ratio_confidence(errs_worse, errs_better, n_boot=2000, seed=0,
                          level=0.95):
    """Bootstrap CI for mean(errs_worse)/mean(errs_better) over trials."""
    a = np.asarray(errs_worse, dtype=float)
    b = np.asarray(errs_better, dtype=float)
    rng = np.random.default_rng(seed)
    ratios = np.empty(n_boot)
    for k in range(n_boot):
        ratios[k] = (a[rng.integers(0, len(a), len(a))].mean()
                     / b[rng.integers(0, len(b), len(b))].mean())
    lo = (1.0 - level) / 2
    return float(np.quantile(ratios, lo)), float(np.quantile(ratios, 1.0 - lo))


# ---------------------------------------------------------------------------
# published verification tables
# ---------------------------------------------------------------------------
def load_fixture(name):
    path = resources.files("interfero") / "fixtures" / name
    with path.open() as fh:
        return json.load(fh)


def gamma_consistency_check(estimates=None):
    """Pairwise consistency of the per-splitter γ estimates:
    |γ_i − γ_j| < 2√(σ_i² + σ_j²) for every pair."""
    if estimates is None:
        estimates = load_fixture("gamma_promise.json")["splitters"]
    results = []
    for a in range(len(estimates)):
        for b in range(a + 1, len(estimates)):
            ga, sa = estimates[a]["gamma"], estimates[a]["sigma"]
            gb, sb = estimates[b]["gamma"], estimates[b]["sigma"]
            bound = 2.0 * np.sqrt(sa ** 2 + sb ** 2)
            results.append({"pair": (a, b), "difference": abs(ga - gb),
                            "bound": bound,
                            "consistent": abs(ga - gb) < bound})
    return results


def reflectivity_comparison(table=None):
    """Normalized distances |R_proc − R_sp|/√(σ₁²+σ₂²) between each
    processed reflectivity estimate and the single-photon reference."""
    if table is None:
        table = load_fixture("reflectivity_table.json")
    out = {}
    for method in ("calibrated", "nocal", "gauss"):
        rows = []
        for row in table["ports"]:
            ref, sref = row["single_photon"], row["single_photon_sigma"]
            val, sig = row[method], row[method + "_sigma"]
            rows.append({
                "port": row["port"],
                "distance": float(abs(val - ref)
                                  / np.sqrt(sig ** 2 + sref ** 2)),
            })
        out[method] = rows
    return out
