"""Synthetic-experiment harness: simulate characterization datasets with
Poisson shot noise, run pipeline variants over many random unitaries and
compare against the published verification tables."""
import json
from importlib import resources

import numpy as np

from . import linalg, photonic
from .characterize import (CharacterizationDataset, all_curve_keys,
                           characterize_dataset, unwrap)
from .errors import InterferoError, InvalidDimension, ParseError

DEFAULT_TAU_GRID = np.linspace(-5.0, 5.0, 33)
VARIANTS = ("full", "nocal", "gauss")
SPECTRA = ("gauss", "double")


def beam_splitter_matrix(vartheta):
    """Variable beam splitter with reflectivity cos ϑ."""
    c, s = np.cos(vartheta), np.sin(vartheta)
    return np.array([[c, 1j * s], [1j * s, c]])


def source_spectra(kind, m):
    """m identical source spectra of a kind in SPECTRA: "gauss" for
    Gaussian ones, "double" for the double-peak profile."""
    if kind not in SPECTRA:
        raise ParseError(f"unknown spectra kind {kind!r}",
                         spectra=list(SPECTRA))
    make = (photonic.gaussian_spectrum if kind == "gauss"
            else photonic.double_peak_spectrum)
    return [make() for _ in range(m)]


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


def _draw(params, loss, gamma, spectra, keys, rng, noise, photons_per_input,
          n_blocks, pair_rate):
    """Singles (m, m, n_blocks) and the (K, T) coincidence counts of
    ``keys`` on ``DEFAULT_TAU_GRID`` for one optical setup: the expected
    values, or with ``noise`` one Poisson draw of the singles and then one
    of every curve."""
    probs = photonic.single_photon_matrix(
        photonic.assemble_lossy_matrix(params, loss))
    singles = probs[:, :, None] * (photons_per_input / n_blocks) \
        * np.ones(n_blocks)
    curves = pair_rate * photonic.coincidence_curve_model(
        params, loss, gamma, spectra, keys, DEFAULT_TAU_GRID)
    if noise:
        singles = rng.poisson(singles).astype(float)
        curves = rng.poisson(np.maximum(curves, 0.0)).astype(float)
    return singles, curves


def simulate_dataset(u, gamma, seed=None, rng=None, spectra=None, loss=None,
                     n_blocks=10, photons_per_input=1e5, pair_rate=2e5,
                     noise=True, include_calibration=True, fit_spectra=None):
    """Forward-simulate one characterization experiment for unitary u.

    Every coincidence curve of ``all_curve_keys(m)`` is sampled on
    ``DEFAULT_TAU_GRID`` by one stacked ``coincidence_curve_model`` call,
    and the calibration beam splitter (ϑ = 0.6, curve (1, 2, 1, 2)) by
    one more.  With ``noise`` the counts are Poisson draws at the stated
    photon budgets, in the order data singles, data curves, calibration
    singles, calibration curve; without it they are exact expected values
    (floats).  ``fit_spectra`` optionally substitutes different spectra
    into the returned dataset (model-mismatch studies) while the data
    themselves are always generated from the true ``spectra``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    m = u.shape[0]
    if m < 2:
        raise InvalidDimension("characterization needs at least 2 ports", m=m)
    if spectra is None:
        spectra = source_spectra("gauss", m)
    if loss is None:
        loss = photonic.LossModel.lossless(m)
    tau = DEFAULT_TAU_GRID

    keys = list(all_curve_keys(m))
    singles, counts = _draw(photonic.representative_from_unitary(u), loss,
                            gamma, spectra, keys, rng, noise,
                            photons_per_input, n_blocks, pair_rate)
    curves = {key: (tau, c) for key, c in zip(keys, counts)}

    cal_single = cal_curve = None
    if include_calibration:
        cal_single, cal_counts = _draw(
            photonic.representative_from_unitary(beam_splitter_matrix(0.6)),
            photonic.LossModel.lossless(2), gamma, spectra[:2],
            [(1, 2, 1, 2)], rng, noise, photons_per_input, n_blocks,
            pair_rate)
        cal_curve = (tau, cal_counts[0])

    return CharacterizationDataset(
        singles, curves, spectra if fit_spectra is None else fit_spectra,
        calibration_single=cal_single, calibration_curve=cal_curve)


def characterization_error(w, u):
    """Trace distance between the recovered W and the representative of u,
    minimized over the unresolvable global conjugation U ↔ U*."""
    return min(
        linalg.trace_distance(w, linalg.canonicalize_representative(u)),
        linalg.trace_distance(w, linalg.canonicalize_representative(u.conj())))


def run_trials(m, variant, n_trials, seed, gamma=0.9, spectra_kind="gauss",
               photons_per_input=1e5, pair_rate=2e5, n_blocks=10):
    """Monte-Carlo verification run: fresh Haar unitaries, simulated data,
    one pipeline variant, per-trial errors ε = min over {U, U*}.

    Variants: "full" (calibrated fit with the true spectra), "nocal"
    (no calibration data, so γ = 1), "gauss" (Gaussian spectra
    substituted in the fit).
    Every trial is simulated first, then all of them are characterized as
    one stack; a trial whose pipeline raises an InterferoError becomes a
    failure record.
    """
    if variant not in VARIANTS:
        raise ParseError(f"unknown variant {variant!r}", variants=list(VARIANTS))
    unitaries, datasets = [], []
    for t in range(n_trials):
        rng = np.random.default_rng([int(seed), t])
        u = linalg.haar_random_unitary(m, rng=rng)
        spectra = source_spectra(spectra_kind, m)
        fit_spectra = None
        if variant == "gauss":
            fit_spectra = [gaussian_approximation(s) for s in spectra]
        unitaries.append(u)
        datasets.append(simulate_dataset(
            u, gamma, rng=rng, spectra=spectra, fit_spectra=fit_spectra,
            photons_per_input=photons_per_input, pair_rate=pair_rate,
            n_blocks=n_blocks, include_calibration=(variant != "nocal")))
    estimates = characterize_dataset(datasets)
    per_trial = []
    failures = []
    for t, (u, est) in enumerate(zip(unitaries, estimates)):
        if isinstance(est, InterferoError):
            failures.append({"trial": t, "error": str(est),
                             "class": est.code})
        else:   # a LinAlgError is a fault, not a failed trial: raise it
            per_trial.append(characterization_error(unwrap(est).w, u))
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


def mean_ratio_confidence(errs_worse, errs_better, seed=0):
    """95% bootstrap CI for mean(errs_worse)/mean(errs_better) over trials,
    from 2000 resamples."""
    a = np.asarray(errs_worse, dtype=float)
    b = np.asarray(errs_better, dtype=float)
    rng = np.random.default_rng(seed)
    ratios = np.empty(2000)
    for k in range(len(ratios)):
        ratios[k] = (a[rng.integers(0, len(a), len(a))].mean()
                     / b[rng.integers(0, len(b), len(b))].mean())
    lo = (1.0 - 0.95) / 2
    return float(np.quantile(ratios, lo)), float(np.quantile(ratios, 1.0 - lo))


# ---------------------------------------------------------------------------
# published verification tables
# ---------------------------------------------------------------------------
def load_fixture(name):
    path = resources.files("interfero") / "fixtures" / name
    with path.open() as fh:
        return json.load(fh)


def reflectivity_comparison():
    """Normalized distances |R_proc − R_sp|/√(σ₁²+σ₂²) between each
    processed reflectivity estimate and the single-photon reference."""
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
