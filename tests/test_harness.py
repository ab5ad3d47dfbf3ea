import numpy as np

from interfero import characterize, harness, linalg, photonic
from interfero.errors import FitFailure


def test_simulate_deterministic():
    u = linalg.haar_random_unitary(3, seed=2)
    a = harness.simulate_dataset(u, 0.9, seed=11)
    b = harness.simulate_dataset(u, 0.9, seed=11)
    assert np.array_equal(a.single_counts, b.single_counts)
    for key in a.coincidence:
        assert np.array_equal(a.coincidence[key][1], b.coincidence[key][1])


def test_simulate_noiseless_matches_probabilities():
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 1.0, seed=1, noise=False,
                                  photons_per_input=1e4, n_blocks=5)
    probs = np.abs(u) ** 2
    total = ds.single_counts.sum(axis=2)
    assert np.max(np.abs(total - probs * 1e4)) < 1e-8


def test_simulate_matches_per_key_models():
    u = linalg.haar_random_unitary(3, seed=6)
    spectra = [photonic.double_peak_spectrum(), photonic.gaussian_spectrum(),
               photonic.double_peak_spectrum(n_points=61)]
    ds = harness.simulate_dataset(u, 0.8, seed=3, spectra=spectra,
                                  noise=False)
    params = photonic.representative_from_unitary(u)
    loss = photonic.LossModel.lossless(3)
    tau = harness.DEFAULT_TAU_GRID
    for key, (_, counts) in ds.coincidence.items():
        model = photonic.coincidence_curve_model(
            params, loss, 0.8, spectra[key[2] - 1], spectra[key[3] - 1], key)
        assert np.array_equal(counts, 2e5 * model(tau))
    bs = photonic.representative_from_unitary(harness.beam_splitter_matrix(0.6))
    model = photonic.coincidence_curve_model(
        bs, photonic.LossModel.lossless(2), 0.8, spectra[0], spectra[1],
        (1, 2, 1, 2))
    assert np.array_equal(ds.calibration_curve[1], 2e5 * model(tau))


def test_characterization_error_conjugation():
    u = linalg.haar_random_unitary(4, seed=9)
    w = linalg.canonicalize_representative(u.conj())
    assert harness.characterization_error(w, u) < 1e-12


def test_run_trials_noiseless_full():
    report = harness.run_trials(3, "full", 3, seed=5, gamma=1.0, noise=False)
    assert report["mean_error"] < 1e-6
    assert len(report["per_trial"]) == 3
    assert report["failures"] == []


def test_calibration_advantage_small():
    # with real mode mismatch, ignoring calibration biases the magnitudes
    full = harness.run_trials(3, "full", 4, seed=21, gamma=0.9)
    nocal = harness.run_trials(3, "nocal", 4, seed=21, gamma=0.9)
    assert full["mean_error"] < nocal["mean_error"]


def test_spectral_model_advantage_small():
    full = harness.run_trials(3, "full", 4, seed=31, gamma=0.95,
                              spectra_kind="double")
    gauss = harness.run_trials(3, "gauss", 4, seed=31, gamma=0.95,
                               spectra_kind="double")
    assert full["mean_error"] < gauss["mean_error"]


def test_gaussian_approximation_moments():
    spec = photonic.double_peak_spectrum()
    approx = harness.gaussian_approximation(spec)
    for s in (spec, approx):
        p = s.weights * s.values ** 2
        p = p / p.sum()
        s.mean = float(np.sum(p * s.omega))
        s.std = float(np.sqrt(np.sum(p * (s.omega - s.mean) ** 2)))
    assert abs(spec.mean - approx.mean) < 0.02
    assert abs(spec.std - approx.std) < 0.02


def test_gamma_consistency_fixture():
    results = harness.gamma_consistency_check()
    assert len(results) == 6
    assert all(r["consistent"] for r in results)


def test_reflectivity_comparison_fixture():
    expected = {
        "calibrated": [0.7021, 0.3421, 0.6929],
        "nocal": [3.8945, 4.6331, 0.7035],
        "gauss": [3.6171, 7.1913, 1.2833],
    }
    out = harness.reflectivity_comparison()
    for method, vals in expected.items():
        got = [row["distance"] for row in out[method]]
        for g, e in zip(got, vals):
            assert abs(g - e) / e < 0.005


def test_bootstrap_mean_ci():
    rng = np.random.default_rng(1)
    x = rng.normal(5.0, 1.0, 400)
    lo, hi = harness.bootstrap_mean_ci(x, seed=2)
    assert lo < 5.0 < hi
    assert hi - lo < 0.5


def test_mean_ratio_confidence():
    rng = np.random.default_rng(3)
    worse = rng.normal(10.0, 1.0, 200)
    better = rng.normal(2.0, 0.5, 200)
    lo, hi = harness.mean_ratio_confidence(worse, better, seed=4)
    assert lo > 3.0
    assert lo < 5.0 < hi


def test_run_trials_failures_carry_class(monkeypatch):
    def failing(ds, **kwargs):
        raise FitFailure("no start converged")

    monkeypatch.setattr(harness, "characterize_dataset", failing)
    report = harness.run_trials(3, "full", 2, seed=1)
    assert report["failures"] == [
        {"trial": t, "error": "no start converged", "class": "FitFailure"}
        for t in range(2)]
