import itertools
import json

import numpy as np
import pytest

from interfero import characterize, harness, linalg, photonic
from interfero.errors import FitFailure, ParseError
from test_characterize import characterize_one
from test_photonic import curve_over_grid


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
    # every noiseless curve against the explicit 2-D quadrature, on spectra
    # of 81- and 61-point grids
    u = linalg.haar_random_unitary(3, seed=6)
    double = photonic.double_peak_spectrum()
    omega = np.linspace(0.0, 12.0, 61)
    spectra = [double, photonic.gaussian_spectrum(), photonic.SpectralFunction(
        omega, np.interp(omega, double.omega, double.values))]
    ds = harness.simulate_dataset(u, 0.8, seed=3, spectra=spectra,
                                  noise=False)
    tau = harness.DEFAULT_TAU_GRID
    params = photonic.representative_from_unitary(u)
    bs = photonic.representative_from_unitary(harness.beam_splitter_matrix(0.6))
    assert set(ds.coincidence) == characterize.all_curve_keys(3)
    curves = [(params, key, curve) for key, curve in ds.coincidence.items()]
    curves.append((bs, (1, 2, 1, 2), ds.calibration_curve))
    for p, key, (t, counts) in curves:
        ref = 2e5 * curve_over_grid(
            p, photonic.LossModel.lossless(p.m), 0.8, spectra[key[2] - 1],
            spectra[key[3] - 1], key, tau)
        assert t is tau
        assert np.max(np.abs(counts - ref)) <= 1e-12 * np.max(ref)


def test_simulation_draws_in_a_fixed_order():
    # a noisy dataset is one Poisson draw each of the data singles, every
    # data curve in all_curve_keys order, the calibration singles and the
    # calibration curve, from the generator of the seed, and nothing more
    u = linalg.haar_random_unitary(4, seed=8)
    spectra = harness.source_spectra("double", 4)
    mean = harness.simulate_dataset(u, 0.9, seed=5, spectra=spectra,
                                    noise=False)
    rng = np.random.default_rng(5)
    ds = harness.simulate_dataset(u, 0.9, rng=rng, spectra=spectra)
    replay = np.random.default_rng(5)
    keys = list(characterize.all_curve_keys(4))
    singles = replay.poisson(mean.single_counts)
    curves = replay.poisson(np.maximum(
        [mean.coincidence[key][1] for key in keys], 0.0))
    cal_single = replay.poisson(mean.calibration_single)
    cal_curve = replay.poisson(np.maximum(mean.calibration_curve[1], 0.0))
    assert list(ds.coincidence) == keys
    assert np.array_equal(ds.single_counts, singles)
    for key, counts in zip(keys, curves):
        assert np.array_equal(ds.coincidence[key][1], counts)
    assert np.array_equal(ds.calibration_single, cal_single)
    assert np.array_equal(ds.calibration_curve[1], cal_curve)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_characterization_error_conjugation():
    u = linalg.haar_random_unitary(4, seed=9)
    w = linalg.canonicalize_representative(u.conj())
    assert harness.characterization_error(w, u) < 1e-12


def test_run_trials_noiseless_full():
    # run_trials' three trials of seed 5 with the expected counts
    unitaries, datasets = [], []
    for t in range(3):
        rng = np.random.default_rng([5, t])
        unitaries.append(linalg.haar_random_unitary(3, rng=rng))
        datasets.append(harness.simulate_dataset(
            unitaries[-1], 1.0, rng=rng,
            spectra=harness.source_spectra("gauss", 3), noise=False))
    estimates = characterize.characterize_dataset(datasets)
    assert not [e for e in estimates if isinstance(e, Exception)]
    errs = [harness.characterization_error(e.w, u)
            for e, u in zip(estimates, unitaries)]
    assert len(errs) == 3
    assert max(errs) < 1e-6


def trial_by_trial(datasets, **kwargs):
    """Oracle for run_trials' stacked call: each trial on a stack of one."""
    return [characterize.characterize_dataset([ds], **kwargs)[0]
            for ds in datasets]


def break_trials(monkeypatch, n_trials):
    """Spy on simulate_dataset: trial 1 gets a calibration dip turned into
    a peak (γ̃ < 0) and trial 3 flat sign curves."""
    simulate = harness.simulate_dataset
    made = []

    def spy(*args, **kwargs):
        ds = simulate(*args, **kwargs)
        t = len(made) % n_trials
        made.append(ds)
        if t == 1:
            tau, counts = ds.calibration_curve
            ds.calibration_curve = (tau, 2 * counts.max() - counts)
        if t == 3:
            for key, (tau, counts) in list(ds.coincidence.items()):
                if key[0] != 1 or key[2] != 1:
                    ds.coincidence[key] = (
                        tau, np.full_like(counts, counts.mean()))
        return ds

    monkeypatch.setattr(harness, "simulate_dataset", spy)


@pytest.mark.parametrize("case", ["m3-gauss-double", "m4-low-counts",
                                  "broken-mid-stack"])
def test_run_trials_stack_matches_trial_by_trial(case, monkeypatch):
    if case == "m3-gauss-double":
        args = (3, "gauss", 100, 77)
        kwargs = dict(gamma=0.95, spectra_kind="double")
        classes = ["DivisionByZeroCount"]
    elif case == "m4-low-counts":
        args = (4, "full", 30, 5)
        kwargs = dict(photons_per_input=1e3, pair_rate=2e3)
        classes = ["DivisionByZeroCount"] * 13
    else:
        args = (3, "full", 6, 9)
        kwargs = {}
        classes = ["CalibrationOutOfRange", "FitFailure"]
        break_trials(monkeypatch, 6)
    calls = []
    stack = harness.characterize_dataset

    def counted(datasets, **kw):
        calls.append(len(datasets))
        return stack(datasets, **kw)

    monkeypatch.setattr(harness, "characterize_dataset", counted)
    stacked = harness.run_trials(*args, **kwargs)
    assert calls == [args[2]]
    monkeypatch.setattr(harness, "characterize_dataset", trial_by_trial)
    alone = harness.run_trials(*args, **kwargs)
    assert [f["class"] for f in stacked["failures"]] == classes
    assert json.dumps(stacked) == json.dumps(alone)


def test_run_trials_reraises_linalg_error(monkeypatch):
    solve = characterize.max_likely_unitary
    calls = []

    def failing_second(alpha, theta):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return solve(alpha, theta)

    monkeypatch.setattr(characterize, "max_likely_unitary", failing_second)
    with pytest.raises(np.linalg.LinAlgError):
        harness.run_trials(3, "full", 3, seed=5)
    assert len(calls) == 3      # the whole stack ran before the raise


def test_trial_with_a_nearly_flat_sign_curve_succeeds():
    # a sign curve of this trial has amp·cos β ≈ 0.009·0.0035, so its shift
    # barely moves it; a local fit crept along the shift to its iteration
    # limit and the trial failed with "no start converged"
    report = harness.run_trials(5, "full", 1, seed=4010755824, gamma=0.9,
                                photons_per_input=1e7, pair_rate=2e7)
    assert report["failures"] == []
    assert report["per_trial"][0] < 0.05


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
    # the published per-splitter γ estimates agree pairwise:
    # |γ_a − γ_b| < 2√(σ_a² + σ_b²)
    splitters = harness.load_fixture("gamma_promise.json")["splitters"]
    pairs = list(itertools.combinations(splitters, 2))
    assert len(pairs) == 6
    for a, b in pairs:
        assert (abs(a["gamma"] - b["gamma"])
                < 2.0 * np.sqrt(a["sigma"] ** 2 + b["sigma"] ** 2))


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


def test_mean_ratio_confidence():
    rng = np.random.default_rng(3)
    worse = rng.normal(10.0, 1.0, 200)
    better = rng.normal(2.0, 0.5, 200)
    lo, hi = harness.mean_ratio_confidence(worse, better, seed=4)
    assert lo > 3.0
    assert lo < 5.0 < hi


def test_run_trials_failures_carry_class(monkeypatch):
    def failing(datasets, **kwargs):
        return [FitFailure("no start converged") for _ in datasets]

    monkeypatch.setattr(harness, "characterize_dataset", failing)
    report = harness.run_trials(3, "full", 2, seed=1)
    assert report["failures"] == [
        {"trial": t, "error": "no start converged", "class": "FitFailure"}
        for t in range(2)]


def test_run_trials_rejects_unknown_variant():
    with pytest.raises(ParseError):
        harness.run_trials(3, "bogus", 1, seed=1)


@pytest.mark.parametrize("make", [
    lambda kind: harness.source_spectra(kind, 2),
    lambda kind: harness.run_trials(3, "full", 1, seed=1, spectra_kind=kind)],
    ids=["source_spectra", "run_trials"])
def test_unknown_spectra_kind_is_an_error(make):
    # "Gauss" once fell through to the double-peak profile
    with pytest.raises(ParseError) as info:
        make("Gauss")
    assert info.value.details == {"spectra": list(harness.SPECTRA)}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_noiseless_characterization_is_loss_immune(m):
    # the amplitude ratios cancel every per-port efficiency and phase, and
    # each curve fit has a free scale, so lossy ports change nothing
    rng = np.random.default_rng([m, 11])
    u = linalg.haar_random_unitary(m, seed=m)
    loss = photonic.LossModel(rng.uniform(0.3, 1.0, m),
                              rng.uniform(0.3, 1.0, m),
                              rng.uniform(-np.pi, np.pi, m),
                              rng.uniform(-np.pi, np.pi, m))
    ds = harness.simulate_dataset(u, 0.9, seed=1, loss=loss, noise=False)
    # the losses reach the data: singles fall well short of |U_ij|^2
    shortfall = np.abs(u) ** 2 - ds.single_counts.sum(axis=2) / 1e5
    assert shortfall.max() > 0.05
    est = characterize_one(ds)
    assert harness.characterization_error(est.w, u) < 1e-9
