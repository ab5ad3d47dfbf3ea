from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interfero import characterize, harness, io, linalg, photonic
from interfero.errors import (BootstrapUnstable, CalibrationOutOfRange,
                              DegenerateAmplitudes, DivisionByZeroCount,
                              FitFailure, InsufficientData, InterferoError,
                              ShapeError)


# ---------------------------------------------------------------------------
# amplitude estimation
# ---------------------------------------------------------------------------
def test_amplitudes_uniform_counts():
    counts = np.full((3, 3, 4), 250.0)
    alpha, sigma = characterize.estimate_amplitudes(counts)
    assert np.allclose(alpha, 1.0)
    assert np.allclose(sigma, 0.0)


def test_amplitudes_fixed_ratio():
    counts = np.zeros((2, 2, 3))
    counts[0, 0, :] = 400
    counts[1, 1, :] = 100
    counts[0, 1, :] = 200
    counts[1, 0, :] = 200
    alpha, sigma = characterize.estimate_amplitudes(counts)
    assert abs(alpha[1, 1] - 1.0) < 1e-12
    assert sigma[1, 1] < 1e-12


def test_amplitudes_rescaling_invariance():
    rng = np.random.default_rng(3)
    counts = rng.poisson(500, size=(4, 4, 6)).astype(float) + 1
    alpha, _ = characterize.estimate_amplitudes(counts)
    scale = rng.uniform(0.5, 2.0, size=(4, 6))  # per (input, repetition)
    rescaled = counts * scale[None, :, :]
    alpha2, _ = characterize.estimate_amplitudes(rescaled)
    assert np.max(np.abs(alpha - alpha2)) < 1e-12


def test_amplitudes_zero_denominator():
    counts = np.full((2, 2, 2), 100.0)
    counts[0, 1, 1] = 0.0
    with pytest.raises(DivisionByZeroCount):
        characterize.estimate_amplitudes(counts)


def loop_amplitudes(counts):
    """Reference: one (i, j) entry at a time, zero checks in loop order."""
    n = np.asarray(counts, dtype=float)
    m, _, n_blocks = n.shape
    for b in range(n_blocks):
        for j in range(m):
            if n[0, j, b] == 0:
                raise DivisionByZeroCount("zero reference count", output=1,
                                          input=j + 1, repetition=b + 1)
        for i in range(m):
            if n[i, 0, b] == 0:
                raise DivisionByZeroCount("zero reference count",
                                          output=i + 1, input=1,
                                          repetition=b + 1)
    alpha = np.ones((m, m))
    sigma = np.zeros((m, m))
    for i in range(1, m):
        for j in range(1, m):
            vals = np.outer(np.sqrt(n[0, 0, :] / n[i, 0, :]),
                            np.sqrt(n[i, j, :] / n[0, j, :])).ravel()
            alpha[i, j] = np.mean(vals)
            sigma[i, j] = np.std(vals, ddof=1) if len(vals) > 1 else 0.0
    return alpha, sigma


def test_amplitudes_match_the_loop_reference():
    rng = np.random.default_rng(17)
    for t in range(400):
        m, n_blocks = int(rng.integers(2, 7)), int(rng.integers(1, 25))
        base = rng.poisson(rng.uniform(0.5, 500),
                           size=(m, m, n_blocks + 3)).astype(float)
        if t % 3 == 0:      # zeros, often more than one reference count
            base.flat[rng.integers(0, base.size, 3)] = 0.0
        # sliced, bootstrap-style fancy-indexed, Fortran-ordered and
        # transposed-reversed views reduce in different memory orders
        counts = [base[:, :, :n_blocks],
                  base[:, :, rng.integers(0, n_blocks + 3, n_blocks)],
                  np.asfortranarray(base[:, :, :n_blocks]),
                  base.transpose(1, 0, 2)[:, :, ::-1][:, :, :n_blocks]][t % 4]
        try:
            want = loop_amplitudes(counts)
        except DivisionByZeroCount as exc:
            with pytest.raises(DivisionByZeroCount) as info:
                characterize.estimate_amplitudes(counts)
            assert info.value.details == exc.details
            continue
        alpha, sigma = characterize.estimate_amplitudes(counts)
        assert np.array_equal(alpha, want[0])
        assert np.array_equal(sigma, want[1])


def test_amplitudes_within_3_sigma_of_truth():
    rng = np.random.default_rng(11)
    u = linalg.haar_random_unitary(3, seed=5)
    p = photonic.representative_from_unitary(u)
    probs = np.abs(u) ** 2
    counts = rng.poisson(probs[:, :, None] * 1e5 / 8, size=(3, 3, 8)).astype(float)
    alpha, sigma = characterize.estimate_amplitudes(counts)
    for i in range(1, 3):
        for j in range(1, 3):
            assert abs(alpha[i, j] - p.alpha[i, j]) < 3 * max(sigma[i, j], 1e-6)


def test_repetition_convergence_statuses():
    counts = np.full((2, 2, 8), 100.0)
    _, sigma = characterize.estimate_amplitudes(counts)
    ok = characterize.repetition_convergence(counts, sigma)
    assert ok["status"] == "ok"
    counts = np.full((2, 2, 2), 100.0)
    _, sigma = characterize.estimate_amplitudes(counts)
    few = characterize.repetition_convergence(counts, sigma)
    assert few["status"] == "skipped"


# ---------------------------------------------------------------------------
# reflectivity and calibration
# ---------------------------------------------------------------------------
def test_reflectivity_inversion():
    assert abs(characterize.reflectivity_from_alpha(1.0) - 1 / np.sqrt(2)) < 1e-12
    assert characterize.reflectivity_from_alpha(0.0) == 0.0
    assert abs(characterize.reflectivity_from_alpha(3.0) - np.sqrt(3) / 2) < 1e-12


def one(outcome):
    """A stacked call's entry for one dataset: raised if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def calibrate(cases):
    """calibrate_gamma on runs of (singles, curve, q) calibration data:
    each one's (γ̃, σ(γ̃), fit), or the error it raised."""
    runs = [characterize._Run(SimpleNamespace(
        m=2, calibration_single=singles, calibration_curve=curve,
        envelope=lambda j, j2, q=q: q), 0.1, None)
        for singles, curve, q in cases]
    characterize.calibrate_gamma(runs)
    return [run.error if run.error is not None
            else (run.gamma, run.gamma_sigma, run.calibration_fit)
            for run in runs]


def calibrate_one(singles, curve, q):
    """calibrate_gamma on one run."""
    return one(calibrate([(singles, curve, q)])[0])


def estimate_one(ds, alpha, gamma, threshold=0.1):
    """estimate_arguments on one run with the given α̃ and γ."""
    run = characterize._Run(ds, threshold, None)
    run.alpha, run.gamma = alpha, gamma
    characterize.estimate_arguments([run])
    one(run.error)
    return run.theta, run.diagnostics, run.plan, run.fits


def calibration_setup(gamma, vartheta=np.pi / 4, scale=2000.0):
    f = photonic.gaussian_spectrum()
    q = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    c2 = np.cos(vartheta) ** 2
    s2 = 1 - c2
    counts = scale * (c2 ** 2 + s2 ** 2 - 2 * gamma * c2 * s2
                      * q.shifted(tau, 0.0))
    alpha22 = (c2 / s2) ** 2
    p = alpha22 / (1 + alpha22)
    singles = np.zeros((2, 2, 3))
    singles[0, 0, :] = singles[1, 1, :] = 1000 * p
    singles[0, 1, :] = singles[1, 0, :] = 1000 * (1 - p)
    return singles, (tau, counts), q


def test_calibrate_gamma_perfect():
    singles, curve, q = calibration_setup(1.0)
    gamma, sigma, _ = calibrate_one(singles, curve, q)
    assert abs(gamma - 1.0) < 1e-3


def test_calibrate_gamma_half_visibility():
    singles, curve, q = calibration_setup(0.5)
    tau, counts = curve
    vis = (max(counts) - min(counts)) / max(counts)
    assert abs(vis - 0.5) < 1e-6  # V = gamma at the balanced point
    gamma, sigma, _ = calibrate_one(singles, curve, q)
    assert abs(gamma - 0.5) < 0.01


@pytest.mark.parametrize("alpha22", [-0.5, np.nan])
def test_reflectivity_rejects_invalid_ratio(alpha22):
    with pytest.raises(CalibrationOutOfRange):
        characterize.reflectivity_from_alpha(alpha22)


def test_calibrate_gamma_stack_keeps_invalid_ratio_per_dataset():
    singles, curve, q = calibration_setup(1.0)
    bad = singles.copy()
    bad[1, 1, :] = -bad[1, 1, :]        # α₂₂ of negative counts is NaN
    with np.errstate(invalid="ignore"):
        out = calibrate([(bad, curve, q), (singles, curve, q)])
    assert isinstance(out[0], CalibrationOutOfRange)
    assert abs(out[1][0] - 1.0) < 1e-3


def test_calibrate_gamma_out_of_range():
    singles, _, q = calibration_setup(1.0)
    f = photonic.gaussian_spectrum()
    tau = np.linspace(-5, 5, 33)
    # impossible dip depth
    counts = 2000 * (0.5 - 0.5 * 1.3 * q.shifted(tau, 0.0))
    with pytest.raises(CalibrationOutOfRange):
        calibrate_one(singles, (tau, counts), q)


# ---------------------------------------------------------------------------
# sign_calc
# ---------------------------------------------------------------------------
def test_sign_calc_examples():
    assert characterize.sign_calc(3 * np.pi / 4, np.pi / 2, 0, 0, np.pi / 4) == 1
    assert characterize.sign_calc(np.pi / 4, np.pi / 2, 0, 0, np.pi / 4) == -1
    assert characterize.sign_calc(0.7, np.pi / 2, 0, 0, 0.0) == 0


def test_sign_calc_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k1, k2, k3 = rng.uniform(-np.pi, np.pi, 3)
        t = rng.uniform(0.05, np.pi - 0.05)
        beta = rng.uniform(0, np.pi)
        s = characterize.sign_calc(beta, k1, k2, k3, t)
        # flipping the sign roles: combination negated swaps beta+/beta-
        s_flip = characterize.sign_calc(beta, -k1, -k2, -k3, t)
        bp = characterize.fold_angle if False else None
        # direct identity: with K -> -K the fold is unchanged but the roles
        # of +|t| and -|t| exchange, so the decision flips unless it's a tie
        if s != 0 and s_flip != 0:
            assert s_flip == -s or abs(
                characterize.reference_distance(k1 - k2 - k3)) < 1e-9


# ---------------------------------------------------------------------------
# argument magnitudes
# ---------------------------------------------------------------------------
def forward_dataset(theta22, m=2, gamma=1.0):
    alpha = np.ones((m, m))
    theta = np.zeros((m, m))
    theta[1, 1] = theta22
    params = photonic.RepresentativeParams(alpha, theta, np.ones(m), np.ones(m))
    loss = photonic.LossModel.lossless(m)
    f = photonic.gaussian_spectrum()
    tau = np.linspace(-5, 5, 33)
    (rate,) = photonic.coincidence_curve_model(params, loss, gamma, [f] * m,
                                               [(1, 2, 1, 2)], tau)
    curves = {(1, 2, 1, 2): (tau, 1000 * rate)}
    singles = np.full((m, m, 3), 500.0)
    return characterize.CharacterizationDataset(singles, curves, [f] * m)


def magnitude22(ds):
    """|θ̃₂₂| as the staged argument fit reads it from the (1,2,1,2) curve."""
    theta, _, _, _ = estimate_one(ds, np.ones((2, 2)), 1.0)
    return abs(theta[1, 1])


def test_magnitude_zero():
    assert magnitude22(forward_dataset(0.0)) < 0.01


def test_magnitude_two_thirds_pi():
    assert abs(magnitude22(forward_dataset(2 * np.pi / 3))
               - 2 * np.pi / 3) < 1e-4


def test_magnitude_sign_blind():
    for s in (+1, -1):
        assert abs(magnitude22(forward_dataset(s * 1.1)) - 1.1) < 1e-6


# ---------------------------------------------------------------------------
# argument estimation end-to-end
# ---------------------------------------------------------------------------
def test_arguments_noiseless_roundtrip_4x4():
    u = linalg.haar_random_unitary(4, seed=77)
    ds = harness.simulate_dataset(u, 1.0, seed=1, noise=False,
                                  include_calibration=False)
    p = photonic.representative_from_unitary(u)
    alpha, _ = characterize.estimate_amplitudes(ds.single_counts)
    theta, diag, plan, fits = estimate_one(ds, alpha, 1.0)
    err_direct = np.max(np.abs(np.angle(np.exp(1j * (theta - p.theta)))))
    err_conj = np.max(np.abs(np.angle(np.exp(1j * (theta + p.theta)))))
    assert min(err_direct, err_conj) < 1e-3


def test_arguments_real_unitary_degenerate_phases():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    u = q.astype(complex)
    ds = harness.simulate_dataset(u, 1.0, seed=2, noise=False,
                                  include_calibration=False)
    p = photonic.representative_from_unitary(u)
    alpha, _ = characterize.estimate_amplitudes(ds.single_counts)
    theta, diag, plan, fits = estimate_one(ds, alpha, 1.0)
    assert any(d["type"] == "sign-unstable" for d in diag)
    # magnitudes still recovered: every |theta| near 0 or pi as in truth
    for i in range(1, 4):
        for j in range(1, 4):
            assert abs(abs(theta[i, j]) - abs(p.theta[i, j])) < 1e-3


def adversarial_curves(phi_noise):
    m = 3
    alpha = np.ones((m, m))
    theta = np.zeros((m, m))
    theta[1, 1], theta[1, 2], theta[2, 1], theta[2, 2] = 1.55, 0.9, 0.67, -0.8
    params = photonic.RepresentativeParams(alpha, theta, np.ones(m), np.ones(m))
    loss = photonic.LossModel.lossless(m)
    f = photonic.gaussian_spectrum()
    q = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    keys = list(characterize.all_curve_keys(m))
    rates = photonic.coincidence_curve_model(params, loss, 1.0, [f] * m, keys,
                                             tau)
    curves = {key: (tau, 1000 * rate) for key, rate in zip(keys, rates)}
    # corrupt the default interior sign curve by a small phase offset
    phi = theta[1, 1] - theta[1, 2] - theta[2, 1] + theta[2, 2]
    curves[(2, 3, 2, 3)] = (tau, 1000 * (2 + 2 * np.cos(phi + phi_noise)
                                         * q.shifted(tau, 0.0)))
    singles = np.full((m, m, 3), 500.0)
    ds = characterize.CharacterizationDataset(singles, curves, [f] * m)
    return ds, alpha, theta


def test_mitigation_fixes_adversarial_sign():
    ds, alpha, truth = adversarial_curves(0.05)
    bad, _, _, _ = estimate_one(ds, alpha, 1.0, threshold=0.0)
    good, diag, _, _ = estimate_one(ds, alpha, 1.0, threshold=0.1)
    assert np.sign(bad[2, 2]) == +1          # fooled without mitigation
    assert np.sign(good[2, 2]) == -1         # rescued by the alternate pair
    assert any(d["type"] == "sign-rederived" for d in diag)


def test_no_sign_tie_at_pi():
    # a real orthogonal U: |θ̃₃₃| and |θ̃₄₄| fit to exactly π, where the
    # sign cannot change W, just as at 0
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    est = characterize_one(harness.simulate_dataset(q.astype(complex), 0.95,
                                                     seed=0))
    assert abs(est.theta[2, 2]) == abs(est.theta[3, 3]) == np.pi
    assert "sign-tie" not in {d["type"] for d in est.diagnostics}


def test_one_fit_per_stage(monkeypatch):
    # calibration, magnitudes and signs are one stacked fit each, however
    # many datasets; only a chosen mitigation alternate adds one
    calls = []
    fit_curve = characterize.fit_curve

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_curve(*args, **kwargs)

    monkeypatch.setattr(characterize, "fit_curve", counting)
    for n in (1, 4):
        calls.clear()
        out = characterize.characterize_dataset([harness.simulate_dataset(
            linalg.haar_random_unitary(4, seed=s), 0.9, seed=s)
            for s in range(n)])
        rederived = sum(d["type"] == "sign-rederived"
                        for est in out for d in one(est).diagnostics)
        assert len(calls) == 3 + rederived


def test_mitigation_missing_alternates():
    ds, alpha, _ = adversarial_curves(0.05)
    del ds.coincidence[(2, 3, 1, 3)]
    del ds.coincidence[(1, 3, 2, 3)]
    with pytest.raises(InsufficientData):
        estimate_one(ds, alpha, 1.0, threshold=0.1)


# ---------------------------------------------------------------------------
# maximum-likelihood unitary
# ---------------------------------------------------------------------------
def test_max_likely_exact_roundtrip():
    u = linalg.haar_random_unitary(5, seed=19)
    p = photonic.representative_from_unitary(u)
    w = characterize.max_likely_unitary(p.alpha, p.theta)
    assert np.max(np.abs(w - linalg.canonicalize_representative(u))) < 1e-10


def test_max_likely_balanced_splitter():
    alpha = np.array([[1.0, 1.0], [1.0, 1.0]])
    theta = np.array([[0.0, 0.0], [0.0, np.pi]])
    w = characterize.max_likely_unitary(alpha, theta)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(w - expected)) < 1e-10


def test_max_likely_perturbed_still_unitary():
    rng = np.random.default_rng(31)
    u = linalg.haar_random_unitary(4, seed=4)
    p = photonic.representative_from_unitary(u)
    alpha = p.alpha * (1 + 0.02 * rng.normal(size=(4, 4)))
    alpha[0, :] = 1
    alpha[:, 0] = 1
    theta = p.theta + 0.02 * rng.normal(size=(4, 4))
    theta[0, :] = 0
    theta[:, 0] = 0
    w = characterize.max_likely_unitary(np.abs(alpha), theta)
    assert linalg.unitarity_defect(w) < 1e-10


def test_max_likely_negative_dressing_keeps_its_row():
    # 30 % noise drives Re mu_2 of this draw to -0.0048; clipping it to
    # zero emptied a column and nearest_unitary raised SingularInput
    rng = np.random.default_rng(8)
    p = photonic.representative_from_unitary(
        linalg.haar_random_unitary(3, seed=8))
    alpha = np.abs(p.alpha * (1 + 0.3 * rng.normal(size=(3, 3))))
    alpha[0, :] = 1
    alpha[:, 0] = 1
    theta = p.theta + 0.3 * rng.normal(size=(3, 3))
    theta[0, :] = 0
    theta[:, 0] = 0
    mu = np.linalg.solve(alpha * np.exp(1j * theta), np.eye(3)[0])
    assert np.real(mu[1]) < 0
    w = characterize.max_likely_unitary(alpha, theta)
    assert linalg.unitarity_defect(w) < 1e-10


def test_bootstrap_negative_dressing_is_not_a_failure(monkeypatch):
    # three replicates of this low-count m=3 run used to fail with
    # SingularInput on a well-conditioned amplitude matrix; one replicate
    # still fails, its calibration fit outside [0, 1]
    ds = harness.simulate_dataset(linalg.haar_random_unitary(3, seed=4), 0.9,
                                  seed=4, photons_per_input=2e3,
                                  pair_rate=4e2)
    monkeypatch.setattr(characterize, "MAX_REPLICATE_FAILURE_RATE", 1.0)
    res = characterize.bootstrap(ds, n_replicates=20, seed=3)
    failures, = [d for d in res.diagnostics
                 if d["type"] == "bootstrap-failures"]
    assert "SingularInput" not in failures["by_class"]
    assert failures["count"] == 1


def test_max_likely_singular():
    with pytest.raises(DegenerateAmplitudes):
        characterize.max_likely_unitary(np.ones((3, 3)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------
def characterize_one(ds, **kwargs):
    """characterize_dataset on a stack of one: its Characterization, or the
    error it raised, raised."""
    return characterize.unwrap(
        characterize.characterize_dataset([ds], **kwargs)[0])


@pytest.mark.parametrize("m", [3, 4])
def test_noiseless_end_to_end(m):
    for seed in range(3):
        u = linalg.haar_random_unitary(m, seed=200 + seed)
        ds = harness.simulate_dataset(u, 1.0, seed=seed, noise=False)
        est = characterize_one(ds)
        assert harness.characterization_error(est.w, u) < 1e-6
        assert abs(est.gamma - 1.0) < 1e-6


def test_per_pair_shifts_are_recovered():
    # the simulator sets no delay offset; these curves sit at τ − σ with a
    # distinct nonzero σ for each input pair, so a shift pinned to 0 fails
    m = 4
    u = linalg.haar_random_unitary(m, seed=21)
    params = photonic.representative_from_unitary(u)
    loss = photonic.LossModel.lossless(m)
    f = photonic.double_peak_spectrum()
    tau = np.linspace(-5, 5, 33)
    offsets = {(1, 2): 0.37, (1, 3): -0.61, (1, 4): 0.93, (2, 3): 0.18,
               (2, 4): -0.29, (3, 4): -1.12}
    curves = {}
    for key in characterize.all_curve_keys(m):
        shift = offsets[tuple(sorted(key[2:]))]
        (rate,) = photonic.coincidence_curve_model(params, loss, 1.0, [f] * m,
                                                   [key], tau - shift)
        curves[key] = (tau, 1000 * rate)
    singles = np.repeat(np.abs(u[:, :, None]) ** 2 * 1e4, 3, axis=2)
    ds = characterize.CharacterizationDataset(singles, curves, [f] * m)
    est = characterize_one(ds)
    assert harness.characterization_error(est.w, u) < 1e-6
    for key, fit in est.fits.items():
        assert abs(fit.shift - offsets[tuple(sorted(key[2:]))]) < 1e-7


def zero_entry_unitary(m, seed, i, j):
    """Haar unitary rotated in rows (i−1, i) so that entry (i, j) is 0."""
    u = linalg.haar_random_unitary(m, seed=seed)
    a, b = u[i - 1, j], u[i, j]
    g = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / np.hypot(abs(a),
                                                                abs(b))
    u[[i - 1, i]] = g @ u[[i - 1, i]]
    return u


@pytest.mark.parametrize("m, seed, i, j", [(3, 0, 2, 1), (4, 0, 2, 2),
                                           (4, 1, 3, 1)])
def test_zero_interior_entry_is_characterized(m, seed, i, j):
    # its single counts are all zero, so α_ij = 0 and every curve through
    # it lacks an interference term: W_ij = 0 needs no θ_ij, and the signs
    # such a curve would decide come from an alternate (m = 4) or are
    # unstable and set positive (m = 3, where every reference is 0 or π)
    u = zero_entry_unitary(m, seed, i, j)
    ds = harness.simulate_dataset(u, 0.9, seed=seed)
    est = characterize_one(ds)
    assert est.alpha[i, j] == 0
    assert photonic.canonical_curve_key((1, i + 1, 1, j + 1)) not in est.fits
    kinds = {d["type"] for d in est.diagnostics}
    assert ("sign-rederived" if m == 4 else "sign-unstable") in kinds
    assert harness.characterization_error(est.w, u) < 0.05
    res = characterize.bootstrap(ds, n_replicates=20, seed=1)
    assert not [d for d in res.diagnostics
                if d["type"] == "bootstrap-failures"]


def test_missing_choice_curves_rejected():
    u = linalg.haar_random_unitary(3, seed=1)
    ds = harness.simulate_dataset(u, 1.0, seed=1, noise=False)
    key = next(iter(characterize.required_choice_keys(3)))
    del ds.coincidence[key]
    with pytest.raises(InsufficientData):
        characterize_one(ds)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------
def test_bootstrap_zero_residuals():
    u = linalg.haar_random_unitary(3, seed=3)
    ds = harness.simulate_dataset(u, 1.0, seed=1, noise=False)
    res = characterize.bootstrap(ds, n_replicates=30, seed=7)
    assert np.max(res.sigma_re) < 1e-9
    assert np.max(res.sigma_im) < 1e-9
    assert res.gamma_sigma < 1e-9


def test_bootstrap_deterministic():
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 0.9, seed=5, noise=True)
    a = characterize.bootstrap(ds, n_replicates=25, seed=42)
    b = characterize.bootstrap(ds, n_replicates=25, seed=42)
    assert np.array_equal(a.sigma_re, b.sigma_re)
    assert np.array_equal(a.sigma_im, b.sigma_im)


def test_bootstrap_shot_noise_scaling():
    u = linalg.haar_random_unitary(3, seed=6)
    sig = {}
    for photons in (1e4, 1e6):
        ds = harness.simulate_dataset(u, 1.0, seed=8, noise=True,
                                      photons_per_input=photons,
                                      pair_rate=2 * photons)
        res = characterize.bootstrap(ds, n_replicates=60, seed=9)
        sig[photons] = np.mean(res.sigma_re[np.abs(res.sigma_re) > 0])
    ratio = sig[1e4] / sig[1e6]
    assert 4 < ratio < 25  # ~10x from sqrt(N) scaling


def one_at_a_time(datasets, warm):
    """Reference: each dataset through the pipeline on a stack of one.
    Every result's JSON is checked against ``_plain`` on the way."""
    out = []
    for ds in datasets:
        try:
            out.append(characterize_one(ds, warm=warm))
        except (InterferoError, np.linalg.LinAlgError) as exc:
            out.append(exc)
        else:
            assert_result_json_is_plain(out[-1])
    return out


def _plain(obj):
    """The converter result JSON once ran its diagnostics through: numpy
    scalars and arrays, tuples and complex numbers to JSON types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def assert_result_json_is_plain(est):
    """result_to_json writes the diagnostics as the pipeline made them:
    json.dumps accepts them (json_text raises otherwise), and ``_plain``
    would change no byte of the file."""
    out = io.result_to_json(est)
    assert io.json_text(out) == io.json_text(_plain(out))


def _fit_fields(fit):
    return None if fit is None else (fit.shape, fit.scale, fit.shift,
                                      fit.objective)


def assert_same_outcomes(batched, reference):
    """Bit-for-bit equality of pipeline outcomes; errors match by class,
    message and ports."""
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
            assert got.details.get("ports") == want.details.get("ports")
            continue
        for name in ("w", "alpha", "theta"):
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True)
        # repr round-trips every float, so equal reprs are equal bits
        assert repr((got.gamma, got.gamma_sigma, got.plan, got.diagnostics)) \
            == repr((want.gamma, want.gamma_sigma, want.plan,
                     want.diagnostics))
        assert {k: _fit_fields(f) for k, f in got.fits.items()} \
            == {k: _fit_fields(f) for k, f in want.fits.items()}
        assert _fit_fields(got.calibration_fit) \
            == _fit_fields(want.calibration_fit)


def test_stacked_pipeline_fails_each_dataset_on_its_own():
    u = linalg.haar_random_unitary(3, seed=4)
    point = characterize_one(harness.simulate_dataset(u, 0.9, seed=5))
    datasets = [harness.simulate_dataset(u, 0.9, seed=s) for s in range(6)]
    tau, counts = datasets[1].calibration_curve
    datasets[1].calibration_curve = (tau, np.full_like(counts, 900.0))
    key = (1, 2, 1, 3)
    datasets[3].coincidence[key] = (tau, np.full_like(counts, 900.0))
    batched = characterize.characterize_dataset(datasets, warm=point)
    reference = one_at_a_time(datasets, point)
    assert isinstance(batched[1], FitFailure)
    assert isinstance(batched[3], FitFailure)
    assert batched[3].details["ports"] == key
    assert_same_outcomes(batched, reference)


def test_sign_fit_failure_names_ports():
    u = linalg.haar_random_unitary(3, seed=3)
    ds = harness.simulate_dataset(u, 1.0, seed=1, noise=False)
    est = characterize_one(ds)
    magnitudes = {photonic.canonical_curve_key((1, i, 1, j))
                  for i in (2, 3) for j in (2, 3)}
    key = next(k for k in est.fits if k not in magnitudes)
    tau, counts = ds.coincidence[key]
    ds.coincidence[key] = (tau, np.full_like(counts, counts.mean()))
    with pytest.raises(FitFailure) as info:
        characterize_one(ds)
    assert photonic.canonical_curve_key(info.value.details["ports"]) == key


@pytest.mark.parametrize("case", ["deterministic", "failing"])
def test_bootstrap_stack_matches_one_replicate_at_a_time(case, monkeypatch):
    if case == "deterministic":     # the test_bootstrap_deterministic data
        u = linalg.haar_random_unitary(3, seed=4)
        ds = harness.simulate_dataset(u, 0.9, seed=5, noise=True)
        n, seed = 25, 42
    else:                           # low counts: replicates fail
        u = linalg.haar_random_unitary(3, seed=4)
        ds = harness.simulate_dataset(u, 0.9, seed=4, photons_per_input=2e3,
                                      pair_rate=4e2)
        n, seed = 20, 3
    seen = {}
    stack = characterize.characterize_dataset

    def spy(datasets, threshold=0.1, warm=None):
        if warm is not None and not seen and case == "failing":
            # flat curves fail two more replicates, one at the magnitude
            # and one at the sign stage
            magnitude = photonic.canonical_curve_key((1, 2, 1, 3))
            sign = next(k for k in warm.fits if k[0] != 1 or k[2] != 1)
            for idx, key in ((2, magnitude), (5, sign)):
                tau, counts = datasets[idx].coincidence[key]
                datasets[idx].coincidence[key] = (
                    tau, np.full_like(counts, counts.mean()))
        out = stack(datasets, threshold, warm)
        if warm is not None and not seen:     # the bootstrap's own call
            seen.update(replicates=datasets, point=warm, out=out)
        return out

    monkeypatch.setattr(characterize, "characterize_dataset", spy)
    monkeypatch.setattr(characterize, "MAX_REPLICATE_FAILURE_RATE", 1.0)
    res = characterize.bootstrap(ds, n_replicates=n, seed=seed)
    reference = one_at_a_time(seen["replicates"], seen["point"])
    assert_same_outcomes(seen["out"], reference)
    ws = [r.w for r in reference if not isinstance(r, Exception)]
    assert np.array_equal(res.sigma_re, np.std(np.real(ws), axis=0, ddof=1))
    assert np.array_equal(res.sigma_im, np.std(np.imag(ws), axis=0, ddof=1))
    expected = [{"replicate": idx, "error": str(r), "class": r.code}
                for idx, r in enumerate(reference) if isinstance(r, Exception)]
    entries = [d for d in res.diagnostics
               if d["type"] == "bootstrap-failures"]
    if case == "deterministic":
        assert not expected and not entries
        return
    (entry,) = entries
    assert entry["log"] == expected[:20]
    assert entry["count"] == len(expected)
    assert sum(entry["by_class"].values()) == entry["count"]
    assert len(entry["by_class"]) >= 2


def test_bootstrap_result_json_is_plain():
    # the low-count data above: its one failure makes a bootstrap-failures
    # diagnostic with by_class and log
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 0.9, seed=4, photons_per_input=2e3,
                                  pair_rate=4e2)
    res = characterize.bootstrap(ds, n_replicates=20, seed=3)
    (entry,) = [d for d in res.diagnostics
                if d["type"] == "bootstrap-failures"]
    assert entry["by_class"] == {"CalibrationOutOfRange": 1}
    assert res.sigma_re is not None
    assert_result_json_is_plain(res)


def test_bootstrap_unstable_past_the_failure_rate(monkeypatch):
    # the low-count data above: 1 of 20 replicates fails calibration
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 0.9, seed=4, photons_per_input=2e3,
                                  pair_rate=4e2)
    monkeypatch.setattr(characterize, "MAX_REPLICATE_FAILURE_RATE", 0.0)
    with pytest.raises(BootstrapUnstable) as info:
        characterize.bootstrap(ds, n_replicates=20, seed=3)
    assert info.value.details["failure_rate"] == 0.05
    (failure,) = info.value.details["failures"]
    assert failure["class"] == "CalibrationOutOfRange"
    assert failure["error"] == "fitted mode matching outside [0, 1]"


# experiment kinds of the stacked-characterization property test
def _experiment_unitary(kind, m, rng):
    if kind == "haar":
        return linalg.haar_random_unitary(m, rng=rng)
    if kind == "orthogonal":
        return np.linalg.qr(rng.standard_normal((m, m)))[0]
    if kind == "permutation":
        return np.eye(m)[rng.permutation(m)]
    if kind == "block":
        u = np.eye(m, dtype=complex)
        at = int(rng.integers(0, m - 1))
        u[at:at + 2, at:at + 2] = linalg.haar_random_unitary(2, rng=rng)
        return u
    noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return linalg.nearest_unitary(np.eye(m)[::-1] + 1e-6 * noise)


# (photons per input, pair rate, γ); the last one gives zero counts
_BUDGETS = [(1e5, 2e5, 0.9), (30, 60, 0.9), (1e5, 2e5, 0.999),
            (1e5, 2e5, 0.05), (0, 0, 0.9)]
_experiments = st.lists(st.tuples(
    st.sampled_from(["haar", "orthogonal", "permutation", "block",
                     "near-reversal"]),
    st.sampled_from(_BUDGETS), st.integers(0, 2 ** 16),
    st.sampled_from(["gauss", "double"]), st.booleans(), st.booleans()),
    min_size=1, max_size=6)


def _simulate_experiment(m, kind, budget, seed, spectra_kind, calibrated,
                         gauss_fit):
    rng = np.random.default_rng(seed)
    photons, pairs, gamma = budget
    spectra = harness.source_spectra(spectra_kind, m)
    return harness.simulate_dataset(
        _experiment_unitary(kind, m, rng), gamma, rng=rng, spectra=spectra,
        fit_spectra=([harness.gaussian_approximation(s) for s in spectra]
                     if gauss_fit else None),
        photons_per_input=photons, pair_rate=pairs,
        include_calibration=calibrated)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 5), experiments=_experiments)
def test_each_stacked_dataset_gets_its_lone_result(m, experiments):
    datasets = []
    for experiment in experiments:
        try:
            datasets.append(_simulate_experiment(m, *experiment))
        except InterferoError:  # permutation, block: phase undefined
            continue
    alone = one_at_a_time(datasets, None)
    assert_same_outcomes(characterize.characterize_dataset(datasets), alone)
    # the warm path, lent the first point estimate's plan and shifts
    warm = next((est for est in alone if not isinstance(est, Exception)),
                None)
    warm_alone = [] if warm is None else one_at_a_time(datasets, warm)
    if warm is not None:
        assert_same_outcomes(
            characterize.characterize_dataset(datasets, warm=warm),
            warm_alone)
    assert all(isinstance(est, (InterferoError, characterize.Characterization))
               for est in alone + warm_alone)


def test_dataset_rejects_malformed_shapes():
    spectra = [photonic.gaussian_spectrum() for _ in range(3)]
    with pytest.raises(ShapeError):
        characterize.CharacterizationDataset(np.ones((3, 3)), {}, spectra)
    with pytest.raises(ShapeError):
        characterize.CharacterizationDataset(np.ones((3, 2, 4)), {}, spectra)
    with pytest.raises(ShapeError):
        characterize.CharacterizationDataset(np.ones((3, 3, 4)), {},
                                             spectra[:2])
    # (1,2,1,3) and (2,1,3,1) swap both photons' labels: one curve
    curve = (np.zeros(5), np.ones(5))
    with pytest.raises(ShapeError) as info:
        characterize.CharacterizationDataset(
            np.ones((3, 3, 4)), {(1, 2, 1, 3): curve, (2, 1, 3, 1): curve},
            spectra)
    assert info.value.details == {"keys": [[1, 2, 1, 3], [2, 1, 3, 1]]}
