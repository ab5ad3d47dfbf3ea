import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interfero import characterize, csd, harness, linalg, photonic
from interfero.errors import InvalidGamma, PortError, ShapeError


def random_params(m, seed):
    u = linalg.haar_random_unitary(m, seed=seed)
    return photonic.representative_from_unitary(u)


# ---------------------------------------------------------------------------
# representative parameterization
# ---------------------------------------------------------------------------
def test_representative_round_trip():
    for seed in range(5):
        u = linalg.haar_random_unitary(4, seed=seed)
        w = linalg.canonicalize_representative(u)
        params = photonic.representative_from_unitary(u)
        assert np.max(np.abs(params.assemble() - w)) < 1e-12


def test_representative_border_pinned():
    p = random_params(5, 7)
    assert np.allclose(p.alpha[0, :], 1)
    assert np.allclose(p.alpha[:, 0], 1)
    assert np.allclose(p.theta[0, :], 0)
    assert np.allclose(p.theta[:, 0], 0)
    assert p.lambda_[0] == 1


def test_balanced_splitter_theta22_is_pi():
    p = photonic.representative_from_unitary(csd.B2)
    assert abs(p.alpha[1, 1] - 1) < 1e-12
    assert abs(abs(p.theta[1, 1]) - np.pi) < 1e-12


# ---------------------------------------------------------------------------
# lossy dressing and single-photon probabilities
# ---------------------------------------------------------------------------
def test_lossless_dressing_is_representative():
    p = random_params(3, 1)
    loss = photonic.LossModel.lossless(3)
    assert np.max(np.abs(photonic.assemble_lossy_matrix(p, loss) - p.assemble())) == 0


def test_dark_detector_zero_row():
    p = random_params(3, 2)
    loss = photonic.LossModel([1, 0, 1], [1, 1, 1])
    lossy = photonic.assemble_lossy_matrix(p, loss)
    assert np.max(np.abs(lossy[1, :])) == 0


def test_single_photon_probability_formula():
    rng = np.random.default_rng(3)
    p = random_params(4, 3)
    loss = photonic.LossModel(rng.uniform(0.5, 1, 4), rng.uniform(0.5, 1, 4),
                              rng.uniform(-np.pi, np.pi, 4),
                              rng.uniform(-np.pi, np.pi, 4))
    probs = photonic.single_photon_matrix(
        photonic.assemble_lossy_matrix(p, loss))
    for i in range(1, 5):
        for j in range(1, 5):
            expected = (loss.kappa[i - 1] * p.lambda_[i - 1]
                        * p.alpha[i - 1, j - 1] ** 2
                        * p.mu[j - 1] * loss.nu[j - 1])
            assert abs(probs[i - 1, j - 1] - expected) < 1e-12


def test_single_photon_identity_like():
    # diagonal-dominant representative is not reachable (zero border entries),
    # so check the balanced splitter instead: all four probabilities 1/2
    assert np.max(np.abs(photonic.single_photon_matrix(csd.B2) - 0.5)) \
        < 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------
def norm_squared(f):
    """Quadrature norm ∑ w·|f|² of a spectral function."""
    return float(np.sum(f.weights * f.values ** 2))


def test_spectrum_normalization():
    f = photonic.gaussian_spectrum()
    assert abs(norm_squared(f) - 1.0) < 1e-12


def test_spectrum_warns_on_bad_norm():
    omega = np.linspace(0, 10, 50)
    with pytest.warns(UserWarning):
        photonic.SpectralFunction(omega, 5.0 * np.exp(-((omega - 5) ** 2)))


def test_double_peak_spectrum_is_normalized_and_asymmetric():
    f = photonic.double_peak_spectrum()
    assert abs(norm_squared(f) - 1.0) < 1e-12
    mid = 0.5 * (f.omega[0] + f.omega[-1])
    left = f.values[f.omega < mid]
    right = f.values[f.omega > mid][::-1]
    assert np.max(np.abs(left - right)) > 0.05  # genuinely non-symmetric


# ---------------------------------------------------------------------------
# reference: explicit 2-D quadrature of the coincidence rate
# ---------------------------------------------------------------------------
def _union_grid(f1, f2):
    """Both spectra on the union of their grids, zero outside each grid."""
    grid = np.union1d(f1.omega, f2.omega)
    return (grid,
            np.interp(grid, f1.omega, f1.values, left=0.0, right=0.0),
            np.interp(grid, f2.omega, f2.values, left=0.0, right=0.0))


def _trapezoid(grid):
    d = np.diff(grid)
    return np.concatenate([[0.0], d / 2]) + np.concatenate([d / 2, [0.0]])


def coincidence_probability(params, loss, gamma, f_j, f_j2, ports, tau):
    """Two-photon coincidence rate at one delay by the explicit double sum
    over the spectral grid: the oracle of coincidence_curve_model.

    ports = (i, i', j, j') with i≠i', j≠j' (1-based).
    """
    al, th = params.alpha, params.theta
    lam, mu = params.lambda_, params.mu
    ii, ii2, jj, jj2 = (p - 1 for p in ports)
    pref = (loss.kappa[ii] * loss.kappa[ii2] * lam[ii] * lam[ii2]
            * mu[jj] * mu[jj2] * loss.nu[jj] * loss.nu[jj2])

    grid, v1, v2 = _union_grid(f_j, f_j2)
    w = _trapezoid(grid)
    # non-interference double integral: ∫|f_j(ω1)|² ∫|f_j'(ω2)|²
    i_nonint = np.sum(w * v1 ** 2) * np.sum(w * v2 ** 2)
    # interference integral with the phase combination of the four paths
    phase0 = th[ii, jj] - th[ii, jj2] - th[ii2, jj] + th[ii2, jj2]
    om1 = grid[:, None]
    om2 = grid[None, :]
    integrand = (np.outer(w * v1 * v2, w * v1 * v2)
                 * np.cos((om2 - om1) * tau + phase0))
    i_int = float(np.sum(integrand))

    bracket = ((al[ii, jj] ** 2 * al[ii2, jj2] ** 2
                + al[ii, jj2] ** 2 * al[ii2, jj] ** 2) * i_nonint
               + 2.0 * gamma * al[ii, jj] * al[ii, jj2]
               * al[ii2, jj] * al[ii2, jj2] * i_int)
    return float(pref * bracket)


def curve_over_grid(params, loss, gamma, f_j, f_j2, ports, tau_grid):
    """Reference coincidence curve on a τ grid, point by point."""
    return np.array([
        coincidence_probability(params, loss, gamma, f_j, f_j2, ports, t)
        for t in tau_grid])


# ---------------------------------------------------------------------------
# coincidence
# ---------------------------------------------------------------------------
def hom_setup():
    p = photonic.representative_from_unitary(csd.B2)
    loss = photonic.LossModel.lossless(2)
    f = photonic.gaussian_spectrum()
    return p, loss, f


def test_hom_dip_zero_at_tau0():
    p, loss, f = hom_setup()
    c0 = coincidence_probability(p, loss, 1.0, f, f, (1, 2, 1, 2), 0.0)
    assert abs(c0) < 1e-10


def test_hom_visibility_equals_gamma():
    p, loss, f = hom_setup()
    for gamma in (0.3, 0.7, 1.0):
        c0 = coincidence_probability(p, loss, gamma, f, f, (1, 2, 1, 2), 0.0)
        cinf = coincidence_probability(p, loss, gamma, f, f, (1, 2, 1, 2), 60.0)
        vis = (cinf - c0) / cinf
        assert abs(vis - gamma) < 1e-6


def test_gamma_zero_flat_curve():
    p, loss, f = hom_setup()
    taus = np.linspace(-3, 3, 11)
    curve = curve_over_grid(p, loss, 0.0, f, f, (1, 2, 1, 2), taus)
    assert np.max(curve) - np.min(curve) < 1e-14


def test_invalid_gamma_rejected():
    p, loss, f = hom_setup()
    for gamma in (1.5, -0.5, np.nan):
        with pytest.raises(InvalidGamma):
            photonic.coincidence_curve_model(p, loss, gamma, [f, f],
                                             [(1, 2, 1, 2)], [0.0])


def test_coincidence_same_port_rejected():
    p, loss, f = hom_setup()
    for ports in [(1, 1, 1, 2), (1, 2, 2, 2), (1, 3, 1, 2), (0, 2, 1, 2)]:
        with pytest.raises(PortError):
            photonic.coincidence_curve_model(p, loss, 1.0, [f, f], [ports],
                                             [0.0])
        # every key is checked, not only the first
        with pytest.raises(PortError):
            photonic.coincidence_curve_model(p, loss, 1.0, [f, f],
                                             [(1, 2, 1, 2), ports], [0.0])


def test_fast_model_matches_reference():
    p = random_params(4, 11)
    loss = photonic.LossModel([0.9, 0.8, 1.0, 0.7], [1, 0.95, 0.85, 0.9])
    f1 = photonic.gaussian_spectrum(width=1.1)
    f2 = photonic.double_peak_spectrum()
    spectra = [f1, f2, f1, f2]
    taus = np.linspace(-4, 4, 21)
    # input pairs (1, 2), (1, 3) and (2, 4): three distinct envelopes, each
    # on its own grid, and the first shared by two keys
    keys = [(1, 2, 1, 2), (2, 3, 1, 3), (1, 4, 2, 4), (2, 3, 1, 2)]
    rates = photonic.coincidence_curve_model(p, loss, 0.8, spectra, keys, taus)
    assert rates.shape == (len(keys), len(taus))
    for ports, rate in zip(keys, rates):
        ref = curve_over_grid(p, loss, 0.8, spectra[ports[2] - 1],
                              spectra[ports[3] - 1], ports, taus)
        assert np.max(np.abs(rate - ref)) < 1e-12 * max(1, ref.max())


def test_curve_nonnegative_random_configs():
    rng = np.random.default_rng(99)
    f = photonic.gaussian_spectrum()
    taus = np.linspace(-5, 5, 9)
    for trial in range(50):
        m = int(rng.integers(2, 5))
        p = photonic.representative_from_unitary(
            linalg.haar_random_unitary(m, rng=rng))
        loss = photonic.LossModel(rng.uniform(0.2, 1, m), rng.uniform(0.2, 1, m))
        gamma = float(rng.uniform(0, 1))
        ports_pool = [(i, i2, j, j2)
                      for i in range(1, m + 1) for i2 in range(1, m + 1)
                      for j in range(1, m + 1) for j2 in range(1, m + 1)
                      if i != i2 and j != j2]
        ports = ports_pool[int(rng.integers(len(ports_pool)))]
        curve = curve_over_grid(p, loss, gamma, f, f, ports, taus)
        assert np.all(curve >= -1e-12)


def test_curve_symmetric_for_identical_spectra():
    p = random_params(3, 21)
    loss = photonic.LossModel.lossless(3)
    f = photonic.gaussian_spectrum()
    taus = np.linspace(-3, 3, 13)
    curve = curve_over_grid(p, loss, 0.9, f, f, (1, 2, 1, 2), taus)
    assert np.max(np.abs(curve - curve[::-1])) < 1e-10


def test_theta_sign_blindness():
    u = linalg.haar_random_unitary(4, seed=31)
    p = photonic.representative_from_unitary(u)
    p_conj = photonic.representative_from_unitary(u.conj())
    assert np.max(np.abs(p_conj.theta + p.theta)) % (2 * np.pi) < 1e-9
    loss = photonic.LossModel.lossless(4)
    f = photonic.gaussian_spectrum()
    taus = np.linspace(-2, 2, 7)
    for ports in [(1, 2, 1, 2), (2, 3, 2, 4)]:
        c1 = curve_over_grid(p, loss, 0.9, f, f, ports, taus)
        c2 = curve_over_grid(p_conj, loss, 0.9, f, f, ports, taus)
        assert np.max(np.abs(c1 - c2)) < 1e-10


def test_dimensional_invariance():
    p = random_params(3, 41)
    loss = photonic.LossModel.lossless(3)
    s = 2.5
    f1 = photonic.gaussian_spectrum(center=6, width=1)
    f2 = photonic.SpectralFunction(f1.omega * s, f1.values / np.sqrt(s))
    c1 = coincidence_probability(p, loss, 0.8, f1, f1, (1, 2, 1, 2), 1.3)
    c2 = coincidence_probability(p, loss, 0.8, f2, f2, (1, 2, 1, 2), 1.3 / s)
    assert abs(c1 - c2) < 1e-10


def test_canonical_curve_key():
    assert photonic.canonical_curve_key((2, 1, 3, 1)) == (1, 2, 1, 3)
    assert photonic.canonical_curve_key((1, 2, 1, 3)) == (1, 2, 1, 3)


# ---------------------------------------------------------------------------
# overlap envelopes
# ---------------------------------------------------------------------------
def uncached_cross_envelope(f_j, f_j2):
    """(grid, g, i0) of cross_envelope computed afresh on every call."""
    if np.array_equal(f_j.omega, f_j2.omega):
        grid, v1, v2 = f_j.omega, f_j.values, f_j2.values
    else:
        grid = np.union1d(f_j.omega, f_j2.omega)
        v1 = np.interp(grid, f_j.omega, f_j.values, left=0.0, right=0.0)
        v2 = np.interp(grid, f_j2.omega, f_j2.values, left=0.0, right=0.0)
    w = photonic.trapezoid_weights(grid)
    i0 = float(np.sum(w * v1 ** 2)) * float(np.sum(w * v2 ** 2))
    return grid, w * v1 * v2, i0


def spectrum_on(omega, center, width):
    f = np.exp(-((omega - center) ** 2) / (4.0 * width ** 2))
    f /= np.sqrt(np.sum(photonic.trapezoid_weights(omega) * f ** 2))
    return photonic.SpectralFunction(omega, f)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(same_grid=st.booleans(),
       n1=st.integers(5, 90), n2=st.integers(5, 90),
       lo=st.floats(0.0, 3.0), hi=st.floats(7.0, 12.0),
       c1=st.floats(4.0, 8.0), c2=st.floats(4.0, 8.0),
       w1=st.floats(0.4, 2.0), w2=st.floats(0.4, 2.0))
def test_cached_cross_envelope_equals_uncached(same_grid, n1, n2, lo, hi,
                                               c1, c2, w1, w2):
    omega1 = np.linspace(2.0, 10.0, n1)
    omega2 = omega1 if same_grid else np.linspace(lo, hi, n2)
    f1 = spectrum_on(omega1, c1, w1)
    f2 = spectrum_on(omega2, c2, w2)
    for a, b in ((f1, f2), (f2, f1)):
        q = photonic.cross_envelope(a, b)
        grid, g, i0 = uncached_cross_envelope(a, b)
        assert np.array_equal(q.grid, grid)
        assert np.array_equal(q.g, g)
        assert q.i0 == i0
        assert photonic.cross_envelope(a, b) is q


def test_cached_envelope_is_read_only():
    f1 = photonic.gaussian_spectrum()
    f2 = photonic.double_peak_spectrum()
    for q in (photonic.cross_envelope(f1, f1),
              photonic.cross_envelope(f1, f2)):
        with pytest.raises(ValueError):
            q.g[0] = 1.0
        with pytest.raises(ValueError):
            q.grid[0] = 1.0
    # the cache freezes its own arrays, never the caller's spectrum
    assert f1.omega.flags.writeable and f1.values.flags.writeable


def test_scalar_shift_is_the_one_row_path():
    q = photonic.cross_envelope(photonic.gaussian_spectrum(width=1.1),
                                photonic.double_peak_spectrum())
    tau = np.linspace(-4.0, 4.0, 17)
    for shift in (0.0, 0.37, -1.2):
        row = np.array([shift])
        assert np.array_equal(q.shifted(tau, shift), q.shifted(tau, row)[0])
        value, slope = q.shifted(tau, shift, derivative=True)
        values, slopes = q.shifted(tau, row, derivative=True)
        assert np.array_equal(value, values[0])
        assert np.array_equal(slope, slopes[0])


def test_simulation_and_bootstrap_share_envelopes(monkeypatch):
    spectra = [photonic.double_peak_spectrum() for _ in range(3)]
    ds = harness.simulate_dataset(linalg.haar_random_unitary(3, seed=4), 0.9,
                                  seed=2, spectra=spectra)
    stacks = []
    stack = characterize.characterize_dataset

    def record(datasets, *args, **kwargs):
        stacks.append(list(datasets))
        return stack(datasets, *args, **kwargs)

    monkeypatch.setattr(characterize, "characterize_dataset", record)
    monkeypatch.setattr(characterize, "MAX_REPLICATE_FAILURE_RATE", 1.0)
    characterize.bootstrap(ds, n_replicates=3, seed=1)
    replicates = stacks[-1]
    assert len(replicates) == 3
    q = photonic.cross_envelope(spectra[0], spectra[1])
    assert ds.envelope(1, 2) is q and ds.envelope(2, 1) is q
    for rep in replicates:
        assert rep.envelope(1, 2) is q
        assert set(vars(rep)) == set(vars(ds))
        assert not any(name.startswith("_") for name in vars(rep))


@pytest.mark.parametrize("omega,values", [
    ([0.0, 1.0, 2.0], [0.1, 0.2]),
    ([[0.0, 1.0]], [[0.1, 0.2]]),
    ([0.0, 2.0, 1.0], [0.1, 0.2, 0.1]),
    ([0.0, 1.0, 2.0], [0.1, -0.2, 0.1]),
    ([0.0, 1.0, 2.0], [0.1, np.nan, 0.1]),
    ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    ([1.0], [0.5]),
    ([0.0, 1.0, 2.0], [0.1, np.inf, 0.1]),
], ids=["length-mismatch", "two-d", "not-increasing", "negative", "nan",
        "all-zero", "one-point", "infinite"])
def test_spectral_function_rejects_malformed_input(omega, values):
    with pytest.raises(ShapeError):
        photonic.SpectralFunction(omega, values)


def test_representative_params_reject_malformed_input():
    rep = photonic.representative_from_unitary(
        linalg.haar_random_unitary(3, seed=2))
    good = (rep.alpha, rep.theta, rep.lambda_, rep.mu)
    bad = [
        (rep.alpha[:, :2], *good[1:]),
        (rep.alpha, rep.theta[:2], *good[2:]),
        (rep.alpha * 2, *good[1:]),
        (rep.alpha, rep.theta + 0.1, *good[2:]),
        (*good[:2], rep.lambda_ * 2, rep.mu),
    ]
    for args in bad:
        with pytest.raises(ShapeError):
            photonic.RepresentativeParams(*args)


@pytest.mark.parametrize("kappa,nu", [([1.0, 1.5], [1.0, 1.0]),
                                      ([1.0, 1.0], [-0.1, 1.0]),
                                      ([np.nan, 1.0], [1.0, 1.0])],
                         ids=["kappa-above-1", "nu-negative", "kappa-nan"])
def test_loss_model_rejects_efficiencies_outside_unit_interval(kappa, nu):
    with pytest.raises(ShapeError):
        photonic.LossModel(kappa, nu)
