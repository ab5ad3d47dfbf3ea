import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interfero import curvefit, photonic
from interfero.errors import (FitFailure, InsufficientData, InterferoError,
                              ShapeError)


def make_model():
    """One curve C(τ) = scale·(1.5 + cos s·Q(τ−shift))."""
    f = photonic.gaussian_spectrum()
    q = photonic.cross_envelope(f, f)
    return curvefit.CurveModel(q, base=1.5, amp=1.0, f=np.cos,
                               df=lambda s: -np.sin(s), inverse=np.arccos,
                               f_range=(-1.0, 1.0))


def fit_one(model, tau, counts, **kwargs):
    """Fit one curve through the stacked interface: its FitResult, or its
    FitFailure raised."""
    batch = curvefit.fit_curve(model, tau, np.asarray(counts)[None], [0],
                               **kwargs)
    assert len(batch.results) == 1
    if isinstance(batch.results[0], FitFailure):
        raise batch.results[0]
    return batch.results[0]


def test_fit_weights_zero_counts():
    w = curvefit.fit_weights([0.0, 2.0, 4.0])
    assert np.allclose(w, [1.0, 0.5, 0.25])


def test_fold_angle():
    assert abs(curvefit.fold_angle(-0.3) - 0.3) < 1e-15
    assert abs(curvefit.fold_angle(2 * np.pi - 0.3) - 0.3) < 1e-15
    assert abs(curvefit.fold_angle(np.pi + 0.2) - (np.pi - 0.2)) < 1e-15


@pytest.mark.parametrize("truth", [0.4, 1.1, 2.0, 2.8])
def test_exact_recovery(truth):
    model = make_model()
    tau = np.linspace(-5, 5, 41)
    scale, shift = 3000.0, 0.35
    counts = model.curve(tau, truth, scale, shift)
    fit = fit_one(model, tau, counts)
    assert fit.objective < 1e-10 * scale
    assert abs(np.cos(curvefit.fold_angle(fit.shape)) - np.cos(truth)) < 1e-6
    assert abs(fit.scale - scale) < 1e-4 * scale
    assert abs(fit.shift - shift) < 1e-6


def test_flat_data_raises():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    with pytest.raises(FitFailure):
        fit_one(model, tau, np.full(21, 250.0))


def test_too_few_points_raise_insufficient_data():
    model = make_model()
    tau = np.linspace(-5, 5, 4)
    with pytest.raises(InsufficientData):
        fit_one(model, tau, model.curve(tau, 1.0, 100.0, 0.0))


def test_non_finite_counts_raise_shape_error():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    counts = model.curve(tau, 1.0, 100.0, 0.0)
    for bad in (np.nan, np.inf):
        counts[3] = bad
        with pytest.raises(ShapeError):
            fit_one(model, tau, counts)


def test_counts_not_stacked_per_delay_raise_shape_error():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    counts = model.curve(tau, 1.0, 100.0, 0.0)
    for bad in (counts, counts[None, :-1], counts[None, None]):
        with pytest.raises(ShapeError):
            curvefit.fit_curve(model, tau, bad, [0])


def test_noisy_recovery_monte_carlo():
    model = make_model()
    rng = np.random.default_rng(17)
    tau = np.linspace(-5, 5, 41)
    truth, scale, shift = 2.2, 20000.0, -0.4
    errs = []
    for _ in range(20):
        counts = rng.poisson(model.curve(tau, truth, scale, shift)).astype(float)
        fit = fit_one(model, tau, counts)
        errs.append(abs(np.cos(curvefit.fold_angle(fit.shape)) - np.cos(truth)))
    assert np.mean(errs) < 0.02
    assert np.max(errs) < 0.08


def test_degenerate_flag_when_interference_buried():
    model = make_model()
    rng = np.random.default_rng(5)
    tau = np.linspace(-5, 5, 41)
    # shape ~ pi/2: amp ~ 0, curve variation far below shot noise
    counts = rng.poisson(model.curve(tau, np.pi / 2 + 1e-4, 5000.0, 0.0))
    fit = fit_one(model, tau, counts.astype(float))
    assert fit.degenerate


def test_monotone_objective_and_start_diagnostics():
    model = make_model()
    tau = np.linspace(-5, 5, 41)
    rng = np.random.default_rng(4)
    counts = rng.poisson(model.curve(tau, 0.9, 1500.0, 0.1)).astype(float)
    batch = curvefit.fit_curve(model, tau, counts[None], [0])
    (record,) = batch.starts
    assert record == {"converged": True}
    fit = batch.results[0]
    # the projected objective rises on both sides of the fitted shift
    w = curvefit.fit_weights(counts)
    at = projected_objective(counts, w, 1.5, 1.0,
                             model.q.shifted(tau - fit.shift, 0.0))
    assert abs(at - fit.objective) <= 1e-9 * fit.objective
    for delta in (-1e-4, 1e-4):
        q = model.q.shifted(tau - fit.shift - delta, 0.0)
        assert projected_objective(counts, w, 1.5, 1.0, q) > fit.objective


def mixed_stack():
    """Five curves: exact, noisy, flat, a model with no interference term
    (amp = 0) and a second noisy curve."""
    from interfero.characterize import cosine_curve_model
    f = photonic.gaussian_spectrum()
    q = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    rng = np.random.default_rng(21)
    base = np.array([2.0, 1.5, 1.0, 1.2, 1.8])
    amp = np.array([1.0, 0.9, 0.8, 0.0, 1.5])
    truth = np.array([0.7, 2.2, 1.0, 1.0, 1.4])
    counts = np.array([3000 * (b + a * np.cos(t) * q.shifted(tau - 0.2, 0.0))
                       for b, a, t in zip(base, amp, truth)])
    counts[1] = rng.poisson(counts[1])
    counts[4] = rng.poisson(counts[4])
    counts[2] = 2500.0
    counts[3] = rng.poisson(3000 * (1.2 + 0.5 * q.shifted(tau, 0.0)))
    stacked = cosine_curve_model(photonic.Envelope.stack([q] * 5), base, amp)
    singles = [cosine_curve_model(q, b, a) for b, a in zip(base, amp)]
    return tau, counts, stacked, singles


@pytest.mark.parametrize("warm", [False, True])
def test_batched_fit_matches_row_by_row(warm):
    tau, counts, stacked, singles = mixed_stack()
    # warm: each curve scans a window around a given shift, as bootstrap
    # replicates do around the point estimate's
    near = np.array([0.1, 0.3, 0.2, 0.0, -0.2]) if warm else None
    batch = curvefit.fit_curve(stacked, tau, counts, np.arange(5), near=near)
    # the flat curve and the curve without an interference term fail
    assert [isinstance(r, FitFailure) for r in batch.results] == [
        False, False, True, True, False]
    for c, (model, res) in enumerate(zip(singles, batch.results)):
        kwargs = {} if near is None else {"near": near[c:c + 1]}
        try:
            one = fit_one(model, tau, counts[c], **kwargs)
        except FitFailure as exc:
            assert isinstance(res, FitFailure) and str(res) == str(exc)
            continue
        assert ((one.shape, one.scale, one.shift, one.objective,
                 one.degenerate) == (res.shape, res.scale, res.shift,
                                     res.objective, res.degenerate))
        assert np.array_equal(one.residuals, res.residuals)


def test_records_mark_fitted_curves_converged():
    tau, counts, stacked, _ = mixed_stack()
    batch = curvefit.fit_curve(stacked, tau, counts, np.arange(5))
    for record, res in zip(batch.starts, batch.results):
        assert record["converged"] == (not isinstance(res, FitFailure))


def cos_model(q, base, amp):
    return curvefit.CurveModel(q, base, amp, np.cos, lambda s: -np.sin(s),
                               np.arccos, (-1.0, 1.0))


def test_groups_share_one_shift_and_fit_as_alone():
    f = photonic.double_peak_spectrum()
    q = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    groups = np.array([0, 1, 0, 1, 1])
    true_shift = np.array([0.45, -0.8])[groups]
    base = np.array([2.0, 1.5, 1.2, 1.8, 1.0])
    amp = np.array([1.0, 0.9, 1.1, 1.5, 0.4])
    shapes = np.array([0.7, 2.2, 1.3, 0.2, 3.0])
    counts = np.array([800 * (b + a * np.cos(s) * q.shifted(tau - d, 0.0))
                       for b, a, s, d in zip(base, amp, shapes, true_shift)])
    stacked = cos_model(photonic.Envelope.stack([q] * 5), base, amp)
    batch = curvefit.fit_curve(stacked, tau, counts, groups=groups)
    for c, res in enumerate(batch.results):
        assert abs(res.shift - true_shift[c]) < 1e-7
        assert abs(res.shape - shapes[c]) < 1e-6
    for g in (0, 1):
        rows = np.flatnonzero(groups == g)
        alone = curvefit.fit_curve(
            cos_model(photonic.Envelope.stack([q] * len(rows)), base[rows],
                      amp[rows]),
            tau, counts[rows], groups=np.zeros(len(rows))).results
        assert len({batch.results[c].shift for c in rows}) == 1
        for c, one in zip(rows, alone):
            res = batch.results[c]
            assert (one.shape, one.scale, one.shift, one.objective) == (
                res.shape, res.scale, res.shift, res.objective)
    # the curves of a shift group share one envelope
    other = photonic.Envelope(q.grid, 0.5 * q.g, q.i0)
    mixed = cos_model(photonic.Envelope.stack([q, other, q, q, q]), base, amp)
    with pytest.raises(ShapeError):
        curvefit.fit_curve(mixed, tau, counts, groups=groups)


def envelope_oracle(q, tau, shifts):
    """Q(τ − shift) (S, T) by the direct sum |Σ g e^{iω(τ−shift)}|²/I0."""
    amplitude = ((q.g * np.exp(-1j * np.outer(shifts, q.grid)))
                 @ np.exp(1j * np.outer(q.grid, tau)))
    return np.abs(amplitude) ** 2 / q.i0


def projected_objective(counts, w, base, amp, q):
    """Oracle: min over scale and cos s ∈ [−1, 1] of the weighted objective
    of one cos-family curve at each row of q (S, T): the unconstrained
    least-squares solution (by SVD) where its cos s is in range, and the
    best scale on either bound cos s = ±1."""
    q = np.atleast_2d(q)
    sw = np.sqrt(w)
    design = np.stack([np.broadcast_to(sw, q.shape), sw * q], axis=2)
    coef = np.linalg.pinv(design) @ (sw * counts)
    r = counts - coef[:, :1] - coef[:, 1:] * q
    free = np.sum(w * r * r, axis=1)
    free[np.abs(coef[:, 1] * base) > np.abs(coef[:, 0] * amp)] = np.inf
    best = [free]
    for bound in (-1.0, 1.0):
        u = base + amp * bound * q
        scale = np.sum(w * u * counts, axis=1) / np.sum(w * u * u, axis=1)
        r = counts - scale[:, None] * u
        best.append(np.sum(w * r * r, axis=1))
    out = np.min(best, axis=0)
    return out if len(out) > 1 else float(out[0])


def test_dense_shift_grid_never_beats_the_fit():
    envelopes = [photonic.cross_envelope(f, f) for f in (
        photonic.gaussian_spectrum(), photonic.double_peak_spectrum())]
    tau = np.linspace(-5, 5, 33)
    grid = np.linspace(-5, 5, 2001)
    rng = np.random.default_rng(12)
    for case in range(12):
        q = envelopes[case % 2]
        n = 1 + case % 4
        base = rng.uniform(1.0, 2.0, n)
        amp = base * rng.uniform(0.1, 1.0, n)
        # cos s near ±1 (clamped), near 0 (buried) and anywhere between
        shapes = rng.choice([0.02, np.pi / 2, np.pi - 0.02,
                             rng.uniform(0, np.pi)], n)
        scale = rng.uniform(300, 3e4, n)
        mean = scale[:, None] * (base[:, None] + (amp * np.cos(shapes))[:, None]
                                 * q.shifted(tau - rng.uniform(-2, 2), 0.0))
        counts = rng.poisson(mean).astype(float)
        model = cos_model(photonic.Envelope.stack([q] * n), base, amp)
        fits = curvefit.fit_curve(model, tau, counts,
                                  groups=np.zeros(n)).results
        fitted = sum(fit.objective for fit in fits)
        w = curvefit.fit_weights(counts)
        at_fit = sum(projected_objective(counts[c], w[c], base[c], amp[c],
                                         envelope_oracle(q, tau, np.array(
                                             [fits[c].shift])))
                     for c in range(n))
        assert abs(at_fit - fitted) <= 1e-9 * fitted
        dense = sum(projected_objective(counts[c], w[c], base[c], amp[c],
                                        envelope_oracle(q, tau, grid))
                    for c in range(n))
        assert dense.min() >= fitted * (1 - 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(anchor=st.sampled_from([0.0, np.pi / 2, np.pi]),
       offset=st.floats(0.0, 1e-3),
       visibility=st.sampled_from([1.0, 0.6]),
       scale=st.floats(10.0, 1e5),
       shift=st.floats(-1.0, 1.0),
       companion=st.sampled_from([0.0, 1.0, 250.0]))
def test_degenerate_shapes_recover_or_fail_typed(anchor, offset, visibility,
                                                 scale, shift, companion):
    # noiseless curves at the clamped edges cos s = ±1 (visibility 1 dips
    # to zero counts) and at the buried cos s = 0, stacked with a flat
    # curve of constant, possibly zero, counts
    s = anchor - offset if anchor == np.pi else anchor + offset
    f = photonic.gaussian_spectrum()
    q = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    counts = np.array([scale * (1.0 + visibility * np.cos(s)
                                * q.shifted(tau - shift, 0.0)),
                       np.full(len(tau), companion)])
    model = cos_model(photonic.Envelope.stack([q, q]), [1.0, 1.0],
                      [visibility, visibility])
    try:
        curve, flat = curvefit.fit_curve(model, tau, counts, [0, 1]).results
    except InterferoError:
        return
    assert isinstance(flat, FitFailure)
    if isinstance(curve, FitFailure):
        return
    assert abs(curve.shape - s) < 1e-5
