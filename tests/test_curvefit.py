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


def model_curve(model, tau, shape, scale, shift):
    """Noiseless data: C(τ) of a one-curve model."""
    qv = model.q.shifted(np.asarray(tau, dtype=float), shift)
    return scale * (model.base[0] + model.amp[0] * model.f(shape) * qv)


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
    counts = model_curve(model, tau, truth, scale, shift)
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
        fit_one(model, tau, model_curve(model, tau, 1.0, 100.0, 0.0))


def test_non_finite_counts_raise_shape_error():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    counts = model_curve(model, tau, 1.0, 100.0, 0.0)
    for bad in (np.nan, np.inf):
        counts[3] = bad
        with pytest.raises(ShapeError):
            fit_one(model, tau, counts)


def test_counts_not_stacked_per_delay_raise_shape_error():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    counts = model_curve(model, tau, 1.0, 100.0, 0.0)
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
        counts = rng.poisson(model_curve(model, tau, truth, scale, shift))
        counts = counts.astype(float)
        fit = fit_one(model, tau, counts)
        errs.append(abs(np.cos(curvefit.fold_angle(fit.shape)) - np.cos(truth)))
    assert np.mean(errs) < 0.02
    assert np.max(errs) < 0.08


def test_degenerate_flag_when_interference_buried():
    model = make_model()
    rng = np.random.default_rng(5)
    tau = np.linspace(-5, 5, 41)
    # shape ~ pi/2: amp ~ 0, curve variation far below shot noise
    counts = rng.poisson(model_curve(model, tau, np.pi / 2 + 1e-4, 5000.0,
                                     0.0))
    fit = fit_one(model, tau, counts.astype(float))
    assert fit.degenerate


def test_monotone_objective_and_start_diagnostics():
    model = make_model()
    tau = np.linspace(-5, 5, 41)
    rng = np.random.default_rng(4)
    counts = rng.poisson(model_curve(model, tau, 0.9, 1500.0, 0.1))
    counts = counts.astype(float)
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


@pytest.mark.parametrize("shape", [1.0, np.pi / 2 - 0.05])
@pytest.mark.parametrize("true_shift", [6.0, -6.5])
def test_objective_falling_to_the_range_edge_keeps_a_lattice_point(
        true_shift, shape):
    # the dip lies outside the τ range, so φ falls all the way to an end of
    # it and φ′ has one sign at both lattice neighbours of the best scan
    # point: no refinement, the group keeps the best of those three points
    q = photonic.cross_envelope(photonic.gaussian_spectrum(),
                                photonic.gaussian_spectrum())
    tau = np.linspace(-5, 5, 33)
    step = 10 / 64                     # two scan points per τ step
    lattice = -5 + step * np.arange(65)
    counts = 1e3 * (1.5 + np.cos(shape) * q.shifted(tau - true_shift, 0.0))
    fit = fit_one(cos_model(q, 1.5, 1.0), tau, counts)
    edge = np.sign(true_shift) * 5.0
    assert min(abs(fit.shift - edge - k * step) for k in (-1, 0, 1)) < 1e-12
    w = curvefit.fit_weights(counts)
    scan = projected_objective(counts, w, 1.5, 1.0,
                               envelope_oracle(q, tau, lattice))
    assert np.argmin(scan) == (64 if true_shift > 0 else 0)
    at = projected_objective(counts, w, 1.5, 1.0, envelope_oracle(
        q, tau, fit.shift + np.array([-1e-5, 0.0, 1e-5])))
    assert abs(at[1] - fit.objective) <= 1e-9 * fit.objective
    assert fit.objective <= scan.min()
    # still falling outward where the search stopped
    assert (at[2] < at[1] < at[0]) if true_shift > 0 else (
        at[0] < at[1] < at[2])


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


def test_slope_matches_finite_difference_of_oracle():
    # φ′ of the evaluator against a central difference of the oracle's
    # projected objective, on free and clamped (cos s near ±1) fits
    envelopes = [photonic.cross_envelope(f, f) for f in (
        photonic.gaussian_spectrum(), photonic.double_peak_spectrum())]
    tau = np.linspace(-5, 5, 33)
    rng = np.random.default_rng(8)
    h = 1e-5
    clamped = free = 0
    for case in range(16):
        q = envelopes[case % 2]
        n = 1 + case % 4
        base = rng.uniform(1.0, 2.0, n)
        amp = base * rng.uniform(0.3, 1.0, n)
        shapes = rng.choice([0.02, np.pi - 0.02, rng.uniform(0, np.pi)], n)
        true_shift = rng.uniform(-2, 2)
        mean = rng.uniform(300, 3e4, n)[:, None] * (
            base[:, None] + (amp * np.cos(shapes))[:, None]
            * q.shifted(tau - true_shift, 0.0))
        counts = rng.poisson(mean).astype(float)
        model = cos_model(photonic.Envelope.stack([q] * n), base, amp)
        w = curvefit.fit_weights(counts)
        shifts = np.concatenate([true_shift + rng.normal(0, 0.05, 3),
                                 rng.uniform(-3, 3, 3)])
        one_group = (np.arange(n), np.array([0]), np.array([n]))
        phi, slope = curvefit._evaluate(
            model, tau, counts, w, one_group,
            np.zeros(len(shifts), dtype=int), shifts, slope=True)

        def oracle(s):
            return sum(projected_objective(counts[c], w[c], base[c], amp[c],
                                           envelope_oracle(q, tau, s))
                       for c in range(n))
        assert np.allclose(phi, oracle(shifts), rtol=1e-9, atol=0)
        central = (oracle(shifts + h) - oracle(shifts - h)) / (2 * h)
        assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(central))
        for s in shifts:
            f = curvefit._project(model, counts, w, np.arange(n),
                                  model.q.shifted(tau, np.full(n, s)))[0]
            clamped += np.sum(np.abs(f) == 1.0)
            free += np.sum(np.abs(f) < 1.0)
    assert clamped >= 20 and free >= 20


def test_stacked_bookkeeping_edge_cases_fit_as_alone():
    # groups of unequal size; a group mixing NaN and finite ``near``; near
    # windows that touch the τ range at one lattice point, are cut by it or
    # miss it (and scan the whole lattice); and a group whose envelope is
    # zero, so every scan point ties and the first one wins
    q = photonic.cross_envelope(photonic.double_peak_spectrum(),
                                photonic.double_peak_spectrum())
    zero = photonic.Envelope(q.grid, 0.0 * q.g, q.i0)
    tau = np.linspace(-4, 4, 33)      # lattice step 1/8, window reach 3/4
    groups = np.array([0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 5, 5, 6, 6])
    group_shift = np.array([0.45, 0.3, -0.8, 1.5, 1.2, 3.95, 0.0])
    near = np.array([np.nan, 0.3, 0.35, 0.2, np.nan, -0.8, -4.75, -4.75,
                     -4.75, -4.75, 9.0, 3.9, 4.1, 0.5, 0.5])
    rng = np.random.default_rng(19)
    n = len(groups)
    base = rng.uniform(1.0, 2.0, n)
    amp = base * rng.uniform(0.3, 1.0, n)
    shapes = rng.uniform(0.2, 2.9, n)
    counts = rng.poisson(rng.uniform(500, 5e3, n)[:, None] * (
        base[:, None] + (amp * np.cos(shapes))[:, None]
        * np.array([q.shifted(tau - group_shift[g], 0.0) for g in groups])
    )).astype(float)
    rows = [zero if g == 6 else q for g in groups]
    stacked = curvefit.fit_curve(
        cos_model(photonic.Envelope.stack(rows), base, amp), tau, counts,
        groups, near=near).results
    for g in range(7):
        members = np.flatnonzero(groups == g)
        alone = curvefit.fit_curve(
            cos_model(photonic.Envelope.stack([rows[c] for c in members]),
                      base[members], amp[members]),
            tau, counts[members], np.zeros(len(members)),
            near=near[members]).results
        for c, one in zip(members, alone):
            res = stacked[c]
            assert (one.shape, one.scale, one.shift, one.objective,
                    one.degenerate) == (res.shape, res.scale, res.shift,
                                        res.objective, res.degenerate)
            assert np.array_equal(one.residuals, res.residuals)
    shifts = np.array([stacked[groups.tolist().index(g)].shift
                       for g in range(7)])
    # the whole-lattice scans find the true shifts up to the noise; the
    # window that touches the τ range holds its first point alone, and the
    # search stays near it, far from the group's true shift 1.5
    assert np.all(np.abs(shifts[[0, 2, 4]] - group_shift[[0, 2, 4]]) < 0.1)
    assert abs(shifts[3] - tau[0]) < 0.25
    assert shifts[6] == 0.5 - 0.75    # the first point of its window


def test_evaluator_matches_a_loop_over_groups():
    # the evaluator's index arithmetic against a plain loop over each
    # point's group: 5 groups of unequal size, each on its own envelope,
    # with their curves listed out of order
    q = photonic.cross_envelope(photonic.gaussian_spectrum(),
                                photonic.gaussian_spectrum())
    tau = np.linspace(-5, 5, 33)
    rng = np.random.default_rng(23)
    sizes = np.array([3, 1, 4, 2, 1])
    order = rng.permutation(sizes.sum())
    first = np.cumsum(sizes) - sizes
    n = sizes.sum()
    base = rng.uniform(1.0, 2.0, n)
    amp = base * rng.uniform(0.3, 1.0, n)
    envelopes = np.array([q.shifted(tau - d, 0.0)
                          for d in rng.uniform(-1, 1, n)])
    counts = rng.poisson(1e3 * (base[:, None] + amp[:, None] * envelopes))
    counts = counts.astype(float)
    group = np.repeat(np.arange(5), sizes)[np.argsort(order)]
    model = cos_model(photonic.Envelope.stack(
        [photonic.Envelope(q.grid, q.g * np.exp(-0.1 * g * (q.grid - 6) ** 2),
                           q.i0) for g in group]), base, amp)
    w = curvefit.fit_weights(counts)
    owner = np.repeat(np.arange(5), [4, 2, 3, 1, 5])
    shifts = rng.uniform(-2, 2, len(owner))
    (phi,) = curvefit._evaluate(model, tau, counts, w, (order, first, sizes),
                                owner, shifts)
    loop = []
    for g, s in zip(owner, shifts):
        total = 0.0
        for c in order[first[g]:first[g] + sizes[g]]:
            env = model.q.shifted(tau, np.array([s]), rows=[c])
            total += curvefit._project(model, counts, w, [c], env)[4][0]
        loop.append(total)
    assert np.array_equal(phi, loop)
