import numpy as np
import pytest

from interfero import curvefit, photonic
from interfero.errors import FitFailure


def make_model():
    f = photonic.gaussian_spectrum()
    q, _ = photonic.cross_envelope(f, f)
    return curvefit.CurveModel(
        q,
        base=lambda s: np.cos(s) ** 2 + 1.5,
        amp=lambda s: np.cos(s),
        dbase=lambda s: -2 * np.cos(s) * np.sin(s),
        damp=lambda s: -np.sin(s),
    )


def test_fit_weights_zero_counts():
    w = curvefit.fit_weights([0.0, 2.0, 4.0])
    assert np.allclose(w, [1.0, 0.5, 0.25])


def test_guess_shift_picks_dip():
    model = make_model()
    tau = np.linspace(-4, 4, 81)
    counts = model.curve(tau, 2.5, 1.0, 0.7)  # cos<0: dip at tau=0.7
    assert abs(curvefit.guess_shift(tau, counts) - 0.7) < 0.15


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
    fit = curvefit.fit_curve(model, tau, counts)
    assert fit.objective < 1e-10 * scale
    assert abs(np.cos(curvefit.fold_angle(fit.shape)) - np.cos(truth)) < 1e-6
    assert abs(fit.scale - scale) < 1e-4 * scale
    assert abs(fit.shift - shift) < 1e-6


def test_flat_data_raises():
    model = make_model()
    tau = np.linspace(-5, 5, 21)
    with pytest.raises(FitFailure):
        curvefit.fit_curve(model, tau, np.full(21, 250.0))


def test_noisy_recovery_monte_carlo():
    model = make_model()
    rng = np.random.default_rng(17)
    tau = np.linspace(-5, 5, 41)
    truth, scale, shift = 2.2, 20000.0, -0.4
    errs = []
    for _ in range(20):
        counts = rng.poisson(model.curve(tau, truth, scale, shift)).astype(float)
        fit = curvefit.fit_curve(model, tau, counts)
        errs.append(abs(np.cos(curvefit.fold_angle(fit.shape)) - np.cos(truth)))
    assert np.mean(errs) < 0.02
    assert np.max(errs) < 0.08


def test_degenerate_flag_when_interference_buried():
    model = make_model()
    rng = np.random.default_rng(5)
    tau = np.linspace(-5, 5, 41)
    # shape ~ pi/2: amp ~ 0, curve variation far below shot noise
    counts = rng.poisson(model.curve(tau, np.pi / 2 + 1e-4, 5000.0, 0.0))
    fit = curvefit.fit_curve(model, tau, counts.astype(float))
    assert fit.degenerate


def test_monotone_objective_and_start_diagnostics():
    model = make_model()
    tau = np.linspace(-5, 5, 41)
    counts = model.curve(tau, 0.9, 1500.0, 0.1)
    fit = curvefit.fit_curve(model, tau, counts)
    assert len(fit.starts) == 4
    best = min(s["objective"] for s in fit.starts if s["converged"])
    assert abs(best - fit.objective) <= 1e-12 * max(1.0, best)


def mixed_stack():
    """Five curves: exact, noisy, flat, a model with no interference term
    (singular normal matrix) and a noisy curve that needs many steps."""
    from interfero.characterize import cosine_curve_model
    f = photonic.gaussian_spectrum()
    q, _ = photonic.cross_envelope(f, f)
    tau = np.linspace(-5, 5, 33)
    rng = np.random.default_rng(21)
    base = np.array([2.0, 1.5, 1.0, 1.2, 1.8])
    amp = np.array([1.0, 0.9, 0.8, 0.0, 1.5])
    truth = np.array([0.7, 2.2, 1.0, 1.0, 1.4])
    counts = np.array([3000 * (b + a * np.cos(t) * q(tau - 0.2))
                       for b, a, t in zip(base, amp, truth)])
    counts[1] = rng.poisson(counts[1])
    counts[4] = rng.poisson(counts[4])
    counts[2] = 2500.0
    counts[3] = rng.poisson(3000 * (1.2 + 0.5 * q(tau)))
    stacked = cosine_curve_model(photonic.Envelope.stack([q] * 5), base, amp)
    singles = [cosine_curve_model(q, b, a) for b, a in zip(base, amp)]
    return tau, counts, stacked, singles


@pytest.mark.parametrize("warm", [False, True])
def test_batched_fit_matches_row_by_row(warm):
    tau, counts, stacked, singles = mixed_stack()
    # warm: one start per curve, as bootstrap replicates use
    seeds = np.array([[0.75], [2.0], [1.0], [0.5], [3.0]]) if warm else None
    batch = curvefit.fit_curve(stacked, tau, counts, seeds=seeds, max_iter=10)
    assert len(batch.results) == 5
    assert isinstance(batch.results[2], FitFailure)     # flat curve only
    assert "starts" not in batch.results[2].details
    reasons = {s["reason"] for s in batch.starts}
    assert reasons == (set(curvefit.REASONS) if not warm
                       else {"small_step", "max_iter"})
    for c, (model, res) in enumerate(zip(singles, batch.results)):
        kwargs = {"max_iter": 10}
        if warm:
            kwargs["seeds"] = seeds[c]
        try:
            one = curvefit.fit_curve(model, tau, counts[c], **kwargs)
        except FitFailure as exc:
            assert isinstance(res, FitFailure) and str(res) == str(exc)
            assert res.details.get("starts") == exc.details.get("starts")
            continue
        assert not isinstance(res, FitFailure)
        for a, b in zip(one.starts, res.starts):
            assert a["converged"] == b["converged"]
            assert a["reason"] == b["reason"]
            assert (a["iterations"], a["rejected"]) == (b["iterations"],
                                                       b["rejected"])
            assert abs(a["objective"] - b["objective"]) <= 1e-9 * a["objective"]
        assert abs(one.objective - res.objective) <= 1e-9 * one.objective
        assert one.degenerate == res.degenerate


def test_converged_counts_every_reason_but_max_iter():
    tau, counts, stacked, _ = mixed_stack()
    batch = curvefit.fit_curve(stacked, tau, counts, max_iter=10)
    for s in batch.starts:
        assert s["converged"] == (s["reason"] != "max_iter")
    assert all(s["reason"] == "max_iter"
               for s in batch.results[4].details["starts"])


def test_stacked_solve_skips_singular_rows():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3, 3)) + 3 * np.eye(3)
    a[1] = 0.0
    b = rng.normal(size=(3, 3))
    step, solved = curvefit._solve(a, b)
    assert solved.tolist() == [True, False, True]
    assert np.array_equal(step[1], np.zeros(3))
    for k in (0, 2):
        assert np.allclose(step[k], np.linalg.solve(a[k], b[k]), atol=1e-14)
