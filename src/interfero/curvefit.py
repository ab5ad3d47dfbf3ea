"""Weighted least-squares fitting of coincidence curves.

All fitted curves share one shape: C(τ) = scale·(base + amp·f(s)·Q(τ−shift))
with per-curve constants base and amp, a shape factor f of the single shape
parameter s (the mode-matching parameter, an argument magnitude |θ| or a
phase combination β), an ordinate scale and an abscissa shift.  Fits take a
stack of N curves and are multi-started over the four canonical shape seeds
{π/4, 3π/4, 5π/4, 7π/4} (one per qualitative curve shape).

The optimizer is one batched Levenberg–Marquardt loop (Moré 1978) with
analytic Jacobians.  It fits a stack of K independent (curve, start) rows
at once: residuals (K, T), Jacobians (K, T, 3) and damped normal equations
(K, 3, 3) solved in one call per pass, while the damping factor, the
acceptance test and the stopping rules are kept for each row separately.
Rows leave the active set as they stop, and accepted steps are strictly
monotone in each row's objective.  A row stops for one of four reasons:

- ``gradient``: the weighted gradient vanished, |g|∞ < 1e-14·max(1, obj);
- ``small_step``: an accepted step lowered the objective by a relative
  1e-14 or less, or moved no parameter by 1e-14 or more;
- ``damping_exhausted``: 60 damping increases found no descent;
- ``max_iter``: the iteration limit was reached.

Every reason but ``max_iter`` counts as converged.
"""
import numpy as np

from .errors import FitFailure, InsufficientData, ShapeError

SHAPE_SEEDS = (np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4)
REASONS = ("gradient", "small_step", "damping_exhausted", "max_iter")
_GRADIENT, _SMALL_STEP, _DAMPING_EXHAUSTED, _MAX_ITER = range(4)
_DAMPING_TRIES = 60
# damping tries made so far in an iteration -> end of the block of tries
# the next pass makes (blocks of 1, 4, 16 and 39 tries)
_BLOCK_END = np.repeat([1, 5, 21, _DAMPING_TRIES], [1, 4, 16, 39])
# bounds on the tries of one pass and on the rows evaluated at once, which
# keep the temporaries small
_PASS_TRIES = 256
_EVAL_ROWS = 32


class CurveModel:
    """N stacked curves C_n(τ) = scale·(base_n + amp_n·f(s)·Q_n(τ−shift)).

    ``q`` is a photonic.Envelope with one row per curve, or a single row
    that every curve shares.  ``base`` and ``amp`` hold one constant per
    curve; ``f`` is the shape factor and ``df`` its derivative, both
    elementwise on an array of shapes.
    """

    def __init__(self, q, base, amp, f, df):
        self.q = q
        self.base = np.atleast_1d(np.asarray(base, dtype=float))
        self.amp = np.atleast_1d(np.asarray(amp, dtype=float))
        self.f = f
        self.df = df

    def evaluate(self, tau, x, curves, derivative=False):
        """Curve values (K, T) at the parameter rows ``x`` (K, 3), where row
        k belongs to curve ``curves[k]``; the Jacobian (K, T, 3) first when
        ``derivative`` is set."""
        s, scale = x[:, 0], x[:, 1:2]
        base, amp_c = self.base[curves, None], self.amp[curves]
        amp = (amp_c * self.f(s))[:, None]
        if not derivative:
            qv = self.q.shifted(tau, x[:, 2], rows=curves)
            return scale * (base + amp * qv)
        qv, dq = self.q.shifted(tau, x[:, 2], rows=curves, derivative=True)
        inner = base + amp * qv
        d_shape = scale * ((amp_c * self.df(s))[:, None] * qv)
        jac = np.stack([d_shape, inner, -scale * amp * dq], axis=2)
        return jac, scale * inner

    def _single(self, tau, shape, scale, shift, derivative):
        x = np.array([[shape, scale, shift]], dtype=float)
        out = self.evaluate(np.asarray(tau, dtype=float), x,
                            np.zeros(1, dtype=int), derivative)
        return (out[0][0], out[1][0]) if derivative else out[0]

    def curve(self, tau, shape, scale, shift):
        """C(τ) of a one-curve model."""
        return self._single(tau, shape, scale, shift, False)

    def jacobian(self, tau, shape, scale, shift):
        """(∂C/∂(shape, scale, shift) as (T, 3), C(τ)) of a one-curve model."""
        return self._single(tau, shape, scale, shift, True)


class FitResult:
    def __init__(self, shape, scale, shift, residuals, objective,
                 degenerate=False, starts=None):
        self.shape = shape
        self.scale = scale
        self.shift = shift
        self.residuals = residuals
        self.objective = objective
        self.degenerate = degenerate
        self.starts = starts or []


class FitBatch:
    """Outcome of a stacked fit: ``results[n]`` is curve n's FitResult or
    the FitFailure a fit of that curve alone raises, and ``starts`` lists
    the start records of every curve in curve order."""

    def __init__(self, results, starts):
        self.results = results
        self.starts = starts


def fit_weights(counts):
    """w(τ) = 1/C_exp(τ), with w = 1 where the measured count is zero
    (or nonpositive, which only happens through floating-point noise)."""
    counts = np.asarray(counts, dtype=float)
    w = np.ones_like(counts)
    pos = counts > 0
    w[pos] = 1.0 / counts[pos]
    return w


def guess_shift(tau, counts):
    """Place the global extremum farther from the mean at zero delay."""
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    imax = int(np.argmax(counts))
    imin = int(np.argmin(counts))
    idx = imax if counts[imax] - mean >= mean - counts[imin] else imin
    return float(tau[idx])


def _lm(model, tau, counts, w, x0, active, max_iter=200, lam0=1e-3):
    """Damped least squares on every (curve, start) row at once.

    counts and w are (N, T); x0 is (N, S, 3) and ``active`` (N, S) marks
    the rows to fit.  Returns the final parameters, residuals, objectives,
    stop reasons (indices into REASONS, -1 for rows not fitted), iteration
    counts and rejected-step counts, flattened to K = N·S rows.
    """
    n_starts = active.shape[1]
    x = np.array(x0, dtype=float).reshape(-1, 3)
    counts = np.repeat(counts, n_starts, axis=0)
    w = np.repeat(w, n_starts, axis=0)
    live = active.ravel().copy()
    k = len(x)
    reason = np.full(k, -1)
    iterations = np.zeros(k, dtype=int)
    rejected = np.zeros(k, dtype=int)
    tries = np.zeros(k, dtype=int)
    lam = np.full(k, lam0)
    h = np.zeros((k, 3, 3))
    g = np.zeros((k, 3))
    r = np.zeros_like(counts)
    obj = np.full(k, np.inf)
    rows = np.flatnonzero(live)
    r[rows] = counts[rows] - _evaluate(model, tau, x[rows], rows // n_starts)
    obj[rows] = np.sum(w[rows] * r[rows] * r[rows], axis=1)
    fresh = live.copy()                     # rows starting an iteration
    diag = np.arange(3)
    while True:
        rows = np.flatnonzero(fresh)
        if len(rows):
            fresh[rows] = False
            spent = iterations[rows] == max_iter
            reason[rows[spent]] = _MAX_ITER
            live[rows[spent]] = False
            rows = rows[~spent]
            iterations[rows] += 1
            jac = _evaluate(model, tau, x[rows], rows // n_starts, True)
            jtw = jac * w[rows, :, None]
            h[rows] = np.matmul(jtw.transpose(0, 2, 1), jac)
            g[rows] = np.matmul(jtw.transpose(0, 2, 1), r[rows, :, None])[..., 0]
            tries[rows] = 0
            flat = (np.max(np.abs(g[rows]), axis=1)
                    < 1e-14 * np.maximum(1.0, obj[rows]))
            reason[rows[flat]] = _GRADIENT
            live[rows[flat]] = False
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        # this pass tries a block of damping factors λ·4^t per row; the
        # first accepted t is the step the one-at-a-time loop would take
        size = _BLOCK_END[tries[rows]] - tries[rows]
        size = np.minimum(size, _PASS_TRIES - (np.cumsum(size) - size))
        rows, size = rows[size > 0], size[size > 0]
        width = size.max()
        valid = np.arange(width) < size[:, None]
        cand = np.repeat(rows, size)
        t = np.nonzero(valid)[1]
        lam_c = lam[cand] * 4.0 ** t
        damped = h[cand]
        damped[:, diag, diag] += (lam_c[:, None]
                                  * np.maximum(damped[:, diag, diag], 1e-30))
        step, solved = _solve(damped, g[cand])
        x_new = x[cand] + step
        # a step too small to move x reproduces obj exactly: rejected as is
        ok = np.flatnonzero(solved & np.any(x_new != x[cand], axis=1))
        r_new = np.zeros((len(cand), counts.shape[1]))
        obj_new = np.full(len(cand), np.inf)
        r_new[ok] = counts[cand[ok]] - _evaluate(model, tau, x_new[ok],
                                                 cand[ok] // n_starts)
        obj_new[ok] = np.sum(w[cand[ok]] * r_new[ok] * r_new[ok], axis=1)
        better = np.zeros(valid.shape, dtype=bool)
        better[valid] = solved & (obj_new < obj[cand])
        hit = better.any(axis=1)
        first = better.argmax(axis=1)

        up = rows[hit]
        pick = (np.cumsum(size) - size)[hit] + first[hit]
        rel_drop = (obj[up] - obj_new[pick]) / np.maximum(obj[up], 1e-300)
        small = ((rel_drop < 1e-14)
                 | (np.max(np.abs(step[pick]), axis=1) < 1e-14))
        x[up] = x_new[pick]
        r[up] = r_new[pick]
        obj[up] = obj_new[pick]
        lam[up] = np.maximum(lam_c[pick] / 3.0, 1e-12)
        rejected[up] += first[hit]
        reason[up[small]] = _SMALL_STEP
        live[up[small]] = False
        fresh[up[~small]] = True

        down = rows[~hit]
        lam[down] *= 4.0 ** size[~hit]
        tries[down] += size[~hit]
        rejected[down] += size[~hit]
        exhausted = down[tries[down] == _DAMPING_TRIES]
        reason[exhausted] = _DAMPING_EXHAUSTED
        live[exhausted] = False
    return x, r, obj, reason, iterations, rejected


def _evaluate(model, tau, x, curves, jacobian=False):
    """model.evaluate over at most _EVAL_ROWS rows at a time, which bounds
    the temporaries; returns the curve values, or the Jacobian."""
    parts = [model.evaluate(tau, x[lo:lo + _EVAL_ROWS],
                            curves[lo:lo + _EVAL_ROWS], jacobian)
             for lo in range(0, max(len(curves), 1), _EVAL_ROWS)]
    return np.concatenate([p[0] if jacobian else p for p in parts])


def _solve(a, b):
    """Solve the stacked systems a·x = b; a singular system gets no step."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(b)
    solved = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            step[i] = np.linalg.solve(a[i], b[i])
            solved[i] = True
        except np.linalg.LinAlgError:
            pass
    return step, solved


def fit_curve(model, tau, counts, seeds=None, max_iter=200):
    """Fit (shape, scale, shift) to each of N measured curves; the best
    start of each curve wins.

    ``counts`` is (N, T), one row per curve of the stacked ``model``; the
    N curves are fitted in one batched loop.  Returns a FitBatch holding
    each curve's FitResult, or the FitFailure of a curve for which no start
    converged or whose data carry no shape information (flat curve).
    ``seeds`` gives the shape starts, shared by every curve or as an (N, S)
    array per curve.  Near-degenerate fits carry ``degenerate=True``.
    Every start is recorded with its seed, objective, ``converged``,
    ``iterations``, ``rejected`` steps and stop ``reason``.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1:] != tau.shape:
        raise ShapeError("coincidence counts must be an (N, T) array with "
                         "one column per delay", counts=list(counts.shape),
                         tau=list(tau.shape))
    n = len(counts)
    if len(tau) < 5:
        raise InsufficientData("need at least 5 data points per curve",
                               points=len(tau))
    if not np.all(np.isfinite(counts)):
        raise ShapeError("coincidence counts must be finite")
    w = fit_weights(counts)
    seeds = np.asarray(SHAPE_SEEDS if seeds is None else seeds, dtype=float)
    seeds = np.broadcast_to(seeds, (n, seeds.shape[-1]))

    c_inf = 0.5 * (counts[:, 0] + counts[:, -1])
    span = counts.max(axis=1) - counts.min(axis=1)
    flat = span <= 1e-12 * np.maximum(1.0, counts.max(axis=1))

    shift0 = np.array([guess_shift(tau, c) for c in counts])
    base = np.broadcast_to(model.base[:, None], seeds.shape)
    fallback = np.maximum(counts.mean(axis=1), 1e-12)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale0 = np.where(np.abs(base) > 1e-12, c_inf[:, None] / base,
                          fallback)
    x0 = np.stack([seeds, scale0,
                   np.broadcast_to(shift0[:, None], seeds.shape)], axis=2)
    active = np.broadcast_to(~flat[:, None], seeds.shape)
    x, r, obj, reason, iterations, rejected = _lm(
        model, tau, counts, w, x0, active, max_iter=max_iter)

    n_starts = seeds.shape[1]
    results, starts, best_rows = [], [], []
    for c in range(n):
        if flat[c]:
            results.append(FitFailure(
                "flat data: shape parameter is unconstrained",
                span=float(span[c])))
            continue
        diagnostics = []
        best = None
        for row in range(c * n_starts, (c + 1) * n_starts):
            ok = reason[row] != _MAX_ITER
            diagnostics.append({
                "seed": float(seeds.flat[row]), "objective": float(obj[row]),
                "converged": bool(ok), "iterations": int(iterations[row]),
                "rejected": int(rejected[row]),
                "reason": REASONS[reason[row]]})
            if ok and (best is None or obj[row] < obj[best]):
                best = row
        starts.extend(diagnostics)
        if best is None:
            results.append(FitFailure("no start converged",
                                      starts=diagnostics))
            continue
        best_rows.append(best)
        shape, scale, shift = x[best]
        results.append(FitResult(float(shape), float(scale), float(shift),
                                 r[best].copy(), float(obj[best]),
                                 starts=diagnostics))

    if best_rows:
        # degenerate-shape flag: the fitted interference term is buried in
        # the residual noise floor
        best_rows = np.array(best_rows)
        curves = best_rows // n_starts
        amp = model.amp[curves] * model.f(x[best_rows, 0])
        qspan = np.ptp(model.q.shifted(tau, x[best_rows, 2], rows=curves),
                       axis=1)
        signal = np.abs(x[best_rows, 1] * amp) * qspan
        noise = (np.sqrt(obj[best_rows] / len(tau))
                 * np.sqrt(np.maximum(counts[curves].mean(axis=1), 1e-300)))
        for c, flag in zip(curves, signal < 3.0 * noise):
            results[c].degenerate = bool(flag)
    return FitBatch(results, starts)


def param_sigmas(model, tau, counts, fit):
    """Linearized 1σ uncertainties (shape, scale, shift) at the optimum.

    Standard weighted-least-squares covariance (JᵀWJ)⁻¹ scaled by the
    reduced objective; infinite where the normal matrix is singular.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    w = fit_weights(counts)
    jac, _ = model.jacobian(tau, fit.shape, fit.scale, fit.shift)
    h = (jac.T * w) @ jac
    dof = max(len(tau) - 3, 1)
    try:
        cov = np.linalg.inv(h) * (fit.objective / dof)
    except np.linalg.LinAlgError:
        return np.full(3, np.inf)
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def fold_angle(x):
    """Fold any real angle into [0, π] (cos-equivalent representative)."""
    y = np.mod(np.abs(x), 2 * np.pi)
    return float(2 * np.pi - y) if y > np.pi else float(y)
