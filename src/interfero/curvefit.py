"""Weighted least-squares fitting of coincidence curves.

All fitted curves share one shape: C(τ) = scale·(base + amp·f(s)·Q(τ−shift))
with per-curve constants base and amp, a shape factor f of the single shape
parameter s (the mode-matching parameter, an argument magnitude |θ| or a
phase combination β), an ordinate scale and an abscissa shift.

Only the shift enters nonlinearly.  At a fixed shift σ a curve is linear
in c₁ = scale·base and c₂ = scale·amp·f(s), so the fit is separable and
solved by variable projection (Golub & Pereyra 1973, SIAM J. Numer. Anal.
10, 413): each curve's weighted 2×2 normal equations give c₁ and c₂ in
closed form, and f(s) = c₂·base/(c₁·amp).  A family whose shape factor has
a bounded range (cos) clamps f into it and re-solves the one-term problem
for the scale; s is f's inverse at the result.

The curves of one shift group share one shift, the one minimizing the sum
φ of their projected objectives.  A scan at two points per τ step over the
τ range, or over a window around given shifts, finds the best lattice
point; regula falsi (Illinois variant) on φ′ = 2·Σ w·r·c₂·Q′(τ−shift),
exact at the projected linear terms (Kaufman 1975, BIT 15, 49), refines it
between its lattice neighbours and keeps the best point evaluated.  Each
group is computed on its own, so a group fitted in a stack gets exactly
the result it gets alone.
"""
import numpy as np

from .errors import FitFailure, InsufficientData, ShapeError

_SCAN_PER_STEP = 2      # scan points per τ step
_WINDOW_STEPS = 3       # half-width, in τ steps, of a scan around given shifts
_FINEST = 1e-13         # the secant stops at a step below this
_MAX_STEPS = 60         # secant steps at most
_CHUNK = 64            # rows evaluated at once, which bounds the temporaries


class CurveModel:
    """N stacked curves C_n(τ) = scale·(base_n + amp_n·f(s)·Q_n(τ−shift)).

    ``q`` is a photonic.Envelope with one row per curve, or a single row
    that every curve shares.  ``base`` and ``amp`` hold one constant per
    curve; ``f`` is the shape factor and ``df`` its derivative, both
    elementwise on an array of shapes.  ``inverse`` maps shape factors in
    ``f_range`` back to shapes.
    """

    def __init__(self, q, base, amp, f, df, inverse,
                 f_range=(-np.inf, np.inf)):
        self.q = q
        self.base = np.atleast_1d(np.asarray(base, dtype=float))
        self.amp = np.atleast_1d(np.asarray(amp, dtype=float))
        self.f = f
        self.df = df
        self.inverse = inverse
        self.f_range = f_range

    def jacobian(self, tau, shape, scale, shift):
        """∂C/∂(shape, scale, shift) (T, 3) of a one-curve model."""
        qv, dq = self.q.shifted(np.asarray(tau, dtype=float), shift,
                                derivative=True)
        amp = self.amp[0] * self.f(shape)
        inner = self.base[0] + amp * qv
        d_shape = scale * (self.amp[0] * self.df(shape) * qv)
        return np.stack([d_shape, inner, -scale * amp * dq], axis=1)


class FitResult:
    def __init__(self, shape, scale, shift, residuals, objective,
                 degenerate=False):
        self.shape = shape
        self.scale = scale
        self.shift = shift
        self.residuals = residuals
        self.objective = objective
        self.degenerate = degenerate


class FitBatch:
    """Outcome of a stacked fit: ``results[n]`` is curve n's FitResult or
    the FitFailure a fit of that curve alone raises, and ``starts`` holds
    one record per curve, in curve order."""

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


def _project(model, counts, w, curves, q):
    """Closed-form linear terms of curve ``curves[k]`` against its envelope
    values q[k] = Q(τ − shift) (K, T).

    Returns the shape factors, scales, c₂ = scale·amp·f, residuals (K, T)
    and objectives.
    """
    y, wk = counts[curves], w[curves]
    base, amp = model.base[curves], model.amp[curves]
    sw = np.sum(wk, axis=1)
    mq = np.sum(wk * q, axis=1) / sw
    dq = q - mq[:, None]
    my = np.sum(wk * y, axis=1) / sw
    sqq = np.sum(wk * dq * dq, axis=1)
    c2 = np.divide(np.sum(wk * dq * (y - my[:, None]), axis=1), sqq,
                   out=np.zeros_like(sqq), where=sqq > 0)
    c1 = my - c2 * mq
    with np.errstate(divide="ignore", invalid="ignore"):
        f = c2 * base / (c1 * amp)
    lo, hi = model.f_range
    clamped = ~((f >= lo) & (f <= hi))
    if clamped.any():
        # the one-term problem: scale alone with f on its bound
        fc = np.clip(np.nan_to_num(f[clamped]), lo, hi)
        u = base[clamped, None] + (amp[clamped] * fc)[:, None] * q[clamped]
        wu = wk[clamped] * u
        scale = np.sum(wu * y[clamped], axis=1) / np.sum(wu * u, axis=1)
        c1[clamped] = scale * base[clamped]
        c2[clamped] = scale * amp[clamped] * fc
        f[clamped] = fc
    r = y - c1[:, None] - c2[:, None] * q
    return f, c1 / base, c2, r, np.sum(wk * r * r, axis=1)


def _chunks(n):
    """Slices of at most _CHUNK rows covering n rows."""
    return [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]


def _envelope(model, tau, shifts, rows, derivative=False):
    """Q(τ−shifts[k]) on envelope row rows[k] (K, T), or [Q, Q′] (2, K, T)."""
    return np.concatenate([np.array(model.q.shifted(
        tau, shifts[s], rows=rows[s], derivative=derivative))
        for s in _chunks(len(shifts))], axis=-2)


def _evaluate(model, tau, counts, w, groups, owner, shifts, slope=False):
    """[φ] (1, K), φ[k] being group owner[k]'s objective at shifts[k], or
    with ``slope`` [φ, φ′] (2, K).  ``groups`` = (order, first, sizes): the
    curves of group g, order[first[g]:][:sizes[g]], share one envelope."""
    order, first, sizes = groups
    n = sizes[owner]
    points = np.repeat(np.arange(len(owner)), n)
    curves = order[np.arange(len(points))
                   + np.repeat(first[owner] - np.cumsum(n) + n, n)]
    q = _envelope(model, tau, shifts, order[first[owner]], slope).reshape(
        -1, len(shifts), len(tau))
    sums = np.empty((len(q), len(curves)))
    for s in _chunks(len(curves)):
        _, _, c2, r, sums[0, s] = _project(model, counts, w, curves[s],
                                           q[0, points[s]])
        if slope:
            sums[1, s] = 2.0 * c2 * np.sum(w[curves[s]] * r
                                           * q[1, points[s]], axis=1)
    return np.array([np.bincount(points, weights=v, minlength=len(shifts))
                     for v in sums])


def _search(model, tau, counts, w, groups, near):
    """Each group's shift, by the scan and refinement fit_curve states."""
    order, first, sizes = groups
    lo, hi = tau.min(), tau.max()
    n_lattice = _SCAN_PER_STEP * (len(tau) - 1) + 1
    step = (hi - lo) / (n_lattice - 1)
    lattice = lo + step * np.arange(n_lattice)
    reach = _WINDOW_STEPS * _SCAN_PER_STEP * step
    low = np.minimum.reduceat(near[order], first)   # NaN if a curve has none
    start = np.searchsorted(lattice, low - reach)
    stop = np.searchsorted(lattice, np.maximum.reduceat(near[order], first)
                           + reach, side="right")
    whole = np.isnan(low) | (start >= stop)
    start[whole], stop[whole] = 0, n_lattice
    k = np.arange(np.max(stop - start))
    inside = k < (stop - start)[:, None]
    table = np.full(inside.shape, np.inf)
    table[inside] = _evaluate(model, tau, counts, w, groups,
                              np.nonzero(inside)[0],
                              lattice[(start[:, None] + k)[inside]])[0]
    shift, obj = lattice[start + np.argmin(table, axis=1)], table.min(axis=1)

    def probe(live, x):
        """φ′ at points x of groups ``live``, keeping each group's best."""
        o, d = _evaluate(model, tau, counts, w, groups, live, x, slope=True)
        better = o < obj[live]
        shift[live[better]], obj[live[better]] = x[better], o[better]
        return d

    x0, x1, live = shift - step, shift + step, np.arange(len(first))
    f0, f1 = probe(live, x0), probe(live, x1)
    live = live[(f0 < 0) & (f1 > 0)]
    for _ in range(_MAX_STEPS):
        if not len(live):
            break
        x = x1[live] - f1[live] * (x1[live] - x0[live]) / (f1[live] - f0[live])
        d = probe(live, x)
        # the bracket [x0, x1] ends at the newest point; Illinois: an end
        # kept twice has its slope halved
        flip = d * f1[live] < 0
        x0[live] = np.where(flip, x1[live], x0[live])
        f0[live] = np.where(flip, f1[live], 0.5 * f0[live])
        moved = np.abs(x - x1[live]) > _FINEST
        x1[live], f1[live] = x, d
        live = live[(d != 0) & moved]
    return shift


def fit_curve(model, tau, counts, groups, near=None):
    """Fit (shape, scale, shift) to each of N measured curves, one shift
    per shift group.

    ``counts`` is (N, T), one row per curve of the stacked ``model``.
    ``groups`` holds one shift-group id per curve; the curves of a group
    share one shift and must share one envelope.  ``near`` optionally holds
    a shift per curve, NaN for none: a group whose curves all have one
    scans a window of ±3 τ steps around them instead of the whole τ range
    (the whole range if that window holds no lattice point).  The first
    best scan point is refined only if φ′ rises through 0 between its
    lattice neighbours; else (say, φ still falling at an end of the τ
    range) the group keeps the best of those three points.  Returns a
    FitBatch holding each curve's FitResult, or the FitFailure of a curve
    whose data or model carry no shape information (flat curve, no
    interference term).  Near-degenerate fits carry ``degenerate=True``.
    Each curve has a record, with ``converged`` set if it was fitted.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1:] != tau.shape:
        raise ShapeError("coincidence counts must be an (N, T) array with "
                         "one column per delay", counts=list(counts.shape),
                         tau=list(tau.shape))
    n = len(counts)
    groups = np.asarray(groups)
    near = (np.full(n, np.nan) if near is None
            else np.asarray(near, dtype=float))
    if groups.shape != (n,) or near.shape != (n,):
        raise ShapeError("need one shift group and one near shift per curve",
                         curves=n, groups=list(groups.shape),
                         near=list(near.shape))
    if len(tau) < 5:
        raise InsufficientData("need at least 5 data points per curve",
                               points=len(tau))
    if not np.all(np.isfinite(counts)):
        raise ShapeError("coincidence counts must be finite")
    w = fit_weights(counts)

    results = [None] * n
    top = counts.max(axis=1)
    span = top - counts.min(axis=1)
    for c in np.flatnonzero(span <= 1e-12 * np.maximum(1.0, top)):
        results[c] = FitFailure("flat data: shape parameter is unconstrained",
                                span=float(span[c]))
    for c in np.flatnonzero(model.amp == 0):
        results[c] = results[c] or FitFailure(
            "no interference term: shape parameter is unconstrained")
    live = np.array([c for c in range(n) if results[c] is None], dtype=int)
    starts = [{"converged": False} for _ in range(n)]
    if not len(live):
        return FitBatch(results, starts)

    _, gid = np.unique(groups[live], return_inverse=True)
    order = live[np.argsort(gid, kind="stable")]
    sizes = np.bincount(gid)
    first = np.cumsum(sizes) - sizes
    lead = order[first][gid]
    q = model.q
    if q.g.ndim == 2 and (np.any(q.g[live] != q.g[lead])
                          or np.any(q.i0[live] != q.i0[lead])):
        raise ShapeError("the curves of a shift group need one envelope")
    shifts = _search(model, tau, counts, w, (order, first, sizes), near)[gid]
    q = _envelope(model, tau, shifts, live)
    f, scale, _, r, obj = _project(model, counts, w, live, q)
    shape = model.inverse(f)
    # degenerate-shape flag: the fitted interference term is buried in
    # the residual noise floor
    signal = np.abs(scale * model.amp[live] * f) * np.ptp(q, axis=1)
    noise = (np.sqrt(obj / len(tau))
             * np.sqrt(np.maximum(counts[live].mean(axis=1), 1e-300)))
    for k, c in enumerate(live):
        starts[c]["converged"] = True
        results[c] = FitResult(float(shape[k]), float(scale[k]),
                               float(shifts[k]), r[k].copy(), float(obj[k]),
                               degenerate=bool(signal[k] < 3.0 * noise[k]))
    return FitBatch(results, starts)


def param_sigmas(model, tau, counts, fit):
    """Linearized 1σ uncertainties (shape, scale, shift) at the optimum.

    Standard weighted-least-squares covariance (JᵀWJ)⁻¹ scaled by the
    reduced objective; infinite where the normal matrix is singular.
    """
    tau = np.asarray(tau, dtype=float)
    counts = np.asarray(counts, dtype=float)
    w = fit_weights(counts)
    jac = model.jacobian(tau, fit.shape, fit.scale, fit.shift)
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
