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

The curves of one shift group share one shift: the one minimizing the sum
of their projected objectives.  It is found by a scan at two points per τ
step over the τ range, or over a window of τ steps around given shifts,
then refined parabolically, three points per level with the step divided
by 8 from level to level, down to a step of 1e-13.  Each group is computed
on its own, so a group fitted in a stack gets exactly the result it gets
alone.
"""
import numpy as np

from .errors import FitFailure, InsufficientData, ShapeError

_SCAN_PER_STEP = 2      # scan points per τ step
_WINDOW_STEPS = 3       # half-width, in τ steps, of a scan around given shifts
_SHRINK = 8             # step ratio between refinement levels
_FINEST = 1e-13         # refinement stops below this step
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

    def curve(self, tau, shape, scale, shift):
        """C(τ) of a one-curve model."""
        qv = self.q.shifted(np.asarray(tau, dtype=float), shift)
        return scale * (self.base[0] + self.amp[0] * self.f(shape) * qv)

    def jacobian(self, tau, shape, scale, shift):
        """(∂C/∂(shape, scale, shift) as (T, 3), C(τ)) of a one-curve model."""
        qv, dq = self.q.shifted(np.asarray(tau, dtype=float), shift,
                                derivative=True)
        amp = self.amp[0] * self.f(shape)
        inner = self.base[0] + amp * qv
        d_shape = scale * (self.amp[0] * self.df(shape) * qv)
        jac = np.stack([d_shape, inner, -scale * amp * dq], axis=1)
        return jac, scale * inner


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

    Returns the shape factors, scales, residuals (K, T) and objectives.
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
    return f, c1 / base, r, np.sum(wk * r * r, axis=1)


def _chunks(n):
    """Slices of at most _CHUNK rows covering n rows."""
    return [slice(lo, lo + _CHUNK) for lo in range(0, n, _CHUNK)]


def _envelope(model, tau, shifts, rows):
    """Q(τ − shifts[k]) on envelope row rows[k], as (K, T)."""
    return np.concatenate([model.q.shifted(tau, shifts[s], rows=rows[s])
                           for s in _chunks(len(shifts))])


def _layout(members, n_points):
    """Points numbered group after group, n_points[g] for group g: the
    (curve, point) rows evaluating every member of a group at each of its
    points, and the envelope row of each point (its group's first curve;
    a group shares one envelope)."""
    starts = np.cumsum(n_points) - n_points
    curves = [np.tile(m, p) for m, p in zip(members, n_points)]
    points = [np.repeat(np.arange(s, s + p), len(m))
              for m, s, p in zip(members, starts, n_points)]
    return (np.concatenate(curves), np.concatenate(points),
            np.repeat([m[0] for m in members], n_points))


def _totals(model, tau, counts, w, layout, shifts):
    """Group objective at each point: the sum of the projected objectives
    of its group's curves at the point's shift."""
    curves, points, envelope = layout
    q = _envelope(model, tau, shifts, envelope)
    obj = np.concatenate([_project(model, counts, w, curves[s],
                                   q[points[s]])[3]
                          for s in _chunks(len(curves))])
    return np.bincount(points, weights=obj, minlength=len(shifts))


def _search(model, tau, counts, w, members, near):
    """Each group's shift.  A group whose curves all have a ``near`` shift
    scans the τ-lattice points in a window around them; any other group
    scans the whole lattice."""
    lo, hi = tau.min(), tau.max()
    n_lattice = _SCAN_PER_STEP * (len(tau) - 1) + 1
    step = (hi - lo) / (n_lattice - 1)
    lattice = lo + step * np.arange(n_lattice)
    reach = _WINDOW_STEPS * _SCAN_PER_STEP * step
    scans = []
    for m in members:
        inside = np.ones(n_lattice, dtype=bool)
        if not np.isnan(near[m]).any():
            inside = ((lattice >= near[m].min() - reach)
                      & (lattice <= near[m].max() + reach))
        scans.append(lattice[inside] if inside.any() else lattice)
    sizes = np.array([len(p) for p in scans])
    points = np.concatenate(scans)
    total = _totals(model, tau, counts, w, _layout(members, sizes), points)
    best = [s + np.argmin(total[s:s + n])
            for s, n in zip(np.cumsum(sizes) - sizes, sizes)]
    shift, obj = points[best], total[best]

    # parabolic refinement around the best point; the best point evaluated
    # is kept, so the result is never worse than the scan
    layout = _layout(members, np.full(len(members), 3))
    centre, pick = shift.copy(), np.arange(len(members))
    while step >= _FINEST:
        trial = centre[:, None] + step * np.array([-1.0, 0.0, 1.0])
        o = _totals(model, tau, counts, w, layout,
                    trial.ravel()).reshape(-1, 3)
        k = np.argmin(o, axis=1)
        better = o[pick, k] < obj
        shift[better] = trial[better, k[better]]
        obj[better] = o[better, k[better]]
        curv = o[:, 0] - 2.0 * o[:, 1] + o[:, 2]
        vertex = np.where(curv > 0, 0.5 * (o[:, 0] - o[:, 2])
                          / np.where(curv > 0, curv, 1.0), k - 1.0)
        centre = centre + np.clip(vertex, -1.0, 1.0) * step
        step /= _SHRINK
    return shift


def fit_curve(model, tau, counts, groups, near=None):
    """Fit (shape, scale, shift) to each of N measured curves, one shift
    per shift group.

    ``counts`` is (N, T), one row per curve of the stacked ``model``.
    ``groups`` holds one shift-group id per curve; the curves of a group
    share one shift and must share one envelope.  ``near`` optionally
    holds a shift per curve, NaN for none: a group whose curves all have
    one scans a window of ±3 τ steps around them instead of the whole τ
    range.  Returns a FitBatch holding each curve's FitResult, or the
    FitFailure of a curve whose data or model carry no shape information
    (flat curve, no interference term).  Near-degenerate fits carry
    ``degenerate=True``.  Every curve has one record, whose ``converged``
    is set when the curve was fitted.
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
    members = [live[gid == g] for g in range(gid.max() + 1)]
    q = model.q
    if q.g.ndim == 2 and any(np.any(q.g[m] != q.g[m[0]])
                             or np.any(q.i0[m] != q.i0[m[0]])
                             for m in members):
        raise ShapeError("the curves of a shift group need one envelope")
    group_shift = _search(model, tau, counts, w, members, near)
    shifts = group_shift[gid]
    q = _envelope(model, tau, shifts, live)
    f, scale, r, obj = _project(model, counts, w, live, q)
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
