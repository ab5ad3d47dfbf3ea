"""Interferometer characterization from photon-counting data.

Pipeline: amplitude ratios from single-photon counts, mode-matching
calibration on a reference beam splitter, argument magnitudes and signs
from two-photon coincidence curves (with port relabeling and an
instability-mitigation rule for near-degenerate phase references),
maximum-likelihood recovery of the representative unitary, and bootstrap
error bars by residual resampling.

Each dataset is one run that holds its state from counts to W; the fitting
steps are stages over a list of runs (``calibrate_gamma``, then
``estimate_arguments``), each one stacked fit over every run still going.
"""
from collections import Counter, namedtuple

import numpy as np

from . import linalg, photonic
from .curvefit import CurveModel, fit_curve, fold_angle, param_sigmas
from .errors import (BootstrapUnstable, CalibrationOutOfRange,
                     DegenerateAmplitudes, DivisionByZeroCount, FitFailure,
                     InsufficientData, InterferoError, ShapeError)


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------
def _curve_keys(m, firsts):
    """Canonical keys of the coincidence curves on ports (i,i',j,j') of m
    ports with i, j ∈ ``firsts``."""
    ports = range(1, m + 1)
    return {photonic.canonical_curve_key((i, i2, j, j2))
            for i in firsts for i2 in ports for j in firsts for j2 in ports
            if i != i2 and j != j2}


def required_choice_keys(m):
    """Canonical keys of every coincidence curve the argument sweep may
    consume without relabeling: ports (i,i',j,j') with i,j ∈ {1,2}."""
    return _curve_keys(m, (1, 2))


def all_curve_keys(m):
    """Every distinct canonical coincidence key on m ports."""
    return _curve_keys(m, range(1, m + 1))


class CharacterizationDataset:
    """Raw data for one characterization run.

    single_counts: (m, m, B) array N[i-1, j-1, b-1] of detection counts for
    input j, output i, repetition b.  coincidence maps canonical port keys
    to (tau, counts) pairs.  spectra is one SpectralFunction per input port.
    The calibration fields hold the reference beam-splitter data, which
    inputs 1 and 2 feed, so ``envelope(1, 2)`` is its envelope.
    """

    def __init__(self, single_counts, coincidence, spectra,
                 calibration_single=None, calibration_curve=None):
        self.single_counts = np.asarray(single_counts, dtype=float)
        shape = self.single_counts.shape
        if len(shape) != 3 or shape[0] != shape[1]:
            raise ShapeError("single counts must be an (m, m, B) array",
                             shape=list(shape))
        self.m, _, self.n_blocks = shape
        self.coincidence, given = {}, {}
        for k, (tau, counts) in coincidence.items():
            key = photonic.canonical_curve_key(k)
            if given.setdefault(key, k) != k:   # (i,i',j,j'), (i',i,j',j)
                raise ShapeError("two coincidence curves on one port set",
                                 keys=[list(map(int, given[key])),
                                       list(map(int, k))])
            self.coincidence[key] = (np.asarray(tau, dtype=float),
                                     np.asarray(counts, dtype=float))
        self.spectra = list(spectra)
        if len(self.spectra) != self.m:
            raise ShapeError("need one spectrum per input port",
                             spectra=len(self.spectra), m=self.m)
        self.calibration_single = (None if calibration_single is None
                                   else np.asarray(calibration_single, dtype=float))
        self.calibration_curve = calibration_curve

    def curve(self, ports):
        return self.coincidence.get(photonic.canonical_curve_key(ports))

    def envelope(self, j, j2):
        """Normalized overlap envelope Q for input ports (j, j')."""
        j, j2 = min(j, j2), max(j, j2)
        return photonic.cross_envelope(self.spectra[j - 1],
                                       self.spectra[j2 - 1])

    def missing_choice_keys(self):
        return sorted(required_choice_keys(self.m) - set(self.coincidence))


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------
def estimate_amplitudes(single_counts):
    """Loss-immune amplitude ratios α̃_ij with per-entry standard deviations.

    α̃_ij averages √(N_{11b₁}N_{ijb_j}/(N_{1jb_j}N_{i1b₁})) over all
    repetition pairs (b₁, b_j); the construction cancels every per-port
    efficiency and per-(input, repetition) photon-number fluctuation.
    A zero reference count raises DivisionByZeroCount naming the first
    one by repetition, then output 1's inputs, then input 1's outputs.
    """
    n = np.asarray(single_counts, dtype=float)
    m, _, n_blocks = n.shape
    zero = np.concatenate([n[0, :, :] == 0, n[:, 0, :] == 0]).T
    if zero.any():
        b, k = divmod(int(np.argmax(zero)), 2 * m)
        output, port = (1, k + 1) if k < m else (k - m + 1, 1)
        raise DivisionByZeroCount("zero reference count", output=output,
                                  input=port, repetition=b + 1)
    left = np.sqrt(n[0, 0, :] / n[1:, 0, :])           # (i, b₁)
    right = np.sqrt(n[1:, 1:, :] / n[0, 1:, :])        # (i, j, b_j)
    # C order puts each (i, j) pair's B·B products on the last axis, so the
    # mean and std reduce it in the order a 1-D array of them would
    vals = np.ascontiguousarray(left[:, None, :, None] * right[:, :, None, :])
    vals = vals.reshape(m - 1, m - 1, n_blocks * n_blocks)
    alpha = np.ones((m, m))
    sigma = np.zeros((m, m))
    alpha[1:, 1:] = np.mean(vals, axis=2)
    if n_blocks > 1:
        sigma[1:, 1:] = np.std(vals, axis=2, ddof=1)
    return alpha, sigma


def repetition_convergence(single_counts, sig_full):
    """Post-hoc check that the repetition count B is large enough: the
    amplitude standard deviations from the first half of the blocks must
    agree with ``sig_full``, all B's, within a relative change of 0.2."""
    n = np.asarray(single_counts, dtype=float)
    n_blocks = n.shape[2]
    if n_blocks < 4:
        return {"type": "repetition-convergence", "status": "skipped",
                "n_blocks": int(n_blocks)}
    _, sig_half = estimate_amplitudes(n[:, :, : n_blocks // 2])
    a = float(np.mean(sig_half))
    b = float(np.mean(sig_full))
    rel = abs(a - b) / b if b > 1e-9 else 0.0
    status = "ok" if rel <= 0.2 else "warning"
    return {"type": "repetition-convergence", "status": status,
            "relative_change": rel, "n_blocks": int(n_blocks)}


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
def reflectivity_from_alpha(alpha22):
    """Invert α₂₂ = cot²ϑ for the beam-splitter reflectivity cos ϑ."""
    if not alpha22 >= 0:
        raise CalibrationOutOfRange("calibration amplitude ratio must be >= 0",
                                    alpha22=float(alpha22))
    return float(np.sqrt(alpha22 / (1.0 + alpha22)))


def cosine_curve_model(q, base_const, amp_const):
    """C(τ) = scale·(base + amp_const·cos(shape)·Q(τ−shift)): the common
    form of every coincidence curve with the phase combination as shape.
    The constants may be arrays, one entry per curve of a stacked ``q``."""
    return CurveModel(q, base_const, amp_const, np.cos, lambda s: -np.sin(s),
                      np.arccos, (-1.0, 1.0))


def calibration_curve_model(q, cos_vartheta):
    """Reference beam-splitter coincidence with γ as the shape parameter:
    C(τ) = scale·(c⁴ + s⁴ − 2γc²s²·Q(τ−shift)).  ``cos_vartheta`` may be
    an array, one entry per curve of a stacked ``q``."""
    c2 = np.asarray(cos_vartheta, dtype=float) ** 2
    s2 = 1.0 - c2
    return CurveModel(q, c2 ** 2 + s2 ** 2, -2.0 * c2 * s2,
                      lambda g: g, lambda g: 1.0, lambda g: g)


# one curve of a pipeline stage: the constants are the model family's
# per-curve arguments after the envelope; requests with equal ``group``
# keys share one shift, and ``near`` is a shift to scan around, or None
_Request = namedtuple("_Request", "envelope consts curve group near")


def _fit_stage(requests, family):
    """Fit every request of one pipeline stage with the model ``family``.

    Requests that share a τ grid and an ω grid go through fit_curve as one
    stacked fit.  Returns each request's FitResult or FitFailure, in
    request order.
    """
    calls = {}
    for k, req in enumerate(requests):
        key = (req.curve[0].tobytes(), req.envelope.grid.tobytes())
        calls.setdefault(key, []).append(k)
    out = [None] * len(requests)
    for members in calls.values():
        stage = [requests[k] for k in members]
        ids = {}
        model = family(photonic.Envelope.stack([r.envelope for r in stage]),
                       *np.array([r.consts for r in stage]).T)
        batch = fit_curve(
            model, stage[0].curve[0], np.array([r.curve[1] for r in stage]),
            groups=[ids.setdefault(r.group, len(ids)) for r in stage],
            near=[np.nan if r.near is None else r.near for r in stage])
        for k, res in zip(members, batch.results):
            out[k] = res
    return out


def unwrap(outcome):
    """A stacked stage's entry for one dataset: raise it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def calibrate_gamma(runs):
    """Estimate the mode-matching parameter γ of every run that has
    reference beam-splitter data, in one stacked fit.

    Every curve has its own shift, scanned around the warm calibration
    fit's when the run has one.  A fitted γ̃ within 0.05 outside [0, 1] is
    clipped into it, and one further out is a CalibrationOutOfRange.  Sets
    each run's γ, σ(γ) and calibration fit, or its error.
    """
    eps = 0.05
    requests = []
    for run in runs:
        ds, warm = run.dataset, run.warm
        if (run.error is not None or ds.calibration_single is None
                or ds.calibration_curve is None):
            continue
        try:
            alpha, _ = estimate_amplitudes(ds.calibration_single)
            reflectivity = reflectivity_from_alpha(alpha[1, 1])
        except InterferoError as exc:
            run.error = exc
            continue
        requests.append(_Request(
            ds.envelope(1, 2), (reflectivity,),
            tuple(np.asarray(v, dtype=float) for v in ds.calibration_curve),
            run, None if warm is None or warm.calibration_fit is None
            else warm.calibration_fit.shift))
    for req, fit in zip(requests,
                        _fit_stage(requests, calibration_curve_model)):
        run = req.group
        if isinstance(fit, FitFailure):
            run.error = fit
        elif not -eps <= fit.shape <= 1.0 + eps:
            run.error = CalibrationOutOfRange(
                "fitted mode matching outside [0, 1]",
                gamma=float(fit.shape), eps=eps)
        else:
            model = calibration_curve_model(req.envelope, req.consts[0])
            run.gamma = float(np.clip(fit.shape, 0.0, 1.0))
            run.gamma_sigma = float(param_sigmas(model, *req.curve, fit)[0])
            run.calibration_fit = fit


# ---------------------------------------------------------------------------
# argument magnitudes and signs
# ---------------------------------------------------------------------------
def _port_constants(alpha, gamma, ports):
    """(base, amp) constants of the coincidence curve on ports (a,i,b,j)."""
    a1, a2, b1, b2 = (p - 1 for p in ports)
    al = alpha
    base = (al[a1, b1] ** 2 * al[a2, b2] ** 2
            + al[a1, b2] ** 2 * al[a2, b1] ** 2)
    amp = (2.0 * gamma * al[a1, b1] * al[a1, b2]
           * al[a2, b1] * al[a2, b2])
    return base, amp


def sign_calc(beta, th_ref, th_a, th_b, abs_target):
    """Resolve sgn θ from a measured phase combination β ∈ [0, π].

    The candidates are β± = fold(th_ref − th_a − th_b ± |θ|); the sign of
    the candidate closer to β wins, 0 on an exact tie.
    """
    k = th_ref - th_a - th_b
    beta_plus = fold_angle(k + abs_target)
    beta_minus = fold_angle(k - abs_target)
    d = abs(beta - beta_minus) - abs(beta - beta_plus)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def reference_distance(k):
    """Distance of a folded phase combination from the degenerate set
    {0, π} where β⁺ and β⁻ coincide."""
    fk = fold_angle(k)
    return min(fk, np.pi - fk)


def _sweep(m):
    """Sign decisions in sweep order, as (i, j, default (a, b)) in the
    relabeled frame (0-based): second column, second row, interior."""
    items = [(i, 1, (1, 0)) for i in range(2, m)]
    items += [(1, j, (0, 1)) for j in range(2, m)]
    items += [(i, j, (1, 1)) for i in range(2, m) for j in range(2, m)]
    return items


class _Run:
    """One dataset's characterization, advanced stage by stage so that a
    stack of runs shares one batched fit per stage: ``start``, then
    ``calibrate_gamma``, then ``estimate_arguments`` (magnitudes, then
    signs), then ``result``.

    A ``warm`` Characterization lends its plan, and its fits' shifts as
    the centres of the shift scans.  The first failure is the error a
    one-dataset run raises; it ends the run.
    """

    def __init__(self, dataset, threshold, warm):
        self.dataset = dataset
        self.threshold = threshold
        self.warm = warm
        self.m = dataset.m
        self.plan = None if warm is None else warm.plan
        self.gamma, self.gamma_sigma, self.calibration_fit = 1.0, 0.0, None
        self.diagnostics = []
        self.fits = {}
        self.error = None

    def start(self):
        """Amplitude ratios, and the checks that need no fit."""
        ds = self.dataset
        try:
            missing = ds.missing_choice_keys()
            if missing:
                raise InsufficientData(
                    "dataset lacks required coincidence curves",
                    required=missing)
            self.alpha, sigma = estimate_amplitudes(ds.single_counts)
        except InterferoError as exc:
            self.error = exc
            return
        # only a point estimate reports it: bootstrap discards the
        # diagnostics of its (warm) replicates
        if self.warm is None:
            self.diagnostics.append(
                repetition_convergence(ds.single_counts, sigma))
        if ds.calibration_single is None or ds.calibration_curve is None:
            self.diagnostics.append({"type": "no-calibration-data",
                                     "gamma_assumed": 1.0})

    def request(self, ports):
        """The fit of the curve on ports (a,i,b,j); None if it is absent.
        The curves of one input pair (b, j) share a shift, scanned around
        the warm fit's shift when there is one."""
        data = self.dataset.curve(ports)
        if data is None:
            return None
        b, j = sorted(ports[2:])
        lent = {} if self.warm is None else self.warm.fits
        fit = lent.get(photonic.canonical_curve_key(ports))
        return _Request(self.dataset.envelope(b, j),
                        _port_constants(self.alpha, self.gamma, ports), data,
                        (self, b, j), None if fit is None else fit.shift)

    # ---- magnitudes --------------------------------------------------------
    def magnitude_requests(self):
        m = self.m
        self.magnitude_ports = []
        requests = []
        for i in range(2, m + 1):
            for j in range(2, m + 1):
                if self.alpha[i - 1, j - 1] == 0:
                    continue        # W_ij = 0 whatever θ_ij is: θ_ij = 0
                ports = (1, i, 1, j)
                self.magnitude_ports.append(ports)
                requests.append(self.request(ports))
        return requests

    def set_magnitudes(self, results):
        absth = np.zeros((self.m, self.m))
        for ports, fit in zip(self.magnitude_ports, results):
            if isinstance(fit, FitFailure):
                fit.details["ports"] = ports
                self.error = fit
                return
            absth[ports[1] - 1, ports[3] - 1] = fold_angle(fit.shape)
            self.fits[photonic.canonical_curve_key(ports)] = fit
        self._relabel(absth)

    # ---- relabeling ----------------------------------------------------------
    def _relabel(self, absth):
        """Relabel so the magnitude nearest π/2 is at (2,2)."""
        m = self.m
        if self.plan is None:
            sub = np.abs(absth[1:, 1:] - np.pi / 2)
            flat = int(np.argmin(sub))
            self.plan = {"relabel": (flat // (m - 1) + 2, flat % (m - 1) + 2),
                         "signs": {}}
        istar, jstar = self.plan["relabel"]
        po = np.arange(m)      # relabeled index -> original index (0-based)
        pi_ = np.arange(m)
        po[1], po[istar - 1] = po[istar - 1], po[1]
        pi_[1], pi_[jstar - 1] = pi_[jstar - 1], pi_[1]
        if istar != 2 or jstar != 2:
            self.diagnostics.append({"type": "relabel", "output": int(istar),
                                     "input": int(jstar)})
        self.po, self.pi_ = po, pi_
        self.rel_alpha = self.alpha[np.ix_(po, pi_)]
        self.rel_abs = absth[np.ix_(po, pi_)]
        self.rel_theta = np.zeros((m, m))
        self.known = np.zeros((m, m), dtype=bool)
        self.known[0, :] = True
        self.known[:, 0] = True
        self.rel_theta[1, 1] = self.rel_abs[1, 1]  # sign positive by convention
        self.known[1, 1] = True
        self.items = _sweep(m)

    def _tuple(self, i, j, default):
        return default if self.warm is None else self.plan["signs"][(i, j)]

    def orig_ports(self, a, i, b, j):
        """Map a relabeled-frame port tuple (0-based) to original labels."""
        po, pi_ = self.po, self.pi_
        return (int(po[a]) + 1, int(po[i]) + 1, int(pi_[b]) + 1,
                int(pi_[j]) + 1)

    def target(self, i, j):
        return (int(self.po[i]) + 1, int(self.pi_[j]) + 1)

    # ---- signs ---------------------------------------------------------------
    def sign_requests(self):
        """Fits for every sign decision: no fit depends on an earlier sign.
        A curve without an interference term is not fitted."""
        self.pending = []
        requests = []
        for i, j, default in self.items:
            a, b = self._tuple(i, j, default)
            req = None
            if not self._silent(i, j, (a, b)):
                req = self.request(self.orig_ports(a, i, b, j))
            self.pending.append((i, j, (a, b), req))
            if req is not None:
                requests.append(req)
        return requests

    def decide(self, results):
        """Decide the signs in sweep order from their fits, then map θ to
        the original labels."""
        results = iter(results)
        fits = [None if p[-1] is None else next(results)
                for p in self.pending]
        # the shift each input pair got in this stage
        self.pair_shift = {p[-1].group: fit.shift
                           for p, fit in zip(self.pending, fits)
                           if p[-1] is not None
                           and not isinstance(fit, FitFailure)}
        for (i, j, ab, _), fit in zip(self.pending, fits):
            try:
                self._decide(i, j, ab, fit)
            except InterferoError as exc:
                self.error = exc
                return
        self.theta = np.zeros((self.m, self.m))
        self.theta[np.ix_(self.po, self.pi_)] = self.rel_theta

    def _silent(self, i, j, ab):
        """Whether the curve of tuple (a, b) for target (i, j) has no
        interference term: one of its four amplitudes is zero."""
        a, b = ab
        al = self.rel_alpha
        return al[a, b] * al[a, j] * al[i, b] * al[i, j] == 0

    def _decide(self, i, j, ab, fit):
        theta = self.rel_theta
        if self.warm is None and self.rel_alpha[i, j] != 0:
            a, b = ab
            k_ref = theta[a, b] - theta[a, j] - theta[i, b]
            if self._silent(i, j, ab):
                k_ref = 0.0     # the default curve carries no θ_ij
            if reference_distance(k_ref) <= self.threshold:
                alt = self._mitigate(i, j, ab, k_ref)
                if alt != ab:       # alternates are fitted when chosen,
                    ab = alt        # around their input pair's shift
                    req = self.request(self.orig_ports(alt[0], i, alt[1], j))
                    req = req._replace(near=self.pair_shift.get(req.group))
                    fit = _fit_stage([req], cosine_curve_model)[0]
        if self.warm is None:
            self.plan["signs"][(i, j)] = ab
        if self._silent(i, j, ab):
            # W_ij = 0 whatever θ_ij is, or no curve with an interference
            # term carries θ_ij: its sign is positive, as on a tie
            theta[i, j] = self.rel_abs[i, j]
            self.known[i, j] = True
            return
        a, b = ab
        ports = self.orig_ports(a, i, b, j)
        key = photonic.canonical_curve_key(ports)
        if fit is None:
            raise InsufficientData("missing coincidence curve for sign",
                                   required=[key])
        if isinstance(fit, FitFailure):
            fit.details["ports"] = ports
            raise fit
        self.fits[key] = fit
        # ports are in original labels, so the fit used the original alpha
        s = sign_calc(fold_angle(fit.shape), theta[a, b], theta[a, j],
                      theta[i, b], self.rel_abs[i, j])
        if s == 0:
            # at |θ| = 0 or π the sign cannot change W: no tie to report
            if reference_distance(self.rel_abs[i, j]) > 1e-9:
                self.diagnostics.append(
                    {"type": "sign-tie", "target": self.target(i, j)})
            s = 1
        theta[i, j] = s * self.rel_abs[i, j]
        self.known[i, j] = True

    def _mitigate(self, i, j, default_ab, k_default):
        m = self.m
        theta, known, rel_alpha = self.rel_theta, self.known, self.rel_alpha
        ref_default = reference_distance(k_default)
        candidates = []
        for a in range(m):
            for b in range(m):
                if a == i or b == j or (a, b) == default_ab:
                    continue
                if not (known[a, b] and known[a, j] and known[i, b]):
                    continue
                if (rel_alpha[a, b] * rel_alpha[a, j] * rel_alpha[i, b]
                        * rel_alpha[i, j]) < 1e-9:
                    continue
                k = theta[a, b] - theta[a, j] - theta[i, b]
                candidates.append((reference_distance(k), a, b))
        candidates.sort(reverse=True)
        good = [c for c in candidates
                if c[0] > max(self.threshold, ref_default)]
        for ref, a, b in good:
            if self.dataset.curve(self.orig_ports(a, i, b, j)) is not None:
                self.diagnostics.append({
                    "type": "sign-rederived",
                    "target": self.target(i, j),
                    "reference_distance": float(ref_default),
                    "alternate": self.orig_ports(a, i, b, j),
                    "alternate_distance": float(ref)})
                return a, b
        if good:
            raise InsufficientData(
                "instability mitigation needs curves that are absent",
                required=[photonic.canonical_curve_key(
                    self.orig_ports(a, i, b, j)) for _, a, b in good])
        self.diagnostics.append({
            "type": "sign-unstable",
            "target": self.target(i, j),
            "reference_distance": float(ref_default)})
        return default_ab

    def result(self):
        """The run's Characterization, or the error that ended it."""
        if self.error is not None:
            return self.error
        try:
            w = max_likely_unitary(self.alpha, self.theta)
        except (InterferoError, np.linalg.LinAlgError) as exc:
            return exc
        return Characterization(w, self.alpha, self.theta, self.gamma,
                                self.gamma_sigma, self.plan, self.fits,
                                self.calibration_fit, self.diagnostics)


def _batched_stage(runs, requests_of, consume):
    """One stage over a stack: the requests of every run without an error
    in one stacked fit."""
    runs = [run for run in runs if run.error is None]
    per_run = [requests_of(run) for run in runs]
    results = iter(_fit_stage([r for reqs in per_run for r in reqs],
                              cosine_curve_model))
    for run, reqs in zip(runs, per_run):
        consume(run, [next(results) for _ in reqs])


def estimate_arguments(runs):
    """Full argument matrices θ̃ with first row/column ≡ 0 and sgn θ₂₂ = +1
    for every run without an error, from its α̃ and γ.

    Magnitudes come from two-port curves against the reference ports;
    signs follow the standard sweep (second column, second row, interior)
    after relabeling ports so the magnitude nearest π/2 sits at (2,2).
    Sign decisions whose reference combination lies within the run's
    threshold of {0, π} are re-derived from the best available alternate
    port pair.

    The magnitudes of all runs are one stacked fit, and so are the sign
    fits.  Within a stage, the curves of one run's input pair share one
    shift.  Sets each run's θ, plan, fits and diagnostics, or its error.
    A warm run reuses the warm plan's relabeling and tuple choices, and
    scans a window around each of the warm fits' shifts.
    """
    _batched_stage(runs, _Run.magnitude_requests, _Run.set_magnitudes)
    _batched_stage(runs, _Run.sign_requests, _Run.decide)


# ---------------------------------------------------------------------------
# maximum-likelihood unitary
# ---------------------------------------------------------------------------
def max_likely_unitary(alpha, theta):
    """Recover the representative unitary from (α̃, θ̃).

    The diagonal dressings solve A·μ = e₁ and A†·λ = e₁/μ₁ (λ₁ ≡ 1); the
    dressed matrix is projected onto the unitary group and canonicalized.
    """
    a = np.asarray(alpha, dtype=float) * np.exp(1j * np.asarray(theta))
    m = a.shape[0]
    e1 = np.zeros(m)
    e1[0] = 1.0
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise DegenerateAmplitudes("amplitude matrix numerically singular",
                                   cond=float(cond))
    mu = np.linalg.solve(a, e1)
    if abs(mu[0]) < 1e-300:
        raise DegenerateAmplitudes("vanishing first dressing element")
    lam = np.linalg.solve(a.conj().T, e1 / mu[0])
    lam = lam / lam[0]
    # noise can make a real part negative; its magnitude keeps the row or
    # column of the dressed matrix that a zero would empty
    mu_r = np.abs(np.real(mu))
    lam_r = np.abs(np.real(lam))
    dressed = np.sqrt(lam_r)[:, None] * a * np.sqrt(mu_r)[None, :]
    w = linalg.nearest_unitary(dressed)
    return linalg.canonicalize_representative(w)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
class Characterization:
    """Representative W with the α̃ and θ̃ it came from, γ with σ(γ), the
    plan and fits that bootstrap replicates reuse, the diagnostics, and
    σ(Re W), σ(Im W): None until a bootstrap sets them."""

    def __init__(self, w, alpha, theta, gamma, gamma_sigma, plan, fits,
                 calibration_fit, diagnostics):
        self.w = w
        self.alpha = alpha
        self.theta = theta
        self.gamma = gamma
        self.gamma_sigma = gamma_sigma
        self.plan = plan
        self.fits = fits
        self.calibration_fit = calibration_fit
        self.diagnostics = diagnostics
        self.sigma_re = self.sigma_im = None


def characterize_dataset(datasets, threshold=0.1, warm=None):
    """Point-estimate pipeline, amplitudes → calibration → arguments → W,
    on a list of datasets at once.

    Each dataset is one run.  The runs start together, then go through the
    stages ``calibrate_gamma`` and ``estimate_arguments``, each fitting
    stage (calibration, magnitudes, signs) one stacked fit over every run
    still without an error, so each dataset gets the result it gets alone.
    A ``warm`` point estimate lends its plan, and its fits' shifts as the
    centres of the shift scans.  Returns each dataset's Characterization
    or the error it raised; ``unwrap`` raises it.
    """
    runs = [_Run(ds, threshold, warm) for ds in datasets]
    for run in runs:
        run.start()
    calibrate_gamma(runs)
    estimate_arguments(runs)
    return [run.result() for run in runs]


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------
MAX_REPLICATE_FAILURE_RATE = 0.1


def _resample_curve(curve, fit, rng):
    """Replicate of a measured curve (τ, C) from its fit alone:
    C^fit·(1 + resampled relative residuals), C^fit = C − residuals."""
    tau, counts = curve
    fitted = np.asarray(counts, dtype=float) - fit.residuals
    norm = fit.residuals / np.maximum(fitted, 1e-300)
    shuffled = rng.choice(norm, size=len(norm), replace=True)
    return tau, fitted * (1.0 + shuffled)


def bootstrap(dataset, n_replicates=100, seed=0, threshold=0.1):
    """Error bars by residual resampling around the point estimate.

    Each replicate resamples the single-count repetitions with replacement
    and rebuilds every fitted curve, the calibration curve among them,
    from the values its fit produced plus resampled relative residuals,
    then re-runs the pipeline with the point estimate's plan, scanning
    each shift in a window around the point estimate's.  All replicates
    are built first and run through the pipeline as one stack, so each
    fitting stage is one batched fit over every replicate; a replicate
    that fails drops out on its own, and more than
    MAX_REPLICATE_FAILURE_RATE failing is a BootstrapUnstable.
    Returns the point estimate's Characterization, on which σ(Re W),
    σ(Im W) and σ(γ) are set to standard deviations over the rest.
    """
    point = unwrap(characterize_dataset([dataset], threshold=threshold)[0])
    cal_single = dataset.calibration_single
    replicates = []
    for idx in range(n_replicates):
        rng = np.random.default_rng([int(seed), idx])
        pick = rng.integers(0, dataset.n_blocks, dataset.n_blocks)
        curves = dict(dataset.coincidence)
        for key, fit in point.fits.items():
            curves[key] = _resample_curve(dataset.coincidence[key], fit, rng)
        replicates.append(CharacterizationDataset(
            dataset.single_counts[:, :, pick], curves, dataset.spectra,
            calibration_single=None if cal_single is None
            else cal_single[:, :, pick % cal_single.shape[2]],
            calibration_curve=None if point.calibration_fit is None
            else _resample_curve(dataset.calibration_curve,
                                 point.calibration_fit, rng)))

    ws, gammas, failures = [], [], []
    for idx, est in enumerate(characterize_dataset(
            replicates, threshold, warm=point)):
        if isinstance(est, Exception):
            failures.append({"replicate": idx, "error": str(est),
                             "class": type(est).__name__})
        else:
            ws.append(est.w)
            gammas.append(est.gamma)
    rate = len(failures) / n_replicates
    if rate > MAX_REPLICATE_FAILURE_RATE:
        raise BootstrapUnstable("too many replicate failures",
                                failure_rate=rate, failures=failures[:20])
    # the replicates are done with the point estimate: it takes the σs
    stack = np.array(ws)
    ddof = 1 if len(ws) > 1 else 0
    point.sigma_re = np.std(np.real(stack), axis=0, ddof=ddof)
    point.sigma_im = np.std(np.imag(stack), axis=0, ddof=ddof)
    point.gamma_sigma = float(np.std(gammas, ddof=ddof)) if gammas else 0.0
    if failures:
        by_class = Counter(f["class"] for f in failures)
        point.diagnostics.append({"type": "bootstrap-failures",
                                  "count": len(failures),
                                  "by_class": dict(sorted(by_class.items())),
                                  "log": failures[:20]})
    return point
