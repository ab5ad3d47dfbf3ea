"""Interferometer characterization from photon-counting data.

Pipeline: amplitude ratios from single-photon counts, mode-matching
calibration on a reference beam splitter, argument magnitudes and signs
from two-photon coincidence curves (with port relabeling and an
instability-mitigation rule for near-degenerate phase references),
maximum-likelihood recovery of the representative unitary, and bootstrap
error bars by residual resampling.
"""
from collections import Counter, namedtuple

import numpy as np

from . import linalg, photonic
from .curvefit import (CurveModel, fit_curve, fold_angle, param_sigmas,
                       SHAPE_SEEDS)
from .errors import (BootstrapUnstable, CalibrationOutOfRange,
                     DegenerateAmplitudes, DivisionByZeroCount, FitFailure,
                     InsufficientData, InterferoError, ParseError, PortError)


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------
def required_choice_keys(m):
    """Canonical keys of every coincidence curve the argument sweep may
    consume without relabeling: ports (i,i',j,j') with i,j ∈ {1,2}."""
    keys = set()
    for i in (1, 2):
        for i2 in range(1, m + 1):
            for j in (1, 2):
                for j2 in range(1, m + 1):
                    if i != i2 and j != j2:
                        keys.add(photonic.canonical_curve_key((i, i2, j, j2)))
    return keys


def all_curve_keys(m):
    """Every distinct canonical coincidence key on m ports."""
    keys = set()
    for i in range(1, m + 1):
        for i2 in range(1, m + 1):
            for j in range(1, m + 1):
                for j2 in range(1, m + 1):
                    if i != i2 and j != j2:
                        keys.add(photonic.canonical_curve_key((i, i2, j, j2)))
    return keys


class CharacterizationDataset:
    """Raw data for one characterization run.

    single_counts: (m, m, B) array N[i-1, j-1, b-1] of detection counts for
    input j, output i, repetition b.  coincidence maps canonical port keys
    to (tau, counts) pairs.  spectra is one SpectralFunction per input port.
    The calibration fields hold the reference beam-splitter data.
    """

    def __init__(self, single_counts, coincidence, spectra,
                 calibration_single=None, calibration_curve=None,
                 calibration_spectra=None):
        self.single_counts = np.asarray(single_counts, dtype=float)
        assert self.single_counts.ndim == 3
        self.m = self.single_counts.shape[0]
        assert self.single_counts.shape[0] == self.single_counts.shape[1]
        self.n_blocks = self.single_counts.shape[2]
        self.coincidence = {photonic.canonical_curve_key(k):
                            (np.asarray(v[0], dtype=float),
                             np.asarray(v[1], dtype=float))
                            for k, v in coincidence.items()}
        self.spectra = list(spectra)
        assert len(self.spectra) == self.m
        self.calibration_single = (None if calibration_single is None
                                   else np.asarray(calibration_single, dtype=float))
        self.calibration_curve = calibration_curve
        self.calibration_spectra = calibration_spectra
        self._envelopes = {}

    def curve(self, ports):
        return self.coincidence.get(photonic.canonical_curve_key(ports))

    def envelope(self, j, j2):
        """Cached normalized overlap envelope Q for input ports (j, j')."""
        key = (min(j, j2), max(j, j2))
        if key not in self._envelopes:
            q, _ = photonic.cross_envelope(self.spectra[key[0] - 1],
                                           self.spectra[key[1] - 1])
            self._envelopes[key] = q
        return self._envelopes[key]

    def calibration_envelope(self):
        """Cached overlap envelope of the calibration spectra (the first
        two input spectra when the dataset names none)."""
        if "calibration" not in self._envelopes:
            spectra = self.calibration_spectra
            if spectra is None:
                spectra = (self.spectra[0], self.spectra[1])
            self._envelopes["calibration"], _ = photonic.cross_envelope(
                *spectra)
        return self._envelopes["calibration"]

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
    """
    n = np.asarray(single_counts, dtype=float)
    m, _, n_blocks = n.shape
    for b in range(n_blocks):
        for j in range(m):
            if n[0, j, b] == 0:
                raise DivisionByZeroCount("zero reference count",
                                          output=1, input=j + 1, repetition=b + 1)
        for i in range(m):
            if n[i, 0, b] == 0:
                raise DivisionByZeroCount("zero reference count",
                                          output=i + 1, input=1, repetition=b + 1)
    alpha = np.ones((m, m))
    sigma = np.zeros((m, m))
    for i in range(1, m):
        for j in range(1, m):
            left = np.sqrt(n[0, 0, :] / n[i, 0, :])     # indexed by b₁
            right = np.sqrt(n[i, j, :] / n[0, j, :])    # indexed by b_j
            vals = np.outer(left, right).ravel()
            alpha[i, j] = float(np.mean(vals))
            sigma[i, j] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return alpha, sigma


def repetition_convergence(single_counts, limit=0.2):
    """Post-hoc check that the repetition count B is large enough: the
    amplitude standard deviations from the first half of the blocks must
    agree with the full-B estimate within the given relative change."""
    n = np.asarray(single_counts, dtype=float)
    n_blocks = n.shape[2]
    if n_blocks < 4:
        return {"type": "repetition-convergence", "status": "skipped",
                "n_blocks": int(n_blocks)}
    _, sig_half = estimate_amplitudes(n[:, :, : n_blocks // 2])
    _, sig_full = estimate_amplitudes(n)
    a = float(np.mean(sig_half))
    b = float(np.mean(sig_full))
    rel = abs(a - b) / b if b > 1e-9 else 0.0
    status = "ok" if rel <= limit else "warning"
    return {"type": "repetition-convergence", "status": status,
            "relative_change": rel, "n_blocks": int(n_blocks)}


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
def reflectivity_from_alpha(alpha22):
    """Invert α₂₂ = cot²ϑ for the beam-splitter reflectivity cos ϑ."""
    assert alpha22 >= 0
    return float(np.sqrt(alpha22 / (1.0 + alpha22)))


def _column(const):
    """Per-curve constants as an (N, 1) column for stacked shape terms."""
    return np.reshape(np.asarray(const, dtype=float), (-1, 1))


def cosine_curve_model(q, base_const, amp_const):
    """C(τ) = scale·(base + amp_const·cos(shape)·Q(τ−shift)): the common
    form of every coincidence curve with the phase combination as shape.
    The constants may be arrays, one entry per curve of a stacked ``q``."""
    base_c, amp_c = _column(base_const), _column(amp_const)
    return CurveModel(
        q,
        base=lambda s: base_c,
        amp=lambda s: amp_c * np.cos(s),
        dbase=lambda s: 0.0,
        damp=lambda s: -amp_c * np.sin(s),
    )


def calibration_curve_model(q, cos_vartheta):
    """Reference beam-splitter coincidence with γ as the shape parameter:
    C(τ) = scale·(c⁴ + s⁴ − 2γc²s²·Q(τ−shift)).  ``cos_vartheta`` may be
    an array, one entry per curve of a stacked ``q``."""
    c2 = _column(cos_vartheta) ** 2
    s2 = 1.0 - c2
    base_const = c2 ** 2 + s2 ** 2
    amp_const = -2.0 * c2 * s2
    return CurveModel(
        q,
        base=lambda g: base_const,
        amp=lambda g: amp_const * g,
        dbase=lambda g: 0.0,
        damp=lambda g: amp_const,
    )


# one curve of a pipeline stage: the constants are the model family's
# per-curve arguments after the envelope
_Request = namedtuple("_Request", "envelope consts curve seeds")


def _fit_stage(requests, family):
    """Fit every request of one pipeline stage with the model ``family``.

    Requests that share a τ grid, an ω grid and a start count go through
    fit_curve as one stacked fit.  Returns each request's FitResult or
    FitFailure, in request order.
    """
    groups = {}
    for k, req in enumerate(requests):
        key = (req.curve[0].tobytes(), req.envelope.grid.tobytes(),
               len(req.seeds))
        groups.setdefault(key, []).append(k)
    out = [None] * len(requests)
    for members in groups.values():
        group = [requests[k] for k in members]
        model = family(photonic.Envelope.stack([r.envelope for r in group]),
                       *np.array([r.consts for r in group]).T)
        batch = fit_curve(model, group[0].curve[0],
                          np.array([r.curve[1] for r in group]),
                          seeds=np.array([r.seeds for r in group]))
        for k, res in zip(members, batch.results):
            out[k] = res
    return out


def _unwrap(outcome):
    """A stacked stage's entry for one dataset: raise it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def calibrate_gamma(calibration_single, calibration_curve, q,
                    eps=0.05, warm=None):
    """Estimate the mode-matching parameter γ from the reference
    beam-splitter data; returns (γ̃, σ(γ̃), fit).

    Lists of singles, curves and envelopes, one entry per dataset (``warm``
    shared), calibrate every dataset in one stacked fit; the list returned
    holds each dataset's (γ̃, σ(γ̃), fit) or the InterferoError it raised.
    """
    stacked = isinstance(calibration_single, list)
    if not stacked:
        calibration_single, calibration_curve, q = (
            [calibration_single], [calibration_curve], [q])
    seeds = (warm,) if warm is not None else SHAPE_SEEDS
    out = [None] * len(calibration_single)
    owners, requests = [], []
    for k, (singles, curve, env) in enumerate(
            zip(calibration_single, calibration_curve, q)):
        try:
            alpha, _ = estimate_amplitudes(singles)
        except InterferoError as exc:
            out[k] = exc
            continue
        curve = tuple(np.asarray(v, dtype=float) for v in curve)
        owners.append(k)
        requests.append(_Request(env, (reflectivity_from_alpha(alpha[1, 1]),),
                                 curve, seeds))
    for k, req, fit in zip(owners, requests,
                           _fit_stage(requests, calibration_curve_model)):
        if isinstance(fit, FitFailure):
            out[k] = fit
            continue
        gamma = fit.shape
        if not -eps <= gamma <= 1.0 + eps:
            out[k] = CalibrationOutOfRange(
                "fitted mode matching outside [0, 1]",
                gamma=float(gamma), eps=eps)
            continue
        model = calibration_curve_model(req.envelope, req.consts[0])
        sigma = float(param_sigmas(model, *req.curve, fit)[0])
        out[k] = (float(np.clip(gamma, 0.0, 1.0)), sigma, fit)
    return out if stacked else _unwrap(out[0])


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


def port_curve_model(dataset, ports, alpha, gamma):
    """Model of the coincidence curve on ports (a,i,b,j), whose shape is
    the phase combination β of the four paths."""
    return cosine_curve_model(dataset.envelope(ports[2], ports[3]),
                              *_port_constants(alpha, gamma, ports))


def estimate_argument_magnitude(dataset, i, j, alpha, gamma, warm=None):
    """|θ̃_ij| ∈ [0, π] from the coincidence curve on ports (1,i,1,j),
    whose phase combination reduces to θ_ij itself."""
    ports = (1, i, 1, j)
    data = dataset.curve(ports)
    if data is None:
        raise InsufficientData("missing coincidence curve",
                               required=[photonic.canonical_curve_key(ports)])
    seeds = (warm,) if warm is not None else None
    try:
        fit = fit_curve(port_curve_model(dataset, ports, alpha, gamma),
                        data[0], data[1], seeds=seeds)
    except FitFailure as exc:
        exc.details["ports"] = ports
        raise
    return fold_angle(fit.shape), fit


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


class _ArgumentSweep:
    """One dataset's argument estimate, advanced stage by stage so that a
    stack of datasets shares one batched fit per stage.

    A failure is held with its position in the stage; the earliest one is
    the error a one-dataset run raises, and decisions after it are skipped.
    """

    def __init__(self, dataset, alpha, gamma, threshold, plan, warm_theta):
        self.dataset = dataset
        self.alpha = alpha
        self.gamma = gamma
        self.threshold = threshold
        self.plan = plan
        self.warm_theta = warm_theta
        self.m = dataset.m
        self.diagnostics = []
        self.sweep_diagnostics = []     # (sweep position, entry)
        self.fits = {}
        self.error = None
        self.error_at = np.inf

    def fail(self, at, exc):
        if at < self.error_at:
            self.error, self.error_at = exc, at

    def request(self, ports, warm):
        """The fit of the curve on ports (a,i,b,j); None if it is absent."""
        data = self.dataset.curve(ports)
        if data is None:
            return None
        return _Request(self.dataset.envelope(ports[2], ports[3]),
                        _port_constants(self.alpha, self.gamma, ports), data,
                        SHAPE_SEEDS if warm is None else (warm,))

    # ---- magnitudes --------------------------------------------------------
    def magnitude_requests(self):
        m = self.m
        self.magnitude_ports = []
        requests = []
        for i in range(2, m + 1):
            for j in range(2, m + 1):
                ports = (1, i, 1, j)
                warm = None
                if self.warm_theta is not None:
                    warm = abs(self.warm_theta[i - 1, j - 1])
                req = self.request(ports, warm)
                if req is None:
                    self.fail(len(requests), InsufficientData(
                        "missing coincidence curve",
                        required=[photonic.canonical_curve_key(ports)]))
                    return requests
                self.magnitude_ports.append(ports)
                requests.append(req)
        return requests

    def set_magnitudes(self, results):
        absth = np.zeros((self.m, self.m))
        for at, (ports, fit) in enumerate(zip(self.magnitude_ports, results)):
            if isinstance(fit, FitFailure):
                fit.details["ports"] = ports
                self.fail(at, fit)
                break
            absth[ports[1] - 1, ports[3] - 1] = fold_angle(fit.shape)
            self.fits[photonic.canonical_curve_key(ports)] = fit
        if self.error is not None:
            self.error_at = -1          # no sign decision follows
            return
        self._relabel(absth)

    # ---- relabeling and sign levels ------------------------------------------
    def _relabel(self, absth):
        """Relabel so the magnitude nearest π/2 is at (2,2)."""
        m = self.m
        if self.plan is not None:
            istar, jstar = self.plan["relabel"]
        else:
            sub = np.abs(absth[1:, 1:] - np.pi / 2)
            flat = int(np.argmin(sub))
            istar = flat // (m - 1) + 2
            jstar = flat % (m - 1) + 2
        po = np.arange(m)      # relabeled index -> original index (0-based)
        pi_ = np.arange(m)
        po[1], po[istar - 1] = po[istar - 1], po[1]
        pi_[1], pi_[jstar - 1] = pi_[jstar - 1], pi_[1]
        if istar != 2 or jstar != 2:
            self.diagnostics.append({"type": "relabel", "output": int(istar),
                                     "input": int(jstar)})
        self.relabel = (istar, jstar)
        self.po, self.pi_ = po, pi_
        self.rel_alpha = self.alpha[np.ix_(po, pi_)]
        self.rel_abs = absth[np.ix_(po, pi_)]
        self.warm_rel = None
        if self.warm_theta is not None:
            self.warm_rel = self.warm_theta[np.ix_(po, pi_)]
        self.theta = np.zeros((m, m))
        self.known = np.zeros((m, m), dtype=bool)
        self.known[0, :] = True
        self.known[:, 0] = True
        self.theta[1, 1] = self.rel_abs[1, 1]   # sign positive by convention
        self.known[1, 1] = True
        self.sign_plan = {} if self.plan is None else self.plan["signs"]
        self.items = _sweep(m)
        self.levels = self._levels()

    def _tuple(self, i, j, default):
        return default if self.plan is None else self.sign_plan[(i, j)]

    def _levels(self):
        """Dependency level of each sign decision.  Without warm starts no
        fit depends on earlier signs, so every fit is on level 0; with them
        a decision waits for the signs its warm start combines."""
        if self.warm_theta is None:
            return [0] * len(self.items)
        level = {}
        for i, j, default in self.items:
            a, b = self._tuple(i, j, default)
            deps = [level[d] for d in ((a, b), (a, j), (i, b)) if d in level]
            level[(i, j)] = 1 + max(deps, default=-1)
        return [level[(i, j)] for i, j, _ in self.items]

    def orig_ports(self, a, i, b, j):
        """Map a relabeled-frame port tuple (0-based) to original labels."""
        po, pi_ = self.po, self.pi_
        return (int(po[a]) + 1, int(po[i]) + 1, int(pi_[b]) + 1,
                int(pi_[j]) + 1)

    def target(self, i, j):
        return (int(self.po[i]) + 1, int(self.pi_[j]) + 1)

    def _warm_phi(self, a, b, i, j):
        if self.warm_rel is None:
            return None
        th = self.theta
        return th[a, b] - th[a, j] - th[i, b] + self.warm_rel[i, j]

    # ---- signs ---------------------------------------------------------------
    def sign_requests(self, level):
        """Fits for the sign decisions on one dependency level."""
        self.pending = []
        requests = []
        for pos, (i, j, default) in enumerate(self.items):
            if self.levels[pos] != level or pos > self.error_at:
                continue
            a, b = self._tuple(i, j, default)
            req = self.request(self.orig_ports(a, i, b, j),
                               self._warm_phi(a, b, i, j))
            self.pending.append((pos, i, j, (a, b), req))
            if req is not None:
                requests.append(req)
        return requests

    def decide(self, results):
        """Decide the level's signs in sweep order from its fits."""
        results = iter(results)
        for pos, i, j, ab, req in self.pending:
            fit = None if req is None else next(results)
            if pos > self.error_at:
                continue
            try:
                self._decide(pos, i, j, ab, fit)
            except InterferoError as exc:
                self.fail(pos, exc)

    def _decide(self, pos, i, j, ab, fit):
        theta = self.theta
        if self.plan is None:
            a, b = ab
            k_ref = theta[a, b] - theta[a, j] - theta[i, b]
            if reference_distance(k_ref) <= self.threshold:
                alt = self._mitigate(pos, i, j, ab, k_ref)
                if alt != ab:       # alternates are fitted when chosen
                    ab = alt
                    fit = _fit_stage([self.request(
                        self.orig_ports(alt[0], i, alt[1], j),
                        self._warm_phi(alt[0], alt[1], i, j))],
                        cosine_curve_model)[0]
            self.sign_plan[(i, j)] = ab
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
            if self.rel_abs[i, j] > 1e-9:
                self.sweep_diagnostics.append(
                    (pos, {"type": "sign-tie", "target": self.target(i, j)}))
            s = 1
        theta[i, j] = s * self.rel_abs[i, j]
        self.known[i, j] = True

    def _mitigate(self, pos, i, j, default_ab, k_default):
        m = self.m
        theta, known, rel_alpha = self.theta, self.known, self.rel_alpha
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
                self.sweep_diagnostics.append((pos, {
                    "type": "sign-rederived",
                    "target": self.target(i, j),
                    "reference_distance": float(ref_default),
                    "alternate": self.orig_ports(a, i, b, j),
                    "alternate_distance": float(ref)}))
                return a, b
        if good:
            raise InsufficientData(
                "instability mitigation needs curves that are absent",
                required=[photonic.canonical_curve_key(
                    self.orig_ports(a, i, b, j)) for _, a, b in good])
        self.sweep_diagnostics.append((pos, {
            "type": "sign-unstable",
            "target": self.target(i, j),
            "reference_distance": float(ref_default)}))
        return default_ab

    def result(self):
        if self.error is not None:
            return self.error
        out = np.zeros((self.m, self.m))
        out[np.ix_(self.po, self.pi_)] = self.theta
        ordered = sorted(self.sweep_diagnostics, key=lambda e: e[0])
        diagnostics = self.diagnostics + [d for _, d in ordered]
        plan_out = {"relabel": self.relabel, "signs": self.sign_plan}
        return out, diagnostics, plan_out, self.fits


def _batched_stage(sweeps, requests_of, consume):
    """One stage over a stack: every sweep's requests in one stacked fit."""
    per_sweep = [requests_of(sw) for sw in sweeps]
    results = iter(_fit_stage([r for reqs in per_sweep for r in reqs],
                              cosine_curve_model))
    for sw, reqs in zip(sweeps, per_sweep):
        consume(sw, [next(results) for _ in reqs])


def estimate_arguments(dataset, alpha, gamma, threshold=0.1, plan=None,
                       warm_theta=None):
    """Full argument matrix θ̃ with first row/column ≡ 0 and sgn θ₂₂ = +1.

    Magnitudes come from two-port curves against the reference ports;
    signs follow the standard sweep (second column, second row, interior)
    after relabeling ports so the magnitude nearest π/2 sits at (2,2).
    Sign decisions whose reference combination lies within ``threshold`` of
    {0, π} are re-derived from the best available alternate port pair.

    Returns (theta, diagnostics, plan, fits); pass ``plan`` back in to
    reuse the relabeling and tuple choices (bootstrap replicates).

    Lists of datasets, alphas and gammas (``plan`` and ``warm_theta``
    shared) are estimated together: the magnitudes are one stacked fit, and
    so is each dependency level of sign fits.  The list returned holds each
    dataset's result or the InterferoError it raised.
    """
    stacked = isinstance(dataset, list)
    if not stacked:
        dataset, alpha, gamma = [dataset], [alpha], [gamma]
    sweeps = [_ArgumentSweep(ds, a, g, threshold, plan, warm_theta)
              for ds, a, g in zip(dataset, alpha, gamma)]
    _batched_stage(sweeps, _ArgumentSweep.magnitude_requests,
                   _ArgumentSweep.set_magnitudes)
    live = [sw for sw in sweeps if sw.error is None]
    n_levels = 1 + max((lv for sw in live for lv in sw.levels), default=-1)
    for level in range(n_levels):
        _batched_stage(live, lambda sw, level=level: sw.sign_requests(level),
                       _ArgumentSweep.decide)
    out = [sw.result() for sw in sweeps]
    return out if stacked else _unwrap(out[0])


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
    mu_r = np.maximum(np.real(mu), 1e-300)
    lam_r = np.maximum(np.real(lam), 1e-300)
    dressed = np.sqrt(lam_r)[:, None] * a * np.sqrt(mu_r)[None, :]
    w = linalg.nearest_unitary(dressed)
    return linalg.canonicalize_representative(w)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
class PointEstimate:
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


class CharacterizedInterferometer:
    """Final characterization result: representative W with bootstrap
    error bars on its real and imaginary parts, the fitted mode-matching
    parameter and the accumulated diagnostics."""

    def __init__(self, w, sigma_re, sigma_im, gamma, gamma_sigma,
                 diagnostics):
        self.w = w
        self.sigma_re = sigma_re
        self.sigma_im = sigma_im
        self.gamma = gamma
        self.gamma_sigma = gamma_sigma
        self.diagnostics = diagnostics


def characterize_dataset(dataset, threshold=0.1, gamma_override=None,
                         warm=None):
    """Point-estimate pipeline: amplitudes → calibration → arguments → W."""
    return _unwrap(_characterize_stack([dataset], threshold, gamma_override,
                                       warm)[0])


def _characterize_stack(datasets, threshold, gamma_override, warm):
    """Run the point-estimate pipeline on several datasets at once.

    Each fitting stage (calibration, magnitudes, each level of sign fits)
    is one stacked fit over every dataset still running.  Returns each
    dataset's PointEstimate or the error it raised.
    """
    out = [None] * len(datasets)
    running = {}        # index -> [diagnostics, alpha, gamma, σ(γ), fit]
    for k, ds in enumerate(datasets):
        try:
            missing = ds.missing_choice_keys()
            if missing:
                raise InsufficientData(
                    "dataset lacks required coincidence curves",
                    required=missing)
            diagnostics = [repetition_convergence(ds.single_counts)]
            alpha, _alpha_sigma = estimate_amplitudes(ds.single_counts)
        except InterferoError as exc:
            out[k] = exc
            continue
        gamma = 1.0 if gamma_override is None else float(gamma_override)
        running[k] = [diagnostics, alpha, gamma, 0.0, None]

    calibrated = [k for k in running if gamma_override is None
                  and datasets[k].calibration_single is not None
                  and datasets[k].calibration_curve is not None]
    if calibrated:
        results = calibrate_gamma(
            [datasets[k].calibration_single for k in calibrated],
            [datasets[k].calibration_curve for k in calibrated],
            [datasets[k].calibration_envelope() for k in calibrated],
            warm=None if warm is None else warm.gamma)
        for k, res in zip(calibrated, results):
            if isinstance(res, InterferoError):
                out[k] = res
                del running[k]
            else:
                running[k][2:] = res
    for k, state in running.items():
        if gamma_override is None and k not in calibrated:
            state[0].append({"type": "no-calibration-data",
                             "gamma_assumed": 1.0})

    keys = list(running)
    results = estimate_arguments(
        [datasets[k] for k in keys], [running[k][1] for k in keys],
        [running[k][2] for k in keys], threshold=threshold,
        plan=None if warm is None else warm.plan,
        warm_theta=None if warm is None else warm.theta) if keys else []
    for k, res in zip(keys, results):
        diagnostics, alpha, gamma, gamma_sigma, cal_fit = running[k]
        try:
            theta, arg_diag, plan, fits = _unwrap(res)
            w = max_likely_unitary(alpha, theta)
        except (InterferoError, np.linalg.LinAlgError) as exc:
            out[k] = exc
            continue
        diagnostics.extend(arg_diag)
        out[k] = PointEstimate(w, alpha, theta, gamma, gamma_sigma, plan,
                               fits, cal_fit, diagnostics)
    return out


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------
def _resample_curve(tau, counts, fit, model_curve, rng):
    """Replicate curve: C^fit·(1 + resampled normalized residuals)."""
    norm = fit.residuals / np.maximum(model_curve, 1e-300)
    shuffled = rng.choice(norm, size=len(norm), replace=True)
    return tau, model_curve * (1.0 + shuffled)


def bootstrap(dataset, n_replicates=100, seed=0, threshold=0.1,
              gamma_override=None, max_failure_rate=0.1):
    """Error bars by residual resampling around the point estimate.

    Each replicate resamples the single-count repetitions with replacement
    and rebuilds every consumed coincidence curve from its fitted model
    plus resampled normalized residuals, then re-runs the pipeline
    warm-started from the point estimate.  All replicates are built first
    and run through the pipeline as one stack, so each fitting stage is one
    batched fit over every replicate; a replicate that fails drops out on
    its own.  σ(Re W), σ(Im W) and σ(γ) are standard deviations over the
    successful replicates.
    """
    point = characterize_dataset(dataset, threshold=threshold,
                                 gamma_override=gamma_override)
    model_curves = {}
    for key, fit in point.fits.items():
        model = port_curve_model(dataset, key, point.alpha, point.gamma)
        model_curves[key] = model.curve(dataset.coincidence[key][0],
                                        fit.shape, fit.scale, fit.shift)
    if point.calibration_fit is not None:
        cal_tau, cal_counts = dataset.calibration_curve
        cal_alpha, _ = estimate_amplitudes(dataset.calibration_single)
        cal_model = calibration_curve_model(
            dataset.calibration_envelope(),
            reflectivity_from_alpha(cal_alpha[1, 1]))
        cal_values = cal_model.curve(cal_tau, point.calibration_fit.shape,
                                     point.calibration_fit.scale,
                                     point.calibration_fit.shift)

    replicates = []
    for idx in range(n_replicates):
        rng = np.random.default_rng([int(seed), idx])
        pick = rng.integers(0, dataset.n_blocks, dataset.n_blocks)
        singles = dataset.single_counts[:, :, pick]
        curves = dict(dataset.coincidence)
        for key, fit in point.fits.items():
            tau, _ = dataset.coincidence[key]
            curves[key] = _resample_curve(tau, dataset.coincidence[key][1],
                                          fit, model_curves[key], rng)
        rep = CharacterizationDataset(
            singles, curves, dataset.spectra,
            calibration_single=None if dataset.calibration_single is None
            else dataset.calibration_single[:, :, pick % dataset.calibration_single.shape[2]],
            calibration_curve=None if point.calibration_fit is None
            else _resample_curve(cal_tau, cal_counts, point.calibration_fit,
                                 cal_values, rng),
            calibration_spectra=dataset.calibration_spectra)
        rep._envelopes = dataset._envelopes   # same spectra, reuse cache
        replicates.append(rep)

    ws, gammas, failures = [], [], []
    for idx, est in enumerate(_characterize_stack(
            replicates, threshold, gamma_override, warm=point)):
        if isinstance(est, Exception):
            failures.append({"replicate": idx, "error": str(est),
                             "class": _error_class(est)})
        else:
            ws.append(est.w)
            gammas.append(est.gamma)
    rate = len(failures) / n_replicates
    if rate > max_failure_rate:
        raise BootstrapUnstable("too many replicate failures",
                                failure_rate=rate, failures=failures[:20])
    stack = np.array(ws)
    ddof = 1 if len(ws) > 1 else 0
    sigma_re = np.std(np.real(stack), axis=0, ddof=ddof)
    sigma_im = np.std(np.imag(stack), axis=0, ddof=ddof)
    gamma_sigma = float(np.std(gammas, ddof=ddof)) if gammas else 0.0
    diagnostics = list(point.diagnostics)
    if failures:
        by_class = Counter(f["class"] for f in failures)
        diagnostics.append({"type": "bootstrap-failures",
                            "count": len(failures),
                            "by_class": dict(sorted(by_class.items())),
                            "log": failures[:20]})
    return CharacterizedInterferometer(point.w, sigma_re, sigma_im,
                                       point.gamma, gamma_sigma, diagnostics)


def _error_class(exc):
    """Failure class of a pipeline error: the InterferoError code, or the
    exception's type name for numpy linear-algebra errors."""
    return getattr(exc, "code", type(exc).__name__)


# ---------------------------------------------------------------------------
# scattershot extraction
# ---------------------------------------------------------------------------
def scattershot_extract(records, m, n_blocks, spectra=None):
    """Build a CharacterizationDataset from a heralded event log.

    Events with one herald and one click feed the single-count tensor
    (repetition blocks partitioned by arrival order); events with two
    heralds and two clicks feed the coincidence bins keyed by their delay
    setting; everything else is discarded and counted.
    Returns (dataset, diagnostics).
    """
    singles_events = []
    coinc_bins = {}
    discarded = {"too_many_heralds": 0, "too_many_clicks": 0,
                 "herald_click_mismatch": 0, "empty": 0}
    for lineno, rec in enumerate(records, start=1):
        try:
            heralds = list(rec["heralds"])
            clicks = list(rec["clicks"])
            tau = float(rec["tau_setting"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("malformed event record", line=lineno,
                             reason=str(exc))
        for p in heralds + clicks:
            if not 1 <= int(p) <= m:
                raise ParseError("port out of range", line=lineno, port=p)
        nh, nc = len(heralds), len(clicks)
        if nh == 1 and nc == 1:
            singles_events.append((clicks[0], heralds[0]))
        elif nh == 2 and nc == 2 and heralds[0] != heralds[1] \
                and clicks[0] != clicks[1]:
            key = photonic.canonical_curve_key(
                (clicks[0], clicks[1], heralds[0], heralds[1]))
            coinc_bins.setdefault(key, {}).setdefault(tau, 0)
            coinc_bins[key][tau] += 1
        elif nh == 0 or nc == 0:
            discarded["empty"] += 1
        elif nh > 2:
            discarded["too_many_heralds"] += 1
        elif nc > 2:
            discarded["too_many_clicks"] += 1
        else:
            discarded["herald_click_mismatch"] += 1

    singles = np.zeros((m, m, n_blocks))
    total = len(singles_events)
    per_block = max(1, -(-total // n_blocks))  # ceil division
    for ordinal, (i, j) in enumerate(singles_events):
        b = min(ordinal // per_block, n_blocks - 1)
        singles[i - 1, j - 1, b] += 1

    curves = {}
    for key, bins in coinc_bins.items():
        taus = np.array(sorted(bins))
        counts = np.array([bins[t] for t in taus], dtype=float)
        curves[key] = (taus, counts)

    if spectra is None:
        spectra = [photonic.gaussian_spectrum() for _ in range(m)]
    dataset = CharacterizationDataset(singles, curves, spectra)
    diagnostics = {"singles_used": total,
                   "coincidence_used": int(sum(
                       sum(b.values()) for b in coinc_bins.values())),
                   "discarded": discarded}
    return dataset, diagnostics
