"""Forward model of the interferometer physics: representative-matrix
parameterization, loss dressing, single-photon transmission probabilities
and the two-photon coincidence curve with mode-matching parameter γ.

``coincidence_curve_model`` is the one forward model of the coincidence
curves: one call gives the stacked (K, T) mean rates of K port keys, and
the explicit 2-D quadrature it reproduces lives in
``tests/test_photonic.py`` as its reference.  ``cross_envelope`` is
memoised by spectrum content, so every caller handed equal spectra in the
same order shares one read-only Envelope.

Frequencies and times are dimensionless-normalized (ω in units of the
spectral width); unit handling belongs to the CLI layer.
"""
import functools
import warnings

import numpy as np

from . import linalg
from .errors import ShapeError, PortError, InvalidGamma


class RepresentativeParams:
    """Class-representative parameterization U = L·A·M.

    alpha, theta are m×m with the first row and column pinned to 1 and 0;
    lambda_ (λ_1 ≡ 1) and mu are the diagonal dressing vectors.
    """

    def __init__(self, alpha, theta, lambda_, mu):
        self.alpha = np.asarray(alpha, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.lambda_ = np.asarray(lambda_, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        shape = self.alpha.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ShapeError("alpha must be square", shape=list(shape))
        self.m = shape[0]
        if self.theta.shape != (self.m, self.m):
            raise ShapeError("theta must match alpha",
                             shape=list(self.theta.shape), m=self.m)
        if not (np.allclose(self.alpha[0, :], 1)
                and np.allclose(self.alpha[:, 0], 1)):
            raise ShapeError("alpha must have its first row and column at 1")
        if not (np.allclose(self.theta[0, :], 0)
                and np.allclose(self.theta[:, 0], 0)):
            raise ShapeError("theta must have its first row and column at 0")
        if not abs(self.lambda_[0] - 1) < 1e-12:
            raise ShapeError("lambda_1 must be 1", lambda_1=float(self.lambda_[0]))

    def assemble(self):
        """The representative matrix diag(√λ)·A·diag(√μ)."""
        a = self.alpha * np.exp(1j * self.theta)
        return (np.sqrt(self.lambda_)[:, None] * a) * np.sqrt(self.mu)[None, :]


def representative_from_unitary(u):
    """Extract (α, θ, λ, μ) from a canonicalized unitary (real border)."""
    w = linalg.canonicalize_representative(u)
    m = w.shape[0]
    mu = np.real(w[0, :]) ** 2
    lam = (np.real(w[:, 0]) / np.real(w[0, 0])) ** 2
    denom = np.sqrt(lam)[:, None] * np.sqrt(mu)[None, :]
    alpha = np.abs(w) / denom
    theta = np.angle(w)
    alpha[0, :] = 1.0
    alpha[:, 0] = 1.0
    theta[0, :] = 0.0
    theta[:, 0] = 0.0
    return RepresentativeParams(alpha, theta, lam, mu)


class LossModel:
    def __init__(self, kappa, nu, phi=None, xi=None):
        self.kappa = np.asarray(kappa, dtype=float)
        self.nu = np.asarray(nu, dtype=float)
        m = len(self.kappa)
        self.phi = np.zeros(m) if phi is None else np.asarray(phi, dtype=float)
        self.xi = np.zeros(m) if xi is None else np.asarray(xi, dtype=float)
        for name, eff in (("kappa", self.kappa), ("nu", self.nu)):
            if not np.all((eff >= 0) & (eff <= 1)):
                raise ShapeError(f"efficiencies {name} must lie in [0, 1]",
                                 values=[float(x) for x in np.ravel(eff)])

    @classmethod
    def lossless(cls, m):
        return cls(np.ones(m), np.ones(m))


def assemble_lossy_matrix(params, loss):
    """U^lossy_ij = e^{iφ_i}√κ_i √λ_i α_ij e^{iθ_ij} √μ_j √ν_j e^{iξ_j}."""
    if len(loss.kappa) != params.m:
        raise ShapeError("loss model dimension mismatch",
                         m=params.m, loss_m=len(loss.kappa))
    u = params.assemble()
    out_dress = np.sqrt(loss.kappa) * np.exp(1j * loss.phi)
    in_dress = np.sqrt(loss.nu) * np.exp(1j * loss.xi)
    return out_dress[:, None] * u * in_dress[None, :]


def single_photon_matrix(lossy):
    """P_ij = |U^lossy_ij|², row i the output port, column j the input."""
    return np.abs(lossy) ** 2


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------
def trapezoid_weights(grid):
    g = np.asarray(grid, dtype=float)
    w = np.zeros_like(g)
    w[1:] += 0.5 * np.diff(g)
    w[:-1] += 0.5 * np.diff(g)
    return w


class SpectralFunction:
    """A real nonnegative spectral amplitude f(ω) on a measured grid.

    Normalized on construction so that the trapezoid quadrature of |f|²
    equals 1; a warning is emitted if the raw norm is off by more than 10%.
    A spectrum whose quadrature norm is not positive and finite (all zero,
    or a single grid point) is rejected.
    """

    def __init__(self, omega, values):
        self.omega = np.asarray(omega, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.omega.ndim != 1 or self.omega.shape != self.values.shape:
            raise ShapeError("spectrum needs one value per grid point",
                             omega=list(self.omega.shape),
                             values=list(self.values.shape))
        if not np.all(np.diff(self.omega) > 0):
            raise ShapeError("omega grid must increase")
        if not np.all(self.values >= 0):
            raise ShapeError("spectral amplitude must be nonnegative")
        self.weights = trapezoid_weights(self.omega)
        norm2 = float(np.sum(self.weights * self.values ** 2))
        if not 0.0 < norm2 < np.inf:
            raise ShapeError("spectrum needs a positive finite quadrature "
                             "norm", norm_squared=norm2)
        if abs(norm2 - 1.0) > 0.1:
            warnings.warn(
                f"spectral norm {norm2:.4f} deviates from 1 by more than "
                "10%; renormalizing", stacklevel=2)
        self.values = self.values / np.sqrt(norm2)


def gaussian_spectrum(center=6.0, width=1.0, n_points=61, span=5.0):
    """Gaussian |f|² of standard deviation ``width`` around ``center``."""
    omega = np.linspace(center - span * width, center + span * width, n_points)
    f = np.exp(-((omega - center) ** 2) / (4.0 * width ** 2))
    f /= np.sqrt(np.sum(trapezoid_weights(omega) * f ** 2))
    return SpectralFunction(omega, f)


def double_peak_spectrum(center=6.0, width=1.0, n_points=81, span=6.0):
    """Asymmetric double-peak profile, a stand-in for measured non-Gaussian
    source spectra."""
    omega = np.linspace(center - span * width, center + span * width, n_points)
    f = (np.exp(-((omega - center + 0.9 * width) ** 2) / (2 * (0.55 * width) ** 2))
         + 0.6 * np.exp(-((omega - center - 1.1 * width) ** 2) / (2 * (0.8 * width) ** 2)))
    f /= np.sqrt(np.sum(trapezoid_weights(omega) * f ** 2))
    return SpectralFunction(omega, f)


@functools.lru_cache(maxsize=32)
def _phase_matrix(tau_bytes, grid_bytes):
    """e^{iτω} as a read-only (T, G) array, one per distinct (τ grid, ω grid)."""
    tau = np.frombuffer(tau_bytes)
    grid = np.frombuffer(grid_bytes)
    p = np.exp(1j * np.outer(tau, grid))
    p.flags.writeable = False
    return p


class Envelope:
    """Normalized two-photon overlap envelope
    Q(τ) = |Σ_ω g(ω) e^{iωτ}|² / I0 on one ω grid.

    ``g`` is the quadrature-weighted spectral product, either one row (G,)
    with a scalar ``i0`` or a stack of N rows (N, G) with ``i0`` of shape
    (N,): a stack evaluates N envelopes that share the grid at once.
    """

    def __init__(self, grid, g, i0):
        self.grid = grid
        self.g = g
        self.i0 = i0

    @classmethod
    def stack(cls, envelopes):
        """One N-row envelope from N envelopes on the same ω grid."""
        grid = envelopes[0].grid
        if any(not np.array_equal(e.grid, grid) for e in envelopes):
            raise ValueError("stacked envelopes need one frequency grid")
        return cls(grid, np.array([e.g for e in envelopes]),
                   np.array([e.i0 for e in envelopes], dtype=float))

    def shifted(self, tau, shift, rows=None, derivative=False):
        """Q(τ − shift), and dQ/dτ there when ``derivative`` is set.

        K shifts give (K, T): row k uses envelope row ``rows[k]`` (row k when
        ``rows`` is None) and is computed by its own matrix-vector product,
        so its value does not depend on the other rows evaluated with it.
        A scalar shift is the one-row case and gives row 0, shape (T,).
        All rows share the cached phase matrix of (τ grid, ω grid), and the
        shift is folded into the spectral weights.
        """
        tau = np.asarray(tau, dtype=float)
        shift = np.asarray(shift, dtype=float)
        phases = _phase_matrix(tau.tobytes(), self.grid.tobytes())
        g, i0 = self.g, np.asarray(self.i0, dtype=float).reshape(-1, 1)
        if rows is not None and g.ndim == 2:
            g, i0 = g[rows], i0[rows]
        gs = g * np.exp(-1j * self.grid * shift.reshape(-1, 1))
        gt = np.matmul(phases, gs[:, :, None])[:, :, 0]
        row = 0 if shift.ndim == 0 else slice(None)
        q = ((np.abs(gt) ** 2) / i0)[row]
        if not derivative:
            return q
        gs *= 1j * self.grid
        dgt = np.matmul(phases, gs[:, :, None])[:, :, 0]
        return q, (2.0 * np.real(np.conj(gt) * dgt) / i0)[row]


def cross_envelope(f_j, f_j2):
    """The Envelope of Q(τ) = |∫ f_j f_j' e^{iωτ} dω|² / I0, where
    ``Envelope.i0`` holds I0, the product of the marginal quadrature norms.

    Memoised by the content of both spectra in the order given: equal
    spectra share one Envelope, whose ``grid`` and ``g`` are read-only.
    """
    return _cross_envelope(f_j.omega.tobytes(), f_j.values.tobytes(),
                           f_j2.omega.tobytes(), f_j2.values.tobytes())


@functools.lru_cache(maxsize=128)
def _cross_envelope(omega1, values1, omega2, values2):
    """cross_envelope on the float64 bytes of the two spectra.  Spectra on
    different grids meet on the union grid by linear interpolation."""
    o1, v1, o2, v2 = (np.frombuffer(b)
                      for b in (omega1, values1, omega2, values2))
    grid = o1
    if not np.array_equal(o1, o2):
        grid = np.union1d(o1, o2)
        v1 = np.interp(grid, o1, v1, left=0.0, right=0.0)
        v2 = np.interp(grid, o2, v2, left=0.0, right=0.0)
    w = trapezoid_weights(grid)
    g = w * v1 * v2
    i0 = float(np.sum(w * v1 ** 2)) * float(np.sum(w * v2 ** 2))
    grid.flags.writeable = g.flags.writeable = False
    return Envelope(grid, g, i0)


# ---------------------------------------------------------------------------
# Two-photon coincidence
# ---------------------------------------------------------------------------
def coincidence_curve_model(params, loss, gamma, spectra, keys, tau):
    """The forward model of the coincidence curves: row k of the (K, T)
    result is C(τ) = pref·(base + amp·Q(τ)) on ports keys[k] = (i, i', j, j')
    with i≠i', j≠j' (1-based), input j carrying ``spectra[j − 1]``.

    Under the product trapezoid rule with real spectra the interference
    double sum factorizes exactly as cos(phase)·|G(τ)|², so each row equals
    the explicit 2-D quadrature of the coincidence rate.  Each distinct
    envelope is evaluated once.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma("gamma must lie in [0, 1]", gamma=gamma)
    for ports in keys:
        i, i2, j, j2 = ports
        if i == i2 or j == j2:
            raise PortError("coincidence requires distinct ports",
                            ports=list(ports))
        for p in ports:
            if not 1 <= p <= params.m:
                raise PortError("port out of range", port=p, m=params.m)

    envelopes = [cross_envelope(spectra[j - 1], spectra[j2 - 1])
                 for _, _, j, j2 in keys]
    values = {e: e.shifted(tau, 0.0) for e in dict.fromkeys(envelopes)}
    q = np.array([values[e] for e in envelopes])
    i0 = np.array([e.i0 for e in envelopes])[:, None]
    al, th = params.alpha, params.theta
    lam, mu = params.lambda_, params.mu
    ii, ii2, jj, jj2 = (np.array(keys).T - 1)[:, :, None]
    pref = (loss.kappa[ii] * loss.kappa[ii2] * lam[ii] * lam[ii2]
            * mu[jj] * mu[jj2] * loss.nu[jj] * loss.nu[jj2])
    phase0 = th[ii, jj] - th[ii, jj2] - th[ii2, jj] + th[ii2, jj2]
    base = (al[ii, jj] ** 2 * al[ii2, jj2] ** 2
            + al[ii, jj2] ** 2 * al[ii2, jj] ** 2) * i0
    amp = (2.0 * gamma * al[ii, jj] * al[ii, jj2] * al[ii2, jj]
           * al[ii2, jj2] * np.cos(phase0) * i0)
    return pref * (base + amp * q)


def canonical_curve_key(ports):
    """Coincidence rates are symmetric under swapping (i↔i', j↔j')
    simultaneously; keys are normalized to the lexicographic minimum."""
    i, i2, j, j2 = ports
    return min((i, i2, j, j2), (i2, i, j2, j))
