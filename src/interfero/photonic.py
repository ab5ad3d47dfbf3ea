"""Forward model of the interferometer physics: representative-matrix
parameterization, loss dressing, single-photon transmission probabilities
and the two-photon coincidence integral with mode-matching parameter γ.

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
        self.m = self.alpha.shape[0]
        assert self.alpha.shape == (self.m, self.m)
        assert self.theta.shape == (self.m, self.m)
        assert np.allclose(self.alpha[0, :], 1) and np.allclose(self.alpha[:, 0], 1)
        assert np.allclose(self.theta[0, :], 0) and np.allclose(self.theta[:, 0], 0)
        assert abs(self.lambda_[0] - 1) < 1e-12

    def assemble(self):
        """The representative matrix diag(√λ)·A·diag(√μ)."""
        a = self.alpha * np.exp(1j * self.theta)
        return (np.sqrt(self.lambda_)[:, None] * a) * np.sqrt(self.mu)[None, :]


def representative_from_unitary(u, zero_tol=1e-12):
    """Extract (α, θ, λ, μ) from a canonicalized unitary (real border)."""
    w = linalg.canonicalize_representative(u, zero_tol=zero_tol)
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
        assert np.all((self.kappa >= 0) & (self.kappa <= 1))
        assert np.all((self.nu >= 0) & (self.nu <= 1))

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


def single_photon_probability(lossy, i, j):
    """P_ij = |U^lossy_ij|² for 1-based ports (i out, j in)."""
    m = lossy.shape[0]
    if not (1 <= i <= m and 1 <= j <= m):
        raise PortError("port out of range", i=i, j=j, m=m)
    return float(np.abs(lossy[i - 1, j - 1]) ** 2)


def single_photon_matrix(lossy):
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
    """

    def __init__(self, omega, values, renormalize=True):
        self.omega = np.asarray(omega, dtype=float)
        self.values = np.asarray(values, dtype=float)
        assert self.omega.ndim == 1 and self.omega.shape == self.values.shape
        assert np.all(np.diff(self.omega) > 0), "omega grid must increase"
        assert np.all(self.values >= 0), "spectral amplitude must be nonnegative"
        self.weights = trapezoid_weights(self.omega)
        norm2 = float(np.sum(self.weights * self.values ** 2))
        if renormalize:
            if abs(norm2 - 1.0) > 0.1:
                warnings.warn(
                    f"spectral norm {norm2:.4f} deviates from 1 by more than "
                    "10%; renormalizing", stacklevel=2)
            self.values = self.values / np.sqrt(norm2)

    def norm_squared(self):
        return float(np.sum(self.weights * self.values ** 2))


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


def _common_grid(f1, f2):
    """Put two spectra on a shared grid (union, linear interpolation)."""
    if np.array_equal(f1.omega, f2.omega):
        return f1.omega, f1.values, f2.values
    grid = np.union1d(f1.omega, f2.omega)
    v1 = np.interp(grid, f1.omega, f1.values, left=0.0, right=0.0)
    v2 = np.interp(grid, f2.omega, f2.values, left=0.0, right=0.0)
    return grid, v1, v2


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

    def __call__(self, tau):
        """Q(τ) for a scalar or an array of delays (single envelope)."""
        out = self.shifted(np.atleast_1d(np.asarray(tau, dtype=float)), 0.0)
        return out if np.ndim(tau) else float(out[0])

    def shifted(self, tau, shift, rows=None, derivative=False):
        """Q(τ − shift), and dQ/dτ there when ``derivative`` is set.

        A scalar shift gives Q of a single envelope, shape (T,).  K shifts
        give (K, T): row k uses envelope row ``rows[k]`` (row k when
        ``rows`` is None) and is computed by its own matrix-vector product,
        so its value does not depend on the other rows evaluated with it.
        All rows share the cached phase matrix of (τ grid, ω grid), and the
        shift is folded into the spectral weights.
        """
        tau = np.asarray(tau, dtype=float)
        phases = _phase_matrix(tau.tobytes(), self.grid.tobytes())
        if np.ndim(shift) == 0:
            gt = phases @ (self.g * np.exp(-1j * self.grid * shift))
            return (np.abs(gt) ** 2) / self.i0
        g, i0 = self.g, np.reshape(self.i0, (-1, 1))
        if rows is not None and g.ndim == 2:
            g, i0 = g[rows], i0[rows]
        gs = g * np.exp(-1j * self.grid * np.asarray(shift)[:, None])
        gt = np.matmul(phases, gs[:, :, None])[:, :, 0]
        if not derivative:
            return (np.abs(gt) ** 2) / i0
        gs *= 1j * self.grid
        dgt = np.matmul(phases, gs[:, :, None])[:, :, 0]
        return (np.abs(gt) ** 2) / i0, 2.0 * np.real(np.conj(gt) * dgt) / i0


def cross_envelope(f_j, f_j2):
    """Return (Q, I0): Q is the Envelope of Q(τ) = |∫ f_j f_j' e^{iωτ} dω|²
    / (I0_j·I0_j') and I0 the product of the marginal quadrature norms."""
    grid, v1, v2 = _common_grid(f_j, f_j2)
    w = trapezoid_weights(grid)
    g = w * v1 * v2
    i0 = float(np.sum(w * v1 ** 2)) * float(np.sum(w * v2 ** 2))
    return Envelope(grid, g, i0), i0


# ---------------------------------------------------------------------------
# Two-photon coincidence
# ---------------------------------------------------------------------------
def coincidence_probability(params, loss, gamma, f_j, f_j2, ports, tau):
    """Reference evaluation of the two-photon coincidence rate by explicit
    2-D quadrature over the spectral grids.

    ports = (i, i', j, j') with i≠i', j≠j' (1-based).
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma("gamma must lie in [0, 1]", gamma=gamma)
    i, i2, j, j2 = ports
    if i == i2 or j == j2:
        raise PortError("coincidence requires distinct ports", ports=list(ports))
    for p in ports:
        if not 1 <= p <= params.m:
            raise PortError("port out of range", port=p, m=params.m)

    al, th = params.alpha, params.theta
    lam, mu = params.lambda_, params.mu
    ii, ii2, jj, jj2 = i - 1, i2 - 1, j - 1, j2 - 1
    pref = (loss.kappa[ii] * loss.kappa[ii2] * lam[ii] * lam[ii2]
            * mu[jj] * mu[jj2] * loss.nu[jj] * loss.nu[jj2])

    grid, v1, v2 = _common_grid(f_j, f_j2)
    w = trapezoid_weights(grid)
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


def coincidence_curve_model(params, loss, gamma, f_j, f_j2, ports,
                            envelope=None):
    """Fast factorized coincidence model: C(τ) = pref·(base + amp·Q(τ)).

    Under the product trapezoid rule with real spectra the interference
    double sum factorizes exactly as cos(phase)·|G(τ)|², so this evaluates
    to the same values as coincidence_probability.  ``envelope`` is the
    cross_envelope of (f_j, f_j2) when the caller already holds it.
    Returns a callable of τ.
    """
    i, i2, j, j2 = ports
    al, th = params.alpha, params.theta
    lam, mu = params.lambda_, params.mu
    ii, ii2, jj, jj2 = i - 1, i2 - 1, j - 1, j2 - 1
    pref = (loss.kappa[ii] * loss.kappa[ii2] * lam[ii] * lam[ii2]
            * mu[jj] * mu[jj2] * loss.nu[jj] * loss.nu[jj2])
    q = envelope if envelope is not None else cross_envelope(f_j, f_j2)[0]
    i0 = q.i0
    phase0 = th[ii, jj] - th[ii, jj2] - th[ii2, jj] + th[ii2, jj2]
    base = (al[ii, jj] ** 2 * al[ii2, jj2] ** 2
            + al[ii, jj2] ** 2 * al[ii2, jj] ** 2) * i0
    amp = (2.0 * gamma * al[ii, jj] * al[ii, jj2] * al[ii2, jj]
           * al[ii2, jj2] * np.cos(phase0) * i0)

    def model(tau):
        return pref * (base + amp * q(tau))

    return model


def curve_over_grid(params, loss, gamma, f_j, f_j2, ports, tau_grid):
    """Coincidence curve on a τ grid (reference path, point by point)."""
    return np.array([
        coincidence_probability(params, loss, gamma, f_j, f_j2, ports, t)
        for t in tau_grid])


def canonical_curve_key(ports):
    """Coincidence rates are symmetric under swapping (i↔i', j↔j')
    simultaneously; keys are normalized to the lexicographic minimum."""
    i, i2, j, j2 = ports
    return min((i, i2, j, j2), (i2, i, j2, j))
