"""Dense complex matrix core: SVD, orthonormalization, Haar sampling,
trace distance, nearest-unitary projection and representative
canonicalization.

All functions are pure: inputs are never mutated and fresh arrays are
returned.  SVD and QR are LAPACK's, through numpy; a LAPACK convergence
failure surfaces as NumericalFailure.
"""
import numpy as np

from .errors import (
    NumericalFailure,
    InvalidDimension,
    NotUnitary,
    ShapeError,
    SingularInput,
    PhaseUndefined,
)

DEFAULT_UNITARITY_TOL = 1e-10
# a first-row or first-column entry of at most this modulus leaves its port
# phase undefined in canonicalize_representative
BORDER_ZERO_TOL = 1e-12


def as_complex_matrix(m):
    """Return a fresh complex 2-D array, validating finiteness."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError("expected a 2-D matrix", shape=list(a.shape))
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix contains non-finite entries")
    return a


def unitarity_defect(u):
    """Max-norm of U†U − I."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def assert_unitary(u, tol=DEFAULT_UNITARITY_TOL):
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError("unitary must be square", shape=list(u.shape))
    d = unitarity_defect(u)
    if d > tol:
        raise NotUnitary(f"unitarity defect {d:.3e} exceeds tolerance {tol:.1e}",
                         defect=d, tol=tol)
    return u


# ---------------------------------------------------------------------------
# SVD and orthonormalization (LAPACK through numpy)
# ---------------------------------------------------------------------------
def _lapack_svd(a, **kwargs):
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def svd(m):
    """Singular value decomposition M = W diag(s) V†.

    Parameters
    ----------
    m : array_like, shape (r, c)

    Returns
    -------
    w : (r, r) ndarray, unitary
    s : (min(r, c),) ndarray, nonincreasing nonnegative
    v : (c, c) ndarray, unitary  (note: V itself, not V†)
    """
    w, s, vh = _lapack_svd(as_complex_matrix(m), full_matrices=True)
    return w, s, vh.conj().T


def singular_values(m):
    return _lapack_svd(as_complex_matrix(m), compute_uv=False)


def orthonormalize(cols):
    """Gram–Schmidt of the columns of ``cols``: QR with a positive real R
    diagonal, so the first j output columns span the same space as the
    first j inputs and the earliest columns are perturbed least."""
    q, r = np.linalg.qr(cols)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------
def trace_distance(a, b):
    """Half the sum of singular values of (a − b)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ShapeError("dimension mismatch", a=list(a.shape), b=list(b.shape))
    return float(0.5 * np.sum(singular_values(a - b)))


def nearest_unitary(u_tilde):
    """Frobenius-nearest unitary W = (ŨŨ†)^{−1/2} Ũ via polar decomposition."""
    a = as_complex_matrix(u_tilde)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("input must be square", shape=list(a.shape))
    w, s, v = svd(a)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularInput("rank-deficient input to nearest_unitary",
                            singular_values=[float(x) for x in s])
    return w @ v.conj().T


def haar_random_unitary(m, seed=None, rng=None):
    """Haar-random m×m unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar.  Exactly
    one of ``seed``/``rng`` should be given for reproducible draws.
    """
    if m < 1:
        raise InvalidDimension("m must be >= 1", m=m)
    if rng is None:
        rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    return orthonormalize(z)


def haar_special_unitary(n, rng):
    """Haar-random element of SU(n): a Haar unitary divided by det^(1/n).

    Draws exactly what ``haar_random_unitary(n, rng=rng)`` draws.
    """
    u = haar_random_unitary(n, rng=rng)
    return u / np.linalg.det(u) ** (1.0 / n)


def canonicalize_representative(v):
    """Strip the unobservable port phases: D1·V·D2† with real nonnegative
    first row and first column.  Idempotent; preserves |entries|."""
    u = as_complex_matrix(v)
    if u.shape[0] != u.shape[1]:
        raise ShapeError("input must be square", shape=list(u.shape))
    m = u.shape[0]
    col = np.abs(u[:, 0])
    row = np.abs(u[0, :])
    if np.any(col <= BORDER_ZERO_TOL) or np.any(row <= BORDER_ZERO_TOL):
        bad_out = [int(i) + 1 for i in np.nonzero(col <= BORDER_ZERO_TOL)[0]]
        bad_in = [int(j) + 1 for j in np.nonzero(row <= BORDER_ZERO_TOL)[0]]
        raise PhaseUndefined(
            "zero entry in first row/column leaves port phase unconstrained",
            output_ports=bad_out, input_ports=bad_in)
    d1 = np.conj(u[:, 0]) / col           # e^{-i arg(V_i1)}
    w = u * d1[:, np.newaxis]
    d2 = w[0, :] / np.abs(w[0, :])        # e^{+i arg((D1 V)_1j)}
    w = w * np.conj(d2)[np.newaxis, :]
    # exact realness on the border
    w[:, 0] = np.abs(w[:, 0])
    w[0, :] = np.abs(w[0, :])
    return w
