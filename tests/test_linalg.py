import numpy as np
import pytest

from interfero import linalg
from interfero.errors import (
    InvalidDimension,
    NumericalFailure,
    PhaseUndefined,
    ShapeError,
    SingularInput,
)


RNG = np.random.default_rng(20260823)


def random_complex(r, c, rng=RNG):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------
def test_svd_identity():
    w, s, v = linalg.svd(np.eye(3))
    assert np.allclose(s, [1, 1, 1], atol=1e-14)


def test_svd_diagonal():
    w, s, v = linalg.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3, 2, 1], atol=1e-12)
    # W, V equal identity up to column phases
    assert np.allclose(np.abs(w), np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(v), np.eye(3), atol=1e-12)


def test_svd_unitary_input_has_unit_singular_values():
    u = linalg.haar_random_unitary(4, seed=7)
    s = linalg.singular_values(u)
    assert np.allclose(s, 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (8, 8), (64, 64)])
def test_svd_round_trip_random(shape):
    m = random_complex(*shape)
    w, s, v = linalg.svd(m)
    lam = np.zeros(shape, dtype=complex)
    np.fill_diagonal(lam, s)
    recon = w @ lam @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-10 * max(1.0, np.max(np.abs(m)))
    assert linalg.unitarity_defect(w) < 1e-12
    assert linalg.unitarity_defect(v) < 1e-12
    # nonincreasing
    assert np.all(np.diff(s) <= 1e-14)


def test_svd_matches_numpy_oracle():
    for trial in range(10):
        m = random_complex(6, 4)
        s_ours = linalg.singular_values(m)
        # independent of the SVD routine: square roots of eig(M†M)
        s_ref = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
        assert np.allclose(s_ours, s_ref, atol=1e-10)


def test_svd_rank_deficient():
    m = random_complex(5, 3)
    m[:, 2] = m[:, 0] + m[:, 1]  # rank 2
    w, s, v = linalg.svd(m)
    assert s[2] < 1e-10 * s[0]
    lam = np.zeros((5, 3), dtype=complex)
    np.fill_diagonal(lam, s)
    assert np.max(np.abs(w @ lam @ v.conj().T - m)) < 1e-10
    assert linalg.unitarity_defect(w) < 1e-12


def test_svd_zero_matrix():
    w, s, v = linalg.svd(np.zeros((4, 2)))
    assert np.allclose(s, 0.0)
    assert linalg.unitarity_defect(w) < 1e-14


@pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2))])
def test_svd_rejects_non_matrix(m):
    with pytest.raises(ShapeError):
        linalg.svd(m)


def test_svd_lapack_failure_is_numerical_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalFailure):
        linalg.svd(np.eye(2))
    with pytest.raises(NumericalFailure):
        linalg.singular_values(np.eye(2))


# ---------------------------------------------------------------------------
# orthonormalize
# ---------------------------------------------------------------------------
def modified_gram_schmidt(cols):
    """Loop reference: earlier columns are subtracted from later ones."""
    q = np.array(cols, dtype=complex)
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= q[:, i] * np.vdot(q[:, i], q[:, j])
        q[:, j] /= np.linalg.norm(q[:, j])
    return q


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 3)])
def test_orthonormalize_matches_gram_schmidt(shape):
    m = random_complex(*shape)
    q = linalg.orthonormalize(m)
    assert np.max(np.abs(q - modified_gram_schmidt(m))) < 1e-12
    assert np.max(np.abs(q.conj().T @ q - np.eye(shape[1]))) < 1e-14


# ---------------------------------------------------------------------------
# haar_random_unitary
# ---------------------------------------------------------------------------
def test_haar_scalar_case():
    u = linalg.haar_random_unitary(1, seed=3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitarity_and_determinism():
    u1 = linalg.haar_random_unitary(5, seed=42)
    u2 = linalg.haar_random_unitary(5, seed=42)
    assert np.array_equal(u1, u2)
    assert linalg.unitarity_defect(u1) < 1e-10


def test_haar_moment():
    # E |U_11|^2 = 1/m for Haar measure
    rng = np.random.default_rng(11)
    m = 4
    vals = [abs(linalg.haar_random_unitary(m, rng=rng)[0, 0]) ** 2
            for _ in range(10_000)]
    assert abs(np.mean(vals) - 1.0 / m) < 0.01


def test_haar_special_unitary_draws_like_haar_unitary():
    rng_a = np.random.default_rng([7, 0])
    rng_b = np.random.default_rng([7, 0])
    v = linalg.haar_special_unitary(4, rng_a)
    u = linalg.haar_random_unitary(4, rng=rng_b)
    assert np.array_equal(v, u / np.linalg.det(u) ** (1.0 / 4))
    assert abs(np.linalg.det(v) - 1.0) < 1e-12
    assert rng_a.random() == rng_b.random()


def test_haar_rejects_zero_dimension():
    with pytest.raises(InvalidDimension):
        linalg.haar_random_unitary(0, seed=1)


# ---------------------------------------------------------------------------
# trace_distance
# ---------------------------------------------------------------------------
def test_trace_distance_zero_on_equal():
    u = linalg.haar_random_unitary(3, seed=5)
    assert linalg.trace_distance(u, u) == 0.0


def test_trace_distance_hand_value():
    a = np.diag([1.0, 1.0])
    b = np.diag([1.0, -1.0])
    assert abs(linalg.trace_distance(a, b) - 1.0) < 1e-14


def test_trace_distance_metric_properties():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_complex(4, 4, rng)
        b = random_complex(4, 4, rng)
        c = random_complex(4, 4, rng)
        dab = linalg.trace_distance(a, b)
        dba = linalg.trace_distance(b, a)
        assert abs(dab - dba) < 1e-12
        assert dab >= 0
        assert linalg.trace_distance(a, c) <= dab + linalg.trace_distance(b, c) + 1e-12


def test_trace_distance_shape_mismatch():
    with pytest.raises(ShapeError):
        linalg.trace_distance(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# nearest_unitary
# ---------------------------------------------------------------------------
def test_nearest_unitary_fixed_point():
    u = linalg.haar_random_unitary(4, seed=13)
    w = linalg.nearest_unitary(u)
    assert np.max(np.abs(w - u)) < 1e-12


def test_nearest_unitary_diagonal():
    w = linalg.nearest_unitary(np.diag([2.0, 0.5]))
    assert np.allclose(w, np.eye(2), atol=1e-12)


def test_nearest_unitary_is_closer_than_truth():
    rng = np.random.default_rng(17)
    u = linalg.haar_random_unitary(3, rng=rng)
    noisy = u + 1e-3 * random_complex(3, 3, rng)
    w = linalg.nearest_unitary(noisy)
    assert linalg.unitarity_defect(w) < 1e-10
    assert (np.linalg.norm(w - noisy) <= np.linalg.norm(u - noisy) + 1e-6)


def test_nearest_unitary_minimizes_over_2x2_bruteforce():
    # brute-force a parametrized family of 2x2 unitaries and compare
    rng = np.random.default_rng(23)
    a = random_complex(2, 2, rng)
    w = linalg.nearest_unitary(a)
    th, p1, p2, p3 = np.meshgrid(
        np.linspace(0, np.pi / 2, 25),
        np.linspace(-np.pi, np.pi, 25),
        np.linspace(-np.pi, np.pi, 25),
        np.linspace(-np.pi, np.pi, 25),
        indexing="ij")
    c, s = np.cos(th), np.sin(th)
    d2 = (np.abs(c * np.exp(1j * p1) - a[0, 0]) ** 2
          + np.abs(s * np.exp(1j * p2) - a[0, 1]) ** 2
          + np.abs(-s * np.exp(1j * (p3 - p2)) - a[1, 0]) ** 2
          + np.abs(c * np.exp(1j * (p3 - p1)) - a[1, 1]) ** 2)
    best = np.sqrt(d2.min())
    assert np.linalg.norm(w - a) <= best + 1e-2


def test_nearest_unitary_singular_input():
    with pytest.raises(SingularInput):
        linalg.nearest_unitary(np.array([[1.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# canonicalize_representative
# ---------------------------------------------------------------------------
def test_canonicalize_real_border_unchanged():
    u = linalg.haar_random_unitary(4, seed=31)
    w = linalg.canonicalize_representative(u)
    w2 = linalg.canonicalize_representative(w)
    assert np.max(np.abs(w - w2)) < 1e-12


def test_canonicalize_strips_phases():
    u = np.array([[np.exp(1j * np.pi / 3) / np.sqrt(2), 1 / np.sqrt(2)],
                  [1 / np.sqrt(2), -np.exp(-1j * np.pi / 3) / np.sqrt(2)]])
    w = linalg.canonicalize_representative(u)
    assert np.allclose(np.imag(w[0, :]), 0, atol=1e-14)
    assert np.allclose(np.imag(w[:, 0]), 0, atol=1e-14)
    assert np.all(np.real(w[0, :]) >= 0)
    assert np.all(np.real(w[:, 0]) >= 0)
    assert np.allclose(np.abs(w), np.abs(u), atol=1e-14)
    assert linalg.unitarity_defect(w) < 1e-10


def test_canonicalize_equivalence_class():
    rng = np.random.default_rng(37)
    u = linalg.haar_random_unitary(5, rng=rng)
    d1 = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    d2 = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    dressed = np.diag(d1) @ u @ np.diag(d2).conj()
    w1 = linalg.canonicalize_representative(u)
    w2 = linalg.canonicalize_representative(dressed)
    assert np.max(np.abs(w1 - w2)) < 1e-10


def test_canonicalize_zero_entry_rejected():
    u = np.eye(3, dtype=complex)  # off-diagonal zeros in first row/col
    with pytest.raises(PhaseUndefined) as exc:
        linalg.canonicalize_representative(u)
    assert exc.value.details["output_ports"]
