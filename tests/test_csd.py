import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from interfero import csd, linalg
from interfero.errors import (
    InvalidDimension,
    InvalidSplit,
    NotUnitary,
    PlanCorrupt,
    ShapeMismatch,
)


def cs_matrix(thetas, extra=0):
    """Dense oracle: the orthogonal CS matrix S_2m(θ) ⊕ I_extra."""
    t = np.asarray(thetas, dtype=float)
    m = len(t)
    c = np.diag(np.cos(t))
    s = np.diag(np.sin(t))
    out = np.eye(2 * m + extra, dtype=complex)
    out[:2 * m, :2 * m] = np.block([[c, s], [-s, c]])
    return out


def block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[:a.shape[0], :a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


def check_csd(u, m, tol=1e-10):
    l, l_prime, thetas, r, r_prime = csd.csd(u, m)
    dim = u.shape[0]
    n = dim - m
    # block shapes, then the dense factors L ⊕ L' and R ⊕ R'
    assert l.shape == r.shape == (m, m)
    assert l_prime.shape == r_prime.shape == (n, n)
    left = block_diag(l, l_prime)
    right = block_diag(r, r_prime)
    assert linalg.unitarity_defect(left) < 1e-10
    assert linalg.unitarity_defect(right) < 1e-10
    assert np.all(thetas >= 0) and np.all(thetas <= np.pi / 2 + 1e-12)
    assert np.max(np.abs(left @ cs_matrix(thetas, n - m) @ right.conj().T
                         - u)) < tol
    return thetas


def test_csd_identity():
    thetas = check_csd(np.eye(4, dtype=complex), 2)
    assert np.allclose(thetas, 0, atol=1e-12)


def test_csd_cs_matrix_input():
    target = cs_matrix([np.pi / 6, np.pi / 3])
    thetas = check_csd(target, 2)
    assert np.allclose(sorted(thetas), [np.pi / 6, np.pi / 3], atol=1e-10)
    # L and R must jointly cancel: L (S ⊕ I) R == S means the gauge freedom
    # is only block-diagonal; verify via reconstruction (done in check_csd)


def test_csd_random_6x6():
    u = linalg.haar_random_unitary(6, seed=101)
    check_csd(u, 2)


@pytest.mark.parametrize("dim,m", [(2, 1), (4, 1), (5, 2), (9, 3), (12, 4), (18, 3)])
def test_csd_random_many(dim, m):
    rng = np.random.default_rng(dim * 100 + m)
    for _ in range(5):
        u = linalg.haar_random_unitary(dim, rng=rng)
        check_csd(u, m)


def test_csd_angles_sorted_by_descending_cos():
    u = linalg.haar_random_unitary(8, seed=55)
    thetas = csd.csd(u, 3)[2]
    assert np.all(np.diff(np.cos(thetas)) <= 1e-12)


def test_csd_theta_near_zero():
    # block-diagonal unitary: all angles exactly zero, maximal degeneracy
    rng = np.random.default_rng(5)
    u = np.zeros((6, 6), dtype=complex)
    u[:2, :2] = linalg.haar_random_unitary(2, rng=rng)
    u[2:, 2:] = linalg.haar_random_unitary(4, rng=rng)
    thetas = check_csd(u, 2)
    assert np.allclose(thetas, 0, atol=1e-10)


def test_csd_theta_near_half_pi():
    # anti-block unitary: all angles π/2
    rng = np.random.default_rng(6)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, 2:] = linalg.haar_random_unitary(2, rng=rng)
    u[2:, :2] = linalg.haar_random_unitary(2, rng=rng)
    thetas = check_csd(u, 2)
    assert np.allclose(thetas, np.pi / 2, atol=1e-10)


TINY_ANGLES = [0.0, 1e-15, 1e-12, 1e-9, 3e-9, 1e-8, 1e-6, np.pi / 4,
               np.pi / 2 - 1e-9, np.pi / 2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 6), extra=st.integers(0, 4),
       picks=st.lists(st.sampled_from(TINY_ANGLES), min_size=6, max_size=6),
       ties=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
@example(m=2, extra=0, picks=[1e-8, 2e-9, 0, 0, 0, 0], ties=0, seed=7)
def test_csd_mixed_tiny_angle(m, extra, picks, ties, seed):
    # clustered angles down to 0, where cos θ rounds to 1, dressed with
    # Haar blocks; the first ``ties`` angles repeat the last one
    thetas = np.array(picks[:m])
    thetas[:min(ties, m - 1)] = thetas[-1]
    rng = np.random.default_rng(seed)
    n = m + extra
    left = block_diag(linalg.haar_random_unitary(m, rng=rng),
                      linalg.haar_random_unitary(n, rng=rng))
    right = block_diag(linalg.haar_random_unitary(m, rng=rng),
                       linalg.haar_random_unitary(n, rng=rng))
    check_csd(left @ cs_matrix(thetas, extra) @ right, m)


@pytest.mark.parametrize("dim,m", [(4, 2), (7, 3), (10, 5), (12, 4)])
def test_csd_angles_match_lapack_cossin(dim, m):
    cossin = pytest.importorskip("scipy.linalg").cossin
    rng = np.random.default_rng(300 + dim)
    for _ in range(3):
        u = linalg.haar_random_unitary(dim, rng=rng)
        _, theta, _ = cossin(u, p=m, q=m, separate=True)
        ours = csd.csd(u, m)[2]
        assert np.allclose(np.sort(ours), np.sort(theta), atol=1e-10)


def test_csd_rejects_bad_split():
    u = linalg.haar_random_unitary(4, seed=1)
    with pytest.raises(InvalidSplit):
        csd.csd(u, 3)


def test_csd_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        csd.csd(np.ones((4, 4)), 2)


# ---------------------------------------------------------------------------
# CS-matrix factorization into elements
# ---------------------------------------------------------------------------
def element_matrix(element, n_s, n_p):
    """Dense oracle: embed one optical element into the full n_s·n_p space."""
    k = element["mode"]
    out = np.eye(n_s * n_p, dtype=complex)
    lo = (k - 1) * n_p
    if element["kind"] == "BS":
        out[lo:lo + 2 * n_p, lo:lo + 2 * n_p] = np.kron(csd.B2, np.eye(n_p))
    elif element["kind"] == "IU":
        out[lo:lo + n_p, lo:lo + n_p] = element["matrix"]
    else:
        phases = element["phases"]
        out[lo:lo + len(phases), lo:lo + len(phases)] = np.diag(np.exp(1j * phases))
    return out


def elements_product(elements, n_s, n_p):
    out = np.eye(n_s * n_p, dtype=complex)
    for e in elements:
        out = out @ element_matrix(e, n_s, n_p)
    return out


def test_factor_cs_zero_angles():
    els = csd.factor_cs_matrix(np.zeros(3), 3)
    prod = elements_product(els, 2, 3)
    assert np.max(np.abs(prod - np.eye(6))) < 1e-12


def test_factor_cs_np2():
    angles = [np.pi / 3, np.pi / 7]
    els = csd.factor_cs_matrix(angles, 2)
    prod = elements_product(els, 2, 2)
    assert np.max(np.abs(prod - cs_matrix(angles))) < 1e-12


def test_factor_cs_np1_single_angle():
    els = csd.factor_cs_matrix([np.pi / 4], 1)
    prod = elements_product(els, 2, 1)
    expected = np.array([[np.cos(np.pi / 4), np.sin(np.pi / 4)],
                         [-np.sin(np.pi / 4), np.cos(np.pi / 4)]])
    assert np.max(np.abs(prod - expected)) < 1e-12


def test_factor_cs_random_angles_exact():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n_p = int(rng.integers(1, 4))
        angles = rng.uniform(0, np.pi / 2, n_p)
        els = csd.factor_cs_matrix(angles, n_p)
        assert len([e for e in els if e["kind"] == "BS"]) == 2
        assert len([e for e in els if e["kind"] == "IP"]) == 2
        prod = elements_product(els, 2, n_p)
        assert np.max(np.abs(prod - cs_matrix(angles))) < 1e-12


# ---------------------------------------------------------------------------
# decompose / reconstruct
# ---------------------------------------------------------------------------
def test_decompose_single_spatial_mode():
    u = linalg.haar_random_unitary(3, seed=2)
    plan = csd.decompose(u, 1, 3)
    assert plan.census() == {"BS": 0, "IU": 1, "IP": 0}
    assert np.max(np.abs(csd.reconstruct(plan) - u)) < 1e-12


def test_decompose_census_ns4():
    for n_p in (1, 2):
        u = linalg.haar_random_unitary(4 * n_p, seed=40 + n_p)
        plan = csd.decompose(u, 4, n_p)
        census = plan.census()
        assert census["BS"] == 12
        assert census["IU"] == 16
        assert census["IP"] == 12


def test_decompose_ns2_np2_structure_and_roundtrip():
    u = linalg.haar_random_unitary(4, seed=22)
    plan = csd.decompose(u, 2, 2)
    census = plan.census()
    assert census == {"BS": 2, "IU": 4, "IP": 2}
    assert linalg.trace_distance(csd.reconstruct(plan), u) < 1e-9


@pytest.mark.parametrize("n_s,n_p", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 1), (6, 2)])
def test_decompose_round_trip(n_s, n_p):
    rng = np.random.default_rng(1000 * n_s + n_p)
    for _ in range(3):
        u = linalg.haar_random_unitary(n_s * n_p, rng=rng)
        plan = csd.decompose(u, n_s, n_p)
        assert linalg.trace_distance(csd.reconstruct(plan), u) < 1e-9
        census = plan.census()
        assert census["BS"] == n_s * (n_s - 1)
        assert census["IU"] == n_s ** 2


@pytest.mark.parametrize("n_s,n_p,seed", [(4, 8, 4), (5, 10, 0), (12, 5, 5)])
def test_decompose_round_trip_wide_internal(n_s, n_p, seed):
    # n_p >= 4 inputs on which completing L' once ran out of candidates
    u = linalg.haar_random_unitary(n_s * n_p, seed=seed)
    plan = csd.decompose(u, n_s, n_p)
    assert linalg.trace_distance(csd.reconstruct(plan), u) < 1e-9
    census = plan.census()
    assert census["BS"] == n_s * (n_s - 1)
    assert census["IU"] == n_s ** 2
    assert census["IP"] == n_s * (n_s - 1)


def degenerate_unitary(kind, n_s, n_p, seed):
    """Unitaries whose CSDs hit θ = 0, θ = π/2, and clusters of angles
    below 1e-8, where cos θ rounds to 1 ("near-block": two Haar blocks
    split at a spatial mode, times exp(iεH) with Hermitian H)."""
    rng = np.random.default_rng(seed)
    dim = n_s * n_p
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "permutation":
        return np.eye(dim, dtype=complex)[rng.permutation(dim)]
    if kind == "block-diagonal":
        cuts = np.sort(rng.choice(np.arange(1, dim), size=min(2, dim - 1),
                                  replace=False)) if dim > 1 else []
        u = np.zeros((dim, dim), dtype=complex)
        for lo, hi in zip([0, *cuts], [*cuts, dim]):
            u[lo:hi, lo:hi] = linalg.haar_random_unitary(hi - lo, rng=rng)
        return u
    if kind == "near-block":
        cut = n_p * int(rng.integers(1, n_s)) if n_s > 1 else dim
        u = np.eye(dim, dtype=complex)
        for lo, hi in ((0, cut), (cut, dim)):
            if hi > lo:
                u[lo:hi, lo:hi] = linalg.haar_random_unitary(hi - lo, rng=rng)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w, v = np.linalg.eigh(h + h.conj().T)
        eps = rng.choice([1e-9, 3e-9, 1e-8, 3e-8])
        return u @ (v * np.exp(0.5j * eps * w)) @ v.conj().T
    # spatial swap ⊗ internal unitary
    swap = np.eye(n_s)[rng.permutation(n_s)]
    return np.kron(swap, linalg.haar_random_unitary(n_p, rng=rng))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["identity", "permutation", "block-diagonal",
                             "swap-internal", "near-block"]),
       n_s=st.integers(1, 4), n_p=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decompose_round_trip_degenerate(kind, n_s, n_p, seed):
    u = degenerate_unitary(kind, n_s, n_p, seed)
    plan = csd.decompose(u, n_s, n_p)
    assert linalg.trace_distance(csd.reconstruct(plan), u) < 1e-9
    assert plan.census()["BS"] == n_s * (n_s - 1)


def test_reconstruct_matches_dense_oracle():
    rng = np.random.default_rng(31)
    n_s, n_p = 4, 3
    elements = []
    for _ in range(30):
        kind = rng.choice(["BS", "IU", "IP"])
        if kind == "BS":
            elements.append(csd.bs_element(int(rng.integers(1, n_s))))
        elif kind == "IU":
            elements.append(csd.iu_element(
                int(rng.integers(1, n_s + 1)),
                linalg.haar_random_unitary(n_p, rng=rng)))
        else:
            mode = int(rng.integers(1, n_s))
            elements.append(csd.ip_element(mode, rng.uniform(0, 2 * np.pi, 2 * n_p)))
    plan = csd.DecompositionPlan(n_s, n_p, elements)
    assert np.max(np.abs(csd.reconstruct(plan)
                         - elements_product(elements, n_s, n_p))) < 1e-12


@pytest.mark.parametrize("element", [
    csd.bs_element(3),
    csd.bs_element(0),
    csd.iu_element(1, np.eye(3)),
    csd.iu_element(0, np.eye(2)),
    csd.iu_element(4, np.eye(2)),
    csd.ip_element(1, np.zeros(3)),
    csd.ip_element(3, np.zeros(4)),
    csd.ip_element(0, np.zeros(2)),
    {"kind": "XX", "mode": 1},
])
def test_reconstruct_rejects_corrupt_element(element):
    with pytest.raises(PlanCorrupt):
        csd.reconstruct(csd.DecompositionPlan(3, 2, [element]))


def test_decompose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        csd.decompose(linalg.haar_random_unitary(5, seed=3), 2, 2)


def test_reconstruct_empty_plan_is_identity():
    plan = csd.DecompositionPlan(2, 2, [])
    assert np.array_equal(csd.reconstruct(plan), np.eye(4))


def test_reconstruct_single_bs_is_balanced_splitter():
    plan = csd.DecompositionPlan(2, 1, [csd.bs_element(1)])
    assert np.max(np.abs(csd.reconstruct(plan) - csd.B2)) < 1e-15


# ---------------------------------------------------------------------------
# cost_report
# ---------------------------------------------------------------------------
def test_cost_report_values():
    r = csd.cost_report(3, 2)
    assert r["beam_splitters"] == 6
    assert r["reck_beam_splitters"] == 15
    assert abs(r["reduction_factor"] - 2.5) < 1e-12
    assert r["reduction_factor"] > 2 ** 2 / 2

    r = csd.cost_report(6, 1)
    assert r["beam_splitters"] == 30
    assert r["reck_beam_splitters"] == 15


def test_cost_report_matches_decompose():
    u = linalg.haar_random_unitary(8, seed=88)
    plan = csd.decompose(u, 4, 2)
    assert plan.census()["BS"] == csd.cost_report(4, 2)["beam_splitters"]


@pytest.mark.parametrize("n_s,n_p", [(0, 2), (3, 0)])
def test_cost_report_rejects_empty_dimension(n_s, n_p):
    with pytest.raises(InvalidDimension):
        csd.cost_report(n_s, n_p)


def test_factor_cs_matrix_needs_one_angle_per_internal_mode():
    with pytest.raises(ShapeMismatch):
        csd.factor_cs_matrix([0.1, 0.2], 3)


def test_cost_reduction_exceeds_np_squared_over_two():
    for n_p in range(2, 12):
        for n_s in range(2, 12):
            r = csd.cost_report(n_s, n_p)
            assert r["reduction_factor"] > n_p ** 2 / 2
