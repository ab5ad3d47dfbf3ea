import itertools
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from interfero import immanants, linalg, sunrep
from interfero.errors import (
    ComplexityLimit,
    InternalInconsistency,
    NotTabulated,
    NotUnitary,
    PartitionError,
    ShapeError,
)


def special_unitary(m, seed):
    return linalg.haar_special_unitary(m, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------
def test_s2_s3_character_tables():
    assert immanants.sn_character((2,), (2,)) == 1
    assert immanants.sn_character((1, 1), (2,)) == -1
    table = {
        ((3,), (1, 1, 1)): 1, ((3,), (2, 1)): 1, ((3,), (3,)): 1,
        ((2, 1), (1, 1, 1)): 2, ((2, 1), (2, 1)): 0, ((2, 1), (3,)): -1,
        ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): -1,
        ((1, 1, 1), (3,)): 1,
    }
    for (lam, rho), value in table.items():
        assert immanants.sn_character(lam, rho) == value


def class_size(rho):
    c = Counter(rho)
    size = math.factorial(sum(rho))
    for length, mult in c.items():
        size //= length ** mult * math.factorial(mult)
    return size


@pytest.mark.parametrize("n", [4, 5, 6])
def test_character_orthogonality(n):
    parts = list(immanants.partitions_of(n))
    table = {(lam, rho): immanants.sn_character(lam, rho)
             for lam in parts for rho in parts}
    for r1 in parts:
        for r2 in parts:
            s = sum(table[(lam, r1)] * table[(lam, r2)] for lam in parts)
            expected = (math.factorial(n) // class_size(r1)
                        if r1 == r2 else 0)
            assert s == expected


def test_character_dimensions_sum_of_squares():
    parts = list(immanants.partitions_of(6))
    total = sum(immanants.sn_character(lam, (1,) * 6) ** 2 for lam in parts)
    assert total == math.factorial(6)


def test_partition_validation():
    with pytest.raises(PartitionError):
        immanants.sn_character((1, 2), (3,))
    with pytest.raises(PartitionError):
        immanants.sn_character((2, 1), (2,))
    with pytest.raises(PartitionError):
        immanants.validate_partition((0,))


# ---------------------------------------------------------------------------
# Immanants
# ---------------------------------------------------------------------------
def test_immanant_2x2_explicit():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(immanants.immanant(t, (2,))
               - (t[0, 0] * t[1, 1] + t[0, 1] * t[1, 0])) < 1e-14
    assert abs(immanants.immanant(t, (1, 1))
               - (t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])) < 1e-14


def test_immanant_3x3_mixed_explicit():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ref = (2 * t[0, 0] * t[1, 1] * t[2, 2]
           - t[0, 1] * t[1, 2] * t[2, 0] - t[0, 2] * t[1, 0] * t[2, 1])
    assert abs(immanants.immanant(t, (2, 1)) - ref) < 1e-13


def test_permanent_and_determinant_routes():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ref_per = sum(
        np.prod([t[k, p[k]] for k in range(4)])
        for p in itertools.permutations(range(4)))
    assert abs(immanants.permanent(t) - ref_per) < 1e-12
    assert abs(immanants.immanant(t, (1, 1, 1, 1)) - np.linalg.det(t)) < 1e-12


def test_immanant_guards():
    with pytest.raises(ShapeError):
        immanants.immanant(np.zeros((2, 3)), (2,))
    with pytest.raises(PartitionError):
        immanants.immanant(np.eye(3), (2, 2))
    with pytest.raises(ComplexityLimit):
        immanants.immanant(np.eye(11), (11,))


def test_partition_to_label():
    assert immanants.partition_to_label((2, 1), 3) == (1, 1)
    assert immanants.partition_to_label((2, 1), 4) == (1, 1, 0)
    assert immanants.partition_to_label((1, 1, 1), 3) == (0, 0)
    with pytest.raises(PartitionError):
        immanants.partition_to_label((1, 1, 1, 1), 3)


# ---------------------------------------------------------------------------
# Kostant and submatrix identities
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n,lam", [
    (3, (3,)), (3, (2, 1)), (3, (1, 1, 1)),
    (4, (4,)), (4, (3, 1)), (4, (2, 2)), (4, (2, 1, 1)), (4, (1, 1, 1, 1)),
])
def test_kostant_identity(n, lam):
    for seed in (1, 2):
        v = special_unitary(n, 40 + seed)
        imm, d_sum, diff = immanants.kostant_lhs_rhs(v, lam, n)
        assert diff < 1e-12


def test_kostant_requires_special_unitary():
    u = linalg.haar_random_unitary(3, seed=8)
    u = u * np.exp(0.3j)
    with pytest.raises(NotUnitary):
        immanants.kostant_lhs_rhs(u / np.linalg.det(u) ** (1 / 3) * 1j,
                                  (2, 1), 3)


def test_identity_checks_its_element_once(monkeypatch):
    calls = []
    defect = linalg.unitarity_defect

    def counted(u):
        calls.append(1)
        return defect(u)

    monkeypatch.setattr(linalg, "unitarity_defect", counted)
    v = special_unitary(4, 60)
    immanants.kostant_lhs_rhs(v, (2, 1, 1), 4)
    assert len(calls) == 1
    immanants.submatrix_immanant_identity(v, (2, 1), (2, 3, 4), (1, 3, 4), 4)
    assert len(calls) == 2
    immanants.submatrix_immanant_identity(v, (2, 1), (1, 3, 4), (1, 3, 4), 4)
    assert len(calls) == 3


def test_principal_submatrix_identity():
    v = special_unitary(4, 50)
    for rows in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]:
        for lam in [(3,), (2, 1), (1, 1, 1)]:
            _, _, diff = immanants.submatrix_immanant_identity(
                v, lam, rows, rows, 4)
            assert diff < 1e-12


@pytest.mark.parametrize("n,lam,rows,cols", [
    (4, (2, 1), (2, 3, 4), (1, 3, 4)),
    (4, (2, 1), (2, 3, 4), (1, 2, 4)),
    (4, (2, 1), (1, 3, 4), (1, 2, 4)),
    (5, (2, 1), (2, 3, 5), (1, 3, 4)),
    (5, (3, 1), (1, 3, 4, 5), (1, 2, 3, 5)),
])
def test_nonprincipal_submatrix_identity(n, lam, rows, cols):
    for seed in (1, 2):
        v = special_unitary(n, 60 + seed)
        _, _, diff = immanants.submatrix_immanant_identity(
            v, lam, rows, cols, n)
        assert diff < 1e-12


def test_label_pair_fit_recovers_the_shipped_fixture():
    for (n, lam, rows, cols), pairs in immanants._submatrix_fixture().items():
        fit = immanants.fit_label_pairs(n, lam, rows, cols,
                                        np.random.default_rng(12345))
        assert fit.clean and fit.residual < 1e-10
        assert fit.expected_terms == len(pairs)
        chosen = [fit.candidates[i] for i in np.nonzero(fit.rounded)[0]]
        assert chosen == pairs


def test_fixture_generator_check_passes():
    # the shipped fixture names labels of the canonical construction, so the
    # generator's --check run guards those labels end to end
    tools = Path(__file__).resolve().parents[1] / "tools"
    proc = subprocess.run([sys.executable,
                           str(tools / "gen_submatrix_fixture.py"), "--check"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "shipped fixture matches the derivation" in proc.stdout


def test_nonprincipal_untabulated_raises():
    v = special_unitary(4, 70)
    with pytest.raises(NotTabulated):
        immanants.submatrix_immanant_identity(v, (2, 1), (1, 2, 3),
                                              (1, 2, 4), 4)


def test_littlewood_relation():
    for seed in range(3):
        v = special_unitary(4, 80 + seed)
        assert immanants.littlewood_relation_check(v) < 1e-12


def test_identity_sides_do_not_share_the_permanent(monkeypatch):
    """A wrong Ryser permanent must break the identities that use it: the
    D-function side computes its permanents on its own."""
    ryser = immanants.permanent
    calls = []

    def wrong(t):
        calls.append(1)
        return ryser(t) + 1e-3

    monkeypatch.setattr(immanants, "permanent", wrong)
    for n in (3, 4, 5):
        v = special_unitary(n, 90 + n)
        _, _, diff = immanants.kostant_lhs_rhs(v, (n,), n)
        assert diff > 1e-10
        # the symmetric zero-weight D-element alone never calls it
        before = len(calls)
        (label,) = immanants._zero_weight_labels(
            n, immanants.partition_to_label((n,), n))
        sunrep.dfunction(n, v, label, label)
        assert len(calls) == before
    assert immanants.littlewood_relation_check(special_unitary(4, 95)) > 1e-10


def test_missing_su3_zero_weight_state_is_typed(monkeypatch):
    monkeypatch.setattr(immanants, "_zero_weight_labels", lambda n, kap: [])
    with pytest.raises(InternalInconsistency):
        immanants.abc_via_dfunctions(special_unitary(3, 96))


# ---------------------------------------------------------------------------
# Three-photon coincidence
# ---------------------------------------------------------------------------
def quadrature_coincidence(u, taus, sigma):
    """Independent slow oracle: grid quadrature over the spectral overlap."""
    om = np.linspace(-8 * sigma, 8 * sigma, 1601)
    dw = om[1] - om[0]
    f2 = np.exp(-om ** 2 / (2 * sigma ** 2))
    f2 /= f2.sum() * dw

    def g(d):
        return (f2 * np.exp(1j * om * d)).sum() * dw

    total = 0.0
    for s in itertools.permutations(range(3)):
        for r in itertools.permutations(range(3)):
            ts = u[0, s[0]] * u[1, s[1]] * u[2, s[2]]
            tr = u[0, r[0]] * u[1, r[1]] * u[2, r[2]]
            prod = 1.0 + 0j
            for q in range(3):
                prod *= g(taus[s[q]] - taus[r[q]])
            total += (ts * tr.conjugate() * prod).real
    return total


def test_three_photon_matches_quadrature():
    rng = np.random.default_rng(5)
    for seed in range(3):
        u = linalg.haar_random_unitary(3, seed=90 + seed)
        taus = rng.uniform(-1.5, 1.5, 3)
        p = immanants.three_photon_coincidence(u, taus, 0.8)
        assert abs(p - quadrature_coincidence(u, taus, 0.8)) < 1e-8


def test_three_photon_zero_delay_is_permanent():
    u = linalg.haar_random_unitary(3, seed=13)
    p = immanants.three_photon_coincidence(u, (0, 0, 0), 1.7)
    assert abs(p - abs(immanants.permanent(u)) ** 2) < 1e-12


def test_three_photon_shape_guard():
    with pytest.raises(ShapeError):
        immanants.three_photon_coincidence(np.eye(4), (0, 0, 0), 1.0)
    with pytest.raises(ShapeError):
        immanants.three_photon_coincidence(np.eye(3), (0, 0), 1.0)


def test_single_delay_abc_decomposition():
    for seed in range(3):
        u = linalg.haar_random_unitary(3, seed=95 + seed)
        a, b, c = immanants.abc_terms(u)
        for tau in (0.0, 0.4, 1.3):
            p = immanants.three_photon_coincidence(u, (tau, 0.0, 0.0), 1.1)
            env = math.exp(-(1.1 * tau) ** 2)
            ref = (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
                   + 2 * env * (a.conjugate() * b + a.conjugate() * c
                                + b.conjugate() * c).real)
            assert abs(p - ref) < 1e-12


def test_abc_via_dfunctions_matches_matrix_elements():
    for seed in range(5):
        v = special_unitary(3, 150 + seed)
        direct = immanants.abc_terms(v)
        viad = immanants.abc_via_dfunctions(v)
        for x, y in zip(direct, viad):
            assert abs(x - y) < 1e-12


def test_abc_sum_is_permanent():
    v = special_unitary(3, 33)
    assert abs(sum(immanants.abc_terms(v)) - immanants.permanent(v)) < 1e-12
