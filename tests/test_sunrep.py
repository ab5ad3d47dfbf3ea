import math

import numpy as np
import pytest

from interfero import bosonrep, linalg, sunrep
from interfero.errors import LabelError, NotUnitary, ShapeError


def special_unitary(m, seed):
    return linalg.haar_special_unitary(m, np.random.default_rng(seed))


def gram(basis):
    return np.array([[complex(si.inner(sj)) for _, sj in basis]
                     for _, si in basis])


# ---------------------------------------------------------------------------
# Canonical basis construction
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n,kap", [
    (2, (3,)), (3, (1, 1)), (3, (3, 0)), (3, (2, 2)),
    (4, (1, 0, 1)), (4, (2, 1, 0)), (4, (0, 1, 0)),
])
def test_canonical_states_exactly_orthonormal(n, kap):
    basis = sunrep.canonical_basis_states(n, kap)
    assert len(basis) == bosonrep.irrep_dimension(kap)
    g = gram(basis)
    assert np.max(np.abs(g - np.eye(len(basis)))) == 0.0


def test_canonical_labels_unique_and_consistent():
    basis = sunrep.canonical_basis_states(3, (2, 2))
    keys = {label.key() for label, _ in basis}
    assert len(keys) == len(basis)
    for label, state in basis:
        assert label.occupations == state.occupations()
        assert label.irrep == (2, 2)
        assert len(label.chain_irreps) == 2


def test_zero_weight_multiplicity_adjoint():
    labels = sunrep.labels_with_weight(3, (1, 1), (1, 1, 1))
    assert len(labels) == 2
    chains = sorted(label.chain_irreps[-1] for label in labels)
    assert chains == [(0,), (2,)]


def test_phase_convention_raising_product_positive():
    # independent check of the sign rule on every state of two irreps
    for n, kap in [(3, (1, 1)), (4, (1, 0, 1))]:
        h = bosonrep.hws(kap, n)
        nu_h = h.occupations()
        for label, state in sunrep.canonical_basis_states(n, kap):
            cur = state
            nu = label.occupations
            for ell in range(n - 1, 0, -1):
                p = sum(nu[j] - nu_h[j] for j in range(ell, n))
                for _ in range(p):
                    cur = cur.apply_c(ell, ell + 1)
            overlap = h.raw_inner(cur)
            assert overlap >= 0


# ---------------------------------------------------------------------------
# Group-element descriptions
# ---------------------------------------------------------------------------
def test_euler_matrix_entries():
    a, b, g = 0.7, 1.1, -0.4
    r = sunrep.euler_matrix(a, b, g)
    assert abs(r[0, 0] - np.exp(-1j * (a + g) / 2) * math.cos(b / 2)) < 1e-15
    assert abs(r[0, 1] + np.exp(-1j * (a - g) / 2) * math.sin(b / 2)) < 1e-15
    assert linalg.unitarity_defect(r) < 1e-15
    assert abs(np.linalg.det(r) - 1) < 1e-15


def test_fundamental_matrix_forms():
    u = special_unitary(3, 5)
    assert np.allclose(sunrep.fundamental_matrix(3, u), u)
    r = sunrep.fundamental_matrix(2, (0.3, 0.9, -1.2))
    assert np.allclose(r, sunrep.euler_matrix(0.3, 0.9, -1.2))
    rots = [(1, 2, 0.1, 0.5, 0.2), (2, 3, -0.3, 1.0, 0.0),
            (1, 3, 0.7, 0.2, -0.1)]
    v = sunrep.fundamental_matrix(3, rots)
    assert linalg.unitarity_defect(v) < 1e-14
    assert abs(np.linalg.det(v) - 1) < 1e-12
    with pytest.raises(NotUnitary):
        sunrep.fundamental_matrix(2, np.eye(2) * 1.5)
    with pytest.raises(ShapeError):
        sunrep.fundamental_matrix(3, np.eye(2))


# ---------------------------------------------------------------------------
# D-functions
# ---------------------------------------------------------------------------
def test_fundamental_irrep_d_matrix_is_the_matrix():
    u = special_unitary(4, 11)
    labels, d = sunrep.dfunction_matrix(4, u, (1, 0, 0))
    assert np.max(np.abs(d - u)) < 1e-14
    assert [l.occupations for l in labels] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("n,kap", [(3, (1, 1)), (3, (2, 0)), (4, (1, 0, 1))])
def test_d_matrix_unitary_and_homomorphic(n, kap):
    u1 = special_unitary(n, 21)
    u2 = special_unitary(n, 22)
    _, d1 = sunrep.dfunction_matrix(n, u1, kap)
    _, d2 = sunrep.dfunction_matrix(n, u2, kap)
    _, d12 = sunrep.dfunction_matrix(n, u1 @ u2, kap)
    assert linalg.unitarity_defect(d1) < 1e-12
    assert np.max(np.abs(d12 - d1 @ d2)) < 1e-12


def test_d_identity_element():
    _, d = sunrep.dfunction_matrix(3, np.eye(3), (1, 1))
    assert np.max(np.abs(d - np.eye(8))) < 1e-14


def test_su2_middle_element_is_cos_beta():
    basis = sunrep.canonical_basis_states(2, (2,))
    lab = {l.occupations: l for l, _ in basis}
    for beta in np.linspace(0.0, math.pi, 7):
        d = sunrep.dfunction(2, (0.8, float(beta), -0.5),
                             lab[(1, 1)], lab[(1, 1)])
        assert abs(d - math.cos(beta)) < 1e-12


def test_dfunction_cross_irrep_vanishes():
    row = sunrep.canonical_basis_states(3, (1, 1))[0][0]
    col = sunrep.canonical_basis_states(3, (2, 0))[0][0]
    assert sunrep.dfunction(3, special_unitary(3, 3), row, col) == 0


def test_dfunction_unknown_label_raises():
    u = special_unitary(3, 9)
    good = sunrep.canonical_basis_states(3, (1, 1))[0][0]
    bad = sunrep.CanonicalStateLabel(((1, 1), (2,)), (3, 0, 0))
    with pytest.raises(LabelError):
        sunrep.dfunction(3, u, good, bad)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------
def test_gt_su2_rows():
    basis = sunrep.canonical_basis_states(2, (2,))
    pats = {l.occupations: sunrep.state_to_gt(l) for l, _ in basis}
    # 2J = 2; lower row is J + M
    assert pats[(2, 0)] == ((2, 0), (2,))
    assert pats[(1, 1)] == ((2, 0), (1,))
    assert pats[(0, 2)] == ((2, 0), (0,))


def test_gt_su3_highest_weight():
    basis = sunrep.canonical_basis_states(3, (1, 1))
    top = next(l for l, _ in basis if l.occupations == (2, 1, 0))
    assert sunrep.state_to_gt(top) == ((2, 1, 0), (2, 1), (2,))


def test_gt_patterns_valid_for_whole_irrep():
    for n, kap in [(3, (2, 2)), (4, (1, 0, 1))]:
        seen = set()
        for label, _ in sunrep.canonical_basis_states(n, kap):
            pat = sunrep.state_to_gt(label)
            assert pat not in seen
            seen.add(pat)
            assert len(pat) == n
            for row_idx, row in enumerate(pat):
                assert len(row) == n - row_idx
            # row sums encode the occupations
            for ell in range(1, n + 1):
                above = sum(pat[n - ell])
                below = sum(pat[n - ell + 1]) if ell > 1 else 0
                assert above - below == label.occupations[ell - 1]


def test_gt_incompatible_label_raises():
    bad = sunrep.CanonicalStateLabel(((1, 1), (1,)), (3, 0, 0))
    with pytest.raises(LabelError):
        sunrep.state_to_gt(bad)
