import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interfero import bosonrep, immanants, linalg, sunrep
from interfero.errors import (
    InternalInconsistency,
    LabelError,
    ShapeError,
)


def special_unitary(m, seed):
    return linalg.haar_special_unitary(m, np.random.default_rng(seed))


def gram(basis):
    """Inner products of the scale2-normalized states."""
    return np.array([[si.raw_inner(sj)
                      / math.sqrt(float(si.scale2) * float(sj.scale2))
                      for _, sj in basis] for _, si in basis])


def _dual_irreps(n):
    return sorted({immanants.partition_to_label(lam, n)
                   for lam in immanants.partitions_of(n)})


# every irrep the group-functions benchmark warms: the duals of the
# partitions of 3, 4 and 5, the submatrix-identity and basis irreps, and
# the D-function irreps
WARM_IRREPS = sorted(
    {(n, kap) for n in (3, 4, 5) for kap in _dual_irreps(n)}
    | {(5, (1, 1, 0, 0)), (5, (2, 1, 0, 0)), (4, (1, 1, 0))}
    | {(3, (2, 1)), (3, (2, 2)), (4, (1, 0, 1)), (4, (0, 2, 0))})


# ---------------------------------------------------------------------------
# Canonical basis construction
# ---------------------------------------------------------------------------
ORTHONORMAL_IRREPS = [
    (2, (3,)), (3, (1, 1)), (3, (3, 0)), (3, (2, 2)),
    (4, (1, 0, 1)), (4, (2, 1, 0)), (4, (0, 1, 0)),
]
ORTHONORMAL_IRREPS += [key for key in WARM_IRREPS
                       if key not in ORTHONORMAL_IRREPS]


@pytest.mark.parametrize("n,kap", ORTHONORMAL_IRREPS)
def test_canonical_states_exactly_orthonormal(n, kap):
    basis = sunrep.canonical_basis_states(n, kap)
    assert len(basis) == bosonrep.irrep_dimension(kap)
    g = gram(basis)
    assert np.max(np.abs(g - np.eye(len(basis)))) == 0.0
    # exact integer orthogonality inside each occupation
    by_occ = {}
    for label, state in basis:
        by_occ.setdefault(label.occupations, []).append(state)
    for states in by_occ.values():
        for i, a in enumerate(states):
            for b in states[:i]:
                assert a.raw_inner(b) == 0


# sha256 over (label key, sorted terms, scale2) of every state of the
# warm irreps, in WARM_IRREPS order and label order; the states are Python
# ints, so the digest does not depend on the platform, and the sorted
# terms make it independent of the order the construction met them in
WARM_BASES_SHA256 = (
    "f742eb1e9a4948ad281cdc21ffafc06be06c1ebdbf1f70b8613c4c82b08acf51")


def test_warm_irrep_bases_are_pinned():
    digest = hashlib.sha256()
    for n, kap in WARM_IRREPS:
        for label, state in sunrep.canonical_basis_states(n, kap):
            digest.update(repr((label.key(), sorted(state.terms.items()),
                                state.scale2)).encode())
    assert digest.hexdigest() == WARM_BASES_SHA256


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


def greedy_raise(state):
    """Apply the first c_{l,l+1} (smallest l) with a nonzero image until
    every one annihilates the state."""
    n = state.n_sites
    while True:
        for ell in range(1, n):
            raised = state.apply_c(ell, ell + 1)
            if not raised.is_zero():
                state = raised
                break
        else:
            return state


def test_phase_convention_raising_product_positive():
    # independent check of the sign rule on every state of the warm
    # irreps: greedy simple raising ends on a positive multiple of the
    # highest-weight state; the ordered raising product
    # c_{1,2}^{p_1} ... c_{n-1,n}^{p_{n-1}}, with p_l the occupation deficit
    # below site l, agrees in sign wherever it does not vanish
    states = zero = 0
    for n, kap in WARM_IRREPS:
        h = bosonrep.hws(kap, n)
        nu_h = h.occupations()
        for label, state in sunrep.canonical_basis_states(n, kap):
            states += 1
            assert h.raw_inner(greedy_raise(state)) > 0
            cur = state
            nu = label.occupations
            for ell in range(n - 1, 0, -1):
                p = sum(nu[j] - nu_h[j] for j in range(ell, n))
                for _ in range(p):
                    cur = cur.apply_c(ell, ell + 1)
            overlap = h.raw_inner(cur)
            assert overlap >= 0
            zero += overlap == 0
    assert (states, zero) == (1093, 490)


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


def embedded_rotation(n, p, q, alpha, beta, gamma):
    """n x n identity with an Euler 2x2 block in rows/columns (p, q)."""
    if not (1 <= p < q <= n):
        raise ShapeError("rotation plane indices out of range", p=p, q=q, n=n)
    r = sunrep.euler_matrix(alpha, beta, gamma)
    out = np.eye(n, dtype=complex)
    out[p - 1, p - 1] = r[0, 0]
    out[p - 1, q - 1] = r[0, 1]
    out[q - 1, p - 1] = r[1, 0]
    out[q - 1, q - 1] = r[1, 1]
    return out


def test_fundamental_matrix_forms():
    u = special_unitary(3, 5)
    assert np.allclose(sunrep.fundamental_matrix(3, u), u)
    r = sunrep.fundamental_matrix(2, (0.3, 0.9, -1.2))
    assert np.allclose(r, sunrep.euler_matrix(0.3, 0.9, -1.2))
    # a group element is a matrix or an Euler triple, not a rotation list
    rots = [(1, 2, 0.1, 0.5, 0.2), (2, 3, -0.3, 1.0, 0.0),
            (1, 3, 0.7, 0.2, -0.1)]
    with pytest.raises(ShapeError):
        sunrep.fundamental_matrix(3, rots)
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


@pytest.mark.parametrize("n,kap", [(3, (1, 1)), (3, (2, 0)), (4, (1, 0, 1))])
def test_d_matrix_is_a_gl_n_representation(n, kap):
    # D is polynomial in the entries, so it is a representation of GL(n)
    # and takes matrices that are far from unitary
    rng = np.random.default_rng(31)
    a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for _ in range(2))
    _, da = sunrep.dfunction_matrix(n, a, kap)
    _, db = sunrep.dfunction_matrix(n, b, kap)
    _, dab = sunrep.dfunction_matrix(n, a @ b, kap)
    assert np.max(np.abs(dab - da @ db)) < 1e-12 * np.max(np.abs(dab))
    assert linalg.unitarity_defect(da) > 1.0


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


# ---------------------------------------------------------------------------
# Oracles that read only the irrep label: the character tr D(V) against
# the Weyl bialternant of V's eigenvalues, and the weight multiplicities
# against counts of Gelfand-Tsetlin patterns.
# ---------------------------------------------------------------------------
def partition_of(kap):
    """lambda_i = kappa_i + ... + kappa_{n-1}, with lambda_n = 0."""
    return tuple(sum(kap[i:]) for i in range(len(kap))) + (0,)


def schur(lam, x):
    """Weyl bialternant det(x_i^(lambda_j + n - j)) / det(x_i^(n - j))."""
    steps = len(x) - 1 - np.arange(len(x))
    return (np.linalg.det(x[:, None] ** (np.array(lam) + steps))
            / np.linalg.det(x[:, None] ** steps))


@pytest.mark.parametrize("n,kap", WARM_IRREPS)
def test_character_matches_weyl_bialternant(n, kap):
    others = [k for m, k in WARM_IRREPS if m == n and k != kap]
    assert others
    rng = np.random.default_rng([n, *kap])
    for _ in range(3):
        v = linalg.haar_special_unitary(n, rng)
        x = np.linalg.eigvals(v)
        _, d = sunrep.dfunction_matrix(n, v, kap)
        assert abs(np.trace(d) - schur(partition_of(kap), x)) < 1e-12
        # another irrep's character is far off: the oracle tells them apart
        for other in others:
            assert abs(np.trace(d) - schur(partition_of(other), x)) > 1e-6


def gt_occupation_counts(lam):
    """Site occupations of every Gelfand-Tsetlin pattern with top row lam:
    nu_l = |row l| - |row l-1|, rows interlacing downwards."""
    counts = Counter()

    def descend(row, below):
        if len(row) == 1:
            counts[(row[0],) + below] += 1
            return
        for lower in itertools.product(*(range(row[k + 1], row[k] + 1)
                                         for k in range(len(row) - 1))):
            descend(lower, (sum(row) - sum(lower),) + below)

    descend(tuple(lam), ())
    return counts


@pytest.mark.parametrize("n,kap", WARM_IRREPS)
def test_weight_multiplicities_match_gt_pattern_counts(n, kap):
    labels = [label for label, _ in sunrep.canonical_basis_states(n, kap)]
    assert (Counter(label.occupations for label in labels)
            == gt_occupation_counts(partition_of(kap)))


# ---------------------------------------------------------------------------
# Oracle: expand the column state in creation operators, one monomial at a
# time, and contract with the row state in the bosonic metric.  Independent
# of the permanent kernel in sunrep.
# ---------------------------------------------------------------------------
_FACT = bosonrep._FACTORIAL


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _transform_monomial(mono, v):
    """Expand prod a†_{i,k}^e under a†_{i,k} -> sum_j v[j,i] a†_{j,k}."""
    n = v.shape[0]
    zero = tuple((0,) * len(mono[0]) for _ in range(n))
    acc = {zero: 1.0 + 0.0j}
    for i, row in enumerate(mono):
        for k, e in enumerate(row):
            if e == 0:
                continue
            new = {}
            for comp in _compositions(e, n):
                coef = _FACT[e]
                for j, c_j in enumerate(comp):
                    if c_j:
                        coef = coef / _FACT[c_j] * v[j, i] ** c_j
                if coef == 0:
                    continue
                for mat, c0 in acc.items():
                    rows = list(mat)
                    for j, c_j in enumerate(comp):
                        if c_j:
                            r = list(rows[j])
                            r[k] += c_j
                            rows[j] = tuple(r)
                    key2 = tuple(rows)
                    new[key2] = new.get(key2, 0.0) + c0 * coef
            acc = new
    return acc


def _transform_state(terms, v):
    out = {}
    for mono, c in terms.items():
        for mat, t in _transform_monomial(mono, v).items():
            out[mat] = out.get(mat, 0.0) + c * t
    return out


def _float_terms(state):
    s = 1.0 / math.sqrt(float(state.scale2))
    return {mono: float(c) * s for mono, c in state.terms.items()}


def _contract(row_terms, transformed):
    return sum(c * transformed.get(m, 0.0) * bosonrep.monomial_weight(m)
               for m, c in row_terms.items())


def oracle_pairs(n, v, pairs):
    states = {}
    for label, state in sunrep.canonical_basis_states(n, pairs[0][0].irrep):
        states[label] = _float_terms(state)
    transformed = {}
    out = []
    for row, col in pairs:
        if col not in transformed:
            transformed[col] = _transform_state(states[col], v)
        out.append(_contract(states[row], transformed[col]))
    return np.array(out)


def oracle_matrix(n, v, kap):
    labels = [label for label, _ in sunrep.canonical_basis_states(n, kap)]
    flat = oracle_pairs(n, v, [(r, c) for r in labels for c in labels])
    return flat.reshape(len(labels), len(labels))


def group_elements(n, seed):
    """Haar, permutation, diagonal-phase and beta in {0, pi} rotations."""
    rng = np.random.default_rng(seed)
    perm = np.eye(n)[rng.permutation(n)].astype(complex)
    phases = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    return {
        "haar": linalg.haar_special_unitary(n, rng),
        "permutation": perm,
        "diagonal": np.diag(phases),
        "rotation-beta0": embedded_rotation(n, 1, n, 0.4, 0.0, -1.3),
        "rotation-betapi": embedded_rotation(n, 1, 2, 0.7, math.pi, 0.2),
    }


ORACLE_IRREPS = sorted(
    {(n, kap) for n in (2, 3, 4) for kap in _dual_irreps(n)}
    | {(2, (3,)), (3, (2, 1)), (3, (2, 2)), (4, (0, 1, 0))})


@pytest.mark.parametrize("n,kap", ORACLE_IRREPS)
def test_dfunction_matrix_matches_expansion_oracle(n, kap):
    for name, v in group_elements(n, 100 + n).items():
        labels, d = sunrep.dfunction_matrix(n, v, kap)
        assert labels == [l for l, _ in sunrep.canonical_basis_states(n, kap)]
        assert np.max(np.abs(d - oracle_matrix(n, v, kap))) < 1e-12, name
        assert linalg.unitarity_defect(d) < 1e-12, name


def _su5_zero_weight_pairs():
    out = []
    for lam in immanants.partitions_of(5):
        kap = immanants.partition_to_label(lam, 5)
        out.append([(l, l) for l in immanants._zero_weight_labels(5, kap)])
    return out


def _su5_fixture_pairs():
    return [pairs for key, pairs in immanants._submatrix_fixture().items()
            if key[0] == 5]


@pytest.mark.parametrize("source", ["zero-weight", "fixture"])
def test_su5_dfunctions_match_expansion_oracle(source):
    pair_lists = (_su5_zero_weight_pairs() if source == "zero-weight"
                  else _su5_fixture_pairs())
    assert len(pair_lists) == (7 if source == "zero-weight" else 2)
    for name, v in group_elements(5, 7).items():
        for pairs in pair_lists:
            got = np.array([sunrep.dfunction(5, v, r, c) for r, c in pairs])
            assert np.max(np.abs(got - oracle_pairs(5, v, pairs))) < 1e-12, (
                name, pairs[0][0].irrep)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(irrep=st.sampled_from([(2, (4,)), (3, (1, 1)), (3, (3, 0)),
                              (4, (1, 0, 1)), (4, (0, 2, 0)),
                              (5, (1, 0, 0, 1))]),
       kinds=st.tuples(st.sampled_from(["haar", "permutation", "diagonal",
                                        "rotation-beta0", "rotation-betapi"]),
                       st.sampled_from(["haar", "permutation", "diagonal",
                                        "rotation-beta0", "rotation-betapi"])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dfunction_matrix_is_a_homomorphism(irrep, kinds, seed):
    n, kap = irrep
    v = group_elements(n, seed)[kinds[0]]
    w = group_elements(n, [seed, 1])[kinds[1]]
    _, dv = sunrep.dfunction_matrix(n, v, kap)
    _, dw = sunrep.dfunction_matrix(n, w, kap)
    _, dvw = sunrep.dfunction_matrix(n, v @ w, kap)
    assert np.max(np.abs(dvw - dv @ dw)) < 1e-12


@pytest.mark.parametrize("size", range(7))
def test_glynn_stack_matches_ryser_permanent(size):
    rng = np.random.default_rng(size)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # distinct, repeated-row, repeated-column and fully repeated multisets
    out_sites = np.array([np.sort(rng.choice(4, size=size, replace=size > 4)),
                          np.sort(rng.integers(0, 2, size=size)),
                          np.zeros(size, dtype=int)]).reshape(3, size)
    in_sites = np.array([np.sort(rng.integers(0, 4, size=size)),
                         np.full(size, 3),
                         np.sort(rng.integers(1, 3, size=size))]
                        ).reshape(3, size)
    table = sunrep._permanent_table(m, out_sites, in_sites)
    for i, f in enumerate(out_sites):
        for j, e in enumerate(in_sites):
            want = immanants.permanent(m[np.ix_(f, e)])
            assert abs(table[i, j] - want) < 1e-10 * max(1.0, abs(want))


def test_glynn_chunking_leaves_d_unchanged(monkeypatch):
    v = special_unitary(4, 31)
    _, whole = sunrep.dfunction_matrix(4, v, (2, 1, 0))
    monkeypatch.setattr(sunrep, "_GLYNN_CHUNK", 40)  # 3-4 pairs per chunk
    _, chunked = sunrep.dfunction_matrix(4, v, (2, 1, 0))
    assert np.max(np.abs(chunked - whole)) < 1e-14


def test_permanent_table_size_mismatch_is_zero():
    m = np.arange(9.0).reshape(3, 3) + 1j
    pair, single = np.array([[0, 1]]), np.array([[2], [0]])
    assert not np.any(sunrep._permanent_table(m, pair, single))
    empty = np.zeros((2, 0), dtype=int)
    assert np.all(sunrep._permanent_table(m, empty, empty[:1]) == 1)


def test_table_rejects_a_species_count_that_varies():
    label = sunrep.CanonicalStateLabel(((1,),), (1, 0))
    mixed = bosonrep.BosonPolynomial(2, 1, {((1,), (0,)): 1,
                                            ((1,), (1,)): 1}, scale2=3)
    with pytest.raises(InternalInconsistency):
        sunrep._IrrepTable([(label, mixed)])


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


# ---------------------------------------------------------------------------
# Rational-route oracle for the integer construction
# ---------------------------------------------------------------------------
# Rational versions of the orthogonal complement and content reduction.
# Patched in, they rebuild every basis in Fraction arithmetic: a second
# exact route, sharing none of the integer elimination, that the integer
# construction must match bit for bit.
def _rational_primitive(terms):
    num, den = 0, 1
    for c in terms.values():
        f = Fraction(c)
        num = gcd(num, f.numerator)
        den = lcm(den, f.denominator)
    if not num:
        return terms
    g = Fraction(num, den)
    return {mono: c / g for mono, c in terms.items()}


def _rational_complement(terms, orth):
    r = dict(terms)
    for e, n2 in orth:
        c = bosonrep._inner(e, r)
        if c:
            factor = Fraction(c) / n2
            for mono, v in e.items():
                s = r.get(mono, 0) - factor * v
                if s:
                    r[mono] = s
                else:
                    del r[mono]
    return _rational_primitive(r)


def _rational_reduce_content(self):
    return bosonrep.BosonPolynomial(
        self.n_sites, self.n_species, _rational_primitive(self.terms),
        self.scale2)


def _cold_tables(monkeypatch):
    monkeypatch.setattr(sunrep, "_CANONICAL_CACHE", {})
    monkeypatch.setattr(sunrep, "_TABLE_CACHE", {})
    return {key: sunrep._irrep_table(*key) for key in WARM_IRREPS}


def test_integer_construction_matches_rational_oracle(monkeypatch):
    assert len(WARM_IRREPS) == 20
    with monkeypatch.context() as mp:
        integer = _cold_tables(mp)
    with monkeypatch.context() as mp:
        mp.setattr(bosonrep, "complement", _rational_complement)
        mp.setattr(bosonrep.BosonPolynomial, "reduce_content",
                   _rational_reduce_content)
        rational = _cold_tables(mp)
        # every state below the highest-weight one went through the patches
        assert all(type(c) is Fraction
                   for basis in sunrep._CANONICAL_CACHE.values()
                   for _, state in basis[1:] for c in state.terms.values())
    for key in WARM_IRREPS:
        a, b = integer[key], rational[key]
        assert a.labels == b.labels, key
        for name in ("indptr", "mono", "data", "multiset"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, (key, name)
            assert x.tobytes() == y.tobytes(), (key, name)
        assert len(a.sites) == len(b.sites), key
        for x, y in zip(a.sites, b.sites):
            assert x.dtype == y.dtype and x.shape == y.shape, key
            assert x.tobytes() == y.tobytes(), key
