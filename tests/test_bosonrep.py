import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from interfero import bosonrep, sunrep
from interfero.bosonrep import BosonPolynomial
from interfero.errors import (
    InternalInconsistency,
    LabelError,
    NotHighestWeight,
)


def test_vacuum_and_weight():
    vac = BosonPolynomial.vacuum(3, 2)
    assert vac.occupations() == (0, 0, 0)
    assert vac.weight(3) == (0, 0)
    assert vac.norm2_raw() == 1


def test_hws_su2_is_power_state():
    # (a†)^{2J} on the vacuum with squared norm (2J)!
    for twoj in (1, 2, 5):
        h = bosonrep.hws((twoj,))
        assert len(h.terms) == 1
        (mono, coeff), = h.terms.items()
        assert coeff == 1
        assert sum(sum(r) for r in mono) == twoj
        assert h.scale2 == bosonrep._FACTORIAL[twoj]
        assert h.occupations() == (twoj, 0)


def test_hws_su3_adjoint_explicit():
    # det_2 * det_1 gives two monomials with integer coefficients
    h = bosonrep.hws((1, 1))
    assert h.occupations() == (2, 1, 0)
    assert h.weight(3) == (1, 1)
    assert sorted(h.terms.values()) == [-1, 1]
    assert h.norm2_raw() == 3


def test_hws_annihilated_by_raising():
    for kap in [(2,), (1, 1), (2, 1), (1, 0, 1), (2, 0, 0)]:
        h = bosonrep.hws(kap)
        n = len(kap) + 1
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert h.apply_c(i, j).is_zero()


def apply_h(state, i):
    """h_i = number(site i) - number(site i+1) (1-based) applied to a state."""
    out = {}
    for mono, c in state.terms.items():
        ev = sum(mono[i - 1]) - sum(mono[i])
        if ev:
            out[mono] = c * ev
    return BosonPolynomial(state.n_sites, state.n_species, out, state.scale2)


def difference(a, b):
    """Coefficient map of the state a - b, zero terms dropped."""
    out = dict(a.terms)
    for mono, c in b.terms.items():
        out[mono] = out.get(mono, 0) - c
    return {mono: c for mono, c in out.items() if c}


def test_generator_commutator_on_random_state():
    # [c_{1,2}, c_{2,1}] acts as h_1 on any state
    h = bosonrep.hws((2, 1))
    state = h.apply_c(3, 1).apply_c(2, 1)
    lhs = difference(state.apply_c(2, 1).apply_c(1, 2),
                     state.apply_c(1, 2).apply_c(2, 1))
    rhs = apply_h(state, 1)
    assert not rhs.is_zero()
    assert lhs == rhs.terms


def test_inner_product_is_bosonic():
    # <0|a a† a a†|0> bookkeeping: ||(a†)^2|0>||^2 = 2
    p = BosonPolynomial(2, 1, {((2,), (0,)): 1})
    assert p.norm2_raw() == 2
    q = BosonPolynomial(2, 1, {((1,), (1,)): 1})
    assert q.norm2_raw() == 1
    assert p.raw_inner(q) == 0


def test_irrep_dimension_known_values():
    assert bosonrep.irrep_dimension((0,)) == 1
    assert bosonrep.irrep_dimension((3,)) == 4
    assert bosonrep.irrep_dimension((1, 0)) == 3
    assert bosonrep.irrep_dimension((1, 1)) == 8
    assert bosonrep.irrep_dimension((2, 2)) == 27
    assert bosonrep.irrep_dimension((1, 0, 1)) == 15
    assert bosonrep.irrep_dimension((0, 1, 0)) == 6
    assert bosonrep.irrep_dimension((2, 1, 0, 0)) == 105


def test_normalizing_the_zero_state_is_typed():
    with pytest.raises(InternalInconsistency):
        BosonPolynomial(2, 1).normalized_exact()


def test_non_integer_dimension_is_typed(monkeypatch):
    # a corrupted rational product must not be truncated to an int
    monkeypatch.setattr(bosonrep, "Fraction",
                        lambda num, den=1: Fraction(num, den + 1))
    with pytest.raises(InternalInconsistency):
        bosonrep.irrep_dimension((1,))


def test_basis_set_counts_match_dimension():
    for kap in [(3,), (1, 1), (2, 2), (3, 1), (1, 0, 1), (2, 0, 0),
                (1, 1, 0, 0)]:
        bs = bosonrep.basis_set(bosonrep.hws(kap), len(kap) + 1)
        assert bs.dimension() == bosonrep.irrep_dimension(kap)


def test_basis_set_weight_multiplicity():
    bs = bosonrep.basis_set(bosonrep.hws((1, 1)), 3)
    assert len(bs.by_weight[(0, 0)]) == 2
    bs27 = bosonrep.basis_set(bosonrep.hws((2, 2)), 3)
    assert len(bs27.by_weight[(0, 0)]) == 3


def test_basis_set_rejects_non_hws():
    bs = bosonrep.basis_set(bosonrep.hws((1, 1)), 3)
    lowered = bs.states[1]
    with pytest.raises(NotHighestWeight):
        bosonrep.basis_set(lowered, 3)
    with pytest.raises(NotHighestWeight):
        bosonrep.basis_set(BosonPolynomial(3, 2), 3)


def assert_primitive_integer(state):
    """Every coefficient a Python int, their gcd (the content) 1."""
    assert state.terms
    content = 0
    for c in state.terms.values():
        assert type(c) is int
        content = gcd(content, c)
    assert content == 1


def test_basis_states_stay_exact():
    # primitive integer vectors from basis growth through the canonical
    # chain, and states sharing occupations exactly orthogonal
    for n, kap in [(3, (2, 1)), (3, (2, 2)), (4, (1, 0, 1))]:
        bs = bosonrep.basis_set(bosonrep.hws(kap, n), n)
        for s in bs.states:
            assert_primitive_integer(s)
        basis = sunrep.canonical_basis_states(n, kap)
        for _, state in basis:
            assert_primitive_integer(state)
            assert type(state.scale2) is int
            assert state.scale2 == state.norm2_raw()
        for i, (_, a) in enumerate(basis):
            for _, b in basis[:i]:
                if a.occupations() == b.occupations():
                    assert a.raw_inner(b) == 0


def test_minor_basis_count_matches_exact_route():
    # the determinant-variable BFS must agree with the boson-monomial BFS
    for n, kap in [(2, (3,)), (3, (1, 1)), (3, (2, 2)), (3, (0, 4)),
                   (4, (1, 0, 1)), (4, (0, 0, 3)), (4, (2, 1, 0)),
                   (5, (1, 0, 0, 1)), (5, (0, 0, 0, 2)), (4, (0, 2, 0)),
                   (3, (0, 0))]:
        fast = bosonrep.minor_basis_count(kap, n)
        exact = bosonrep.basis_set(bosonrep.hws(kap, n), n).dimension()
        assert fast == exact == bosonrep.irrep_dimension(kap)


def test_minor_basis_count_seed_independent():
    for seed in (0, 1, 2):
        assert bosonrep.minor_basis_count((1, 1), 3, seed=seed) == 8
        assert bosonrep.minor_basis_count((0, 0, 5), 4, seed=seed) == 56


def minor_expansion(n, mono):
    """Boson polynomial of a minor monomial: the product over its subsets R
    of det[a†_{r,c}] (r in R, species c = 1..|R|)."""
    poly = BosonPolynomial.vacuum(n, n - 1)
    for subset in mono:
        terms = {}
        for perm in itertools.permutations(range(len(subset))):
            rows = [[0] * (n - 1) for _ in range(n)]
            for r, c in zip(subset, perm):
                rows[r - 1][c] += 1
            terms[tuple(map(tuple, rows))] = bosonrep._perm_sign(perm)
        poly = poly.product(BosonPolynomial(n, n - 1, terms))
    return poly


def test_minor_lowerings_match_boson_action():
    # c_{j+1,j} on the expanded minors equals the expansion of the
    # minor-variable image, with no sign
    n = 4
    for mono in [((1,), (1, 2), (1, 2, 3)), ((1,), (1,), (1, 3)),
                 ((1, 2), (1, 2), (2, 4)), ((1, 3, 4), (2,))]:
        for j in range(1, n):
            got = {}
            for image, mult in bosonrep._minor_lowerings(mono, j):
                for m, c in minor_expansion(n, image).terms.items():
                    got[m] = got.get(m, 0) + mult * c
            got = {m: c for m, c in got.items() if c}
            want = minor_expansion(n, mono).apply_c(j + 1, j).terms
            assert got == want


def minor_det_mod(matrix_rows, p):
    """Determinant of a small square integer matrix mod p (Leibniz)."""
    k = len(matrix_rows)
    total = 0
    for perm in itertools.permutations(range(k)):
        term = bosonrep._perm_sign(perm)
        for r in range(k):
            term = term * matrix_rows[r][perm[r]] % p
        total = (total + term) % p
    return total


def test_minor_table_matches_leibniz():
    # the Laplace recursion gives every leading-column minor of every row
    # subset, mod p, at every evaluation point
    p = bosonrep._FP_PRIME
    for n in range(2, 7):
        top = n - 1
        for seed in range(3):
            rng = np.random.default_rng([seed, n])
            points = [rng.integers(1, p, size=(n, top)).tolist()
                      for _ in range(bosonrep._FP_POINTS)]
            table = bosonrep._minor_table(points, top)
            subsets = [s for k in range(1, top + 1)
                       for s in itertools.combinations(range(1, n + 1), k)]
            assert sorted(table) == sorted(subsets)
            for s in subsets:
                want = [minor_det_mod([a[r - 1][:len(s)] for r in s], p)
                        for a in points]
                assert table[s] == want


LANE_BITS = 192
LANE_MASK = (1 << LANE_BITS) - 1


def lanes_raw(packed):
    """Every lane of a packed fingerprint, unreduced."""
    return [packed >> (LANE_BITS * i) & LANE_MASK
            for i in range(bosonrep._FP_POINTS)]


def echelon_insert(rows, vec, p):
    """Row echelon insertion on residue lists, every lane reduced at each
    step: the oracle for the packed ``_ModEchelon``."""
    for pivot, row in rows:
        c = vec[pivot]
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    for idx, val in enumerate(vec):
        if val:
            inv = pow(val, p - 2, p)
            rows.append((idx, [x * inv % p for x in vec]))
            return True
    return False


def test_packed_lanes_never_carry():
    p = bosonrep._FP_PRIME
    points = bosonrep._FP_POINTS
    rng = random.Random(7)
    for _ in range(50):
        residues = [rng.randrange(p) for _ in range(points)]
        packed = bosonrep._pack(residues)
        assert bosonrep._unpack(packed) == residues
        assert lanes_raw(packed) == residues
    # 5,000 terms of coefficient -1 on values p - 1: the largest products
    largest = bosonrep._pack([p - 1] * points)
    fp = bosonrep._fingerprint({i: -1 for i in range(5000)},
                               lambda _: largest)
    assert lanes_raw(fp) == [5000 * (p - 1) ** 2] * points
    assert bosonrep._unpack(fp) == [-5000 * (p - 1) % p] * points
    # mixed residues: each lane is its own per-point sum
    values = {i: [rng.choice((0, 1, p - 1, rng.randrange(p)))
                  for _ in range(points)] for i in range(300)}
    terms = {i: rng.choice((-1, 1, -p + 1, rng.randrange(-p * p, p * p)))
             for i in values}
    fp = bosonrep._fingerprint(
        terms, lambda i: bosonrep._pack(values[i]))
    assert bosonrep._unpack(fp) == [
        sum(c * values[i][k] for i, c in terms.items()) % p
        for k in range(points)]


def test_packed_elimination_matches_residue_lists(monkeypatch):
    p = bosonrep._FP_PRIME
    points = bosonrep._FP_POINTS
    # a 24-row chain in which every pivot coefficient c is p - 1: row i has
    # 1 at lane i and p - 1 after it, and lane j of the vector is j - 1
    space = bosonrep._ModEchelon()
    rows = []
    for i in range(points):
        row = [0] * i + [1] + [p - 1] * (points - 1 - i)
        space.rows.append((i * LANE_BITS, bosonrep._pack(row)))
        rows.append((i, row))
    vec = [(j - 1) % p for j in range(points)]
    exact = list(vec)
    for pivot, row in rows:
        c = exact[pivot] % p
        assert c == p - 1
        exact = [x + (p - c) * y for x, y in zip(exact, row)]
    eliminated = []
    unpack = bosonrep._unpack

    def recording(packed):
        eliminated.append(lanes_raw(packed))
        return unpack(packed)

    monkeypatch.setattr(bosonrep, "_unpack", recording)
    assert space.try_insert(bosonrep._pack(vec)) is False
    assert echelon_insert(rows, vec, p) is False
    assert eliminated == [exact]
    assert [x % p for x in exact] == [0] * points
    monkeypatch.undo()
    # random vectors, with dependent ones among them, admitted and reduced
    # as the residue-list echelon does
    rng = random.Random(11)
    space, rows = bosonrep._ModEchelon(), []
    basis = []
    for step in range(40):
        if basis and step % 3 == 2:
            vec = [sum(rng.randrange(p) * b[k] for b in basis) % p
                   for k in range(points)]
        else:
            vec = [rng.choice((0, 1, p - 1, rng.randrange(p)))
                   for _ in range(points)]
            basis.append(vec)
        assert space.try_insert(bosonrep._pack(vec)) == echelon_insert(
            rows, vec, p)
        assert [(s // LANE_BITS, bosonrep._unpack(r))
                for s, r in space.rows] == rows


def test_label_validation():
    with pytest.raises(LabelError):
        bosonrep.hws((-1, 0))
    with pytest.raises(LabelError):
        bosonrep.hws((1, 1), n=4)
    with pytest.raises(LabelError):
        bosonrep.irrep_dimension((2, -1))


# the su(n) count labels of the group-functions benchmark workload
COUNT_LABELS = ((2, 2), (1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0))


def irreps_up_to(n, maxdim):
    """Every su(n) label of dimension <= maxdim (the dimension grows with
    each entry, so a prefix padded with zeros bounds its extensions)."""
    out = []

    def rec(prefix):
        if len(prefix) == n - 1:
            out.append(tuple(prefix))
            return
        k = 0
        while bosonrep.irrep_dimension(
                tuple(prefix + [k] + [0] * (n - 2 - len(prefix)))) <= maxdim:
            rec(prefix + [k])
            k += 1
    rec([])
    return [k for k in out if bosonrep.irrep_dimension(k) <= maxdim]


COUNT_FINGERPRINTS_SHA256 = (
    "fe1969740d633d7356c372bf72c8731da36cddd4754c5afd42aee1621207f7b2")


def test_count_fingerprints_are_pinned(monkeypatch):
    # every fingerprint offered to the echelon, reduced mod p, and every
    # admit/reject decision, in call order, over the benchmark's count
    # labels at five seeds and every n = 2..5 irrep of dim <= 60
    digest = hashlib.sha256()
    insert = bosonrep._ModEchelon.try_insert

    def recording(self, vec):
        lanes = [x % bosonrep._FP_PRIME for x in lanes_raw(vec)]
        ok = insert(self, vec)
        digest.update(f"{','.join(map(str, lanes))}:{int(ok)};".encode())
        return ok

    monkeypatch.setattr(bosonrep._ModEchelon, "try_insert", recording)
    cases = [(kap, seed) for kap in COUNT_LABELS for seed in range(5)]
    cases += [(kap, 0) for n in (2, 3, 4, 5) for kap in irreps_up_to(n, 60)]
    for kap, seed in cases:
        assert (bosonrep.minor_basis_count(kap, seed=seed)
                == bosonrep.irrep_dimension(kap))
    assert digest.hexdigest() == COUNT_FINGERPRINTS_SHA256
