"""Exact boson-realization algebra for su(n) irreducible representations.

A state is a polynomial in creation operators a†_{i,k} (site i = 1..n,
species k = 1..n-1) acting on the vacuum, stored as a sparse map from
occupation matrices to coefficients.  Construction work (highest-weight
states, generator actions, basis growth) keeps every state as a primitive
integer vector.  One fraction-free orthogonal complement (``complement``)
decides linear independence and yields the orthogonal states: each
projection is cross-multiplied by the claimed state's squared norm and the
content is divided out, so every decision is exact and needs no
tolerance; floating point enters only when ``sunrep`` tabulates
normalized coefficients for D-functions.

Generators, acting on site indices only (summed over species):

    c_{i,j} = sum_k a†_{i,k} a_{j,k}     (moves one boson from site j to i)
    h_i     = sum_k (a†_{i,k} a_{i,k} - a†_{i+1,k} a_{i+1,k})

The su(m) subalgebra of the canonical chain acts on the first m sites.
Since c_{i,k} = [c_{i,j}, c_{j,k}], the m-1 simple lowering operators
c_{l+1,l} span every lowering orbit, and a state of definite weight that
the simple raising operators c_{l,l+1} annihilate is annihilated by all
raising operators; the walks here apply only the simple ones.
"""
import itertools
import struct
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    InternalInconsistency,
    InvalidDimension,
    LabelError,
    NotHighestWeight,
)


def _validate_label(kappas, n=None):
    kappas = tuple(int(k) for k in kappas)
    if n is None:
        n = len(kappas) + 1
    if len(kappas) != n - 1:
        raise LabelError("irrep label must have n-1 entries",
                         n=n, label=list(kappas))
    if any(k < 0 for k in kappas):
        raise LabelError("irrep label entries must be nonnegative",
                         label=list(kappas))
    return kappas


def occupation_weight(occ, m):
    """su(m) weight (nu_1 - nu_2, ..., nu_{m-1} - nu_m) of the per-site
    boson totals ``occ``."""
    return tuple(occ[i] - occ[i + 1] for i in range(m - 1))


class BosonPolynomial:
    """Sparse polynomial in creation operators applied to the vacuum.

    ``terms`` maps an occupation matrix — a tuple of ``n_sites`` tuples of
    ``n_species`` exponents — to a coefficient.  ``scale2`` is an exact
    squared inverse normalization: the state represented is
    (1/sqrt(scale2)) * sum_m terms[m] * m |vac>.  All algebraic operations
    act on the raw coefficients and require matching ``scale2``.
    """

    __slots__ = ("n_sites", "n_species", "terms", "scale2")

    def __init__(self, n_sites, n_species, terms=None, scale2=1):
        self.n_sites = int(n_sites)
        self.n_species = int(n_species)
        self.terms = dict(terms) if terms else {}
        self.scale2 = scale2

    # -- constructors -------------------------------------------------------
    @classmethod
    def vacuum(cls, n_sites, n_species):
        empty = tuple((0,) * n_species for _ in range(n_sites))
        return cls(n_sites, n_species, {empty: 1})

    # -- structure ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if (self.n_sites != other.n_sites
                or self.n_species != other.n_species):
            raise InvalidDimension(
                "polynomials live on different mode sets",
                a=[self.n_sites, self.n_species],
                b=[other.n_sites, other.n_species])

    def occupations(self, verify=True):
        """Per-site boson totals, or None if monomials disagree.

        With ``verify=False`` only the first monomial is inspected; valid
        when the state is known to be weight-homogeneous (e.g. produced by
        generator chains from a definite-occupation state).
        """
        occ = None
        for mono in self.terms:
            this = tuple(sum(row) for row in mono)
            if occ is None:
                occ = this
                if not verify:
                    return occ
            elif this != occ:
                return None
        return occ

    def weight(self, m):
        """su(m) weight (nu_1 - nu_2, ..., nu_{m-1} - nu_m)."""
        occ = self.occupations()
        if occ is None:
            raise LabelError("state has no definite site occupations")
        return occupation_weight(occ, m)

    # -- ring operations ----------------------------------------------------
    def scaled(self, c):
        if not c:
            return BosonPolynomial(self.n_sites, self.n_species, {},
                                   self.scale2)
        return BosonPolynomial(
            self.n_sites, self.n_species,
            {mono: c * v for mono, v in self.terms.items()}, self.scale2)

    def product(self, other):
        """Polynomial product (creation operators commute)."""
        self._check_compatible(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(tuple(x + y for x, y in zip(ra, rb))
                             for ra, rb in zip(ma, mb))
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return BosonPolynomial(self.n_sites, self.n_species, out)

    def reduce_content(self):
        """Divide out the content (gcd of all integer coefficients).

        Keeps coefficient growth in check along chains of generator
        applications; only the ray matters until the final normalization.
        """
        terms = _primitive(self.terms)
        if terms is self.terms:
            return self
        return BosonPolynomial(self.n_sites, self.n_species, terms,
                               self.scale2)

    # -- generator actions --------------------------------------------------
    def apply_c(self, i, j):
        """Apply c_{i,j} (1-based sites): move one boson from site j to i."""
        if not (1 <= i <= self.n_sites and 1 <= j <= self.n_sites and i != j):
            raise InvalidDimension("site indices out of range", i=i, j=j,
                                   n_sites=self.n_sites)
        si, sj = i - 1, j - 1
        out = {}
        get = out.get
        for mono, c in self.terms.items():
            for new, occ in _lowering_moves(mono, si, sj):
                s = get(new, 0) + c * occ
                if s:
                    out[new] = s
                else:
                    del out[new]
        return BosonPolynomial(self.n_sites, self.n_species, out, self.scale2)

    # -- metric -------------------------------------------------------------
    def raw_inner(self, other):
        """Bosonic inner product of the raw coefficient parts.

        <mono, mono'> = delta_{mono,mono'} * prod factorial(exponent).
        """
        self._check_compatible(other)
        return _inner(self.terms, other.terms)

    def norm2_raw(self):
        return self.raw_inner(self)

    def normalized_exact(self):
        """Same raw coefficients with scale2 set to the exact squared norm."""
        n2 = self.norm2_raw()
        if not n2 > 0:
            raise InternalInconsistency("cannot normalize the zero state")
        return BosonPolynomial(self.n_sites, self.n_species, self.terms, n2)


def _inner(a, b):
    """Bosonic inner product of two coefficient maps."""
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for mono, ca in a.items():
        cb = b.get(mono)
        if cb is not None:
            total += ca * cb * monomial_weight(mono)
    return total


def complement(terms, orth):
    """Primitive orthogonal complement of ``terms`` to pairs (e, |e|^2).

    Each projection maps r to (|e|^2/g) r - (c/g) e with c = <e, r> and
    g = gcd(c, |e|^2): a positive integer multiple of the exact complement
    r - (c/|e|^2) e, so every zero test and sign downstream is exact.
    Returns an empty map when ``terms`` lies in the span of ``orth``.
    """
    r = terms
    for e, n2 in orth:
        c = _inner(e, r)
        if not c:
            continue
        g = gcd(c, n2)
        a, b = n2 // g, c // g
        r = {mono: a * v for mono, v in r.items()}
        for mono, v in e.items():
            s = r.get(mono, 0) - b * v
            if s:
                r[mono] = s
            else:
                del r[mono]
    return _primitive(r)


def _primitive(terms):
    """``terms`` divided by the gcd of its integer coefficients.

    Returns ``terms`` itself when the content is already 1 (or it is empty).
    """
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return terms
    if g > 1:
        return {mono: c // g for mono, c in terms.items()}
    return terms


@lru_cache(maxsize=1 << 18)
def _lowering_moves(mono, si, sj):
    """All single-boson moves site sj -> si of one monomial, with counts.

    Monomials repeat heavily across the states of an irrep, so the move
    table is memoized on the monomial itself.
    """
    out = []
    row_j = mono[sj]
    for k, occ in enumerate(row_j):
        if occ:
            rows = list(mono)
            rj = list(row_j)
            rj[k] -= 1
            rows[sj] = tuple(rj)
            ri = list(rows[si])
            ri[k] += 1
            rows[si] = tuple(ri)
            out.append((tuple(rows), occ))
    return tuple(out)


_FACTORIAL = [1]
while len(_FACTORIAL) < 256:
    _FACTORIAL.append(_FACTORIAL[-1] * len(_FACTORIAL))


def monomial_weight(mono):
    """prod over all cells of exponent! — the squared norm of one monomial."""
    w = 1
    for row in mono:
        for e in row:
            if e > 1:
                w *= _FACTORIAL[e]
    return w


# ---------------------------------------------------------------------------
# Highest-weight states
# ---------------------------------------------------------------------------
def hws(kappas, n=None):
    """Highest-weight state of the su(n) irrep labelled by ``kappas``.

    Built as the product over k of the k-th leading determinant of the
    site-by-species creation array, raised to the power kappa_k, applied to
    the vacuum.  Returned exactly normalized (integer coefficients with the
    squared norm recorded in ``scale2``).
    """
    kappas = _validate_label(kappas, n)
    n = len(kappas) + 1
    n_species = max(n - 1, 1)
    poly = BosonPolynomial.vacuum(n, n_species)
    for k, power in enumerate(kappas, start=1):
        if power == 0:
            continue
        det = _creation_determinant(n, n_species, k)
        for _ in range(power):
            poly = poly.product(det)
    return poly.normalized_exact()


def _creation_determinant(n_sites, n_species, k):
    """Determinant of the k x k leading block of the creation array."""
    out = {}
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        rows = [[0] * n_species for _ in range(n_sites)]
        for i, kk in enumerate(perm):
            rows[i][kk] += 1
        mono = tuple(tuple(r) for r in rows)
        out[mono] = out.get(mono, 0) + sign
    out = {m: c for m, c in out.items() if c}
    return BosonPolynomial(n_sites, n_species, out)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Basis growth by lowering (breadth-first)
# ---------------------------------------------------------------------------
class BasisSet:
    """Weight-resolved basis of one su(m) irrep grown from its HWS.

    ``by_weight`` maps each su(m) weight to the independent states found
    there, in discovery order; ``states`` is the flat discovery order;
    ``complements`` maps each site occupation to the (primitive state,
    squared norm) pairs that orthogonalize its states in discovery order.
    """

    def __init__(self, by_weight, states, complements, m):
        self.by_weight = by_weight
        self.states = states
        self.complements = complements
        self.m = m

    def dimension(self):
        return len(self.states)


def assert_highest_weight(state, m):
    """Check that every raising operator of su(m) annihilates the state:
    the simple ones c_{l,l+1} suffice, as they generate the others."""
    if state.is_zero():
        raise NotHighestWeight("zero state cannot be a highest-weight state")
    if state.occupations() is None:
        raise NotHighestWeight("state has no definite weight")
    for ell in range(1, m):
        if not state.apply_c(ell, ell + 1).is_zero():
            raise NotHighestWeight(
                "state is not annihilated by a raising operator",
                raising=[ell, ell + 1])


def basis_set(hws_state, m):
    """Grow the full basis of the su(m) irrep generated by ``hws_state``.

    Breadth-first application of the m-1 simple lowering operators
    c_{l+1,l}, keeping a state only if its orthogonal complement to the
    states already kept at its occupations is nonzero (decided exactly).
    Raises NotHighestWeight if the input is not a valid highest-weight
    state.
    """
    assert_highest_weight(hws_state, m)
    start = BosonPolynomial(hws_state.n_sites, hws_state.n_species,
                            hws_state.terms)
    complements = {}
    by_weight = {}
    states = []

    def admit(state):
        occ = state.occupations(verify=False)
        orth = complements.setdefault(occ, [])
        r = complement(state.terms, orth)
        if not r:
            return False
        orth.append((r, _inner(r, r)))
        by_weight.setdefault(occupation_weight(occ, m), []).append(state)
        states.append(state)
        return True

    admit(start)
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for ell in range(1, m):
            new = s.apply_c(ell + 1, ell).reduce_content()
            if new.is_zero():
                continue
            if admit(new):
                queue.append(new)
    return BasisSet(by_weight, states, complements, m)


# ---------------------------------------------------------------------------
# Fast basis growth in determinant variables
# ---------------------------------------------------------------------------
# The highest-weight state is a product of leading minors of the creation
# array, and the simple lowering operators map minors to minors:
#     c_{j+1,j} Delta_R = Delta_{R: j -> j+1}   if j in R, j+1 not in R
#                       = 0                     otherwise,
# where R: j -> j+1 replaces row j by row j+1.  The rows stay sorted, so
# no sign arises, and the whole lowering orbit stays inside polynomials in
# the minor variables Delta_R (R a sorted site subset, columns = species
# 1..|R|).
# A state that expands to millions of boson monomials is only a handful of
# minor monomials, which makes the breadth-first growth tractable for
# conjugate-heavy irreps.
#
# Linear independence in this encoding is certified by evaluation
# fingerprints: substituting random integer matrices (mod a large prime)
# for the creation array turns each minor monomial into a product of
# numeric determinants.  A rational dependence between states forces the
# fingerprint vectors to be dependent mod p, so a state is admitted only
# when its fingerprint is independent — dependent states can never be
# admitted, and a false rejection (probability ~ deg/p per comparison,
# p ~ 2^61) would make the count fall short of the dimension formula,
# which the caller checks.

_FP_PRIME = (1 << 61) - 1
_FP_POINTS = 24     # evaluation points per fingerprint


# A fingerprint packs its residues into one int, one 192-bit lane (three
# 64-bit words) per point: a lane holds a sum of fewer than 2^70 products
# of two residues below 2^61 exactly.
_LANE_BITS = 192
_LANE_MASK = (1 << _LANE_BITS) - 1
_LANE_SHIFTS = range(0, _FP_POINTS * _LANE_BITS, _LANE_BITS)
_LANE_WORDS = struct.Struct(f"<{3 * _FP_POINTS}Q")


def _pack(residues):
    """One int holding ``residues`` (each below 2^64) in consecutive lanes."""
    words = [0] * (3 * _FP_POINTS)
    words[::3] = residues
    return int.from_bytes(_LANE_WORDS.pack(*words), "little")


def _unpack(packed):
    """The lanes of ``packed``, each reduced mod p."""
    return [(packed >> s & _LANE_MASK) % _FP_PRIME for s in _LANE_SHIFTS]


@lru_cache(maxsize=1 << 12)
def _minor_lowerings(mono, j):
    """Action of c_{j+1,j} on a minor monomial (sorted tuple of subsets):
    (image monomial, multiplicity of the replaced minor) pairs.  Distinct
    minors give distinct images, since an image minor holds row j+1.  The
    action does not depend on the evaluation points, so it is memoized
    across counts."""
    out = []
    pos = 0
    for subset, run in itertools.groupby(mono):
        mult = len(list(run))
        if j in subset and j + 1 not in subset:
            new = list(mono)
            new[pos] = tuple(j + 1 if x == j else x for x in subset)
            out.append((tuple(sorted(new)), mult))
        pos += mult
    return tuple(out)


def _minor_table(points, top):
    """{R: [det a[R, 1..|R|] mod p for each point a]} for every sorted
    subset R of 1..top of the n sites, where ``points`` are n x (n-1)
    integer matrices a (rows are sites, columns species).

    Laplace expansion along the last column reuses the smaller minors
    (R = {r_1 < ... < r_k}):
    det a[R, 1..k] = sum_i (-1)^(i+k) a[r_i, k] det a[R - r_i, 1..k-1].
    """
    p = _FP_PRIME
    n = len(points[0])
    table = {(): [1] * len(points)}
    for k in range(1, top + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            acc = [0] * len(points)
            for i, r in enumerate(subset):
                sign = -1 if (k - 1 - i) % 2 else 1
                minor = table[subset[:i] + subset[i + 1:]]
                acc = [s + sign * a[r - 1][k - 1] * x
                       for s, a, x in zip(acc, points, minor)]
            table[subset] = [s % p for s in acc]
    del table[()]
    return table


def _fingerprint(terms, values):
    """Packed sum of coeff * values(mono) over ``terms``.  Coefficients are
    reduced mod p first, so every lane stays a nonnegative sum of products
    of two residues."""
    return sum(c % _FP_PRIME * values(mono) for mono, c in terms.items())


class _ModEchelon:
    """Row echelon over GF(p) for packed fingerprint vectors.

    Rows are stored reduced, with their pivot lane scaled to 1, so
    elimination is one multiply-add: adding (p - c) * row, where c is the
    residue of the pivot lane, clears it mod p.  Every lane stays a sum of
    nonnegative products of two residues, so no lane borrows or carries.
    """

    def __init__(self):
        self.rows = []  # (pivot lane shift, packed row with that lane == 1)

    def try_insert(self, vec):
        p = _FP_PRIME
        for shift, row in self.rows:
            c = (vec >> shift & _LANE_MASK) % p
            if c:
                vec += (p - c) * row
        lanes = _unpack(vec)
        for idx, val in enumerate(lanes):
            if val:
                inv = pow(val, -1, p)
                self.rows.append((idx * _LANE_BITS,
                                  _pack([x * inv % p for x in lanes])))
                return True
        return False


def minor_basis_count(kappas, n=None, seed=0):
    """Dimension of the lowering orbit of hws(kappas), counted in minor
    variables with fingerprint-certified linear independence.

    Equivalent to ``basis_set(hws(kappas, n), n).dimension()`` but feasible
    for irreps whose boson expansion is exponentially large.
    """
    kappas = _validate_label(kappas, n)
    n = len(kappas) + 1
    n_species = max(n - 1, 1)

    import numpy as np
    rng = np.random.default_rng([int(seed), *kappas])
    top = max((k for k, power in enumerate(kappas, start=1) if power),
              default=0)
    if not top:
        return 1
    p = _FP_PRIME
    points = [rng.integers(1, p, size=(n, n_species)).tolist()
              for _ in range(_FP_POINTS)]
    table = _minor_table(points, top)
    powers = {}     # subset -> residues of det(subset)^1, ^2, ...
    mono_values = {}

    def minor_power(subset, e):
        chain = powers.setdefault(subset, [table[subset]])
        while len(chain) < e:
            chain.append([x * y % p for x, y in zip(chain[-1], chain[0])])
        return chain[e - 1]

    def values(mono):
        packed = mono_values.get(mono)
        if packed is None:
            # mono is sorted: one power list per distinct subset
            vals = None
            for subset, run in itertools.groupby(mono):
                x = minor_power(subset, len(list(run)))
                vals = x if vals is None else [a * b % p
                                               for a, b in zip(vals, x)]
            packed = mono_values[mono] = _pack(vals)
        return packed

    # site i lies in the leading minors of sizes i..n-1, and c_{j+1,j}
    # moves one boson from site j to site j+1
    start_occ = tuple(sum(kappas[i:]) for i in range(n))
    start_mono = tuple(sorted(
        tuple(range(1, k + 1))
        for k, power in enumerate(kappas, start=1) for _ in range(power)))
    spaces = {}
    queue = deque()

    def admit(terms, occ):
        space = spaces.setdefault(occ, _ModEchelon())
        if space.try_insert(_fingerprint(terms, values)):
            queue.append((terms, occ))

    admit({start_mono: 1}, start_occ)
    while queue:
        terms, occ = queue.popleft()
        for j in range(1, n):
            out = {}
            for mono, coeff in terms.items():
                for new, factor in _minor_lowerings(mono, j):
                    s = out.get(new, 0) + coeff * factor
                    if s:
                        out[new] = s
                    else:
                        del out[new]
            if out:
                lowered = list(occ)
                lowered[j - 1] -= 1
                lowered[j] += 1
                admit(_primitive(out), tuple(lowered))
    return sum(len(space.rows) for space in spaces.values())


# ---------------------------------------------------------------------------
# Dimension formula
# ---------------------------------------------------------------------------
def irrep_dimension(kappas):
    """Exact dimension of the su(n) irrep labelled by ``kappas``.

    Product over all index windows [a..b] of 1 + (kappa_a+...+kappa_b)/(b-a+1).
    """
    kappas = _validate_label(kappas)
    r = len(kappas)
    dim = Fraction(1)
    for a in range(r):
        running = 0
        for b in range(a, r):
            running += kappas[b]
            dim *= 1 + Fraction(running, b - a + 1)
    if dim.denominator != 1:
        raise InternalInconsistency("dimension formula gave a non-integer",
                                    label=list(kappas), dimension=str(dim))
    return int(dim)
