"""Canonical orthonormal bases of su(n) irreps and their D-functions.

The canonical basis is labelled by the subgroup chain
su(n) > su(n-1) > ... > su(2), where su(m) acts on the first m sites.
Each basis state has definite site occupations and a definite irrep label
at every level of the chain; the construction partitions an irrep copy of
su(m) into su(m-1) copies by raising a seed from the orthogonal
complement of what has already been claimed.  Because the
u(m) -> u(m-1) branching is multiplicity-free, the copies are exactly
orthogonal, so the complements that ``bosonrep.basis_set`` takes inside
each copy are its complements to the whole claimed span.  States are
``bosonrep`` coefficient maps, and the one orthogonal complement
(``bosonrep.complement``) is fraction-free, so every state stays a
primitive integer map on the ray of the exact rational one; no state
carries its norm.

D-functions work on a float table of each irrep's basis, built once on the
first D-function call: the coefficients, each state's divided by its exact
bosonic norm, in CSR form and, per boson species, each monomial's site
multiset.  The group element v maps
a†_{i,k} -> sum_j v[j,i] a†_{j,k}, so the amplitude between an input
monomial with species-k site multisets e_k and an output monomial with
multisets f_k is prod_k perm(v[f_k, e_k]) (the occupation factorials of
the expansion cancel against the bosonic metric), and
D[r, c] = a_r^T A b_c with A the product of those permanent tables.  The
permanents are evaluated as vectorised Glynn stacks, one per size, over
the distinct multiset pairs the requested states touch.

Overall phases follow one rule, greedy simple raising: apply the first
c_{l,l+1} (smallest l) that does not annihilate the state, repeat until
every one does, and make the overlap of the result with the
highest-weight state positive.  The same walk raises the seeds of the
subgroup copies, and it is defined for every state, since a state of the
irrep that every simple raising annihilates is a multiple of the
highest-weight state.
"""
import math
from fractions import Fraction

import numpy as np

from . import bosonrep
from .errors import (
    InternalInconsistency,
    LabelError,
    ShapeError,
)

class CanonicalStateLabel:
    """Chain label of one canonical basis state.

    ``chain_irreps``: the irrep labels (K^(n), K^(n-1), ..., K^(2)) down
    the subgroup chain.  ``occupations``: the per-site boson numbers,
    which pin the weight at every level of the chain.
    """

    __slots__ = ("chain_irreps", "occupations")

    def __init__(self, chain_irreps, occupations):
        self.chain_irreps = tuple(tuple(int(x) for x in k)
                                  for k in chain_irreps)
        self.occupations = tuple(int(x) for x in occupations)

    @property
    def n(self):
        return len(self.occupations)

    @property
    def irrep(self):
        return self.chain_irreps[0]

    def key(self):
        return (self.chain_irreps, self.occupations)

    def __eq__(self, other):
        return (isinstance(other, CanonicalStateLabel)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        occ = "".join(str(x) for x in self.occupations)
        chain = "".join("(" + ",".join(str(x) for x in k) + ")"
                        for k in self.chain_irreps[1:])
        return f"CanonicalStateLabel[{occ}{chain}]"


# ---------------------------------------------------------------------------
# Canonical basis construction
# ---------------------------------------------------------------------------
_CANONICAL_CACHE = {}


def canonical_basis_states(n, kappas):
    """Orthonormal canonical basis of the su(n) irrep labelled ``kappas``.

    Returns a list of (CanonicalStateLabel, state) pairs.  Each state is
    a ``bosonrep`` coefficient map, a primitive integer vector on the ray
    of the orthonormal basis state (its squared norm is
    ``bosonrep.inner(state, state)``), and the states are exactly
    orthogonal.
    """
    kappas = tuple(int(k) for k in kappas)
    key = (int(n), kappas)
    if key in _CANONICAL_CACHE:
        return _CANONICAL_CACHE[key]

    h = bosonrep.hws(kappas, n)
    top = bosonrep.basis_set(h, n)
    out = []
    _partition_su(top.states, n, (kappas,), out)
    dim = bosonrep.irrep_dimension(kappas)
    if len(out) != dim:
        raise InternalInconsistency(
            "canonical construction produced the wrong state count",
            expected=dim, got=len(out))

    result = [(CanonicalStateLabel(chain, bosonrep.occupations(state)),
               _fix_phase(h, state, n))
              for chain, state in out]
    _CANONICAL_CACHE[key] = result
    return result


def _raise(state, m):
    """Apply the first simple raising operator c_{l,l+1} of su(m) (smallest
    l) with a nonzero image, content reduced, until every one annihilates
    the state."""
    while True:
        for ell in range(1, m):
            t = bosonrep.apply_c(state, ell, ell + 1)
            if t:
                state = bosonrep.primitive(t)
                break
        else:
            return state


def _partition_su(pool, m, chain, out):
    """Split an su(m) irrep copy (basis in discovery order) down the chain."""
    if m == 2:
        for s in pool:
            out.append((chain, s))
        return

    total = len(pool)
    groups = {}
    for s in pool:
        groups.setdefault(bosonrep.occupations(s), []).append(s)
    claimed = {occ: [] for occ in groups}
    done = 0
    while done < total:
        best = max(
            groups,
            key=lambda occ: (len(groups[occ]) - len(claimed[occ]),
                             bosonrep.occupation_weight(occ, m)))
        for s in groups[best]:
            seed = bosonrep.complement(s, claimed[best])
            if seed:
                break
        else:
            raise InternalInconsistency(
                "no remaining multiplicity at any weight", stage=m)

        # raise the seed to a highest-weight state of su(m-1) by its
        # simple raising operators c_{l,l+1}, l < m-1
        cur = _raise(seed, m - 1)
        km1 = bosonrep.occupation_weight(bosonrep.occupations(cur), m - 1)
        if any(x < 0 for x in km1):
            raise InternalInconsistency("raised seed has a negative weight",
                                        weight=list(km1))

        sub = bosonrep.basis_set(cur, m - 1)
        for occ, pairs in sub.complements.items():
            claimed.setdefault(occ, []).extend(pairs)
        done += sub.dimension()
        if done > total:
            raise InternalInconsistency("extracted more states than present",
                                        stage=m)
        _partition_su(sub.states, m - 1, chain + (km1,), out)


def _fix_phase(h, state, n):
    """Flip the sign so greedy simple raising (``_raise``) of su(n) takes
    the state to a positive multiple of the highest-weight state ``h``."""
    overlap = bosonrep.inner(h, _raise(state, n))
    if overlap == 0:
        raise InternalInconsistency(
            "state could not be raised to the highest weight")
    return {mono: -c for mono, c in state.items()} if overlap < 0 else state


# ---------------------------------------------------------------------------
# Group-element parameterizations
# ---------------------------------------------------------------------------
def euler_matrix(alpha, beta, gamma):
    """2x2 special unitary from Euler angles (z-y-z convention)."""
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    return np.array([
        [np.exp(-1j * (alpha + gamma) / 2) * c,
         -np.exp(-1j * (alpha - gamma) / 2) * s],
        [np.exp(1j * (alpha - gamma) / 2) * s,
         np.exp(1j * (alpha + gamma) / 2) * c],
    ])


def fundamental_matrix(n, omega):
    """Resolve a group-element description to its n x n matrix.

    Accepts a raw n x n matrix, or an (alpha, beta, gamma) Euler triple
    for n == 2; the caller checks unitarity where the element enters.
    """
    arr = np.asarray(omega, dtype=object)
    if arr.ndim == 2 and arr.shape == (n, n):
        return np.asarray(omega, dtype=complex)
    if n == 2 and arr.shape == (3,):
        a, b, g = (float(x) for x in omega)
        return euler_matrix(a, b, g)
    raise ShapeError("unrecognized group-element description", n=n)


# ---------------------------------------------------------------------------
# D-functions
# ---------------------------------------------------------------------------
class _IrrepTable:
    """Float view of one canonical basis, built once per (n, irrep).

    ``indptr``/``mono``/``data`` hold the normalized state coefficients in
    CSR form (state rows, monomial columns): each state's integer
    coefficients over its exact bosonic norm.  ``multiset[:, k]`` is each
    monomial's species-k site multiset as a row index into ``sites[k]``,
    whose rows list the occupied sites with repetition.
    """

    __slots__ = ("labels", "index", "indptr", "mono", "data", "multiset",
                 "sites")

    def __init__(self, basis):
        self.labels = [label for label, _ in basis]
        self.index = {label: i for i, label in enumerate(self.labels)}
        mono_ids = {}
        indptr = [0]
        mono = []
        data = []
        for _, state in basis:
            norm2 = bosonrep.inner(state, state)
            for m, c in state.items():
                mono.append(mono_ids.setdefault(m, len(mono_ids)))
                # exact square before rounding: no overflow, one rounding
                data.append(math.copysign(
                    math.sqrt(Fraction(c) ** 2 / norm2), c))
            indptr.append(len(mono))
        self.indptr = np.array(indptr, dtype=np.intp)
        self.mono = np.array(mono, dtype=np.int32)
        self.data = np.array(data, dtype=float)

        n_species = len(next(iter(basis[0][1]))[0])
        ids = [{} for _ in range(n_species)]
        multiset = np.empty((len(mono_ids), n_species), dtype=np.int32)
        for m, i in mono_ids.items():
            for k in range(n_species):
                col = tuple(row[k] for row in m)
                multiset[i, k] = ids[k].setdefault(col, len(ids[k]))
        self.multiset = multiset
        # generators conserve every species' boson count, so one count
        # holds across the irrep and each species' multisets stack
        self.sites = []
        for d in ids:
            if len({sum(col) for col in d}) != 1:
                raise InternalInconsistency(
                    "species boson count varies inside an irrep")
            self.sites.append(np.array(
                [np.repeat(np.arange(len(col)), col) for col in d],
                dtype=np.intp).reshape(len(d), -1))

    def position(self, label):
        try:
            return self.index[label]
        except KeyError:
            raise LabelError("label does not name a canonical basis state",
                             label=repr(label.key())) from None

    def gather(self, states):
        """(monomial ids, dense coefficients) touched by the given states."""
        spans = [np.arange(self.indptr[s], self.indptr[s + 1])
                 for s in states]
        pos = np.concatenate(spans)
        owner = np.repeat(np.arange(len(spans)), [len(p) for p in spans])
        monos, inv = np.unique(self.mono[pos], return_inverse=True)
        coef = np.zeros((len(monos), len(spans)))
        coef[inv, owner] = self.data[pos]
        return monos, coef


_TABLE_CACHE = {}


def _irrep_table(n, kappas):
    key = (int(n), tuple(int(k) for k in kappas))
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = _IrrepTable(canonical_basis_states(*key))
    return table


_GLYNN_CHUNK = 1 << 15  # complex entries per Glynn temporary


def _permanent_table(v, out_sites, in_sites):
    """perm(v[f, e]) for every row f of ``out_sites`` and e of ``in_sites``.

    Each row lists a multiset of sites with repetition; all rows of one
    array have the same size s.  Sizes that differ give 0 and s = 0 gives 1.
    Otherwise Glynn's formula, vectorised over the pairs in chunks:
    perm(M) = 2^(1-s) sum_d (prod_i d_i) prod_j sum_i d_i M_ij over sign
    vectors d with d_1 = +1.
    """
    n_out, s = out_sites.shape
    n_in = len(in_sites)
    if s != in_sites.shape[1]:
        return np.zeros((n_out, n_in), dtype=complex)
    if s == 0:
        return np.ones((n_out, n_in), dtype=complex)
    bits = (np.arange(1 << (s - 1))[:, None] >> np.arange(s - 1)) & 1
    deltas = np.ones((1 << (s - 1), s))
    deltas[:, 1:] -= 2 * bits
    signs = deltas.prod(axis=1)
    out = np.empty(n_out * n_in, dtype=complex)
    step = max(1, _GLYNN_CHUNK // (len(deltas) * s))
    for lo in range(0, len(out), step):
        f, e = np.divmod(np.arange(lo, min(lo + step, len(out))), n_in)
        m = v[out_sites[f][:, :, None], in_sites[e][:, None, :]]
        out[lo:lo + step] = (deltas @ m).prod(axis=2) @ signs
    return out.reshape(n_out, n_in) / (1 << (s - 1))


def _dblock(table, v, rows, cols):
    """D[rows, cols] = a_r^T A b_c with A = prod_k perm(v[f_k, e_k])."""
    r_monos, r_coef = table.gather(rows)
    c_monos, c_coef = table.gather(cols)
    amp = np.ones((len(r_monos), len(c_monos)), dtype=complex)
    for k, sites in enumerate(table.sites):
        f, f_inv = np.unique(table.multiset[r_monos, k], return_inverse=True)
        e, e_inv = np.unique(table.multiset[c_monos, k], return_inverse=True)
        perms = _permanent_table(v, sites[f], sites[e])
        amp *= perms[np.ix_(f_inv, e_inv)]
    return r_coef.T @ amp @ c_coef


def dfunction(n, omega, row, col):
    """Matrix element <row| D(omega) |col> in the canonical basis.

    ``row`` and ``col`` are CanonicalStateLabel instances; elements between
    different irreps vanish identically.  The convention
    a†_{i,k} -> sum_j v[j,i] a†_{j,k} makes the fundamental-irrep matrix
    equal to v itself, and D(vw) = D(v)D(w) for any n x n v and w (a
    representation of GL(n)): v is not checked for unitarity.
    """
    if row.irrep != col.irrep:
        return 0.0 + 0.0j
    v = fundamental_matrix(n, omega)
    table = _irrep_table(n, row.irrep)
    r, c = table.position(row), table.position(col)
    return complex(_dblock(table, v, [r], [c])[0, 0])


def dfunction_matrix(n, omega, kappas):
    """Full irrep matrix D(omega) in canonical-basis order.

    Returns (labels, matrix) with matrix[r, c] = <labels[r]|D|labels[c]>.
    """
    v = fundamental_matrix(n, omega)
    table = _irrep_table(n, kappas)
    every = np.arange(len(table.labels))
    return list(table.labels), _dblock(table, v, every, every)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin conversion
# ---------------------------------------------------------------------------
def state_to_gt(label):
    """Gelfand-Tsetlin pattern of a canonical basis state.

    Row l (length l) is the u(l) partition: the su(l) label fixes the part
    differences and the boson count in the first l sites fixes the uniform
    offset.  Rows are returned top (length n) first.  Raises LabelError if
    the chain labels and occupations are incompatible.
    """
    nu = label.occupations
    n = label.n
    chain = label.chain_irreps  # K^(n) ... K^(2)
    rows = []
    for ell in range(n, 1, -1):
        kap = chain[n - ell]
        if len(kap) != ell - 1:
            raise LabelError("chain label has the wrong length",
                             level=ell, label=list(kap))
        parts = [sum(kap[k:]) for k in range(ell - 1)] + [0]
        n_ell = sum(nu[:ell])
        shift, rem = divmod(n_ell - sum(parts), ell)
        if rem != 0 or shift < 0:
            raise LabelError(
                "occupations are incompatible with the chain label",
                level=ell, boson_count=n_ell, label=list(kap))
        rows.append(tuple(p + shift for p in parts))
    rows.append((nu[0],))

    for upper, lower in zip(rows, rows[1:]):
        for k, low in enumerate(lower):
            if not (upper[k] >= low >= upper[k + 1]):
                raise LabelError("betweenness violated in the derived pattern",
                                 upper=list(upper), lower=list(lower))
    for ell in range(1, n + 1):
        above = sum(rows[n - ell])
        below = sum(rows[n - ell + 1]) if ell > 1 else 0
        if above - below != nu[ell - 1]:
            raise LabelError("pattern row sums disagree with occupations",
                             level=ell)
    return tuple(rows)


def labels_with_weight(n, kappas, occupations):
    """All canonical labels of one irrep at a given occupation tuple."""
    occ = tuple(int(x) for x in occupations)
    return [label for label, _ in canonical_basis_states(n, kappas)
            if label.occupations == occ]
