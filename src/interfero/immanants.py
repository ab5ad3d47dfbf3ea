"""Immanants, S_n characters, and their D-function identities.

The immanant of an N x N matrix T for a partition lambda of N is
imm^lambda(T) = sum_sigma chi^lambda(sigma) prod_k T_{k, sigma(k)},
with chi the S_N character.  Characters are computed exactly by the
Murnaghan-Nakayama border-strip recursion, so every identity in this
module is checked against independent exact integers.

Provided identities:
  * Kostant: imm^lambda of a special unitary equals the trace of its
    irrep matrix over the zero-weight canonical states.
  * Principal/non-principal submatrix immanants as sums of D-functions
    (the non-principal label lists ship as a data fixture).
  * The Littlewood product relation on complementary coaxial submatrices.
  * Three-photon coincidence probabilities and their A/B/C grouping.
"""
import itertools
import json
import math
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import linalg, sunrep
from .errors import (
    ComplexityLimit,
    FixtureError,
    InternalInconsistency,
    NotTabulated,
    NotUnitary,
    PartitionError,
    ShapeError,
)

MAX_IMMANANT_SIZE = 10


# ---------------------------------------------------------------------------
# Partitions and S_n characters
# ---------------------------------------------------------------------------
def validate_partition(lam):
    lam = tuple(int(x) for x in lam)
    if not lam or any(x <= 0 for x in lam):
        raise PartitionError("partition parts must be positive",
                             partition=list(lam))
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise PartitionError("partition parts must be non-increasing",
                             partition=list(lam))
    return lam


def partitions_of(n):
    """All partitions of n, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


@lru_cache(maxsize=None)
def _mn_character(lam, rho):
    """Murnaghan-Nakayama recursion over beta-numbers (exact integer)."""
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for j, x in enumerate(beta) if j != i),
                          reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (k - 1 - i2) for i2, x in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def sn_character(lam, cycle_type):
    """Exact S_N character chi^lam evaluated on a conjugacy class."""
    lam = validate_partition(lam)
    cycle_type = validate_partition(cycle_type)
    if sum(lam) != sum(cycle_type):
        raise PartitionError("partition and cycle type size mismatch",
                             partition=list(lam), cycle_type=list(cycle_type))
    return _mn_character(lam, cycle_type)


def cycle_type(perm):
    """Cycle type of a permutation given as a tuple of images of 0..N-1."""
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# Immanants
# ---------------------------------------------------------------------------
def permanent(t):
    """Permanent by Ryser's inclusion-exclusion formula."""
    a = np.asarray(t, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("matrix must be square", shape=list(a.shape))
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        rowsum = a[:, cols].sum(axis=1)
        total += (-1) ** len(cols) * np.prod(rowsum)
    return complex((-1) ** n * total)


def immanant(t, lam):
    """imm^lam(T) by direct summation with exact characters.

    Sizes above MAX_IMMANANT_SIZE raise ComplexityLimit (the walk over
    N! permutations is intractable beyond that).
    """
    a = np.asarray(t, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("matrix must be square", shape=list(a.shape))
    lam = validate_partition(lam)
    if sum(lam) != n:
        raise PartitionError("partition must sum to the matrix size",
                             partition=list(lam), size=n)
    if n > MAX_IMMANANT_SIZE:
        raise ComplexityLimit("immanant walk over N! terms refused",
                              size=n, limit=MAX_IMMANANT_SIZE)
    if lam == (n,):
        return permanent(a)
    chars = {rho: sn_character(lam, rho) for rho in partitions_of(n)}
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        c = chars[cycle_type(perm)]
        if not c:
            continue
        prod = 1.0 + 0.0j
        for k in range(n):
            prod *= a[k, perm[k]]
        total += c * prod
    return complex(total)


def partition_to_label(lam, n):
    """su(n) irrep label (kappa) dual to a partition of at most n parts."""
    lam = validate_partition(lam)
    if len(lam) > n:
        raise PartitionError("partition has more parts than modes",
                             partition=list(lam), n=n)
    padded = lam + (0,) * (n - len(lam))
    return tuple(padded[i] - padded[i + 1] for i in range(n - 1))


# ---------------------------------------------------------------------------
# Kostant and submatrix identities
# ---------------------------------------------------------------------------
def _special_unitary(n, omega):
    """An identity's one check of its element: unitary, det 1, to 1e-8."""
    v = linalg.assert_unitary(sunrep.fundamental_matrix(n, omega), 1e-8)
    det = np.linalg.det(v)
    if abs(det - 1.0) > 1e-8:
        raise NotUnitary("group element must have unit determinant",
                         det=[float(det.real), float(det.imag)])
    return v


def _zero_weight_labels(n, kappas):
    basis = sunrep.canonical_basis_states(n, kappas)
    return [label for label, _ in basis
            if len(set(label.occupations)) == 1]


def kostant_lhs_rhs(omega, lam, n):
    """imm^lam(V) versus the zero-weight D-function trace.

    Returns (immanant, d_sum, |difference|).  Requires a partition of n
    (the matrix size) and a special unitary group element.
    """
    lam = validate_partition(lam)
    if sum(lam) != n:
        raise PartitionError("Kostant identity needs a partition of n",
                             partition=list(lam), n=n)
    v = _special_unitary(n, omega)
    imm = immanant(v, lam)
    kap = partition_to_label(lam, n)
    d_sum = 0.0 + 0.0j
    for label in _zero_weight_labels(n, kap):
        d_sum += sunrep.dfunction(n, v, label, label)
    return imm, complex(d_sum), abs(imm - d_sum)


def _occupation_indicator(indices, n):
    occ = [0] * n
    for i in indices:
        occ[i - 1] = 1
    return tuple(occ)


def _validate_index_set(indices, n, k):
    idx = tuple(int(i) for i in indices)
    if len(idx) != k or len(set(idx)) != k:
        raise ShapeError("index set must have distinct entries",
                         indices=list(idx))
    if any(not 1 <= i <= n for i in idx):
        raise ShapeError("index out of range", indices=list(idx), n=n)
    return tuple(sorted(idx))


def _label_from_fixture(entry):
    return sunrep.CanonicalStateLabel(
        [tuple(k) for k in entry["chain"]], entry["occ"])


@lru_cache(maxsize=1)
def _submatrix_fixture():
    try:
        text = (resources.files("interfero") / "fixtures"
                / "submatrix_dlabels.json").read_text()
        data = json.loads(text)
    except (OSError, ValueError) as exc:
        raise FixtureError("submatrix label fixture unreadable") from exc
    table = {}
    for item in data["identities"]:
        key = (item["n"], tuple(item["irrep"]), tuple(item["rows"]),
               tuple(item["cols"]))
        table[key] = [(_label_from_fixture(r), _label_from_fixture(c))
                      for r, c in item["pairs"]]
    return table


def tabulated_submatrices(n):
    """(partition, rows, cols) of every non-principal su(n) submatrix
    identity in the label fixture, in fixture order."""
    return [key[1:] for key in _submatrix_fixture() if key[0] == n]


def submatrix_immanant_identity(omega, lam, rows, cols, n):
    """imm^lam of the (rows, cols) submatrix versus its D-function sum.

    Principal submatrices (rows == cols) use the diagonal sum over the
    canonical states whose occupations indicate the kept modes.  The
    published non-principal instances are looked up in the label fixture;
    other non-principal index sets raise NotTabulated.

    Returns (immanant, d_sum, |difference|).
    """
    lam = validate_partition(lam)
    k = sum(lam)
    rows = _validate_index_set(rows, n, k)
    cols = _validate_index_set(cols, n, k)
    v = _special_unitary(n, omega)
    sub = v[np.ix_([r - 1 for r in rows], [c - 1 for c in cols])]
    imm = immanant(sub, lam)
    kap = partition_to_label(lam, n)

    if rows == cols:
        occ = _occupation_indicator(rows, n)
        pairs = [(label, label)
                 for label, _ in sunrep.canonical_basis_states(n, kap)
                 if label.occupations == occ]
    else:
        key = (n, lam, rows, cols)
        table = _submatrix_fixture()
        if key not in table:
            raise NotTabulated(
                "no published label list for this submatrix",
                n=n, irrep=list(lam), rows=list(rows), cols=list(cols))
        pairs = table[key]
    d_sum = 0.0 + 0.0j
    for row_label, col_label in pairs:
        d_sum += sunrep.dfunction(n, v, row_label, col_label)
    return imm, complex(d_sum), abs(imm - d_sum)


class LabelPairFit(NamedTuple):
    """Least-squares fit of a submatrix immanant to candidate D-functions.

    ``x`` holds the coefficient of each candidate (row, col) label pair and
    ``rounded`` its nearest integers.  ``clean`` says the rounding is exact
    to 1e-8 and picks ``expected_terms`` = dim(lambda) pairs with
    coefficient 1; ``residual`` is then the largest sample residual of
    that 0/1 combination, otherwise None.
    """
    candidates: list
    x: np.ndarray
    rounded: np.ndarray
    expected_terms: int
    clean: bool
    residual: object


def fit_label_pairs(n, lam, rows, cols, rng):
    """Recover the D-function label pairs of a submatrix immanant identity.

    Draws 40 special unitaries from ``rng`` and solves
    imm^lam(V[rows, cols]) = sum_p x_p D_p(V) in the least-squares sense
    over every canonical (row, col) label pair of the dual irrep whose
    occupations indicate ``rows`` and ``cols``.
    """
    kappas = partition_to_label(lam, n)
    dim_lam = sn_character(lam, (1,) * sum(lam))
    row_labels = sunrep.labels_with_weight(
        n, kappas, _occupation_indicator(rows, n))
    col_labels = sunrep.labels_with_weight(
        n, kappas, _occupation_indicator(cols, n))
    candidates = [(r, c) for r in row_labels for c in col_labels]
    a = np.zeros((40, len(candidates)), dtype=complex)
    b = np.zeros(40, dtype=complex)
    for t in range(40):
        v = linalg.haar_special_unitary(n, rng)
        sub = v[np.ix_([i - 1 for i in rows], [j - 1 for j in cols])]
        b[t] = immanant(sub, lam)
        for idx, (r, c) in enumerate(candidates):
            a[t, idx] = sunrep.dfunction(n, v, r, c)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    rounded = np.round(np.real(x)).astype(int)
    clean = (float(np.max(np.abs(x - rounded))) < 1e-8
             and set(rounded.tolist()) <= {0, 1}
             and int(rounded.sum()) == dim_lam)
    residual = float(np.max(np.abs(a @ rounded - b))) if clean else None
    return LabelPairFit(candidates, x, rounded, dim_lam, clean, residual)


def littlewood_relation_check(omega):
    """Residual of the coaxial product relation on a 4x4 group element.

    Sum over complementary splits (ijk | l) of
    imm^{3}(V_{ijk,ijk}) * V_{ll}  equals  imm^{3,1}(V) + perm(V).
    """
    v = _special_unitary(4, omega)
    lhs = 0.0 + 0.0j
    for keep in itertools.combinations(range(4), 3):
        (drop,) = set(range(4)) - set(keep)
        sub = v[np.ix_(keep, keep)]
        lhs += permanent(sub) * v[drop, drop]
    rhs = immanant(v, (3, 1)) + permanent(v)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Three-photon coincidence
# ---------------------------------------------------------------------------
_S3 = list(itertools.permutations(range(3)))


def three_photon_coincidence(u, taus, sigma):
    """Triple-coincidence probability for three delayed single photons.

    Photons with a common Gaussian spectral profile (angular-frequency
    standard deviation ``sigma``) enter ports 1..3 at arrival times
    ``taus``; returns the probability of one photon in each output port:

        P = sum_{s,r in S3} T_s conj(T_r) prod_q
            exp(-sigma^2 (tau_{s(q)} - tau_{r(q)})^2 / 2),

    where s maps each output q to the input it drains, and
    T_s = U_{1,s(1)} U_{2,s(2)} U_{3,s(3)} (rows are outputs).
    """
    a = np.asarray(u, dtype=complex)
    if a.shape != (3, 3):
        raise ShapeError("three-photon model needs a 3x3 matrix",
                         shape=list(a.shape))
    taus = [float(t) for t in taus]
    if len(taus) != 3:
        raise ShapeError("need three arrival times", count=len(taus))
    sigma = float(sigma)

    amps = []
    for s in _S3:
        t = a[0, s[0]] * a[1, s[1]] * a[2, s[2]]
        amps.append((t, s))
    total = 0.0
    for ts, s in amps:
        for tr, r in amps:
            env = 1.0
            for q in range(3):
                d = taus[s[q]] - taus[r[q]]
                if d:
                    env *= math.exp(-0.5 * sigma * sigma * d * d)
            total += (ts * tr.conjugate()).real * env
    return float(total)


def abc_terms(u):
    """A, B, C from matrix elements, grouped by where photon 1 exits.

    With the delayed photon at input 1, the permutation amplitudes split
    by the output port receiving that photon; within each group the other
    two (simultaneous) photons interfere without decay, which is what
    makes the single-delay coincidence curve a three-term form.
    """
    a = np.asarray(u, dtype=complex)
    if a.shape != (3, 3):
        raise ShapeError("need a 3x3 matrix", shape=list(a.shape))
    groups = [0j, 0j, 0j]
    for s in _S3:
        out_of_1 = s.index(0)
        groups[out_of_1] += a[0, s[0]] * a[1, s[1]] * a[2, s[2]]
    return tuple(groups)


def _su3_zero_weight_states():
    sym = _zero_weight_labels(3, (3, 0))
    mixed = sunrep.canonical_basis_states(3, (1, 1))
    triplet = singlet = None
    for label, _ in mixed:
        if label.occupations == (1, 1, 1):
            if label.chain_irreps[-1] == (2,):
                triplet = label
            elif label.chain_irreps[-1] == (0,):
                singlet = label
    if len(sym) != 1 or triplet is None or singlet is None:
        raise InternalInconsistency(
            "su(3) zero-weight states are not the expected three",
            symmetric=len(sym), triplet=triplet is not None,
            singlet=singlet is not None)
    return sym[0], triplet, singlet


def abc_via_dfunctions(omega):
    """A, B, C reconstructed from SU(3) D-functions at zero weight.

    Each term is (D_sym + 2 <e_X| D2 |a>) / 3, where D_sym is the
    symmetric-irrep diagonal element, D2 the 2x2 zero-weight block of the
    mixed-symmetry irrep in the (su(2)-triplet, su(2)-singlet) basis, the
    ket a is the unit vector in that plane at 60 degrees, and the bras
    e_A, e_B, e_C sit at 60, -60 and 180 degrees — the three output
    ports of the delayed photon are equally spaced in the zero-weight
    plane.
    """
    v = _special_unitary(3, omega)
    sym, triplet, singlet = _su3_zero_weight_states()
    d_sym = sunrep.dfunction(3, v, sym, sym)
    d2 = np.array([
        [sunrep.dfunction(3, v, triplet, triplet),
         sunrep.dfunction(3, v, triplet, singlet)],
        [sunrep.dfunction(3, v, singlet, triplet),
         sunrep.dfunction(3, v, singlet, singlet)],
    ])
    half_rt3 = math.sqrt(3.0) / 2.0
    ket = np.array([0.5, half_rt3])
    bras = (np.array([0.5, half_rt3]),
            np.array([0.5, -half_rt3]),
            np.array([-1.0, 0.0]))
    return tuple((d_sym + 2.0 * (bra @ d2 @ ket)) / 3.0 for bra in bras)
