"""Cosine-sine decomposition of block unitaries and the iterative
factorization of an (n_s·n_p)-dimensional unitary into internal elements,
balanced beam splitters and phase banks.

Conventions
-----------
A plan's ``elements`` list is stored in matrix-product order: the realized
unitary is ``M(elements[0]) @ M(elements[1]) @ ...``, i.e. the rightmost
element acts on states first (serialized ``order: rightmost-first``).
"""
import numpy as np

from . import linalg
from .errors import InvalidDimension, InvalidSplit, ShapeMismatch, PlanCorrupt

# the balanced beam splitter constant
B2 = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def csd(u, m, tol=linalg.DEFAULT_UNITARITY_TOL):
    """Cosine-sine decomposition U = (L ⊕ L')·(S_2m(θ) ⊕ I_{n−m})·(R ⊕ R')†.

    Returns the blocks ``(l, l_prime, thetas, r, r_prime)``: L and R are
    m×m, L' and R' are n×n, and θ holds m angles in [0, π/2] ordered by
    descending cos θ, with S_2m(θ) = [[cos θ, sin θ], [−sin θ, cos θ]]
    blockwise.  The dense CS matrix and the block-diagonal factors are
    assembled only by the test oracle.

    This is the two-sided CSD of Stewart (1982, Numer. Math. 40, 297) and
    Van Loan (1985, Numer. Math. 46, 479).  The SVD of the upper left
    block A = L·cos θ·R† fixes L and R, and the columns of C·R = −L'·sin θ
    fix L'.  The split sits at cos θ = sin θ because each angle is
    resolved by the smaller of the two: below π/4 the cosines round to 1
    and only the sines separate the angles, above it the cosines do.  So
    the columns with cos θ ≥ sin θ are re-taken from the SVD of their
    block of L'†·C·R, and each column of R' is taken from D†·L'/cos θ or
    B†·L/sin θ, whichever divides by the larger of the two.
    """
    u = linalg.assert_unitary(u, tol)
    n = u.shape[0] - m
    if m < 1 or m > n:
        raise InvalidSplit("require 1 <= m <= n", m=m, n=n)

    a = u[:m, :m]
    b = u[:m, m:]
    c = u[m:, :m]
    d = u[m:, m:]

    lm, cos, rm = linalg.svd(a)
    k = int(np.count_nonzero(cos >= np.sqrt(0.5)))  # columns with cos ≥ sin

    # L' with its orthogonal complement from one complete QR of C·R, the
    # columns taken in order of decreasing sin θ (the reverse of θ's)
    y = c @ rm
    q = np.linalg.qr(y[:, ::-1], mode="complete")[0]
    lp = np.concatenate([q[:, m - 1::-1], q[:, m:]], axis=1)

    if k:
        # the sines separate the small angles: ascending singular values
        w, _, v = linalg.svd(lp[:, :k].conj().T @ y[:, :k])
        w, v = w[:, ::-1], v[:, ::-1]
        lm[:, :k] = lm[:, :k] @ v
        rm[:, :k] = rm[:, :k] @ v
        y[:, :k] = y[:, :k] @ v
        lp[:, :k] = lp[:, :k] @ w

    # column phases of L' that make the middle block L'ᴴ·C·R = −S real;
    # cos and sin are the diagonals of Lᴴ·A·R and −L'ᴴ·C·R
    diag = np.sum(lp[:, :m].conj() * y, axis=0)
    lp[:, :m] *= -np.exp(1j * np.angle(diag))
    sin = np.abs(diag)
    cos = np.sum(lm.conj() * (a @ rm), axis=0).real

    # R' = D†·L'/cos θ where cos θ ≥ sin θ (cos θ = 1 past column m) and
    # B†·L/sin θ elsewhere
    rp = d.conj().T @ lp
    rp[:, :k] /= cos[:k]
    rp[:, k:m] = b.conj().T @ (lm[:, k:] / sin[k:])
    rp = linalg.orthonormalize(rp)

    thetas = np.arctan2(sin, np.maximum(cos, 0.0))
    return lm, lp, thetas, rm, rp


# ---------------------------------------------------------------------------
# Optical elements and plans
# ---------------------------------------------------------------------------
def bs_element(mode):
    return {"kind": "BS", "mode": mode}


def iu_element(mode, matrix):
    return {"kind": "IU", "mode": mode, "matrix": np.asarray(matrix, dtype=complex)}


def ip_element(mode, phases):
    """Phase bank: phases for internal modes of spatial modes (mode, mode+1)."""
    return {"kind": "IP", "mode": mode, "phases": np.asarray(phases, dtype=float)}


class DecompositionPlan:
    def __init__(self, n_s, n_p, elements):
        self.n_s = n_s
        self.n_p = n_p
        self.elements = list(elements)

    def census(self):
        counts = {"BS": 0, "IU": 0, "IP": 0}
        for e in self.elements:
            counts[e["kind"]] += 1
        return counts


def reconstruct(plan):
    """Multiply out a plan's elements (list order = product order).

    Each element right-multiplies only the columns of the spatial modes it
    acts on, so a plan of E elements costs O(E·dim·n_p) instead of
    O(E·dim³).
    """
    n_s, n_p = plan.n_s, plan.n_p
    out = np.eye(n_s * n_p, dtype=complex)
    splitter = np.kron(B2, np.eye(n_p))
    for e in plan.elements:
        k = e["mode"]
        kind = e["kind"]
        if k < 1 or k > n_s:
            raise PlanCorrupt("element mode out of range", mode=k, kind=kind)
        lo = (k - 1) * n_p
        if kind == "BS":
            if k + 1 > n_s:
                raise PlanCorrupt("beam splitter mode out of range", mode=k)
            cols = slice(lo, lo + 2 * n_p)
            out[:, cols] = out[:, cols] @ splitter
        elif kind == "IU":
            mat = e["matrix"]
            if mat.shape != (n_p, n_p):
                raise PlanCorrupt("internal unitary has wrong dimension",
                                  mode=k, shape=list(mat.shape))
            cols = slice(lo, lo + n_p)
            out[:, cols] = out[:, cols] @ mat
        elif kind == "IP":
            phases = np.asarray(e["phases"], dtype=float)
            if len(phases) % n_p != 0 or k - 1 + len(phases) // n_p > n_s:
                raise PlanCorrupt("phase bank has wrong length",
                                  mode=k, count=len(phases))
            out[:, lo:lo + len(phases)] *= np.exp(1j * phases)
        else:
            raise PlanCorrupt(f"unknown element kind {kind!r}")
    # one check on the product catches every NaN or infinite entry
    if not np.isfinite(out).all():
        raise PlanCorrupt("plan produces non-finite entries")
    return out


def factor_cs_matrix(angles, n_p, mode=1):
    """Factor S_{2n_p}(θ) into 2 balanced beam splitters and 2 phase banks.

    S = (𝓑₂⊗I)(Θ ⊕ Θ†)(𝓑₂†⊗I) exactly; since the element set carries only
    the balanced splitter, 𝓑₂† is rewritten as P·𝓑₂·P with P = phases
    (0, π) on the two spatial modes, leaving the element sequence
    [BS, IP(θ_l ; π−θ_l), BS, IP(0 ; π)] whose product equals S exactly.
    """
    t = np.asarray(angles, dtype=float)
    if t.shape != (n_p,):
        raise ShapeMismatch("need one angle per internal mode",
                            angles=list(t.shape), n_p=n_p)
    bank1 = np.concatenate([t, np.pi - t])
    bank2 = np.concatenate([np.zeros(n_p), np.pi * np.ones(n_p)])
    return [bs_element(mode), ip_element(mode, bank1),
            bs_element(mode), ip_element(mode, bank2)]


def decompose(u, n_s, n_p, tol=linalg.DEFAULT_UNITARITY_TOL):
    """Factor an n_s·n_p unitary into a plan of BS/IU/IP elements.

    Runs n_s−1 iterations; iteration j peels spatial mode j off the current
    unitary by a chain of CSDs, emitting one CS block per mode pair and
    merging the primed right factors (they commute past the already emitted
    CS matrices, acting on disjoint spatial modes) into the next iteration's
    input.
    """
    u = linalg.as_complex_matrix(u)
    dim = n_s * n_p
    if u.shape != (dim, dim):
        raise ShapeMismatch("matrix dimension must equal n_s*n_p",
                            shape=list(u.shape), n_s=n_s, n_p=n_p)
    linalg.assert_unitary(u, tol)

    elements = []
    cur = np.array(u)  # acts on spatial modes j..n_s
    for j in range(1, n_s):
        seq_left = []
        seq_mid = []
        modes_here = n_s - j + 1
        acc = np.eye((modes_here - 1) * n_p, dtype=complex)
        w = cur
        for p in range(j, n_s):
            l, l_prime, thetas, r, r_prime = csd(w, n_p, tol=tol)
            seq_left.append(iu_element(p, l))
            seq_mid = (factor_cs_matrix(thetas, n_p, mode=p)
                       + [iu_element(p, r.conj().T)] + seq_mid)
            # merge R'† into the accumulated right matrix (modes j+1..n_s)
            off = (p - j) * n_p
            acc[off:, :] = r_prime.conj().T @ acc[off:, :]
            w = l_prime
        seq_left.append(iu_element(n_s, w))  # bottom of the L chain
        elements.extend(seq_left)
        elements.extend(seq_mid)
        cur = acc
    elements.append(iu_element(n_s, cur))
    return DecompositionPlan(n_s, n_p, elements)


def cost_report(n_s, n_p):
    """Element-count accounting versus the triangular single-DOF mesh."""
    if n_s < 1 or n_p < 1:
        raise InvalidDimension("n_s and n_p must be >= 1", n_s=n_s, n_p=n_p)
    bs = n_s * (n_s - 1)
    reck = n_s * n_p * (n_s * n_p - 1) // 2
    return {
        "beam_splitters": bs,
        "internal_elements": n_s * n_p * (n_s * n_p + n_s - 1),
        "reck_beam_splitters": reck,
        "reduction_factor": (reck / bs) if bs else float("inf"),
    }
