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
    blockwise.  L and R are the singular vectors of the upper left block
    A; the residual diagonal phases of the B and C blocks are absorbed into
    the primed factors so the middle matrix is real.  The dense CS matrix
    and the block-diagonal factors are assembled only by the test oracle.
    """
    u = linalg.assert_unitary(u, tol)
    n = u.shape[0] - m
    if m < 1 or m > n:
        raise InvalidSplit("require 1 <= m <= n", m=m, n=n)

    a = u[:m, :m]
    b = u[:m, m:]
    c = u[m:, :m]
    d = u[m:, m:]

    lm, _, rm = linalg.svd(a)

    # right-primed columns from rows of L_m† B, left-primed from C R_m.
    z = lm.conj().T @ b              # m×n, row i ≈ s_i · r'_i†
    y = c @ rm                       # n×m, col i ≈ −s_i · l'_i
    dir_tol = 1e-8
    rp = np.zeros((n, m), dtype=complex)
    lp = np.zeros((n, m), dtype=complex)
    undecided = []
    for i in range(m):
        zn = np.linalg.norm(z[i, :])
        yn = np.linalg.norm(y[:, i])
        if zn > dir_tol and yn > dir_tol:
            rp[:, i] = z[i, :].conj() / zn
            lp[:, i] = -y[:, i] / yn
        else:
            undecided.append(i)

    if undecided:
        # θ_i ≈ 0: B/C carry no information; pick r'_i from the
        # orthocomplement of the decided ones and let D transport it.
        decided = [i for i in range(m) if i not in undecided]
        fresh = linalg.orthonormal_completion(rp[:, decided])[:, len(decided):]
        for i, vec in zip(undecided, fresh.T):
            rp[:, i] = vec
            dv = d @ vec
            lp[:, i] = dv / np.linalg.norm(dv)

    # tiny-angle directions may be slightly non-orthogonal, so orthonormalize
    # L' before completing it; R'⊥ = D† L'⊥ keeps the trailing block exactly I
    lp_full = linalg.orthonormal_completion(linalg.orthonormalize(lp))
    rp_full = linalg.orthonormalize(
        np.concatenate([rp, d.conj().T @ lp_full[:, m:]], axis=1))

    # re-derive the angles from the diagonals of the middle blocks
    # Lᴴ·A·R and L'ᴴ·C·R so that the orthonormalization is absorbed optimally
    cos = np.sum(lm.conj() * (a @ rm), axis=0).real
    sin = -np.sum(lp_full[:, :m].conj() * y, axis=0).real
    thetas = np.arctan2(np.maximum(sin, 0.0), np.maximum(cos, 0.0))
    return lm, lp_full, thetas, rm, rp_full


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
