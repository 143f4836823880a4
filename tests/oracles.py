"""Dense reference implementations that the package's fast routes are checked against."""

import math

import numpy as np
import scipy.linalg

from magcurv.curvature import KERNEL_THRESHOLD, PSD_TOL, _inv_n
from magcurv.errors import NumericalError
from magcurv.operators import laplacian_matrix


def dense_form_family(g):
    """The per-vertex forms as full (N, N, N) stacks (gamma, gamma2, lap_square),
    assembled on the whole vertex set by the defining recursion."""
    n = g.num_vertices
    edges = g.oriented_edges
    offsets = np.searchsorted(edges.src, np.arange(n + 1))
    M = laplacian_matrix(g)

    G = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        rows = slice(offsets[x], offsets[x + 1])
        cols = np.append(x, edges.dst[rows])
        Tx = edges.T[rows][:, cols]
        terms = Tx.conj()[:, :, None] * Tx[:, None, :]
        G[x][np.ix_(cols, cols)] = sum(0.5 * edges.W[x, rows, None, None] * terms)

    Q = np.conj(M)[:, :, None] * M[:, None, :]

    Mh = M.conj().T
    G2 = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        lap_of_g = -G[x].copy()
        for r in range(offsets[x], offsets[x + 1]):
            lap_of_g += edges.W[x, r] * G[edges.dst[r]]
        raw = 0.5 * (lap_of_g - Mh @ G[x] - G[x] @ M)
        G2[x] = 0.5 * (raw + raw.conj().T)
    return G, G2, Q


def embedded_forms(forms, x, n):
    """Vertex x's local blocks of a FormFamily, padded with zeros to N x N."""
    blk = forms.block(x)
    out = []
    for local in (blk.gamma, blk.gamma2, blk.lap_square):
        full = np.zeros((n, n), dtype=complex)
        full[np.ix_(blk.support, blk.support)] = local
        out.append(full)
    return out


def dense_kappa_per_vertex(dense, n):
    """Per-vertex optimal kappa from dense forms (gamma, gamma2, lap_square),
    by the one-vertex reference solver."""
    G, G2, Q = dense
    invn = _inv_n(n)
    return np.array([vertex_kappa_reference(G2[x] - invn * Q[x], G[x])[0]
                     for x in range(len(G))])


def same_direction(u, v):
    """u and v agree up to a unit complex factor."""
    return abs(np.vdot(u, v)) >= (1 - 1e-9) * np.linalg.norm(u) * np.linalg.norm(v)


def vertex_kappa_reference(A: np.ndarray, G: np.ndarray) -> tuple[float, np.ndarray]:
    """sup{kappa : A - kappa G is PSD} for Hermitian A and PSD G.

    Splits by the eigendecomposition of G with relative kernel threshold
    1e-10. On the kernel of G the pencil is constant in kappa, so a negative
    eigenvalue there (or a coupling of the range into a null direction of the
    kernel block) means no finite kappa works. Otherwise the kernel block is
    eliminated by a Schur complement and the supremum is the smallest
    generalized eigenvalue of the reduced definite pencil.
    """
    scale_a = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))  # ||A||_2 without an SVD
    gw, gv = np.linalg.eigh(G)
    cut = KERNEL_THRESHOLD * max(float(gw[-1]), 1e-300)
    keep = gw > cut
    R = gv[:, keep]
    K = gv[:, ~keep]
    if R.shape[1] == 0:
        raise NumericalError("first form vanished at a vertex; graph invariant broken")
    Ar = R.conj().T @ A @ R
    Gr = R.conj().T @ G @ R
    Bp = None
    mu_pos = None
    KWp = None
    if K.shape[1] > 0:
        Ak = K.conj().T @ A @ K
        mu, Wk = np.linalg.eigh(0.5 * (Ak + Ak.conj().T))
        if mu[0] < -PSD_TOL * scale_a:
            return -math.inf, K @ Wk[:, 0]
        KW = K @ Wk
        B = R.conj().T @ A @ KW
        pos = mu > KERNEL_THRESHOLD * scale_a
        null_coupling = np.linalg.norm(B[:, ~pos]) if np.any(~pos) else 0.0
        if null_coupling > 1e-7 * scale_a:
            j = int(np.argmax(np.linalg.norm(B[:, ~pos], axis=0)))
            return -math.inf, KW[:, np.flatnonzero(~pos)[j]]
        if np.any(pos):
            Bp = B[:, pos]
            mu_pos = mu[pos]
            KWp = KW[:, pos]
            Ar = Ar - (Bp / mu_pos) @ Bp.conj().T
    Ar = 0.5 * (Ar + Ar.conj().T)
    Gr = 0.5 * (Gr + Gr.conj().T)
    try:
        vals, vecs = scipy.linalg.eigh(Ar, Gr)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced pencil eigensolver failed: {exc}") from exc
    vr = vecs[:, 0]
    wit = R @ vr
    if Bp is not None:
        # kernel-side component of the null vector eliminated by the Schur step
        wit = wit - KWp @ ((Bp.conj().T @ vr) / mu_pos)
    return float(vals[0]), wit

