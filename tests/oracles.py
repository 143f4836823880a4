"""Dense reference implementations that the package's fast routes are checked against."""

import numpy as np

from magcurv.curvature import _inv_n, _vertex_kappa
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
    by the package's pencil solver."""
    G, G2, Q = dense
    invn = _inv_n(n)
    return np.array([_vertex_kappa(G2[x] - invn * Q[x], G[x])[0] for x in range(len(G))])
