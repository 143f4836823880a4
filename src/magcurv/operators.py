"""Laplacian assembly, local energy, curvature quadratic forms, and spectra.

Everything uses the degree-normalized convention: row x of the magnetic
Laplacian is M[x][x] = -1, M[x][y] = p_xy * sigma_xy / d_x for y ~ x. There
is one operator; the plain Laplacian is the magnetic one of g.untwisted().
All of them are assembled from the graph's cached oriented-edge table
(MagneticGraph.oriented_edges). Forms are realized as one Hermitian N x N
matrix per vertex, so "for every complex function f" quantifiers downstream
reduce to positive-semidefiniteness tests. The spectrum and the forms are
computed once per graph and live as long as it; their arrays are read-only.

Dense matrices throughout: target graphs are desk scale (a few hundred
vertices after lifting), so sparse machinery is deliberately omitted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import MagneticGraph, memoised_on_graph

__all__ = [
    "FormFamily",
    "SpectralData",
    "laplacian_matrix",
    "energy",
    "gamma",
    "gamma2",
    "form_family",
    "spectrum",
    "as_vertex_function",
]

HERMITIZE_GUARD = 1e-12


def as_vertex_function(g: MagneticGraph, values) -> np.ndarray:
    """Coerce to a complex vertex function of shape (N,) or a batch (N, B)."""
    f = np.asarray(values, dtype=complex)
    if f.ndim not in (1, 2) or f.shape[0] != g.num_vertices:
        raise ValidationError(
            f"vertex function must have leading length {g.num_vertices}, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValidationError("vertex function has non-finite entries")
    return f


def laplacian_matrix(g: MagneticGraph) -> np.ndarray:
    """Dense magnetic Laplacian; -M is similar to a Hermitian matrix with
    spectrum in [0, 2] under conjugation by sqrt(degrees)."""
    edges = g.oriented_edges
    M = np.zeros((g.num_vertices, g.num_vertices), dtype=complex)
    M[edges.src, edges.dst] = edges.coef
    np.fill_diagonal(M, -1.0)
    return M


def energy(g: MagneticGraph, f) -> np.ndarray:
    """Local energy |grad f|^2(x) = (1/d_x) sum_y p_xy |sigma_xy f(y) - f(x)|^2."""
    vals = as_vertex_function(g, f)
    edges = g.oriented_edges
    return edges.W @ (np.abs(edges.T @ vals) ** 2)


def gamma(g: MagneticGraph, u, v=None) -> np.ndarray:
    """First curvature form gamma(u, v) per vertex; gamma(f) = energy(f) / 2.

    Sesquilinear: linear in u, conjugate-linear in v.
    """
    uu = as_vertex_function(g, u)
    vv = uu if v is None else as_vertex_function(g, v)
    edges = g.oriented_edges
    return 0.5 * (edges.W @ ((edges.T @ uu) * np.conj(edges.T @ vv)))


def gamma2(g: MagneticGraph, u, v=None) -> np.ndarray:
    """Iterated curvature form, evaluated pointwise by operator composition:

        2 gamma2(u, v) = Delta_plain[gamma(u, v)] - gamma(u, Lv) - gamma(Lu, v)

    where L is the magnetic Laplacian and the outer Delta is the plain one,
    the Laplacian of g.untwisted(), since gamma(u, v) is an ordinary vertex
    function.
    """
    uu = as_vertex_function(g, u)
    vv = uu if v is None else as_vertex_function(g, v)
    L = laplacian_matrix(g)
    first = laplacian_matrix(g.untwisted()) @ gamma(g, uu, vv)
    return 0.5 * (first - gamma(g, uu, L @ vv) - gamma(g, L @ uu, vv))


@dataclass(frozen=True)
class FormFamily:
    """Per-vertex Hermitian quadratic forms: f* gamma[x] f = gamma(f, f)(x),
    f* gamma2[x] f = gamma2(f, f)(x), f* lap_square[x] f = |(Lf)(x)|^2."""

    gamma: np.ndarray       # (N, N, N) complex, index [x]
    gamma2: np.ndarray      # (N, N, N) complex
    lap_square: np.ndarray  # (N, N, N) complex


@memoised_on_graph
def form_family(g: MagneticGraph) -> FormFamily:
    """Assemble the per-vertex Hermitian forms.

    gamma[x] = T_x^H diag(W[x]) T_x / 2 over the oriented-edge rows T_x
    leaving x; lap_square[x] is L* E_x L for the coordinate projector E_x;
    gamma2[x] composes the first form with the Laplacian per the defining
    recursion, with the outer Laplacian acting plainly on the matrix family
    {gamma[y]}. The result is forced Hermitian by averaging, guarded by a
    residue check.
    """
    n = g.num_vertices
    edges = g.oriented_edges
    offsets = np.searchsorted(edges.src, np.arange(n + 1))
    M = laplacian_matrix(g)

    G = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        rows = slice(offsets[x], offsets[x + 1])
        # T_x is supported on x and its neighbors. Each rank-one term is
        # exactly Hermitian; the builtin sum adds them in row order, where
        # np.sum may pair them, so the block is exactly Hermitian too.
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
        herm = 0.5 * (raw + raw.conj().T)
        resid = np.linalg.norm(raw - raw.conj().T)
        if resid > HERMITIZE_GUARD * max(1.0, np.linalg.norm(raw)):
            raise NumericalError(
                f"anti-Hermitian residue {resid:.3e} in gamma2 form at vertex {x}")
        G2[x] = herm

    for arr in (G, G2, Q):
        arr.flags.writeable = False
    return FormFamily(gamma=G, gamma2=G2, lap_square=Q)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of -Laplacian: ascending real eigenvalues and
    eigenvectors (columns), orthonormal under the degree inner product
    <f, g> = sum_x d_x f(x) conj(g(x))."""

    eigenvalues: np.ndarray   # (N,) float, ascending
    eigenvectors: np.ndarray  # (N, N) complex, column i pairs with eigenvalue i

    def to_json_dict(self) -> dict:
        vecs = []
        for i in range(self.eigenvectors.shape[1]):
            col = self.eigenvectors[:, i]
            vecs.append([[float(z.real), float(z.imag)] for z in col])
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "eigenvectors": vecs,
        }


@memoised_on_graph
def spectrum(g: MagneticGraph) -> SpectralData:
    """Full Hermitian eigendecomposition of -Laplacian via the similarity
    transform D^{1/2} (-M) D^{-1/2}."""
    M = laplacian_matrix(g)
    root = np.sqrt(g.degrees)
    H = -(root[:, None] * M / root[None, :])
    H = 0.5 * (H + H.conj().T)
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    F = U / root[:, None]
    w.flags.writeable = False
    F.flags.writeable = False
    return SpectralData(eigenvalues=w, eigenvectors=F)
