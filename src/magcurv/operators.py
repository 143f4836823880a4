"""Laplacian assembly, local energy, the pointwise curvature forms, and spectra.

Everything uses the degree-normalized convention: row x of the magnetic
Laplacian is M[x][x] = -1, M[x][y] = p_xy * sigma_xy / d_x for y ~ x. There
is one operator; the plain Laplacian is the magnetic one of g.untwisted().
All of them are assembled from the graph's cached oriented-edge table
(MagneticGraph.oriented_edges), which keeps one entry per oriented edge in
each of its arrays. gamma and gamma2 are evaluated pointwise, for given
functions; the curvature module decides CD(n, kappa) for every function from
its own reduction of them on each vertex's 1-ball.

The dense N x N Laplacian serves only the spectrum (target graphs are desk
scale, so sparse machinery is deliberately omitted). The spectrum is computed
once per graph and lives as long as it; its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import MagneticGraph, memoised_on_graph

__all__ = [
    "SpectralData",
    "laplacian_matrix",
    "energy",
    "gamma",
    "gamma2",
    "spectrum",
    "as_vertex_function",
]


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


def _differences(edges, f: np.ndarray) -> np.ndarray:
    """(T f)[r] = sigma_xy f(y) - f(x) on each row r = x -> y, for f of shape
    (N,) or (N, B)."""
    phase = edges.phase.reshape((-1,) + (1,) * (f.ndim - 1))
    return phase * f[edges.dst] - f[edges.src]


def _row_sums(edges, terms: np.ndarray) -> np.ndarray:
    """sum_r weight[r] terms[r] over the rows r leaving each vertex; every
    vertex has a row, so no segment of the reduction is empty."""
    weight = edges.weight.reshape((-1,) + (1,) * (terms.ndim - 1))
    return np.add.reduceat(weight * terms, edges.first, axis=0)


def _apply_laplacian(edges, f: np.ndarray) -> np.ndarray:
    """(Lf)(x) = sum_y p_xy (sigma_xy f(y) - f(x)) / d_x, from the edge table."""
    return _row_sums(edges, _differences(edges, f))


def energy(g: MagneticGraph, f) -> np.ndarray:
    """Local energy |grad f|^2(x) = (1/d_x) sum_y p_xy |sigma_xy f(y) - f(x)|^2."""
    vals = as_vertex_function(g, f)
    edges = g.oriented_edges
    return _row_sums(edges, np.abs(_differences(edges, vals)) ** 2)


def gamma(g: MagneticGraph, u, v=None) -> np.ndarray:
    """First curvature form gamma(u, v) per vertex; gamma(f) = energy(f) / 2.

    Sesquilinear: linear in u, conjugate-linear in v.
    """
    uu = as_vertex_function(g, u)
    vv = uu if v is None else as_vertex_function(g, v)
    edges = g.oriented_edges
    return 0.5 * _row_sums(edges, _differences(edges, uu) * np.conj(_differences(edges, vv)))


def gamma2(g: MagneticGraph, u, v=None) -> np.ndarray:
    """Iterated curvature form, evaluated pointwise by operator composition:

        2 gamma2(u, v) = Delta_plain[gamma(u, v)] - gamma(u, Lv) - gamma(Lu, v)

    where L is the magnetic Laplacian and the outer Delta is the plain one,
    the Laplacian of g.untwisted(), since gamma(u, v) is an ordinary vertex
    function. Both are applied row by row from the oriented-edge table.
    """
    uu = as_vertex_function(g, u)
    vv = uu if v is None else as_vertex_function(g, v)
    edges = g.oriented_edges
    h = gamma(g, uu, vv)
    first = _row_sums(edges, h[edges.dst] - h[edges.src])
    return 0.5 * (first - gamma(g, uu, _apply_laplacian(edges, vv))
                  - gamma(g, _apply_laplacian(edges, uu), vv))


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
