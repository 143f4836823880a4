"""Laplacian assembly, local energy, curvature quadratic forms, and spectra.

Everything uses the degree-normalized convention: row x of the magnetic
Laplacian is M[x][x] = -1, M[x][y] = p_xy * sigma_xy / d_x for y ~ x. There
is one operator; the plain Laplacian is the magnetic one of g.untwisted().
All of them are assembled from the graph's cached oriented-edge table
(MagneticGraph.oriented_edges). The forms of vertex x are Hermitian matrices
on its 2-ball B2(x), the vertices at most two edges away, outside which they
vanish, so "for every complex function f" quantifiers downstream reduce to
positive-semidefiniteness tests of |B2(x)| x |B2(x)| blocks. The blocks are
stored as one (b, k, k) stack per 2-ball size k, the layout the curvature
checks read. The spectrum and the forms are computed once per graph and live
as long as it; their arrays are read-only.

The dense N x N Laplacian serves only the spectrum (target graphs are desk
scale, so sparse machinery is deliberately omitted). The forms, linear in
sum_x |B2(x)|^2, and the lift identities read the oriented-edge table,
which keeps one entry per oriented edge in each of its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import MagneticGraph, memoised_on_graph

__all__ = [
    "FormFamily",
    "LocalForms",
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


class LocalForms(NamedTuple):
    """The three forms of one vertex x on its 2-ball B = ``support``: for every
    vertex function f, with f_B = f[support],

        f_B* gamma f_B = gamma(f, f)(x),  f_B* gamma2 f_B = gamma2(f, f)(x),
        f_B* lap_square f_B = |(Lf)(x)|^2.

    The N x N forms are these blocks padded with zeros outside B.
    """

    support: np.ndarray     # (k,) int, the vertices of B2(x), ascending
    gamma: np.ndarray       # (k, k) complex
    gamma2: np.ndarray      # (k, k) complex
    lap_square: np.ndarray  # (k, k) complex


@dataclass(frozen=True)
class FormFamily:
    """The per-vertex forms of a graph, stacked by 2-ball size.

    ``stacks`` holds one (xs, LocalForms) per size k, ascending: the vertices
    xs whose 2-ball has k vertices, ascending, and their forms stacked, with
    (b, k) supports and (b, k, k) blocks; row i belongs to vertex xs[i]. All
    arrays are read-only. Memory is O(sum_x |B2(x)|^2).
    """

    stacks: tuple[tuple[np.ndarray, LocalForms], ...]

    def block(self, x: int) -> LocalForms:
        """Vertex x's LocalForms, as views of its row of its size's stack."""
        for xs, blk in self.stacks:
            i = np.searchsorted(xs, x)
            if i < len(xs) and xs[i] == x:
                return LocalForms(*(a[i] for a in blk))
        raise IndexError(f"no vertex {x}")


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with j in range(lo[i], hi[i]), ordered by i, then j."""
    count = hi - lo
    i = np.repeat(np.arange(len(lo)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + lo[i]


@memoised_on_graph
def form_family(g: MagneticGraph) -> FormFamily:
    """Assemble each vertex's forms on its 2-ball B from the oriented-edge table.

    With M_B = M[B, B], the rows r = x -> y_r leaving x and the row vectors
    T_r = phase[r] e_{y_r} - e_x:

        gamma[x]      = sum_r weight[r] T_r^H T_r / 2, supported on B1(x);
        gamma2[x]     = (sum_r weight[r] gamma[y_r] - gamma[x]
                         - M_B^H gamma[x] - gamma[x] M_B) / 2;
        lap_square[x] = conj(M[x, B])^T M[x, B].

    The rows leaving x and the pairs of a row x -> y_r and a row y_r -> z
    are the rows leaving B1(x); their ends make up B. Their rank-one terms
    and Laplacian entries are scattered into the blocks of all vertices at
    once, into flat buffers laid out so that the blocks of each size form
    one stack; rows of M_B outside B1(x) stay 0, as they meet only zeros of
    gamma[x]. The products with M_B run on those stacks, where each gamma2
    block is forced Hermitian by averaging, guarded by a residue check that
    names the lowest failing vertex.
    """
    n = g.num_vertices
    edges = g.oriented_edges
    src, dst, rows = edges.src, edges.dst, np.arange(len(edges.src))
    starts = np.append(edges.first, len(src))
    weight, phase = edges.weight, edges.phase

    first, second = _ranges(starts[dst], starts[dst + 1])
    # (x, r) for each row r leaving a vertex of B1(x)
    ball, ball_rows = np.concatenate((src, src[first])), np.concatenate((rows, second))
    keys = np.unique(ball * n + dst[ball_rows])
    support = keys % n
    sizes = np.bincount(keys // n, minlength=n)
    support_start = np.concatenate(([0], np.cumsum(sizes)))
    # Blocks are laid out by (size, vertex): each size's blocks are one stack.
    area = sizes ** 2
    by_size = np.argsort(sizes, kind="stable")
    block_start = np.empty_like(area)
    block_start[by_size] = np.cumsum(area[by_size]) - area[by_size]

    def local(x, v):
        """Position of vertex v in the support of vertex x."""
        return np.searchsorted(keys, x * n + v) - support_start[x]

    def flat(x, i, j):
        """Position of entry (i, j) of vertex x's block in the flat buffers."""
        return block_start[x] + i * sizes[x] + j

    def rank_one_sum(x, r, c):
        """The blocks of sum_i c[i] T_{r[i]}^H T_{r[i]} / 2 at vertices x[i]."""
        a, b, h, p = local(x, src[r]), local(x, dst[r]), 0.5 * c, phase[r]
        idx = np.concatenate((flat(x, a, a), flat(x, b, b), flat(x, a, b), flat(x, b, a)))
        val = np.concatenate((h, h, -h * p, -h * p.conj()))
        return (np.bincount(idx, val.real, area.sum())
                + 1j * np.bincount(idx, val.imag, area.sum()))

    G = rank_one_sum(src, rows, weight)
    # G2 starts as sum_r weight[r] gamma[y_r], over the pairs.
    G2 = rank_one_sum(src[first], second, weight[first] * weight[second])
    # M_B on B1(x): coef[r] at (u, dst[r]) and -1 at (u, u) for each row r leaving u
    M = np.zeros(area.sum(), dtype=complex)
    u = local(ball, src[ball_rows])
    M[flat(ball, u, local(ball, dst[ball_rows]))] = edges.coef[ball_rows]
    M[flat(ball, u, u)] = -1.0

    centre = local(np.arange(n), np.arange(n))
    resid = np.empty(n)
    limit = np.empty(n)
    stacks = []
    for k in np.unique(sizes).tolist():
        xs = np.flatnonzero(sizes == k)
        cut = slice(block_start[xs[0]], block_start[xs[0]] + len(xs) * k * k)
        Gx, G2x, M_B = (a[cut].reshape(-1, k, k) for a in (G, G2, M))
        B = support[support_start[xs, None] + np.arange(k)]
        raw = 0.5 * (G2x - Gx - M_B.conj().swapaxes(1, 2) @ Gx - Gx @ M_B)
        raw_h = raw.conj().swapaxes(1, 2)
        resid[xs] = np.linalg.norm(raw - raw_h, axis=(1, 2))
        limit[xs] = HERMITIZE_GUARD * np.maximum(1.0, np.linalg.norm(raw, axis=(1, 2)))
        G2x[:] = 0.5 * (raw + raw_h)
        row = M_B[np.arange(len(xs)), centre[xs]]
        stacks.append((xs, LocalForms(B, Gx, G2x, row.conj()[:, :, None] * row[:, None, :])))
    failed = np.flatnonzero(resid > limit)
    if len(failed):
        x = failed[0]
        raise NumericalError(
            f"anti-Hermitian residue {resid[x]:.3e} in gamma2 form at vertex {x}")

    for xs, blk in stacks:
        for arr in (xs, *blk):
            arr.flags.writeable = False
    return FormFamily(stacks=tuple(stacks))


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
