"""Covering graphs: construction, function lifting, the lift diameter and the
exact transfer checks on the oriented-edge tables. The covering-diameter
estimate, with the hypotheses of the path bounds, is bounds.lift_diameter_check.

The lift of a magnetic graph lives on pairs (vertex, level); level k stands
for the root of unity exp(2*pi*1j*k/ell) and pair (x, k) gets the flat index
x * ell + k. Edges follow the signature: (x1, k1) ~ (x2, k2) iff x1 ~ x2 and
k2 = k1 + s(x1 -> x2) mod ell, with the base edge weight. Serialized lifts
use this index order, so results are byte-reproducible. ``build_lift`` stores
the lift on its base, so every call and ``verify_lift_identities`` share it.
The lift is derived from its validated base and not validated again; one of
more than ``budget`` vertices raises SizeError before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .combinatorics import DEFAULT_BUDGET
from .errors import SizeError
from .graphs import Edge, MagneticGraph, Record, _farthest_walk, memoised_on_graph
from .operators import _apply_laplacian, as_vertex_function, spectrum

__all__ = [
    "LiftGraph",
    "LiftIdentityReport",
    "build_lift",
    "lift_diameter",
    "lift_function",
    "verify_lift_identities",
]

ENERGY_TOL = 1e-12
LAPLACIAN_TOL = 1e-12
EIGENPAIR_TOL = 1e-9
# Entries of one (lift rows) x (eigenvectors) block of the eigenpair check,
# 1 MiB of complex values, so its memory does not grow with N.
EIGENPAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class LiftGraph:
    """Plain weighted graph on num_vertices * ell vertices, index (x, k) -> x*ell + k."""

    ell: int               # of the base
    graph: MagneticGraph   # ell = 1, every exponent 0

    def vertex_index(self, x: int, k: int) -> int:
        return x * self.ell + k

    def vertex_label(self, i: int) -> tuple[int, int]:
        return divmod(i, self.ell)


def build_lift(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> LiftGraph:
    """The covering graph, built once per base and stored on it; it holds no
    reference back to ``g``, so it goes with it. A lift of more than
    ``budget`` vertices raises SizeError before anything is built or stored,
    so the stored lift does not depend on the budget."""
    size = g.num_vertices * g.ell
    if size > budget:
        raise SizeError(f"lift needs {size} vertices, over budget {budget}")
    return _lift(g)


@memoised_on_graph
def _lift(g: MagneticGraph) -> LiftGraph:
    """The lift, derived from its valid base without validating it again.
    Edge (u, v, w, s) lifts to (u * ell + k, v * ell + (k + s) % ell, w, 0)
    for k = 0..ell-1, in that order, so each lift vertex meets its base
    vertex's weights in the same order and has its base degree, bit for bit,
    and its rows of the oriented-edge table follow those of its base vertex."""
    ell = g.ell
    u, v, w, s = map(np.array, zip(*g.edges))
    k = np.arange(ell)
    lifted = zip((u[:, None] * ell + k).ravel().tolist(),
                 (v[:, None] * ell + (k + s[:, None]) % ell).ravel().tolist(),
                 np.repeat(w, ell).tolist(), repeat(0))
    # tuple.__new__ makes each Edge without NamedTuple's Python-level __new__
    edges = tuple(map(tuple.__new__, repeat(Edge), lifted))
    degrees = np.repeat(g.degrees, ell)
    degrees.flags.writeable = False
    return LiftGraph(ell=ell, graph=MagneticGraph._derived(g.num_vertices * ell, 1, edges, degrees))


@memoised_on_graph
def lift_diameter(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> int | float:
    """Diameter of the lift: the farthest (vertex, level) state of the walk
    BFS on the base with modulus ell, so no lift is built; math.inf if the
    lift is disconnected. Its N * N * ell states are compared with the budget
    before one is walked (SizeError), and an overrun is stored per budget.

    (x, k) -> (x, k + j) is an automorphism of the lift, so every vertex above
    x has the eccentricity of (x, 0), and only level 0 is searched from.
    """
    if (states := g.num_vertices ** 2 * g.ell) > budget:
        raise SizeError(f"lift diameter needs {states} BFS states, over budget {budget}")
    return _farthest_walk(g, g.ell)


def lift_function(g: MagneticGraph, f) -> np.ndarray:
    """Lift embedding: value at (x, k) is exp(2*pi*1j*k/ell) * f(x), for f of
    shape (N,) or a batch (N, B); the result has N * ell rows."""
    vals = as_vertex_function(g, f)
    lifted = np.multiply.outer(vals, np.exp(2j * np.pi * np.arange(g.ell) / g.ell))
    return lifted.swapaxes(1, -1).reshape((-1,) + vals.shape[1:])


@dataclass(frozen=True)
class LiftIdentityReport(Record):
    """Residuals of the base-to-lift transfer identities, checked for every f.

    energy: per-vertex energy form of the lift, pulled back along the lift
    embedding, vs the magnetic energy form at the base vertex; laplacian: lift
    Laplacian composed with the embedding vs the embedding composed with the
    magnetic Laplacian; eigenpair: every eigenpair of the magnetic operator,
    lifted, against the lift operator. Failures are reported, never raised.
    """

    max_energy_residual: float
    max_laplacian_residual: float
    max_eigenpair_residual: float

    @property
    def energy_ok(self) -> bool:
        return self.max_energy_residual <= ENERGY_TOL

    @property
    def laplacian_ok(self) -> bool:
        return self.max_laplacian_residual <= LAPLACIAN_TOL

    @property
    def eigenpair_ok(self) -> bool:
        return self.max_eigenpair_residual <= EIGENPAIR_TOL

    @property
    def all_ok(self) -> bool:
        return self.energy_ok and self.laplacian_ok and self.eigenpair_ok

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "all_ok": self.all_ok}


def verify_lift_identities(g: MagneticGraph) -> LiftIdentityReport:
    """Confirm the transfer identities exactly, row by row on the oriented-edge
    tables of the base and the lift.

    With P the lift embedding as a matrix, L_lift P = P L_base must hold, and
    the lift's energy form at (x, k), pulled back by P, must be the magnetic
    one at x. The rows leaving (x, k) pair in order with the rows leaving x;
    with u = omega^k and v = omega^m on a lift row (x, k) -> (y, m) and its
    base row r, the nonzero entries are coef' v vs u coef[r] (the diagonals
    are -u on both sides) and, in the forms, weight' conj(u) v vs weight[r]
    phase[r], weight' |v|^2 vs weight[r] |phase[r]|^2 and the row sums at
    (x, x). Rows that do not pair make both residuals inf. Entries are at most
    1 in modulus, so differences are held to 1e-12. Every eigenpair of the
    magnetic operator must lift with 2-norm residual <= 1e-9; the eigenvectors
    are lifted and checked a block of columns at a time.
    """
    ell, base, lift = g.ell, g.oriented_edges, build_lift(g).graph.oriented_edges
    level = lift_function(g, np.ones(g.num_vertices))   # omega^k at (x, k)
    u, v = level[lift.src], level[lift.dst]
    counts = np.diff(base.first, append=len(base.src))
    max_lap = max_energy = np.inf
    if np.array_equal(np.diff(lift.first, append=len(u)), np.repeat(counts, ell)):
        r = base.first[lift.src // ell] + np.arange(len(u)) - lift.first[lift.src]
        if np.array_equal(base.dst[r], lift.dst // ell):
            w, p = base.weight[r], base.phase[r]
            max_lap = float(np.abs(lift.coef * v - u * base.coef[r]).max())
            centre = (np.add.reduceat(lift.weight * np.abs(u) ** 2, lift.first)
                      - np.repeat(np.add.reduceat(base.weight, base.first), ell))
            entries = (lift.weight * u.conj() * v - w * p,
                       lift.weight * np.abs(v) ** 2 - w * np.abs(p) ** 2, centre)
            max_energy = float(np.abs(np.concatenate(entries)).max())

    spec = spectrum(g)
    # Every block has two columns or more: numpy sums a lone column pairwise,
    # which rounds differently from the row-by-row sums of a wider block.
    width = max(2, EIGENPAIR_BLOCK // len(lift.src))
    count = max(1, g.num_vertices // width)
    cuts = [g.num_vertices * i // count for i in range(count + 1)]
    norms = []
    for a, b in zip(cuts, cuts[1:]):
        F = lift_function(g, spec.eigenvectors[:, a:b])
        residual = -_apply_laplacian(lift, F) - F * spec.eigenvalues[a:b]
        norms.append(np.linalg.norm(residual, axis=0))
    max_eig = float(np.concatenate(norms).max())

    return LiftIdentityReport(max_energy_residual=max_energy,
                              max_laplacian_residual=max_lap,
                              max_eigenpair_residual=max_eig)
