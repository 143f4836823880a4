"""Covering graphs: construction, function lifting, the lift diameter and the
exact transfer checks. The covering-diameter estimate, with the hypotheses of
the path bounds, is bounds.lift_diameter_check.

The lift of a magnetic graph lives on pairs (vertex, level); level k stands
for the root of unity exp(2*pi*1j*k/ell) and pair (x, k) gets the flat index
x * ell + k. Edges follow the signature: (x1, k1) ~ (x2, k2) iff x1 ~ x2 and
k2 = k1 + s(x1 -> x2) mod ell, with the base edge weight. Serialized lifts
use this index order, so results are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import Edge, MagneticGraph, Record, _farthest_walk, memoised_on_graph
from .operators import _differences, laplacian_matrix, spectrum

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


@dataclass(frozen=True)
class LiftGraph:
    """Plain weighted graph on num_vertices * ell vertices, index (x, k) -> x*ell + k."""

    base: MagneticGraph
    graph: MagneticGraph   # ell = 1, every exponent 0

    def vertex_index(self, x: int, k: int) -> int:
        return x * self.base.ell + k

    def vertex_label(self, i: int) -> tuple[int, int]:
        return divmod(i, self.base.ell)


def build_lift(g: MagneticGraph) -> LiftGraph:
    """Construct the covering graph; every lift vertex inherits its base degree."""
    ell = g.ell
    edges = []
    for e in g.edges:
        for k in range(ell):
            edges.append(Edge(e.u * ell + k, e.v * ell + (k + e.s) % ell, e.w, 0))
    lifted = MagneticGraph(num_vertices=g.num_vertices * ell, ell=1, edges=tuple(edges))
    return LiftGraph(base=g, graph=lifted)


@memoised_on_graph
def lift_diameter(g: MagneticGraph) -> int | float:
    """Diameter of the lift: the farthest (vertex, level) state of the walk
    BFS on the base with modulus ell, so no lift is built; math.inf if the
    lift is disconnected.

    (x, k) -> (x, k + j) is an automorphism of the lift, so every vertex above
    x has the eccentricity of (x, 0), and only level 0 is searched from.
    """
    return _farthest_walk(g, g.ell)


def lift_function(g: MagneticGraph, f) -> np.ndarray:
    """Lift embedding: value at (x, k) is exp(2*pi*1j*k/ell) * f(x)."""
    vals = np.asarray(f, dtype=complex)
    if vals.shape != (g.num_vertices,):
        raise ValidationError(
            f"function length {vals.shape} does not match {g.num_vertices} vertices")
    roots = np.exp(2j * np.pi * np.arange(g.ell) / g.ell)
    return np.kron(vals, roots)


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


def _energy_forms(g: MagneticGraph, P: np.ndarray):
    """Per vertex v, the Hermitian form of f -> energy(g, P f)[v]:
    sum_r weight[r] (T P)_r^H (T P)_r over the rows leaving v."""
    oe = g.oriented_edges
    rows = oe.first[1:]
    for A, w in zip(np.split(_differences(oe, P), rows), np.split(oe.weight, rows)):
        yield (A.conj().T * w) @ A


def verify_lift_identities(g: MagneticGraph) -> LiftIdentityReport:
    """Confirm the transfer identities exactly, as matrix identities.

    With P the lift embedding as a matrix, the lift Laplacian must satisfy
    L_lift P = P L_base, and the energy form of the lift at (x, k), pulled
    back by P, must equal the magnetic energy form at x; each then holds for
    every complex f. Entries of both sides are at most 1 in modulus, so the
    largest entrywise difference is held to 1e-12. Additionally every
    eigenpair of the magnetic operator lifts to an eigenpair of the lift
    operator with 2-norm residual <= 1e-9.
    """
    lift = build_lift(g)
    n, ell = g.num_vertices, g.ell
    L_lift = laplacian_matrix(lift.graph)
    roots = np.exp(2j * np.pi * np.arange(ell) / ell)
    P = np.kron(np.eye(n), roots[:, None])   # lift_function as a matrix
    max_lap = float(np.abs(L_lift @ P - P @ laplacian_matrix(g)).max())
    lifted = _energy_forms(lift.graph, P)   # (x, k) in index order x * ell + k
    max_energy = max(float(np.abs(next(lifted) - F).max())
                     for F in _energy_forms(g, np.eye(n)) for _ in range(ell))

    spec = spectrum(g)
    F = P @ spec.eigenvectors   # column i is lift_function of eigenvector i
    max_eig = float(np.linalg.norm(-(L_lift @ F) - F * spec.eigenvalues, axis=0).max())

    return LiftIdentityReport(max_energy_residual=max_energy,
                              max_laplacian_residual=max_lap,
                              max_eigenpair_residual=max_eig)
