"""Covering graphs: construction, function lifting, and the transfer checks.

The lift of a magnetic graph lives on pairs (vertex, level); level k stands
for the root of unity exp(2*pi*1j*k/ell) and pair (x, k) gets the flat index
x * ell + k. Edges follow the signature: (x1, k1) ~ (x2, k2) iff x1 ~ x2 and
k2 = k1 + s(x1 -> x2) mod ell, with the base edge weight. Serialized lifts
use this index order, so results are byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import DEFAULT_BUDGET, magnetic_girth
from .errors import PreconditionError, ValidationError
from .graphs import (Edge, MagneticGraph, diameter, is_connected,
                     signature_status)
from .operators import energy, laplacian_matrix, spectrum

__all__ = [
    "LiftGraph",
    "LiftIdentityReport",
    "LiftDiameterResult",
    "build_lift",
    "lift_function",
    "verify_lift_identities",
    "lift_diameter_check",
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


def lift_function(g: MagneticGraph, f) -> np.ndarray:
    """Lift embedding: value at (x, k) is exp(2*pi*1j*k/ell) * f(x)."""
    vals = np.asarray(f, dtype=complex)
    if vals.shape != (g.num_vertices,):
        raise ValidationError(
            f"function length {vals.shape} does not match {g.num_vertices} vertices")
    roots = np.exp(2j * np.pi * np.arange(g.ell) / g.ell)
    return np.kron(vals, roots)


@dataclass(frozen=True)
class LiftIdentityReport:
    """Residuals of the base-to-lift transfer identities over random trials.

    energy: lifted-function energy at (x, k) vs magnetic energy at x;
    laplacian: lift Laplacian of the lifted function vs the phase-twisted
    magnetic Laplacian; eigenpair: every eigenpair of the magnetic operator,
    lifted, against the lift operator. Failures are reported, never raised.
    """

    trials: int
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
        return {
            "trials": self.trials,
            "max_energy_residual": self.max_energy_residual,
            "max_laplacian_residual": self.max_laplacian_residual,
            "max_eigenpair_residual": self.max_eigenpair_residual,
            "all_ok": self.all_ok,
        }


def verify_lift_identities(g: MagneticGraph, trials: int = 100,
                           seed: int | None = 0) -> LiftIdentityReport:
    """Numerically confirm the transfer identities on random functions.

    For `trials` random complex f: the lifted energy must reproduce the
    magnetic energy level-wise (relative 1e-12) and the lift Laplacian must
    act as the phase times the magnetic Laplacian. Additionally every
    eigenpair of the magnetic operator lifts to an eigenpair of the lift
    operator with 2-norm residual <= 1e-9.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    lift = build_lift(g)
    n, ell = g.num_vertices, g.ell
    L_base = laplacian_matrix(g)
    L_lift = laplacian_matrix(lift.graph)
    roots = np.exp(2j * np.pi * np.arange(ell) / ell)

    max_energy = 0.0
    max_lap = 0.0
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fh = lift_function(g, f)
        e_base = energy(g, f)
        e_lift = energy(lift.graph, fh)
        diff = np.abs(e_lift - np.repeat(e_base, ell))
        max_energy = max(max_energy, float(diff.max()) / max(1.0, float(e_base.max())))
        lap_base = L_base @ f
        lap_lift = L_lift @ fh
        expected = np.kron(lap_base, roots)
        denom = max(1.0, float(np.abs(lap_base).max()))
        max_lap = max(max_lap, float(np.abs(lap_lift - expected).max()) / denom)

    max_eig = 0.0
    spec = spectrum(g)
    for i in range(n):
        lam = spec.eigenvalues[i]
        fh = lift_function(g, spec.eigenvectors[:, i])
        resid = np.linalg.norm(-(L_lift @ fh) - lam * fh)
        max_eig = max(max_eig, float(resid))

    return LiftIdentityReport(trials=trials,
                              max_energy_residual=max_energy,
                              max_laplacian_residual=max_lap,
                              max_eigenpair_residual=max_eig)


@dataclass(frozen=True)
class LiftDiameterResult:
    lift_diameter: int
    bound: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {"lift_diameter": self.lift_diameter, "bound": self.bound,
                "passed": self.passed}


def _path_bound_girth(g: MagneticGraph, budget: int) -> int:
    """Magnetic girth, once the hypotheses of the path bounds hold: connected,
    unbalanced, entire signature, finite girth. The first to fail is named in
    PreconditionError; a girth search over budget raises SizeError."""
    if not is_connected(g):
        raise PreconditionError("connected")
    status = signature_status(g)
    if status.balanced:
        raise PreconditionError("unbalanced")
    if not status.entire:
        raise PreconditionError("entire signature")
    girth = magnetic_girth(g, budget=budget)
    if girth == math.inf:
        raise PreconditionError("finite magnetic girth")
    return int(girth)


def lift_diameter_check(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> LiftDiameterResult:
    """Check the covering-diameter estimate: lift diameter <= 2*D + ell*girth.

    Hypotheses (connected, unbalanced, entire signature, finite magnetic
    girth) are enforced; the violated one is named in the PreconditionError.
    """
    girth = _path_bound_girth(g, budget)
    d_lift = diameter(build_lift(g).graph)
    bound = 2 * int(diameter(g)) + g.ell * girth
    return LiftDiameterResult(lift_diameter=int(d_lift), bound=bound,
                              passed=d_lift <= bound)
