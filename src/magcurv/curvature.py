"""Curvature-dimension certificates.

A graph satisfies CD(n, kappa) exactly when, at every vertex x, the Hermitian
matrix

    M_x(n, kappa) = gamma2[x] - (1/n) lap_square[x] - kappa * gamma[x]

is positive semidefinite: the quantifier over all complex vertex functions is
discharged by a PSD test, not by sampling. All three forms vanish outside the
2-ball B2(x), so every test runs on the |B2(x)| x |B2(x)| blocks of
form_family(g). The optimal curvature kappa_max(n) is the per-vertex supremum
of feasible kappa, minimized over vertices, and is computed two independent
ways: a reduced generalized eigenproblem on the range of gamma[x] (the pencil
route) and bisection against the PSD check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalError
from .graphs import MagneticGraph
from .operators import (as_vertex_function, form_family, gamma, gamma2,
                        laplacian_matrix)

__all__ = [
    "PSD_TOL",
    "CurvatureResult",
    "CDFunctionCheck",
    "CDGraphCheck",
    "cd_check_function",
    "cd_check_graph",
    "kappa_max",
    "kappa_max_bisect",
]

PSD_TOL = 1e-9
KERNEL_THRESHOLD = 1e-10
SLACK_TOL = 1e-9


def _inv_n(n: float) -> float:
    """Validate the dimension parameter; n = inf drops the 1/n term."""
    if n == math.inf:
        return 0.0
    if not (isinstance(n, (int, float)) and n > 1):
        raise DimensionError(f"dimension parameter must satisfy n > 1 (or inf), got {n!r}")
    return 1.0 / float(n)


@dataclass(frozen=True)
class CDFunctionCheck:
    """Pointwise CD check for one function (or a batch): slack per vertex."""

    n: float
    kappa: float
    slack: np.ndarray      # (N,) or (N, B) real
    passed: np.ndarray     # same shape, bool

    @property
    def all_passed(self) -> bool:
        return bool(self.passed.all())


def cd_check_function(g: MagneticGraph, f, n: float, kappa: float) -> CDFunctionCheck:
    """Does this particular f satisfy CD(n, kappa) at every vertex?

    slack(x) = gamma2(f)(x) - (1/n)|Lf(x)|^2 - kappa * gamma(f)(x); a vertex
    passes when slack >= -1e-9 * scale, scale being the magnitude of the three
    terms. Accepts a single function of shape (N,) or a batch (N, B).
    """
    invn = _inv_n(n)
    vals = as_vertex_function(g, f)
    L = laplacian_matrix(g)
    g2 = np.real(gamma2(g, vals))
    g1 = np.real(gamma(g, vals))
    lf2 = np.abs(L @ vals) ** 2
    slack = g2 - invn * lf2 - kappa * g1
    scale = np.maximum(1.0, np.abs(g2) + invn * lf2 + abs(kappa) * g1)
    passed = slack >= -SLACK_TOL * scale
    return CDFunctionCheck(n=n, kappa=kappa, slack=slack, passed=passed)


@dataclass(frozen=True)
class CDGraphCheck:
    """Graph-wide CD certificate: per-vertex minimum eigenvalue of M_x(n, kappa)."""

    n: float
    kappa: float
    min_eigenvalues: np.ndarray   # (N,) real
    thresholds: np.ndarray        # (N,) real, PSD acceptance cutoffs (negative)
    passed: bool


def cd_check_graph(g: MagneticGraph, n: float, kappa: float) -> CDGraphCheck:
    """Exact graph-wide CD(n, kappa) decision via per-vertex PSD tests.

    A Hermitian matrix is accepted as PSD when its minimum eigenvalue is
    >= -1e-9 * max(1, spectral norm). The test runs on the 2-ball block; the
    N x N matrix pads it with zeros, so where the 2-ball misses a vertex its
    minimum eigenvalue is min(block minimum, 0).
    """
    invn = _inv_n(n)
    forms = form_family(g)
    n_vert = g.num_vertices
    mins = np.empty(n_vert)
    cuts = np.empty(n_vert)
    for x in range(n_vert):
        blk = forms.block(x)
        eigs = np.linalg.eigvalsh(blk.gamma2 - invn * blk.lap_square - kappa * blk.gamma)
        mins[x] = eigs[0] if len(blk.support) == n_vert else min(eigs[0], 0.0)
        cuts[x] = -PSD_TOL * max(1.0, float(np.abs(eigs).max()))
    passed = bool(np.all(mins >= cuts))
    return CDGraphCheck(n=n, kappa=kappa, min_eigenvalues=mins,
                        thresholds=cuts, passed=passed)


@dataclass(frozen=True)
class CurvatureResult:
    """Optimal curvature at dimension n: per-vertex suprema and their witnesses.

    ``witnesses[x]`` is the minimizing function at vertex x (a generalized
    eigenvector of the reduced pencil), or the violating kernel direction when
    per_vertex[x] = -inf; it has length N and is zero outside B2(x).
    """

    n: float
    per_vertex: np.ndarray          # (N,) real, possibly -inf
    kappa_max: float
    witness_vertex: int
    witnesses: tuple[np.ndarray, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "kappa_max": self.kappa_max,
            "per_vertex": [float(v) for v in self.per_vertex],
            "witness_vertex": self.witness_vertex,
        }


def _vertex_kappa(A: np.ndarray, G: np.ndarray) -> tuple[float, np.ndarray]:
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


def kappa_max(g: MagneticGraph, n: float) -> CurvatureResult:
    """Optimal kappa(n) per vertex and graph-wide, by the reduced-pencil route."""
    invn = _inv_n(n)
    forms = form_family(g)
    per = np.empty(g.num_vertices)
    wits = []
    for x in range(g.num_vertices):
        blk = forms.block(x)
        per[x], local = _vertex_kappa(blk.gamma2 - invn * blk.lap_square, blk.gamma)
        wit = np.zeros(g.num_vertices, dtype=complex)
        wit[blk.support] = local
        wits.append(wit)
    argmin = int(np.argmin(per))
    return CurvatureResult(n=n, per_vertex=per,
                           kappa_max=float(per[argmin]), witness_vertex=argmin,
                           witnesses=tuple(wits))


def kappa_max_bisect(g: MagneticGraph, n: float, tol: float = 1e-9,
                     max_doublings: int = 80) -> float:
    """Graph-wide optimal kappa by bisection with cd_check_graph as the oracle.

    Independent of the pencil route. It is never below the pencil's kappa,
    which passes the check; the two agree to ~1e-6 when gamma[x] is well
    conditioned. With badly scaled weights the PSD tolerance absorbs
    directions on which gamma[x] is tiny, and the bisection can sit higher.
    """

    def ok(k: float) -> bool:
        return cd_check_graph(g, n, k).passed

    hi = 1.0
    for _ in range(max_doublings):
        if not ok(hi):
            break
        hi *= 2.0
    else:
        raise NumericalError("no failing kappa found; pencil should be +inf")
    lo = -1.0
    for _ in range(max_doublings):
        if ok(lo):
            break
        lo *= 2.0
    else:
        return -math.inf
    while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
