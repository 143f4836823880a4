"""Curvature-dimension certificates.

A graph satisfies CD(n, kappa) exactly when, at every vertex x, the Hermitian
matrix

    M_x(n, kappa) = gamma2[x] - (1/n) lap_square[x] - kappa * gamma[x]

is positive semidefinite: the quantifier over all complex vertex functions is
discharged by a PSD test, not by sampling. All three forms vanish outside the
2-ball B2(x), so every test runs on the |B2(x)| x |B2(x)| blocks of
form_family(g), and runs on all blocks of one size at once: each eigensolve
takes one of the (b, k, k) stacks that FormFamily stores, so a graph costs
one call per block size, not one per vertex. The optimal curvature
kappa_max(n) is the per-vertex supremum of feasible kappa, minimized over
vertices, and is computed two independent ways: a reduced generalized
eigenproblem on the range of gamma[x] (the pencil route) and bisection
against the PSD check. The pencil route works in the eigenbasis of
gamma[x], where gamma[x] is diagonal: the reduced pencil (Ar, diag(D)) has
the eigenvalues of the Hermitian D^-1/2 Ar D^-1/2. Each block size takes one
kernel eigensolve and one reduced eigensolve, whatever the kernel dimension
of each block. Witnesses stay on the 2-balls too: nothing here is N x N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .graphs import MagneticGraph
from .operators import _apply_laplacian, as_vertex_function, form_family, gamma, gamma2

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
# Per-vertex suprema within this fraction of max(1, |kappa_max|) of the
# minimum tie for the witness vertex: rounding alone moves them by ulps.
WITNESS_TIE = 1e-12
# kappa_max_bisect: relative bracket width, and doublings before a side gives up.
BISECT_TOL = 1e-9
MAX_DOUBLINGS = 80


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
    g2 = np.real(gamma2(g, vals))
    g1 = np.real(gamma(g, vals))
    lf2 = np.abs(_apply_laplacian(g.oriented_edges, vals)) ** 2
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
    n_vert = g.num_vertices
    mins = np.empty(n_vert)
    cuts = np.empty(n_vert)
    for xs, blk in form_family(g).stacks:
        eigs = np.linalg.eigvalsh(blk.gamma2 - invn * blk.lap_square - kappa * blk.gamma)
        mins[xs] = eigs[:, 0] if blk.support.shape[1] == n_vert else np.minimum(eigs[:, 0], 0.0)
        cuts[xs] = -PSD_TOL * np.maximum(1.0, np.abs(eigs).max(axis=1))
    passed = bool(np.all(mins >= cuts))
    return CDGraphCheck(n=n, kappa=kappa, min_eigenvalues=mins,
                        thresholds=cuts, passed=passed)


@dataclass(frozen=True)
class CurvatureResult:
    """Optimal curvature at dimension n: per-vertex suprema and their witnesses.

    ``witnesses[x]`` is the minimizing function at vertex x (a generalized
    eigenvector of the reduced pencil), or the violating kernel direction when
    per_vertex[x] = -inf, on the 2-ball B2(x): its |B2(x)| values align with
    form_family(g).block(x).support, and the function is zero elsewhere. To
    embed it, f = np.zeros(N, complex); f[support] = witnesses[x].
    ``witness_vertex`` is the lowest vertex whose supremum is within
    WITNESS_TIE * max(1, |kappa_max|) of kappa_max, or the lowest -inf vertex.
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


def _h(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return X.conj().swapaxes(-1, -2)


def _diagonal(X: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix in a C-contiguous stack."""
    return X.reshape(len(X), -1)[:, ::X.shape[-1] + 1]


def _vertex_kappa(A: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sup{kappa : A[i] - kappa G[i] is PSD} and a witness, for each pair of
    a (b, k, k) stack of Hermitian A and PSD G.

    Rotates A[i] into the eigenbasis of G[i] and splits it there with relative
    kernel threshold 1e-10; the d[i] kernel directions come first. On the
    kernel of G the pencil is constant in kappa, so a negative eigenvalue
    there (or a coupling of the range into a null direction of the kernel
    block) means no finite kappa works. Otherwise the kernel block is
    eliminated by a Schur complement, and the supremum is the smallest
    eigenvalue of D^-1/2 Ar D^-1/2, D holding G's eigenvalues on its range.
    Blocks of every d share both eigensolves: the kernel corners are padded
    to the largest d with 2 scale + 1 on the diagonal, above all of their
    own eigenvalues, and the kernel rows of the reduced matrix with twice its
    Gershgorin bound plus 1; a block already found -inf goes through the
    reduced solve too and keeps its kernel witness. Returns (b,) suprema,
    possibly -inf, and (b, k) witnesses.
    """
    scale = np.maximum(1.0, np.abs(np.linalg.eigvalsh(A)).max(axis=1))  # ||A||_2 without an SVD
    gw, V = np.linalg.eigh(G)
    ker = gw <= KERNEL_THRESHOLD * np.maximum(gw[:, -1:], 1e-300)  # a prefix of each row
    if ker[:, -1].any():
        raise NumericalError("first form vanished at a vertex; graph invariant broken")
    At = _h(V) @ A @ V
    wit = np.empty(A.shape[:2], dtype=complex)
    dead = np.zeros(len(A), dtype=bool)
    d = int(ker.sum(axis=1).max())
    if d:
        kd = ker[:, :d]
        corner = At[:, :d, :d] * (kd[:, :, None] & kd[:, None, :])
        _diagonal(corner)[:] += ~kd * (2.0 * scale[:, None] + 1.0)
        mu, Wk = np.linalg.eigh(0.5 * (corner + _h(corner)))
        KW = V[:, :, :d] @ Wk
        neg = mu[:, 0] < -PSD_TOL * scale
        wit[neg] = KW[neg, :, 0]
        B = (At[:, :, :d] @ Wk) * ~ker[:, :, None]  # range rows only
        pos = kd & (mu > KERNEL_THRESHOLD * scale[:, None])
        null_sq = (np.abs(B) ** 2).sum(axis=1) * (kd & ~pos)  # per kernel column
        coupled = ~neg & (np.sqrt(null_sq.sum(axis=1)) > 1e-7 * scale)
        j = null_sq[coupled].argmax(axis=1)
        wit[coupled] = KW[coupled, :, j]
        dead = neg | coupled
        # Schur step on the positive kernel directions; weight 0 on the null ones
        Bw = B * (pos / np.where(pos, mu, 1.0))[:, None, :]
        At = At - Bw @ _h(B)
    s = np.where(ker, 0.0, 1.0 / np.sqrt(np.where(ker, 1.0, gw)))
    C = s[:, :, None] * At * s[:, None, :]
    C = 0.5 * (C + _h(C))
    _diagonal(C)[:] += ker * (2.0 * np.abs(C).sum(axis=2).max(axis=1, keepdims=True) + 1.0)
    try:
        vals, Y = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced pencil eigensolver failed: {exc}") from exc
    vr = (s * Y[:, :, 0])[:, :, None]
    w = V @ vr
    if d:
        # kernel-side component of the null vector eliminated by the Schur step
        w = w - KW @ (_h(Bw) @ vr)
    return (np.where(dead, -math.inf, vals[:, 0]),
            np.where(dead[:, None], wit, w[:, :, 0]))


def kappa_max(g: MagneticGraph, n: float) -> CurvatureResult:
    """Optimal kappa(n) per vertex and graph-wide, by the reduced-pencil route."""
    invn = _inv_n(n)
    per = np.empty(g.num_vertices)
    wits = {}
    for xs, blk in form_family(g).stacks:
        per[xs], local = _vertex_kappa(blk.gamma2 - invn * blk.lap_square, blk.gamma)
        wits.update(zip(xs.tolist(), local))
    kappa = float(per.min())
    tie = 0.0 if kappa == -math.inf else WITNESS_TIE * max(1.0, abs(kappa))
    return CurvatureResult(n=n, per_vertex=per, kappa_max=kappa,
                           witness_vertex=int(np.argmax(per <= kappa + tie)),
                           witnesses=tuple(wits[x] for x in range(len(per))))


def kappa_max_bisect(g: MagneticGraph, n: float) -> float:
    """Graph-wide optimal kappa by bisection with cd_check_graph as the oracle.

    Independent of the pencil route. It is never below the pencil's kappa,
    which passes the check; the two agree to ~1e-6 when gamma[x] is well
    conditioned. With badly scaled weights the PSD tolerance absorbs
    directions on which gamma[x] is tiny, and the bisection can sit higher.
    """

    def ok(k: float) -> bool:
        return cd_check_graph(g, n, k).passed

    hi = 1.0
    for _ in range(MAX_DOUBLINGS):
        if not ok(hi):
            break
        hi *= 2.0
    else:
        raise NumericalError("no failing kappa found; pencil should be +inf")
    lo = -1.0
    for _ in range(MAX_DOUBLINGS):
        if ok(lo):
            break
        lo *= 2.0
    else:
        return -math.inf
    while hi - lo > BISECT_TOL * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
