"""Curvature-dimension certificates, decided on each vertex's 1-ball.

A graph satisfies CD(n, kappa) exactly when, at every vertex x, the Hermitian
form

    M_x(n, kappa)(f) = gamma2(f)(x) - (1/n) |Lf(x)|^2 - kappa * gamma(f)(x)

is positive semidefinite in f: the quantifier over all complex vertex
functions is discharged by a PSD test, not by sampling. M_x reads f on the
2-ball B2(x) only, and it reduces exactly to a deg(x) x deg(x) matrix that
does not depend on n or kappa (Cushing, Kamtue, Liu, Muench, Peyerimhoff and
Snodgrass, "Bakry-Emery curvature on graphs as an eigenvalue problem", Calc.
Var. PDE 61, 2022; the signature adds one scalar):

- f on S2(x) = B2(x) \\ B1(x) enters gamma2 alone, through a diagonal block,
  so it is eliminated by an exact Schur complement: the best value at z is
  l_z / D_z, where l_z collects the two-step walks x -> y -> z.
- In the difference coordinates g_0 = f(x), g_y = sigma_xy f(y) - f(x), gamma
  is 0 + diag(a_y / 2) with a_y = w_xy / d_x, and |Lf(x)|^2 = |sum_y a_y g_y|^2.
- g_0 leaves one scalar, the value of 2 gamma2 along it. It is 0 exactly when
  the edges at S1(x) are balanced, which the integer exponents decide; the
  direction is then a kernel vector of every form. Otherwise it is positive
  and g_0 is eliminated by a Schur complement.

Scaled by diag(a)^(-1/2), this leaves kappa_x(n) = lambda_min(R_x - (1/n) u u^H)
with u_y = sqrt(2 a_y), so |u|^2 = 2. Every kappa_x is finite. R_x is
assembled once per graph from the oriented-edge table, over the rows x -> y
and the pairs of rows x -> y -> z, as a sum of weighted squares of
differences of unit phases, so a holonomy that the exponents make trivial
contributes an exact 0. The Schur step, the scaling and the Hermitian part
are taken once on one flat buffer of every block; each degree's stack is a
view of it, and nothing here is N x N. kappa_max is stored per (graph, n);
every certificate reads it. Its witnesses, the minimisers mapped back to the
2-balls, are built when first read.
Badly scaled weights take two guarded steps: g_0 eliminated pair by pair
where the Schur step would cancel digits, and lambda_min refined by a
Cholesky bisection where R_x is graded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError
from .graphs import MagneticGraph, OrientedEdges, _vertex, memoised_on_graph
from .operators import _apply_laplacian, as_vertex_function, gamma, gamma2

__all__ = [
    "PSD_TOL",
    "CurvatureResult",
    "CDFunctionCheck",
    "CDGraphCheck",
    "cd_check_function",
    "cd_check_graph",
    "kappa_max",
]

PSD_TOL = 1e-9
SLACK_TOL = 1e-9
# Per-vertex suprema within this fraction of max(1, |kappa_max|) of the
# minimum tie for the witness vertex: rounding alone moves them by ulps.
WITNESS_TIE = 1e-12
# Ratio of scales past which float work loses digits that matter: the
# twisted terms of a row against its a_y (then g_0 is eliminated pair by
# pair), and ||A|| against max(1, |lambda_min(A)|) (then kappa_max refines
# lambda_min from a bracket of GRADED_STEP * the largest absolute row sum).
GRADED = 100.0
GRADED_STEP = 1e-13
# Most pairs of twisted terms one vertex may take, which bounds the memory
# of dense, badly scaled graphs; past it the vertex keeps the Schur step.
PAIR_LIMIT = 2048


def _inv_n(n: float) -> float:
    """Validate the dimension parameter; n = inf drops the 1/n term."""
    if n == math.inf:
        return 0.0
    if not (isinstance(n, (int, float)) and n > 1):
        raise DimensionError(f"dimension parameter must satisfy n > 1 (or inf), got {n!r}")
    return 1.0 / float(n)


def _not_nan(name: str, value: float) -> float:
    """value itself; a NaN is rejected, +-inf kept."""
    if math.isnan(value):
        raise ValidationError(f"{name} must be a number, got nan")
    return value


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
    terms, capped at the largest float. The kappa term is 0 where gamma(f)(x)
    is, so an infinite kappa fails (+inf) or passes (-inf) only where f varies.
    Accepts a single function (N,) or a batch (N, B); a NaN kappa is rejected.
    """
    invn, kappa = _inv_n(n), _not_nan("kappa", kappa)
    vals = as_vertex_function(g, f)
    g2 = np.real(gamma2(g, vals))
    g1 = np.real(gamma(g, vals))
    lf2 = np.abs(_apply_laplacian(g.oriented_edges, vals)) ** 2
    kg1 = np.multiply(kappa, g1, out=np.zeros_like(g1), where=g1 != 0)
    slack = g2 - invn * lf2 - kg1
    scale = np.clip(np.abs(g2) + invn * lf2 + np.abs(kg1), 1.0, np.finfo(float).max)
    passed = slack >= -SLACK_TOL * scale
    return CDFunctionCheck(n=n, kappa=kappa, slack=slack, passed=passed)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with j in range(lo[i], hi[i]), ordered by i, then j."""
    count = hi - lo
    i = np.repeat(np.arange(len(lo)), count)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + lo[i]


def _pieces(values: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """``values`` cut into consecutive views of the given sizes, as np.split
    cuts it, without its per-piece overhead."""
    ends = np.cumsum(sizes).tolist()
    return tuple(values[a:b] for a, b in zip([0, *ends], ends))


def _sums(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """np.bincount for complex values."""
    return (np.bincount(index, values.real, size)
            + 1j * np.bincount(index, values.imag, size))


class OneBall(NamedTuple):
    """The reduced CD problem of every vertex, and the map from its minimisers
    back to functions on the 2-balls.

    ``stacks`` holds one (xs, R, u) per degree d, ascending: the vertices xs
    of degree d, ascending, and their (b, d, d) matrices R_x and (b, d)
    vectors u_x; row i belongs to xs[i], and index j to the j-th row of the
    oriented-edge table leaving it. A vector h on those rows has difference
    coordinates g_y = h_y / sqrt(a_y) and g_0 = sum_y elim[y] g_y. Each pair
    of rows x -> y -> z with z in S2(x), y being the end of row ``via``,
    adds ``spread`` * (2 g_y + g_0) to the value at z, which is entry
    ``target`` of one array over the pairs (x, z); ``pairs`` lists them, as
    x * N + z, ascending. The arrays are read-only.
    """

    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    elim: np.ndarray      # (R,) complex
    via: np.ndarray       # (P,) int
    target: np.ndarray    # (P,) int
    spread: np.ndarray    # (P,) complex
    pairs: np.ndarray     # (G,) int


@memoised_on_graph
def _one_ball(g: MagneticGraph) -> OneBall:
    """Assemble R_x, u_x and the extension to S2(x) of every vertex x.

    With a the weight of a row x -> y and b that of a row y -> z, 2 gamma2(f)(x)
    minimised over f on S2(x) is, in the difference coordinates,

        sum_y (2 a_y b_yx - a_y) |g_y|^2 + |sum_y a_y g_y|^2
        + sum over y ~ z in S1(x):  a_y b_yz |tau (g_z + g_0) - 2 g_y - g_0|^2 / 2
        + sum over z in S2(x) and y < y' ~ z:
              c c' |pi (2 g_y + g_0) - pi' (2 g_y' + g_0)|^2 / (2 D_z).

    tau = sigma_xy sigma_yz conj(sigma_xz) is the holonomy of the triangle,
    c = a_y b_yz, D_z is the sum of c over y ~ z, and pi = conj(sigma_xy
    sigma_yz); the minimising f(z) is l_z / D_z with l_z the sum of
    c pi (2 g_y + g_0). A squared term is twisted when its g_0 coefficient is
    not 0, which the exponents decide. The terms are scattered as rank-one
    matrices into one flat buffer of every block, laid out by degree, and
    g_0 is eliminated by a Schur step on the sums
    zero[x] |g_0|^2 + 2 Re(conj(g_0) row0 . g) of the twisted ones. Where
    their weight on a row y exceeds GRADED * a_y, that step would cancel
    them down to a few digits, so the vertex takes instead the form
    Lagrange's identity gives, the sum over pairs i < j of its twisted terms
    of h_i h_j |t0_i (t_j . g) - t0_j (t_i . g)|^2 / zero[x], if they make
    at most PAIR_LIMIT pairs; the pairs are built only where some vertex
    takes them. The Schur step, the scaling by diag(a)^(-1/2) and the
    Hermitian part are taken once on the flat buffer, each entry reading
    its row, its column and its transpose, and every degree's stack is a
    view of it.
    """
    n, ell = g.num_vertices, g.ell
    edges = g.oriented_edges
    src, dst, a, s = edges.src, edges.dst, edges.weight, edges.exponent
    rows = len(src)
    starts = np.append(edges.first, rows)
    deg = np.diff(starts)
    local = np.arange(rows) - edges.first[src]
    area = deg ** 2
    by_deg = np.argsort(deg, kind="stable")
    block_start = np.empty_like(area)
    block_start[by_deg] = np.cumsum(area[by_deg]) - area[by_deg]
    row_start = block_start[src] + local * deg[src]

    def flat(r, r2):
        """Entry (local[r], local[r2]) of the block of their common source."""
        return row_start[r] + local[r2]

    # the pairs of rows r1 = x -> y, r2 = y -> z, and r3 = x -> z where z ~ x
    r1, r2 = _ranges(starts[dst], starts[dst + 1])
    x, z = src[r1], dst[r2]
    key = src * n + dst
    by_key = np.argsort(key)
    r3 = by_key[np.minimum(np.searchsorted(key, x * n + z, sorter=by_key), rows - 1)]
    back = z == x
    tri = ~back & (key[r3] == x * n + z)
    c = a[r1] * a[r2]

    far = np.flatnonzero(~back & ~tri)
    far = far[np.argsort(x[far] * n + z[far], kind="stable")]
    pair_key = x[far] * n + z[far]
    new = np.diff(pair_key, prepend=-1) != 0
    target = np.cumsum(new) - 1
    group_end = np.append(np.flatnonzero(new)[1:], len(far))
    D = np.bincount(target, c[far])
    k, m = _ranges(np.arange(len(far)) + 1, group_end[target])
    via, exp = r1[far], -(s[r1] + s[r2])[far] % ell
    pi = np.exp(2j * np.pi * exp / ell)

    # the squared terms h |tp g_p + tq g_q + t0 g_0|^2 at vertex w
    e = (s[r1] + s[r2] - s[r3])[tri] % ell
    tau = np.exp(2j * np.pi * e / ell)
    w, p, q, h, tp, tq, t0, twist = (np.concatenate(pair) for pair in zip(
        (x[tri], r1[tri], r3[tri], 0.5 * c[tri], np.full(len(e), -2.0 + 0j), tau,
         tau - 1.0, e != 0),
        (x[far][k], via[k], via[m], c[far][k] * c[far][m] / (2.0 * D[target[k]]),
         2.0 * pi[k], -2.0 * pi[m], pi[k] - pi[m], exp[k] != exp[m])))
    zero = np.bincount(w, h * np.abs(t0) ** 2, n)
    load = np.bincount(np.concatenate((p, q)), np.concatenate(
        (h * np.abs(tp) ** 2, h * np.abs(tq) ** 2)) * np.tile(twist, 2), rows) / a
    twists = np.bincount(w, twist, n)
    paired = (np.bincount(src, load > GRADED, n) > 0) & (twists * (twists - 1) <= 2 * PAIR_LIMIT)

    def squares(weight, coords, coefs):
        """Entries of sum weight |sum_k coefs[k] g_coords[k]|^2. Coefficients
        of one coordinate are added first, so that they cancel exactly."""
        coefs = list(coefs)
        for u in range(len(coords)):
            for v in range(u + 1, len(coords)):
                same = coords[u] == coords[v]
                coefs[u], coefs[v] = coefs[u] + np.where(same, coefs[v], 0.0), coefs[v] * ~same
        return [(flat(ca, cb), weight * sa.conj() * sb)
                for ca, sa in zip(coords, coefs) for cb, sb in zip(coords, coefs)]

    diag = np.concatenate((np.arange(rows), r1[back]))
    entries = [(flat(diag, diag), np.concatenate((-a, 2.0 * c[back])).astype(complex))]
    if paired.any():
        lagrange = twist & paired[w]
        tw = np.flatnonzero(lagrange)
        tw = tw[np.argsort(w[tw], kind="stable")]
        i, j = (tw[v] for v in _ranges(np.arange(len(tw)) + 1,
                                          np.searchsorted(w[tw], w[tw], side="right")))
        plain = ~lagrange
        entries += (squares(h[plain], (p[plain], q[plain]), (tp[plain], tq[plain]))
                    + squares(h[i] * h[j] / zero[w[i]], (p[j], q[j], p[i], q[i]),
                              (t0[i] * tp[j], t0[i] * tq[j], -t0[j] * tp[i], -t0[j] * tq[i])))
    else:
        entries += squares(h, (p, q), (tp, tq))
    P = _sums(*map(np.concatenate, zip(*entries)), int(area.sum()))
    # the minimising g_0 = sum_y elim[y] g_y
    row0 = _sums(np.concatenate((p, q)), np.concatenate((h * t0.conj() * tp, h * t0.conj() * tq)),
                 rows)
    twisted = twists > 0
    elim = np.where(twisted[src], -row0 / np.where(twisted, zero, 1.0)[src], 0.0)
    schur = np.where(paired[src], 0.0, elim)

    # the rows in block order, and the rows (ri, ci) of each entry of P
    in_blocks = np.argsort(deg[src], kind="stable")
    at, ci = _ranges(starts[src[in_blocks]], starts[src[in_blocks] + 1])
    ri = in_blocks[at]
    root = np.sqrt(a)
    outer = root[ri] * root[ci]
    # the Schur step on g_0 where it was not taken pair by pair, the scaling,
    # and the Hermitian part, which reads each entry's transpose
    R = (P + row0[ri].conj() * schur[ci]) / outer + outer
    R = 0.5 * (R + R[flat(ci, ri)].conj())
    u = np.sqrt(2.0) * root[in_blocks]
    spread = c[far] * pi / D[target]
    pairs = pair_key[new]
    for arr in (R, u, by_deg, elim, via, target, spread, pairs):
        arr.flags.writeable = False
    counts = np.bincount(deg)
    degrees = np.flatnonzero(counts)
    counts = counts[degrees]
    stacks = tuple((xs, Rd.reshape(-1, d, d), ud.reshape(-1, d)) for d, xs, Rd, ud in zip(
        degrees.tolist(), _pieces(by_deg, counts), _pieces(R, counts * degrees ** 2),
        _pieces(u, counts * degrees)))
    return OneBall(stacks=stacks, elim=elim, via=via, target=target, spread=spread, pairs=pairs)


@dataclass(frozen=True)
class CDGraphCheck:
    """Graph-wide CD certificate: per vertex, the smallest eigenvalue of the
    reduced matrix R_x - (1/n) u_x u_x^H - kappa I, and the cut it is held to."""

    n: float
    kappa: float
    min_eigenvalues: np.ndarray   # (N,) real
    thresholds: np.ndarray        # (N,) real, -1e-9 * max(1, |kappa|)
    passed: bool


def cd_check_graph(g: MagneticGraph, n: float, kappa: float) -> CDGraphCheck:
    """Graph-wide CD(n, kappa) decision, read from the stored kappa_max(g, n).

    M_x(n, kappa) is PSD exactly when kappa_x(n) - kappa, the least eigenvalue
    of its reduced matrix, is >= 0; it is accepted down to -1e-9 max(1, |kappa|).
    An infinite kappa takes the cut of the largest float, so -inf passes and
    +inf fails; a NaN kappa is rejected.
    """
    mins = kappa_max(g, n).per_vertex - _not_nan("kappa", kappa)
    cut = PSD_TOL * min(max(1.0, abs(kappa)), np.finfo(float).max)
    return CDGraphCheck(n=n, kappa=kappa, min_eigenvalues=mins,
                        thresholds=np.full(g.num_vertices, -cut),
                        passed=bool(np.all(mins >= -cut)))


@dataclass(frozen=True)
class CurvatureResult:
    """Optimal curvature at dimension n: per-vertex suprema and their witnesses.

    ``witnesses[x]`` is a minimising function at vertex x on its 2-ball: its
    values align with ``supports[x]``, the vertices of B2(x) in ascending
    order, and it is zero elsewhere; ``witness(x)`` embeds it in all N
    vertices. Both are computed on first read, from the minimising
    eigenvectors and the reduction, which hold no reference to the graph,
    and are read-only. ``witness_vertex`` is the lowest vertex whose
    supremum is within WITNESS_TIE * max(1, |kappa_max|) of kappa_max.
    """

    n: float
    per_vertex: np.ndarray          # (N,) real
    kappa_max: float
    witness_vertex: int
    _minimisers: np.ndarray = field(repr=False, compare=False)   # (R,) complex, per row
    _ball: OneBall = field(repr=False, compare=False)
    _edges: OrientedEdges = field(repr=False, compare=False)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The order that sorts the values at the vertices, at the row ends
        and at the pairs (x, z), concatenated, into the supports B2(x)."""
        n, edges, pairs = len(self.per_vertex), self._edges, self._ball.pairs
        ends = np.concatenate((np.arange(n) * (n + 1), edges.src * n + edges.dst, pairs))
        order = np.argsort(ends)
        deg = np.diff(edges.first, append=len(edges.src))
        sizes = 1 + deg + np.bincount(pairs // n, minlength=n)
        sorted_ends = ends[order] % n
        sorted_ends.flags.writeable = False
        return order, _pieces(sorted_ends, sizes)

    @property
    def supports(self) -> tuple[np.ndarray, ...]:
        return self._layout[1]

    @cached_property
    def witnesses(self) -> tuple[np.ndarray, ...]:
        ball, edges = self._ball, self._edges
        gy = self._minimisers / np.sqrt(edges.weight)
        g0 = np.add.reduceat(ball.elim * gy, edges.first)
        at_z = _sums(ball.target, ball.spread * (2.0 * gy[ball.via] + g0[edges.src[ball.via]]),
                     len(ball.pairs))
        order, supports = self._layout
        values = np.concatenate((g0, edges.phase.conj() * (gy + g0[edges.src]), at_z))[order]
        values.flags.writeable = False
        return _pieces(values, [len(sup) for sup in supports])

    def witness(self, x: int) -> np.ndarray:
        """Vertex x's witness as a function on all N vertices (ValidationError if x is none)."""
        f = np.zeros(len(self.per_vertex), dtype=complex)
        x = _vertex(len(f), x)
        f[self.supports[x]] = self.witnesses[x]
        return f

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "kappa_max": self.kappa_max,
            "per_vertex": [float(v) for v in self.per_vertex],
            "witness_vertex": self.witness_vertex,
        }


def _positive_definite(A: np.ndarray) -> bool:
    """Does the Cholesky factorisation of Hermitian A succeed? It decides
    definiteness accurately even where the diagonal of A spans many orders of
    magnitude, since its rounding errors do not grow under diagonal scaling."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _graded_minimum(A: np.ndarray, lam: float, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda_min(A) and its eigenvector where eigh's absolute error, about
    eps * ||A||, is large against lambda_min: bisection on _positive_definite
    from eigh's lam to the last float below which A - kappa I is definite,
    then up to two steps of inverse iteration from eigh's vector."""
    eye = np.eye(len(A))
    step = GRADED_STEP * np.abs(A).sum(axis=1).max()
    lo, hi = lam - step, lam + step
    while not _positive_definite(A - lo * eye):
        lo -= step
        step *= 2.0
    while _positive_definite(A - hi * eye):
        hi += step
        step *= 2.0
    while hi - lo > 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _positive_definite(A - mid * eye) else (lo, mid)
    for _ in range(2):
        try:
            vec = np.linalg.solve(A - lo * eye, vec)
        except np.linalg.LinAlgError:   # lo is an eigenvalue to working precision
            break
        vec /= np.linalg.norm(vec)
    return lo, vec


@memoised_on_graph
def kappa_max(g: MagneticGraph, n: float) -> CurvatureResult:
    """Optimal kappa(n) per vertex, lambda_min(R_x - (1/n) u_x u_x^H), and
    graph-wide; the witnesses map the minimising eigenvectors back to the
    2-balls when first read. Stored per (g, n), with n as a float, so n = 2
    and n = 2.0 share it.

    Where ||R_x|| exceeds 100 max(1, |kappa_x|), as badly scaled weights make
    it, eigh's answer is refined by _graded_minimum.
    """
    invn = _inv_n(n)
    ball = _one_ball(g)
    edges = g.oriented_edges
    per = np.empty(g.num_vertices)
    h = np.empty(len(edges.src), dtype=complex)
    for xs, R, u in ball.stacks:
        A = R - invn * u[:, :, None] * u.conj()[:, None, :]
        vals, vecs = np.linalg.eigh(A)
        low, vec = vals[:, 0], vecs[:, :, 0]
        for i in np.flatnonzero(np.abs(vals).max(axis=1) > GRADED * np.maximum(1.0, np.abs(low))):
            low[i], vec[i] = _graded_minimum(A[i], low[i], vec[i])
        per[xs] = low
        h[edges.first[xs, None] + np.arange(R.shape[1])] = vec
    kappa = float(per.min())
    per.flags.writeable = h.flags.writeable = False
    return CurvatureResult(
        n=float(n), per_vertex=per, kappa_max=kappa,
        witness_vertex=int(np.argmax(per <= kappa + WITNESS_TIE * max(1.0, abs(kappa)))),
        _minimisers=h, _ball=ball, _edges=edges)
