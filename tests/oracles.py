"""Reference implementations that the package's fast routes are checked against:
dense or 2-ball curvature forms, exact PSD decisions, and exhaustive searches."""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.linalg

from magcurv import curvature
from magcurv.curvature import (GRADED, PSD_TOL, CDGraphCheck, _graded_minimum, _inv_n, _one_ball,
                               _pieces, _positive_definite, _ranges, _sums)
from magcurv.errors import NumericalError, SizeError
from magcurv.graphs import MagneticGraph, OrientedEdges, SignatureStatus, memoised_on_graph
from magcurv.lift import LiftIdentityReport, build_lift
from magcurv.operators import _differences, laplacian_matrix, spectrum

HERMITIZE_GUARD = 1e-12
KERNEL_THRESHOLD = 1e-10
# kappa_max_bisect: relative bracket width, and doublings before a side gives up.
BISECT_TOL = 1e-9
MAX_DOUBLINGS = 80


def oriented_edges_reference(g) -> OrientedEdges:
    """The oriented-edge table built row by row from ``neighbors``, with each
    entry computed in Python scalars: ``coef`` is w * sigma_xy / d_x in
    CPython's float * complex and complex / float arithmetic."""
    n, d = g.num_vertices, g.degrees
    xs, ys, ws, ss = zip(*[(x, y, w, s) for x in range(n) for y, w, s in g.neighbors(x)])
    ps = [g.phase(s) for s in ss]
    src = np.array(xs)
    return OrientedEdges(src=src, dst=np.array(ys), first=np.searchsorted(src, np.arange(n)),
                         weight=np.array([w / d[x] for x, w in zip(xs, ws)]),
                         phase=np.array(ps),
                         coef=np.array([w * p / d[x] for x, w, p in zip(xs, ws, ps)]),
                         exponent=np.array(ss))


def dense_rows(g, x):
    """The rows x -> y of the oriented-edge table as dense vectors, built from
    the graph: T[i] = sigma_xy e_y - e_x and W[i] = p_xy / d_x for the i-th
    neighbour y of x."""
    nbrs = g.neighbors(x)
    T = np.zeros((len(nbrs), g.num_vertices), dtype=complex)
    for i, (y, _, s) in enumerate(nbrs):
        T[i, y] = g.phase(s)
        T[i, x] = -1.0
    W = np.array([w / g.degrees[x] for _, w, _ in nbrs])
    return T, W


def dense_form_family(g):
    """The per-vertex forms as full (N, N, N) stacks (gamma, gamma2, lap_square),
    assembled on the whole vertex set by the defining recursion."""
    n = g.num_vertices
    M = laplacian_matrix(g)
    rows = [dense_rows(g, x) for x in range(n)]

    G = np.zeros((n, n, n), dtype=complex)
    for x, (T, W) in enumerate(rows):
        terms = T.conj()[:, :, None] * T[:, None, :]
        G[x] = sum(0.5 * W[:, None, None] * terms)

    Q = np.conj(M)[:, :, None] * M[:, None, :]

    Mh = M.conj().T
    G2 = np.zeros((n, n, n), dtype=complex)
    for x, (_, W) in enumerate(rows):
        lap_of_g = -G[x].copy()
        for (y, _, _), w in zip(g.neighbors(x), W):
            lap_of_g += w * G[y]
        raw = 0.5 * (lap_of_g - Mh @ G[x] - G[x] @ M)
        G2[x] = 0.5 * (raw + raw.conj().T)
    return G, G2, Q


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
    by the one-vertex reference solver."""
    G, G2, Q = dense
    invn = _inv_n(n)
    return np.array([vertex_kappa_reference(G2[x] - invn * Q[x], G[x])[0]
                     for x in range(len(G))])


def same_direction(u, v):
    """u and v agree up to a unit complex factor."""
    return abs(np.vdot(u, v)) >= (1 - 1e-9) * np.linalg.norm(u) * np.linalg.norm(v)


def vertex_kappa_reference(A: np.ndarray, G: np.ndarray) -> tuple[float, np.ndarray]:
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


def two_ball_kappa(g, n) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-vertex optimal kappa on the 2-ball forms, by the reference solver,
    and its witnesses aligned with each block's support."""
    invn = _inv_n(n)
    forms = form_family(g)
    solved = [vertex_kappa_reference(blk.gamma2 - invn * blk.lap_square, blk.gamma)
              for blk in map(forms.block, range(g.num_vertices))]
    return np.array([k for k, _ in solved]), [w for _, w in solved]


def two_ball_cd_passed(g, n, kappa) -> bool:
    """CD(n, kappa) as the PSD test of each 2-ball block of M_x(n, kappa):
    minimum eigenvalue >= -1e-9 * max(1, spectral norm)."""
    invn = _inv_n(n)
    for _, blk in form_family(g).stacks:
        eigs = np.linalg.eigvalsh(blk.gamma2 - invn * blk.lap_square - kappa * blk.gamma)
        if np.any(eigs[:, 0] < -PSD_TOL * np.maximum(1.0, np.abs(eigs).max(axis=1))):
            return False
    return True


def cd_check_reference(g, n, kappa) -> CDGraphCheck:
    """CD(n, kappa) decided on the reduced matrices themselves, not read from
    kappa_max: per vertex, eigvalsh's least eigenvalue of
    A = R_x - (1/n) u_x u_x^H - kappa I, and a pass when every A plus
    1e-9 * max(1, |kappa|) I has a Cholesky factor."""
    invn = _inv_n(n)
    mins = np.empty(g.num_vertices)
    cut = PSD_TOL * max(1.0, abs(kappa))
    passed = True
    for xs, R, u in _one_ball(g).stacks:
        eye = np.eye(R.shape[1])
        A = R - invn * u[:, :, None] * u.conj()[:, None, :] - kappa * eye
        mins[xs] = np.linalg.eigvalsh(A)[:, 0]
        passed = passed and _positive_definite(A + cut * eye)
    return CDGraphCheck(n=n, kappa=kappa, min_eigenvalues=mins,
                        thresholds=np.full(g.num_vertices, -cut), passed=passed)


class OneBallReference(NamedTuple):
    """``curvature.OneBall`` with the supports of the witnesses built eagerly:
    ``order`` sorts the values at the vertices, the row ends and the pairs
    (x, z), concatenated, into ``supports[x]`` = B2(x), ascending. ``pairs``
    counts the Lagrange pairs the assembly built."""

    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    elim: np.ndarray
    via: np.ndarray
    target: np.ndarray
    spread: np.ndarray
    order: np.ndarray
    supports: tuple[np.ndarray, ...]
    pairs: int


def one_ball_reference(g) -> OneBallReference:
    """``curvature._one_ball`` as it was first written: R_x assembled degree by
    degree (the Schur step, the diag(a)^(-1/2) scaling and the Hermitian part
    taken on each degree's stack), and the pair branch of badly scaled rows
    built whether or not any vertex takes it."""
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
    paired = ((np.bincount(src, load > GRADED, n) > 0)
              & (twists * (twists - 1) <= 2 * curvature.PAIR_LIMIT))
    tw = np.flatnonzero(twist & paired[w])
    tw = tw[np.argsort(w[tw], kind="stable")]
    i, j = (tw[v] for v in _ranges(np.arange(len(tw)) + 1,
                                      np.searchsorted(w[tw], w[tw], side="right")))
    plain = ~(twist & paired[w])

    def flat(r, r2):
        return block_start[src[r]] + local[r] * deg[src[r]] + local[r2]

    def squares(weight, coords, coefs):
        coefs = list(coefs)
        for u in range(len(coords)):
            for v in range(u + 1, len(coords)):
                same = coords[u] == coords[v]
                coefs[u], coefs[v] = coefs[u] + np.where(same, coefs[v], 0.0), coefs[v] * ~same
        return [(flat(ca, cb), weight * sa.conj() * sb)
                for ca, sa in zip(coords, coefs) for cb, sb in zip(coords, coefs)]

    diag = np.concatenate((np.arange(rows), r1[back]))
    entries = ([(flat(diag, diag), np.concatenate((-a, 2.0 * c[back])).astype(complex))]
               + squares(h[plain], (p[plain], q[plain]), (tp[plain], tq[plain]))
               + squares(h[i] * h[j] / zero[w[i]], (p[j], q[j], p[i], q[i]),
                         (t0[i] * tp[j], t0[i] * tq[j], -t0[j] * tp[i], -t0[j] * tq[i])))
    P = _sums(*map(np.concatenate, zip(*entries)), int(area.sum()))
    row0 = _sums(np.concatenate((p, q)),
                 np.concatenate((h * t0.conj() * tp, h * t0.conj() * tq)), rows)
    twisted = twists > 0
    elim = np.where(twisted[src], -row0 / np.where(twisted, zero, 1.0)[src], 0.0)
    schur = np.where(paired[src], 0.0, elim)

    stacks = []
    for d in np.unique(deg).tolist():
        xs = np.flatnonzero(deg == d)
        cut = block_start[xs[0]] + np.arange(len(xs) * d * d)
        rr = edges.first[xs, None] + np.arange(d)
        R = P[cut].reshape(-1, d, d) + row0[rr].conj()[:, :, None] * schur[rr][:, None, :]
        root = np.sqrt(a[rr])
        outer = root[:, :, None] * root[:, None, :]
        R = R / outer + outer
        R = 0.5 * (R + R.conj().swapaxes(1, 2))
        stacks.append((xs, R, np.sqrt(2.0) * root))

    ends = np.concatenate((np.arange(n) * (n + 1), key, pair_key[new]))
    order = np.argsort(ends)
    sizes = 1 + deg + np.bincount(x[far][new], minlength=n)
    supports = _pieces(ends[order] % n, sizes)
    spread = c[far] * pi / D[target]
    return OneBallReference(stacks=tuple(stacks), elim=elim, via=via, target=target,
                            spread=spread, order=order, supports=supports, pairs=len(i))


def witnesses_reference(g, n):
    """kappa_max's per-vertex suprema, witnesses and supports, the witnesses
    built eagerly from ``one_ball_reference``: the least eigenvector of each
    R_x - (1/n) u_x u_x^H (refined as kappa_max refines it), mapped to B2(x)."""
    invn = _inv_n(n)
    ball = one_ball_reference(g)
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
    gy = h / np.sqrt(edges.weight)
    g0 = np.add.reduceat(ball.elim * gy, edges.first)
    at_z = _sums(ball.target, ball.spread * (2.0 * gy[ball.via] + g0[edges.src[ball.via]]),
                 len(ball.order) - len(h) - len(g0))
    values = np.concatenate((g0, edges.phase.conj() * (gy + g0[edges.src]), at_z))[ball.order]
    return per, _pieces(values, [len(sup) for sup in ball.supports]), ball.supports


def kappa_max_bisect(g, n) -> float:
    """Graph-wide optimal kappa by bisection on the 2-ball CD decision.

    Independent of the 1-ball reduction. The two agree to ~1e-6 when gamma[x]
    is well conditioned; with badly scaled weights the PSD tolerance absorbs
    directions on which gamma[x] is tiny, and the bisection can sit higher.
    """

    def ok(k: float) -> bool:
        return two_ball_cd_passed(g, n, k)

    hi = 1.0
    for _ in range(MAX_DOUBLINGS):
        if not ok(hi):
            break
        hi *= 2.0
    else:
        raise NumericalError("no failing kappa found")
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


class Quadratic:
    """Exact element a + b z of Q(i) (z = i, ell in {1, 2, 4}) or of Q(sqrt(-3))
    (z = exp(2 pi i / 3), ell in {3, 6}), with rational a and b."""

    __slots__ = ("a", "b", "cube")

    def __init__(self, a, b=0, cube=False):
        self.a, self.b, self.cube = a, b, cube

    def __add__(self, o):
        return Quadratic(self.a + o.a, self.b + o.b, self.cube)

    def __sub__(self, o):
        return Quadratic(self.a - o.a, self.b - o.b, self.cube)

    def __mul__(self, o):
        if not isinstance(o, Quadratic):
            return Quadratic(self.a * o, self.b * o, self.cube)
        bd = self.b * o.b   # z^2 = -1, or -1 - z
        return Quadratic(self.a * o.a - bd, self.a * o.b + self.b * o.a - (bd if self.cube else 0),
                         self.cube)

    def conj(self):
        # conj(i) = -i; conj(z) = z^2 = -1 - z
        if self.cube:
            return Quadratic(self.a - self.b, -self.b, True)
        return Quadratic(self.a, -self.b)

    def __bool__(self):
        return bool(self.a or self.b)


def exact_phases(ell: int) -> list[Quadratic]:
    """exp(2 pi i s / ell) for s in range(ell), exactly."""
    cube = ell in (3, 6)
    if not (cube or ell in (1, 2, 4)):
        raise ValueError(f"no exact phases for ell = {ell}")
    gen = {1: (1, 0), 2: (-1, 0), 4: (0, 1), 3: (0, 1), 6: (1, 1)}[ell]
    powers = [Quadratic(1, 0, cube)]
    for _ in range(ell - 1):
        powers.append(powers[-1] * Quadratic(*gen, cube))
    assert not (powers[-1] * Quadratic(*gen, cube) - Quadratic(1, 0, cube))
    return powers


def exact_cd_matrix(g, x, n, kappa) -> list[list[Quadratic]]:
    """M_x(n, kappa) = gamma2[x] - (1/n) lap_square[x] - kappa gamma[x] on the
    2-ball of x, from the defining recursion in exact arithmetic: the float
    weights, n and kappa are read as the rationals they are, and the degrees
    are their exact sums. With the Laplacian rows m of B1(x),

        gamma2[x] = (sum_y a_xy gamma[y] - gamma[x] - M^H gamma[x] - gamma[x] M) / 2.
    """
    phase = exact_phases(g.ell)
    one1 = [x] + [y for y, _, _ in g.neighbors(x)]
    ball = sorted(set(one1) | {z for y in one1 for z, _, _ in g.neighbors(y)})
    idx = {v: i for i, v in enumerate(ball)}
    rows = {}   # v -> [(index of y, a_vy, sigma_vy)] for v in B1(x)
    for v in one1:
        d = sum(Fraction(w) for _, w, _ in g.neighbors(v))
        rows[v] = [(idx[y], Fraction(w) / d, phase[s]) for y, w, s in g.neighbors(v)]
    out: dict = {}

    def add(i, j, value):
        out[i, j] = out[i, j] + value if (i, j) in out else value

    def first_form(v, scale):
        """gamma[v] * scale, entry by entry."""
        i = idx[v]
        entries = []
        for j, a, p in rows[v]:
            h = a * scale / 2
            entries += [(i, i, phase[0] * h), (j, j, phase[0] * h),
                        (i, j, p * -h), (j, i, p.conj() * -h)]
        return entries

    kap, inv_n = Fraction(kappa), 0 if n == math.inf else 1 / Fraction(n)
    for y, (_, a, _) in zip(one1[1:], rows[x]):
        for entry in first_form(y, a / 2):
            add(*entry)
    for entry in first_form(x, -Fraction(1, 2) - kap):
        add(*entry)
    laplacian = {v: [(idx[v], phase[0] * -1)] + [(j, p * a) for j, a, p in rows[v]]
                 for v in one1}
    for m, j, value in first_form(x, Fraction(1)):
        for i, entry in laplacian[ball[m]]:
            term = entry.conj() * value * Fraction(-1, 2)   # -(M^H gamma[x])[i, j] / 2
            add(i, j, term)
            add(j, i, term.conj())
    for i, li in laplacian[x]:
        for j, lj in laplacian[x]:
            add(i, j, li.conj() * lj * -inv_n)
    zero = phase[0] * 0
    return [[out.get((i, j), zero) for j in range(len(ball))] for i in range(len(ball))]


def exact_psd(A: list[list[Quadratic]]) -> bool:
    """Is the Hermitian matrix A positive semidefinite? Exact LDL^H: eliminate
    a positive diagonal pivot at a time; a negative diagonal, or a zero one
    whose row is not zero once no positive pivot is left, decides no."""
    A = [r[:] for r in A]
    active = list(range(len(A)))
    while active:
        if any(A[i][i].a < 0 for i in active):
            return False
        piv = next((i for i in active if A[i][i].a > 0), None)
        if piv is None:
            return not any(A[i][j] for i in active for j in active)
        active.remove(piv)
        inv = Fraction(1) / A[piv][piv].a
        for i in active:
            if A[i][piv]:
                f = A[i][piv] * inv
                for j in active:
                    A[i][j] = A[i][j] - f * A[piv][j]
    return True


def exact_cd_holds(g, x, n, kappa) -> bool:
    """Exactly: is M_x(n, kappa) PSD, i.e. does CD(n, kappa) hold at x?"""
    return exact_psd(exact_cd_matrix(g, x, n, kappa))


def signature_status_reference(g) -> SignatureStatus:
    """Balancedness and entirety from the closed walks themselves: a BFS over
    (vertex, exponent) states from (r, 0), r the first vertex of a component,
    reaches (r, e) exactly when some closed walk at r has exponent sum e.
    Those e are the component's holonomy subgroup of Z_ell. The signature is
    balanced when every such subgroup is {0}, and entire when one contains 1.
    Time and memory grow as N * ell."""
    ell = g.ell
    seen = [False] * g.num_vertices
    balanced, entire = True, False
    for root in range(g.num_vertices):
        if seen[root]:
            continue
        reached = {(root, 0)}
        queue = deque([(root, 0)])
        while queue:
            x, e = queue.popleft()
            seen[x] = True
            for y, _, s in g.neighbors(x):
                state = (y, (e + s) % ell)
                if state not in reached:
                    reached.add(state)
                    queue.append(state)
        closed = {e for x, e in reached if x == root}
        balanced = balanced and closed == {0}
        entire = entire or 1 % ell in closed
    return SignatureStatus(balanced=balanced, entire=entire)


def shortest_generating_closed_walk_reference(g) -> int | float:
    """Shortest nonempty closed walk whose exponent sum generates Z_ell, by a
    BFS on (vertex, exponent) states from each root that stops once no
    shorter walk back to the root can be found."""
    if not signature_status_reference(g).entire:
        return math.inf
    n, ell = g.num_vertices, g.ell
    best = math.inf
    for root in range(n):
        dist = np.full((n, ell), -1, dtype=np.int64)
        dist[root, 0] = 0
        queue = deque([(root, 0)])
        found = math.inf
        while queue:
            x, e = queue.popleft()
            if dist[x, e] + 1 >= min(best, found):
                break
            for y, _, s in g.neighbors(x):
                e2 = (e + s) % ell
                if y == root and math.gcd(e2, ell) == 1:
                    found = min(found, int(dist[x, e]) + 1)
                if dist[y, e2] < 0:
                    dist[y, e2] = dist[x, e] + 1
                    queue.append((y, e2))
        best = min(best, found)
    return best


def magnetic_girth_reference(g, budget: int = 10_000_000) -> int | float:
    """Magnetic girth by the exhaustive DFS over simple cycles that the
    package ran before its search by length: each cycle enumerated from its
    minimum vertex, pruned at the current best length. `budget` caps the
    visited search states (SizeError beyond)."""
    if not signature_status_reference(g).entire:
        return math.inf
    n, ell = g.num_vertices, g.ell
    adj = [g.neighbors(x) for x in range(n)]
    best = math.inf
    states = 0
    in_path = [False] * n

    def dfs(root: int, u: int, depth: int, holo: int):
        nonlocal best, states
        states += 1
        if states > budget:
            raise SizeError(f"cycle search exceeded budget of {budget} states")
        for y, _, s in adj[u]:
            if y == root and depth >= 2:
                if math.gcd((holo + s) % ell, ell) == 1 and depth + 1 < best:
                    best = depth + 1
            elif y > root and not in_path[y] and depth + 2 < best:
                in_path[y] = True
                dfs(root, y, depth + 1, (holo + s) % ell)
                in_path[y] = False

    for root in range(n):
        in_path[root] = True
        dfs(root, root, 0, 0)
        in_path[root] = False
    return best


def min_fill_order_reference(adj, labels, budget):
    """Greedy min-fill order and width as the package found them before it
    kept each vertex's fill: every remaining vertex's fill is recomputed at
    every step, ties to the smallest vertex, stopping after the first vertex
    whose table, labels^(neighbours + 1) entries, exceeds the budget."""
    adj = [set(a) for a in adj]
    remaining = set(range(len(adj)))
    order, width = [], 0

    def fill(x):
        return sum(len(adj[x] - adj[y]) - 1 for y in adj[x]) // 2

    while remaining:
        x = min(remaining, key=lambda v: (fill(v), v))
        nbrs = adj[x]
        width = max(width, len(nbrs))
        for y in nbrs:
            adj[y] |= nbrs
            adj[y] -= {x, y}
        remaining.remove(x)
        order.append(x)
        if labels ** (width + 1) > budget:
            break
    return order, width


def _energy_forms(g, P: np.ndarray):
    """Per vertex v, the Hermitian form of f -> energy(g, P f)[v]:
    sum_r weight[r] (T P)_r^H (T P)_r over the rows leaving v."""
    oe = g.oriented_edges
    rows = oe.first[1:]
    for A, w in zip(np.split(_differences(oe, P), rows), np.split(oe.weight, rows)):
        yield (A.conj().T * w) @ A


def lift_identities_reference(g) -> LiftIdentityReport:
    """The transfer identities as the package checked them on dense matrices:
    the lift embedding P, the lift Laplacian and one N x N energy form per
    lift vertex.

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
