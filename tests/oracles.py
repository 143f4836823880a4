"""Dense reference implementations that the package's fast routes are checked against."""

import math
from collections import deque

import numpy as np
import scipy.linalg

from magcurv.curvature import KERNEL_THRESHOLD, PSD_TOL, _inv_n
from magcurv.errors import NumericalError, SizeError
from magcurv.graphs import SignatureStatus
from magcurv.lift import LiftIdentityReport, build_lift
from magcurv.operators import _differences, laplacian_matrix, spectrum


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



def signature_status_reference(g) -> SignatureStatus:
    """Balancedness by a spanning-tree potential: give each vertex a group
    exponent along a BFS tree, then test every edge for consistency. The
    edge defects generate each component's closed-walk holonomies, so the
    signature is entire when some component has gcd(ell, its defects) = 1."""
    ell = g.ell
    pot, comp = [None] * g.num_vertices, [None] * g.num_vertices
    for root in range(g.num_vertices):
        if pot[root] is not None:
            continue
        pot[root], comp[root] = 0, root
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, _, s in g.neighbors(x):
                if pot[y] is None:
                    pot[y], comp[y] = (pot[x] + s) % ell, root
                    queue.append(y)
    defects = {r: [] for r in set(comp)}
    for e in g.edges:
        defects[comp[e.u]].append((pot[e.u] + e.s - pot[e.v]) % ell)
    return SignatureStatus(balanced=not any(any(d) for d in defects.values()),
                           entire=any(math.gcd(ell, *d) == 1 for d in defects.values()))


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
