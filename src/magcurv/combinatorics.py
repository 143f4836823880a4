"""Magnetic girth, frustration index, and magnetic Cheeger number.

Exact desk-scale search throughout, with seeded heuristic fallbacks that
always report upper bounds. Group arithmetic stays in integer exponents: the
modulus |tau(x) - sigma_xy tau(y)| equals 2 sin(pi * delta / ell) for the
integer exponent difference delta, so objective values are reproducible to
the last bit. Exact frustration sums one broadcast cost tensor, one axis per
non-gauge vertex; exact Cheeger scores the full vertex set first and then
skips every subset whose cut / volume alone already exceeds the best ratio.
Budgets are explicit; exceeding one raises SizeError, never a silent
fallback.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySubsetError, SizeError, ValidationError
from .graphs import MagneticGraph, Record, memoised_on_graph, signature_status

__all__ = [
    "DEFAULT_BUDGET",
    "FrustrationResult",
    "CheegerResult",
    "magnetic_girth",
    "shortest_generating_closed_walk",
    "frustration_index",
    "cheeger_number",
]

DEFAULT_BUDGET = 10_000_000


@memoised_on_graph
def magnetic_girth(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> int | float:
    """Length of the shortest simple cycle whose phase product generates the
    whole signature group; math.inf if the signature is not entire or no such
    cycle exists.

    Exhaustive DFS over simple cycles, each enumerated from its minimum
    vertex, pruned at the current best length. `budget` caps the number of
    visited search states (SizeError beyond). Closed walks are excluded; see
    shortest_generating_closed_walk for the walk-based lower bound.
    """
    if not signature_status(g).entire:
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


def shortest_generating_closed_walk(g: MagneticGraph) -> int | float:
    """Shortest closed walk whose phase product generates the group.

    BFS on (vertex, exponent) states. This is a lower bound for the magnetic
    girth (every simple cycle is a closed walk) and is diagnostic only.
    """
    if not signature_status(g).entire:
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


def _exponent_cost_table(ell: int) -> np.ndarray:
    # |xi^a - xi^b| = 2 sin(pi * ((a - b) mod ell) / ell)
    return 2.0 * np.sin(np.pi * np.arange(ell) / ell)


def _induced_edges(g: MagneticGraph, verts: Sequence[int]):
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for e in g.edges:
        if e.u in pos and e.v in pos:
            out.append((pos[e.u], pos[e.v], e.w, e.s))
    return out


@dataclass(frozen=True)
class FrustrationResult(Record):
    """Minimal signature deviation over vertex relabelings of a subset.

    exact mode certifies the minimum; local-search mode is an upper bound.
    ``tau`` lists the optimal exponents aligned with the sorted subset.
    """

    value: float
    tau: tuple[int, ...]
    subset: tuple[int, ...]
    mode: str


def _require_assignments(ell: int, k: int, budget: int):
    if ell ** k > budget:
        raise SizeError(
            f"exact frustration needs {ell}^{k} assignments, over budget {budget}")


def _frustration_exact(g: MagneticGraph, verts: tuple[int, ...],
                       budget: int) -> tuple[float, tuple[int, ...]]:
    k, ell = len(verts), g.ell
    _require_assignments(ell, k, budget)
    edges = _induced_edges(g, verts)
    if not edges or ell == 1:
        return 0.0, (0,) * k
    # Global phase gauge: the lowest-indexed vertex is pinned to exponent 0.
    # Vertex i labels axis k - 1 - i (vertex 0 has the one label 0), so the
    # C-order ravel runs vertex 1 fastest. Each entry adds its edge terms in
    # edge order, starting from 0.0.
    cost = np.zeros((ell,) * (k - 1) + (1,))
    size = cost.shape[::-1]
    labels = np.arange(ell)
    table = _exponent_cost_table(ell)
    for iu, iv, w, s in edges:
        term = w * table[(labels[:size[iu], None] - labels[:size[iv]] - s) % ell]
        shape = [1] * k
        shape[k - 1 - iu], shape[k - 1 - iv] = size[iu], size[iv]
        cost += (term if iu > iv else term.T).reshape(shape)
    i = int(np.argmin(cost))
    tau = reversed(np.unravel_index(i, cost.shape))
    return float(cost.flat[i]), tuple(int(t) for t in tau)


def _frustration_value(g: MagneticGraph, verts: tuple[int, ...],
                       tau: Sequence[int]) -> float:
    table = _exponent_cost_table(g.ell)
    total = 0.0
    for iu, iv, w, s in _induced_edges(g, verts):
        total += w * table[(tau[iu] - tau[iv] - s) % g.ell]
    return total


def _frustration_local_search(g: MagneticGraph, verts: tuple[int, ...],
                              rng: np.random.Generator,
                              restarts: int = 16) -> tuple[float, tuple[int, ...]]:
    k, ell = len(verts), g.ell
    edges = _induced_edges(g, verts)
    if not edges or ell == 1:
        return 0.0, (0,) * k
    table = _exponent_cost_table(ell)
    incident: list[list[tuple[int, int, float, int]]] = [[] for _ in range(k)]
    for iu, iv, w, s in edges:
        incident[iu].append((iu, iv, w, s))
        incident[iv].append((iu, iv, w, s))

    def local_cost(tau, i):
        tot = 0.0
        for iu, iv, w, s in incident[i]:
            tot += w * table[(tau[iu] - tau[iv] - s) % ell]
        return tot

    best_val, best_tau = math.inf, None
    for _ in range(restarts):
        tau = rng.integers(0, ell, size=k)
        tau[0] = 0
        improved = True
        while improved:
            improved = False
            for i in range(1, k):
                cur = local_cost(tau, i)
                orig = tau[i]
                pick, pick_cost = orig, cur
                for lab in range(ell):
                    if lab == orig:
                        continue
                    tau[i] = lab
                    c = local_cost(tau, i)
                    if c < pick_cost - 1e-15:
                        pick, pick_cost = lab, c
                tau[i] = pick
                if pick != orig:
                    improved = True
        val = _frustration_value(g, verts, tau)
        if val < best_val:
            best_val, best_tau = val, tuple(int(t) for t in tau)
    return best_val, best_tau


def frustration_index(g: MagneticGraph, subset: Sequence[int], mode: str = "exact",
                      budget: int = DEFAULT_BUDGET,
                      seed: int | None = 0) -> FrustrationResult:
    """Minimize sum p_xy |tau(x) - sigma_xy tau(y)| over relabelings tau of the
    subset into the signature group.

    exact: enumerate assignments with one vertex gauge-fixed (SizeError over
    budget). local-search: greedy single-vertex relabeling from 16 seeded
    random starts; the value is only an upper bound.
    """
    verts = tuple(sorted(set(int(v) for v in subset)))
    if not verts:
        raise EmptySubsetError("frustration index needs a nonempty vertex subset")
    if any(v < 0 or v >= g.num_vertices for v in verts):
        raise ValidationError(f"subset vertex out of range: {verts}")
    if mode == "exact":
        value, tau = _frustration_exact(g, verts, budget)
    elif mode == "local-search":
        rng = np.random.default_rng(seed)
        value, tau = _frustration_local_search(g, verts, rng)
    else:
        raise ValueError(f"mode must be 'exact' or 'local-search', got {mode!r}")
    return FrustrationResult(value=value, tau=tau, subset=verts, mode=mode)


@dataclass(frozen=True)
class CheegerResult(Record):
    """Minimizer of (frustration + boundary weight) / volume over subsets.

    exact mode minimizes over every nonempty subset (the full vertex set
    included); heuristic mode is a seeded annealing upper bound.
    """

    h1: float
    subset: tuple[int, ...]
    frustration: float
    tau: tuple[int, ...]
    mode: str
    seed: int | None


def _cut_and_volume(g: MagneticGraph, mask: int) -> tuple[float, float]:
    cut = 0.0
    for e in g.edges:
        if ((mask >> e.u) & 1) != ((mask >> e.v) & 1):
            cut += e.w
    vol = 0.0
    for x in range(g.num_vertices):
        if (mask >> x) & 1:
            vol += float(g.degrees[x])
    return cut, vol


def _mask_vertices(mask: int, n: int) -> tuple[int, ...]:
    return tuple(x for x in range(n) if (mask >> x) & 1)


def cheeger_number(g: MagneticGraph, mode: str = "exact",
                   budget: int = DEFAULT_BUDGET,
                   seed: int | None = 0) -> CheegerResult:
    """Magnetic Cheeger number with its minimizing subset and relabeling witness.

    exact: the full vertex set, then every other nonempty subset in ascending
    mask order, with exact per-subset frustration (SizeError if 2^N or an
    assignment enumeration exceeds the budget). A subset is skipped only when
    cut / volume > the best ratio so far, strictly: the computed frustration
    is a sum of nonnegative terms and rounding is monotone, so its computed
    ratio is >= cut / volume and cannot win. Ties resolve to the
    lexicographically smallest subset. heuristic: simulated annealing over
    subsets, seeded, reporting an upper bound.
    """
    n = g.num_vertices
    if mode == "exact":
        if 2 ** n > budget:
            raise SizeError(f"exact Cheeger needs 2^{n} subsets, over budget {budget}")
        # name the smallest subset size that overruns, as an ascending scan would
        for k in range(1, n + 1):
            _require_assignments(g.ell, k, budget)
        full = 2 ** n - 1
        best = None
        for mask in itertools.chain((full,), range(1, full)):
            cut, vol = _cut_and_volume(g, mask)
            if best is not None and cut / vol > best[0][0]:
                continue
            verts = _mask_vertices(mask, n)
            frust, tau = _frustration_exact(g, verts, budget)
            key = ((frust + cut) / vol, verts)
            if best is None or key < best[0]:
                best = (key, frust, tau)
        (h1, verts), frust, tau = best
        return CheegerResult(h1=h1, subset=verts, frustration=frust, tau=tau,
                             mode="exact", seed=None)
    if mode != "heuristic":
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")

    rng = np.random.default_rng(seed)
    frust_budget = min(budget, 65536)

    def ratio(mask: int):
        verts = _mask_vertices(mask, n)
        cut, vol = _cut_and_volume(g, mask)
        if g.ell ** len(verts) <= frust_budget:
            frust, tau = _frustration_exact(g, verts, frust_budget)
        else:
            frust, tau = _frustration_local_search(g, verts, rng, restarts=4)
        return (frust + cut) / vol, verts, frust, tau

    full = 2 ** n - 1
    mask = int(rng.integers(1, 2 ** n))
    value, verts, frust, tau = ratio(mask)
    best = (value, verts, frust, tau)
    steps = 300 + 30 * n
    for step in range(steps):
        temp = 0.5 * (0.01 / 0.5) ** (step / max(1, steps - 1))
        flip = 1 << int(rng.integers(0, n))
        cand = mask ^ flip
        if cand == 0:
            continue
        cand_value, cv, cf, ct = ratio(cand)
        if cand_value <= value or rng.random() < math.exp(-(cand_value - value) / temp):
            mask, value = cand, cand_value
            if (cand_value, cv) < (best[0], best[1]):
                best = (cand_value, cv, cf, ct)
    # the full vertex set is often the minimizer; always try it
    full_value, fv, ff, ft = ratio(full)
    if (full_value, fv) < (best[0], best[1]):
        best = (full_value, fv, ff, ft)
    value, verts, frust, tau = best
    return CheegerResult(h1=value, subset=verts, frustration=frust, tau=tau,
                         mode="heuristic", seed=seed)
