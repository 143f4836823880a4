"""Magnetic girth, frustration index, and magnetic Cheeger number.

Exact desk-scale search throughout. Group arithmetic stays in integer
exponents: the modulus |tau(x) - sigma_xy tau(y)| equals 2 sin(pi * delta /
ell) for the integer exponent difference delta, so objective values are
reproducible to the last bit. Frustration and Cheeger only build pairwise
cost terms for one min-sum search, which eliminates along a greedy min-fill
order and decodes every labelling within a hair of the minimum: frustration
labels each vertex of the subset with an exponent, and Cheeger labels every
vertex "outside" or with an exponent and minimises the ratio by Dinkelbach's
parametric method. Those labellings are rescored in the summation order of
the definitions, so values and tie-breaks match an exhaustive search bit for
bit. Budgets are explicit; exceeding one raises SizeError, never a silent
fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySubsetError, SizeError
from .graphs import MagneticGraph, Record, _forest, _vertex, memoised_on_graph, signature_status

__all__ = [
    "DEFAULT_BUDGET",
    "FrustrationResult",
    "CheegerResult",
    "magnetic_girth",
    "frustration_index",
    "cheeger_number",
]

DEFAULT_BUDGET = 10_000_000


@memoised_on_graph
def magnetic_girth(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> int | float:
    """Length of the shortest simple cycle whose phase product generates the
    whole signature group; math.inf if no such cycle exists.

    A generating cycle is a closed walk whose holonomy generates, so the
    girth is math.inf without a search when the signature is not entire.
    Otherwise the lengths L = 3, 4, ..., N are searched in increasing order:
    for each L, a DFS over the simple cycles of exactly L edges, each
    enumerated from its least vertex, stops at the first that generates.
    `budget` caps the visited search states over the whole search
    (SizeError beyond).
    """
    if not signature_status(g).entire:
        return math.inf
    n, ell = g.num_vertices, g.ell
    adj = [g.neighbors(x) for x in range(n)]
    states = 0
    in_path = [False] * n

    def closes(root: int, u: int, left: int, holo: int) -> bool:
        """Do `left` more edges from u, above root, close a generating cycle?"""
        nonlocal states
        states += 1
        if states > budget:
            raise SizeError(f"cycle search exceeded budget of {budget} states")
        if left == 1:
            return any(y == root and math.gcd((holo + s) % ell, ell) == 1
                       for y, _, s in adj[u])
        for y, _, s in adj[u]:
            if y > root and not in_path[y]:
                in_path[y] = True
                found = closes(root, y, left - 1, (holo + s) % ell)
                in_path[y] = False
                if found:
                    return True
        return False

    for length in range(3, n + 1):
        if any(closes(root, root, length, 0) for root in range(n)):
            return length
    return math.inf


def _edge_costs(ell: int, exponents: list[int]) -> np.ndarray:
    """costs[i, a, b] = |xi^a - xi^s xi^b| = 2 sin(pi * ((a - b - s) mod ell) / ell)
    for the i-th exponent s, read from one table of the ell sines."""
    table = 2.0 * np.sin(np.pi * np.arange(ell) / ell)
    a, s = np.arange(ell), np.array(exponents, dtype=np.int64)
    return table[(a[:, None] - a - s[:, None, None]) % ell]


def _min_fill_order(adj: list[set[int]], labels: int, budget: int, search: str) -> list[int]:
    """Greedy min-fill elimination order, ties to the smallest vertex. Its
    width is the most neighbours a vertex still has when it is eliminated,
    and the exact ``search`` needs labels^(width + 1) table entries: at the
    first vertex whose table is over budget, SizeError names that width and
    the order stops there. Each vertex's (fill, vertex) key is kept:
    eliminating x joins its neighbours, which changes only their fills and
    their neighbours', so only those are recomputed.
    """
    adj = [set(a) for a in adj]
    order, width = [], 0

    def fill(x):
        return sum(len(adj[x] - adj[y]) - 1 for y in adj[x]) // 2

    keys = {v: (fill(v), v) for v in range(len(adj))}
    while keys:
        _, x = min(keys.values())
        nbrs = adj[x]
        width = max(width, len(nbrs))
        if labels ** (width + 1) > budget:
            raise SizeError(f"exact {search} needs {labels}^{width + 1} table entries "
                            f"at elimination width {width}, over budget {budget}")
        for y in nbrs:
            adj[y] |= nbrs
            adj[y] -= {x, y}
        del keys[x]
        order.append(x)
        for v in nbrs.union(*(adj[y] for y in nbrs)):
            keys[v] = (fill(v), v)
    return order


# Labels of the eliminated variable summed at once: as many as fit in this
# many table entries, and at least one.
_BLOCK = 1 << 12
# Labellings within this fraction of the objective's scale (the sum of every
# term's magnitude) of the minimum are rescored in the summation order of the
# definition; rounding in either order stays orders of magnitude below it.
_TIE = 1e-9


def _near_minimisers(order: list[int], domains: list[int], terms: list, slack: float,
                     budget: int) -> list[tuple[int, ...]]:
    """Every labelling whose sum of pairwise terms is within `slack` of the
    minimum, by min-sum elimination of the variables in `order`.

    A term ((u, v), table) adds table[label of u, label of v], the table cut
    to the two domains; every variable in `order` is on a term, and every
    other variable keeps label 0. A table waits in the bucket of its first
    variable in `order`. Eliminating x sums its bucket a block of labels of x
    at a time and keeps the running minimum, so the table over x and its
    neighbours is never built once it exceeds _BLOCK entries. The steps are
    then decoded backwards: a step's message is the least sum its variable
    and the ones eliminated before it can still add, so each branch carries
    the best total below it and is cut once that exceeds the minimum plus
    `slack`. `budget` caps the decoded states (SizeError beyond).
    """
    rank = {x: i for i, x in enumerate(order)}
    buckets: list[list] = [[] for _ in order]
    for (u, v), t in terms:
        t = t[:domains[u], :domains[v]]
        buckets[min(rank[u], rank[v])].append(((u, v), t) if u < v else ((v, u), t.T))
    steps, minimum = [], 0.0
    for x, mine in zip(order, buckets):
        scope = tuple(sorted({v for s, _ in mine for v in s} - {x}))
        views = [t.transpose([s.index(x)] + [i for i, v in enumerate(s) if v != x]).reshape(
                     (domains[x],) + tuple(domains[v] if v in s else 1 for v in scope))
                 for s, t in mine]
        step = max(1, _BLOCK // math.prod(domains[v] for v in scope))
        msg = None
        for a in range(0, domains[x], step):
            block = sum(view[a:a + step] for view in views).min(axis=0)
            msg = np.asarray(block) if msg is None else np.minimum(msg, block, out=msg)
        steps.append((x, mine, scope, msg))
        if scope:
            buckets[min(rank[v] for v in scope)].append((scope, msg))
        else:
            minimum += float(msg)
    threshold = minimum + slack
    found: list[tuple[int, ...]] = []
    stack = [(len(steps) - 1, minimum, [0] * len(domains))]
    states = 0
    while stack:
        i, bound, labels = stack.pop()
        if i < 0:
            found.append(tuple(labels))
            continue
        states += 1
        if states > budget:
            raise SizeError(f"near-optimal labelling search exceeded budget of {budget} states")
        x, mine, scope, msg = steps[i]
        cost = sum((t[tuple(slice(None) if v == x else labels[v] for v in s)] for s, t in mine),
                   bound - msg[tuple(labels[v] for v in scope)])
        for a, c in enumerate(cost.tolist()):
            if c <= threshold:
                labels[x] = a
                stack.append((i - 1, c, labels.copy()))
    return found


@dataclass(frozen=True)
class FrustrationResult(Record):
    """Minimal signature deviation over vertex relabelings of a subset;
    ``tau`` lists the optimal exponents aligned with the sorted subset."""

    value: float
    tau: tuple[int, ...]
    subset: tuple[int, ...]


def _frustration(g: MagneticGraph, verts: tuple[int, ...],
                 budget: int) -> tuple[float, tuple[int, ...]]:
    k, ell = len(verts), g.ell
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[e.u], pos[e.v], e.w, e.s) for e in g.edges if e.u in pos and e.v in pos]
    adj = [{pos[y] for y, _, _ in g.neighbors(v) if y in pos} for v in verts]
    # an isolated vertex keeps exponent 0
    order = [x for x in _min_fill_order(adj, ell, budget, "frustration") if adj[x]]
    # Rotating one component of the induced graph leaves every edge term
    # unchanged. The first vertex keeps exponent 0, as does the last vertex of
    # each other component, where the first minimiser (last vertex most
    # significant) puts it. comp[i] is the first vertex of i's component.
    comp, _ = _forest(k, 1, [(iu, iv, 0) for iu, iv, _, _ in edges])
    domains = [ell] * k
    for first, last in {c: i for i, c in enumerate(comp)}.items():
        domains[0 if first == 0 else last] = 1
    costs = _edge_costs(ell, [s for *_, s in edges])
    terms = [((iu, iv), w * cost) for (iu, iv, w, _), cost in zip(edges, costs)]
    slack = _TIE * 2.0 * sum(w for _, _, w, _ in edges)

    def value(tau):
        total = 0.0
        for (iu, iv, w, _), cost in zip(edges, costs):
            total += w * cost[tau[iu], tau[iv]]
        return float(total)

    tau = min(_near_minimisers(order, domains, terms, slack, budget),
              key=lambda tau: (value(tau), tau[::-1]))
    return value(tau), tau


def frustration_index(g: MagneticGraph, subset: Sequence[int],
                      budget: int = DEFAULT_BUDGET) -> FrustrationResult:
    """Minimize sum p_xy |tau(x) - sigma_xy tau(y)| over relabelings tau of the
    subset into the signature group.

    Exact, by min-sum elimination on the induced graph; ties go to the first
    minimiser with the last vertex most significant. An entry that is no
    vertex raises ValidationError; `budget` caps the largest table,
    ell^(width + 1) entries (SizeError beyond).
    """
    verts = tuple(sorted({_vertex(g.num_vertices, v) for v in subset}))
    if not verts:
        raise EmptySubsetError("frustration index needs a nonempty vertex subset")
    value, tau = _frustration(g, verts, budget)
    return FrustrationResult(value=value, tau=tau, subset=verts)


@dataclass(frozen=True)
class CheegerResult(Record):
    """Minimizer of (frustration + boundary weight) / volume over every
    nonempty subset, the full vertex set included."""

    h1: float
    subset: tuple[int, ...]
    frustration: float
    tau: tuple[int, ...]


def _score(g: MagneticGraph, verts: tuple[int, ...], budget: int):
    """(ratio, subset, frustration, tau); cut summed in edge order, volume in
    vertex order."""
    frust, tau = _frustration(g, verts, budget)
    inside = set(verts)
    cut = 0.0
    for e in g.edges:
        if (e.u in inside) != (e.v in inside):
            cut += e.w
    vol = 0.0
    for x in verts:
        vol += float(g.degrees[x])
    return (frust + cut) / vol, verts, frust, tau


def _cheeger_sets(g: MagneticGraph, order: list[int], lam: float,
                  budget: int) -> set[tuple[int, ...]]:
    """Nonempty subsets of the labellings that come within the tie slack of
    min over (S, tau) of frustration + cut - lam * volume.

    Label 0 puts a vertex outside S and label a + 1 inside with exponent a.
    The volume of S sums w over the edge ends inside S, so each edge carries
    w * (its cut or frustration cost - lam per end inside). Rotating every
    exponent of S at once changes no term, so the vertex eliminated last is
    inside only with exponent 0.
    """
    n, ell = g.num_vertices, g.ell
    domains = [ell + 1] * n
    domains[order[-1]] = 2
    unit = np.full((len(g.edges), ell + 1, ell + 1), 1.0 - lam)
    unit[:, 0, 0] = 0.0
    unit[:, 1:, 1:] = _edge_costs(ell, [e.s for e in g.edges]) - 2.0 * lam
    terms = [((e.u, e.v), e.w * cost) for e, cost in zip(g.edges, unit)]
    slack = _TIE * 2.0 * (1.0 + lam) * sum(e.w for e in g.edges)
    found = _near_minimisers(order, domains, terms, slack, budget)
    return {tuple(x for x in range(n) if lab[x]) for lab in found} - {()}


def cheeger_number(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> CheegerResult:
    """Magnetic Cheeger number with its minimizing subset and relabeling witness.

    Exact, by Dinkelbach's method: lambda starts at the full set's ratio, the
    subsets that minimise frustration + cut - lambda * volume are scored, and
    lambda drops to the best ratio until none is strictly below it. Ratios are
    summed as in the definition; ties go to the lexicographically smallest
    subset. `budget` caps the largest table, (ell + 1)^(width + 1) entries for
    the min-fill width, checked before any search (SizeError beyond).
    """
    n, ell = g.num_vertices, g.ell
    order = _min_fill_order([{y for y, _, _ in g.neighbors(x)} for x in range(n)],
                            ell + 1, budget, "Cheeger")
    best = _score(g, tuple(range(n)), budget)
    while True:
        lam = best[0]
        best = min([best] + [_score(g, verts, budget)
                             for verts in _cheeger_sets(g, order, lam, budget) - {best[1]}])
        if best[0] == lam:
            break
    h1, verts, frust, tau = best
    return CheegerResult(h1=h1, subset=verts, frustration=frust, tau=tau)
