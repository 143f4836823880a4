import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

from magcurv.bounds import verify_report
from magcurv.combinatorics import (DEFAULT_BUDGET, CheegerResult, _min_fill_order,
                                   cheeger_number, frustration_index, magnetic_girth)
from magcurv.errors import EmptySubsetError, SizeError, ValidationError
from magcurv.graphs import from_edge_list, random_magnetic_graph, signature_status

from .conftest import LIFT_SHAPES, graph_strategy, sparse_graph, two_n_cycle
from .oracles import (magnetic_girth_reference, min_fill_order_reference,
                      shortest_generating_closed_walk_reference)


# --- independent oracles ----------------------------------------------------

def frustration_brute(g, verts):
    """Ungauged enumeration over every assignment; independent of the library."""
    verts = tuple(sorted(verts))
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[e.u], pos[e.v], e.w, e.s) for e in g.edges
             if e.u in pos and e.v in pos]
    best = math.inf
    for tau in itertools.product(range(g.ell), repeat=len(verts)):
        total = 0.0
        for iu, iv, w, s in edges:
            delta = (tau[iu] - tau[iv] - s) % g.ell
            total += w * 2.0 * math.sin(math.pi * delta / g.ell)
        best = min(best, total)
    return best


def frustration_reference(g, verts):
    """Reference gauged enumeration: one int64 label column per vertex,
    vertex 1 fastest, edge terms added in edge order. The library's
    elimination must reproduce its value and first minimiser bit for bit."""
    k, ell = len(verts), g.ell
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[e.u], pos[e.v], e.w, e.s) for e in g.edges
             if e.u in pos and e.v in pos]
    if not edges or ell == 1:
        return 0.0, (0,) * k
    m = ell ** (k - 1)
    cols = [np.zeros(m, dtype=np.int64)]
    idx = np.arange(m, dtype=np.int64)
    stride = 1
    for _ in range(k - 1):
        cols.append((idx // stride) % ell)
        stride *= ell
    table = 2.0 * np.sin(np.pi * np.arange(ell) / ell)
    cost = np.zeros(m)
    for iu, iv, w, s in edges:
        cost += w * table[(cols[iu] - cols[iv] - s) % ell]
    i = int(np.argmin(cost))
    return float(cost[i]), tuple(int(c[i]) for c in cols)


def cheeger_reference(g):
    """Reference search without pruning: every nonempty subset in ascending
    mask order, ties to the lexicographically smallest subset."""
    n = g.num_vertices
    best = None
    for mask in range(1, 2 ** n):
        verts = tuple(x for x in range(n) if (mask >> x) & 1)
        cut = 0.0
        for e in g.edges:
            if ((mask >> e.u) & 1) != ((mask >> e.v) & 1):
                cut += e.w
        vol = 0.0
        for x in verts:
            vol += float(g.degrees[x])
        frust, tau = frustration_reference(g, verts)
        key = ((frust + cut) / vol, verts)
        if best is None or key < best[0]:
            best = (key, frust, tau)
    (h1, verts), frust, tau = best
    return CheegerResult(h1=h1, subset=verts, frustration=frust, tau=tau)


def _kept_is_balanced(g, kept):
    # potential BFS on the kept subgraph, per component
    pot = [None] * g.num_vertices
    adj = [[] for _ in range(g.num_vertices)]
    for e in kept:
        adj[e.u].append((e.v, e.s))
        adj[e.v].append((e.u, (g.ell - e.s) % g.ell))
    for root in range(g.num_vertices):
        if pot[root] is not None:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, s in adj[x]:
                if pot[y] is None:
                    pot[y] = (pot[x] + s) % g.ell
                    stack.append(y)
    return all((pot[e.u] + e.s - pot[e.v]) % g.ell == 0 for e in kept)


def min_deletions_for_balance(g):
    """Brute force over edge subsets whose removal balances the graph.

    Returns (fewest edges removed, smallest total weight removed). For unit
    weights the two coincide; the count is the classical deletion number for
    sign graphs (ell = 2).
    """
    m = len(g.edges)
    best_count, best_weight = m, sum(e.w for e in g.edges)
    for bits in range(2 ** m):
        kept = [e for i, e in enumerate(g.edges) if not (bits >> i) & 1]
        if _kept_is_balanced(g, kept):
            count = bits.bit_count()
            weight = sum(e.w for i, e in enumerate(g.edges) if (bits >> i) & 1)
            best_count = min(best_count, count)
            best_weight = min(best_weight, weight)
    return best_count, best_weight


# --- magnetic girth ----------------------------------------------------------

def test_girth_examples(t3, b3, c4sigma):
    assert magnetic_girth(t3) == 3
    assert magnetic_girth(c4sigma) == 4
    assert magnetic_girth(b3) == math.inf  # signature not entire


def test_girth_two_n_cycles():
    for n in (2, 3, 4):
        for ell in (2, 4):
            assert magnetic_girth(two_n_cycle(n, ell)) == 2 * n


def test_girth_requires_generating_cycle():
    # a balanced square plus a pendant edge carrying the generator: the only
    # cycle has trivial phase product, and a gauge change at the pendant
    # vertex removes the generator, so the signature is not entire
    g = from_edge_list(5, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (2, 3, 1.0, 0),
                              (0, 3, 1.0, 0), (3, 4, 1.0, 1)])
    assert not signature_status(g).entire
    assert magnetic_girth(g) == math.inf


def test_girth_without_a_generating_closed_walk_searches_no_cycle():
    # every cycle has trivial holonomy and the generator sits on a pendant
    # edge: no closed walk generates, so the signature is not entire and no
    # cycle is searched, whatever the budget
    g = random_magnetic_graph(16, 0.3, 2, seed=7)
    g = from_edge_list(17, 2, [(e.u, e.v, e.w, 0) for e in g.edges] + [(0, 16, 1.0, 1)])
    assert not signature_status(g).entire
    assert magnetic_girth(g, budget=1) == math.inf


def test_girth_budget_exceeded():
    # the only generating cycle has 12 edges; every shorter length is searched first
    g = two_n_cycle(6, 2)
    with pytest.raises(SizeError, match="^cycle search exceeded budget of 10 states$"):
        magnetic_girth(g, budget=10)
    assert magnetic_girth(g) == 12


def test_girth_matches_reference_dfs(corpus):
    # the corpus, and the Z_6 bowtie whose two triangles each fail to generate
    bowtie = from_edge_list(5, 6, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 4),
                                   (0, 3, 1.0, 0), (3, 4, 1.0, 0), (0, 4, 1.0, 3)])
    for g in [*corpus, bowtie]:
        assert magnetic_girth(g) == magnetic_girth_reference(g)


@given(graph_strategy(max_ell=12))
@settings(max_examples=150, deadline=None)
def test_girth_matches_reference_dfs_on_random_graphs(g):
    assert magnetic_girth(g) == magnetic_girth_reference(g)


@pytest.mark.parametrize("n, ell, girth", [(40, 4, 3), (48, 3, 3), (36, 4, 4)])
def test_girth_of_sparse_graphs_within_a_small_budget(n, ell, girth):
    # millions of long simple paths, but a generating cycle of 3 or 4 edges:
    # no path longer than the girth is walked
    assert magnetic_girth(sparse_graph(n, ell, seed=44), budget=10_000) == girth


def test_girth_budget_binds_after_a_stored_result(t3):
    # the girth is stored per budget, so a smaller budget still overruns
    assert magnetic_girth(t3) == 3
    with pytest.raises(SizeError):
        magnetic_girth(t3, budget=1)
    assert magnetic_girth(t3, budget=DEFAULT_BUDGET) == 3


def test_girth_overrun_is_searched_once_per_verify(monkeypatch):
    # The graph of the CLI's budget-overrun test: verify needs the girth for
    # girth_finite, the eigenvalue bound and the Cheeger curvature bound.
    g = random_magnetic_graph(40, 0.1, 3, seed=1)
    searches = []
    search = magnetic_girth.__wrapped__
    monkeypatch.setattr(magnetic_girth, "__wrapped__",
                        lambda h, budget: searches.append(budget) or search(h, budget))
    report = verify_report(g, budget=5)
    assert searches == [5]
    assert report.eigenvalue_skipped == "budget: cycle search exceeded budget of 5 states"
    with pytest.raises(SizeError, match="^cycle search exceeded budget of 5 states$"):
        magnetic_girth(g, budget=5)
    assert searches == [5]


def test_closed_walk_is_lower_bound(small_corpus):
    for g in small_corpus:
        girth = magnetic_girth(g)
        walk = shortest_generating_closed_walk_reference(g)
        assert walk == math.inf or type(walk) is int
        if girth != math.inf:
            assert walk <= girth
            assert girth >= 3


@given(graph_strategy(max_ell=5))
@settings(max_examples=60, deadline=None)
def test_girth_is_closed_walk_for_prime_ell(g):
    # for prime ell a shortest generating closed walk splits at a repeated
    # vertex into a shorter piece that still generates, so it is a cycle
    assume(g.ell in (2, 3, 5))
    assert magnetic_girth(g) == shortest_generating_closed_walk_reference(g)


def test_girth_exceeds_closed_walk_for_composite_ell():
    # bowtie: two triangles at vertex 0 with holonomies 2 and 3 in Z_6; neither
    # cycle generates, but one lap of each is a closed walk of holonomy 5
    bowtie = from_edge_list(5, 6, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 4),
                                   (0, 3, 1.0, 0), (3, 4, 1.0, 0), (0, 4, 1.0, 3)])
    assert signature_status(bowtie).entire
    assert magnetic_girth(bowtie) == math.inf
    assert shortest_generating_closed_walk_reference(bowtie) == 6


# --- frustration index -------------------------------------------------------

def test_frustration_t3(t3):
    res = frustration_index(t3, [0, 1, 2])
    assert abs(res.value - 2.0) <= 1e-12
    # consistent with 2 * (minimum edge deletions for balance)
    assert min_deletions_for_balance(t3) == (1, 1.0)


def test_frustration_subsets(t3, b3):
    assert frustration_index(t3, [0, 1]).value == 0.0
    assert frustration_index(b3, [0, 1, 2]).value == 0.0


def test_frustration_empty_and_invalid(t3):
    with pytest.raises(EmptySubsetError):
        frustration_index(t3, [])
    with pytest.raises(ValidationError):
        frustration_index(t3, [0, 7])


@pytest.mark.parametrize("subset", [[0.7, 1.2, 2.9], [True, 2], [0, 1.0], ["1"]])
def test_frustration_subset_is_validated_not_truncated(t3, subset):
    with pytest.raises(ValidationError, match=r"^vertex must be an integer in \[0, 3\), got "):
        frustration_index(t3, subset)


def test_frustration_takes_numpy_integers(t3):
    assert frustration_index(t3, np.array([2, 0, 1])) == frustration_index(t3, [0, 1, 2])


def test_frustration_budget(t3):
    with pytest.raises(SizeError, match="^exact frustration needs 2\\^3 table entries "
                                        "at elimination width 2, over budget 4$"):
        frustration_index(t3, [0, 1, 2], budget=4)


def test_gauge_fixing_loses_nothing():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_magnetic_graph(int(rng.integers(3, 7)), 0.7,
                                  int(rng.choice([2, 3, 4])), rng=rng)
        verts = tuple(range(g.num_vertices))
        gauged = frustration_index(g, verts).value
        brute = frustration_brute(g, verts)
        assert abs(gauged - brute) <= 1e-12 * max(1.0, brute)


def test_zero_frustration_iff_induced_balanced(small_corpus):
    rng = np.random.default_rng(11)
    for g in small_corpus[:12]:
        n = g.num_vertices
        size = int(rng.integers(2, n + 1))
        verts = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        value = frustration_index(g, verts).value
        # induced balance via potential assignment on the induced edges
        assert (abs(value) <= 1e-12) == _induced_balanced(g, verts)


def _induced_balanced(g, verts):
    keep = set(verts)
    adj = [[] for _ in range(g.num_vertices)]
    for e in g.edges:
        if e.u in keep and e.v in keep:
            adj[e.u].append((e.v, e.s))
            adj[e.v].append((e.u, (g.ell - e.s) % g.ell))
    pot = {}
    for root in verts:
        if root in pot:
            continue
        pot[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, s in adj[x]:
                if y not in pot:
                    pot[y] = (pot[x] + s) % g.ell
                    stack.append(y)
    for e in g.edges:
        if e.u in keep and e.v in keep:
            if (pot[e.u] + e.s - pot[e.v]) % g.ell != 0:
                return False
    return True


def test_sign_frustration_counts_deleted_edges():
    # ell = 2, unit weights: the frustration of the whole vertex set is twice
    # the minimum number of edge removals that balance the graph; with weights
    # it is twice the minimum removed weight
    rng = np.random.default_rng(91)
    unit, weighted = 0, 0
    while unit < 4 or weighted < 4:
        n = int(rng.integers(3, 7))
        wr = (1.0, 1.0) if (unit <= weighted) else (0.5, 2.0)
        g = random_magnetic_graph(n, 0.5, 2, rng=rng, weight_range=wr)
        if len(g.edges) > 8:
            continue
        verts = tuple(range(g.num_vertices))
        value = frustration_index(g, verts).value
        count, weight = min_deletions_for_balance(g)
        assert abs(value - 2.0 * weight) <= 1e-9
        if wr == (1.0, 1.0):
            assert abs(value - 2.0 * count) <= 1e-9
            unit += 1
        else:
            weighted += 1


def test_frustration_matches_reference_on_every_subset(corpus):
    for g in corpus[:60]:
        n = g.num_vertices
        for mask in range(1, 2 ** n):
            verts = tuple(x for x in range(n) if (mask >> x) & 1)
            res = frustration_index(g, verts)
            assert (res.value, res.tau) == frustration_reference(g, verts)


def reversed_and_relabelled(g, perm):
    """The same magnetic graph with every edge listed v -> u (exponent -s) and
    vertex x renamed perm[x]: the elimination then meets terms whose first
    vertex comes later in its order, whose tables it transposes."""
    return from_edge_list(g.num_vertices, g.ell, [(perm[e.v], perm[e.u], e.w, -e.s % g.ell)
                                                  for e in g.edges])


def test_reversed_edges_match_the_references(corpus):
    # At ell >= 3 an edge table is not symmetric, so a table read with its
    # two vertices swapped gives other minima.
    rng = np.random.default_rng(17)
    checked = 0
    for g in corpus[:90]:
        if g.ell < 3 or g.num_vertices > 8:
            continue
        n = g.num_vertices
        h = reversed_and_relabelled(g, rng.permutation(n).tolist())
        checked += any(e.u > e.v for e in h.edges)
        assert cheeger_number(h) == cheeger_reference(h)
        for mask in rng.choice(np.arange(1, 2 ** n), size=min(12, 2 ** n - 1), replace=False):
            verts = tuple(x for x in range(n) if (int(mask) >> x) & 1)
            res = frustration_index(h, verts)
            assert (res.value, res.tau) == frustration_reference(h, verts)
    assert checked >= 30


# --- Cheeger number ----------------------------------------------------------

def _ratio(g, verts):
    verts = tuple(sorted(verts))
    frust = frustration_index(g, verts).value
    cut = sum(e.w for e in g.edges if (e.u in verts) != (e.v in verts))
    vol = float(sum(g.degrees[list(verts)]))
    return (frust + cut) / vol


def test_cheeger_t3(t3):
    res = cheeger_number(t3)
    assert abs(res.h1 - 1.0 / 3.0) <= 1e-12
    assert res.subset == (0, 1, 2)
    assert abs(res.frustration - 2.0) <= 1e-12
    # the 7-subset table behind the optimum
    assert abs(_ratio(t3, [0, 1]) - 0.5) <= 1e-12
    assert all(abs(_ratio(t3, [x]) - 1.0) <= 1e-12 for x in range(3))
    assert abs(_ratio(t3, [0, 1, 2]) - 2.0 / 6.0) <= 1e-12


def test_cheeger_b3_balanced(b3):
    res = cheeger_number(b3)
    assert res.h1 == 0.0
    assert res.subset == (0, 1, 2)


def test_cheeger_witness_recomputes(small_corpus, t3):
    for g in [t3] + list(small_corpus[:8]):
        res = cheeger_number(g)
        cut = sum(e.w for e in g.edges
                  if (e.u in res.subset) != (e.v in res.subset))
        vol = float(sum(g.degrees[list(res.subset)]))
        frust = _frustration_of(g, res.subset, res.tau)
        assert abs((frust + cut) / vol - res.h1) <= 1e-12
        assert abs(frust - res.frustration) <= 1e-12


def _frustration_of(g, verts, tau):
    pos = {v: i for i, v in enumerate(verts)}
    total = 0.0
    for e in g.edges:
        if e.u in pos and e.v in pos:
            delta = (tau[pos[e.u]] - tau[pos[e.v]] - e.s) % g.ell
            total += e.w * 2.0 * math.sin(math.pi * delta / g.ell)
    return total


def _reference_ratio(g, verts, tau):
    """(frustration + cut) / volume of (verts, tau), summed as cheeger_reference
    sums them; returns the ratio and the frustration."""
    table = 2.0 * np.sin(np.pi * np.arange(g.ell) / g.ell)
    pos = {v: i for i, v in enumerate(verts)}
    frust, cut = 0.0, 0.0
    for e in g.edges:
        if e.u in pos and e.v in pos:
            frust += e.w * table[(tau[pos[e.u]] - tau[pos[e.v]] - e.s) % g.ell]
    for e in g.edges:
        if (e.u in pos) != (e.v in pos):
            cut += e.w
    vol = 0.0
    for x in verts:
        vol += float(g.degrees[x])
    return (frust + cut) / vol, frust


def _scale_graphs():
    graphs = [sparse_graph(*shape, seed=sum(shape)) for shape in LIFT_SHAPES]
    return graphs + [random_magnetic_graph(20, 0.4, 3, seed=1)]


@pytest.mark.parametrize("g", _scale_graphs(), ids=lambda g: f"N{g.num_vertices}")
def test_cheeger_scales_past_subset_enumeration(g):
    # 2^20..2^48 subsets: out of reach for the reference, cheap by elimination
    res = cheeger_number(g)
    h1, frust = _reference_ratio(g, res.subset, res.tau)
    assert (h1, frust) == (res.h1, res.frustration)
    full = tuple(range(g.num_vertices))
    assert res.h1 <= _reference_ratio(g, full, frustration_index(g, full).tau)[0]
    for x in full:
        assert res.h1 <= _reference_ratio(g, (x,), (0,))[0]
    report = verify_report(g)
    assert report.cheeger_skipped is None
    assert report.cheeger.h1 == res.h1
    assert report.cheeger.lower_passed and report.cheeger.upper_passed


def test_cheeger_cost_tables_stay_within_the_search():
    # two vertices and ell = 200: the largest elimination table has 201^2
    # entries, and the cost tables are one (ell, ell) slice per edge
    g = from_edge_list(2, 200, [(0, 1, 1.0, 1)])
    tracemalloc.start()
    cheeger_number(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 << 20


def test_cheeger_budget():
    # a path has elimination width 1 however long it is; K_12 has width 11
    path = from_edge_list(40, 1, [(i, i + 1, 1.0, 0) for i in range(39)])
    assert cheeger_number(path).subset == tuple(range(40))
    k12 = from_edge_list(12, 4, [(u, v, 1.0, (u + v) % 4)
                                 for u, v in itertools.combinations(range(12), 2)])
    with pytest.raises(SizeError, match="elimination width 11,"):
        cheeger_number(k12)


@pytest.mark.parametrize("budget, message", [
    (15_624, "exact Cheeger needs 5^6 table entries at elimination width 5, "
             "over budget 15624"),
    (1, "exact Cheeger needs 5^2 table entries at elimination width 1, over budget 1"),
])
def test_cheeger_budget_names_the_smallest_overrun(corpus, budget, message):
    # the elimination tables, (ell + 1)^(width + 1) entries, are checked before
    # any search, and the first over budget is named; the largest has 5^6
    # entries, so one entry more of budget lets the search run
    g = next(h for h in corpus if (h.num_vertices, h.ell) == (10, 4))
    with pytest.raises(SizeError) as err:
        cheeger_number(g, budget=budget)
    assert str(err.value) == message
    assert cheeger_number(g, budget=5 ** 6) == cheeger_number(g)


def test_the_decode_of_tied_labellings_has_its_own_budget():
    # an odd cycle with one flipped edge fits the width check, 2^3 entries for
    # frustration and 3^3 for Cheeger, yet decoding its tied labellings visits
    # more states than that
    def odd_cycle(m):
        return from_edge_list(m, 2, [(i, i + 1, 1.0, 0) for i in range(m - 1)]
                              + [(0, m - 1, 1.0, 1)])

    c5, c7 = odd_cycle(5), odd_cycle(7)
    with pytest.raises(SizeError, match="^near-optimal labelling search exceeded "
                                        "budget of 8 states$"):
        frustration_index(c5, range(5), budget=8)
    assert frustration_index(c5, range(5), budget=15).value == 2.0
    with pytest.raises(SizeError, match="^near-optimal labelling search exceeded "
                                        "budget of 27 states$"):
        cheeger_number(c7, budget=27)
    assert cheeger_number(c7, budget=28).h1 == 1 / 7


C5 = ((0, 1, 1.0, 1), (1, 2, 1.0, 0), (2, 3, 1.0, 0), (3, 4, 1.0, 0), (0, 4, 1.0, 0))


@pytest.mark.parametrize("g", [from_edge_list(3, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0),
                                                     (0, 2, 1.0, 1)]),
                               from_edge_list(5, 3, C5)], ids=["t3", "c5"])
def test_the_elimination_table_is_held_to_the_budget_at_its_width(g):
    # a cycle's min-fill width is 2: one table entry short of labels^3 raises
    # the width's message, and labels^3 entries give the unbounded result
    everything = range(g.num_vertices)
    for search, labels, run in (("Cheeger", g.ell + 1, lambda b: cheeger_number(g, budget=b)),
                                ("frustration", g.ell,
                                 lambda b: frustration_index(g, everything, budget=b))):
        assert min_fill_order_reference(adjacency(g), labels, math.inf)[1] == 2
        budget = labels ** 3
        with pytest.raises(SizeError, match=f"^exact {search} needs {labels}\\^3 table entries "
                                            f"at elimination width 2, over budget {budget - 1}$"):
            run(budget - 1)
        assert run(budget) == run(DEFAULT_BUDGET)


def min_fill_order_matches_reference(adj, labels, budget):
    """_min_fill_order against the reference: the same order when every
    table fits, else the SizeError naming the width where the reference
    stops. Returns the reference's (order, width)."""
    order, width = min_fill_order_reference(adj, labels, budget)
    if labels ** (width + 1) > budget:
        message = (f"^exact search needs {labels}\\^{width + 1} table entries "
                   f"at elimination width {width}, over budget {budget}$")
        with pytest.raises(SizeError, match=message):
            _min_fill_order(adj, labels, budget, "search")
    else:
        assert _min_fill_order(adj, labels, budget, "search") == order
    return order, width


def test_min_fill_order_stops_at_the_first_table_over_budget():
    # the reference stops at the first vertex whose table is over budget,
    # long before every vertex is ordered, and that vertex's width is raised
    g = sparse_graph(200, 2, seed=1)
    adj = [{y for y, _, _ in g.neighbors(x)} for x in range(g.num_vertices)]
    # long orders, where the fills kept from earlier steps must stay exact
    full, full_width = min_fill_order_matches_reference(adj, 3, math.inf)
    order, width = min_fill_order_matches_reference(adj, 3, DEFAULT_BUDGET)
    assert len(order) < len(full) == g.num_vertices
    assert order == full[:len(order)]
    assert 3 ** (width + 1) > DEFAULT_BUDGET and width <= full_width


def adjacency(g):
    return [{y for y, _, _ in g.neighbors(x)} for x in range(g.num_vertices)]


def test_min_fill_order_matches_reference_on_corpus(corpus):
    # every budget from no elimination at all to the whole order
    for g in corpus:
        adj = adjacency(g)
        for budget in (1, 5 ** 4, math.inf):
            min_fill_order_matches_reference(adj, g.ell + 1, budget)


@given(graph_strategy(max_vertices=12))
@settings(max_examples=40, deadline=None)
def test_min_fill_order_matches_reference(g):
    min_fill_order_matches_reference(adjacency(g), 2, math.inf)


def test_cheeger_matches_reference_on_corpus(corpus):
    for g in corpus:
        if g.num_vertices <= 9:
            assert cheeger_number(g) == cheeger_reference(g)


@given(graph_strategy())
@settings(max_examples=40, deadline=None)
def test_cheeger_matches_reference(g):
    assert cheeger_number(g) == cheeger_reference(g)


@pytest.mark.parametrize("s", [1, 0])
def test_cheeger_tie_goes_to_smallest_subset(s):
    # two disjoint mirror-image triangles: each half, and the full set, have
    # the same h bit for bit (1/3 when frustrated, 0 when balanced); the
    # balanced halves also tie the full set on cut/volume alone
    g = from_edge_list(6, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, s),
                              (5, 4, 1.0, 0), (4, 3, 1.0, 0), (5, 3, 1.0, s)])
    assert _ratio(g, [0, 1, 2]) == _ratio(g, [3, 4, 5]) == _ratio(g, range(6))
    res = cheeger_number(g)
    assert res.subset == (0, 1, 2)
    assert res == cheeger_reference(g)


def test_cheeger_json(t3):
    payload = cheeger_number(t3).to_json_dict()
    assert set(payload) == {"h1", "subset", "frustration", "tau"}
