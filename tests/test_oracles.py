"""The walk queries of magcurv.graphs and magcurv.lift against independent
oracles: networkx, and the reference searches in tests/oracles.py that share
no code with the package's spanning forest or its (vertex, exponent) BFS."""

import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from magcurv.graphs import (SignatureStatus, connected_components, diameter,
                            from_edge_list, hop_distances, is_connected,
                            signature_status)
from magcurv.lift import build_lift, lift_diameter

from .conftest import graph_strategy
from .oracles import shortest_generating_closed_walk_reference, signature_status_reference

nx = pytest.importorskip("networkx")


def nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    G.add_edges_from((e.u, e.v) for e in g.edges)
    return G


def assert_matches_oracles(g):
    G = nx_graph(g)
    for x in range(g.num_vertices):
        hops = nx.single_source_shortest_path_length(G, x)
        assert hop_distances(g, x).tolist() == [hops.get(y, -1) for y in range(g.num_vertices)]
    assert connected_components(g) == sorted(sorted(c) for c in nx.connected_components(G))
    assert is_connected(g) == nx.is_connected(G)
    assert diameter(g) == (nx.diameter(G) if nx.is_connected(G) else math.inf)
    L = nx_graph(build_lift(g).graph)
    assert lift_diameter(g) == (nx.diameter(L) if nx.is_connected(L) else math.inf)
    assert signature_status(g) == signature_status_reference(g)


def disjoint_union(g, h):
    shift = g.num_vertices
    return from_edge_list(shift + h.num_vertices, g.ell,
                          [(e.u, e.v, e.w, e.s) for e in g.edges]
                          + [(e.u + shift, e.v + shift, e.w, e.s % g.ell) for e in h.edges])


def test_bfs_queries_match_networkx_on_corpus(corpus):
    for g in corpus:
        assert_matches_oracles(g)


@given(graph_strategy(), graph_strategy())
@settings(max_examples=60, deadline=None)
def test_bfs_queries_match_networkx(g, h):
    assert_matches_oracles(g)
    # the disjoint union is disconnected: two or more components, infinite diameter
    assert_matches_oracles(disjoint_union(g, h))


def test_walk_queries_on_disconnected_and_trivial_group_examples(t3, b3, single_edge):
    # ell = 1: every signature is balanced and entire, and the shortest
    # generating closed walk is one edge walked there and back
    triangle = from_edge_list(3, 1, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 0)])
    for g, dia in ((single_edge, 1), (triangle, 1)):
        assert signature_status(g) == SignatureStatus(balanced=True, entire=True)
        assert shortest_generating_closed_walk_reference(g) == 2
        assert diameter(g) == lift_diameter(g) == dia
    # an unbalanced component after a balanced one: each component is checked
    mixed = disjoint_union(b3, t3)
    assert connected_components(mixed) == [[0, 1, 2], [3, 4, 5]]
    assert hop_distances(mixed, 4).tolist() == [-1, -1, -1, 1, 0, 1]
    assert not is_connected(mixed)
    assert diameter(mixed) == lift_diameter(mixed) == math.inf
    assert signature_status(mixed) == SignatureStatus(balanced=False, entire=True)
    assert shortest_generating_closed_walk_reference(mixed) == 3
    both_balanced = disjoint_union(b3, b3)
    assert signature_status(both_balanced) == SignatureStatus(balanced=True, entire=False)
    assert shortest_generating_closed_walk_reference(both_balanced) == math.inf
    for g in (single_edge, triangle, mixed, both_balanced):
        assert_matches_oracles(g)


def test_signature_status_per_component_and_at_a_huge_ell():
    # ell = 6: one component's holonomies generate 2Z_6, the other's 3Z_6.
    # Together they would generate Z_6, but no single component does.
    def triangle(ell, holonomy):
        return from_edge_list(3, ell, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, holonomy)])

    split = disjoint_union(triangle(6, 2), triangle(6, 3))
    assert signature_status(split) == signature_status_reference(split) == (False, False)
    assert_matches_oracles(split)
    # the spanning forest allocates nothing of length ell (the reference would
    # ask for N * ell states)
    for holonomy, want in ((1, (False, True)), (2, (False, False))):
        g = triangle(10 ** 9, holonomy)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert signature_status(g) == want
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05 and peak < 1 << 20
