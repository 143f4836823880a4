"""The BFS queries of magcurv.graphs against networkx as an independent oracle."""

import math

import pytest
from hypothesis import given, settings

from magcurv.graphs import (connected_components, diameter, from_edge_list,
                            is_connected)

from .conftest import graph_strategy

nx = pytest.importorskip("networkx")


def assert_matches_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_vertices))
    G.add_edges_from((e.u, e.v) for e in g.edges)
    assert connected_components(g) == sorted(sorted(c) for c in nx.connected_components(G))
    assert is_connected(g) == nx.is_connected(G)
    assert diameter(g) == (nx.diameter(G) if nx.is_connected(G) else math.inf)


def test_bfs_queries_match_networkx_on_corpus(corpus):
    for g in corpus:
        assert_matches_networkx(g)


@given(graph_strategy(), graph_strategy())
@settings(max_examples=60, deadline=None)
def test_bfs_queries_match_networkx(g, h):
    assert_matches_networkx(g)
    # the disjoint union is disconnected: two or more components, infinite diameter
    shift = g.num_vertices
    union = from_edge_list(shift + h.num_vertices, g.ell,
                           [(e.u, e.v, e.w, e.s) for e in g.edges]
                           + [(e.u + shift, e.v + shift, e.w, e.s % g.ell) for e in h.edges])
    assert_matches_networkx(union)
