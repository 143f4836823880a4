"""`verify` under exact symmetries of its input: a gauge change, conjugation
of the signature (s -> -s) and a relabelling of the vertices leave every
verdict, skip reason, hypothesis flag and integer of the report unchanged,
and move its floats by rounding only.

The Harnack and alpha values of a repeated eigenvalue depend on which
eigenvector of its eigenspace the solver returns, so they are not compared.
Weight scale is not tested here: the bounds that read the largest degree d
are not invariant under it yet.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from magcurv.bounds import verify_report
from magcurv.graphs import from_edge_list
from magcurv.operators import spectrum

from .conftest import graph_strategy

# Floats agree within REL_TOL * max(1, |a|): the absolute floor covers values
# that are rounding noise around 0, such as a kappa of 1e-31.
REL_TOL = 1e-9


def gauged(g, tau):
    """Exponent s of u -> v becomes s + tau[u] - tau[v] mod ell."""
    return from_edge_list(g.num_vertices, g.ell, [
        (e.u, e.v, e.w, (e.s + tau[e.u] - tau[e.v]) % g.ell) for e in g.edges])


def conjugated(g):
    return from_edge_list(g.num_vertices, g.ell,
                          [(e.u, e.v, e.w, -e.s % g.ell) for e in g.edges])


def relabelled(g, perm):
    """Vertex x becomes perm[x]."""
    return from_edge_list(g.num_vertices, g.ell,
                          [(perm[e.u], perm[e.v], e.w, e.s) for e in g.edges])


def comparable_report(g, perm=None):
    """verify's JSON for g, with the alpha values read in the order of the
    vertices before `perm` and the per-eigenvector values of repeated
    eigenvalues removed."""
    doc = verify_report(g).to_json_dict()
    lam = spectrum(g).eigenvalues
    for harnack, alpha in zip(doc["harnack"], doc["alpha"]):
        i = harnack["eigen_index"]
        gaps = np.abs(np.delete(lam, i) - lam[i])
        if gaps.size and gaps.min() <= 1e-8 * max(1.0, abs(lam[i])):
            del harnack["lhs"], harnack["slack"], alpha["lhs_per_vertex"]
        elif perm is not None:
            alpha["lhs_per_vertex"] = [alpha["lhs_per_vertex"][perm[x]]
                                       for x in range(g.num_vertices)]
    return doc


def assert_same(a, b, where="report"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_same(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert isinstance(b, float), where
        assert (a == b or math.isnan(a) and math.isnan(b)
                or abs(a - b) <= REL_TOL * max(1.0, abs(a))), f"{where}: {a} != {b}"
    else:
        assert type(a) is type(b) and a == b, f"{where}: {a!r} != {b!r}"


def assert_invariant(g, tau, perm):
    base = comparable_report(g)
    assert_same(base, comparable_report(gauged(g, tau)), "gauge")
    assert_same(base, comparable_report(conjugated(g)), "conjugation")
    assert_same(base, comparable_report(relabelled(g, perm), perm), "relabelling")


def test_verify_is_invariant_on_corpus(corpus):
    rng = np.random.default_rng(0)
    for g in corpus:
        assert_invariant(g, rng.integers(0, g.ell, g.num_vertices).tolist(),
                         rng.permutation(g.num_vertices).tolist())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verify_is_invariant_on_random_graphs(data):
    g = data.draw(graph_strategy())
    n = g.num_vertices
    tau = data.draw(st.lists(st.integers(0, g.ell - 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    assert_invariant(g, tau, perm)


def test_pendant_generator_is_a_gauge_choice():
    # an ell = 4 triangle with holonomy 2 plus a pendant edge: its exponent
    # is a gauge choice, so whether it is 1 or 0 the signature is not entire
    triangle = [(0, 1, 1.0, 2), (1, 2, 1.0, 0), (0, 2, 1.0, 0)]
    one, zero = (from_edge_list(4, 4, triangle + [(2, 3, 1.0, s)]) for s in (1, 0))
    reports = [comparable_report(g) for g in (one, zero)]
    for doc in reports:
        assert doc["hypotheses"]["entire"] is False
        assert doc["eigenvalue_bound_skipped"] == "hypothesis failed: entire signature"
    assert_same(*reports)
