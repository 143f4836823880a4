import gc
import hashlib
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from magcurv.bounds import lift_diameter_check, verify_report
from magcurv.combinatorics import DEFAULT_BUDGET, frustration_index, magnetic_girth
from magcurv.errors import ParseError, ValidationError
from magcurv.graphs import (Edge, MagneticGraph, diameter, from_edge_list, hop_distances,
                            is_connected, load_graph, memoised_on_graph, random_magnetic_graph,
                            signature_status)
from magcurv.curvature import _one_ball, kappa_max
from magcurv.lift import build_lift
from magcurv.operators import spectrum

from .conftest import LIFT_SHAPES, badly_scaled_graphs, graph_strategy, sparse_graph
from .oracles import oriented_edges_reference

T3_DOC = json.dumps({
    "ell": 2, "num_vertices": 3,
    "edges": [{"u": 0, "v": 1, "w": 1.0, "s": 0},
              {"u": 1, "v": 2, "w": 1.0, "s": 0},
              {"u": 0, "v": 2, "w": 1.0, "s": 1}],
})


def test_load_t3_degrees():
    g = load_graph(T3_DOC)
    assert g.num_vertices == 3 and g.ell == 2
    np.testing.assert_allclose(g.degrees, [2.0, 2.0, 2.0])


def test_load_rejects_negative_weight():
    doc = json.loads(T3_DOC)
    doc["edges"][0]["w"] = -1.0
    with pytest.raises(ValidationError):
        load_graph(json.dumps(doc))


def test_load_rejects_exponent_out_of_range():
    doc = json.loads(T3_DOC)
    doc["edges"][0]["s"] = 2
    with pytest.raises(ValidationError):
        load_graph(json.dumps(doc))


def test_load_rejects_loop_duplicate_isolated():
    with pytest.raises(ValidationError):
        from_edge_list(2, 1, [(0, 0, 1.0, 0)])
    with pytest.raises(ValidationError):
        from_edge_list(2, 1, [(0, 1, 1.0, 0), (1, 0, 2.0, 0)])
    with pytest.raises(ValidationError):
        from_edge_list(3, 1, [(0, 1, 1.0, 0)])  # vertex 2 isolated


def test_oversized_vertex_count_is_rejected_before_allocating():
    # one edge touches at most two vertices: a million-vertex document with
    # one edge is rejected without building anything of length N
    doc = {"ell": 2, "num_vertices": 10**6, "edges": [{"u": 0, "v": 1, "w": 1.0, "s": 0}]}
    tracemalloc.start()
    with pytest.raises(ValidationError, match=r"^isolated vertex 2 \(zero degree\)$"):
        load_graph(json.dumps(doc))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    # the lowest untouched vertex is named, and edge errors come first
    with pytest.raises(ValidationError, match=r"^isolated vertex 1 \(zero degree\)$"):
        from_edge_list(5, 1, [(0, 3, 1.0, 0), (2, 4, 1.0, 0)])
    with pytest.raises(ValidationError, match="^edge weight must be positive"):
        from_edge_list(10**6, 1, [(0, 1, 1.0, 0), (1, 2, -1.0, 0)])


def test_load_rejects_malformed_documents():
    with pytest.raises(ParseError):
        load_graph("not json {")
    with pytest.raises(ParseError):
        load_graph(json.dumps({"bad": 1}))
    with pytest.raises(ParseError):
        load_graph(json.dumps({"ell": 2, "num_vertices": 2,
                               "edges": [{"u": 0, "v": 1, "w": 1.0}]}))


EDGE = {"u": 0, "v": 1, "w": 1.0, "s": 0}


@pytest.mark.parametrize("entry, message", [
    (1, "edge entries must be objects with keys u, v, w, s: 1"),
    ({"u": 0, "v": 1, "w": 1.0},
     "edge entries must be objects with keys u, v, w, s: {'u': 0, 'v': 1, 'w': 1.0}"),
    ({**EDGE, "u": True},
     "edge field u must be an integer: {'u': True, 'v': 1, 'w': 1.0, 's': 0}"),
    ({**EDGE, "s": 0.0},
     "edge field s must be an integer: {'u': 0, 'v': 1, 'w': 1.0, 's': 0.0}"),
    ({**EDGE, "w": "1"},
     "edge weight must be a number: {'u': 0, 'v': 1, 'w': '1', 's': 0}"),
])
def test_load_rejects_a_malformed_edge_with_its_text(entry, message):
    # a well-formed edge first: the failing entry is named, not the first one
    doc = {"ell": 2, "num_vertices": 2, "edges": [EDGE, entry]}
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_graph(json.dumps(doc))


# Truncating each field would build this valid triangle from the edges below.
TRUNCATED = [(0, 1, 1.0, 0), (1, 2, 1.0, 1), (0, 2, 1.0, 1)]


@pytest.mark.parametrize("i, edge", [(0, (0.9, 1, 1.0, 0)), (1, (1, 2.7, 1.0, 1.5)),
                                     (2, (0, 2, 1.0, True))])
def test_an_edge_field_is_validated_not_truncated(i, edge):
    edges = TRUNCATED[:i] + [edge] + TRUNCATED[i + 1:]
    with pytest.raises(ValidationError, match=f"^malformed edge tuple {re.escape(str(Edge(*edge)))}$"):
        from_edge_list(3, 2, edges)
    # numpy integers are integers
    g = from_edge_list(3, 2, [(np.int64(0), np.int32(1), 1.0, np.uint8(1)), (1, 2, 1.0, 0)])
    assert g.edges[0] == (0, 1, 1.0, 1) and type(g.edges[0].s) is int


def assert_table_matches_reference(g):
    """Every array of the oriented-edge table equals the row-by-row reference
    byte for byte, and each vertex's rows list neighbors() in order."""
    got, want = g.oriented_edges, oriented_edges_reference(g)
    for name in got._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    ends = [*got.first[1:].tolist(), len(got.src)]
    for x, (lo, hi) in enumerate(zip(got.first.tolist(), ends)):
        assert [(y, s) for y, _, s in g.neighbors(x)] == list(
            zip(got.dst[lo:hi].tolist(), got.exponent[lo:hi].tolist()))


def test_oriented_edges_match_the_reference(corpus):
    for g in corpus:
        assert_table_matches_reference(g)
    for shape in LIFT_SHAPES:
        base = sparse_graph(*shape, seed=sum(shape))
        assert_table_matches_reference(base)
        assert_table_matches_reference(build_lift(base).graph)


@given(badly_scaled_graphs())
@settings(max_examples=60, deadline=None)
def test_oriented_edges_match_the_reference_on_badly_scaled_weights(g):
    assert_table_matches_reference(g)
    assert_table_matches_reference(build_lift(g).graph)


def assert_same_graph(got, want):
    """A derived graph equals its validated construction field by field."""
    assert (got.num_vertices, got.ell, got.edges) == (want.num_vertices, want.ell, want.edges)
    assert all(type(a) is type(b) for e, f in zip(got.edges, want.edges) for a, b in zip(e, f))
    assert got.degrees.tobytes() == want.degrees.tobytes() and not got.degrees.flags.writeable
    assert got._adjacency == want._adjacency
    for name in got.oriented_edges._fields:
        a, b = getattr(got.oriented_edges, name), getattr(want.oriented_edges, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_derived_graphs_equal_validated_ones(corpus_and_lifts):
    # the lift and untwisted() skip validation, and must build what it builds
    for g in corpus_and_lifts:
        lift = build_lift(g).graph
        assert_same_graph(lift, MagneticGraph(g.num_vertices * g.ell, 1, lift.edges))
        assert_same_graph(g.untwisted(), from_edge_list(
            g.num_vertices, g.ell, [(e.u, e.v, e.w, 0) for e in g.edges]))


def test_edge_table_computes_only_the_phases_present():
    # one edge and ell = 10**9: two phases, not one per group element
    g = from_edge_list(2, 10**9, [(0, 1, 1.0, 5)])
    assert_table_matches_reference(g)
    assert g.oriented_edges.phase.tolist() == [g.phase(5), g.phase(10**9 - 5)]


def test_document_round_trip(t3):
    again = load_graph(t3.dumps())
    assert again.edges == t3.edges
    assert again.ell == t3.ell and again.num_vertices == t3.num_vertices


def test_diameter_examples(t3):
    assert diameter(t3) == 1
    c4 = from_edge_list(4, 1, [(0, 1, 1.0, 0), (1, 2, 1.0, 0),
                               (2, 3, 1.0, 0), (0, 3, 1.0, 0)])
    assert diameter(c4) == 2
    two_edges = from_edge_list(4, 1, [(0, 1, 1.0, 0), (2, 3, 1.0, 0)])
    assert diameter(two_edges) == math.inf
    assert not is_connected(two_edges)


def test_signature_status_examples(t3, b3, c4sigma):
    assert signature_status(b3) == (True, False)
    assert signature_status(t3) == (False, True)
    assert signature_status(c4sigma) == (False, True)


def test_reverse_orientation_exponent(t3):
    # orientation 2 -> 0 must carry (ell - s) mod ell of orientation 0 -> 2
    star = dict((y, s) for y, _, s in t3.neighbors(2))
    assert star[0] == (t3.ell - 1) % t3.ell


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_handshake_identity(g):
    total_w = sum(e.w for e in g.edges)
    assert abs(g.degrees.sum() - 2.0 * total_w) <= 1e-12 * max(1.0, 2.0 * total_w)


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_signature_status_relabeling_invariant(g):
    rng = np.random.default_rng(7)
    perm = rng.permutation(g.num_vertices)
    edges = [(int(perm[e.u]), int(perm[e.v]), e.w, e.s) for e in g.edges]
    relabeled = from_edge_list(g.num_vertices, g.ell, edges)
    assert signature_status(relabeled) == signature_status(g)


def test_random_graph_is_connected_and_deterministic():
    a = random_magnetic_graph(9, 0.2, 3, seed=11)
    b = random_magnetic_graph(9, 0.2, 3, seed=11)
    assert a.edges == b.edges
    assert is_connected(a)
    assert all(0 <= e.s < 3 for e in a.edges)


def test_random_graph_stream_is_pinned(corpus):
    # The acceptance corpus and the benchmark's corpus are drawn through
    # random_magnetic_graph. The digest below was taken while it grouped
    # components by union-find; 87 of the 100 sparse draws need stitching.
    digest = hashlib.sha256()
    for g in corpus:
        digest.update(g.dumps().encode())
    for seed in range(100):
        shape = np.random.default_rng(seed)
        n, p = int(shape.integers(3, 15)), float(shape.uniform(0.05, 0.25))
        g = random_magnetic_graph(n, p, int(shape.integers(1, 6)), seed=seed)
        digest.update(g.dumps().encode())
    assert digest.hexdigest() == ("badd8c097f715973a056c94116bc42de"
                                  "5cb605d99a38b60b63f6851334c86c14")


def test_random_graph_rejects_bad_args():
    with pytest.raises(ValidationError):
        random_magnetic_graph(1, 0.5, 2, seed=0)
    with pytest.raises(ValidationError):
        random_magnetic_graph(4, 1.5, 2, seed=0)


def test_spectrum_and_forms_are_computed_once(t3):
    assert spectrum(t3) is spectrum(t3)
    assert _one_ball(t3) is _one_ball(t3)
    assert spectrum(t3.untwisted()) is not spectrum(t3)
    # the reduced matrices are read-only, one stack per degree
    ball = _one_ball(t3)
    assert sorted(x for xs, _, _ in ball.stacks for x in xs.tolist()) == [0, 1, 2]
    assert all(not a.flags.writeable for stack in ball.stacks for a in stack)
    assert all(not s.flags.writeable for s in kappa_max(t3, 2.0).supports)


def test_base_diameter_is_computed_once(monkeypatch, t3):
    builds = []
    build = diameter.__wrapped__
    monkeypatch.setattr(diameter, "__wrapped__",
                        lambda h: builds.append(h) or build(h))
    verify_report(t3)
    lift_diameter_check(t3)
    assert builds.count(t3) == 1


def test_stored_results_die_with_their_graph():
    # Everything stored on the graph must be free of references back to it
    # (the stored LiftGraph keeps the base's ell, not the base), so the graph
    # and its spectrum, forms, curvature, girth, diameter, lift diameter,
    # connectivity, signature status and lift go by reference counting alone,
    # and a lift the caller still holds does not keep its base alive.
    g = from_edge_list(3, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1)])
    verify_report(g)
    lift_diameter_check(g)
    lift = build_lift(g)
    assert len(vars(g)["_memo"]) == 9
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
        assert lift.graph.num_vertices == 6 and lift.vertex_label(5) == (2, 1)
    finally:
        gc.enable()


def _entries(g, fn):
    """The stored results of ``fn`` on ``g``, keyed by their arguments."""
    return {key[1:]: value for key, value in vars(g).get("_memo", {}).items()
            if key[0] is fn.__wrapped__}


def test_one_call_has_one_entry_however_it_is_written():
    g = from_edge_list(3, 2, T3_EDGES)
    girth = magnetic_girth(g)
    assert magnetic_girth(g, DEFAULT_BUDGET) == magnetic_girth(g, budget=DEFAULT_BUDGET) == girth
    assert _entries(g, magnetic_girth) == {(DEFAULT_BUDGET,): 3}
    assert magnetic_girth(g, 100) == 3
    assert set(_entries(g, magnetic_girth)) == {(DEFAULT_BUDGET,), (100,)}
    assert kappa_max(g, 2) is kappa_max(g, n=2.0) is kappa_max(g, 2.0)
    assert len(_entries(g, kappa_max)) == 1
    assert _entries(g, diameter) == {} and diameter(g) == 1 and _entries(g, diameter) == {(): 1}


@pytest.mark.parametrize("call", [
    lambda g: magnetic_girth(g, budgte=DEFAULT_BUDGET),
    lambda g: magnetic_girth(g, DEFAULT_BUDGET, budget=DEFAULT_BUDGET),
    lambda g: magnetic_girth(g, DEFAULT_BUDGET, 1),
    lambda g: kappa_max(g),
    lambda g: diameter(g, 1),
])
def test_a_wrong_call_raises_even_when_its_value_is_stored(t3, call):
    magnetic_girth(t3), kappa_max(t3, 2.0), diameter(t3)
    stored = dict(vars(t3)["_memo"])
    with pytest.raises(TypeError):
        call(t3)
    assert vars(t3)["_memo"] == stored


@pytest.mark.parametrize("fn", [lambda g, a, b: 0, lambda g, a=1, b=2: 0, lambda g, *a: 0,
                                lambda g, **k: 0, lambda g, *, a: 0])
def test_only_g_and_one_parameter_can_be_stored(fn):
    with pytest.raises(TypeError, match="takes more than g and one parameter$"):
        memoised_on_graph(fn)


@pytest.mark.parametrize("w", [2, 1.5, np.int64(2), np.uint8(2), np.float32(1.5), np.float64(1.5)])
def test_a_weight_is_a_python_or_numpy_number(w):
    g = from_edge_list(2, 1, [(0, 1, w, 0)])
    assert type(g.edges[0].w) is float and g.edges[0].w == float(w)


@pytest.mark.parametrize("w", ["1.5", True, np.True_, b"2", None, 1 + 0j, [1.0],
                               np.array([1.0]), 10**400])
def test_a_weight_of_any_other_type_is_rejected(w):
    for build in (lambda: from_edge_list(2, 1, [(0, 1, w, 0)]),
                  lambda: MagneticGraph(2, 1, ((0, 1, w, 0),))):
        with pytest.raises(ValidationError, match="^malformed edge tuple"):
            build()


@pytest.mark.parametrize("x", [-1, 3, True, np.True_, 1.0, "1", None])
def test_a_vertex_argument_is_checked(t3, x):
    # -1 is not read as vertex 2, True not as vertex 1, and 3 is no IndexError;
    # hop_distances, witness and frustration_index follow one rule
    message = f"vertex must be an integer in [0, 3), got {x!r}"
    for call in (lambda: hop_distances(t3, x), lambda: kappa_max(t3, 2).witness(x),
                 lambda: frustration_index(t3, [0, x])):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def test_a_vertex_argument_may_be_a_numpy_integer(t3):
    assert hop_distances(t3, np.int64(2)).tolist() == hop_distances(t3, 2).tolist() == [1, 1, 0]
    result = kappa_max(t3, 2)
    assert np.array_equal(result.witness(np.int32(1)), result.witness(1))


def test_stored_overrun_dies_with_its_graph():
    # An overrun is stored as its message: the exception's traceback would
    # refer back to the graph and keep it alive.
    g = from_edge_list(3, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1)])
    report = verify_report(g, budget=1)
    assert report.girth_finite is None
    assert report.eigenvalue_skipped == "budget: cycle search exceeded budget of 1 states"
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g, report
        assert ref() is None
    finally:
        gc.enable()


T3_EDGES = ((0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: MagneticGraph(num_vertices=2, ell=True, edges=((0, 1, 1.0, 0),)),
     "ell must be a positive integer, got True"),
    (lambda: MagneticGraph(num_vertices=3.0, ell=2, edges=T3_EDGES),
     "num_vertices must be a positive integer, got 3.0"),
    (lambda: MagneticGraph(num_vertices=3, ell=np.float64(2.0), edges=T3_EDGES),
     f"ell must be a positive integer, got {np.float64(2.0)!r}"),
    (lambda: random_magnetic_graph(5.7, 0.5, 3, seed=1),
     "num_vertices must be a positive integer, got 5.7"),
    (lambda: random_magnetic_graph(5, 0.5, 2.9, seed=1),
     "ell must be a positive integer, got 2.9"),
    (lambda: random_magnetic_graph(5, 0.5, True, seed=1),
     "ell must be a positive integer, got True"),
])
def test_a_count_is_an_integer_never_truncated(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integers_are_counts():
    g = MagneticGraph(np.int64(3), np.int32(2), T3_EDGES)
    assert (type(g.num_vertices), type(g.ell)) == (int, int)
    assert load_graph(g.dumps()).dumps() == g.dumps() == from_edge_list(3, 2, T3_EDGES).dumps()
    assert (random_magnetic_graph(np.int64(6), 0.5, np.uint8(3), seed=1).dumps()
            == random_magnetic_graph(6, 0.5, 3, seed=1).dumps())


@pytest.mark.parametrize("edge", [(0, 1, 10**400, 0), (0, 1, "x", 0), (0, 1, 1.0),
                                  (0, 1, 1.0, 0, 0), 7])
def test_an_edge_that_does_not_convert_is_a_validation_error(edge):
    for build in (lambda: from_edge_list(2, 1, [edge]),
                  lambda: MagneticGraph(2, 1, (edge,))):
        with pytest.raises(ValidationError, match="^malformed edge tuple"):
            build()


def test_a_weight_too_large_for_a_float_is_a_validation_error():
    doc = '{"ell": 2, "num_vertices": 2, "edges": [{"u": 0, "v": 1, "w": %s, "s": 1}]}'
    with pytest.raises(ValidationError, match="^malformed edge tuple"):
        load_graph(doc % ("9" * 401))
    # past 4300 digits the JSON decoder itself refuses the integer
    with pytest.raises(ParseError, match="^invalid JSON"):
        load_graph(doc % ("9" * 5000))


def test_ell_is_bounded_by_the_exponent_arithmetic():
    assert MagneticGraph(3, 2**62, T3_EDGES).ell == 2**62
    assert random_magnetic_graph(4, 0.5, 2**62, seed=1).ell == 2**62
    for ell in (2**62 + 1, 2**63, 2**70):
        for build in (lambda: MagneticGraph(3, ell, T3_EDGES),
                      lambda: random_magnetic_graph(4, 0.5, ell, seed=1)):
            with pytest.raises(ValidationError, match=rf"^ell must be at most 2\*\*62, got {ell}$"):
                build()
