import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from magcurv import curvature
from magcurv.bounds import cheeger_bound_check, eigenvalue_lower_bound, harnack_check
from magcurv.curvature import _one_ball, cd_check_function, cd_check_graph, kappa_max
from magcurv.errors import DimensionError, ValidationError
from magcurv.graphs import from_edge_list, random_magnetic_graph
from magcurv.lift import build_lift
from magcurv.operators import gamma

from .conftest import graph_strategy, random_functions, sparse_graph, two_n_cycle
from .oracles import form_family, kappa_max_bisect, same_direction, witnesses_reference


def test_dimension_parameter_validation(t3):
    for bad in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(DimensionError):
            cd_check_graph(t3, bad, 0.0)
        with pytest.raises(DimensionError):
            kappa_max(t3, bad)
    # n = inf is the 1/n -> 0 limit and is accepted
    kappa_max(t3, math.inf)


def test_constant_function_trivial_pass(b3):
    f = np.ones(3, dtype=complex)
    for n, kap in ((2.0, 5.0), (math.inf, -3.0), (4.0, 0.0)):
        chk = cd_check_function(b3.untwisted(), f, n, kap)
        assert chk.all_passed
        assert np.abs(chk.slack).max() <= 1e-14


def test_single_edge_kappa_at_infinity(single_edge):
    """The 1-ball reduction gives kappa = 2 on an isolated edge at n = inf;
    cross-checked against a dense grid of CD decisions."""
    plain = single_edge.untwisted()
    result = kappa_max(plain, math.inf)
    np.testing.assert_allclose(result.per_vertex, [2.0, 2.0], atol=1e-9)
    # grid-search oracle around the reported optimum
    for kap in np.linspace(1.5, 2.5, 21):
        expected = kap <= result.kappa_max + 1e-9
        got = cd_check_graph(plain, math.inf, float(kap)).passed
        if abs(kap - result.kappa_max) > 1e-6:
            assert got == expected
    assert abs(kappa_max_bisect(plain, math.inf)
               - result.kappa_max) <= 1e-6


def test_pencil_vs_bisection_b3_t3(t3, b3):
    for g in (b3, t3):
        for h in (g.untwisted(), g):
            pencil = kappa_max(h, 2.0).kappa_max
            bisect = kappa_max_bisect(h, 2.0)
            assert abs(pencil - bisect) <= 1e-6


def test_bracketing_property(t3, b3, c4sigma):
    for g in (t3, b3, c4sigma):
        km = kappa_max(g, 2.0).kappa_max
        eps = 1e-6 * max(1.0, abs(km))
        assert cd_check_graph(g, 2.0, km - eps).passed
        assert not cd_check_graph(g, 2.0, km + eps).passed


def test_very_negative_kappa_passes(single_edge):
    assert cd_check_graph(single_edge.untwisted(), 2.0, -1e6).passed


def test_graph_certificate_controls_functions(t3):
    km = kappa_max(t3, 2.0).kappa_max
    fs = random_functions(t3, 1000, seed=17)
    chk = cd_check_function(t3, fs, 2.0, km)
    assert chk.all_passed


def test_witness_fails_just_above_kappa_max(t3):
    result = kappa_max(t3, 2.0)
    x = result.witness_vertex
    wit = result.witness(x)
    assert np.array_equal(wit, result.witnesses[x])   # B2(x) is every vertex of t3
    chk = cd_check_function(t3, wit, 2.0, result.kappa_max + 1.0)
    assert not bool(chk.passed[x])


def test_witness_vertex_is_the_lowest_tied_vertex(corpus):
    # Suprema that agree to rounding must not let the order of the
    # floating-point work pick the witness. On graph 48 vertices 1 and 4 both
    # have kappa -1/3, an ulp apart.
    for g in corpus:
        result = kappa_max(g, 2.0)
        per, kappa = result.per_vertex, result.kappa_max
        tied = (per == kappa) if kappa == -math.inf else (per <= kappa + 1e-12 * max(1.0, abs(kappa)))
        assert result.witness_vertex == int(np.flatnonzero(tied)[0])
    assert kappa_max(corpus[48], 2.0).witness_vertex == 1


def test_lift_witness_lives_on_the_two_ball():
    lift = build_lift(sparse_graph(30, 5, seed=3)).graph
    result = kappa_max(lift, 2.0)
    forms = form_family(lift)
    assert all(np.array_equal(sup, forms.block(y).support)
               for y, sup in enumerate(result.supports))
    assert all(w.shape == sup.shape for w, sup in zip(result.witnesses, result.supports))
    x = result.witness_vertex
    assert len(result.supports[x]) < lift.num_vertices
    wit = result.witness(x)
    kap = float(result.per_vertex[x])
    assert bool(cd_check_function(lift, wit, 2.0, kap).passed[x])
    above = kap + 1e-6 * max(1.0, abs(kap))
    assert not bool(cd_check_function(lift, wit, 2.0, above).passed[x])


def test_kappa_max_peak_is_below_one_dense_array():
    # the reduced matrices live on the 1-balls and the witnesses on the
    # 2-balls, so on a 2000-vertex lift the traced peak of kappa_max stays
    # below one N x N complex array (61 MiB)
    lift = build_lift(sparse_graph(500, 4, seed=1)).graph
    n = lift.num_vertices
    tracemalloc.start()
    try:
        kappa_max(lift, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n


def test_all_ones_fails_above_vertex_kappa_t3(t3):
    # on this triangle the constant function already witnesses the optimum
    result = kappa_max(t3, 2.0)
    f = np.ones(3, dtype=complex)
    for x in range(3):
        chk = cd_check_function(t3, f, 2.0, float(result.per_vertex[x]) + 1.0)
        if not bool(chk.passed[x]):
            break
    else:
        pytest.fail("constant function never failed above the per-vertex optimum")


def test_monotone_in_dimension():
    rng = np.random.default_rng(77)
    for _ in range(8):
        g = random_magnetic_graph(int(rng.integers(3, 8)), 0.6,
                                  int(rng.choice([2, 3, 4])), rng=rng)
        ks = [kappa_max(g, n).kappa_max for n in (2.0, 3.0, 5.0, math.inf)]
        for a, b in zip(ks, ks[1:]):
            assert a <= b + 1e-9


def test_one_form_build_serves_every_curvature_check(monkeypatch):
    # On a 6-cycle every vertex has degree 2, so every reduced matrix is 2 x 2
    # and the checks read one stack.
    g = two_n_cycle(3, 3)
    builds = []
    build = _one_ball.__wrapped__
    monkeypatch.setattr(_one_ball, "__wrapped__",
                        lambda h: builds.append(h) or build(h))
    km = kappa_max(g, 2.0).kappa_max
    check = cd_check_graph(g, 2.0, km - 1e-6)
    assert check.passed and check.min_eigenvalues.shape == (6,)
    assert not cd_check_graph(g, 2.0, km + 1e-6).passed
    assert builds == [g]
    assert [(xs.tolist(), R.shape, u.shape) for xs, R, u in _one_ball(g).stacks] == [
        ([0, 1, 2, 3, 4, 5], (6, 2, 2), (6, 2))]


def test_curvature_checks_read_the_stored_stacks(monkeypatch):
    # the reduction is stored, not rebuilt per call; kappa_max takes one
    # eigensolve per degree, on the stored stack of that degree, and
    # cd_check_graph reads the stored kappa_max without solving anything
    g = from_edge_list(5, 3, [(0, 1, 1.0, 1), (1, 2, 0.5, 0), (2, 0, 2.0, 2),
                              (2, 3, 1.0, 1), (3, 4, 1.5, 0)])
    stored = _one_ball(g).stacks
    assert [R.shape[1] for _, R, _ in stored] == [1, 2, 3]
    solved = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(curvature.np.linalg, name,
                            lambda A, solve=solve: solved.append(A.shape) or solve(A))
    kappa_max(g, 2.0)
    cd_check_graph(g, 2.0, 0.0)
    assert solved == [R.shape for _, R, _ in stored]
    assert _one_ball(g).stacks is stored
    assert all(not a.flags.writeable for st in stored for a in st)


def test_one_kappa_max_build_serves_every_certificate(monkeypatch, t3):
    # the "auto" kappa of the bounds and every cd_check_graph read one stored
    # kappa_max(g, n), and n = 2 and n = 2.0 share it
    builds = []
    build = kappa_max.__wrapped__
    monkeypatch.setattr(kappa_max, "__wrapped__",
                        lambda h, n: builds.append(h) or build(h, n))
    harnack_check(t3, 2)
    eigenvalue_lower_bound(t3, 2.0)
    cheeger_bound_check(t3, 2)
    km = kappa_max(t3, 2.0).kappa_max
    for kappa in (km - 1e-6, km, km + 1e-6):
        cd_check_graph(t3, 2, kappa)
    assert len(builds) == 1 and builds[0] is t3
    result = kappa_max(t3, 2)
    assert result is kappa_max(t3, 2.0) and type(result.n) is float
    assert not result.per_vertex.flags.writeable
    assert not any(w.flags.writeable for w in result.witnesses)


@pytest.mark.parametrize("n", [2.0, math.inf])
def test_both_cd_checks_reject_a_nan_kappa(t3, n):
    # cd_check_graph holds CD(n, -inf), not CD(n, +inf), and decides by its
    # own per-vertex comparison; no infinite kappa raises a warning
    f = np.arange(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="kappa must be a number, got nan"):
            cd_check_graph(t3, n, math.nan)
        with pytest.raises(ValidationError, match="kappa must be a number, got nan"):
            cd_check_function(t3, f, n, math.nan)
        for kappa, want in ((-math.inf, True), (math.inf, False)):
            check = cd_check_graph(t3, n, kappa)
            assert check.passed is want
            assert check.passed == bool(np.all(check.min_eigenvalues >= check.thresholds))


@pytest.mark.parametrize("n", [2.0, math.inf])
@pytest.mark.parametrize("f, flat", [((0, 1, 2), [False, False, False]),
                                     ((1, 1, 1), [False, True, False])])
def test_function_check_holds_an_infinite_kappa_only_where_f_varies(t3, f, flat, n):
    # gamma(f)(x) = 0 exactly at the flat vertices: (1, 1, 1) varies across
    # the edge 0-2, which carries the phase -1. Where gamma(f) > 0, kappa = +inf
    # fails and -inf passes; where it is 0, the kappa term is 0.
    f, flat = np.array(f, dtype=complex), np.array(flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ((np.real(gamma(t3, f)) == 0) == flat).all()
        at_zero = cd_check_function(t3, f, n, 0.0)
        for kappa in (math.inf, -math.inf):
            check = cd_check_function(t3, f, n, kappa)
            assert (check.passed[~flat] == (kappa < 0)).all()
            np.testing.assert_array_equal(check.slack[flat], at_zero.slack[flat])
            np.testing.assert_array_equal(check.passed[flat], at_zero.passed[flat])


def test_kappa_max_allocates_nothing_of_length_ell():
    # the phases are evaluated on the exponents that occur, not on all of
    # Z_ell: at ell = 10^9 a 4-vertex graph stays under 1 MiB. A first call
    # at ell = 5 loads the modules numpy imports lazily, outside the trace.
    def graph(ell):
        return from_edge_list(4, ell, [(0, 1, 1.0, 1), (1, 2, 0.5, 2), (0, 2, 2.0, ell - 1),
                                       (2, 3, 1.5, 123_456_789 % ell)])

    kappa_max(graph(5), 2.0)
    g = graph(10 ** 9)
    tracemalloc.start()
    try:
        kappa_max(g, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(graph_strategy(max_vertices=6))
@settings(max_examples=15, deadline=None)
def test_pencil_vs_bisection_random(g):
    pencil = kappa_max(g, 2.0).kappa_max
    bisect = kappa_max_bisect(g, 2.0)
    assert abs(pencil - bisect) <= 1e-6


def test_kappa_max_relabeling_invariant():
    rng = np.random.default_rng(123)
    for _ in range(5):
        g = random_magnetic_graph(6, 0.6, 3, rng=rng)
        perm = rng.permutation(6)
        relabeled = from_edge_list(
            6, 3, [(int(perm[e.u]), int(perm[e.v]), e.w, e.s) for e in g.edges])
        a = kappa_max(g, 2.0).kappa_max
        b = kappa_max(relabeled, 2.0).kappa_max
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_curvature_json(t3):
    payload = kappa_max(t3, 2.0).to_json_dict()
    assert set(payload) == {"n", "kappa_max", "per_vertex", "witness_vertex"}
    assert len(payload["per_vertex"]) == 3




def locally_balanced(g, x):
    """Exponent potentials on B2(x) that every edge with an end in S1(x)
    respects, from x's star outwards, or None if the edges at S1(x) are not
    balanced."""
    star = {y for y, _, _ in g.neighbors(x)}
    pot = {x: 0}
    for y, _, s in g.neighbors(x):
        pot[y] = s
    for y in star:
        for z, _, s in g.neighbors(y):
            pot.setdefault(z, (pot[y] + s) % g.ell)
    ok = all((pot[y] + s - pot[z]) % g.ell == 0 for y in star for z, _, s in g.neighbors(y))
    return pot if ok else None


def test_vertex_pencil_kernel_semantics(corpus):
    """The g_0 direction: where the edges at S1(x) are balanced, the function
    that is constant in their gauge is a common kernel vector of gamma, gamma2
    and |Lf|^2 at x, and no g_0 is eliminated; elsewhere 2 gamma2 along g_0,
    minimised over S2(x), is positive, as the 2-ball forms confirm."""
    seen = set()
    for g in corpus[:80] + [two_n_cycle(3, 3), two_n_cycle(2, 2)]:
        ball, forms, edges = _one_ball(g), form_family(g), g.oriented_edges
        for x in range(g.num_vertices):
            pot = locally_balanced(g, x)
            rows = slice(edges.first[x], edges.first[x] + len(g.neighbors(x)))
            blk = forms.block(x)
            inner = np.isin(blk.support, [x] + [y for y, _, _ in g.neighbors(x)])
            if pot is not None:
                f = np.zeros(g.num_vertices, dtype=complex)
                for v, e in pot.items():
                    f[v] = np.exp(-2j * np.pi * e / g.ell)
                for form in (blk.gamma, blk.gamma2, blk.lap_square):
                    fb = f[blk.support]
                    assert np.abs(form @ fb).max() <= 1e-12
                assert not ball.elim[rows].any()
            else:
                # f = 1 at x and conj(sigma_xy) at y, free on S2(x)
                fb = np.zeros(len(blk.support), dtype=complex)
                fb[np.searchsorted(blk.support, x)] = 1.0
                for y, _, s in g.neighbors(x):
                    fb[np.searchsorted(blk.support, y)] = np.exp(-2j * np.pi * s / g.ell)
                G2 = blk.gamma2
                out = ~inner
                free = -np.linalg.solve(G2[np.ix_(out, out)], G2[np.ix_(out, inner)] @ fb[inner])
                fb[out] = free
                assert np.real(fb.conj() @ G2 @ fb) > 1e-9
            seen.add(pot is None)
    assert seen == {True, False}


def test_merged_stack_matches_each_block_alone(corpus, t3, b3, c4sigma):
    """The vertices of one degree share a stack whatever their graph: twisted
    or not, with or without S2(x). In a disjoint union each vertex gets the
    curvature, witness and PSD margin it gets in its own graph."""
    parts = [t3, b3, c4sigma, two_n_cycle(3, 3), corpus[1], corpus[6], corpus[48],
             from_edge_list(4, 1, [(0, 1, 1.0, 0), (1, 2, 2.0, 0), (1, 3, 0.5, 0)])]
    edges, offset = [], 0
    ell = 12
    for h in parts:
        edges += [(e.u + offset, e.v + offset, e.w, e.s * ell // h.ell) for e in h.edges]
        offset += h.num_vertices
    union = from_edge_list(offset, ell, edges)
    result = kappa_max(union, 2.0)
    check = cd_check_graph(union, 2.0, 0.25)
    offset = 0
    for h in parts:
        alone, part = kappa_max(h, 2.0), slice(offset, offset + h.num_vertices)
        assert np.allclose(result.per_vertex[part], alone.per_vertex, rtol=1e-12, atol=1e-12)
        assert np.allclose(check.min_eigenvalues[part],
                           cd_check_graph(h, 2.0, 0.25).min_eigenvalues, rtol=1e-12, atol=1e-12)
        for x in range(h.num_vertices):
            assert np.array_equal(result.supports[x + offset], alone.supports[x] + offset)
            assert same_direction(result.witnesses[x + offset], alone.witnesses[x])
        offset += h.num_vertices
    assert len({R.shape[1] for _, R, _ in _one_ball(union).stacks}) < len(parts)


def test_witnesses_are_built_once_on_first_read(t3):
    result = kappa_max(t3, 2.0)
    assert "witnesses" not in vars(result) and "_layout" not in vars(result)
    assert result.witnesses is result.witnesses and result.supports is result.supports
    assert not any(a.flags.writeable for a in (*result.witnesses, *result.supports))
    assert kappa_max(t3, 2.0).witnesses is result.witnesses


def test_witnesses_match_the_eager_construction(corpus_and_lifts):
    # per_vertex, witnesses and supports byte for byte against the witnesses
    # mapped at once from one_ball_reference, as kappa_max first did
    for g in corpus_and_lifts:
        for n in (2.0, math.inf):
            result = kappa_max(g, n)
            per, witnesses, supports = witnesses_reference(g, n)
            assert per.tobytes() == result.per_vertex.tobytes()
            for got, want in ((result.witnesses, witnesses), (result.supports, supports)):
                assert len(got) == len(want) == g.num_vertices
                assert all((a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                           for a, b in zip(got, want))


def test_witnesses_outlive_their_graph():
    # a result holds no reference to its graph, and can still build its
    # witnesses after the graph is gone
    edges = [(0, 1, 1.0, 1), (1, 2, 0.5, 0), (2, 0, 2.0, 2), (2, 3, 1.0, 1), (3, 4, 1.5, 0)]
    g = from_edge_list(5, 3, edges)
    result = kappa_max(g, 2.0)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
        witnesses = result.witnesses
    finally:
        gc.enable()
    want = kappa_max(from_edge_list(5, 3, edges), 2.0)
    assert all(np.array_equal(a, b) for a, b in zip(witnesses, want.witnesses))
    assert all(np.array_equal(a, b) for a, b in zip(result.supports, want.supports))
