import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from magcurv import curvature
from magcurv.curvature import (cd_check_function, cd_check_graph, kappa_max,
                               kappa_max_bisect)
from magcurv.errors import DimensionError
from magcurv.graphs import from_edge_list, random_magnetic_graph
from magcurv.lift import build_lift
from magcurv.operators import form_family

from .conftest import graph_strategy, random_functions, sparse_graph, two_n_cycle
from .oracles import same_direction, vertex_kappa_reference


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
    """The reduced pencil gives kappa = 2 on an isolated edge at n = inf;
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
    wit = result.witnesses[x]
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
    x = result.witness_vertex
    forms = form_family(lift)
    assert all(w.shape == forms.block(y).support.shape for y, w in enumerate(result.witnesses))
    support = forms.block(x).support
    assert len(support) < lift.num_vertices
    wit = np.zeros(lift.num_vertices, dtype=complex)
    wit[support] = result.witnesses[x]
    kap = float(result.per_vertex[x])
    assert bool(cd_check_function(lift, wit, 2.0, kap).passed[x])
    above = kap + 1e-6 * max(1.0, abs(kap))
    assert not bool(cd_check_function(lift, wit, 2.0, above).passed[x])


def test_kappa_max_peak_is_below_one_dense_array():
    # forms and witnesses live on the 2-balls, so on a 2000-vertex lift the
    # traced peak of kappa_max stays below one N x N complex array (61 MiB)
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
    # On a 6-cycle every 2-ball misses a vertex, so each check reads blocks
    # smaller than N x N.
    g = two_n_cycle(3, 3)
    builds = []
    build = form_family.__wrapped__
    monkeypatch.setattr(form_family, "__wrapped__",
                        lambda h: builds.append(h) or build(h))
    km = kappa_max(g, 2.0).kappa_max
    check = cd_check_graph(g, 2.0, km - 1e-6)
    assert check.passed and check.min_eigenvalues.shape == (6,)
    assert abs(kappa_max_bisect(g, 2.0) - km) <= 1e-6
    assert builds == [g]
    assert [(xs.tolist(), blk.gamma.shape) for xs, blk in form_family(g).stacks] == [
        ([0, 1, 2, 3, 4, 5], (6, 5, 5))]


def test_curvature_checks_read_the_stored_stacks(monkeypatch):
    # the stacks are stored, not gathered per call: every access hands out
    # the arrays of the one build, and the pencil receives them uncopied
    g = two_n_cycle(3, 3)
    stored = form_family(g).stacks
    received = []
    forms = curvature.form_family
    monkeypatch.setattr(curvature, "form_family",
                        lambda h: received.append(forms(h)) or received[-1])
    solved = []
    solve = curvature._vertex_kappa
    monkeypatch.setattr(curvature, "_vertex_kappa",
                        lambda A, G: solved.append(G) or solve(A, G))
    kappa_max(g, 2.0)
    cd_check_graph(g, 2.0, 0.0)
    assert len(received) == 2
    for got in received:
        for (xs, blk), (xs0, blk0) in zip(got.stacks, stored, strict=True):
            assert xs is xs0 and all(a is b for a, b in zip(blk, blk0))
    assert len(solved) == len(stored)
    assert all(np.shares_memory(G, blk.gamma) for G, (_, blk) in zip(solved, stored))


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


def test_vertex_pencil_kernel_semantics():
    """Synthetic pencils exercising the supremum solver directly, solved as one
    stack: a negative block on ker(G) or a coupling into a null kernel
    direction means no finite kappa works; otherwise the result must match
    brute-force bisection. Each entry, witness included, matches the
    one-vertex reference solver, so the masks never mix up blocks."""
    from magcurv.curvature import _vertex_kappa

    G = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
    rng = np.random.default_rng(2)

    def hermitian():
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return (B + B.conj().T) / 2.0

    # negative eigenvalue on the kernel of G
    negative = np.diag([1.0, 1.0, -0.3, 0.1]).astype(complex)
    # PSD kernel block but range couples into its null direction
    coupled = np.diag([1.0, 1.0, 0.4, 0.0]).astype(complex)
    coupled[0, 3] = coupled[3, 0] = 0.2
    # well-posed case with genuine kernel coupling: Schur term active
    schur = hermitian() + 4.0 * np.eye(4)  # push the kernel block positive definite
    # plain definite pencil: G of full rank, solved in a rank group of its own
    F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    definite = (hermitian(), F @ F.conj().T + np.eye(4))
    pencils = [(negative, G), (schur, G), (coupled, G), definite]

    kap, wit = _vertex_kappa(np.array([A for A, _ in pencils]),
                             np.array([B for _, B in pencils]))
    assert kap.shape == (4,) and wit.shape == (4, 4)
    for (A, B), k, w in zip(pencils, kap, wit):
        want, want_wit = vertex_kappa_reference(A, B)
        if want == -math.inf:
            assert k == -math.inf
        else:
            assert abs(k - want) <= 1e-12 * max(1.0, abs(want))
        assert same_direction(w, want_wit)

    assert kap[0] == -math.inf
    assert abs(wit[0].conj() @ negative @ wit[0]) > 0.0
    assert kap[2] == -math.inf

    for (A, B), k, w in zip(pencils[1::2], kap[1::2], wit[1::2]):
        def psd(t):
            return np.linalg.eigvalsh(A - t * B)[0] >= -1e-12

        lo, hi = -64.0, 64.0
        assert psd(lo) and not psd(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if psd(mid) else (lo, mid)
        assert abs(k - lo) <= 1e-7
        resid = np.linalg.norm((A - k * B) @ w)
        assert resid <= 1e-6 * np.linalg.norm(A)


def test_merged_stack_matches_each_block_alone():
    """One stack holding every kernel dimension 0..k-1 of gamma, with a
    negative kernel block, a coupling into a null kernel direction and an
    active Schur step, gives each block what it gets as a stack of one: the
    padding of the shared eigensolves never reaches another block."""
    from magcurv.curvature import _vertex_kappa

    rng = np.random.default_rng(7)

    def complex_normal():
        return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def hermitian():
        B = complex_normal()
        return (B + B.conj().T) / 2.0

    def rotated(A, G):
        U = np.linalg.qr(complex_normal())[0]
        return U @ A @ U.conj().T, U @ np.diag(G).astype(complex) @ U.conj().T

    coupled = np.diag([1.0, 1.0, 0.4, 0.0]).astype(complex)
    coupled[0, 3] = coupled[3, 0] = 0.2
    F = complex_normal()
    pencils = [
        (hermitian(), F @ F.conj().T + np.eye(4)),                           # d = 0
        rotated(hermitian() + 4.0 * np.eye(4), [1.0, 0.5, 0.25, 0.0]),        # d = 1, Schur
        rotated(np.diag([1.0, 1.0, -0.3, 0.1]).astype(complex),
                [1.0, 0.5, 0.0, 0.0]),                                       # d = 2, negative
        rotated(coupled, [1.0, 0.5, 0.0, 0.0]),                              # d = 2, coupled
        rotated(hermitian() + 4.0 * np.eye(4), [2.0, 0.0, 0.0, 0.0]),         # d = 3, Schur
    ]
    A = np.array([a for a, _ in pencils])
    G = np.array([b for _, b in pencils])
    kap, wit = _vertex_kappa(A, G)
    assert [math.isinf(k) for k in kap] == [False, False, True, True, False]
    for i in range(len(pencils)):
        alone, alone_wit = _vertex_kappa(A[i:i + 1], G[i:i + 1])
        if math.isinf(alone[0]):
            assert kap[i] == alone[0]
        else:
            assert abs(kap[i] - alone[0]) <= 1e-12 * max(1.0, abs(alone[0]))
        assert same_direction(wit[i], alone_wit[0])
