import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from magcurv import lift as lift_module
from magcurv import operators
from magcurv.bounds import lift_diameter_check
from magcurv.curvature import cd_check_function, cd_check_graph, kappa_max
from magcurv.errors import PreconditionError, SizeError, ValidationError
from magcurv.graphs import MagneticGraph, connected_components, diameter, is_connected
from magcurv.lift import (LiftGraph, build_lift, lift_diameter, lift_function,
                          verify_lift_identities)
from magcurv.operators import laplacian_matrix, spectrum

from .conftest import (LIFT_SHAPES, graph_strategy, random_functions, sparse_graph,
                       twisted)
from .oracles import lift_identities_reference


def assert_is_cycle(g, length):
    assert g.num_vertices == length
    assert is_connected(g)
    assert all(len(g.neighbors(x)) == 2 for x in range(length))


def test_t3_lift_is_six_cycle(t3):
    lift = build_lift(t3)
    assert_is_cycle(lift.graph, 6)
    assert diameter(lift.graph) == 3


def test_c4sigma_lift_is_eight_cycle(c4sigma):
    lift = build_lift(c4sigma)
    assert_is_cycle(lift.graph, 8)
    assert diameter(lift.graph) == 4  # n * ell with n = 2, ell = 2


def test_b3_lift_is_two_disjoint_triangles(b3):
    lift = build_lift(b3)
    comps = connected_components(lift.graph)
    assert len(comps) == 2
    assert sorted(map(len, comps)) == [3, 3]
    # identity signature copies the base per level
    assert all(len(lift.graph.neighbors(x)) == 2 for x in range(6))


def test_lift_degree_preservation(corpus):
    for g in corpus[:10]:
        lift = build_lift(g)
        for x in range(g.num_vertices):
            for k in range(g.ell):
                i = lift.vertex_index(x, k)
                assert lift.graph.degrees[i] == g.degrees[x]


def test_lift_homomorphism_onto_base(t3):
    lift = build_lift(t3)
    base_pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in t3.edges}
    for e in lift.graph.edges:
        bu, _ = lift.vertex_label(e.u)
        bv, _ = lift.vertex_label(e.v)
        assert (min(bu, bv), max(bu, bv)) in base_pairs


def test_level_shift_is_automorphism(t3, c4sigma):
    for g in (t3, c4sigma):
        lift = build_lift(g)
        n, ell = g.num_vertices, g.ell
        adj = np.zeros((n * ell, n * ell))
        for e in lift.graph.edges:
            adj[e.u, e.v] = e.w
            adj[e.v, e.u] = e.w
        shift = np.zeros_like(adj)
        for x in range(n):
            for k in range(ell):
                shift[lift.vertex_index(x, (k + 1) % ell), lift.vertex_index(x, k)] = 1.0
        assert np.array_equal(shift @ adj @ shift.T, adj)


def test_lift_function_examples(t3):
    assert np.all(lift_function(t3, np.zeros(3)) == 0)
    fh = lift_function(t3, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(fh, [1, -1, 0, 0, 0, 0], atol=1e-12)
    with pytest.raises(ValidationError):
        lift_function(t3, np.ones(4))


def test_lift_function_lifts_a_batch_column_by_column(corpus):
    for g in corpus[:20]:
        fs = random_functions(g, 3, seed=5)
        batch = lift_function(g, fs)
        assert batch.shape == (g.num_vertices * g.ell, 3)
        for j in range(3):
            assert np.array_equal(batch[:, j], lift_function(g, fs[:, j]))


def test_lift_function_rejects_non_finite_values(t3):
    with pytest.raises(ValidationError, match="non-finite"):
        lift_function(t3, np.array([1.0, np.nan, 0.0]))


@given(graph_strategy())
@settings(max_examples=30, deadline=None)
def test_lift_norm_scaling(g):
    f = random_functions(g, 1, seed=4)[:, 0]
    fh = lift_function(g, f)
    lhs = np.linalg.norm(fh) ** 2
    rhs = g.ell * np.linalg.norm(f) ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_lift_identities_t3(t3):
    rep = verify_lift_identities(t3)
    assert rep.max_energy_residual <= 1e-12
    assert rep.max_laplacian_residual <= 1e-12
    assert rep.max_eigenpair_residual <= 1e-9
    assert rep.all_ok


def _relifted(g, change):
    """build_lift(g) with its edge list passed through ``change``."""
    lifted = build_lift(g).graph
    return LiftGraph(ell=g.ell, graph=MagneticGraph(lifted.num_vertices, 1,
                                                    tuple(change(list(lifted.edges), g.ell))))


def _move_up_one_level(edges, ell):
    e = edges[0]
    return [e._replace(v=e.v - e.v % ell + (e.v + 1) % ell)] + edges[1:]


WRONG_LIFTS = {
    # two disjoint triangles, the lift of the untwisted triangle
    "untwisted": lambda g: build_lift(g.untwisted()),
    "first_edge_dropped": lambda g: _relifted(g, lambda edges, ell: edges[1:]),
    "first_edge_one_level_up": lambda g: _relifted(g, _move_up_one_level),
    "one_weight_x1.001": lambda g: _relifted(
        g, lambda edges, ell: [edges[0]._replace(w=edges[0].w * 1.001)] + edges[1:]),
}


@pytest.mark.parametrize("wrong", WRONG_LIFTS)
def test_lift_identities_reject_a_wrong_lift(monkeypatch, t3, wrong):
    # Not the covering graph of t3: all three identities must fail.
    monkeypatch.setattr(lift_module, "build_lift", WRONG_LIFTS[wrong])
    rep = verify_lift_identities(t3)
    assert rep.max_energy_residual > lift_module.ENERGY_TOL
    assert rep.max_laplacian_residual > lift_module.LAPLACIAN_TOL
    assert rep.max_eigenpair_residual > lift_module.EIGENPAIR_TOL
    assert not rep.all_ok


def test_build_lift_and_the_identities_share_one_lift(monkeypatch, t3):
    builds = []
    build = lift_module._lift.__wrapped__
    monkeypatch.setattr(lift_module._lift, "__wrapped__",
                        lambda h: builds.append(h) or build(h))
    lift = build_lift(t3)
    assert verify_lift_identities(t3).all_ok
    assert builds == [t3]
    assert build_lift(t3).graph is lift.graph


def test_build_lift_budget_is_checked_before_the_store(t3):
    # N * ell = 6 lift vertices: a budget of 5 raises and stores nothing, and
    # the stored lift is the same under every budget that admits it
    with pytest.raises(SizeError, match="^lift needs 6 vertices, over budget 5$"):
        build_lift(t3, budget=5)
    assert not vars(t3).get("_memo")
    lift = build_lift(t3, budget=6)
    assert build_lift(t3) is lift and build_lift(t3, budget=10**12) is lift
    assert len(vars(t3)["_memo"]) == 1


def _t3_at(ell):
    return MagneticGraph(3, ell, ((0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1)))


def test_lift_diameter_checks_its_states_before_it_walks(monkeypatch):
    # t3 at ell = 7: N * N * ell = 63 states; an overrun is stored as its
    # verdict under its budget, and the diameter under another
    g = _t3_at(7)
    walks = []
    walk = lift_module._farthest_walk
    monkeypatch.setattr(lift_module, "_farthest_walk",
                        lambda h, modulus: walks.append(modulus) or walk(h, modulus))
    for _ in range(2):
        with pytest.raises(SizeError, match="^lift diameter needs 63 BFS states, over budget 62$"):
            lift_diameter(g, 62)
    assert walks == []
    assert lift_diameter(g, 63) == lift_diameter(g, budget=63) == 10 and walks == [7]
    assert lift_diameter(g) == 10 and walks == [7, 7]


def test_lift_diameter_refuses_a_billion_levels_at_once():
    # walking would allocate a list of 3 * 10^9 states for each root
    g = _t3_at(10**9)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SizeError, match="^lift diameter needs 9000000000 BFS states, "
                                            "over budget 10000000$"):
            lift_diameter(g)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 1 << 20


def test_build_lift_is_stored_as_built(t3):
    assert build_lift(t3) is build_lift(t3)
    assert build_lift(t3) == LiftGraph(ell=2, graph=build_lift(t3).graph)
    assert build_lift(t3.untwisted()) is not build_lift(t3)


def test_eigenpair_check_memory_does_not_grow_with_the_eigenpairs():
    # 500 eigenpairs on a lift of 6000 rows: lifted all at once, they and
    # their row differences would peak near 126 MiB; in blocks of columns the
    # peak is the lift, its tables and one block, about 5 MiB.
    g = sparse_graph(500, 4, seed=1)
    spectrum(g)   # the dense eigensolve of the base is not the check's
    tracemalloc.start()
    try:
        assert verify_lift_identities(g).all_ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_eigenpair_check_in_narrow_blocks_keeps_every_bit(monkeypatch, corpus):
    # the corpus lifts fit in one block; blocks of two or three columns must
    # give the same residuals, bit for bit, and miss no column
    whole = [verify_lift_identities(g) for g in corpus]
    monkeypatch.setattr(lift_module, "EIGENPAIR_BLOCK", 1)
    assert [verify_lift_identities(g) for g in corpus] == whole


def assert_matches_dense_reference(g):
    got, want = verify_lift_identities(g), lift_identities_reference(g)
    assert got.all_ok == want.all_ok
    for field in ("max_energy_residual", "max_laplacian_residual",
                  "max_eigenpair_residual"):
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-15, field


def test_lift_identities_match_dense_reference(corpus):
    for g in corpus:
        assert_matches_dense_reference(g)
    for shape in LIFT_SHAPES:
        assert_matches_dense_reference(sparse_graph(*shape, seed=sum(shape)))


@given(graph_strategy())
@settings(max_examples=40, deadline=None)
def test_lift_identities_match_dense_reference_fuzz(g):
    assert_matches_dense_reference(g)


def test_lift_identities_need_no_dense_laplacian(monkeypatch, t3, corpus):
    graphs = [t3, *corpus[:20]]
    for g in graphs:
        spectrum(g)   # memoised: the base spectrum is the dense Laplacian's one use

    def dense(_):
        raise AssertionError("verify_lift_identities built a dense Laplacian")

    monkeypatch.setattr(operators, "laplacian_matrix", dense)
    monkeypatch.setattr(lift_module, "laplacian_matrix", dense, raising=False)
    for g in graphs:
        assert verify_lift_identities(g).all_ok


def test_zero_function_zero_residual(t3):
    lift = build_lift(t3)
    fh = lift_function(t3, np.zeros(3))
    resid = laplacian_matrix(lift.graph) @ fh
    assert np.all(resid == 0)


def test_t3_spectrum_embeds_in_six_cycle_spectrum(t3):
    lift = build_lift(t3)
    lift_eigs = spectrum(lift.graph).eigenvalues
    # closed form for the 6-cycle: 1 - cos(pi j / 3)
    expected = np.sort([1.0 - math.cos(math.pi * j / 3.0) for j in range(6)])
    np.testing.assert_allclose(lift_eigs, expected, atol=1e-12)
    base_eigs = spectrum(t3).eigenvalues
    remaining = list(lift_eigs)
    for lam in base_eigs:
        j = int(np.argmin(np.abs(np.array(remaining) - lam)))
        assert abs(remaining[j] - lam) <= 1e-9
        remaining.pop(j)


def test_lift_diameter_check_examples(t3, c4sigma, b3):
    res = lift_diameter_check(c4sigma)
    assert (res.lift_diameter, res.bound, res.passed) == (4, 12, True)
    res = lift_diameter_check(t3)
    assert (res.lift_diameter, res.bound, res.passed) == (3, 8, True)
    with pytest.raises(PreconditionError) as err:
        lift_diameter_check(b3)
    assert err.value.hypothesis in ("unbalanced", "entire signature")


def test_lift_diameter_without_the_lift(corpus, b3):
    for g in corpus:
        assert lift_diameter(g) == diameter(build_lift(g).graph)
    # balanced with ell = 2: the lift is two disjoint triangles
    assert lift_diameter(b3) == math.inf == diameter(build_lift(b3).graph)


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_lift_diameter_matches_lift_bfs(g):
    assert lift_diameter(g) == diameter(build_lift(g).graph)


def test_lift_connectivity_fuzz(small_corpus):
    from magcurv.graphs import signature_status
    checked = 0
    for g in small_corpus:
        status = signature_status(g)
        if status.balanced or not status.entire:
            continue
        assert is_connected(build_lift(g).graph)
        checked += 1
    assert checked >= 10


def test_local_cd_transfer(small_corpus):
    """A function satisfying the magnetic CD inequality lifts to one satisfying
    the plain CD inequality on the covering graph, at the same (n, kappa)."""
    from magcurv.operators import gamma, gamma2

    for g in small_corpus[:6]:
        f = random_functions(g, 1, seed=8)[:, 0]
        # tightest kappa this particular f satisfies at n = 2, backed off a hair
        gam = np.real(gamma(g, f))
        gam2 = np.real(gamma2(g, f))
        lf2 = np.abs(laplacian_matrix(g) @ f) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = np.where(gam > 1e-9, (gam2 - 0.5 * lf2) / gam, np.inf)
        kap = float(crit.min()) - 1e-7
        assert cd_check_function(g, f, 2.0, kap).all_passed
        lift = build_lift(g)
        fh = lift_function(g, f)
        assert cd_check_function(lift.graph, fh, 2.0, kap).all_passed


def test_lifted_functions_inherit_certified_curvature(small_corpus):
    for g in small_corpus[:6]:
        kap = kappa_max(g, 2.0).kappa_max
        lift = build_lift(g)
        fs = random_functions(g, 20, seed=13)
        for j in range(fs.shape[1]):
            fh = lift_function(g, fs[:, j])
            assert cd_check_function(lift.graph, fh, 2.0, kap).all_passed


def test_lift_cd_implies_base_cd(small_corpus):
    """CD on the covering graph forces the magnetic CD on the base."""
    for g in small_corpus[:6]:
        lift = build_lift(g)
        kap_lift = kappa_max(lift.graph, 2.0).kappa_max
        assert cd_check_graph(g, 2.0, kap_lift - 1e-8).passed


def test_lift_spectrum_is_the_union_of_the_twisted_spectra(corpus):
    for g in corpus:
        lifted = spectrum(build_lift(g).graph).eigenvalues
        union = np.sort(np.concatenate([spectrum(twisted(g, j)).eigenvalues
                                        for j in range(g.ell)]))
        assert np.abs(np.sort(lifted) - union).max() <= 1e-12


def test_lift_curvature_is_at_most_every_twisted_curvature(corpus):
    # Gamma, Gamma2 and |L.|^2 pull back along each character embedding, so
    # kappa(lift) <= kappa(twisted(g, j)) for every j; it is not an equality.
    strict = 0
    for g in corpus:
        lift = build_lift(g).graph
        for n in (2.0, math.inf):
            k_lift = kappa_max(lift, n).kappa_max
            k_min = min(kappa_max(twisted(g, j), n).kappa_max for j in range(g.ell))
            if k_min == -math.inf:
                assert k_lift == -math.inf
                continue
            assert k_lift <= k_min + 1e-12 * max(1.0, abs(k_min))
            strict += k_lift < k_min - 1e-9
    assert strict > 0
