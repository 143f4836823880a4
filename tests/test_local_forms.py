"""The 1-ball reduction of kappa_max and cd_check_graph against the oracles in
tests/oracles.py: the reference solver on the 2-ball forms, the dense
(N, N, N) forms, and exact PSD decisions in rational arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from magcurv import curvature
from magcurv.curvature import GRADED, _one_ball, cd_check_function, cd_check_graph, kappa_max
from magcurv.graphs import from_edge_list
from magcurv.lift import build_lift

from .conftest import LIFT_SHAPES, badly_scaled_graphs, build_corpus, sparse_graph
from .oracles import (cd_check_reference, dense_form_family, dense_kappa_per_vertex,
                      embedded_forms, exact_cd_holds, form_family, one_ball_reference,
                      two_ball_kappa)

N_DIM = 2.0


def assert_kernel_matches_reference(g):
    """kappa_max against the reference solver on the same 2-ball blocks:
    kappa within 1e-12 relative, no -inf on either side, the witnesses on
    the blocks' supports, and each witness w a null direction of the pencil:
    |w*(A - kappa G)w| / |w|^2 within 1e-12 times |A|, or at most twice the
    reference witness's."""
    result = kappa_max(g, N_DIM)
    want, want_wits = two_ball_kappa(g, N_DIM)
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(result.per_vertex))
    forms = form_family(g)
    for x in range(g.num_vertices):
        blk = forms.block(x)
        assert np.array_equal(result.supports[x], blk.support)
        A = blk.gamma2 - blk.lap_square / N_DIM
        got, wit = result.per_vertex[x], result.witnesses[x]
        assert abs(got - want[x]) <= 1e-12 * max(1.0, abs(want[x]))
        scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))

        def residue(w, kappa):
            return abs(np.vdot(w, (A - kappa * blk.gamma) @ w)) / np.vdot(w, w).real

        assert residue(wit, got) <= max(1e-12 * scale, 2.0 * residue(want_wits[x], want[x]))


def assert_matches_dense_oracle(g):
    """The 2-ball blocks equal the dense forms, per-vertex kappa equals the
    dense route's, and the CD certificates decide as the dense PSD tests do."""
    n = g.num_vertices
    dense = dense_form_family(g)
    forms = form_family(g)
    for x in range(n):
        for local, full in zip(embedded_forms(forms, x, n), (f[x] for f in dense)):
            assert np.abs(local - full).max() <= 1e-14 * max(1.0, np.abs(full).max())
    result = kappa_max(g, N_DIM)
    got = result.per_vertex
    want = dense_kappa_per_vertex(dense, N_DIM)
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert_kernel_matches_reference(g)

    km = result.kappa_max
    step = 1e-6 * max(1.0, abs(km))
    G, G2, Q = dense
    for kappa in (km - step, km, km + step):
        check = cd_check_graph(g, N_DIM, kappa)
        eigs = [np.linalg.eigvalsh(G2[x] - Q[x] / N_DIM - kappa * G[x]) for x in range(n)]
        mins = np.array([e[0] for e in eigs])
        scales = np.array([max(1.0, np.abs(e).max()) for e in eigs])
        assert check.passed == bool(np.all(mins >= -1e-9 * scales))
        # the reduced matrix at x has the eigenvalues of R_x - (1/n) u u^H,
        # shifted by kappa, so its least one is kappa_x - kappa
        assert np.all(np.abs(check.min_eigenvalues - (got - kappa))
                      <= 1e-12 * np.maximum(1.0, np.abs(got)))
        assert np.all(check.thresholds <= -1e-9)
        assert check.passed == bool(np.all(check.min_eigenvalues >= check.thresholds))


def assert_matches_cd_reference(g):
    """cd_check_graph, which reads kappa_max, against cd_check_reference, which
    solves A_x = R_x - (1/n) u_x u_x^H - kappa I itself, at kappa_max and
    1e-6 s on either side, s = max(1, |kappa_max|): the same decisions, and
    least eigenvalues within 1e-12 * max(1, |kappa_x|), or within eigvalsh's
    own error, 1e-14 ||A_x||, where ||A_x|| exceeds GRADED * max(1, |kappa_x|)."""
    result = kappa_max(g, N_DIM)
    norms = np.empty(g.num_vertices)
    for xs, R, u in _one_ball(g).stacks:
        norms[xs] = np.linalg.norm(R - u[:, :, None] * u.conj()[:, None, :] / N_DIM, 2,
                                   axis=(1, 2))
    tol = 1e-12 * np.maximum(np.maximum(1.0, np.abs(result.per_vertex)), norms / GRADED)
    km = result.kappa_max
    step = 1e-6 * max(1.0, abs(km))
    for kappa in (km - step, km, km + step):
        got, want = cd_check_graph(g, N_DIM, kappa), cd_check_reference(g, N_DIM, kappa)
        assert got.passed == want.passed == (kappa <= km)
        assert np.all(np.abs(got.min_eigenvalues - want.min_eigenvalues) <= tol)
        assert np.array_equal(got.thresholds, want.thresholds)


def test_corpus_matches_the_cd_reference(corpus):
    for g in corpus:
        assert_matches_cd_reference(g)


@pytest.mark.parametrize("shape", LIFT_SHAPES)
def test_lift_matches_the_cd_reference(shape):
    assert_matches_cd_reference(build_lift(sparse_graph(*shape, seed=sum(shape))).graph)


def test_corpus_matches_dense_oracle(corpus):
    for g in corpus:
        assert_matches_dense_oracle(g)


@pytest.mark.parametrize("seed", [3, 77])
def test_other_corpus_seeds_match_the_two_ball_oracle(seed):
    for g in build_corpus(200, seed0=seed):
        for n in (N_DIM, math.inf):
            want, _ = two_ball_kappa(g, n)
            got = kappa_max(g, n).per_vertex
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("shape", LIFT_SHAPES)
def test_lift_matches_dense_oracle(shape):
    lift = build_lift(sparse_graph(*shape, seed=sum(shape))).graph
    assert all(blk.support.shape[1] < lift.num_vertices
               for _, blk in form_family(lift).stacks)
    assert_matches_dense_oracle(lift)


def test_exact_cd_decision_at_the_witness_vertex(corpus):
    # rational arithmetic, no rounding: CD(2, kappa_max - 1e-9 s) holds and
    # CD(2, kappa_max + 1e-6 s) fails at the witness vertex, s = max(1, |kappa|)
    for g in corpus:
        result = kappa_max(g, N_DIM)
        x, km = result.witness_vertex, result.kappa_max
        s = max(1.0, abs(km))
        assert exact_cd_holds(g, x, N_DIM, km - 1e-9 * s)
        assert not exact_cd_holds(g, x, N_DIM, km + 1e-6 * s)


# Relative error of kappa_x that badly scaled weights may cause, judged exactly.
# Over 4200 seeded graphs drawn this way (about 19 000 vertices), one vertex
# needed 1e-4, three more 1e-6 to 1e-5 and a dozen 1e-9 to 1e-7: two
# neighbours y, y' of x with tiny a_y, a_y' joined by a heavy edge make R_x
# graded and nearly singular on them, so the rounding of its entries moves
# kappa_x. The level keeps a decade above the worst of them.
BADLY_SCALED_LEVEL = 1e-3


# A path whose two weights differ by 1e16: at the middle vertex a_y is 1e-16
# on one side, so the reduced matrix is graded.
@example(from_edge_list(3, 2, [(0, 1, 1e-8, 1), (1, 2, 1e8, 0)]))
# At vertex 5 the reduced matrix is graded, and eigh's eigenvector alone, not
# refined by inverse iteration, is 0.2 s away from a null direction.
@example(from_edge_list(7, 3, [
    (0, 1, 126.87418669030156, 1), (0, 2, 0.0006753447777385913, 0),
    (0, 3, 45297.035191862786, 0), (0, 4, 300690.66109632445, 2),
    (0, 5, 0.00030590423042271733, 1), (0, 6, 0.0037786518630023073, 1),
    (1, 2, 150364.9670024538, 1), (1, 3, 5422182.76827492, 2),
    (1, 4, 1914586.5488149899, 2), (1, 6, 114.18251468287674, 0),
    (2, 3, 1.6902927055033876e-05, 1), (2, 4, 85144366.94376658, 1),
    (2, 5, 1.350995557084398e-08, 0), (3, 5, 0.0007774930154806764, 1),
    (4, 5, 32895453.6842967, 2), (4, 6, 0.009137317280925896, 1),
    (5, 6, 4.075238360491931, 2)]))
# At vertex 4, a_y = 1.6e-7 on the edge to 2, and nearly all of 2's weight is
# on its edge to 5, so the reduced matrix has norm 2.6e6. Its least eigenvalue
# is accurate only to about eps times that norm, and a PSD cut relative to the
# norm would accept CD(2, kappa_max + 1e-3), which vertex 4 fails exactly.
@example(from_edge_list(6, 4, [
    (0, 1, 833958.72678278, 1), (0, 2, 1.543964250948393e-08, 0),
    (0, 5, 1418404.3293725848, 2), (1, 4, 3.251330075968762, 2),
    (2, 3, 5.354859650606114e-07, 1), (2, 4, 1.0945077053506912e-05, 1),
    (2, 5, 77726370.0352237, 1), (3, 4, 5.954235611185723, 2),
    (3, 5, 1552336.7567662501, 1), (4, 5, 59.32570343212359, 0)]))
@given(badly_scaled_graphs())
@settings(max_examples=30, deadline=None)
def test_badly_scaled_weights(g):
    # at every vertex, in rational arithmetic: CD(2, kappa_x - level s)
    # holds and CD(2, kappa_x + level s) fails, s = max(1, |kappa_x|); the
    # witness, to the same level, is a null direction of M_x(2, kappa_x)
    result = kappa_max(g, N_DIM)
    per = result.per_vertex
    assert np.all(np.isfinite(per))
    for x, kappa in enumerate(per.tolist()):
        tol = BADLY_SCALED_LEVEL * max(1.0, abs(kappa))
        assert exact_cd_holds(g, x, N_DIM, kappa - tol)
        assert not exact_cd_holds(g, x, N_DIM, kappa + tol)
        w = result.witness(x)
        assert cd_check_function(g, w, N_DIM, kappa - tol).passed[x]
        assert not cd_check_function(g, w, N_DIM, kappa + tol).passed[x]
    # cd_check_graph decides on the matrices kappa_max solves, so it holds
    # at kappa_max and fails 1e-6 s above it
    km = result.kappa_max
    assert cd_check_graph(g, N_DIM, km).passed
    assert not cd_check_graph(g, N_DIM, km + 1e-6 * max(1.0, abs(km))).passed


@example(from_edge_list(3, 2, [(0, 1, 1e-8, 1), (1, 2, 1e8, 0)]))
@given(badly_scaled_graphs())
@settings(max_examples=30, deadline=None)
def test_badly_scaled_weights_match_the_cd_reference(g):
    assert_matches_cd_reference(g)


def dense_badly_scaled_edges() -> tuple[int, int, list]:
    """K_11 at ell = 3 with weights 2^k, k in -26..26 (exact in binary, which
    keeps the rational arithmetic fast): (N, ell, edges)."""
    rng = np.random.default_rng(2)
    n, ell = 11, 3
    return n, ell, [(u, v, 2.0 ** int(rng.integers(-26, 27)), int(rng.integers(0, ell)))
                    for u in range(n) for v in range(u + 1, n)]


def test_dense_badly_scaled_graph_past_the_pair_limit(monkeypatch):
    # A vertex of dense_badly_scaled_edges' K_11 with t twisted triangle terms
    # takes them pair by pair only if t (t - 1) / 2 <= PAIR_LIMIT; the others
    # keep the Schur step on g_0, and must stay as accurate.
    n, ell, edges = dense_badly_scaled_edges()
    exps = {}
    for u, v, _, s in edges:
        exps[u, v], exps[v, u] = s, -s
    twisted = np.array([sum((exps[x, y] + exps[y, z] - exps[x, z]) % ell != 0
                            for y in range(n) for z in range(n) if len({x, y, z}) == 3)
                        for x in range(n)])
    past = np.flatnonzero(twisted * (twisted - 1) > 2 * curvature.PAIR_LIMIT)
    assert 0 < len(past) < n
    g = from_edge_list(n, ell, edges)
    per = kappa_max(g, N_DIM).per_vertex
    monkeypatch.setattr(curvature, "PAIR_LIMIT", 10 ** 9)
    paired = kappa_max(from_edge_list(n, ell, edges), N_DIM).per_vertex
    # the vertices past the limit took the other route, to the same values
    assert not np.array_equal(per[past], paired[past])
    assert np.all(np.abs(per - paired) <= 1e-12 * np.maximum(1.0, np.abs(paired)))
    for x in past.tolist():
        s = max(1.0, abs(per[x]))
        assert exact_cd_holds(g, x, N_DIM, per[x] - 1e-9 * s)
        assert not exact_cd_holds(g, x, N_DIM, per[x] + 1e-9 * s)


# Three graphs drawn as badly_scaled_graphs draws them, with kappa at one
# vertex computed from the definitions at 60 significant digits (mpmath).
# Each is a known way the 2-ball pencil went wrong.
PINNED_60_DIGITS = [
    # A direction of gamma[2] sat at the pencil's kernel cut.
    pytest.param(3, 3, [(0, 1, 28058.424314339507, 0), (0, 2, 11.640317484369824, 2),
                        (1, 2, 1.5723183675083284e-08, 2)],
                 2, -0.9991706180313811, id="near_cut_finite"),
    # A direction of gamma[3] sat at the kernel cut, and the pencil reported -inf.
    pytest.param(6, 3, [(0, 1, 1.2193100452390124e-08, 1), (0, 3, 2.2052897057709498e-07, 0),
                        (0, 4, 10.247247976366317, 2), (0, 5, 5910.406169439525, 0),
                        (1, 2, 8904744.929431096, 1), (3, 4, 0.010553646246123281, 2),
                        (3, 5, 983.1838230315606, 0), (4, 5, 0.18313227790499342, 2)],
                 3, -0.7147652102963094, id="near_cut_minus_inf"),
    # Float error in the 2-ball forms moved kappa by 5e-6 relative.
    pytest.param(6, 1, [(0, 1, 1.0, 0), (0, 2, 1.0, 0), (0, 3, 1e-05, 0), (0, 4, 1.0, 0),
                        (1, 5, 10000.0, 0)],
                 1, -0.33333555554814817, id="float_error"),
]


@pytest.mark.parametrize("n, ell, edges, x, want", PINNED_60_DIGITS)
def test_badly_scaled_vertex_against_60_digits(n, ell, edges, x, want):
    g = from_edge_list(n, ell, edges)
    got = kappa_max(g, N_DIM).per_vertex[x]
    assert abs(got - want) <= 1e-9 * abs(want)
    # the exact decision brackets the computed value as it does the pin
    for kappa in (got, want):
        s = max(1.0, abs(kappa))
        assert exact_cd_holds(g, x, N_DIM, kappa - 1e-9 * s)
        assert not exact_cd_holds(g, x, N_DIM, kappa + 1e-6 * s)


def assert_one_ball_matches_reference(g) -> int:
    """Every array of _one_ball(g) equals one_ball_reference(g) byte for byte:
    each degree's xs, R and u, and the map to S2. Returns the reference's
    count of Lagrange pairs."""
    got, want = _one_ball(g), one_ball_reference(g)
    assert len(got.stacks) == len(want.stacks)
    arrays = [(a, b) for stack, ref in zip(got.stacks, want.stacks) for a, b in zip(stack, ref)]
    arrays += [(getattr(got, name), getattr(want, name))
               for name in ("elim", "via", "target", "spread")]
    for a, b in arrays:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return want.pairs


def test_one_ball_matches_the_per_degree_reference(corpus_and_lifts):
    # no corpus graph, sparse base or lift takes the pair branch
    assert not any(assert_one_ball_matches_reference(g) for g in corpus_and_lifts)


@given(badly_scaled_graphs())
@settings(max_examples=40, deadline=None)
def test_one_ball_matches_the_per_degree_reference_on_badly_scaled_weights(g):
    assert_one_ball_matches_reference(g)


@pytest.mark.parametrize("limit", [curvature.PAIR_LIMIT, 10 ** 9])
def test_one_ball_matches_the_per_degree_reference_past_the_pair_limit(monkeypatch, limit):
    monkeypatch.setattr(curvature, "PAIR_LIMIT", limit)
    assert assert_one_ball_matches_reference(from_edge_list(*dense_badly_scaled_edges())) > 0
