"""The 2-ball forms against the dense (N, N, N) oracle in tests/oracles.py, and
kappa_max's stacked solver against the one-vertex reference solver there."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magcurv.curvature import (KERNEL_THRESHOLD, cd_check_graph, kappa_max,
                               kappa_max_bisect)
from magcurv.graphs import from_edge_list
from magcurv.lift import build_lift
from magcurv.operators import form_family

from .conftest import LIFT_SHAPES, graph_strategy, sparse_graph
from .oracles import (dense_form_family, dense_kappa_per_vertex, embedded_forms,
                      same_direction, vertex_kappa_reference)

N_DIM = 2.0


def condition_on_range(G):
    """Largest over smallest eigenvalue of G above the kernel cut."""
    ev = np.linalg.eigvalsh(G)
    kept = ev[ev > KERNEL_THRESHOLD * ev[-1]]
    return kept[-1] / kept[0]


def assert_kernel_matches_reference(g, conditioned=False):
    """kappa_max's stacked solver against the one-vertex reference solver, on
    the same 2-ball blocks: kappa within 1e-12 relative, widened by the
    condition number of gamma[x] on its range when ``conditioned``, the same
    -inf set with the same witness direction, and each finite witness w a
    null direction of the pencil: |w*(A - kappa G)w| / |w|^2 within that
    tolerance times |A|, or at most twice the reference witness's."""
    result = kappa_max(g, N_DIM)
    forms = form_family(g)
    for x in range(g.num_vertices):
        blk = forms.block(x)
        A = blk.gamma2 - blk.lap_square / N_DIM
        want, want_wit = vertex_kappa_reference(A, blk.gamma)
        got, wit = result.per_vertex[x], result.witnesses[x]
        if want == -math.inf:
            assert got == -math.inf and same_direction(wit, want_wit)
            continue
        tol = 1e-12 * (condition_on_range(blk.gamma) if conditioned else 1.0)
        assert abs(got - want) <= tol * max(1.0, abs(want))
        scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))

        def residue(w, kappa):
            return abs(np.vdot(w, (A - kappa * blk.gamma) @ w)) / np.vdot(w, w).real

        assert residue(wit, got) <= max(tol * scale, 2.0 * residue(want_wit, want))


def assert_matches_dense_oracle(g):
    """Blocks, per-vertex kappa and CD certificates of g equal the dense route's,
    and the stacked solver matches the reference solver block by block."""
    n = g.num_vertices
    dense = dense_form_family(g)
    forms = form_family(g)
    for x in range(n):
        for local, full in zip(embedded_forms(forms, x, n), (f[x] for f in dense)):
            assert np.abs(local - full).max() <= 1e-14 * max(1.0, np.abs(full).max())
    got = kappa_max(g, N_DIM).per_vertex
    want = dense_kappa_per_vertex(dense, N_DIM)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got - want)[finite]
                  <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))
    assert_kernel_matches_reference(g)

    km = float(got.min())
    if not math.isfinite(km):
        return
    step = 1e-6 * max(1.0, abs(km))
    G, G2, Q = dense
    for kappa in (km - step, km, km + step):
        check = cd_check_graph(g, N_DIM, kappa)
        eigs = [np.linalg.eigvalsh(G2[x] - Q[x] / N_DIM - kappa * G[x]) for x in range(n)]
        mins = np.array([e[0] for e in eigs])
        scales = np.array([max(1.0, np.abs(e).max()) for e in eigs])
        assert check.passed == bool(np.all(mins >= -1e-9 * scales))
        assert np.all(np.abs(check.min_eigenvalues - mins) <= 1e-12 * scales)
        np.testing.assert_allclose(check.thresholds, -1e-9 * scales, rtol=1e-12, atol=0.0)


def test_corpus_matches_dense_oracle(corpus):
    for g in corpus:
        assert_matches_dense_oracle(g)


@pytest.mark.parametrize("shape", LIFT_SHAPES)
def test_lift_matches_dense_oracle(shape):
    lift = build_lift(sparse_graph(*shape, seed=sum(shape))).graph
    assert all(blk.support.shape[1] < lift.num_vertices
               for _, blk in form_family(lift).stacks)
    assert_matches_dense_oracle(lift)


@st.composite
def badly_scaled_graphs(draw):
    """graph_strategy's graphs with every weight redrawn from 1e-8..1e8."""
    g = draw(graph_strategy())
    exps = draw(st.lists(st.floats(-8.0, 8.0), min_size=len(g.edges),
                         max_size=len(g.edges)))
    return from_edge_list(g.num_vertices, g.ell,
                          [(e.u, e.v, 10.0 ** p, e.s) for e, p in zip(g.edges, exps)])


# A path whose two weights differ by 1e16: at the middle vertex one range
# direction of gamma falls below the kernel cut, next to the kernel every
# gamma[x] has (the twisted constants on the star of x).
@example(from_edge_list(3, 2, [(0, 1, 1e-8, 1), (1, 2, 1e8, 0)]))
@given(badly_scaled_graphs())
@settings(max_examples=30, deadline=None)
def test_badly_scaled_weights(g):
    result = kappa_max(g, N_DIM)
    got = result.per_vertex
    want = dense_kappa_per_vertex(dense_form_family(g), N_DIM)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    forms = form_family(g)
    for x in np.flatnonzero(np.isfinite(want)):
        # The pencil is as sensitive as gamma[x] is ill-conditioned on its
        # range: 1e-12 relative at unit conditioning, widened by the
        # condition number.
        ev = np.linalg.eigvalsh(forms.block(x).gamma)
        assert ev[0] <= KERNEL_THRESHOLD * ev[-1]  # a kernel direction
        kept = ev[ev > KERNEL_THRESHOLD * ev[-1]]
        tol = 1e-12 * max(1.0, abs(want[x])) * kept[-1] / kept[0]
        assert abs(got[x] - want[x]) <= tol
    assert_kernel_matches_reference(g, conditioned=True)

    km = result.kappa_max
    if not math.isfinite(km):
        return
    # The pencil's kappa is certified, so the bisection never lands below it;
    # above it the bisection gains only what the PSD tolerance absorbs along
    # the witness w: (b - km) w*Gw <= 1e-9 s |w|^2 + w*(A - km G)w.
    b = kappa_max_bisect(g, N_DIM)
    step = 1e-6 * max(1.0, abs(km))
    assert b >= km - step
    blk = forms.block(result.witness_vertex)
    w = result.witnesses[result.witness_vertex]
    A = blk.gamma2 - blk.lap_square / N_DIM
    s = max(1.0, float(np.abs(np.linalg.eigvalsh(A - b * blk.gamma)).max()))

    def q(F):
        return float(np.real(w.conj() @ F @ w))

    assert (b - km - step) * q(blk.gamma) <= 1e-9 * s * q(np.eye(len(w))) + q(A - km * blk.gamma)


# Three graphs drawn as badly_scaled_graphs draws them, with kappa at one
# vertex computed from the definitions at 60 significant digits (mpmath).
# Each is a known way the float pencil or the dense oracle goes wrong, so a
# test_badly_scaled_weights run can hit one by chance.
PINNED_60_DIGITS = [
    # A direction of gamma[2] sits at the kernel cut: the dense oracle calls
    # the vertex -inf, the package finds the value.
    pytest.param(3, 3, [(0, 1, 28058.424314339507, 0), (0, 2, 11.640317484369824, 2),
                        (1, 2, 1.5723183675083284e-08, 2)],
                 2, -0.9991706180313811, id="near_cut_finite"),
    pytest.param(6, 3, [(0, 1, 1.2193100452390124e-08, 1), (0, 3, 2.2052897057709498e-07, 0),
                        (0, 4, 10.247247976366317, 2), (0, 5, 5910.406169439525, 0),
                        (1, 2, 8904744.929431096, 1), (3, 4, 0.010553646246123281, 2),
                        (3, 5, 983.1838230315606, 0), (4, 5, 0.18313227790499342, 2)],
                 3, -0.7147652102963094, id="near_cut_minus_inf", marks=pytest.mark.xfail(
                     strict=True, reason="a direction of gamma[3] sits at the 1e-10 kernel "
                     "cut, so the pencil reports -inf; deciding it needs the exact CD "
                     "check of ROADMAP item 3")),
    pytest.param(6, 1, [(0, 1, 1.0, 0), (0, 2, 1.0, 0), (0, 3, 1e-05, 0), (0, 4, 1.0, 0),
                        (1, 5, 10000.0, 0)],
                 1, -0.33333555554814817, id="float_error", marks=pytest.mark.xfail(
                     strict=True, reason="float error that the package and the dense "
                     "oracle share moves kappa by 5e-6 relative, far from the kernel cut")),
]


@pytest.mark.parametrize("n, ell, edges, x, want", PINNED_60_DIGITS)
def test_badly_scaled_vertex_against_60_digits(n, ell, edges, x, want):
    got = kappa_max(from_edge_list(n, ell, edges), N_DIM).per_vertex[x]
    assert abs(got - want) <= 1e-9 * abs(want)
