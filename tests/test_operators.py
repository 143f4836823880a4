import numpy as np
import pytest
from hypothesis import given, settings

from magcurv import operators
from magcurv.curvature import _one_ball, kappa_max
from magcurv.errors import NumericalError, ValidationError
from magcurv.lift import build_lift
from magcurv.operators import energy, gamma, gamma2, laplacian_matrix, spectrum

from . import oracles
from .conftest import (LIFT_SHAPES, graph_strategy, random_functions, sparse_graph,
                       two_n_cycle)
from .oracles import form_family

# The oracles keep their kind argument: they are the reference that the one
# operator, applied to g or to g.untwisted(), is compared against.


# --- independent pointwise oracles (kept deliberately naive) ---------------

def phase_of(g, s):
    return np.exp(2j * np.pi * s / g.ell)


def laplacian_oracle(g, f, kind):
    out = np.zeros(g.num_vertices, dtype=complex)
    for x in range(g.num_vertices):
        acc = 0.0 + 0.0j
        for y, w, s in g.neighbors(x):
            sig = 1.0 if kind == "plain" else phase_of(g, s)
            acc += w * (sig * f[y] - f[x])
        out[x] = acc / g.degrees[x]
    return out


def gamma_oracle(g, u, v, kind):
    out = np.zeros(g.num_vertices, dtype=complex)
    for x in range(g.num_vertices):
        acc = 0.0 + 0.0j
        for y, w, s in g.neighbors(x):
            sig = 1.0 if kind == "plain" else phase_of(g, s)
            acc += w * (sig * u[y] - u[x]) * np.conj(sig * v[y] - v[x])
        out[x] = acc / (2.0 * g.degrees[x])
    return out


def gamma2_oracle(g, f, kind):
    """Recursive definition with both mixed terms evaluated separately:
    2 gamma2(f) = Delta[gamma(f)] - gamma(f, Lf) - gamma(Lf, f)."""
    lf = laplacian_oracle(g, f, kind)
    gff = gamma_oracle(g, f, f, kind)
    first = laplacian_oracle(g, gff, "plain")
    return 0.5 * (first - gamma_oracle(g, f, lf, kind) - gamma_oracle(g, lf, f, kind))


# --- Laplacian --------------------------------------------------------------

def test_plain_laplacian_b3(b3):
    lf = laplacian_matrix(b3.untwisted()) @ np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(lf, [-1.0, 0.5, 0.5], atol=1e-14)


def test_magnetic_laplacian_t3(t3):
    lf = laplacian_matrix(t3) @ np.ones(3)
    np.testing.assert_allclose(lf, [-1.0, 0.0, -1.0], atol=1e-14)


def test_laplacian_of_zero(t3):
    lf = laplacian_matrix(t3) @ np.zeros(3)
    assert np.all(lf == 0)


@given(graph_strategy())
@settings(max_examples=40, deadline=None)
def test_matrix_matches_pointwise_sum(g):
    f = random_functions(g, 1, seed=3)[:, 0]
    for h, kind in ((g.untwisted(), "plain"), (g, "magnetic")):
        got = laplacian_matrix(h) @ f
        want = laplacian_oracle(g, f, kind)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale


# --- energy -----------------------------------------------------------------

def test_energy_examples(t3, b3):
    e = energy(b3.untwisted(), np.array([1.0, 0.0, 0.0]))
    assert abs(e[0] - 1.0) <= 1e-14
    np.testing.assert_allclose(energy(t3, np.ones(3)), [2.0, 0.0, 2.0],
                               atol=1e-14)
    assert np.abs(energy(t3.untwisted(), 3.7 * np.ones(3))).max() <= 1e-14


@given(graph_strategy())
@settings(max_examples=40, deadline=None)
def test_energy_nonnegative_and_twice_gamma(g):
    f = random_functions(g, 1, seed=5)[:, 0]
    for h in (g.untwisted(), g):
        e = energy(h, f)
        assert np.all(e >= -1e-14)
        two_gamma = 2.0 * np.real(gamma(h, f))
        assert np.abs(e - two_gamma).max() <= 1e-12 * max(1.0, float(e.max()))


# --- forms: the 2-ball oracle against the pointwise forms, and the 1-ball reduction

def quadratic_forms(forms, x, f):
    """f* F f for vertex x's three local blocks F: (gamma, gamma2, lap_square)."""
    blk = forms.block(x)
    fb = f[blk.support]
    return [complex(fb.conj() @ F @ fb) for F in (blk.gamma, blk.gamma2, blk.lap_square)]


def test_single_edge_first_form(single_edge):
    blk = form_family(single_edge.untwisted()).block(0)
    assert blk.support.tolist() == [0, 1]
    eigvals = np.linalg.eigvalsh(blk.gamma)
    np.testing.assert_allclose(eigvals, [0.0, 1.0], atol=1e-14)
    # kernel is spanned by the constants
    assert np.abs(blk.gamma @ np.ones(2)).max() <= 1e-14


def test_forms_exactly_hermitian(t3, c4sigma):
    for g in (t3, c4sigma):
        forms = form_family(g)
        for x in range(g.num_vertices):
            blk = forms.block(x)
            for m in (blk.gamma, blk.gamma2, blk.lap_square):
                assert np.array_equal(m, m.conj().T)


def test_gamma2_residue_guard_raises(c4sigma, monkeypatch):
    # A negative threshold flags every block, so the first vertex must raise.
    monkeypatch.setattr(oracles, "HERMITIZE_GUARD", -1.0)
    with pytest.raises(NumericalError, match="gamma2 form at vertex 0"):
        form_family.__wrapped__(c4sigma)


def test_forms_need_no_dense_laplacian(monkeypatch):
    # the reduced matrices come from the oriented-edge table alone
    g = build_lift(sparse_graph(*LIFT_SHAPES[0], seed=1)).graph
    want = _one_ball(g)

    def dense(_):
        raise AssertionError("the curvature reduction built the dense Laplacian")

    monkeypatch.setattr(operators, "laplacian_matrix", dense)
    got = _one_ball.__wrapped__(g)
    assert len(got.stacks) == len(want.stacks)
    for stack, ref in zip(got.stacks, want.stacks):
        assert all(np.array_equal(a, b) for a, b in zip(stack, ref))
    assert np.array_equal(got.pairs, want.pairs)


def test_forms_psd(t3, c4sigma):
    for g in (t3, c4sigma):
        forms = form_family(g)
        for x in range(g.num_vertices):
            blk = forms.block(x)
            for m in (blk.gamma, blk.lap_square):
                eigs = np.linalg.eigvalsh(m)
                norm = max(1.0, float(np.abs(eigs).max()))
                assert eigs[0] >= -1e-9 * norm


def test_gamma2_form_matches_recursive_oracle(t3):
    # On the 6-cycle the 2-ball of a vertex misses the opposite vertex.
    for g in (t3, two_n_cycle(3, 2)):
        forms = form_family(g)
        fs = random_functions(g, 100, seed=9)
        for j in range(fs.shape[1]):
            f = fs[:, j]
            want = np.real(gamma2_oracle(g, f, "magnetic"))
            for x in range(g.num_vertices):
                got = quadratic_forms(forms, x, f)[1].real
                assert abs(got - want[x]) <= 1e-10 * max(1.0, abs(want[x]))


def test_constant_function_kills_plain_forms(b3):
    forms = form_family(b3.untwisted())
    f = 2.5 * np.ones(3, dtype=complex)
    for x in range(3):
        g1, _, lf2 = quadratic_forms(forms, x, f)
        assert abs(g1) <= 1e-13
        assert abs(lf2) <= 1e-13


@given(graph_strategy(max_vertices=6))
@settings(max_examples=25, deadline=None)
def test_form_values_match_pointwise(g):
    forms = form_family(g)
    f = random_functions(g, 1, seed=21)[:, 0]
    g1 = np.real(gamma(g, f))
    g2 = np.real(gamma2(g, f))
    lf = laplacian_matrix(g) @ f
    for x in range(g.num_vertices):
        q1, q2, q3 = quadratic_forms(forms, x, f)
        assert abs(q1 - g1[x]) <= 1e-10 * max(1.0, abs(g1[x]))
        assert abs(q2 - g2[x]) <= 1e-10 * max(1.0, abs(g2[x]))
        assert abs(q3 - abs(lf[x]) ** 2) <= 1e-10 * max(1.0, abs(lf[x]) ** 2)


def test_supports_are_two_balls(c4sigma):
    supports = kappa_max(c4sigma, 2.0).supports
    assert all(supports[x].tolist() == [0, 1, 2, 3] for x in range(4))
    supports = kappa_max(two_n_cycle(3, 2), 2.0).supports
    assert [s.tolist() for s in supports] == [
        [0, 1, 2, 4, 5], [0, 1, 2, 3, 5], [0, 1, 2, 3, 4],
        [1, 2, 3, 4, 5], [0, 2, 3, 4, 5], [0, 1, 3, 4, 5]]
    oracle = form_family(two_n_cycle(3, 2))
    assert all(np.array_equal(s, oracle.block(x).support) for x, s in enumerate(supports))


def test_lift_forms_take_block_memory():
    # one deg x deg matrix and deg-vector per vertex, and per-row and per-walk
    # arrays for the witnesses: nothing of size N^2
    lift = build_lift(sparse_graph(40, 4, seed=1)).graph
    n = lift.num_vertices
    ball = _one_ball(lift)
    stacked = [a for st in ball.stacks for a in st]
    entries = sum(R.size + u.size for _, R, u in ball.stacks)
    assert sum(a.nbytes for a in stacked) <= 16 * entries + 8 * n
    arrays = stacked + [ball.elim, ball.via, ball.target, ball.spread, ball.pairs]
    assert all(a.size < n ** 2 // 4 for a in arrays)
    supports = kappa_max(lift, 2.0).supports
    assert sum(s.size for s in supports) == n + len(lift.oriented_edges.src) + len(ball.pairs)


def test_oriented_edge_table_keeps_rows_only():
    n, ell = LIFT_SHAPES[1]
    lift = build_lift(sparse_graph(n, ell, seed=1)).graph
    rows = 2 * len(lift.edges)
    assert all(a.size <= rows for a in lift.oriented_edges)


def test_gamma2_composition_identity(t3):
    # gamma2(f) = [Delta gamma(f) - 2 Re gamma(f, Lf)] / 2, composed from parts
    f = random_functions(t3, 1, seed=33)[:, 0]
    lf = laplacian_matrix(t3) @ f
    lhs = np.real(gamma2(t3, f))
    composed = 0.5 * (np.real(laplacian_matrix(t3.untwisted())
                              @ np.real(gamma(t3, f)))
                      - 2.0 * np.real(gamma(t3, f, lf)))
    assert np.abs(lhs - composed).max() <= 1e-10


# --- spectrum ---------------------------------------------------------------

def test_spectrum_b3_plain(b3):
    spec = spectrum(b3.untwisted())
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)


def test_spectrum_t3_magnetic(t3):
    spec = spectrum(t3)
    np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5, 2.0], atol=1e-12)


def test_spectrum_residuals_and_range(t3, c4sigma):
    for g in (t3, c4sigma):
        spec = spectrum(g)
        neg = -laplacian_matrix(g)
        for i, lam in enumerate(spec.eigenvalues):
            f = spec.eigenvectors[:, i]
            resid = np.linalg.norm(neg @ f - lam * f)
            assert resid <= 1e-9 * max(1.0, lam)
        assert spec.eigenvalues[0] >= -1e-9
        assert spec.eigenvalues[-1] <= 2.0 + 1e-9


def test_spectrum_degree_orthonormal(t3):
    spec = spectrum(t3)
    gram = spec.eigenvectors.conj().T @ np.diag(t3.degrees) @ spec.eigenvectors
    assert np.abs(gram - np.eye(3)).max() <= 1e-12


def test_balanced_graph_has_zero_magnetic_eigenvalue(b3):
    spec = spectrum(b3)
    assert abs(spec.eigenvalues[0]) <= 1e-12


@given(graph_strategy())
@settings(max_examples=30, deadline=None)
def test_untwisted_matches_plain_oracle(g):
    plain = g.untwisted()
    assert (plain.num_vertices, plain.ell) == (g.num_vertices, g.ell)
    assert np.array_equal(plain.degrees, g.degrees)
    f = random_functions(g, 1, seed=4)[:, 0]
    lf = laplacian_oracle(g, f, "plain")
    g1 = np.real(gamma_oracle(g, f, f, "plain"))
    g2 = np.real(gamma2_oracle(g, f, "plain"))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-10 * max(1.0, float(np.abs(want).max()))

    assert close(laplacian_matrix(plain) @ f, lf)
    assert close(energy(plain, f), 2.0 * g1)
    assert close(np.real(gamma2(plain, f)), g2)
    forms = form_family(plain)
    quad = np.real([quadratic_forms(forms, x, f) for x in range(g.num_vertices)]).T
    assert close(quad[0], g1)
    assert close(quad[1], g2)
    assert close(quad[2], np.abs(lf) ** 2)


def test_laplacian_entries_pinned_bitwise(corpus):
    # verify output is byte-identical only while these exact bits hold
    for g in corpus:
        M = laplacian_matrix(g)
        assert np.all(np.diag(M) == -1.0)
        for x in range(g.num_vertices):
            for y, w, s in g.neighbors(x):
                assert M[x, y] == w * g.phase(s) / g.degrees[x]


@given(graph_strategy(max_ell=1))
@settings(max_examples=25, deadline=None)
def test_plain_equals_magnetic_for_trivial_signature(g):
    # all exponents are 0 when ell = 1
    plain = g.untwisted()
    assert np.abs(laplacian_matrix(plain) - laplacian_matrix(g)).max() <= 1e-14
    f = random_functions(g, 1, seed=2)[:, 0]
    assert np.abs(energy(plain, f) - energy(g, f)).max() <= 1e-14
    sp, sm = spectrum(plain), spectrum(g)
    assert np.abs(sp.eigenvalues - sm.eigenvalues).max() <= 1e-14


def test_plain_equals_magnetic_all_zero_exponents(b3):
    # ell = 2 but every exponent 0: the graph and its untwisting coincide entrywise
    plain = b3.untwisted()
    assert np.abs(laplacian_matrix(plain) - laplacian_matrix(b3)).max() <= 1e-14
    forms_p, forms_m = form_family(plain), form_family(b3)
    for (xs_p, p), (xs_m, m) in zip(forms_p.stacks, forms_m.stacks, strict=True):
        assert np.array_equal(xs_p, xs_m)
        assert np.abs(p.gamma2 - m.gamma2).max() <= 1e-14
    assert np.abs(spectrum(plain).eigenvalues
                  - spectrum(b3).eigenvalues).max() <= 1e-14


def test_spectral_json_shape(t3):
    payload = spectrum(t3).to_json_dict()
    assert set(payload) == {"eigenvalues", "eigenvectors"}
    assert len(payload["eigenvalues"]) == 3
    assert len(payload["eigenvectors"]) == 3
    assert all(len(vec) == 3 and len(vec[0]) == 2 for vec in payload["eigenvectors"])


def test_vertex_function_validation(t3):
    with pytest.raises(ValidationError):
        energy(t3, np.ones(4))
    with pytest.raises(ValidationError):
        energy(t3, np.array([1.0, np.nan, 0.0]))
