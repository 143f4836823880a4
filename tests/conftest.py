import numpy as np
import pytest
from hypothesis import strategies as st

from magcurv.graphs import MagneticGraph, from_edge_list, random_magnetic_graph
from magcurv.lift import build_lift

# Named small graphs used throughout:
#   t3      triangle, ell=2, exponent 1 on {0,2}: unbalanced, entire
#   b3      triangle, identity signature, ell=2: balanced, not entire
#   c4sigma 4-cycle, ell=2, one flipped edge: the 2n-cycle sharpness family at n=2


@pytest.fixture
def t3() -> MagneticGraph:
    return from_edge_list(3, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1)])


@pytest.fixture
def b3() -> MagneticGraph:
    return from_edge_list(3, 2, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 0)])


@pytest.fixture
def c4sigma() -> MagneticGraph:
    return two_n_cycle(2, 2)


@pytest.fixture
def single_edge() -> MagneticGraph:
    return from_edge_list(2, 1, [(0, 1, 1.0, 0)])


def two_n_cycle(n: int, ell: int) -> MagneticGraph:
    """Cycle on 2n vertices, identity signature except one primitive-root edge."""
    m = 2 * n
    edges = [(i, i + 1, 1.0, 0) for i in range(m - 1)]
    edges.append((0, m - 1, 1.0, 1))
    return from_edge_list(m, ell, edges)


def build_corpus(count: int = 200, seed0: int = 20_000) -> list[MagneticGraph]:
    """Deterministic fuzz corpus: connected, N in [3, 10], ell cycling {2, 3, 4}.

    Every sixth graph gets unit weights (and a small vertex count), keeping a
    supply of classical sign graphs for the combinatorial identities.
    """
    graphs = []
    for i in range(count):
        rng = np.random.default_rng(seed0 + i)
        if i % 6 == 0:
            n = int(rng.integers(3, 7))
            weights = (1.0, 1.0)
        else:
            n = int(rng.integers(3, 11))
            weights = (0.5, 2.0)
        ell = (2, 3, 4)[i % 3]
        p = float(rng.uniform(0.3, 0.8))
        graphs.append(random_magnetic_graph(n, p, ell, rng=rng,
                                            weight_range=weights))
    return graphs


# (N, ell) of the sparse bases, about 1.5 edges per vertex, whose lifts
# have 144-160 vertices, as in the benchmark's lift_curvature workload.
LIFT_SHAPES = ((48, 3), (40, 4), (30, 5), (36, 4))


def twisted(g: MagneticGraph, j: int) -> MagneticGraph:
    """g twisted by the j-th character of Z_ell: every exponent s becomes
    j * s mod ell. The lift's spectrum is the union of these over j."""
    return from_edge_list(g.num_vertices, g.ell,
                          [(e.u, e.v, e.w, j * e.s % g.ell) for e in g.edges])


def sparse_graph(n: int, ell: int, seed: int) -> MagneticGraph:
    """Connected random graph with average degree about 3."""
    return random_magnetic_graph(n, 3.0 / (n - 1), ell, seed=seed)


@pytest.fixture(scope="session")
def corpus() -> list[MagneticGraph]:
    return build_corpus(200)


@pytest.fixture(scope="session")
def corpus_and_lifts(corpus) -> list[MagneticGraph]:
    """The corpus, then each sparse base (seed 1) followed by its lift."""
    graphs = list(corpus)
    for shape in LIFT_SHAPES:
        base = sparse_graph(*shape, seed=1)
        graphs += [base, build_lift(base).graph]
    return graphs


@pytest.fixture(scope="session")
def small_corpus() -> list[MagneticGraph]:
    return build_corpus(30, seed0=50_000)


def random_functions(g: MagneticGraph, count: int, seed: int = 0) -> np.ndarray:
    """Batch of complex standard-normal vertex functions, shape (N, count)."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((g.num_vertices, count))
            + 1j * rng.standard_normal((g.num_vertices, count)))


@st.composite
def graph_strategy(draw, max_vertices: int = 7, max_ell: int = 4):
    """Connected magnetic graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, max_vertices))
    ell = draw(st.integers(1, max_ell))
    tree = set()
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        tree.add((parent, child))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(all_pairs), max_size=len(all_pairs)))
    pairs = sorted(tree | extra)
    edges = []
    for u, v in pairs:
        w = draw(st.floats(min_value=0.25, max_value=4.0))
        s = draw(st.integers(0, ell - 1))
        edges.append((u, v, w, s))
    return from_edge_list(n, ell, edges)


@st.composite
def badly_scaled_graphs(draw):
    """graph_strategy's graphs with every weight redrawn from 1e-8..1e8."""
    g = draw(graph_strategy())
    exps = draw(st.lists(st.floats(-8.0, 8.0), min_size=len(g.edges),
                         max_size=len(g.edges)))
    return from_edge_list(g.num_vertices, g.ell,
                          [(e.u, e.v, 10.0 ** p, e.s) for e, p in zip(g.edges, exps)])
