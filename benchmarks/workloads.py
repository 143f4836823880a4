"""Seeded inputs of the benchmark workloads and the top-level call each one times.

Every input is drawn from the workload seed alone; the program under test only
ever sees the generated graph documents. magcurv functions are imported inside
the functions that use them, so that each call looks up the name the traced
run may have wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

DEFAULT_SEED = 20_000
CORPUS_SIZE = 200
VERIFY_ARGV = ["verify", "-", "--n", "2", "--json"]

# (N, edges, ell) of the base graphs in `lift_curvature`; lifts have N * ell vertices.
LIFT_BASES = ((48, 72, 3), (40, 60, 4), (30, 45, 5), (36, 54, 4))

KAPPA_N = 2.0
BASE_SLACK = 1e-8
SUPREMUM_STEP = 1e-6


def corpus_graphs(seed: int):
    """The acceptance corpus: the recipe of tests/conftest.py::build_corpus.

    At the default seed the graphs equal build_corpus(200) one for one. The
    vertex count and edge probability of graph i are always those of the default
    seed, so that every seed costs about the same (exact Cheeger grows as
    (ell + 1)^N); the seed re-draws edges, weights and phases.
    """
    from magcurv.graphs import random_magnetic_graph

    graphs = []
    for i in range(CORPUS_SIZE):
        hi, weights = (7, (1.0, 1.0)) if i % 6 == 0 else (11, (0.5, 2.0))
        shape = np.random.default_rng(DEFAULT_SEED + i)
        n = int(shape.integers(3, hi))
        p = float(shape.uniform(0.3, 0.8))
        rng = np.random.default_rng(seed + i)
        rng.integers(3, hi)   # the same draws as build_corpus, so that the
        rng.uniform(0.3, 0.8)  # default seed reproduces its stream exactly
        graphs.append(random_magnetic_graph(n, p, (2, 3, 4)[i % 3], rng=rng,
                                            weight_range=weights))
    return graphs


def sparse_graph(n: int, m: int, ell: int, rng: np.random.Generator):
    """Connected graph with exactly m edges: a random recursive tree plus
    random chords, uniform weights in [0.5, 2] and uniform phases."""
    from magcurv.graphs import from_edge_list

    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(pairs) < m:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    return from_edge_list(n, ell, [(u, v, float(rng.uniform(0.5, 2.0)),
                                    int(rng.integers(0, ell)))
                                   for u, v in sorted(pairs)])


def lift_bases(seed: int):
    rng = np.random.default_rng(seed)
    return [sparse_graph(n, m, ell, rng) for n, m, ell in LIFT_BASES]


def verify_call(doc: str) -> tuple[bool, str]:
    """`magcurv verify - --n 2 --json` in process, the document on stdin.

    Passes when the command exits 0 and reports all_passed.
    """
    import magcurv.cli

    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = magcurv.cli.main(list(VERIFY_ARGV))
    finally:
        sys.stdin = stdin
    text = out.getvalue()
    if code != 0:
        return False, f"exit {code}: {err.getvalue().strip()}"
    return json.loads(text)["all_passed"] is True, text


def lift_call(doc: str) -> tuple[bool, str]:
    """Lift a base graph document, check the transfer identities, and certify
    curvature.

    Passes when the identities hold, the lift satisfies CD(2, kappa_lift), the
    base satisfies CD(2, kappa_lift - 1e-8) (lift CD implies base CD), and the
    lift fails CD(2, kappa_lift + 1e-6 max(1, |kappa_lift|)), which shows that
    kappa_max returned the supremum. The lift carries ell = 1, so its
    curvature is the plain one.
    """
    from magcurv.curvature import cd_check_graph, kappa_max
    from magcurv.graphs import load_graph
    from magcurv.lift import build_lift, verify_lift_identities

    base = load_graph(doc)
    lift = build_lift(base).graph
    identities = verify_lift_identities(base)
    k_base = kappa_max(base, KAPPA_N).kappa_max
    k_lift = kappa_max(lift, KAPPA_N).kappa_max
    if not math.isfinite(k_lift):
        return False, f"kappa_lift = {k_lift}"
    at = cd_check_graph(lift, KAPPA_N, k_lift).passed
    base_below = cd_check_graph(base, KAPPA_N, k_lift - BASE_SLACK).passed
    above = cd_check_graph(lift, KAPPA_N,
                           k_lift + SUPREMUM_STEP * max(1.0, abs(k_lift))).passed
    ok = identities.all_ok and at and base_below and not above
    summary = (f"N={base.num_vertices} ell={base.ell} kappa_base={k_base:.12g} "
               f"kappa_lift={k_lift:.12g} identities={identities.all_ok} "
               f"at={at} base_below={base_below} above={above}\n")
    return ok, summary


# workload -> (graphs drawn from the seed, top-level call on one graph document)
WORKLOADS = {
    "corpus_verify": (corpus_graphs, verify_call),
    "lift_curvature": (lift_bases, lift_call),
}
