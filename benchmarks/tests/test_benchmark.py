"""Inputs of the benchmark workloads, and the span recorder of its traced run.

Run from the repository root: python -m pytest benchmarks/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]

import magcurv  # noqa: E402
import magcurv.bounds  # noqa: E402
import magcurv.combinatorics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from tests.conftest import build_corpus  # noqa: E402


def test_corpus_is_the_acceptance_corpus_at_the_default_seed():
    expected = [g.dumps() for g in build_corpus(200)]
    got = [g.dumps() for g in workloads.corpus_graphs(workloads.DEFAULT_SEED)]
    assert got == expected


def test_other_seeds_redraw_the_corpus_with_the_same_shape():
    base = workloads.corpus_graphs(workloads.DEFAULT_SEED)
    other = workloads.corpus_graphs(7)
    assert ([(g.num_vertices, g.ell) for g in other]
            == [(g.num_vertices, g.ell) for g in base])
    assert [g.dumps() for g in other] != [g.dumps() for g in base]
    assert ([g.dumps() for g in workloads.corpus_graphs(7)]
            == [g.dumps() for g in other])


def test_lift_bases_have_the_stated_shape_and_are_connected():
    for (n, m, ell), g in zip(workloads.LIFT_BASES, workloads.lift_bases(3)):
        assert (g.num_vertices, len(g.edges), g.ell) == (n, m, ell)
        assert magcurv.is_connected(g)


def test_tracer_records_nested_spans_under_every_binding_and_uninstalls():
    original = magcurv.combinatorics.cheeger_number
    g = workloads.corpus_graphs(workloads.DEFAULT_SEED)[1]
    tracer = Tracer()
    tracer.install()
    try:
        assert magcurv.bounds.cheeger_number is not original
        assert magcurv.cheeger_number is magcurv.bounds.cheeger_number
        tracer.request = 0
        magcurv.bounds.cheeger_bound_check(g, 2.0)
    finally:
        tracer.uninstall()
    assert magcurv.bounds.cheeger_number is original
    assert magcurv.cheeger_number is original
    names = {span[3]: span for span in tracer.spans}
    root = names["bounds.cheeger_bound_check"]
    assert root[1] is None
    assert names["combinatorics.cheeger_number"][1] == root[0]
    metrics = tracer.layer_metrics(pass_s=1.0)
    assert metrics["combinatorics.cheeger_number.calls"] == 1
    assert metrics["combinatorics.cheeger_number.subsets"] == 2 ** g.num_vertices - 1
    assert metrics["operators.spectrum.distinct_frac"] == 1.0
