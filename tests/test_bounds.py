import math
import time
import tracemalloc

import numpy as np
import pytest

import magcurv
import magcurv.lift
from magcurv.bounds import (alpha_bound_check, cheeger_bound_check,
                            eigenvalue_lower_bound, harnack_check,
                            lift_diameter_check, verify_report)
from magcurv.curvature import _one_ball, kappa_max
from magcurv.combinatorics import magnetic_girth
from magcurv.errors import DimensionError, PreconditionError, SizeError, ValidationError
from magcurv.graphs import diameter, from_edge_list, random_magnetic_graph, signature_status
from magcurv.lift import lift_diameter
from magcurv.operators import energy, spectrum


@pytest.fixture
def split4():
    """Two disjoint edges: disconnected."""
    return from_edge_list(4, 2, [(0, 1, 1.0, 1), (2, 3, 1.0, 1)])


def test_harnack_b3_plain(b3):
    records = harnack_check(b3.untwisted(), 2.0, "auto")
    assert len(records) == 2  # the two lambda = 3/2 eigenpairs
    assert all(abs(r.lam - 1.5) <= 1e-12 for r in records)
    assert all(r.passed for r in records)


def test_harnack_t3_magnetic(t3):
    records = harnack_check(t3, 2.0, "auto")
    assert len(records) == 3
    np.testing.assert_allclose(sorted(r.lam for r in records), [0.5, 0.5, 2.0],
                               atol=1e-12)
    assert all(r.passed for r in records)


def test_harnack_requires_connected():
    g = from_edge_list(4, 2, [(0, 1, 1.0, 1), (2, 3, 1.0, 1)])
    with pytest.raises(PreconditionError):
        harnack_check(g, 2.0, "auto")


def test_harnack_scaling_invariance(t3):
    """Both sides of the raw inequality are quadratic in f: scaling f by 10
    scales the slack by 100 and never flips the verdict."""
    spec = spectrum(t3)
    kap = kappa_max(t3, 2.0).kappa_max
    f = spec.eigenvectors[:, 2]
    lam = spec.eigenvalues[2]
    for scale in (1.0, 10.0):
        fs = scale * f
        lhs = float(energy(t3, fs).max())
        rhs = ((8.0 - 1.0) * lam - 4.0 * kap) * float(np.abs(fs).max()) ** 2
        if scale == 1.0:
            base_slack = rhs - lhs
            base_ok = lhs <= rhs
        else:
            assert abs((rhs - lhs) - 100.0 * base_slack) <= 1e-9 * max(1.0, abs(rhs))
            assert (lhs <= rhs) == base_ok


def test_harnack_rhs_nonnegative_when_active(small_corpus):
    for g in small_corpus[:10]:
        records = harnack_check(g, 2.0, "auto")
        for r in records:
            if r.lhs > 1e-12:
                assert r.rhs >= -1e-9


def test_alpha_reduction_matches_harnack(t3, b3):
    for g in (t3, b3.untwisted()):
        kap = kappa_max(g, 2.0).kappa_max
        for hrec in harnack_check(g, 2.0, kap):
            alpha = 4.0 - 2.0 * kap / hrec.lam
            arecs = alpha_bound_check(g, 2.0, kap, alpha)
            arec = next(r for r in arecs if r.eigen_index == hrec.eigen_index)
            assert arec.applicable and not arec.ill_conditioned
            assert abs(arec.rhs - hrec.rhs) <= 1e-12 * max(1.0, abs(hrec.rhs))


def test_alpha_grid_b3(b3):
    plain = b3.untwisted()
    kap = kappa_max(plain, 2.0).kappa_max
    for alpha in (3.0, 4.0, 5.0, 6.0):
        for rec in alpha_bound_check(plain, 2.0, kap, alpha):
            assert rec.applicable
            assert rec.passed


def test_alpha_boundary_is_ill_conditioned(b3):
    plain = b3.untwisted()
    kap = kappa_max(plain, 2.0).kappa_max
    lam = 1.5
    alpha = 2.0 - 2.0 * kap / lam + 1e-9
    recs = alpha_bound_check(plain, 2.0, kap, alpha)
    assert all(r.ill_conditioned for r in recs if abs(r.lam - lam) < 1e-9)


def test_alpha_below_threshold_reported_not_raised(t3):
    recs = alpha_bound_check(t3, 2.0, 0.0, -5.0)
    assert all(not r.applicable for r in recs)


def test_eigenvalue_bound_c4sigma(c4sigma):
    rec = eigenvalue_lower_bound(c4sigma, 2.0)
    closed_form = 1.0 - math.cos(math.pi / 4.0)
    assert abs(rec.lambda_min - closed_form) <= 1e-9
    assert rec.passed and rec.passed_lift
    assert rec.lambda_min >= rec.bound - 1e-12
    assert rec.lambda_min >= rec.lift_bound - 1e-12


def test_eigenvalue_bound_t3_quantities(t3):
    rec = eigenvalue_lower_bound(t3, 2.0)
    assert (rec.diameter, rec.girth, rec.max_degree) == (1, 3, 2.0)
    assert rec.lift_diameter == 3
    assert abs(rec.lambda_min - 0.5) <= 1e-12
    assert rec.passed and rec.passed_lift
    # hand recomputation of the bound with L = 2*1 + 2*3 = 8
    kap = rec.kappa
    want = (1.0 + 4.0 * kap * 2.0 * 64.0) / (2.0 * 7.0 * 64.0)
    assert abs(rec.bound - want) <= 1e-15


def test_eigenvalue_bound_hypothesis_gates(b3):
    with pytest.raises(PreconditionError) as err:
        eigenvalue_lower_bound(b3, 2.0)
    assert err.value.hypothesis == "unbalanced"
    g = from_edge_list(4, 2, [(0, 1, 1.0, 1), (2, 3, 1.0, 1)])
    with pytest.raises(PreconditionError) as err:
        eigenvalue_lower_bound(g, 2.0)
    assert err.value.hypothesis == "connected"


def test_lift_bound_dominates_path_bound(small_corpus):
    # the bound is decreasing in the squared length and the lift diameter
    # never exceeds 2D + ell * girth, so the lift form is at least as tight
    for g in small_corpus:
        status = signature_status(g)
        if status.balanced or not status.entire:
            continue
        try:
            rec = eigenvalue_lower_bound(g, 2.0)
        except PreconditionError:
            continue
        assert rec.lift_bound >= rec.bound - 1e-15


def test_eigenvalue_bound_vacuous_flag(t3):
    # a hugely negative kappa makes the bound nonpositive: trivially true,
    # reported with the vacuous flag rather than suppressed
    rec = eigenvalue_lower_bound(t3, 2.0, kappa=-100.0)
    assert rec.bound <= 0.0
    assert rec.vacuous and rec.vacuous_lift
    assert rec.passed and rec.passed_lift


def test_cheeger_bound_t3(t3):
    rec = cheeger_bound_check(t3, 2.0)
    assert abs(rec.lambda_min - 0.5) <= 1e-12
    assert abs(rec.h1 - 1.0 / 3.0) <= 1e-12
    assert abs(rec.lower - 0.25) <= 1e-12
    assert abs(rec.upper - 2.0 * math.sqrt(2.0)) <= 1e-12
    assert rec.lower_passed and rec.upper_passed
    assert rec.curvature_lower is not None and rec.curvature_lower_passed


def test_cheeger_bound_c4sigma(c4sigma):
    rec = cheeger_bound_check(c4sigma, 2.0)
    assert rec.lower_passed and rec.upper_passed
    assert rec.curvature_lower_passed


def test_cheeger_bound_uses_given_kappa(t3):
    # t3: d = 2, diameter 1, ell = 2, girth 3, so the path length is 8
    auto = verify_report(t3, 2.0).cheeger.curvature_lower
    rec = verify_report(t3, 2.0, kappa=-1.0).cheeger
    direct = cheeger_bound_check(t3, 2.0, kappa=-1.0)
    assert rec.curvature_lower == direct.curvature_lower != auto
    want = (1.0 - 4.0 * 2.0 * 64.0) / (2.0 * 14.0 * 64.0)
    assert abs(rec.curvature_lower - want) <= 1e-15
    assert rec.curvature_lower_vacuous


def test_cheeger_bound_is_half_the_eigenvalue_bound(monkeypatch, t3):
    calls = []

    def counted(name):
        fn = getattr(magcurv.bounds, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("spectrum", "cheeger_number"):
        monkeypatch.setattr(magcurv.bounds, name, counted(name))
    rec = cheeger_bound_check(t3, 2.0, kappa=-1.0)
    assert sorted(calls) == ["cheeger_number", "spectrum"]
    path = eigenvalue_lower_bound(t3, 2.0, kappa=-1.0)
    assert rec.curvature_lower == 0.5 * path.bound
    assert rec.lambda_min == path.lambda_min


def test_cheeger_bound_balanced_degenerates(b3):
    rec = cheeger_bound_check(b3, 2.0)
    assert abs(rec.lambda_min) <= 1e-9
    assert rec.h1 == 0.0
    assert rec.lower_passed and rec.upper_passed
    assert rec.curvature_lower is None  # hypotheses not met


def test_verify_report_t3(t3):
    report = verify_report(t3, 2.0)
    assert report.all_passed
    assert report.eigenvalue is not None
    assert report.cheeger is not None
    md = report.to_markdown()
    assert "harnack" in md and "all pass" in md
    payload = report.to_json_dict()
    assert payload["all_passed"] is True
    assert payload["hypotheses"] == {"connected": True, "balanced": False,
                                     "entire": True, "girth_finite": True}


def test_verify_report_balanced_skips_eigen_bound(b3):
    report = verify_report(b3, 2.0)
    assert report.eigenvalue is None
    assert "unbalanced" in report.eigenvalue_skipped
    assert report.cheeger is not None
    assert report.all_passed


@pytest.mark.parametrize("n", [1.0, 0.5, 0.0, -2.0, math.nan])
@pytest.mark.parametrize("kappa", ["auto", 0.0])
def test_every_check_rejects_a_bad_dimension(t3, b3, split4, n, kappa):
    # with or without a given kappa, and before any hypothesis
    for check in (harnack_check, eigenvalue_lower_bound, cheeger_bound_check,
                  verify_report):
        for g in (t3, b3, split4):
            with pytest.raises(DimensionError, match="n > 1"):
                check(g, n, kappa)
    with pytest.raises(DimensionError, match="n > 1"):
        alpha_bound_check(t3, n, 0.0, 3.0)


def test_nan_kappa_is_rejected_and_infinite_kept(t3, b3, split4):
    # before any hypothesis
    for check in (harnack_check, eigenvalue_lower_bound, cheeger_bound_check,
                  verify_report):
        for g in (t3, b3, split4):
            with pytest.raises(ValidationError, match="kappa"):
                check(g, 2.0, math.nan)
    assert eigenvalue_lower_bound(t3, 2.0, -math.inf).bound == -math.inf
    assert not any(r.passed for r in harnack_check(t3, 2.0, math.inf))


def test_a_disconnected_graph_certifies_no_kappa(split4, monkeypatch):
    # connectivity is checked before kappa_max builds a curvature form
    builds = []
    build = _one_ball.__wrapped__
    monkeypatch.setattr(_one_ball, "__wrapped__",
                        lambda h: builds.append(h) or build(h))
    for check in (verify_report, harnack_check):
        with pytest.raises(PreconditionError, match="connected"):
            check(split4, 2.0)
    assert builds == []


def test_alpha_bound_check_rejects_nan_and_keeps_infinite(t3):
    for kappa, alpha in ((math.nan, 3.0), (0.0, math.nan)):
        with pytest.raises(ValidationError, match="must be a number, got nan"):
            alpha_bound_check(t3, 2.0, kappa, alpha)
    records = alpha_bound_check(t3, 2.0, -math.inf, 3.0)
    assert len(records) == 3 and not any(r.applicable for r in records)


def test_lift_diameter_check_lives_in_bounds(t3):
    assert magcurv.lift_diameter_check is lift_diameter_check
    assert not hasattr(magcurv.lift, "lift_diameter_check")
    assert lift_diameter_check(t3).passed


def test_verify_report_fails_at_uncertified_kappa(t3):
    report = verify_report(t3, 2.0, kappa=10.0)
    assert not report.all_passed


# Every check with an n and a kappa, the rest of its arguments fixed.
CHECKS = {
    "harnack": harnack_check,
    "alpha": lambda g, n, kappa: alpha_bound_check(g, n, kappa, 3.0),
    "eigenvalue": eigenvalue_lower_bound,
    "cheeger": cheeger_bound_check,
    "verify": verify_report,
}


def _t3_at(ell):
    return from_edge_list(3, ell, [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 1.0, 1)])


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_takes_its_steps_in_one_order(monkeypatch, split4, b3, name):
    check = CHECKS[name]
    # n before kappa, kappa before the hypotheses
    with pytest.raises(DimensionError, match="n > 1"):
        check(split4, 0.5, math.nan)
    with pytest.raises(ValidationError, match="kappa must be a number, got nan"):
        check(split4, 2.0, math.nan)
    if name == "alpha":
        return   # it has no hypothesis, and its kappa is always given
    # a failed hypothesis, raised or (by the Cheeger check) recorded, comes
    # before any kappa is certified
    certified = []
    monkeypatch.setattr(magcurv.bounds, "kappa_max",
                        lambda g, n: certified.append(g) or kappa_max(g, n))
    for g in [split4] + ([b3] if name in ("eigenvalue", "cheeger") else []):
        if name == "cheeger":
            assert check(g, 2.0, "auto").curvature_lower is None
        else:
            with pytest.raises(PreconditionError):
                check(g, 2.0, "auto")
    assert certified == []


def test_the_lift_bfs_is_held_to_the_budget(monkeypatch):
    # t3 at ell = 7: the lift BFS walks N * N * ell = 63 states
    g = _t3_at(7)
    assert magnetic_girth(g, budget=62) == 3   # the girth search fits 62 states
    # every walk BFS, the lift's (modulus 7) and D's (modulus 1), is counted
    walks = []
    walk = magcurv.graphs._farthest_walk
    counted = lambda h, modulus: walks.append(modulus) or walk(h, modulus)   # noqa: E731
    for module in (magcurv.graphs, magcurv.lift):
        monkeypatch.setattr(module, "_farthest_walk", counted)
    message = "^lift diameter needs 63 BFS states, over budget 62$"
    for check in (lambda: eigenvalue_lower_bound(g, 2, budget=62),
                  lambda: lift_diameter_check(g, budget=62)):
        with pytest.raises(SizeError, match=message):
            check()
    assert walks == []
    report = verify_report(g, 2, budget=62)
    assert report.eigenvalue_skipped == "budget: lift diameter needs 63 BFS states, over budget 62"
    assert report.girth_finite is True
    rec = eigenvalue_lower_bound(g, 2, budget=63)
    assert walks == [7, 1]   # the lift BFS is held to the budget before D's
    assert rec == eigenvalue_lower_bound(_t3_at(7), 2)
    assert (rec.girth, rec.diameter, rec.lift_diameter) == (3, 1, 10)   # a 21-cycle
    assert lift_diameter_check(g, budget=63).passed


def test_the_lift_bfs_refuses_before_the_diameter_walks():
    # 2500 vertices, entire with girth 4: the lift BFS needs 12.5 * 10^6
    # states, and D's 6.25 * 10^6-state BFS is not walked before it refuses
    g = random_magnetic_graph(2500, 3 / 2499, 2, seed=1)
    start = time.perf_counter()
    with pytest.raises(SizeError, match="^lift diameter needs 12500000 BFS states, "
                                        "over budget 10000000$"):
        lift_diameter_check(g)
    assert time.perf_counter() - start < 1.0
    assert magnetic_girth(g) == 4 and "_memo" in vars(g)
    assert all(key[0] is not diameter.__wrapped__ for key in vars(g)["_memo"])


def test_verify_runs_at_a_billion_levels():
    # the lift BFS would walk 9 * 10^9 states; its budget check skips it
    g = _t3_at(10**9)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_report(g, 2.0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20
    assert report.eigenvalue_skipped == ("budget: lift diameter needs 9000000000 BFS "
                                         "states, over budget 10000000")
    assert report.cheeger_skipped.startswith("budget: exact Cheeger needs 1000000001^3")
    assert report.girth_finite is True and report.all_passed
