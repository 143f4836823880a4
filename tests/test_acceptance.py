"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <k> ...: PASS/FAIL` line (visible with
pytest -s and in captured output). Tolerances are pinned here and nowhere
else. The shared corpus is 200 deterministic connected random magnetic graphs
with N <= 10 and ell in {2, 3, 4}; per-graph curvature certificates are
cached across criteria.
"""

import json
import math
import time

from magcurv.bounds import (alpha_bound_check, cheeger_bound_check,
                            eigenvalue_lower_bound, harnack_check,
                            lift_diameter_check)
from magcurv.cli import main as cli_main
from magcurv.combinatorics import frustration_index, magnetic_girth
from magcurv.curvature import cd_check_function, cd_check_graph, kappa_max
from magcurv.graphs import diameter, signature_status
from magcurv.lift import verify_lift_identities

from .conftest import random_functions, two_n_cycle
from .oracles import kappa_max_bisect
from .test_combinatorics import min_deletions_for_balance

_CURVATURE_CACHE: dict = {}


def certified_curvature(corpus, i):
    """kappa_max result at n = 2 for corpus graph i, memoized."""
    if i not in _CURVATURE_CACHE:
        _CURVATURE_CACHE[i] = kappa_max(corpus[i], 2.0)
    return _CURVATURE_CACHE[i]


def report(num, name, failures, elapsed=None, budget=None):
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{timing}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"
    if budget is not None and elapsed is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_cycle_family():
    """2n-cycles with one primitive-root edge: girth 2n, diameter n, lift
    diameter n*ell (for ell = 2), and the covering-diameter bound."""
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        for ell in (2, 4):
            g = two_n_cycle(n, ell)
            girth = magnetic_girth(g)
            dia = diameter(g)
            if girth != 2 * n:
                failures.append(f"girth({n},{ell})={girth}")
            if dia != n:
                failures.append(f"diameter({n},{ell})={dia}")
            res = lift_diameter_check(g)
            if not res.passed:
                failures.append(f"lift bound({n},{ell})")
            if ell == 2 and res.lift_diameter != n * ell:
                failures.append(f"lift diameter({n},{ell})={res.lift_diameter}")
    report(1, "2n-cycle family", failures, time.monotonic() - t0, budget=1.0)


def test_criterion_2_lift_identities(corpus):
    """Energy and Laplacian transfer identities to 1e-12, checked row by row
    on the base and lift edge tables, and every eigenpair lifts with
    residual <= 1e-9, on 200 graphs."""
    t0 = time.monotonic()
    failures = []
    for i, g in enumerate(corpus):
        rep = verify_lift_identities(g)
        if rep.max_energy_residual > 1e-12:
            failures.append(f"energy[{i}]={rep.max_energy_residual:.2e}")
        if rep.max_laplacian_residual > 1e-12:
            failures.append(f"laplacian[{i}]={rep.max_laplacian_residual:.2e}")
        if rep.max_eigenpair_residual > 1e-9:
            failures.append(f"eigenpair[{i}]={rep.max_eigenpair_residual:.2e}")
    report(2, "lift identity suite", failures, time.monotonic() - t0, budget=30.0)


def test_criterion_3_curvature_certificates(corpus):
    """kappa_max(2) brackets the CD decision within 1e-6, agrees with
    bisection within 1e-6, and certifies 1000 random functions per graph."""
    t0 = time.monotonic()
    failures = []
    for i, g in enumerate(corpus):
        km = certified_curvature(corpus, i).kappa_max
        eps = 1e-6 * max(1.0, abs(km))
        if not cd_check_graph(g, 2.0, km - eps).passed:
            failures.append(f"bracket-low[{i}]")
        if cd_check_graph(g, 2.0, km + eps).passed:
            failures.append(f"bracket-high[{i}]")
        kb = kappa_max_bisect(g, 2.0)
        if abs(km - kb) > 1e-6:
            failures.append(f"pencil-vs-bisect[{i}]={abs(km - kb):.2e}")
        fs = random_functions(g, 1000, seed=1000 + i)
        if not cd_check_function(g, fs, 2.0, km).all_passed:
            failures.append(f"random-f[{i}]")
    report(3, "curvature certificate soundness", failures,
           time.monotonic() - t0, budget=120.0)


def _qualifying(corpus):
    out = []
    for i, g in enumerate(corpus):
        status = signature_status(g)
        if not status.balanced and status.entire:
            out.append(i)
    return out


def test_criterion_4_harnack_property(corpus):
    """Every nontrivial magnetic eigenpair of every qualifying corpus graph
    satisfies the Harnack bound at (2, kappa_max) with slack >= -1e-9."""
    t0 = time.monotonic()
    failures = []
    qualifying = _qualifying(corpus)
    assert len(qualifying) >= 100, "corpus lost its unbalanced-entire majority"
    for i in qualifying:
        cert = certified_curvature(corpus, i)
        for rec in harnack_check(corpus[i], 2.0, cert.kappa_max):
            if rec.slack < -1e-9:
                failures.append(f"graph[{i}] lambda={rec.lam:.6f} "
                                f"slack={rec.slack:.2e}")
    report(4, "Harnack property", failures, time.monotonic() - t0)


def test_criterion_5_alpha_reduction(corpus):
    """At alpha = 4 - 2 kappa / lambda the alpha bound's right side equals the
    Harnack right side to 1e-12, on 50 corpus graphs."""
    t0 = time.monotonic()
    failures = []
    for i in range(50):
        g = corpus[i]
        cert = certified_curvature(corpus, i)
        kap = cert.kappa_max
        for hrec in harnack_check(g, 2.0, kap):
            alpha = 4.0 - 2.0 * kap / hrec.lam
            arecs = alpha_bound_check(g, 2.0, kap, alpha)
            arec = next(r for r in arecs if r.eigen_index == hrec.eigen_index)
            if not arec.applicable or arec.ill_conditioned:
                failures.append(f"graph[{i}] inapplicable at reduction alpha")
            elif abs(arec.rhs - hrec.rhs) > 1e-12 * max(1.0, abs(hrec.rhs)):
                failures.append(f"graph[{i}] rhs mismatch "
                                f"{abs(arec.rhs - hrec.rhs):.2e}")
    report(5, "alpha-reduction identity", failures, time.monotonic() - t0)


def test_criterion_6_eigenvalue_bound(corpus, c4sigma):
    """lambda_min beats both the path-length bound and the lift-diameter bound
    (tolerance 1e-12) on every qualifying graph; C4sigma matches its closed
    form to 1e-9."""
    t0 = time.monotonic()
    failures = []
    rec = eigenvalue_lower_bound(c4sigma, 2.0)
    if abs(rec.lambda_min - (1.0 - math.cos(math.pi / 4.0))) > 1e-9:
        failures.append("C4sigma closed form")
    for i in _qualifying(corpus):
        g = corpus[i]
        if magnetic_girth(g) == math.inf:
            continue
        cert = certified_curvature(corpus, i)
        rec = eigenvalue_lower_bound(g, 2.0, cert.kappa_max)
        if rec.lambda_min < rec.bound - 1e-12:
            failures.append(f"graph[{i}] path bound")
        if rec.lambda_min < rec.lift_bound - 1e-12:
            failures.append(f"graph[{i}] lift bound")
    report(6, "eigenvalue lower bound", failures, time.monotonic() - t0)


def test_criterion_7_cheeger(corpus, t3):
    """Exact Cheeger checks: the triangle value 1/3 and its sandwich; the
    sandwich plus the curvature lower bound corpus-wide; and, for ell = 2
    graphs with <= 8 edges, frustration = 2 x (minimum deletions to balance)
    against a brute-force oracle."""
    t0 = time.monotonic()
    failures = []

    rec = cheeger_bound_check(t3, 2.0)
    if abs(rec.h1 - 1.0 / 3.0) > 1e-12:
        failures.append("T3 h1")
    if not (abs(rec.lower - 0.25) <= 1e-12 and rec.lower_passed):
        failures.append("T3 lower")
    if not (abs(rec.upper - 2.0 * math.sqrt(2.0)) <= 1e-12 and rec.upper_passed):
        failures.append("T3 upper")

    for i, g in enumerate(corpus):
        rec = cheeger_bound_check(g, 2.0)
        if not rec.lower_passed:
            failures.append(f"graph[{i}] sandwich lower")
        if not rec.upper_passed:
            failures.append(f"graph[{i}] sandwich upper")
        if rec.curvature_lower is not None and rec.curvature_lower > rec.h1 + 1e-12:
            failures.append(f"graph[{i}] curvature lower")

    checked = 0
    for i, g in enumerate(corpus):
        if g.ell != 2 or len(g.edges) > 8:
            continue
        value = frustration_index(g, range(g.num_vertices)).value
        count, weight = min_deletions_for_balance(g)
        if abs(value - 2.0 * weight) > 1e-9:
            failures.append(f"graph[{i}] frustration vs deletion oracle")
        if all(e.w == 1.0 for e in g.edges):
            # the classical count form of the identity
            if abs(value - 2.0 * count) > 1e-9:
                failures.append(f"graph[{i}] frustration vs deletion count")
            checked += 1
    if checked < 5:
        failures.append(f"only {checked} unit-weight sign graphs in corpus")
    report(7, "Cheeger checks", failures, time.monotonic() - t0, budget=300.0)


def test_criterion_8_determinism(corpus, tmp_path, capsys):
    """Repeated `verify --json` runs on the corpus are byte-identical."""
    t0 = time.monotonic()
    failures = []
    for i, g in enumerate(corpus):
        path = tmp_path / f"g{i}.json"
        path.write_text(g.dumps())
        code1 = cli_main(["verify", str(path), "--n", "2", "--json"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["verify", str(path), "--n", "2", "--json"])
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2:
            failures.append(f"graph[{i}] output drift")
        if json.loads(out1).get("all_passed") is not True:
            failures.append(f"graph[{i}] verify reported failure")
    report(8, "determinism", failures, time.monotonic() - t0)
