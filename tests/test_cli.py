import argparse
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from magcurv.cli import _build_parser, main
from magcurv.graphs import from_edge_list, load_graph

ROOT = Path(__file__).resolve().parents[1]
# Runs `magcurv verify - --json` in a fresh interpreter, then lists on stderr
# every scipy module it loaded.
NO_SCIPY_PROBE = (
    "import sys; from magcurv.cli import main; code = main(['verify', '-', '--json']); "
    "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr); "
    "sys.exit(code)")
# Runs `magcurv verify PATH --json` and kappa_max on the document at PATH in a
# fresh interpreter, then prints on stderr whether scipy was imported.
KAPPA_NO_SCIPY_PROBE = (
    "import sys; from magcurv.cli import main; from magcurv.curvature import kappa_max; "
    "from magcurv.graphs import load_graph; code = main(['verify', sys.argv[1], '--json']); "
    "kappa_max(load_graph(open(sys.argv[1]).read()), 2.0); "
    "print('scipy' in sys.modules, file=sys.stderr); sys.exit(code)")

T3 = {"ell": 2, "num_vertices": 3,
      "edges": [{"u": 0, "v": 1, "w": 1.0, "s": 0},
                {"u": 1, "v": 2, "w": 1.0, "s": 0},
                {"u": 0, "v": 2, "w": 1.0, "s": 1}]}


@pytest.fixture
def t3_path(tmp_path):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(T3))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_file_is_closed(t3_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", str(t3_path)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_spectrum_json(t3_path, capsys):
    code, out = run(capsys, "spectrum", t3_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalues"] == [0.5, 0.5, 2.0]


def test_verify_passes(t3_path, capsys):
    code, out = run(capsys, "verify", t3_path, "--n", "2")
    assert code == 0
    assert "all pass" in out


def test_verify_json_deterministic(t3_path, capsys):
    code1, out1 = run(capsys, "verify", t3_path, "--n", "2", "--json")
    code2, out2 = run(capsys, "verify", t3_path, "--n", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["all_passed"] is True


def test_verify_fails_at_bad_kappa(t3_path, capsys):
    code, _ = run(capsys, "verify", t3_path, "--n", "2", "--kappa", "10")
    assert code == 1


def test_verify_budget_overrun_skips_only_its_records(tmp_path, capsys):
    # 40 vertices: the girth search overruns a budget of 5 states and exact
    # Cheeger a budget of 5 table entries; every other record is still computed.
    code, doc = run(capsys, "generate", "--vertices", "40", "--edge-prob", "0.1",
                    "--ell", "3", "--seed", "1")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(doc)
    code, out = run(capsys, "verify", str(path), "--budget", "5", "--json")
    assert code != 3 and code in (0, 1)
    payload = json.loads(out)
    assert code == (0 if payload["all_passed"] else 1)
    assert payload["hypotheses"]["girth_finite"] is None
    assert payload["eigenvalue_bound"] is None
    assert payload["eigenvalue_bound_skipped"] == \
        "budget: cycle search exceeded budget of 5 states"
    assert payload["cheeger"] is None
    assert payload["cheeger_skipped"] == \
        "budget: exact Cheeger needs 4^2 table entries at elimination width 1, over budget 5"
    assert len(payload["harnack"]) == len(payload["alpha"]) > 0


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == {
        "spectrum": {"--json"},
        "curvature": {"--json", "--n"},
        "girth": {"--json", "--budget"},
        "lift": {"--json", "--out", "--budget"},
        "frustration": {"--json", "--subset", "--budget"},
        "cheeger": {"--json", "--budget"},
        "harnack": {"--json", "--n", "--kappa"},
        "verify": {"--json", "--n", "--kappa", "--budget"},
        "generate": {"--vertices", "--edge-prob", "--ell", "--seed"},
    }


def test_girth_and_curvature(t3_path, capsys):
    code, out = run(capsys, "girth", t3_path, "--json")
    assert code == 0 and json.loads(out)["girth"] == 3
    code, out = run(capsys, "curvature", t3_path, "--n", "2", "--json")
    assert code == 0
    assert abs(json.loads(out)["kappa_max"]) <= 1e-9


def test_girth_inf_encoding(tmp_path, capsys):
    b3 = {"ell": 2, "num_vertices": 3,
          "edges": [{"u": 0, "v": 1, "w": 1.0, "s": 0},
                    {"u": 1, "v": 2, "w": 1.0, "s": 0},
                    {"u": 0, "v": 2, "w": 1.0, "s": 0}]}
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(b3))
    code, out = run(capsys, "girth", str(path), "--json")
    assert code == 0 and json.loads(out)["girth"] == "inf"


def test_cheeger_exact_and_budget(t3_path, tmp_path, capsys):
    code, out = run(capsys, "cheeger", t3_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["h1"] - 1 / 3) <= 1e-9
    assert payload["subset"] == [0, 1, 2]

    wide = from_edge_list(12, 4, [(u, v, 1.0, 0) for u in range(12) for v in range(u + 1, 12)])
    path = tmp_path / "wide.json"
    path.write_text(wide.dumps())
    code, _ = run(capsys, "cheeger", str(path))
    assert code == 3


@pytest.mark.parametrize("args, message", [
    (["cheeger"], "exact Cheeger needs 3^3 table entries at elimination width 2, over budget 1"),
    (["frustration", "--subset", "0,1,2"],
     "exact frustration needs 2^3 table entries at elimination width 2, over budget 1"),
])
def test_an_elimination_table_over_budget_exits_3(t3_path, capsys, args, message):
    assert main([args[0], t3_path, *args[1:], "--budget", "1"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_frustration_subcommand(t3_path, capsys):
    code, out = run(capsys, "frustration", t3_path, "--subset", "0,1,2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2.0


def test_lift_subcommand(t3_path, tmp_path, capsys):
    out_path = tmp_path / "lift.json"
    code, _ = run(capsys, "lift", t3_path, "--out", str(out_path))
    assert code == 0
    lifted = load_graph(out_path.read_text())
    assert lifted.num_vertices == 6 and lifted.ell == 1
    assert all(e.s == 0 for e in lifted.edges)


def test_harnack_subcommand(t3_path, capsys):
    code, out = run(capsys, "harnack", t3_path, "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 3
    assert all(r["passed"] for r in payload["records"])


def test_generate_deterministic(capsys):
    code1, out1 = run(capsys, "generate", "--vertices", "8", "--edge-prob", "0.5",
                      "--ell", "3", "--seed", "7")
    code2, out2 = run(capsys, "generate", "--vertices", "8", "--edge-prob", "0.5",
                      "--ell", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    g = load_graph(out1)
    assert g.num_vertices == 8 and g.ell == 3


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(T3)))
    code, out = run(capsys, "girth", "-")
    assert code == 0 and "3" in out


def test_malformed_document_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"nope\": 1}")
    code, _ = run(capsys, "spectrum", str(path))
    assert code == 2


def test_validation_error_exit_2(tmp_path, capsys):
    doc = dict(T3)
    doc["edges"] = [dict(e) for e in T3["edges"]]
    doc["edges"][0]["w"] = -1.0
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "spectrum", str(path))
    assert code == 2


def test_disconnected_harnack_exit_2(tmp_path, capsys):
    g = from_edge_list(4, 2, [(0, 1, 1.0, 1), (2, 3, 1.0, 1)])
    path = tmp_path / "disc.json"
    path.write_text(g.dumps())
    code, _ = run(capsys, "harnack", str(path))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("harnack", "--n", "0", "--kappa", "0"), "dimension parameter must satisfy n > 1"),
    (("verify", "--n", "0.5", "--kappa", "0"), "dimension parameter must satisfy n > 1"),
    (("harnack", "--kappa", "nan"), "kappa must be a number, got nan"),
    (("verify", "--kappa", "nan"), "kappa must be a number, got nan"),
    (("curvature", "--n=-INF"), "dimension parameter must satisfy n > 1"),
])
def test_bad_dimension_or_kappa_exit_2(t3_path, capsys, argv, message):
    # n is checked even when kappa is given, so it never reaches a division
    code = main([argv[0], t3_path, *argv[1:]])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["inf", "Infinity"])
def test_n_parses_infinity_in_any_case(t3_path, capsys, text):
    code, out = run(capsys, "curvature", t3_path, "--n", text, "--json")
    assert code == 0 and json.loads(out)["n"] == "inf"


def test_non_numeric_n_is_a_usage_error(t3_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", t3_path, "--n", "two"])
    assert exc.value.code == 2
    assert "argument --n: invalid float value: 'two'" in capsys.readouterr().err


def test_unknown_flag_usage_error(t3_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", t3_path, "--nonsense"])
    assert exc.value.code == 2


def test_missing_file_exit_2(capsys):
    code, _ = run(capsys, "spectrum", "/nonexistent/file.json")
    assert code == 2


RECORD_KEYS = {
    "harnack": ["eigen_index", "lambda", "lhs", "rhs", "slack", "passed"],
    "alpha": ["eigen_index", "lambda", "alpha", "applicable", "ill_conditioned",
              "lhs_per_vertex", "rhs", "passed"],
    "eigenvalue_bound": ["lambda_min", "diameter", "lift_diameter", "girth",
                         "max_degree", "n", "kappa", "bound", "bound_alt",
                         "lift_bound", "passed", "passed_lift", "vacuous",
                         "vacuous_lift"],
    "cheeger": ["lambda_min", "h1", "max_degree", "lower", "upper", "lower_passed",
                "upper_passed", "curvature_lower", "curvature_lower_passed",
                "curvature_lower_vacuous"],
}


def test_json_key_order_is_pinned(t3_path, capsys):
    _, out = run(capsys, "cheeger", t3_path, "--json")
    assert list(json.loads(out)) == ["h1", "subset", "frustration", "tau"]
    _, out = run(capsys, "frustration", t3_path, "--subset", "0,1,2", "--json")
    assert list(json.loads(out)) == ["value", "tau", "subset"]
    _, out = run(capsys, "harnack", t3_path, "--json")
    payload = json.loads(out)
    assert list(payload) == ["n", "records"]
    assert all(list(r) == RECORD_KEYS["harnack"] for r in payload["records"])

    _, out = run(capsys, "verify", t3_path, "--json")
    payload = json.loads(out)
    assert list(payload) == ["num_vertices", "ell", "n", "kappa", "hypotheses",
                             "harnack", "alpha", "eigenvalue_bound",
                             "eigenvalue_bound_skipped", "cheeger", "cheeger_skipped",
                             "all_passed"]
    assert list(payload["hypotheses"]) == ["connected", "balanced", "entire",
                                           "girth_finite"]
    for name in ("harnack", "alpha"):
        assert payload[name] and all(list(r) == RECORD_KEYS[name] for r in payload[name])
    for name in ("eigenvalue_bound", "cheeger"):
        assert list(payload[name]) == RECORD_KEYS[name]


def test_parser_is_built_once_and_keeps_no_parse_state(t3_path, capsys):
    assert _build_parser() is _build_parser()
    code, out = run(capsys, "verify", t3_path, "--kappa", "10", "--json")
    assert code == 1 and json.loads(out)["kappa"] == 10
    code, out = run(capsys, "verify", t3_path, "--json")
    assert code == 0 and json.loads(out)["kappa"] != 10


def test_verify_loads_no_scipy(corpus):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], input=corpus[1].dumps(),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True
    assert proc.stderr.splitlines()[-1] == "[]"


def test_verify_and_kappa_max_load_no_scipy(t3_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", KAPPA_NO_SCIPY_PROBE, t3_path],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True
    assert proc.stderr.splitlines()[-1] == "False"


def _t3_document(ell, weight="1.0"):
    return ('{"ell": %d, "num_vertices": 3, "edges": [{"u": 0, "v": 1, "w": %s, "s": 0}, '
            '{"u": 1, "v": 2, "w": 1.0, "s": 0}, {"u": 0, "v": 2, "w": 1.0, "s": 1}]}'
            % (ell, weight))


@pytest.mark.parametrize("ell", [10**9, 2**62])
@pytest.mark.parametrize("command", ["curvature", "spectrum", "girth", "harnack", "verify"])
def test_huge_ell_runs(tmp_path, capsys, ell, command):
    # verify skips the lift BFS (3 * 3 * ell states) and exact Cheeger by budget
    path = tmp_path / "t3big.json"
    path.write_text(_t3_document(ell))
    assert main([command, str(path), "--json"]) == 0
    if command == "verify":
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalue_bound_skipped"] == (
            f"budget: lift diameter needs {9 * ell} BFS states, over budget 10000000")
        assert payload["cheeger_skipped"].startswith("budget: exact Cheeger")
        assert payload["all_passed"] is True


@pytest.mark.parametrize("ell", [10**9, 2**62])
def test_huge_ell_lift_exits_3(tmp_path, capsys, ell):
    # the budget is checked before any of the 3 * ell lift vertices is built
    path = tmp_path / "t3big.json"
    path.write_text(_t3_document(ell))
    assert main(["lift", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: lift needs {3 * ell} vertices, over budget 10000000\n")


def test_lift_budget(t3_path, capsys):
    assert main(["lift", t3_path, "--budget", "5"]) == 3
    assert "over budget 5" in capsys.readouterr().err
    assert main(["lift", t3_path, "--budget", "6"]) == 0
    assert load_graph(capsys.readouterr().out).num_vertices == 6


@pytest.mark.parametrize("doc, message", [
    (_t3_document(2, "9" * 401), "malformed edge tuple"),
    (_t3_document(2**62 + 1), "ell must be at most 2**62"),
    (_t3_document(2**63), "ell must be at most 2**62"),
    (_t3_document(2**70), "ell must be at most 2**62"),
], ids=["weight_401_digits", "ell_2^62+1", "ell_2^63", "ell_2^70"])
def test_an_outside_value_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["verify", str(path), "--json"]) == 2
    assert message in capsys.readouterr().err
