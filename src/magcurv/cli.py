"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = at least one verified
inequality fails (verification commands only), 2 = input or precondition
error, 3 = budget exceeded (girth, cheeger, frustration, lift; verify
records an overrun as a skipped check instead). All floating-point output is
printed with 12 significant digits; JSON output is deterministic for identical
inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import harnack_check, verify_report
from .combinatorics import (DEFAULT_BUDGET, cheeger_number, frustration_index,
                            magnetic_girth)
from .curvature import kappa_max
from .errors import MagcurvError, SizeError
from .graphs import load_graph, random_magnetic_graph
from .lift import build_lift
from .operators import spectrum

__all__ = ["main", "dispatch"]


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _sanitize(obj):
    """Round floats to 12 significant digits; encode non-finite values as strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(format(x, ".12g"))
    return obj


def _emit_json(payload: dict):
    print(json.dumps(_sanitize(payload), indent=2))


def _read_graph(path: str):
    if path == "-":
        return load_graph(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return load_graph(fh.read())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magcurv",
        description="Spectral and curvature toolkit for magnetic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("input", help="graph document path, or - for stdin")
    graph.add_argument("--json", action="store_true", help="emit JSON")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="search budget: girth and lift BFS states, elimination table "
                             "entries, lift vertices")

    sub.add_parser("spectrum", parents=[graph], help="eigenvalues/eigenvectors of -Laplacian")

    p = sub.add_parser("curvature", parents=[graph], help="optimal curvature kappa_max(n)")
    p.add_argument("--n", type=float, default=2.0, help="dimension parameter (or inf)")

    sub.add_parser("girth", parents=[graph, budget], help="magnetic girth")

    p = sub.add_parser("lift", parents=[graph, budget],
                       help="covering graph in document format (ell = 1)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("frustration", parents=[graph, budget],
                       help="frustration index of a vertex subset")
    p.add_argument("--subset", required=True,
                   help="comma-separated vertex list, e.g. 0,1,2")

    sub.add_parser("cheeger", parents=[graph, budget], help="magnetic Cheeger number")

    p = sub.add_parser("harnack", parents=[graph], help="Harnack inequality per eigenpair")
    p.add_argument("--n", type=float, default=2.0)
    p.add_argument("--kappa", type=float, default=None,
                   help="curvature lower bound (default: certified kappa_max)")

    p = sub.add_parser("verify", parents=[graph, budget],
                       help="verify every applicable inequality")
    p.add_argument("--n", type=float, default=2.0)
    p.add_argument("--kappa", type=float, default=None)

    p = sub.add_parser("generate", help="random connected magnetic graph document")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edge-prob", type=float, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the random graph")

    return parser


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.input)
    spec = spectrum(g)
    if args.json:
        _emit_json(spec.to_json_dict())
    else:
        print("eigenvalues of -Laplacian (ascending):")
        for lam in spec.eigenvalues:
            print(f"  {_fmt(float(lam))}")
    return 0


def _cmd_curvature(args) -> int:
    g = _read_graph(args.input)
    result = kappa_max(g, args.n)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(f"kappa_max(n={_fmt(args.n)}) = {_fmt(result.kappa_max)} "
              f"(witness vertex {result.witness_vertex})")
        print("per-vertex: " + " ".join(_fmt(float(v)) for v in result.per_vertex))
    return 0


def _cmd_girth(args) -> int:
    g = _read_graph(args.input)
    girth = magnetic_girth(g, budget=args.budget)
    if args.json:
        _emit_json({"girth": girth})
    else:
        print(f"magnetic girth: {girth if girth != math.inf else 'inf'}")
    return 0


def _cmd_lift(args) -> int:
    g = _read_graph(args.input)
    doc = build_lift(g, budget=args.budget).graph.to_document()
    text = json.dumps(_sanitize(doc), indent=2 if args.json else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_frustration(args) -> int:
    g = _read_graph(args.input)
    try:
        subset = [int(tok) for tok in args.subset.split(",") if tok != ""]
    except ValueError:
        raise MagcurvError(f"could not parse subset {args.subset!r}")
    result = frustration_index(g, subset, budget=args.budget)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(f"frustration index: {_fmt(result.value)}")
        print("tau exponents: " + " ".join(str(t) for t in result.tau))
    return 0


def _cmd_cheeger(args) -> int:
    g = _read_graph(args.input)
    result = cheeger_number(g, budget=args.budget)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(f"h1 = {_fmt(result.h1)}")
        print(f"subset: {list(result.subset)}  frustration: {_fmt(result.frustration)}")
    return 0


def _cmd_harnack(args) -> int:
    g = _read_graph(args.input)
    records = harnack_check(g, args.n, args.kappa)
    if args.json:
        _emit_json({"n": args.n, "records": [r.to_json_dict() for r in records]})
    else:
        for r in records:
            status = "pass" if r.passed else "FAIL"
            print(f"lambda={_fmt(r.lam)}  lhs={_fmt(r.lhs)}  rhs={_fmt(r.rhs)}  {status}")
    return 0 if all(r.passed for r in records) else 1


def _cmd_verify(args) -> int:
    g = _read_graph(args.input)
    report = verify_report(g, n=args.n, kappa=args.kappa, budget=args.budget)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(report.to_markdown())
    return 0 if report.all_passed else 1


def _cmd_generate(args) -> int:
    g = random_magnetic_graph(args.vertices, args.edge_prob, args.ell,
                              seed=args.seed)
    print(json.dumps(_sanitize(g.to_document())))
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "curvature": _cmd_curvature,
    "girth": _cmd_girth,
    "lift": _cmd_lift,
    "frustration": _cmd_frustration,
    "cheeger": _cmd_cheeger,
    "harnack": _cmd_harnack,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def dispatch(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MagcurvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
