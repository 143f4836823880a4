#!/usr/bin/env python3
"""magcurv benchmark: one seeded workload per process, outputs checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload corpus_verify --seed 20000 --seconds 55 --trace 0

Workloads: corpus_verify and lift_curvature (see README.md). With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of one traced pass,
and the spans are written under benchmarks/results/.
"""

import os

# BLAS is pinned to one thread before numpy can be imported.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPS = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import magcurv; "
                "print(time.perf_counter() - t)")
# A tiny input that loads lazily imported code paths before anything is timed.
WARMUP_DOC = ('{"ell": 2, "num_vertices": 3, "edges": [{"u": 0, "v": 1, "w": 1.0, "s": 0}, '
              '{"u": 1, "v": 2, "w": 1.0, "s": 0}, {"u": 0, "v": 2, "w": 1.0, "s": 1}]}')


def build_parser():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20_000)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def import_magcurv() -> float:
    """Import magcurv from this checkout's src/ and return the import time."""
    if not (SRC / "magcurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no magcurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    magcurv = importlib.import_module("magcurv")
    elapsed = perf_counter() - start
    if Path(magcurv.__file__).resolve().parent != SRC / "magcurv":
        raise SystemExit(f"error: imported magcurv from {magcurv.__file__}, not {SRC}")
    return elapsed


def fresh_import_seconds() -> float:
    """Import time of magcurv in a fresh interpreter with the same environment."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def generate_and_load(workload: str, seed: int) -> list[str]:
    """The workload's graph documents, each parsed and validated by load_graph.

    Raises if a document does not load back to the graph it was written from.
    """
    import magcurv.graphs
    import workloads

    docs = [g.dumps() for g in workloads.WORKLOADS[workload][0](seed)]
    if [magcurv.graphs.load_graph(d).dumps() for d in docs] != docs:
        raise RuntimeError("load_graph did not reproduce a generated document")
    return docs


def run_pass(call, inputs, reference, tracer=None):
    """One pass over the inputs: (wall seconds, latencies, outputs, failures).

    A call fails when it raises, fails its own check, or returns other output
    than the same input gave in the reference pass.
    """
    latencies, outputs, failures = [], [], 0
    start = perf_counter()
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            ok, out = call(item)
        except Exception:  # a failed call is counted, the pass goes on
            traceback.print_exc(file=sys.stderr)
            ok, out = False, ""
        latencies.append(perf_counter() - t0)
        if reference is not None and out != reference[i]:
            print(f"error: output of call {i} drifted between passes", file=sys.stderr)
            ok = False
        if not ok:
            print(f"error: call {i} failed: {out[:300]}", file=sys.stderr)
        failures += not ok
        outputs.append(out)
    return perf_counter() - start, latencies, outputs, failures


def tail(passes: list[list[float]]):
    """Highest nearest-rank percentile of the latencies pooled over passes that
    has at least TAIL_BEYOND samples of one pass beyond it, so that every run of
    a workload reports the same percentile. With TAIL_BEYOND calls a pass or
    fewer no percentile qualifies, and the slowest input's median latency over
    the passes stands in. Returns (value, percentile, samples beyond)."""
    per_pass = len(passes[0])
    if per_pass <= TAIL_BEYOND:
        return max(statistics.median(col) for col in zip(*passes)), 100.0, 0
    xs = sorted(x for lat in passes for x in lat)
    rank = -(-len(xs) * (per_pass - TAIL_BEYOND) // per_pass)  # ceil
    return xs[rank - 1], 100.0 * (per_pass - TAIL_BEYOND) / per_pass, len(xs) - rank


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def measure(args, import_s: float) -> tuple[dict, dict]:
    """Untraced run: set-up several times, then at least MIN_PASSES passes and
    more while the next one fits in --seconds."""
    imports = [import_s] + [fresh_import_seconds() for _ in range(SETUP_REPS - 1)]
    loads = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = generate_and_load(args.workload, args.seed)
        loads.append(perf_counter() - t0)

    import workloads

    call = workloads.WORKLOADS[args.workload][1]
    call(WARMUP_DOC)

    start = perf_counter()
    pass_times, latencies, reference, failed = [], [], None, 0
    while True:
        wall, lat, outputs, failures = run_pass(call, inputs, reference)
        pass_times.append(wall)
        latencies.append(lat)
        failed += failures
        reference = reference or outputs
        if (len(pass_times) >= MIN_PASSES and perf_counter() - start
                + statistics.median(pass_times) > args.seconds):
            break
    attempted = len(inputs) * len(pass_times)
    tail_ms, tail_pct, tail_beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(loads), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "call_p50_ms": (1e3 * statistics.median(x for lat in latencies for x in lat), "ms"),
        "call_tail_ms": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    record = {
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "passes": len(pass_times), "pass_s_each": pass_times,
        "calls_per_pass": len(inputs), "call_tail_percentile": tail_pct,
        "call_tail_beyond": tail_beyond, "call_samples": attempted,
        "import_s_each": imports, "generate_load_s_each": loads,
        "output_sha256": digest(reference),
    }
    return metrics, record


def measure_traced(args) -> tuple[dict, dict]:
    """Traced run: a traced set-up, one untraced pass, then one traced pass."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    inputs = generate_and_load(args.workload, args.seed)
    tracer.uninstall()

    import workloads

    call = workloads.WORKLOADS[args.workload][1]
    call(WARMUP_DOC)
    plain_s, _, reference, failed = run_pass(call, inputs, None)
    tracer.install()
    try:
        traced_s, _, _, failures = run_pass(call, inputs, reference, tracer)
    finally:
        tracer.uninstall()
    failed += failures

    layer = tracer.layer_metrics(traced_s)
    layer["trace.overhead"] = traced_s / plain_s - 1.0
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "pass_s": traced_s})
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    record = {
        "attempted": 2 * len(inputs), "failed": failed,
        "error_rate": failed / (2 * len(inputs)),
        "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "output_sha256": digest(reference),
    }
    return metrics, record


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "calls": "count", "subsets": "count-computed",
            "bytes": "B", "distinct_frac": "ratio", "coverage": "ratio",
            "overhead": "ratio"}[suffix]


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    import_s = import_magcurv()
    import workloads  # after magcurv, whose import time includes numpy's

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.trace:
        metrics, record = measure_traced(args)
    else:
        metrics, record = measure(args, import_s)
    machine = machine_record(args.seed)

    print(f"machine: {json.dumps(machine)}")
    print(f"workload: {args.workload}  trace: {args.trace}  "
          f"output sha256: {record['output_sha256']}")
    print(f"record: {json.dumps(record)}")
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "machine": machine, "record": record,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
