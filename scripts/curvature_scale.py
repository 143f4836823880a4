#!/usr/bin/env python3
"""Curvature of a large sparse lift: kappa_max, wall time and traced peak memory.

Draws a connected random base graph with average degree about 3 (weights in
[0.5, 2], random phases), lifts it to about --vertices vertices, redrawing
until the lift is connected, and computes kappa_max(2) of the lift. The time and the
tracemalloc peak cover kappa_max alone, including the oriented-edge table,
the deg(x) x deg(x) matrices of the 1-ball reduction and the witnesses on the
2-balls that it builds; the peak is taken on a second, identical lift,
because tracing slows the allocations it records. That lift is built from a
reloaded copy of the base, since the lift of the base itself is stored on it
with its reduction already built.

The base carries phases in the 4th roots of unity (ELL), so its lift has
four vertices per base vertex; it is drawn from SEED, so a given --vertices
always gives the same lift. The curvature dimension is N = 2.

Usage: python scripts/curvature_scale.py [--vertices 2000]
"""

import argparse
import time
import tracemalloc

import numpy as np

from magcurv.curvature import kappa_max
from magcurv.graphs import is_connected, load_graph, random_magnetic_graph
from magcurv.lift import build_lift

ELL = 4
N = 2.0
SEED = 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--vertices", type=int, default=2000)
    args = ap.parse_args()

    rng = np.random.default_rng(SEED)
    base_n = max(3, args.vertices // ELL)
    for _ in range(100):
        base = random_magnetic_graph(base_n, 3.0 / (base_n - 1), ELL, rng=rng)
        lift = build_lift(base).graph
        if is_connected(lift):
            break
    else:
        print("no connected lift in 100 draws")
        return 1

    start = time.perf_counter()
    result = kappa_max(lift, N)
    elapsed = time.perf_counter() - start

    again = build_lift(load_graph(base.dumps())).graph
    tracemalloc.start()
    kappa_max(again, N)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(f"lift vertices: {lift.num_vertices}  edges: {len(lift.edges)}  "
          f"base ell: {ELL}")
    print(f"kappa_max(n={N:g}): {result.kappa_max:.12g} "
          f"at vertex {result.witness_vertex}")
    print(f"wall time: {elapsed:.2f} s  tracemalloc peak: {peak / 2**20:.1f} MiB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
