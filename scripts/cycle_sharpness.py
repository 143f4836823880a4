#!/usr/bin/env python3
"""Sharpness study on 2n-cycles with a single primitive-root edge.

For this family the magnetic girth is 2n, the base diameter is n, and the
covering diameter is n * ell, so the estimate lift_diameter <= 2D + ell * g
is tight in its highest-order term. The table tracks how the eigenvalue
lower bound compares with the true least eigenvalue as n and ell grow.

Usage: python scripts/cycle_sharpness.py [--max-n 6]
"""

import argparse

from magcurv.bounds import eigenvalue_lower_bound, lift_diameter_check
from magcurv.combinatorics import magnetic_girth
from magcurv.graphs import diameter, from_edge_list
from magcurv.lift import lift_diameter


def signed_cycle(n, ell):
    m = 2 * n
    edges = [(i, i + 1, 1.0, 0) for i in range(m - 1)] + [(0, m - 1, 1.0, 1)]
    return from_edge_list(m, ell, edges)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()

    print(f"{'n':>3} {'ell':>4} {'girth':>6} {'D':>4} {'lift D':>7} "
          f"{'2D+ell*g':>9} {'lambda_min':>12} {'bound':>12} {'ratio':>8}")
    for ell in (2, 3, 4):
        for n in range(2, args.max_n + 1):
            g = signed_cycle(n, ell)
            girth = magnetic_girth(g)
            dia = diameter(g)
            lift_dia = lift_diameter(g)
            check = lift_diameter_check(g)
            assert check.passed
            rec = eigenvalue_lower_bound(g, 2.0)
            ratio = rec.bound / rec.lambda_min if rec.lambda_min else float("nan")
            print(f"{n:>3} {ell:>4} {girth:>6} {dia:>4} {lift_dia:>7} "
                  f"{check.bound:>9} {rec.lambda_min:>12.8f} "
                  f"{rec.bound:>12.8f} {ratio:>8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
