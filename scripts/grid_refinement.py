#!/usr/bin/env python3
"""Fee convergence under uniform grid refinement.

Solves one contract on the baseline grid and on dyadic refinements of it,
printing the fee at (t=0, q0=0.5, S0=45) per level and the grid the solve
ran on (price-affine contracts at r = 0 keep a 3-node price axis). Each
solve keeps its t = 0 layer alone, so the 4x level (401x401, 4000 steps)
needs megabytes, not the 5 GB of its full surface. Useful to size the
discretization error against the table tolerances.

Usage: python scripts/grid_refinement.py [family] [levels]
"""
import sys
import time

import execfees as ef
from execfees.hjb import solve_fee_surfaces


def main(argv):
    family = argv[0] if argv else "linear_physical"
    levels = int(argv[1]) if len(argv) > 1 else 3
    params = ef.MarketParams()
    spec = ef.make_contract(family)
    grid = ef.GridSpec()
    prev = None
    for lvl in range(levels):
        t0 = time.time()
        surface, = solve_fee_surfaces([spec], params, grid)
        fee = surface.value_at(0.0, 45.0, 0.5)
        delta = "" if prev is None else f"  delta={fee - prev:+.2e}"
        g = surface.grid   # the grid the solve ran on, not the requested one
        print(f"level {lvl}: I={g.I:4d} J={g.J:4d} n_steps={g.n_steps:5d}  "
              f"fee={fee:.6f}{delta}  ({time.time() - t0:.1f}s)")
        prev = fee
        grid = grid.refine(2)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
